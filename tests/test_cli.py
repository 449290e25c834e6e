"""Command-line interface tests.

Oracles: numpy evaluation of whitelisted expressions on random points,
closed-form manufactured solutions for the study runners, and byte
comparison for reproducibility.  Studies here run on coarse meshes; the
fine-mesh numbers live in the acceptance suite.
"""

import contextlib
import io
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from polyvem.cli import (
    ConfigError,
    ExperimentConfig,
    build_coefficients,
    generate_mesh,
    main,
    parse_expression,
    run_eigen_study,
    run_load_study,
)

RNG = np.random.default_rng(20240817)


# --- expression parser ----------------------------------------------------


@pytest.mark.parametrize(
    "src, func",
    [
        ("x + y", lambda x, y: x + y),
        ("x*y - 2", lambda x, y: x * y - 2),
        ("x^2 + y^2", lambda x, y: x**2 + y**2),
        ("x**3/4", lambda x, y: x**3 / 4),
        ("-x + +y", lambda x, y: -x + y),
        ("sin(pi*x)*cos(pi*y)", lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y)),
        ("exp(x - y)", lambda x, y: np.exp(x - y)),
        ("2", lambda x, y: np.full(np.shape(x), 2.0)),
        ("1.5e-3*x", lambda x, y: 1.5e-3 * x),
    ],
)
def test_expression_values(src, func):
    f = parse_expression(src)
    x = RNG.uniform(-1, 2, size=37)
    y = RNG.uniform(-1, 2, size=37)
    np.testing.assert_allclose(f(x, y), func(x, y), rtol=1e-14, atol=1e-300)


def test_expression_scalar_broadcast():
    f = parse_expression("3.5")
    out = f(np.zeros(5), np.zeros(5))
    assert out.shape == (5,)
    np.testing.assert_array_equal(out, 3.5)


@pytest.mark.parametrize(
    "src",
    [
        "__import__('os')",
        "x.imag",
        "x if y else 0",
        "lambda z: z",
        "z + 1",
        "tan(x)",
        "sin(x, y)",
        "sin()",
        "sin(x=1)",
        "x @ y",
        "x // y",
        "x % y",
        "x < y",
        "'abc'",
        "True",
        "[1, 2]",
        "",
        "   ",
        "x +",
    ],
)
def test_expression_rejections(src):
    with pytest.raises(ConfigError):
        parse_expression(src)


def test_expression_no_builtins_leak():
    # the compiled code runs with empty builtins; only the whitelist resolves
    f = parse_expression("sin(x)")
    np.testing.assert_allclose(f(np.pi / 2, 0.0), 1.0, rtol=1e-15)


# --- configuration --------------------------------------------------------


def make_config(**overrides):
    base = dict(
        problem="load",
        mesh_family="th1",
        N_list=(4, 8),
        coefficients="test1",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_defaults():
    cfg = make_config()
    assert cfg.domain == "unit_square"
    assert cfg.eig_count == 6
    assert cfg.seed == 0
    assert cfg.N_list == (4, 8)


def test_config_domain_inferred_for_t_families():
    cfg = make_config(mesh_family="th4", coefficients="eigen_T", problem="eigen")
    assert cfg.domain == "rotated_T"


@pytest.mark.parametrize(
    "overrides",
    [
        dict(problem="wave"),
        dict(mesh_family="th9"),
        dict(N_list=()),
        dict(N_list=(8, 8)),
        dict(N_list=(16, 8)),
        dict(problem="eigen", eig_count=0),
        dict(coefficients="nosuch"),
        dict(coefficients=17),
        dict(domain="rotated_T"),  # th1 is a square family
        # the eigen pencil has no reaction or load slot
        dict(problem="eigen", coefficients={"kappa": "1", "gamma": "1"}),
        dict(problem="eigen", coefficients={"f": "1"}),
    ],
)
def test_config_rejections(overrides):
    with pytest.raises(ConfigError):
        make_config(**overrides)


def test_config_inline_eigen_accepts_kappa_theta():
    cfg = make_config(
        problem="eigen", coefficients={"kappa": "2", "theta": ["1", "0"]}
    )
    coeffs, case = build_coefficients(cfg)
    assert case is None
    np.testing.assert_array_equal(coeffs.kappa(np.zeros(3), np.zeros(3)), 2.0)


def test_config_from_json(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(
        json.dumps(
            {
                "problem": "eigen",
                "mesh_family": "th2",
                "N_list": [8, 16],
                "coefficients": "eigen_square",
                "eig_count": 3,
                "seed": 5,
            }
        )
    )
    cfg = ExperimentConfig.from_json(p)
    assert cfg.problem == "eigen"
    assert cfg.N_list == (8, 16)
    assert cfg.eig_count == 3
    assert cfg.seed == 5


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ("{not json", "not valid JSON"),
        ("[1, 2]", "JSON object"),
        ('{"problem": "load"}', "missing config keys"),
        (
            '{"problem": "load", "mesh_family": "th1", "N_list": [4, 8], '
            '"coefficients": "test1", "bogus": 1}',
            "unknown config keys",
        ),
    ],
)
def test_config_json_errors(tmp_path, payload, fragment):
    p = tmp_path / "bad.json"
    p.write_text(payload)
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig.from_json(p)


def test_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        ExperimentConfig.from_json("/nonexistent/cfg.json")


def test_config_hash_ignores_output_dir():
    a = make_config(output_dir="here")
    b = make_config(output_dir="there")
    assert a.config_hash == b.config_hash
    assert len(a.config_hash) == 12
    c = make_config(seed=1)
    assert c.config_hash != a.config_hash


def test_numpy_scalars_stored_as_python_numbers():
    cfg = make_config(eig_count=np.int64(4), seed=np.int64(3), shift=np.float32(1.5))
    assert (cfg.eig_count, cfg.seed, cfg.shift) == (4, 3, 1.5)
    assert [type(v) for v in (cfg.eig_count, cfg.seed, cfg.shift)] == [int, int, float]
    assert cfg.config_hash == make_config(eig_count=4, seed=3, shift=1.5).config_hash


# --- coefficient resolution ----------------------------------------------


def test_build_coefficients_named():
    coeffs, case = build_coefficients(make_config())
    assert case is not None and case.name == "test1"
    assert coeffs.domain == "unit_square"


def test_build_coefficients_named_domain_clash():
    # force a family/case mismatch past the config check
    cfg = make_config(mesh_family="th4", problem="eigen", coefficients="eigen_T")
    object.__setattr__(cfg, "coefficients", "eigen_square")
    with pytest.raises(ConfigError, match="defined on"):
        build_coefficients(cfg)


def test_build_coefficients_inline_defaults():
    cfg = make_config(coefficients={"f": "1"})
    coeffs, case = build_coefficients(cfg)
    assert case is None  # no exact solution supplied
    x = np.array([0.3, 0.7])
    np.testing.assert_array_equal(coeffs.kappa(x, x), 1.0)
    tx, ty = coeffs.theta(x, x)
    np.testing.assert_array_equal(tx, 0.0)
    np.testing.assert_array_equal(ty, 0.0)
    np.testing.assert_array_equal(coeffs.gamma(x, x), 0.0)
    np.testing.assert_array_equal(coeffs.f(x, x), 1.0)


def test_build_coefficients_inline_exact():
    cfg = make_config(
        coefficients={
            "f": "2*(y - y^2) + 2*(x - x^2)",
            "u": "(x - x^2)*(y - y^2)",
            "grad_u": ["(1 - 2*x)*(y - y^2)", "(x - x^2)*(1 - 2*y)"],
        }
    )
    coeffs, case = build_coefficients(cfg)
    assert case is not None and case.u is not None and case.grad_u is not None
    x, y = 0.25, 0.5
    assert case.u(x, y) == pytest.approx((x - x**2) * (y - y**2), rel=1e-15)


@pytest.mark.parametrize(
    "table",
    [
        {"f": "1", "bogus": "2"},
        {"theta": "1"},  # must be a pair
        {"theta": ["1"]},
        {"theta": ["1", "2", "3"]},
    ],
)
def test_build_coefficients_inline_rejections(table):
    with pytest.raises(ConfigError):
        build_coefficients(make_config(coefficients=table))


# --- mesh dispatch --------------------------------------------------------


@pytest.mark.parametrize(
    "family, domain",
    [("th1", "unit_square"), ("th2", "unit_square"), ("th3", "unit_square")],
)
def test_generate_mesh_square(family, domain):
    mesh = generate_mesh(family, 4)
    assert mesh.domain_tag == domain


@pytest.mark.parametrize("family", ["th4", "th5", "th6", "th7"])
def test_generate_mesh_t(family):
    mesh = generate_mesh(family, 16)
    assert mesh.domain_tag == "rotated_T"


def test_generate_mesh_unknown_family():
    with pytest.raises(ConfigError):
        generate_mesh("th0", 4)


# --- study runners (importable) --------------------------------------------


def test_run_load_study_errors_decrease():
    cfg = make_config(N_list=(4, 8, 16))
    record, quality = run_load_study(cfg)
    assert len(quality) == 3
    l2 = record.column("err_l2")
    h1 = record.column("err_h1")
    assert (np.diff(l2) < 0).all()
    assert (np.diff(h1) < 0).all()
    # roughly second / first order already on these coarse meshes
    assert record.fitted_order("err_l2") > 1.5
    assert record.fitted_order("err_h1") > 0.7


def test_run_load_study_needs_exact():
    cfg = make_config(coefficients={"f": "1"})
    with pytest.raises(ConfigError, match="exact solution"):
        run_load_study(cfg)


def test_run_eigen_study_square():
    cfg = make_config(
        problem="eigen",
        mesh_family="th2",
        N_list=(4, 8),
        coefficients="eigen_square",
        eig_count=2,
    )
    record, quality, exact = run_eigen_study(cfg)
    assert exact is not None
    np.testing.assert_allclose(exact[0], 0.25 + 2 * np.pi**2, rtol=1e-12)
    lam1 = record.column("lambda_1")
    # discrete values decrease toward the exact one under refinement
    assert lam1[1] < lam1[0]
    assert abs(lam1[1] - exact[0]) < abs(lam1[0] - exact[0])


# --- command level ----------------------------------------------------------


def test_main_usage_errors(capsys):
    assert main(["convergence", "--problem", "load", "--family", "th1"]) == 2
    assert "config" in capsys.readouterr().err.lower()
    assert (
        main(
            [
                "convergence",
                "--problem",
                "load",
                "--family",
                "th1",
                "--case",
                "nosuch",
                "--N",
                "4",
                "8",
            ]
        )
        == 2
    )
    assert "unknown named case" in capsys.readouterr().err


def test_assembly_error_is_a_config_error(tmp_path, capsys):
    # a non-positive kappa is caught at assembly; it is the user's
    # coefficient, so it exits 2 with an error line, not a traceback
    p = tmp_path / "cfg.json"
    p.write_text(
        json.dumps(
            {
                "problem": "load",
                "mesh_family": "th1",
                "N_list": [4],
                "coefficients": {"kappa": "-1", "f": "1", "u": "0", "grad_u": ["0", "0"]},
                "output_dir": str(tmp_path / "out"),
            }
        )
    )
    assert main(["solve", "--config", str(p), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cell 0: kappa must be strictly positive")


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        (dict(N_list="16"), "N_list must hold integers"),  # was read as N = 1, 6
        (dict(N_list=[4.7]), "N_list must hold integers"),  # was truncated to 4
        (dict(N_list=[True, 4]), "N_list must hold integers"),  # was read as 1
        (dict(N_list=[1]), "N must be an integer >= 2"),
        (dict(mesh_family="th7", coefficients="eigen_T", N_list=[5]), "N must be even"),
        (dict(eig_count=2.5), "eig_count must be an integer"),
        (dict(seed="x"), "seed must be an integer"),
        (dict(shift="x"), "shift must be a number"),
    ],
    ids=["N_str", "N_float", "N_bool", "N_small", "N_odd_T", "eig_count", "seed", "shift"],
)
def test_bad_study_input_exits_2(tmp_path, capsys, overrides, fragment):
    # each of these ran a wrong study or ended in a traceback
    raw = dict(
        problem="eigen",
        mesh_family="th2",
        N_list=[4],
        coefficients="eigen_square",
        eig_count=2,
        output_dir=str(tmp_path / "out"),
    )
    raw.update(overrides)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    assert main(["eig", "--config", str(p), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


def test_main_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_mesh_command(tmp_path, capsys):
    rc = main(["mesh", "--family", "th2", "--N", "4", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "th2_N4.json").exists()
    assert (tmp_path / "th2_N4.vtk").exists()
    report = (tmp_path / "th2_N4_report.txt").read_text()
    assert "min_edge/h" in report
    assert "reentrant corners: 0" in report


def test_mesh_command_flags_reentrant_corners(tmp_path):
    rc = main(["mesh", "--family", "th4", "--N", "16", "--out", str(tmp_path)])
    assert rc == 0
    report = (tmp_path / "th4_N16_report.txt").read_text()
    assert "reentrant corners: 2" in report


def test_solve_command_writes_outputs(tmp_path, capsys):
    rc = main(
        [
            "solve",
            "--family",
            "th1",
            "--case",
            "test1",
            "--N",
            "4",
            "8",
            "--out",
            str(tmp_path),
            "--format",
            "both",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert (tmp_path / "solution_th1_N8.vtk").exists()
    assert (tmp_path / "solution_th1_N8_errors.csv").exists()
    assert "err_l2" in out


def test_eig_command_reports_exact(tmp_path, capsys):
    rc = main(
        [
            "eig",
            "--family",
            "th2",
            "--case",
            "eigen_square",
            "--N-single",
            "8",
            "--eig-count",
            "2",
            "--out",
            str(tmp_path),
            "--format",
            "csv",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "lambda_1" in out and "exact" in out
    assert (tmp_path / "eig_th2_N8.csv").exists()


def test_convergence_csv_structure_and_determinism(tmp_path, capsys):
    cfg = {
        "problem": "eigen",
        "mesh_family": "th2",
        "N_list": [4, 8],
        "coefficients": "eigen_square",
        "eig_count": 2,
        "seed": 3,
        "output_dir": str(tmp_path / "a"),
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["convergence", "--config", str(p), "--quiet"]) == 0
    assert (
        main(["convergence", "--config", str(p), "--out", str(tmp_path / "b"), "--quiet"])
        == 0
    )
    capsys.readouterr()
    a = (tmp_path / "a" / "convergence_eigen_th2.csv").read_bytes()
    b = (tmp_path / "b" / "convergence_eigen_th2.csv").read_bytes()
    assert a == b
    text = a.decode()
    assert text.startswith("# config ")
    assert "# quality N=4:" in text and "# quality N=8:" in text
    assert "N,h,dof_count,lambda_1,lambda_2" in text
    assert "\nexact,,," in text


def test_convergence_load_with_inline_config(tmp_path, capsys):
    cfg = {
        "problem": "load",
        "mesh_family": "th1",
        "N_list": [4, 8, 16],
        "coefficients": {
            "f": "2*(y - y^2) + 2*(x - x^2)",
            "u": "(x - x^2)*(y - y^2)",
            "grad_u": ["(1 - 2*x)*(y - y^2)", "(x - x^2)*(1 - 2*y)"],
        },
        "output_dir": str(tmp_path),
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["convergence", "--config", str(p), "--quiet"]) == 0
    capsys.readouterr()
    text = (tmp_path / "convergence_load_th1.csv").read_text()
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    assert rows[0] == "N,h,dof_count,err_l2,err_h1"
    assert rows[-1].startswith("order,")
    # error columns: no exact/extrap footer
    assert not any(r.startswith(("exact,", "extrap,")) for r in rows)


def test_convergence_with_zero_error_column(tmp_path, capsys):
    # u = 0 is reproduced exactly, so err_l2 is 0 and has no log-log slope
    cfg = {
        "problem": "load",
        "mesh_family": "th1",
        "N_list": [4, 8, 16],
        "coefficients": {"u": "0", "f": "0"},
        "output_dir": str(tmp_path),
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["convergence", "--config", str(p)]) == 0
    out = capsys.readouterr().out
    assert "err_l2: order undefined (h and err values must be positive" in out
    rows = (tmp_path / "convergence_load_th1.csv").read_text().splitlines()
    assert rows[-1] == "order,,,"


def test_convergence_problem_read_from_config(tmp_path, capsys):
    cfg = {
        "problem": "eigen",
        "mesh_family": "th2",
        "N_list": [4, 8],
        "coefficients": "eigen_square",
        "eig_count": 1,
        "output_dir": str(tmp_path),
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    # no --problem flag: the config decides
    assert main(["convergence", "--config", str(p), "--quiet"]) == 0
    capsys.readouterr()
    assert (tmp_path / "convergence_eigen_th2.csv").exists()


def test_out_overrides_config_output_dir(tmp_path, monkeypatch, capsys):
    # "out" is also the flag's fallback; given explicitly it must still win
    monkeypatch.chdir(tmp_path)
    _write_pinned_configs(tmp_path)
    assert main(["eig", "--config", "eig_square.json", "--N-single", "8", "--out", "out"]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "eig_th2_N8.csv").exists()
    assert not (tmp_path / "elsewhere").exists()


def test_convergence_extrapolates_each_column_once(tmp_path, monkeypatch, capsys):
    # the CSV footer and the printout share one fit per column
    import polyvem.analysis as analysis

    calls = []
    fit = analysis.extrapolate
    monkeypatch.setattr(analysis, "extrapolate", lambda *a: calls.append(a) or fit(*a))
    monkeypatch.chdir(tmp_path)
    _write_pinned_configs(tmp_path)
    assert main(["convergence", "--config", "conv_T.json", "--quiet"]) == 0
    capsys.readouterr()
    assert len(calls) == 3  # eig_count


# --- pinned command outputs -------------------------------------------------
#
# Each invocation runs in a fresh directory, so the default `out` and a
# config's own output_dir land inside it.  The expected
# exit code, stdout/stderr lines, warnings and CSV lines are in
# cli_pinned.json, written by `_capture` at the commit before the one-driver
# refactor of cli.py.  Text must match exactly and numbers to rel 1e-9
# (abs 1e-12, the round-off level of the printed residuals), so another
# BLAS does not break the test.

_INLINE_LOAD = {
    "f": "2*(y - y^2) + 2*(x - x^2)",
    "u": "(x - x^2)*(y - y^2)",
    "grad_u": ["(1 - 2*x)*(y - y^2)", "(x - x^2)*(1 - 2*y)"],
}

PINNED_CONFIGS = {
    "no_u.json": {
        "problem": "load",
        "mesh_family": "th1",
        "N_list": [4, 8],
        "coefficients": {"f": "1"},
    },
    "eig_square.json": {
        "problem": "eigen",
        "mesh_family": "th2",
        "N_list": [4, 8],
        "coefficients": "eigen_square",
        "eig_count": 3,
        "output_dir": "elsewhere",
    },
    "conv_square.json": {
        "problem": "eigen",
        "mesh_family": "th2",
        "N_list": [4, 8, 16],
        "coefficients": "eigen_square",
        "eig_count": 2,
    },
    "conv_T.json": {
        "problem": "eigen",
        "mesh_family": "th7",
        "N_list": [8, 16, 28],
        "coefficients": "eigen_T",
        "eig_count": 3,
        "seed": 1,
    },
    "conv_load.json": {
        "problem": "load",
        "mesh_family": "th1",
        "N_list": [4, 8, 16],
        "coefficients": _INLINE_LOAD,
    },
}

PINNED = {
    "solve_th2_csv": "solve --family th2 --case test1 --format csv --N 8",
    "solve_th1_both": "solve --family th1 --case test1 --N 4 8 --format both",
    "solve_th3_vtk": "solve --family th3 --case test2 --N-single 8 --format vtk",
    "solve_config_no_u": "solve --config no_u.json",
    "solve_case_without_u": "solve --family th1 --case eigen_square --N 4",
    "eig_th7_csv": "eig --family th7 --case eigen_T --eig-count 6 --format csv --seed 2 --N 16",
    "eig_th2_both": "eig --family th2 --case eigen_square --N-single 8 --eig-count 2 --format both",
    "eig_config": "eig --config eig_square.json --N-single 8",
    "conv_square_exact": "convergence --config conv_square.json",
    "conv_T_extrap": "convergence --config conv_T.json",
    "conv_inline_load": "convergence --config conv_load.json",
    "conv_flags_load": "convergence --problem load --family th2 --case test1 --N 4 8 16",
    "conv_quiet": "convergence --config conv_square.json --quiet",
    "conv_no_u": "convergence --config no_u.json",
    "unknown_case": "solve --family th1 --case nosuch --N 4",
    "missing_case": "eig --family th2 --N 4",
}


def _capture(argv: list) -> dict:
    """Run main in the current directory; what it printed, warned and wrote."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    files = {}
    for path in sorted(Path(".").rglob("*")):
        if path.is_file() and path.name not in PINNED_CONFIGS:
            # VTK payloads are long; their names are pinned, their values are
            # checked by the mesh and solve tests
            files[path.as_posix()] = (
                path.read_text().splitlines() if path.suffix == ".csv" else None
            )
    return {
        "exit": code,
        "stdout": out.getvalue().splitlines(),
        "stderr": err.getvalue().splitlines(),
        "warnings": [str(w.message) for w in caught],
        "files": files,
    }


def _write_pinned_configs(directory) -> None:
    for name, cfg in PINNED_CONFIGS.items():
        (directory / name).write_text(json.dumps(cfg))


_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _assert_lines_match(got: list, want: list, where: str) -> None:
    assert len(got) == len(want), f"{where}: {len(got)} lines, expected {len(want)}"
    for g, w in zip(got, want):
        assert _NUMBER.split(g) == _NUMBER.split(w), f"{where}: {g!r} != {w!r}"
        for a, b in zip(_NUMBER.findall(g), _NUMBER.findall(w)):
            assert float(a) == pytest.approx(float(b), rel=1e-9, abs=1e-12), (
                f"{where}: {g!r} != {w!r}"
            )


_PINNED_FILE = Path(__file__).with_name("cli_pinned.json")


@pytest.mark.parametrize("name", sorted(PINNED))
def test_command_output_pinned(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_pinned_configs(tmp_path)
    got = _capture(PINNED[name].split())
    want = json.loads(_PINNED_FILE.read_text())[name]
    assert got["exit"] == want["exit"]
    for stream in ("stdout", "stderr", "warnings"):
        _assert_lines_match(got[stream], want[stream], f"{name} {stream}")
    assert sorted(got["files"]) == sorted(want["files"])
    for path, lines in want["files"].items():
        if lines is not None:
            _assert_lines_match(got["files"][path], lines, f"{name} {path}")
