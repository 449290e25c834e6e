"""Command-line interface tests.

Oracles: numpy evaluation of whitelisted expressions on random points,
closed-form manufactured solutions for the study runners, and byte
comparison for reproducibility.  Studies here run on coarse meshes; the
fine-mesh numbers live in the acceptance suite.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import threading
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import polyvem.cli as cli
from polyvem.cli import (
    ConfigError,
    ExperimentConfig,
    build_coefficients,
    generate_mesh,
    main,
    parse_expression,
    run_study,
)
from polyvem import solvers
from polyvem.mesh import FAMILIES, MeshFamily, _build_mesh, _quad_cells, gen_square_th1
from polyvem.solvers import SolverError

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


@pytest.mark.parametrize(
    "src,why",
    [
        ("1/0", "float division by zero"),
        ("x + 1/0", "float division by zero"),
        ("2^2^24", "out of range"),
        ("1" + "0" * 400, "number too large"),
    ],
    ids=["divide_by_zero", "divide_by_zero_in_a_sum", "power_overflow", "literal_overflow"],
)
def test_expression_arithmetic_errors(src, why):
    # a constant part that fails is a usage error that names the expression,
    # whether it fails when parsed or when evaluated
    with pytest.raises(ConfigError, match=why) as caught:
        parse_expression(src)(np.array([0.5]), np.array([0.5]))
    assert repr(src) in str(caught.value)


def test_a_load_that_fails_to_evaluate_exits_2(tmp_path, capsys):
    # f is first evaluated inside assembly; its ConfigError reaches main
    cfg = {"problem": "load", "mesh_family": "th2", "N_list": [8], "coefficients": {"f": "1/0"}}
    (tmp_path / "div.json").write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(tmp_path / "div.json"), "--out", str(tmp_path)]) == 2
    assert "error: cannot evaluate expression '1/0'" in capsys.readouterr().err


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
        dict(mesh_family=["th2"]),  # JSON's list is no family name, and unhashable
        dict(N_list=()),
        dict(N_list=(8, 8)),
        dict(N_list=(16, 8)),
        dict(problem="eigen", eig_count=0),
        dict(coefficients="nosuch"),
        dict(coefficients=17),
        dict(domain="unit_square"),  # the family fixes it; no longer a key
        # the eigen pencil has no reaction or load slot
        dict(problem="eigen", coefficients={"kappa": "1", "gamma": "1"}),
        dict(problem="eigen", coefficients={"f": "1"}),
    ],
)
def test_config_rejections(overrides, tmp_path):
    p = tmp_path / "cfg.json"
    raw = dict(problem="load", mesh_family="th1", N_list=[4, 8], coefficients="test1")
    p.write_text(json.dumps({**raw, **overrides}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(p)


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


def test_config_that_is_a_directory(tmp_path):
    # read errors are the config's, not the "cannot write output" of main
    with pytest.raises(ConfigError, match="^cannot read config file"):
        ExperimentConfig.from_json(tmp_path)


def make_eigen_config(**overrides):
    return make_config(problem="eigen", coefficients="eigen_square", **overrides)


def test_config_hash_ignores_output_dir():
    a = make_eigen_config(output_dir="here")
    b = make_eigen_config(output_dir="there")
    assert a.config_hash == b.config_hash
    assert len(a.config_hash) == 12
    c = make_eigen_config(seed=1)
    assert c.config_hash != a.config_hash


def test_numpy_scalars_stored_as_python_numbers():
    cfg = make_eigen_config(eig_count=np.int64(4), seed=np.int64(3), shift=np.float32(1.5))
    assert (cfg.eig_count, cfg.seed, cfg.shift) == (4, 3, 1.5)
    assert [type(v) for v in (cfg.eig_count, cfg.seed, cfg.shift)] == [int, int, float]
    assert cfg.config_hash == make_eigen_config(eig_count=4, seed=3, shift=1.5).config_hash


def test_a_load_config_stating_the_default_eigen_inputs_has_the_plain_hash(tmp_path):
    # the hash of an accepted load study moves only with its numbers
    p = tmp_path / "cfg.json"
    raw = {"problem": "load", "mesh_family": "th2", "N_list": [4], "coefficients": "test1"}
    p.write_text(json.dumps(raw))
    plain = ExperimentConfig.from_json(p)
    p.write_text(json.dumps({**raw, "eig_count": 6, "seed": 0}))
    assert ExperimentConfig.from_json(p).config_hash == plain.config_hash == "8d319a780956"
    assert plain.domain == "unit_square" and '"domain":"unit_square"' in plain.canonical_json()


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
    record, quality, exact = run_study(cfg)
    assert len(quality) == 3 and exact is None
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
        run_study(cfg)


def test_run_eigen_study_square():
    cfg = make_config(
        problem="eigen",
        mesh_family="th2",
        N_list=(4, 8),
        coefficients="eigen_square",
        eig_count=2,
    )
    record, quality, exact = run_study(cfg)
    assert list(exact) == ["lambda_1", "lambda_2"]
    np.testing.assert_allclose(exact["lambda_1"], 0.25 + 2 * np.pi**2, rtol=1e-12)
    lam1 = record.column("lambda_1")
    # discrete values decrease toward the exact one under refinement
    assert lam1[1] < lam1[0]
    assert abs(lam1[1] - exact["lambda_1"]) < abs(lam1[0] - exact["lambda_1"])


# --- command level ----------------------------------------------------------


def _track_assembly(monkeypatch, refs):
    """Make cli.assemble hold weak references to the system, each operator
    it holds, the mesh and its cached geometry: 6 refs, then the mesh's."""
    assemble = cli.assemble

    def spy(mesh, *args, **kwargs):
        system = assemble(mesh, *args, **kwargs)
        operators = [getattr(system, name) for name in ("A", "B", "C", "M", "K_coupling")]
        # the geometry is a named tuple, which takes no weak references: its arrays do
        geometry = [*(a for batch in mesh.geometry.groups for a in batch), mesh.geometry.invalid]
        refs.extend(weakref.ref(obj) for obj in [system, *operators, mesh, *geometry])
        return system

    monkeypatch.setattr(cli, "assemble", spy)


def _logged(events, refs, name, fn=None):
    """A stand-in for fn (or for nothing) that first logs name and which of
    refs are alive."""

    def call(*args, **kwargs):
        events.append((name, [ref() is not None for ref in refs]))
        return None if fn is None else fn(*args, **kwargs)

    return call


def test_eigen_level_factors_with_only_the_pencil_alive(monkeypatch):
    # the assembled system, each operator it holds, the mesh and its cached
    # geometry are released before the eigensolve hands the freed heap
    # back; SuperLU's working storage goes back before Arnoldi starts
    refs, events = [], []
    _track_assembly(monkeypatch, refs)
    monkeypatch.setattr(solvers, "_release_heap", _logged(events, refs, "release"))
    for name in ("splu", "eigs"):
        monkeypatch.setattr(solvers.spla, name, _logged(events, refs, name, getattr(solvers.spla, name)))
    config = make_config(problem="eigen", mesh_family="th7", N_list=[16], coefficients="eigen_T")
    level = cli._eigen_level(config, build_coefficients(config)[0], 16)
    dead = [False] * len(refs)
    assert events == [("release", dead), ("splu", dead), ("release", dead), ("eigs", dead)]
    assert len(level.eigs.eigenvalues) == 6
    mesh = generate_mesh("th7", 16)
    assert level.h == mesh.h and level.quality == cli._quality_line(mesh, 16)


def test_load_level_factors_with_only_K_alive(monkeypatch):
    # the assembled system, and each operator it holds, is released before
    # the load solve; the |K| copy of its norm, and the heap the assembly
    # freed, go back to the OS before the factorization.  The mesh stays
    # for the error norms.
    refs, events = [], []
    _track_assembly(monkeypatch, refs)
    monkeypatch.setattr(solvers, "_release_heap", _logged(events, refs, "release"))
    for name in ("norm", "splu"):
        monkeypatch.setattr(solvers.spla, name, _logged(events, refs, name, getattr(solvers.spla, name)))
    config = make_config(mesh_family="th2", N_list=[8])
    coeffs, case = build_coefficients(config)
    level = cli._load_level(config, coeffs, case, 8)
    alive = [False] * 6 + [True] * (len(refs) - 6)
    assert events == [("norm", alive), ("release", alive), ("splu", alive)]
    assert 0.0 < level.values["err_l2"] < 0.05
    assert level.h == level.mesh.h and level.quality == cli._quality_line(level.mesh, 8)


def _spy_threads(monkeypatch):
    """Record the name of every thread started from here on."""
    started, thread = [], threading.Thread

    class Spy(thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Spy)
    return started


def test_a_solver_error_propagates_unchanged_past_the_moments_thread(monkeypatch):
    # the exact solution's moments fill on a thread while solve_load runs;
    # a failed solve still joins it, and its error is the one raised
    started = _spy_threads(monkeypatch)
    error = SolverError("load solve backward error 1e+00 exceeds 1e-10")

    def fail(K, F):
        raise error

    monkeypatch.setattr(cli, "solve_load", fail)
    config = make_config(mesh_family="th2", N_list=[8])
    coeffs, case = build_coefficients(config)
    before = threading.active_count()
    with pytest.raises(SolverError) as caught:
        cli._load_level(config, coeffs, case, 8)
    assert caught.value is error
    assert len(started) == 1 and threading.active_count() == before


def test_an_exception_of_the_exact_solution_surfaces_after_the_solve(monkeypatch):
    # u is evaluated at the boundary vertices for the lift (1-D) and at the
    # quadrature nodes on the thread (rows of cells): the thread's error is
    # raised by _load_level once the solve has finished
    events = []
    solve_load = cli.solve_load

    def logged_solve(K, F):
        u = solve_load(K, F)
        events.append("solved")
        return u

    def u(x, y):
        if np.ndim(x) == 2:
            raise FloatingPointError("u overflowed at a quadrature node")
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    monkeypatch.setattr(cli, "solve_load", logged_solve)
    config = make_config(mesh_family="th2", N_list=[8])
    coeffs, case = build_coefficients(config)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="at a quadrature node"):
        cli._load_level(config, coeffs, replace(case, u=u), 8)
    assert events == ["solved"] and threading.active_count() == before


@pytest.mark.parametrize("name", ["solve_th2_csv", "solve_case_without_u", "solve_config_no_u"])
def test_only_a_solve_with_an_exact_solution_starts_a_thread(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_pinned_configs(tmp_path)
    started = _spy_threads(monkeypatch)
    assert main([*PINNED[name].split(), "--quiet"]) == 0
    assert len(started) == (1 if name == "solve_th2_csv" else 0)


def test_eig_count_above_the_pencil_order_fails_before_factoring(monkeypatch, capsys, tmp_path):
    # th2 N=8 has n = 225 interior DOFs: k = 226 would have taken the dense
    # branch on the factors before failing on the count of finite values
    events = []
    monkeypatch.setattr(solvers.spla, "splu", _logged(events, [], "splu", solvers.spla.splu))
    argv = ["eig", "--family", "th2", "--case", "eigen_square", "--N", "8", "--eig-count"]
    assert main([*argv, "226", "--format", "csv", "--out", str(tmp_path)]) == 1
    assert "k = 226 exceeds the pencil's order n = 225" in capsys.readouterr().err
    assert events == []


class _NoTrim:
    """A C library without malloc_trim."""


@pytest.mark.parametrize("where", ["darwin", "no libc.so.6", "no malloc_trim"])
def test_heap_release_does_nothing_where_it_cannot_act(where, monkeypatch):
    import ctypes

    def cdll(name):
        if where == "darwin":
            raise AssertionError("opened a C library off Linux")
        if where == "no libc.so.6":
            raise OSError(f"{name}: cannot open shared object file")
        return _NoTrim()

    if where == "darwin":
        monkeypatch.setattr(sys, "platform", "darwin")
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert solvers._release_heap() is None


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's malloc_trim")
def test_heap_release_calls_malloc_trim_once(monkeypatch):
    import ctypes

    libc, calls = ctypes.CDLL("libc.so.6"), []

    class Counted:
        def malloc_trim(self, pad):
            calls.append(pad)
            return libc.malloc_trim(pad)

    monkeypatch.setattr(ctypes, "CDLL", lambda name: Counted())
    solvers._release_heap()
    assert calls == [0]


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
    "command, problem, coefficients, other",
    [("eig", "load", "test1", "eigen"), ("solve", "eigen", "eigen_square", "load")],
    ids=["eig_load_config", "solve_eigen_config"],
)
def test_single_level_commands_refuse_a_config_of_the_other_problem(
    tmp_path, capsys, monkeypatch, command, problem, coefficients, other
):
    # eig ran (A + B, M) with test1's gamma and f dropped, and solve solved a
    # zero load; both exited 0 and wrote the other study's config hash
    built = []
    monkeypatch.setattr(cli, "generate_mesh", lambda *args: built.append(args))
    p = tmp_path / "cfg.json"
    p.write_text(
        json.dumps(
            {
                "problem": problem,
                "mesh_family": "th2",
                "N_list": [4],
                "coefficients": coefficients,
                "output_dir": str(tmp_path / "out"),
            }
        )
    )
    assert main([command, "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {p} is a {problem} config; polyvem {command} runs only {other} problems\n"
    assert built == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        (dict(N_list="16"), "N_list must be a list of integers"),  # was read as N = 1, 6
        (dict(N_list=[4.7]), "N_list must be a list of integers"),  # was truncated to 4
        (dict(N_list=[True, 4]), "N_list must be a list of integers"),  # was read as 1
        (dict(N_list=[1]), "N must be an integer >= 2"),
        (dict(mesh_family="th7", coefficients="eigen_T", N_list=[5]), "N must be even"),
        (dict(eig_count=2.5), "eig_count must be an integer"),
        (dict(seed="x"), "seed must be an integer"),
        (dict(shift="x"), "shift must be a number"),
        # a TypeError of iterating an int, passed on as the message
        (dict(N_list=5), "error: N_list must be a list of integers, got 5\n"),
        # was "empty coefficient expression: 1"
        (
            dict(coefficients={"kappa": 1}),
            "error: coefficient expression must be a string, got 1\n",
        ),
        # Path(5) raised a TypeError: a traceback and exit 1
        (dict(output_dir=5), "error: output_dir must be a string, got 5\n"),
        (dict(output_dir=["a"]), "error: output_dir must be a string, got ['a']\n"),
    ],
    ids=[
        "N_str", "N_float", "N_bool", "N_small", "N_odd_T", "eig_count", "seed", "shift",
        "N_int", "kappa_number", "output_dir_int", "output_dir_list",
    ],
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


@pytest.mark.parametrize(
    "flags, fragment",
    [
        (["--seed", "-3"], "seed must be >= 0, got -3"),
        (["--shift", "nan"], "shift must be finite, got nan"),
        (["--shift", "inf"], "shift must be finite, got inf"),
        # argparse used to read -inf as an unknown option: "expected one argument"
        (["--shift", "-inf"], "shift must be finite, got -inf"),
    ],
    ids=["negative_seed", "shift_nan", "shift_inf", "shift_minus_inf"],
)
def test_eig_rejects_a_negative_seed_or_a_non_finite_shift(tmp_path, capsys, flags, fragment):
    # a negative seed ended in numpy's traceback (exit 1); a non-finite
    # shift ran six failed factorizations before exit 1
    argv = ["eig", "--family", "th2", "--case", "eigen_square", "--N", "4", "--eig-count", "2"]
    assert main([*argv, *flags, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {fragment}\n"
    assert not (tmp_path / "out").exists()


def test_eig_rejects_the_vtk_format_before_building_a_mesh(tmp_path, capsys, monkeypatch):
    # eig writes only a CSV: --format vtk wrote nothing and exited 0
    built = []
    monkeypatch.setattr(cli, "generate_mesh", lambda *args: built.append(args))
    argv = ["eig", "--family", "th2", "--case", "eigen_square", "--N", "4", "--format", "vtk"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "argument --format: invalid choice: 'vtk'" in capsys.readouterr().err
    assert built == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags", [["--shift", "-1e3"], ["--shift=-1e3"]], ids=["separate", "joined"]
)
def test_eig_takes_a_negative_shift_in_exponent_notation(tmp_path, capsys, flags):
    argv = ["eig", "--family", "th2", "--case", "eigen_square", "--N", "4", "--eig-count", "2"]
    assert main([*argv, *flags, "--format", "csv", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("shift -1000, ")


@pytest.mark.parametrize(
    "argv, flags",
    [
        # ran the file's th1 study and exited 0
        (["solve", "--config", "no_u.json", "--family", "th7", "--N", "16"], "--family, --N"),
        (["convergence", "--problem", "eigen", "--config", "no_u.json"], "--problem"),
        (["eig", "--config", "eig_square.json", "--eig-count", "6", "--shift", "0",
          "--case", "eigen_T"], "--case, --eig-count, --shift"),
    ],
    ids=["solve", "convergence", "eig"],
)
def test_study_flags_next_to_a_config_are_refused(argv, flags, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_pinned_configs(tmp_path)
    built = []
    monkeypatch.setattr(cli, "generate_mesh", lambda *args: built.append(args))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: --config fixes every study input; remove {flags}\n"
    assert built == [] and sorted(p.name for p in tmp_path.iterdir()) == sorted(PINNED_CONFIGS)


SOLVE_TH2 = ["solve", "--family", "th2", "--case", "test1", "--N", "4"]


@pytest.mark.parametrize(
    "argv, config, err",
    [
        # each of these three wrote the plain solve's numbers under another hash
        ([*SOLVE_TH2, "--seed", "5"], {}, "unrecognized arguments: --seed 5\n"),
        ([*SOLVE_TH2, "--shift", "3"], {}, "unrecognized arguments: --shift 3\n"),
        ([*SOLVE_TH2, "--eig-count", "9"], {}, "unrecognized arguments: --eig-count 9\n"),
        # ran and wrote no VTK file
        (["convergence", "--family", "th2", "--case", "test1", "--format", "csv"], {},
         "unrecognized arguments: --format csv\n"),
        (["convergence", "--problem", "load", "--family", "th2", "--case", "test1",
          "--eig-count", "3"], {},
         "error: load studies read no eig_count, shift or seed; remove: eig_count\n"),
        (["convergence", "--config", "c.json"], {"seed": 1},
         "error: load studies read no eig_count, shift or seed; remove: seed\n"),
        (["solve", "--config", "c.json"], {"domain": "unit_square"},
         "error: unknown config keys: domain\n"),
    ],
    ids=[
        "solve_seed", "solve_shift", "solve_eig_count", "convergence_format",
        "load_study_eig_count", "load_config_seed", "config_domain",
    ],
)
def test_removed_inputs_exit_2_before_a_mesh_is_built(
    argv, config, err, tmp_path, capsys, monkeypatch
):
    # eig --format vtk: test_eig_rejects_the_vtk_format_before_building_a_mesh
    monkeypatch.chdir(tmp_path)
    raw = {"problem": "load", "mesh_family": "th2", "N_list": [4], "coefficients": "test1"}
    (tmp_path / "c.json").write_text(json.dumps({**raw, **config}))
    built = []
    monkeypatch.setattr(cli, "generate_mesh", lambda *args: built.append(args))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's refusal
        code = exc.code
    assert code == 2
    assert err in capsys.readouterr().err
    assert built == [] and [p.name for p in tmp_path.iterdir()] == ["c.json"]


def test_output_flags_apply_on_top_of_a_config(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_pinned_configs(tmp_path)
    assert main(["eig", "--config", "eig_square.json", "--format", "csv", "--quiet", "--out", "o"]) == 0
    assert capsys.readouterr().out == "wrote o/eig_th2_N8.csv\n"


@pytest.mark.parametrize("command", ["solve", "eig", "convergence"])
def test_study_flags_take_their_defaults_from_the_config(command, tmp_path):
    # the parser holds no default of its own, so a flag-built study and a
    # file with only the required keys are one study, hash included
    args = cli.build_parser().parse_args([command, "--family", "th7", "--case", "eigen_T"])
    unset = {dest for dest in cli._STUDY_FLAGS if getattr(args, dest, None) is None}
    assert unset == set(cli._STUDY_FLAGS) - {"family", "case"}
    p = tmp_path / "c.json"
    problem = "eigen" if command == "eig" else "load"
    p.write_text(
        json.dumps(
            {
                "problem": problem,
                "mesh_family": "th7",
                "N_list": [16, 28, 60, 132],
                "coefficients": "eigen_T",
            }
        )
    )
    if command == "convergence":
        assert cli._load_config(args, problem) == ExperimentConfig.from_json(p)
    else:
        # solve and eig run the finest level of either
        from_file = cli.build_parser().parse_args([command, "--config", str(p)])
        assert cli._load_config(args, problem) == cli._load_config(from_file, problem)


def test_single_level_commands_take_no_N_single(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--family", "th2", "--case", "test1", "--N", "4", "--N-single", "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --N-single 8" in capsys.readouterr().err


def test_a_family_added_to_the_table_is_a_choice_with_its_domain_and_N_list(
    tmp_path, monkeypatch, capsys
):
    built = []

    def generate(N):
        built.append(N)
        return gen_square_th1(N)

    monkeypatch.setitem(FAMILIES, "th9", MeshFamily("unit_square", generate, (4,)))
    argv = ["solve", "--family", "th9", "--case", "test1", "--format", "csv", "--quiet"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert built == [4]
    assert capsys.readouterr().out == f"wrote {tmp_path / 'solution_th9_N4_errors.csv'}\n"
    assert ExperimentConfig("load", "th9", (4,), "test1").domain == "unit_square"


def test_a_generator_bug_is_exit_1_not_a_usage_error(tmp_path, monkeypatch, capsys):
    # a MeshConformityError is a ValueError, but not one of a bad N
    def generate(N):
        return _build_mesh([_quad_cells(0.0, 1.0, 0.0, 1.0, N, N)], "unit_square", (2, 2))

    monkeypatch.setitem(FAMILIES, "th9", MeshFamily("unit_square", generate, (3,)))
    assert main(["mesh", "--family", "th9", "--N", "3", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a generated point lies 0.333 lattice units off its family's lattice")
    assert list(tmp_path.iterdir()) == []


def test_main_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("family, N", [("th2", "1"), ("th4", "5")])
def test_mesh_command_rejects_a_bad_N_with_exit_2(tmp_path, capsys, family, N):
    # exit 2 as for solve, eig and convergence; this was exit 1
    assert main(["mesh", "--family", family, "--N", N, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: mesh family {family}: N must be")


@pytest.mark.parametrize(
    "argv",
    [
        ["eig", "--family", "th2", "--case", "test1", "--N", "8"],
        ["convergence", "--problem", "eigen", "--family", "th2", "--case", "test2", "--N", "4", "8"],
    ],
    ids=["eig_test1", "convergence_test2"],
)
def test_eigen_study_rejects_a_case_with_a_load(tmp_path, capsys, argv):
    # the study used to run, dropping the case's gamma and f from the pencil
    assert main([*argv, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    case = argv[argv.index("--case") + 1]
    assert err.startswith(f"error: case '{case}' has a load, which eigen problems drop")
    assert not (tmp_path / "out").exists()


def test_mesh_command(tmp_path, capsys):
    rc = main(["mesh", "--family", "th2", "--N", "4", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "th2_N4.json").exists()
    assert (tmp_path / "th2_N4.vtk").exists()
    report = (tmp_path / "th2_N4_report.txt").read_text()
    assert "min_edge/h" in report
    assert "reentrant corners: 0" in report


QUIET_COMMANDS = {
    "solve": ["solve", "--family", "th2", "--case", "test1", "--N", "4"],
    "eig": ["eig", "--family", "th2", "--case", "eigen_square", "--N", "4"],
}


@pytest.mark.parametrize("command", sorted(QUIET_COMMANDS))
def test_quiet_prints_only_the_written_files(command, tmp_path, capsys):
    # --quiet drops the result lines; the `wrote` lines stay, as for convergence
    argv = [*QUIET_COMMANDS[command], "--out", str(tmp_path)]
    assert main(argv) == 0
    loud = capsys.readouterr().out.splitlines()
    assert main([*argv, "--quiet"]) == 0
    quiet = capsys.readouterr().out.splitlines()
    wrote = [line for line in loud if line.startswith("wrote ")]
    assert quiet == wrote and 0 < len(wrote) < len(loud)


def test_failed_study_is_the_common_error_line(tmp_path, capsys, monkeypatch):
    # main maps a SolverError to exit 1 for every command, convergence included
    def fail(K, F):
        raise SolverError("load solve did not converge")

    monkeypatch.setattr(cli, "solve_load", fail)
    argv = ["convergence", "--family", "th1", "--case", "test1", "--N", "4", "8", "16"]
    assert main([*argv, "--out", str(tmp_path), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: load solve did not converge\n"


OUTPUT_COMMANDS = {
    "mesh": (["mesh", "--family", "th3", "--N", "8"], "th3_N8.json"),
    "solve": (["solve", "--family", "th1", "--case", "test1", "--N", "4"], "solution_th1_N4.vtk"),
    "eig": (
        ["eig", "--family", "th2", "--case", "eigen_square", "--N", "4", "--eig-count", "2"],
        "eig_th2_N4.csv",
    ),
    "convergence": (
        ["convergence", "--family", "th1", "--case", "test1", "--N", "4", "8", "--quiet"],
        "convergence_load_th1.csv",
    ),
}


@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
@pytest.mark.parametrize("blocked", ["directory", "file"])
def test_unwritable_output_is_a_usage_error(command, blocked, tmp_path, capsys):
    # a file where the output directory should be, or a directory where an
    # output file should be: exit 2 with an error line, not a traceback
    argv, output = OUTPUT_COMMANDS[command]
    out = tmp_path / "out"
    if blocked == "directory":
        out.write_text("")
    else:
        (out / output).mkdir(parents=True)
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: cannot write output: .+\n", err), err


def run_fresh(code, cwd):
    """Run code in a fresh interpreter on this checkout; its last stdout line.

    Other tests import scipy into this process, so what a command loads,
    or does on its first use of scipy, is seen only in a new one."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


LAZY_LOADED = "[m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')]"


@pytest.mark.parametrize(
    "code",
    [
        "import polyvem",
        "from polyvem.cli import main; main(['mesh', '--family', 'th3', '--N', '8', '--out', 'm'])",
    ],
    ids=["import_polyvem", "mesh_command"],
)
def test_loads_no_scipy(code, tmp_path):
    # assembly and the solvers import scipy on their first call; the
    # import alone costs about 0.3 s, most of a small mesh command.  A load
    # level imports concurrent.futures, and with it logging, 4-17 ms
    assert run_fresh(f"import sys; {code}; print({LAZY_LOADED})", tmp_path) == "[]"


FIRST_USE_COMMANDS = [
    ["solve", "--family", "th2", "--case", "test1", "--N", "8"],
    ["eig", "--family", "th2", "--case", "eigen_square", "--N", "8", "--eig-count", "2"],
]


def test_first_use_of_scipy_writes_the_same_csvs(tmp_path, capsys):
    # the fresh interpreter imports scipy inside the first assembly and the
    # first eigensolve; its CSVs must match those of this process
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    runs = [[*argv, "--out", str(fresh), "--format", "csv"] for argv in FIRST_USE_COMMANDS]
    assert run_fresh(
        f"import sys; from polyvem.cli import main; "
        f"print([main(argv) for argv in {runs!r}], 'scipy.sparse.linalg' in sys.modules)",
        tmp_path,
    ) == "[0, 0] True"
    for argv in FIRST_USE_COMMANDS:
        assert main([*argv, "--out", str(here), "--format", "csv"]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in here.iterdir())
    assert names == ["eig_th2_N8.csv", "solution_th2_N8_errors.csv"]
    assert sorted(p.name for p in fresh.iterdir()) == names
    for name in names:
        assert (fresh / name).read_bytes() == (here / name).read_bytes(), name


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
            "--N",
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


def test_a_one_level_csv_has_the_hash_of_its_one_level(tmp_path, capsys):
    # solve takes one --N; it used to run only the last of several and hash them all
    study = ["--family", "th2", "--case", "test1", "--quiet", "--N"]
    with pytest.raises(SystemExit) as exc:
        main(["solve", *study, "4", "8", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "unrecognized arguments: 8" in capsys.readouterr().err
    heads = set()
    for i, argv in enumerate([["solve", *study, "8"], ["convergence", *study, "8"]]):
        assert main([*argv, "--out", str(tmp_path / str(i))]) == 0
        heads.add(next((tmp_path / str(i)).glob("*.csv")).read_text().splitlines()[0])
    assert heads == {f"# config {make_config(mesh_family='th2', N_list=(8,)).config_hash}"}
    assert not (tmp_path / "x").exists()


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
    assert main(["eig", "--config", "eig_square.json", "--out", "out"]) == 0
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
    "solve_th1_both": "solve --family th1 --case test1 --N 8 --format both",
    "solve_th3_vtk": "solve --family th3 --case test2 --N 8 --format vtk",
    "solve_config_no_u": "solve --config no_u.json",
    "solve_case_without_u": "solve --family th1 --case eigen_square --N 4",
    "eig_th7_csv": "eig --family th7 --case eigen_T --eig-count 6 --format csv --seed 2 --N 16",
    "eig_th2_both": "eig --family th2 --case eigen_square --N 8 --eig-count 2 --format both",
    "eig_config": "eig --config eig_square.json",
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
