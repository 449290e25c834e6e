"""Command-line driver: meshes, single solves, and convergence studies.

Everything is batch and config-driven so a study is reproducible from its
JSON alone; CSVs embed a hash of the config for provenance.  Exit codes:
0 success, 1 numerical failure, 2 usage/config error (including an
`AssemblyError`: coefficients that cannot be assembled, such as a
non-positive kappa, or coefficients defined on another domain).
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import sys
from numbers import Integral, Real
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .analysis import ConvergenceRecord, exact_moments, finish_error_norms, is_complex
from .analysis import error_h1_semi, error_l2  # noqa: F401  perfbench/spans.py wraps these names
from .assembly import AssemblyError, apply_dirichlet_lift, assemble, expand_solution
from .coefficients import CASES, CoefficientSet, ManufacturedCase
from .mesh import (
    FAMILIES,
    MeshConformityError,
    PolyMesh,
    export_vtk,
    io_write,
    reentrant_corners,
    validate,
)
from .solvers import EigenResult, SolverError, solve_eigs, solve_load, suggested_shift

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_expression",
    "build_coefficients",
    "generate_mesh",
    "run_study",
    "main",
]

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    """Invalid configuration or expression; maps to exit code 2."""


# --- inline coefficient expressions -------------------------------------

_ALLOWED_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_ALLOWED_NAMES = {"x", "y", "pi"}
_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)


def _validate_expr_node(node: ast.AST, src: str) -> None:
    if isinstance(node, ast.Expression):
        _validate_expr_node(node.body, src)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise ConfigError(f"operator not allowed in expression: {src!r}")
        _validate_expr_node(node.left, src)
        _validate_expr_node(node.right, src)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _ALLOWED_UNARY):
            raise ConfigError(f"operator not allowed in expression: {src!r}")
        _validate_expr_node(node.operand, src)
    elif isinstance(node, ast.Call):
        if (
            not isinstance(node.func, ast.Name)
            or node.func.id not in _ALLOWED_CALLS
            or len(node.args) != 1
            or node.keywords
        ):
            raise ConfigError(
                f"only sin/cos/exp with one argument may be called: {src!r}"
            )
        _validate_expr_node(node.args[0], src)
    elif isinstance(node, ast.Name):
        if node.id not in _ALLOWED_NAMES:
            raise ConfigError(f"unknown name {node.id!r} in expression {src!r}")
    elif isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise ConfigError(f"only numeric literals allowed: {src!r}")
    else:
        raise ConfigError(f"syntax not allowed in expression: {src!r}")


def parse_expression(src: str) -> Callable:
    """Compile an arithmetic expression of x and y into a vectorized callable.

    Grammar: numbers, x, y, pi, + - * / ^ (or **), unary minus, and the
    calls sin, cos, exp.  Anything else is rejected.  Numbers are floats,
    so 9^9^9 overflows at once instead of building a huge integer, and an
    ArithmeticError of an evaluation (1/0, 2^2^24) raises ConfigError.
    """
    if not isinstance(src, str):
        raise ConfigError(f"coefficient expression must be a string, got {src!r}")
    if not src.strip():
        raise ConfigError(f"empty coefficient expression: {src!r}")
    text = src.replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {src!r}: {exc.msg}") from exc
    _validate_expr_node(tree, src)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            try:
                node.value = float(node.value)
            except OverflowError:
                raise ConfigError(f"number too large in expression {src!r}") from None
    code = compile(tree, "<coefficient>", "eval")
    env = dict(_ALLOWED_CALLS, pi=np.pi)

    def func(x, y, _code=code, _env=env):
        try:
            out = eval(_code, {"__builtins__": {}}, dict(_env, x=x, y=y))
        except ArithmeticError as exc:  # an OverflowError's args are (errno, message)
            raise ConfigError(f"cannot evaluate expression {src!r}: {exc.args[-1]}") from exc
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(x)).copy()

    func.expression = src
    return func


def _parse_vector_expression(pair) -> Callable:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(s, str) for s in pair)
    ):
        raise ConfigError(f"vector coefficient must be a pair of expressions: {pair!r}")
    fx = parse_expression(pair[0])
    fy = parse_expression(pair[1])

    def func(x, y):
        return fx(x, y), fy(x, y)

    func.expression = list(pair)
    return func


# --- configuration -------------------------------------------------------


def _is_a(value, kind) -> bool:
    """value is a `kind` number and not a bool (JSON's true would read as 1)."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """One reproducible experiment: problem, meshes, coefficients.

    A load study reads no eigensolver input, so it takes `eig_count`,
    `shift` and `seed` only at their defaults.
    """

    problem: str
    mesh_family: str
    N_list: tuple
    coefficients: Union[str, dict]
    eig_count: int = 6
    shift: Optional[float] = None
    output_dir: str = "out"
    seed: int = 0

    def __post_init__(self):
        if self.problem not in ("load", "eigen"):
            raise ConfigError(f"problem must be 'load' or 'eigen', got {self.problem!r}")
        if not (isinstance(self.mesh_family, str) and self.mesh_family in FAMILIES):
            raise ConfigError(
                f"mesh_family must be one of {', '.join(FAMILIES)}, got {self.mesh_family!r}"
            )
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        if not isinstance(self.N_list, (list, tuple)) or not all(
            _is_a(n, Integral) for n in self.N_list
        ):
            raise ConfigError(f"N_list must be a list of integers, got {self.N_list!r}")
        ns = tuple(int(n) for n in self.N_list)
        if not ns:
            raise ConfigError("N_list must not be empty")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ConfigError(f"N_list must be strictly ascending, got {list(ns)}")
        object.__setattr__(self, "N_list", ns)
        # stored as Python numbers, so numpy scalars serialize in config_hash
        for name in ("eig_count", "seed"):
            if not _is_a(getattr(self, name), Integral):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.seed < 0:
            # numpy's generator takes no negative seed
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.shift is not None:
            if not _is_a(self.shift, Real):
                raise ConfigError(f"shift must be a number, got {self.shift!r}")
            object.__setattr__(self, "shift", float(self.shift))
            if not np.isfinite(self.shift):
                raise ConfigError(f"shift must be finite, got {self.shift}")
        if self.problem == "load":
            # a value the study never reads would change the hash, not the numbers
            extra = [
                f.name for f in fields(self)
                if f.name in ("eig_count", "shift", "seed") and getattr(self, f.name) != f.default
            ]
            if extra:
                raise ConfigError(
                    f"load studies read no eig_count, shift or seed; remove: {', '.join(extra)}"
                )
        if self.problem == "eigen" and self.eig_count < 1:
            raise ConfigError("eig_count must be >= 1 for eigenvalue problems")
        if isinstance(self.coefficients, str):
            if self.coefficients not in CASES:
                raise ConfigError(
                    f"unknown named case {self.coefficients!r}; "
                    f"available: {', '.join(sorted(CASES))}"
                )
            if self.problem == "eigen" and CASES[self.coefficients].coeffs.f is not None:
                # as for a table: the pencil would silently drop its gamma and f
                eigen = sorted(name for name, c in CASES.items() if c.coeffs.f is None)
                raise ConfigError(
                    f"case {self.coefficients!r} has a load, which eigen problems drop; "
                    f"eigen cases: {', '.join(eigen)}"
                )
        elif isinstance(self.coefficients, dict):
            if self.problem == "eigen":
                # the pencil is (A + B, M): reaction and load terms have no
                # place in it, so reject rather than silently drop them
                bad = {"gamma", "f", "u", "grad_u"} & set(self.coefficients)
                if bad:
                    raise ConfigError(
                        "eigen problems take only kappa and theta; remove: "
                        + ", ".join(sorted(bad))
                    )
        else:
            raise ConfigError("coefficients must be a case name or an expression table")

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "ExperimentConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config is not valid JSON ({path}, line {exc.lineno}, "
                f"column {exc.colno})"
            ) from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(raw)
        if missing:
            raise ConfigError(f"missing config keys: {', '.join(sorted(missing))}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def domain(self) -> str:
        """The domain the family's meshes cover."""
        return FAMILIES[self.mesh_family].domain

    def canonical_json(self) -> str:
        # output_dir is deliberately excluded: it does not affect the numbers,
        # and the hash must agree for the same study written anywhere.  The
        # domain is kept, so hashes from when it was a key still hold.
        data = asdict(self)
        del data["output_dir"]
        data["domain"] = self.domain
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]


def build_coefficients(
    config: ExperimentConfig,
) -> tuple[CoefficientSet, Optional[ManufacturedCase]]:
    """Resolve the config's coefficients to a CoefficientSet (+ named case)."""
    if isinstance(config.coefficients, str):
        case = CASES[config.coefficients]
        if case.coeffs.domain != config.domain:
            raise ConfigError(
                f"case {case.name!r} is defined on {case.coeffs.domain}, "
                f"but the study runs on {config.domain}"
            )
        return case.coeffs, case

    table = config.coefficients
    unknown = set(table) - {"kappa", "theta", "gamma", "f", "u", "grad_u"}
    if unknown:
        raise ConfigError(f"unknown coefficient entries: {', '.join(sorted(unknown))}")
    kappa = parse_expression(table.get("kappa", "1"))
    theta = _parse_vector_expression(table.get("theta", ["0", "0"]))
    gamma = parse_expression(table.get("gamma", "0"))
    f = parse_expression(table["f"]) if "f" in table else None
    coeffs = CoefficientSet(kappa, theta, gamma, f=f, domain=config.domain)
    case = None
    if "u" in table:
        u = parse_expression(table["u"])
        grad_u = _parse_vector_expression(table["grad_u"]) if "grad_u" in table else None
        case = ManufacturedCase("inline", coeffs, u=u, grad_u=grad_u)
    return coeffs, case


def generate_mesh(family: str, N: int) -> PolyMesh:
    """The mesh of `family` at resolution N.

    Raises
    ------
    ConfigError
        On an unknown family, or an N the family's generator rejects.
    """
    if family not in FAMILIES:
        raise ConfigError(f"unknown mesh family {family!r}")
    try:
        return FAMILIES[family].generate(N)
    except MeshConformityError:  # a generator bug, not a usage error
        raise
    except ValueError as exc:
        raise ConfigError(f"mesh family {family}: {exc}") from exc


def _quality_line(mesh: PolyMesh, N: int) -> str:
    rep = validate(mesh)
    return (
        f"quality N={N}: h={rep.h:.6g} min_edge={rep.min_edge:.6g} "
        f"min_edge/h={rep.min_edge_over_h:.6g} min_rho={rep.min_rho:.6g} "
        f"cells={rep.cell_count} vertices={rep.vertex_count}"
    )


# --- one refinement level per problem ----------------------------------------


@dataclass(frozen=True)
class _Level:
    """What one refinement level produced.

    h and the quality line are read while the mesh is alive.  Only a load
    level keeps its mesh, for the error norms and the solution VTK; an
    eigen level drops it before the eigensolve.
    """

    h: float
    quality: str  # `_quality_line` of the mesh
    n: int  # interior DOFs
    values: dict  # error norms, or the real parts of the eigenvalues
    mesh: Optional[PolyMesh] = None  # load only
    u: Optional[np.ndarray] = None  # load: the nodal solution, boundary included
    eigs: Optional[EigenResult] = None
    shift: Optional[float] = None


def _load_level(
    config: ExperimentConfig, coeffs: CoefficientSet, case: Optional[ManufacturedCase], N: int
) -> _Level:
    """Solve the load problem on the mesh of resolution N.

    With an exact solution in `case` its boundary values are lifted and the
    errors measured; without one the lift is 0 and no errors are returned.
    The part of the errors that reads only u (`exact_moments`) runs on a
    one-worker executor while `solve_load` factors K, since SuperLU releases
    the GIL.  Leaving the executor joins the worker on every path; an
    exception the worker raised is raised by `result()` after the solve.
    """
    from concurrent.futures import ThreadPoolExecutor  # imported here: keeps start-up fast

    mesh = generate_mesh(config.mesh_family, N)
    system = assemble(mesh, coeffs)
    u_exact = None if case is None else case.u
    delta, g_b = apply_dirichlet_lift(system, mesh, 0.0 if u_exact is None else u_exact)
    K, F, dof, n = system.K_load.tocsc(), system.F + delta, system.dof, system.n
    # only K and F live through the factorization
    del system, delta
    moments = None  # a case without an exact solution submits nothing: no thread starts
    with ThreadPoolExecutor(1, thread_name_prefix="polyvem-exact-moments") as pool:
        if u_exact is not None:
            moments = pool.submit(exact_moments, mesh, u_exact, case.grad_u)
        u_full = expand_solution(dof, solve_load(K, F), g_b)
    values = {}
    if moments is not None:
        values["err_l2"], err_h1 = finish_error_norms(mesh, moments.result(), u_full)
        if err_h1 is not None:
            values["err_h1"] = err_h1
    return _Level(mesh.h, _quality_line(mesh, N), n, values, mesh=mesh, u=u_full)


def _eigen_level(config: ExperimentConfig, coeffs: CoefficientSet, N: int) -> _Level:
    """Solve the eigenproblem (A + B, M) on the mesh of resolution N."""
    mesh = generate_mesh(config.mesh_family, N)
    system = assemble(mesh, coeffs)
    pencil = (system.A + system.B).tocsc(), system.M.tocsc()
    field_bound, n = system.field_bound, system.n
    h, quality = mesh.h, _quality_line(mesh, N)
    # only the pencil lives through the eigensolve: the mesh, with its
    # cached geometry and topology, goes with the system
    del mesh, system
    shift = config.shift if config.shift is not None else suggested_shift(config.domain, coeffs)
    result = solve_eigs(
        *pencil, config.eig_count, shift=shift, seed=config.seed, field_bound=field_bound
    )
    values = {f"lambda_{j + 1}": float(lam.real) for j, lam in enumerate(result.eigenvalues)}
    return _Level(h, quality, n, values, eigs=result, shift=shift)


def _exact_eigenvalues(case: Optional[ManufacturedCase], k: int) -> Optional[list]:
    if case is None or case.exact_eigenvalues is None:
        return None
    return np.asarray(case.exact_eigenvalues(k), dtype=float).tolist()


# --- studies --------------------------------------------------------------


def run_study(
    config: ExperimentConfig, log: Callable[[str], None] = lambda s: None
) -> tuple[ConvergenceRecord, list[str], Optional[dict]]:
    """Solve the config's problem over N_list.

    Returns the record, the quality line of each level and, for an eigen
    case with a closed form, the exact eigenvalues keyed by column.
    """
    coeffs, case = build_coefficients(config)
    load = config.problem == "load"
    if load and (case is None or case.u is None):
        raise ConfigError(
            "a load study needs an exact solution: use a named case or an "
            "inline 'u' (and optionally 'grad_u') expression"
        )
    record = ConvergenceRecord()
    quality = []
    fmt = ".6e" if load else ".6f"
    for N in config.N_list:
        level = _load_level(config, coeffs, case, N) if load else _eigen_level(config, coeffs, N)
        quality.append(level.quality)
        record.add_entry(N, level.h, level.n, level.values)
        line = f"N={N}: " + " ".join(f"{k}={v:{fmt}}" for k, v in level.values.items())
        if not load:
            if any(is_complex(lam) for lam in level.eigs.eigenvalues):
                log(f"N={N}: warning: complex eigenvalues reported: {level.eigs.eigenvalues}")
            line += f" (discarded {level.eigs.discarded_count} infinite modes)"
        log(line)
    exact = None if load else _exact_eigenvalues(case, config.eig_count)
    if exact is not None:
        exact = dict(zip(record.names, exact))
        record.check_monotone_from_above(exact)
    return record, quality, exact


# --- commands -------------------------------------------------------------


def _cmd_mesh(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mesh = generate_mesh(args.family, args.N)
    report = validate(mesh)
    stem = f"{args.family}_N{args.N}"
    io_write(out / f"{stem}.json", mesh)
    export_vtk(out / f"{stem}.vtk", mesh)
    corners = reentrant_corners(mesh)
    lines = [
        f"family {args.family}, N={args.N}",
        f"vertices {report.vertex_count}, cells {report.cell_count}",
        f"h = {report.h:.8g}",
        f"min_edge = {report.min_edge:.8g}",
        f"min_edge/h = {report.min_edge_over_h:.8g}",
        f"min_edge/h^2 = {report.min_edge / report.h**2:.8g}",
        f"min_rho = {report.min_rho:.8g}",
        f"reentrant corners: {len(corners)}"
        + (
            " at " + ", ".join(f"({c[0]:.4g}, {c[1]:.4g})" for c in corners)
            if corners
            else ""
        ),
    ]
    (out / f"{stem}_report.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    print(f"wrote {out / (stem + '.json')}, {out / (stem + '.vtk')}")
    return EXIT_OK


# the config key of each study flag, by its argparse dest; a flag not given
# leaves the key to its `ExperimentConfig` default
_STUDY_FLAGS = {
    "problem": "problem", "family": "mesh_family", "case": "coefficients", "N": "N_list",
    "eig_count": "eig_count", "shift": "shift", "seed": "seed",
}


def _load_config(args, problem: str) -> ExperimentConfig:
    """The command's study: the --config file, or the flags as a `problem` study.

    A config file fixes every study input, its problem included, so a
    study flag next to it is refused; --out, when given, replaces its
    output_dir.  `convergence` runs the file's problem; `solve` and `eig`
    refuse a file of the other.  `solve` and `eig` run one level: their
    --N, else the finest of the file's or the family's N list.
    """
    given = {k: v for k, v in vars(args).items() if k in _STUDY_FLAGS and v is not None}
    one_level = args.command != "convergence"
    if args.config:
        if given:
            flags = ", ".join("--" + dest.replace("_", "-") for dest in given)
            raise ConfigError(f"--config fixes every study input; remove {flags}")
        config = ExperimentConfig.from_json(args.config)
        if one_level and config.problem != problem:
            raise ConfigError(
                f"{args.config} is a {config.problem} config; "
                f"polyvem {args.command} runs only {problem} problems"
            )
        if args.out is not None:
            config = replace(config, output_dir=args.out)
    else:
        if "family" not in given:
            raise ConfigError("either --config or --family is required")
        if "case" not in given:
            raise ConfigError("either --config or --case is required")
        if one_level and "N" in given:
            given["N"] = (given["N"],)
        study = {"problem": problem, "N_list": FAMILIES[args.family].table_N}
        study.update((_STUDY_FLAGS[dest], value) for dest, value in given.items())
        if args.out is not None:
            study["output_dir"] = args.out
        config = ExperimentConfig(**study)
    return replace(config, N_list=config.N_list[-1:]) if one_level else config


def _log(args) -> Callable[[str], None]:
    """print, or with --quiet nothing: the result lines of a command; the
    `wrote` lines are printed either way."""
    return (lambda s: None) if args.quiet else print


def _write_level_csv(path: Path, config: ExperimentConfig, level: _Level) -> None:
    """The CSV of a one-level study, headed by its hash, which
    `convergence --N <N>` writes too, and the quality line."""
    (N,) = config.N_list
    record = ConvergenceRecord()
    record.add_entry(N, level.h, level.n, level.values)
    header = f"config {config.config_hash}\n{level.quality}"
    print(f"wrote {record.write_csv(path, header_comment=header)}")


def _cmd_solve(args) -> int:
    config = _load_config(args, "load")
    coeffs, case = build_coefficients(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (N,) = config.N_list
    level = _load_level(config, coeffs, case, N)
    stem = f"solution_{config.mesh_family}_N{N}"
    if args.format in ("vtk", "both"):
        export_vtk(out / f"{stem}.vtk", level.mesh, field=level.u)
        print(f"wrote {out / (stem + '.vtk')}")
    # the error CSV needs errors, which need an exact solution
    if level.values and args.format in ("csv", "both"):
        _write_level_csv(out / f"{stem}_errors.csv", config, level)
    log = _log(args)
    for k, v in level.values.items():
        log(f"{k} = {v:.8e}")
    log(f"solution range [{level.u.min():.6g}, {level.u.max():.6g}] on {level.n} DOFs")
    return EXIT_OK


def _cmd_eig(args) -> int:
    config = _load_config(args, "eigen")
    coeffs, case = build_coefficients(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (N,) = config.N_list
    level = _eigen_level(config, coeffs, N)
    result = level.eigs
    log = _log(args)
    log(f"shift {level.shift:.6g}, discarded {result.discarded_count} infinite modes")
    exact = _exact_eigenvalues(case, config.eig_count)
    for j, (lam, res) in enumerate(zip(result.eigenvalues, result.residuals)):
        line = f"lambda_{j + 1} = {lam.real:.8f}"
        if is_complex(lam):
            line += f" + {lam.imag:.3e}i (complex!)"
        line += f"  residual {res:.2e}"
        if exact is not None:
            line += f"  exact {exact[j]:.8f}  rel.err {abs(lam.real - exact[j]) / exact[j]:.3e}"
        log(line)
    _write_level_csv(out / f"eig_{config.mesh_family}_N{N}.csv", config, level)
    return EXIT_OK


def _cmd_convergence(args) -> int:
    config = _load_config(args, "load")
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    record, quality, exact = run_study(config, log=_log(args))
    extrap = config.problem == "eigen" and exact is None
    header = "\n".join([f"config {config.config_hash}", *quality])
    fits = record.column_fits(exact, extrap)
    path = record.write_csv(
        out / f"convergence_{config.problem}_{config.mesh_family}.csv",
        exact=exact, extrap=extrap, header_comment=header, fits=fits,
    )
    for name, fit in fits.items():
        if fit.order is None:
            print(f"{name}: order undefined ({fit.undefined})")
        elif exact:
            print(f"{name}: order {fit.order:.3f} (exact {fit.limit:.6f})")
        elif extrap:
            print(f"{name}: order {fit.order:.3f} (extrapolated {fit.limit:.6f})")
        else:
            print(f"{name}: order {fit.order:.3f}")
    print(f"wrote {path}")
    return EXIT_OK


def _add_study_flags(p: argparse.ArgumentParser, eigen: bool, formats: tuple) -> None:
    """The flags of a study command: the eigensolver's inputs with `eigen`,
    and --format with the output kinds in `formats`, if any.  A command
    with `formats` runs one level, so it takes one --N."""
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--family", choices=FAMILIES, help="mesh family")
    p.add_argument(
        "--case",
        help="named coefficient case: " + ", ".join(sorted(CASES)),
    )
    if formats:
        p.add_argument(
            "--N", type=int, help="mesh resolution (default: the family's finest table value)"
        )
    else:
        p.add_argument(
            "--N", type=int, nargs="+",
            help="mesh resolution list (default: the family's table values)",
        )
    if eigen:
        p.add_argument("--eig-count", type=int)
        p.add_argument("--shift", type=float)
        p.add_argument("--seed", type=int)
    p.add_argument(
        "--out", default=None, help="output directory (default: the config's output_dir, else out)"
    )
    if formats:
        p.add_argument("--format", choices=formats, default="both", help="output kinds")
    p.add_argument("--quiet", action="store_true", help="print only the names of written files")


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes every float spelling as a value.

    argparse reads only -<digits> and -<digits>.<digits> as negative
    numbers; `--shift -1e3` or `--shift -inf` would otherwise be an
    unknown option and exit 2 with "expected one argument".
    """

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polyvem",
        description=(
            "Lowest-order virtual element solver for convection-diffusion-"
            "reaction problems on polygonal meshes with small edges"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh", help="generate one mesh and report quality")
    p_mesh.add_argument("--family", choices=FAMILIES, required=True)
    p_mesh.add_argument("--N", type=int, required=True)
    p_mesh.add_argument("--out", default="out")
    p_mesh.set_defaults(handler=_cmd_mesh)

    p_solve = sub.add_parser("solve", help="solve the load problem on one mesh")
    _add_study_flags(p_solve, eigen=False, formats=("csv", "vtk", "both"))
    p_solve.set_defaults(handler=_cmd_solve)

    p_eig = sub.add_parser("eig", help="solve the eigenproblem on one mesh")
    # eig writes one CSV of eigenvalues and no VTK file
    _add_study_flags(p_eig, eigen=True, formats=("csv", "both"))
    p_eig.set_defaults(handler=_cmd_eig)

    p_conv = sub.add_parser("convergence", help="run a refinement study")
    p_conv.add_argument("--problem", choices=("load", "eigen"), help="study kind (default: load)")
    _add_study_flags(p_conv, eigen=True, formats=())
    p_conv.set_defaults(handler=_cmd_convergence)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, AssemblyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverError, MeshConformityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        # an --out that is a file, or an output path taken by a directory
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
