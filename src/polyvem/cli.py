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

from .analysis import ConvergenceRecord, error_h1_semi, error_l2
from .assembly import AssemblyError, apply_dirichlet_lift, assemble, expand_solution
from .coefficients import CASES, CoefficientSet, ManufacturedCase
from .mesh import (
    ROTATED_T_FAMILIES,
    MeshConformityError,
    PolyMesh,
    export_vtk,
    gen_rotated_T,
    gen_square_th1,
    gen_square_th2,
    gen_square_th3,
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
    "run_load_study",
    "run_eigen_study",
    "main",
]

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2

SQUARE_FAMILIES = ("th1", "th2", "th3")
T_FAMILIES = ROTATED_T_FAMILIES
FAMILIES = SQUARE_FAMILIES + T_FAMILIES

# the tables' refinement sequences; generators accept any admissible N,
# these are just the defaults per family
DEFAULT_N = {
    "th1": [8, 16, 32, 64],
    "th2": [8, 16, 32, 64],
    "th3": [8, 16, 32, 64],
    "th4": [16, 30, 62, 130],
    "th5": [16, 30, 62, 130],
    "th6": [16, 30, 62, 130],
    "th7": [16, 28, 60, 132],
}


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
    calls sin, cos, exp.  Anything else is rejected.
    """
    if not isinstance(src, str) or not src.strip():
        raise ConfigError(f"empty coefficient expression: {src!r}")
    text = src.replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {src!r}: {exc.msg}") from exc
    _validate_expr_node(tree, src)
    code = compile(tree, "<coefficient>", "eval")
    env = dict(_ALLOWED_CALLS, pi=np.pi)

    def func(x, y, _code=code, _env=env):
        out = eval(_code, {"__builtins__": {}}, dict(_env, x=x, y=y))
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

_DOMAIN_OF_FAMILY = {f: "unit_square" for f in SQUARE_FAMILIES}
_DOMAIN_OF_FAMILY.update({f: "rotated_T" for f in T_FAMILIES})


def _is_a(value, kind) -> bool:
    """value is a `kind` number and not a bool (JSON's true would read as 1)."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """One reproducible experiment: problem, domain, meshes, coefficients."""

    problem: str
    mesh_family: str
    N_list: tuple
    coefficients: Union[str, dict]
    domain: Optional[str] = None
    eig_count: int = 6
    shift: Optional[float] = None
    output_dir: str = "out"
    seed: int = 0

    def __post_init__(self):
        if self.problem not in ("load", "eigen"):
            raise ConfigError(f"problem must be 'load' or 'eigen', got {self.problem!r}")
        if self.mesh_family not in FAMILIES:
            raise ConfigError(
                f"mesh_family must be one of {', '.join(FAMILIES)}, got {self.mesh_family!r}"
            )
        expected_domain = _DOMAIN_OF_FAMILY[self.mesh_family]
        if self.domain is None:
            object.__setattr__(self, "domain", expected_domain)
        elif self.domain != expected_domain:
            raise ConfigError(
                f"family {self.mesh_family} lives on {expected_domain}, "
                f"config says {self.domain!r}"
            )
        if not all(_is_a(n, Integral) for n in self.N_list):
            raise ConfigError(f"N_list must hold integers, got {self.N_list!r}")
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
        if self.shift is not None:
            if not _is_a(self.shift, Real):
                raise ConfigError(f"shift must be a number, got {self.shift!r}")
            object.__setattr__(self, "shift", float(self.shift))
        if self.problem == "eigen" and self.eig_count < 1:
            raise ConfigError("eig_count must be >= 1 for eigenvalue problems")
        if isinstance(self.coefficients, str):
            if self.coefficients not in CASES:
                raise ConfigError(
                    f"unknown named case {self.coefficients!r}; "
                    f"available: {', '.join(sorted(CASES))}"
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

    def canonical_json(self) -> str:
        # output_dir is deliberately excluded: it does not affect the numbers,
        # and the hash must agree for the same study written anywhere
        data = asdict(self)
        del data["output_dir"]
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
        if case.domain != config.domain:
            raise ConfigError(
                f"case {case.name!r} is defined on {case.domain}, "
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
        case = ManufacturedCase("inline", config.domain, coeffs, u=u, grad_u=grad_u)
    return coeffs, case


def generate_mesh(family: str, N: int) -> PolyMesh:
    """The mesh of `family` at resolution N.

    Raises
    ------
    ConfigError
        On an unknown family, or an N the family's generator rejects.
    """
    try:
        if family == "th1":
            return gen_square_th1(N)
        if family == "th2":
            return gen_square_th2(N)
        if family == "th3":
            return gen_square_th3(N)
        if family in T_FAMILIES:
            return gen_rotated_T(family, N)
    except ValueError as exc:
        raise ConfigError(f"mesh family {family}: {exc}") from exc
    raise ConfigError(f"unknown mesh family {family!r}")


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
    """What one refinement level produced."""

    mesh: PolyMesh
    n: int  # interior DOFs
    values: dict  # error norms, or the real parts of the eigenvalues
    u: Optional[np.ndarray] = None  # load: the nodal solution, boundary included
    eigs: Optional[EigenResult] = None
    shift: Optional[float] = None


def _load_level(
    config: ExperimentConfig, coeffs: CoefficientSet, case: Optional[ManufacturedCase], N: int
) -> _Level:
    """Solve the load problem on the mesh of resolution N.

    With an exact solution in `case` its boundary values are lifted and the
    errors measured; without one the lift is 0 and no errors are returned.
    """
    mesh = generate_mesh(config.mesh_family, N)
    system = assemble(mesh, coeffs)
    u_exact = None if case is None else case.u
    delta, g_b = apply_dirichlet_lift(system, mesh, 0.0 if u_exact is None else u_exact)
    u_full = expand_solution(system.dof, solve_load(system, system.F + delta), g_b)
    values = {}
    if u_exact is not None:
        values["err_l2"] = error_l2(mesh, u_full, u_exact)
        if case.grad_u is not None:
            values["err_h1"] = error_h1_semi(mesh, u_full, case.grad_u)
    return _Level(mesh, system.n, values, u=u_full)


def _eigen_level(config: ExperimentConfig, coeffs: CoefficientSet, N: int) -> _Level:
    """Solve the eigenproblem (A + B, M) on the mesh of resolution N."""
    mesh = generate_mesh(config.mesh_family, N)
    system = assemble(mesh, coeffs)
    shift = config.shift if config.shift is not None else suggested_shift(config.domain, coeffs)
    result = solve_eigs(
        (system.A + system.B).tocsc(), system.M, config.eig_count, shift=shift, seed=config.seed
    )
    values = {f"lambda_{j + 1}": float(lam.real) for j, lam in enumerate(result.eigenvalues)}
    return _Level(mesh, system.n, values, eigs=result, shift=shift)


def _exact_eigenvalues(case: Optional[ManufacturedCase], k: int) -> Optional[np.ndarray]:
    if case is None or case.exact_eigenvalues is None:
        return None
    return np.asarray(case.exact_eigenvalues(k), dtype=float)


def _is_complex(lam: complex) -> bool:
    return abs(lam.imag) > 1e-6 * max(abs(lam.real), 1e-300)


# --- studies --------------------------------------------------------------


def run_load_study(
    config: ExperimentConfig, log: Callable[[str], None] = lambda s: None
) -> tuple[ConvergenceRecord, list[str]]:
    """Solve the load problem over N_list; returns record + quality lines."""
    coeffs, case = build_coefficients(config)
    if case is None or case.u is None:
        raise ConfigError(
            "a load study needs an exact solution: use a named case or an "
            "inline 'u' (and optionally 'grad_u') expression"
        )
    record = ConvergenceRecord()
    quality = []
    for N in config.N_list:
        level = _load_level(config, coeffs, case, N)
        quality.append(_quality_line(level.mesh, N))
        record.add_entry(N, level.mesh.h, level.n, level.values)
        log(f"N={N}: " + " ".join(f"{k}={v:.6e}" for k, v in level.values.items()))
    return record, quality


def run_eigen_study(
    config: ExperimentConfig, log: Callable[[str], None] = lambda s: None
) -> tuple[ConvergenceRecord, list[str], Optional[np.ndarray]]:
    """Solve the eigenproblem over N_list; returns record, quality, exact."""
    coeffs, case = build_coefficients(config)
    exact = _exact_eigenvalues(case, config.eig_count)
    record = ConvergenceRecord()
    quality = []
    for N in config.N_list:
        level = _eigen_level(config, coeffs, N)
        quality.append(_quality_line(level.mesh, N))
        record.add_entry(N, level.mesh.h, level.n, level.values)
        lams = level.eigs.eigenvalues
        if any(_is_complex(lam) for lam in lams):
            log(f"N={N}: warning: complex eigenvalues reported: {lams}")
        log(
            f"N={N}: "
            + " ".join(f"{name}={v:.6f}" for name, v in level.values.items())
            + f" (discarded {level.eigs.discarded_count} infinite modes)"
        )
    if exact is not None:
        record.check_monotone_from_above(dict(zip(record.names, exact)))
    return record, quality, exact


# --- commands -------------------------------------------------------------


def _cmd_mesh(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        mesh = generate_mesh(args.family, args.N)
        report = validate(mesh)
    except (MeshConformityError, ValueError) as exc:
        print(f"error: mesh generation failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
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


def _load_config(args, problem: str) -> ExperimentConfig:
    """The command's study: the --config file, or the flags as a `problem` study.

    A config file fixes every study input, its problem included; --out,
    when given, is the one study flag that overrides it.
    """
    if args.config:
        config = ExperimentConfig.from_json(args.config)
        return config if args.out is None else replace(config, output_dir=args.out)
    if not args.family:
        raise ConfigError("either --config or --family is required")
    if args.case is None:
        raise ConfigError("either --config or --case is required")
    return ExperimentConfig(
        problem=problem,
        mesh_family=args.family,
        N_list=tuple(args.N if args.N else DEFAULT_N[args.family]),
        coefficients=args.case,
        eig_count=args.eig_count,
        shift=args.shift,
        output_dir="out" if args.out is None else args.out,
        seed=args.seed,
    )


def _write_level_csv(path: Path, config: ExperimentConfig, N: int, level: _Level) -> None:
    """The one-level CSV of `solve` and `eig`, headed by the config hash and
    the quality line."""
    record = ConvergenceRecord()
    record.add_entry(N, level.mesh.h, level.n, level.values)
    header = f"config {config.config_hash}\n{_quality_line(level.mesh, N)}"
    print(f"wrote {record.write_csv(path, header_comment=header)}")


def _cmd_solve(args) -> int:
    config = _load_config(args, "load")
    coeffs, case = build_coefficients(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    N = config.N_list[-1] if args.N_single is None else args.N_single
    level = _load_level(config, coeffs, case, N)
    stem = f"solution_{config.mesh_family}_N{N}"
    if args.format in ("vtk", "both"):
        export_vtk(out / f"{stem}.vtk", level.mesh, field=level.u)
        print(f"wrote {out / (stem + '.vtk')}")
    # the error CSV needs errors, which need an exact solution
    if level.values and args.format in ("csv", "both"):
        _write_level_csv(out / f"{stem}_errors.csv", config, N, level)
    for k, v in level.values.items():
        print(f"{k} = {v:.8e}")
    print(f"solution range [{level.u.min():.6g}, {level.u.max():.6g}] on {level.n} DOFs")
    return EXIT_OK


def _cmd_eig(args) -> int:
    config = _load_config(args, "eigen")
    coeffs, case = build_coefficients(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    N = config.N_list[-1] if args.N_single is None else args.N_single
    level = _eigen_level(config, coeffs, N)
    result = level.eigs
    print(f"shift {level.shift:.6g}, discarded {result.discarded_count} infinite modes")
    exact = _exact_eigenvalues(case, config.eig_count)
    for j, (lam, res) in enumerate(zip(result.eigenvalues, result.residuals)):
        line = f"lambda_{j + 1} = {lam.real:.8f}"
        if _is_complex(lam):
            line += f" + {lam.imag:.3e}i (complex!)"
        line += f"  residual {res:.2e}"
        if exact is not None:
            line += f"  exact {exact[j]:.8f}  rel.err {abs(lam.real - exact[j]) / exact[j]:.3e}"
        print(line)
    if args.format in ("csv", "both"):
        _write_level_csv(out / f"eig_{config.mesh_family}_N{N}.csv", config, N, level)
    return EXIT_OK


def _cmd_convergence(args) -> int:
    config = _load_config(args, args.problem or "load")
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"convergence_{config.problem}_{config.mesh_family}"
    log = print if not args.quiet else (lambda s: None)
    try:
        if config.problem == "load":
            record, quality = run_load_study(config, log=log)
            exact = None
        else:
            record, quality, exact = run_eigen_study(config, log=log)
    except (SolverError, MeshConformityError) as exc:
        print(f"error: study failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    exact_footer = None if exact is None else dict(zip(record.names, exact.tolist()))
    extrap = config.problem == "eigen" and exact is None
    header = "\n".join([f"config {config.config_hash}", *quality])
    fits = record.column_fits(exact_footer, extrap)
    path = record.write_csv(
        out / f"{stem}.csv", exact=exact_footer, extrap=extrap, header_comment=header, fits=fits
    )
    for name, fit in fits.items():
        if fit.order is None:
            print(f"{name}: order undefined ({fit.undefined})")
        elif exact_footer:
            print(f"{name}: order {fit.order:.3f} (exact {fit.limit:.6f})")
        elif extrap:
            print(f"{name}: order {fit.order:.3f} (extrapolated {fit.limit:.6f})")
        else:
            print(f"{name}: order {fit.order:.3f}")
    print(f"wrote {path}")
    return EXIT_OK


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--family", choices=FAMILIES, help="mesh family")
    p.add_argument(
        "--case",
        help="named coefficient case: " + ", ".join(sorted(CASES)),
    )
    p.add_argument(
        "--N",
        type=int,
        nargs="+",
        help="mesh resolution list (default: the family's table values)",
    )
    p.add_argument(
        "--N-single",
        type=int,
        default=None,
        help="resolution for single-mesh commands (default: finest of --N)",
    )
    p.add_argument("--eig-count", type=int, default=6)
    p.add_argument("--shift", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--out", default=None, help="output directory (default: the config's output_dir, else out)"
    )
    p.add_argument(
        "--format", choices=("csv", "vtk", "both"), default="both", help="output kinds"
    )
    p.add_argument("--quiet", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    _add_common_flags(p_solve)
    p_solve.set_defaults(handler=_cmd_solve)

    p_eig = sub.add_parser("eig", help="solve the eigenproblem on one mesh")
    _add_common_flags(p_eig)
    p_eig.set_defaults(handler=_cmd_eig)

    p_conv = sub.add_parser("convergence", help="run a refinement study")
    p_conv.add_argument(
        "--problem", choices=("load", "eigen"), default=None, help="study kind"
    )
    _add_common_flags(p_conv)
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


if __name__ == "__main__":
    sys.exit(main())
