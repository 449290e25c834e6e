"""polyvem: lowest-order virtual element solver on polygonal meshes.

Discretizes  -div(kappa grad u) + theta . grad u + gamma u = f  and the
matching eigenvalue problem with vertex unknowns on general polygonal
cells, including meshes whose edges are arbitrarily small relative to
cell diameters.  Subpackages:

- geometry: batched cell geometry, validity checks, quadrature, star-shapedness
- mesh: structured polygonal mesh families, validation, I/O
- vem_core: scaled monomials, batched projectors, stabilization, local matrices
- coefficients: named benchmark problems
- assembly: global sparse systems and Dirichlet handling
- solvers: direct load solves and shift-invert eigensolves
- analysis: error norms, rate fitting, eigenvalue extrapolation
- cli: batch driver (console script ``polyvem``)
"""

from .analysis import (
    ConvergenceRecord,
    error_h1_semi,
    error_l2,
    error_norms,
    extrapolate,
    fit_rate,
    triple_seminorm_interp,
)
from .assembly import (
    GlobalSystem,
    apply_dirichlet_lift,
    assemble,
    dof_map,
    expand_solution,
)
from .coefficients import CASES, CoefficientSet, ManufacturedCase, square_exact_eigenvalues
from .geometry import Polygon, polygon_quadrature, star_metric
from .mesh import (
    PolyMesh,
    export_vtk,
    gen_rotated_T,
    gen_square_th1,
    gen_square_th2,
    gen_square_th3,
    io_read,
    io_write,
    reentrant_corners,
    split_edges,
    validate,
)
from .solvers import (
    EigenResult,
    SolverError,
    solve_eigs,
    solve_load,
    suggested_shift,
)
from .vem_core import LocalElement, local_forms

__version__ = "0.1.0"

__all__ = [
    "CASES",
    "CoefficientSet",
    "ConvergenceRecord",
    "EigenResult",
    "GlobalSystem",
    "LocalElement",
    "ManufacturedCase",
    "PolyMesh",
    "Polygon",
    "SolverError",
    "apply_dirichlet_lift",
    "assemble",
    "dof_map",
    "error_h1_semi",
    "error_l2",
    "error_norms",
    "expand_solution",
    "export_vtk",
    "extrapolate",
    "fit_rate",
    "gen_rotated_T",
    "gen_square_th1",
    "gen_square_th2",
    "gen_square_th3",
    "io_read",
    "io_write",
    "local_forms",
    "polygon_quadrature",
    "reentrant_corners",
    "star_metric",
    "solve_eigs",
    "solve_load",
    "split_edges",
    "square_exact_eigenvalues",
    "suggested_shift",
    "triple_seminorm_interp",
    "validate",
    "__version__",
]
