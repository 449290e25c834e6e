"""Global assembly: DOF numbering, scatter, and Dirichlet elimination.

The global space couples the per-element spaces through shared vertex
values; boundary vertices are eliminated (homogeneous data is the native
formulation, inhomogeneous data enters through a lift).  Assembly is the
standard two-phase scheme: coordinate triplets over all vertices, gathered
batch by batch of cells from the mesh's shared geometry, then compressed
to CSR; the interior and interior-boundary blocks are slices of the same
triplets.  Batches and cells are visited in a fixed order, so two runs over
the same mesh produce bit-identical sparse structures.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .coefficients import CoefficientSet, _eval_scalar
from .mesh import PolyMesh
from .vem_core import form_fault, local_forms_batch
from .vem_core import local_forms  # noqa: F401  perfbench/spans.py wraps this name

__all__ = [
    "AssemblyError",
    "DofMap",
    "GlobalSystem",
    "dof_map",
    "assemble",
    "apply_dirichlet_lift",
    "expand_solution",
]


class _Module:
    """Stand-in for a scipy module that imports it on first attribute use,
    so `import polyvem` and `polyvem mesh` load no scipy."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


# the annotations below and the sparse builders read scipy.sparse through this
sp = _Module("scipy.sparse")


class AssemblyError(ValueError):
    """Raised when a mesh/coefficient combination cannot be assembled."""


@dataclass(frozen=True)
class DofMap:
    """Numbering of interior vertices as global degrees of freedom.

    Attributes
    ----------
    interior_index : ndarray, shape (n_vertices,)
        Global DOF of each vertex, -1 for boundary vertices.
    boundary_index : ndarray, shape (n_vertices,)
        Position of each boundary vertex in `boundary_vertices`, -1 for
        interior vertices.
    interior_vertices : ndarray, shape (n_interior,)
        Vertex ids in DOF order (ascending vertex id).
    boundary_vertices : ndarray, shape (n_boundary,)
        Boundary vertex ids in lift order (ascending vertex id).
    """

    interior_index: np.ndarray
    boundary_index: np.ndarray
    interior_vertices: np.ndarray
    boundary_vertices: np.ndarray

    @property
    def n_interior(self) -> int:
        return len(self.interior_vertices)

    @property
    def n_boundary(self) -> int:
        return len(self.boundary_vertices)

    @property
    def n_vertices(self) -> int:
        return len(self.interior_index)


def dof_map(mesh: PolyMesh) -> DofMap:
    """Number the interior vertices 0..n_interior-1 in vertex order."""
    nv = len(mesh.vertices)
    interior_vertices = np.flatnonzero(~mesh.boundary_vertex)
    boundary_vertices = np.flatnonzero(mesh.boundary_vertex)
    interior_index = np.full(nv, -1, dtype=np.int64)
    interior_index[interior_vertices] = np.arange(len(interior_vertices))
    boundary_index = np.full(nv, -1, dtype=np.int64)
    boundary_index[boundary_vertices] = np.arange(len(boundary_vertices))
    return DofMap(interior_index, boundary_index, interior_vertices, boundary_vertices)


@dataclass(frozen=True)
class GlobalSystem:
    """Assembled operators on the interior DOFs.

    A is the diffusion part (symmetric), B the convection part (generally
    nonsymmetric), C the reaction part, and M the projected mass matrix for
    the eigenproblem.  K_coupling is the interior-by-boundary block of
    A + B + C, kept for the Dirichlet lift.  F only contains the volume
    load; boundary data contributions are added by `apply_dirichlet_lift`.

    field_bound is c = max over cells of max |theta| at the cell's
    quadrature nodes / sqrt(kappa_E), so |x^H B x| <= c (x^H A x x^H M x)^1/2
    for every complex x: A's stabilization is positive semidefinite and
    the quadrature weights are positive.  `solve_eigs` turns it into a
    region that holds every eigenvalue of (A + B, M).
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    M: sp.csr_matrix
    K_coupling: sp.csr_matrix
    F: np.ndarray
    dof: DofMap
    field_bound: float

    @property
    def K_load(self) -> sp.csr_matrix:
        """Operator of the load problem, A + B + C."""
        return _tight((self.A + self.B + self.C).tocsr())

    @property
    def n(self) -> int:
        return self.dof.n_interior


def _check_domain(mesh: PolyMesh, coeffs: CoefficientSet) -> None:
    if coeffs.domain is not None and coeffs.domain != mesh.domain_tag:
        raise AssemblyError(
            f"coefficients are defined on domain '{coeffs.domain}' but the "
            f"mesh is tagged '{mesh.domain_tag}'"
        )


def _triplets(mesh: PolyMesh, coeffs: CoefficientSet):
    """Coordinate triplets of A, B, C, M over all vertices, and the full load.

    Returns (rows, cols, ops, F, field_bound): one (rows, cols) pattern
    shared by the four operators, whose data arrays ``ops`` holds by name,
    and the largest `FormBatch.field_ratio`.  Every array is sized from
    the batches up front and each batch writes into its own slice, so no
    operator is ever held twice.
    """
    _check_domain(mesh, coeffs)
    if mesh.n_cells == 0:
        raise AssemblyError("mesh has no cells")
    index = np.int32 if len(mesh.vertices) <= np.iinfo(np.int32).max else np.int64
    shapes = [g.ids.shape for g in mesh.geometry.groups]  # (G, k); every cell is valid
    size = sum(G * k * k for G, k in shapes)
    rows, cols = np.empty(size, dtype=index), np.empty(size, dtype=index)
    ops = {name: np.empty(size) for name in "ABCM"}
    load_ids = np.empty(sum(G * k for G, k in shapes), dtype=index)
    load = np.empty(len(load_ids))
    failed = None  # (cell, batch, row) of the lowest cell whose forms failed
    field_bound = 0.0
    start = load_start = 0
    for batch in mesh.geometry.batches():
        forms = local_forms_batch(batch, coeffs)
        bad = np.flatnonzero(~forms.ok)
        if len(bad) and (failed is None or batch.cells[bad[0]] < failed[0]):
            failed = (int(batch.cells[bad[0]]), batch, int(bad[0]))
        field_bound = max(field_bound, float(forms.field_ratio.max()))
        G, k = batch.ids.shape
        end, load_end = start + G * k * k, load_start + G * k
        rows[start:end].reshape(G, k, k)[...] = batch.ids[:, :, None]
        cols[start:end].reshape(G, k, k)[...] = batch.ids[:, None, :]
        for name, m in zip("ABCM", forms):
            ops[name][start:end] = m.reshape(-1)
        load_ids[load_start:load_end] = batch.ids.reshape(-1)
        load[load_start:load_end] = forms.Fh.reshape(-1)
        start, load_start = end, load_end
    if failed:
        ci, batch, row = failed
        raise AssemblyError(f"cell {ci}: {form_fault(batch, coeffs, row)}")
    # one bincount over all cells: summing per-batch bincounts would change F's bits
    F = np.bincount(load_ids, weights=load, minlength=len(mesh.vertices))
    return rows, cols, ops, F, field_bound


def _tight(m: sp.csr_matrix) -> sp.csr_matrix:
    """m (CSR or CSC) with ``data`` and ``indices`` copied to hold just its
    nonzeros.

    A sum leaves them as views of the buffers scipy summed into, as long
    as the triplet list or as the summands' nonzeros together (scipy
    copies only a view under half its base).
    """
    m.data, m.indices = m.data.copy(), m.indices.copy()
    return m


def _csr(data: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape) -> sp.csr_matrix:
    """Sum the triplets into CSR; duplicate entries are added, none dropped."""
    return _tight(sp.csr_matrix((data, (rows, cols)), shape=shape))


def assemble(mesh: PolyMesh, coeffs: CoefficientSet) -> GlobalSystem:
    """Assemble the interior-DOF operators of the discrete problem.

    The load problem reads (A + B + C) u = F (plus lift contributions for
    inhomogeneous Dirichlet data); the eigenproblem pairs A + B (+ C) with M.
    The operators are the interior and interior-boundary blocks of the
    triplets over all vertices.
    """
    rows, cols, ops, F, field_bound = _triplets(mesh, coeffs)
    dof = dof_map(mesh)
    n = dof.n_interior
    interior = dof.interior_index.astype(rows.dtype)
    r, c = interior[rows], interior[cols]
    ib = (r >= 0) & (c < 0)
    K_coupling = _csr(
        ops["A"][ib] + ops["B"][ib] + ops["C"][ib],
        r[ib],
        dof.boundary_index[cols[ib]],
        (n, dof.n_boundary),
    )
    ii = (r >= 0) & (c >= 0)
    r, c = r[ii], c[ii]
    blocks = {name: _csr(ops.pop(name)[ii], r, c, (n, n)) for name in "ABCM"}
    return GlobalSystem(
        **blocks,
        K_coupling=K_coupling,
        F=F[dof.interior_vertices],
        dof=dof,
        field_bound=field_bound,
    )


BoundaryData = Union[Callable, float, np.ndarray, Sequence[float]]


def _boundary_values(mesh: PolyMesh, dof: DofMap, g: BoundaryData) -> np.ndarray:
    if callable(g):
        xy = mesh.vertices[dof.boundary_vertices]
        vals = _eval_scalar(g, xy[:, 0], xy[:, 1]).copy()
    elif np.isscalar(g):
        vals = np.full(dof.n_boundary, float(g))
    else:
        vals = np.asarray(g, dtype=float)
        if vals.shape != (dof.n_boundary,):
            raise AssemblyError(
                f"boundary data has shape {vals.shape}, expected ({dof.n_boundary},)"
            )
        vals = vals.copy()
    if not np.isfinite(vals).all():
        raise AssemblyError("boundary data evaluated to non-finite values")
    return vals


def apply_dirichlet_lift(
    system: GlobalSystem, mesh: PolyMesh, g: BoundaryData
) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate inhomogeneous Dirichlet data.

    Returns (delta_F, g_boundary): the load-vector contribution
    -K_coupling @ g_boundary to add to ``system.F``, and the boundary
    values themselves (ordered like ``system.dof.boundary_vertices``) for
    expanding the solution back to all vertices.
    """
    g_b = _boundary_values(mesh, system.dof, g)
    delta_F = -(system.K_coupling @ g_b)
    return delta_F, g_b


def expand_solution(
    dof: DofMap, u_interior: np.ndarray, boundary_values: Optional[np.ndarray] = None
) -> np.ndarray:
    """Scatter an interior DOF vector to a full vertex-value vector."""
    u_interior = np.asarray(u_interior, dtype=float)
    if u_interior.shape != (dof.n_interior,):
        raise AssemblyError(
            f"solution has shape {u_interior.shape}, expected ({dof.n_interior},)"
        )
    full = np.zeros(dof.n_vertices)
    full[dof.interior_vertices] = u_interior
    if boundary_values is not None:
        boundary_values = np.asarray(boundary_values, dtype=float)
        if boundary_values.shape != (dof.n_boundary,):
            raise AssemblyError(
                f"boundary values have shape {boundary_values.shape}, "
                f"expected ({dof.n_boundary},)"
            )
        full[dof.boundary_vertices] = boundary_values
    return full
