"""Polygonal mesh model, small-edge mesh generators, validation, and IO.

The mesh families built here deliberately contain edges that are tiny
relative to the cell diameter: structured grids of incommensurate resolution
glued along a line (collinear hanging vertices), triangle meshes whose every
edge carries an extra vertex at squared-length distance from one endpoint,
and offset brick meshes.  All of them keep every cell star-shaped with
respect to a ball, which is the one shape assumption the solver relies on.

Generators emit cells as coordinate lists; a small builder dedupes vertices
on a 1e-12 quantization grid (with neighbor probing, so values produced by
different but equivalent arithmetic merge) and then inserts every mesh
vertex that lies strictly inside an axis-aligned cell edge into that edge.
All hanging-vertex situations in the shipped families occur on axis-aligned
lines, so non-axis-aligned edges are never split.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import MeshGeometry, Point2, Polygon, mesh_geometry, star_metric

__all__ = [
    "PolyMesh",
    "MeshQualityReport",
    "MeshConformityError",
    "MeshIOError",
    "gen_square_th1",
    "gen_square_th2",
    "gen_square_th3",
    "gen_rotated_T",
    "ROTATED_T_FAMILIES",
    "validate",
    "io_read",
    "io_write",
    "export_vtk",
    "reentrant_corners",
]

DOMAIN_TAGS = ("unit_square", "rotated_T", "custom")
ROTATED_T_FAMILIES = ("th4", "th5", "th6", "th7")

# vertex dedup quantum; distinct coordinates in all shipped families are
# separated by at least ~1e-5, orders of magnitude above this
_SNAP = 1e-12
# clustering tolerance when grouping vertices into grid columns/rows
_LINE_TOL = 1e-9


class MeshConformityError(ValueError):
    """A mesh violates conformity (orientation, adjacency, or coverage)."""


class MeshIOError(ValueError):
    """A mesh file cannot be parsed or fails schema validation."""


@dataclass(frozen=True)
class PolyMesh:
    """Immutable polygonal mesh.

    Attributes
    ----------
    vertices : ndarray, shape (n, 2)
    cells : tuple of tuple of int
        Counter-clockwise vertex-index cycles.
    boundary_vertex : ndarray of bool, shape (n,)
    h : float
        Maximum cell diameter.
    domain_tag : str
        One of "unit_square", "rotated_T", "custom".
    """

    vertices: np.ndarray
    cells: tuple
    boundary_vertex: np.ndarray
    h: float
    domain_tag: str

    def __post_init__(self):
        self.vertices.flags.writeable = False
        self.boundary_vertex.flags.writeable = False

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def cell_vertices(self, i: int) -> np.ndarray:
        return self.vertices[list(self.cells[i])]

    def cell_polygon(self, i: int, validate: bool = False) -> Polygon:
        return Polygon(self.cell_vertices(i), validate=validate)

    @cached_property
    def geometry(self) -> MeshGeometry:
        """Cell geometry grouped by vertex count, computed once per mesh.

        Validation, assembly and the error norms all read this.  Safe to
        cache: the vertex array is read-only and the cells are a tuple.

        Raises
        ------
        MeshConformityError
            Naming the first cell that is not a valid polygon, with the
            message of ``Polygon(validate=True)``.
        """
        geom = mesh_geometry(self.vertices, self.cells)
        if len(geom.invalid):
            ci = int(geom.invalid[0])
            try:
                Polygon(self.cell_vertices(ci))
            except ValueError as exc:
                raise MeshConformityError(f"cell {ci} is not a valid polygon: {exc}") from exc
        return geom

    def edge_counts(self) -> dict:
        """Undirected edge -> number of incident cells."""
        counts: dict[tuple[int, int], int] = defaultdict(int)
        for cell in self.cells:
            n = len(cell)
            for k in range(n):
                a, b = cell[k], cell[(k + 1) % n]
                counts[(a, b) if a < b else (b, a)] += 1
        return counts


@dataclass(frozen=True)
class MeshQualityReport:
    h: float
    min_edge: float
    min_edge_over_h: float
    min_rho: float
    cell_count: int
    vertex_count: int


class _MeshBuilder:
    """Accumulates cells given by coordinates, dedupes shared vertices."""

    def __init__(self):
        self.coords: list[tuple[float, float]] = []
        self._key2id: dict[tuple[int, int], int] = {}
        self.cells: list[list[int]] = []

    def vertex(self, x: float, y: float) -> int:
        qx = round(x / _SNAP)
        qy = round(y / _SNAP)
        # probe neighbors so one-ulp differences across equivalent arithmetic
        # cannot split a shared vertex over a quantization boundary
        for dx in (0, -1, 1):
            for dy in (0, -1, 1):
                vid = self._key2id.get((qx + dx, qy + dy))
                if vid is not None:
                    return vid
        vid = len(self.coords)
        self.coords.append((float(x), float(y)))
        self._key2id[(qx, qy)] = vid
        return vid

    def add_cell(self, pts) -> None:
        self.cells.append([self.vertex(x, y) for x, y in pts])

    def _insert_hanging_vertices(self) -> None:
        pts = np.asarray(self.coords)
        col = _cluster_ids(pts[:, 0])
        row = _cluster_ids(pts[:, 1])
        by_col = _line_index(col, pts[:, 1])
        by_row = _line_index(row, pts[:, 0])
        new_cells = []
        for cell in self.cells:
            out: list[int] = []
            n = len(cell)
            for k in range(n):
                a, b = cell[k], cell[(k + 1) % n]
                out.append(a)
                if col[a] == col[b]:
                    out.extend(_between(by_col[col[a]], pts[a][1], pts[b][1]))
                elif row[a] == row[b]:
                    out.extend(_between(by_row[row[a]], pts[a][0], pts[b][0]))
            new_cells.append(out)
        self.cells = new_cells

    def build(self, domain_tag: str, insert_hanging: bool = True) -> PolyMesh:
        if insert_hanging:
            self._insert_hanging_vertices()
        verts = np.asarray(self.coords, dtype=float)
        cells = []
        h = 0.0
        for cell in self.cells:
            v = verts[cell]
            x, y = v[:, 0], v[:, 1]
            area2 = float(x @ np.roll(y, -1) - np.roll(x, -1) @ y)
            if area2 < 0.0:
                cell = cell[::-1]
                v = verts[cell]
            cells.append(tuple(cell))
            d = v[:, None, :] - v[None, :, :]
            h = max(h, float(np.sqrt((d * d).sum(axis=2)).max()))
        boundary = np.zeros(len(verts), dtype=bool)
        counts: dict[tuple[int, int], int] = defaultdict(int)
        for cell in cells:
            n = len(cell)
            for k in range(n):
                a, b = cell[k], cell[(k + 1) % n]
                counts[(a, b) if a < b else (b, a)] += 1
        for (a, b), c in counts.items():
            if c == 1:
                boundary[a] = True
                boundary[b] = True
        return PolyMesh(verts, tuple(cells), boundary, h, domain_tag)


def _cluster_ids(vals: np.ndarray) -> np.ndarray:
    """Group scalars into clusters of width _LINE_TOL; return cluster ids."""
    order = np.argsort(vals)
    sv = vals[order]
    breaks = np.empty(len(sv), dtype=np.int64)
    breaks[0] = 0
    if len(sv) > 1:
        breaks[1:] = (np.diff(sv) > _LINE_TOL).cumsum()
    ids = np.empty_like(breaks)
    ids[order] = breaks
    return ids


def _line_index(ids: np.ndarray, other: np.ndarray) -> dict:
    """cluster id -> (sorted other-coordinates, vertex ids) for bisecting."""
    groups: dict[int, list[int]] = defaultdict(list)
    for vid, cid in enumerate(ids):
        groups[int(cid)].append(vid)
    index = {}
    for cid, vids in groups.items():
        vals = other[vids]
        srt = np.argsort(vals)
        index[cid] = (vals[srt], [vids[j] for j in srt])
    return index


def _between(line, t0: float, t1: float) -> list[int]:
    """Vertex ids on a line strictly between parameter values t0 and t1."""
    vals, vids = line
    lo, hi = (t0, t1) if t0 < t1 else (t1, t0)
    i0 = bisect_right(vals, lo)
    i1 = bisect_left(vals, hi)
    found = vids[i0:i1]
    return found if t0 < t1 else found[::-1]


# ---------------------------------------------------------------------------
# primitive cell generators (coordinate lists, counter-clockwise)


def _quad_cells(x0, x1, y0, y1, nx, ny):
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    cells = []
    for j in range(ny):
        for i in range(nx):
            cells.append(
                [
                    (xs[i], ys[j]),
                    (xs[i + 1], ys[j]),
                    (xs[i + 1], ys[j + 1]),
                    (xs[i], ys[j + 1]),
                ]
            )
    return cells


def _tri_cells(x0, x1, y0, y1, nx, ny):
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    cells = []
    for j in range(ny):
        for i in range(nx):
            v00 = (xs[i], ys[j])
            v10 = (xs[i + 1], ys[j])
            v11 = (xs[i + 1], ys[j + 1])
            v01 = (xs[i], ys[j + 1])
            cells.append([v00, v10, v11])
            cells.append([v00, v11, v01])
    return cells


def _brick_cells(x0, x1, y0, y1, nx, ny):
    """Rows of bricks; odd rows offset by half a brick width."""
    ys = np.linspace(y0, y1, ny + 1)
    w = (x1 - x0) / nx
    cells = []
    for j in range(ny):
        if j % 2 == 0:
            cuts = np.linspace(x0, x1, nx + 1)
        else:
            cuts = np.concatenate([[x0], x0 + w * (np.arange(nx) + 0.5), [x1]])
        for a, b in zip(cuts[:-1], cuts[1:]):
            cells.append([(a, ys[j]), (b, ys[j]), (b, ys[j + 1]), (a, ys[j + 1])])
    return cells


# ---------------------------------------------------------------------------
# mesh families


def _check_n(N: int, minimum: int) -> None:
    if not isinstance(N, (int, np.integer)) or N < minimum:
        raise ValueError(f"N must be an integer >= {minimum}, got {N!r}")


def gen_square_th1(N: int, interface_y: float = 0.6) -> PolyMesh:
    """Unit-square mesh of two structured quad grids glued at a horizontal line.

    The lower grid has N columns, the upper one N+1 (incommensurate), so the
    gluing inserts hanging vertices on the interface and creates edges down
    to O(h/N).

    Parameters
    ----------
    N : int
        Subdivisions in the abscissae of the lower grid, N >= 2.
    """
    _check_n(N, 2)
    ny_low = max(1, round(interface_y * N))
    ny_high = max(1, round((1.0 - interface_y) * (N + 1)))
    b = _MeshBuilder()
    for cell in _quad_cells(0.0, 1.0, 0.0, interface_y, N, ny_low):
        b.add_cell(cell)
    for cell in _quad_cells(0.0, 1.0, interface_y, 1.0, N + 1, ny_high):
        b.add_cell(cell)
    return b.build("unit_square")


def gen_square_th2(N: int, split_edges: bool = True) -> PolyMesh:
    """Right-triangle mesh of the unit square with an extra vertex per edge.

    Each edge of the underlying N x N x 2 triangle mesh receives one
    additional vertex at arc length h_e^2 from its lexicographically smaller
    endpoint (h_e being that edge's length), turning every triangle into a
    hexagon with three edges of length h_e^2 and three of length h_e - h_e^2.
    The shortest edge is therefore of order h^2: these meshes violate the
    classical minimum-edge-length assumption on purpose.

    Parameters
    ----------
    N : int
        Grid subdivisions per direction, N >= 2.
    split_edges : bool
        If False, return the plain triangle mesh (useful as a classical
        reference; the element matrices then reduce to P1 finite elements).
    """
    _check_n(N, 2)
    b = _MeshBuilder()
    tris = _tri_cells(0.0, 1.0, 0.0, 1.0, N, N)
    if not split_edges:
        for tri in tris:
            b.add_cell(tri)
        return b.build("unit_square", insert_hanging=False)

    split_cache: dict[tuple, tuple[float, float]] = {}

    def split_point(p, q):
        key = (p, q) if p <= q else (q, p)
        pt = split_cache.get(key)
        if pt is None:
            a, c = key  # anchor at the lexicographically smaller endpoint
            he = float(np.hypot(c[0] - a[0], c[1] - a[1]))
            # arc length he^2 from the anchor: a + he * (c - a)
            pt = (a[0] + he * (c[0] - a[0]), a[1] + he * (c[1] - a[1]))
            split_cache[key] = pt
        return pt

    for tri in tris:
        cell = []
        for k in range(3):
            p, q = tri[k], tri[(k + 1) % 3]
            cell.append(p)
            cell.append(split_point(p, q))
        b.add_cell(cell)
    return b.build("unit_square", insert_hanging=False)


def gen_square_th3(N: int, interface_y: float = 0.6) -> PolyMesh:
    """Unit-square mesh gluing a quad grid (below) to a triangle grid (above).

    Same incommensurate gluing as :func:`gen_square_th1` (N columns below,
    N+1 above) but the upper grid is made of right triangles.
    """
    _check_n(N, 2)
    ny_low = max(1, round(interface_y * N))
    ny_high = max(1, round((1.0 - interface_y) * (N + 1)))
    b = _MeshBuilder()
    for cell in _quad_cells(0.0, 1.0, 0.0, interface_y, N, ny_low):
        b.add_cell(cell)
    for cell in _tri_cells(0.0, 1.0, interface_y, 1.0, N + 1, ny_high):
        b.add_cell(cell)
    return b.build("unit_square")


def _rotated_t_half(kind: str, m: int, side: int):
    """Cells for one half (side -1: x<0, +1: x>0) of the rotated-T domain.

    The half is decomposed into three rectangles (outer bar, inner bar, stem)
    meshed conformingly, so the reentrant corner (+-0.25, 0) is a mesh vertex
    for every m.
    """
    d = 0.5 / m
    nq = max(1, round(0.25 / d))  # columns per quarter-width
    ny_bar = m
    ny_stem = max(1, round(1.0 / d))
    gen = {"quad": _quad_cells, "tri": _tri_cells, "brick": _brick_cells}[kind]
    if side < 0:
        rects = [
            (-0.5, -0.25, -0.5, 0.0, nq, ny_bar),
            (-0.25, 0.0, -0.5, 0.0, nq, ny_bar),
            (-0.25, 0.0, 0.0, 1.0, nq, ny_stem),
        ]
    else:
        rects = [
            (0.25, 0.5, -0.5, 0.0, nq, ny_bar),
            (0.0, 0.25, -0.5, 0.0, nq, ny_bar),
            (0.0, 0.25, 0.0, 1.0, nq, ny_stem),
        ]
    cells = []
    for x0, x1, y0, y1, nx, ny in rects:
        cells.extend(gen(x0, x1, y0, y1, nx, ny))
    return cells


def gen_rotated_T(family: str, N: int) -> PolyMesh:
    """Mesh of the rotated-T domain (-0.5,0.5)x(-0.5,0) U (-0.25,0.25)x(0,1).

    Two half-domain meshes of incommensurate resolution (m = N/2 columns per
    half-width on the left, m+1 on the right) are glued at x = 0, inserting
    hanging vertices along the interface.  The families differ in the
    primitive meshes: th4 quad/quad, th5 quad/triangle, th6
    triangle/triangle, th7 offset-brick polygonal/quad.  The domain has two
    reentrant corners at (+-0.25, 0).

    Parameters
    ----------
    family : str
        One of "th4", "th5", "th6", "th7".
    N : int
        Even, N >= 4; the total number of subdivisions in the abscissae.
    """
    if family not in ROTATED_T_FAMILIES:
        raise ValueError(f"unknown rotated-T family {family!r}; expected one of {ROTATED_T_FAMILIES}")
    _check_n(N, 4)
    if N % 2 != 0:
        raise ValueError(f"N must be even for rotated-T meshes, got {N}")
    kinds = {
        "th4": ("quad", "quad"),
        "th5": ("quad", "tri"),
        "th6": ("tri", "tri"),
        "th7": ("brick", "quad"),
    }[family]
    m = N // 2
    b = _MeshBuilder()
    for cell in _rotated_t_half(kinds[0], m, -1):
        b.add_cell(cell)
    for cell in _rotated_t_half(kinds[1], m + 1, +1):
        b.add_cell(cell)
    return b.build("rotated_T")


# ---------------------------------------------------------------------------
# validation


def _domain_area(mesh: PolyMesh) -> float:
    if mesh.domain_tag in ("unit_square", "rotated_T"):
        return 1.0
    # custom: shoelace over the directed boundary edges (they form closed
    # loops, so the per-edge cross terms sum to the enclosed area)
    counts = mesh.edge_counts()
    total = 0.0
    v = mesh.vertices
    for cell in mesh.cells:
        n = len(cell)
        for k in range(n):
            a, b = cell[k], cell[(k + 1) % n]
            if counts[(a, b) if a < b else (b, a)] == 1:
                total += v[a, 0] * v[b, 1] - v[b, 0] * v[a, 1]
    return 0.5 * total


def validate(mesh: PolyMesh) -> MeshQualityReport:
    """Check mesh conformity and collect quality metrics.

    Raises
    ------
    MeshConformityError
        On an invalid cell polygon (naming the cell), an edge shared by more
        than two cells or traversed twice in the same direction (naming the
        edge), a coverage/overlap area mismatch, or inconsistent boundary
        flags.  Small star-shapedness radii are reported, not rejected.
    """
    v = mesh.vertices
    for ci, cell in enumerate(mesh.cells):
        if len(set(cell)) != len(cell):
            raise MeshConformityError(f"cell {ci} repeats a vertex index")
        if any(k < 0 or k >= len(v) for k in cell):
            raise MeshConformityError(f"cell {ci} references a vertex out of range")
    groups = mesh.geometry.groups

    directed: set[tuple[int, int]] = set()
    counts: dict[tuple[int, int], int] = defaultdict(int)
    for ci, cell in enumerate(mesh.cells):
        n = len(cell)
        for k in range(n):
            a, b = cell[k], cell[(k + 1) % n]
            if (a, b) in directed:
                raise MeshConformityError(
                    f"edge ({a}, {b}) is traversed twice in the same direction"
                )
            directed.add((a, b))
            counts[(a, b) if a < b else (b, a)] += 1
    for edge, c in counts.items():
        if c > 2:
            raise MeshConformityError(f"edge {edge} is shared by {c} cells")

    area = sum(float(g.area.sum()) for g in groups)
    ref_area = _domain_area(mesh)
    if abs(area - ref_area) > 1e-10 * abs(ref_area):
        raise MeshConformityError(
            f"coverage mismatch: cell areas sum to {area!r}, domain area is {ref_area!r}"
            " (overlapping or missing cells)"
        )

    derived = np.zeros(len(v), dtype=bool)
    for (a, b), c in counts.items():
        if c == 1:
            derived[a] = True
            derived[b] = True
    if not np.array_equal(derived, mesh.boundary_vertex):
        bad = int(np.flatnonzero(derived != mesh.boundary_vertex)[0])
        raise MeshConformityError(f"boundary flag of vertex {bad} is inconsistent")

    h = max(float(g.diameter.max()) for g in groups)
    min_edge = min(float(g.edge_lengths.min()) for g in groups)
    # rho is translation-invariant and structured meshes repeat a handful of
    # cell shapes, so solve the LP once per translated-shape signature
    min_rho = np.inf
    for g in groups:
        rel = (g.vertices - g.vertices[:, :1]).round(10).reshape(len(g.cells), -1)
        _, first = np.unique(rel, axis=0, return_index=True)
        for c in first:
            min_rho = min(min_rho, star_metric(g.vertices[c]).rho)
    return MeshQualityReport(
        h=h,
        min_edge=min_edge,
        min_edge_over_h=min_edge / h,
        min_rho=min_rho,
        cell_count=mesh.n_cells,
        vertex_count=mesh.n_vertices,
    )


def reentrant_corners(mesh: PolyMesh, tol: float = 1e-9) -> list[Point2]:
    """Boundary vertices with interior angle > pi.

    Walks the directed boundary loops (counter-clockwise around the domain)
    and flags right turns.  Collinear boundary vertices (hanging nodes) are
    skipped.  Assumes a domain without holes.
    """
    counts = mesh.edge_counts()
    succ: dict[int, int] = {}
    for cell in mesh.cells:
        n = len(cell)
        for k in range(n):
            a, b = cell[k], cell[(k + 1) % n]
            if counts[(a, b) if a < b else (b, a)] == 1:
                succ[a] = b
    v = mesh.vertices
    corners = []
    for a in succ:
        b = succ[a]
        c = succ[b]
        d1 = v[b] - v[a]
        d2 = v[c] - v[b]
        cross = d1[0] * d2[1] - d1[1] * d2[0]
        if cross < -tol * np.hypot(*d1) * np.hypot(*d2):
            corners.append(Point2(float(v[b, 0]), float(v[b, 1])))
    return corners


# ---------------------------------------------------------------------------
# file IO


def io_write(path, mesh: PolyMesh) -> None:
    """Write a mesh as JSON (schema version 1)."""
    doc = {
        "version": 1,
        "domain": mesh.domain_tag,
        "vertices": [[float(x), float(y)] for x, y in mesh.vertices],
        "cells": [list(map(int, cell)) for cell in mesh.cells],
        "boundary": [bool(f) for f in mesh.boundary_vertex],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def io_read(path) -> PolyMesh:
    """Read a mesh written by :func:`io_write`.

    Raises
    ------
    MeshIOError
        With line/column information on parse errors, or a description of
        the first schema violation.  Never returns a partial mesh.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MeshIOError(
                f"parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    if not isinstance(doc, dict):
        raise MeshIOError("mesh file must contain a JSON object")
    if doc.get("version") != 1:
        raise MeshIOError(f"unsupported mesh schema version {doc.get('version')!r}")
    domain = doc.get("domain")
    if domain not in DOMAIN_TAGS:
        raise MeshIOError(f"unknown domain tag {domain!r}; expected one of {DOMAIN_TAGS}")
    try:
        verts = np.asarray(doc["vertices"], dtype=float)
        cells = tuple(tuple(int(i) for i in cell) for cell in doc["cells"])
        boundary = np.asarray(doc["boundary"], dtype=bool)
    except (KeyError, TypeError, ValueError) as exc:
        raise MeshIOError(f"malformed mesh arrays: {exc}") from exc
    if verts.ndim != 2 or verts.shape[1] != 2:
        raise MeshIOError(f"vertices must be an (n, 2) array, got shape {verts.shape}")
    if len(boundary) != len(verts):
        raise MeshIOError("boundary flag count does not match vertex count")
    n = len(verts)
    for ci, cell in enumerate(cells):
        if len(cell) < 3:
            raise MeshIOError(f"cell {ci} has fewer than 3 vertices")
        if any(k < 0 or k >= n for k in cell):
            raise MeshIOError(f"cell {ci} references a vertex out of range")
    h = 0.0
    for cell in cells:
        v = verts[list(cell)]
        d = v[:, None, :] - v[None, :, :]
        h = max(h, float(np.sqrt((d * d).sum(axis=2)).max()))
    return PolyMesh(verts, cells, boundary, h, domain)


def export_vtk(path, mesh: PolyMesh, field=None, field_name: str = "u") -> None:
    """Write a legacy ASCII VTK POLYDATA file, optionally with nodal data."""
    lines = [
        "# vtk DataFile Version 3.0",
        "polyvem mesh",
        "ASCII",
        "DATASET POLYDATA",
        f"POINTS {mesh.n_vertices} double",
    ]
    lines.extend(f"{x!r} {y!r} 0.0" for x, y in mesh.vertices)
    size = sum(len(c) + 1 for c in mesh.cells)
    lines.append(f"POLYGONS {mesh.n_cells} {size}")
    lines.extend(f"{len(c)} " + " ".join(map(str, c)) for c in mesh.cells)
    if field is not None:
        field = np.asarray(field, dtype=float)
        if field.shape != (mesh.n_vertices,):
            raise ValueError(
                f"nodal field must have shape ({mesh.n_vertices},), got {field.shape}"
            )
        lines.append(f"POINT_DATA {mesh.n_vertices}")
        lines.append(f"SCALARS {field_name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(f"{val!r}" for val in field)
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
