"""Polygonal mesh model, small-edge mesh generators, validation, and IO.

The mesh families built here deliberately contain edges that are tiny
relative to the cell diameter: structured grids of incommensurate resolution
glued along a line (collinear hanging vertices), triangle meshes whose every
edge carries an extra vertex at squared-length distance from one endpoint,
and offset brick meshes.  All of them keep every cell star-shaped with
respect to a ball, which is the one shape assumption the solver relies on.

Generators emit cells as stacked coordinate arrays.  The builder clusters
the x and the y coordinates separately, a gap wider than 1e-12 starting a
new cluster, so each point gets an integer (column, row) label; points
with equal labels are one vertex.  It then inserts every vertex whose
column (row) label matches both end points of a vertical (horizontal) cell
edge and lies strictly between them into that edge, all as array
operations.  All hanging-vertex situations in the shipped families occur
on axis-aligned lines, so non-axis-aligned edges are never split.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .geometry import (
    MeshGeometry,
    Point2,
    Polygon,
    mesh_geometry,
    star_metric,
    star_metrics,
)

__all__ = [
    "PolyMesh",
    "MeshQualityReport",
    "MeshConformityError",
    "MeshIOError",
    "EdgeTopology",
    "edge_topology",
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
# height of the line where th1 and th3 glue their lower and upper grids
_INTERFACE_Y = 0.6

# the one tolerance of mesh construction: coordinates closer than this
# (chained) are one column or row.  It is absolute, so it is also the floor
# on edge length; distinct coordinates in all shipped families are
# separated by at least ~1e-5, orders of magnitude above it
_SNAP = 1e-12


class MeshConformityError(ValueError):
    """A mesh violates conformity (orientation, adjacency, or coverage)."""


class MeshIOError(ValueError):
    """A mesh file cannot be parsed or fails schema validation."""


@dataclass(frozen=True, eq=False)
class PolyMesh:
    """Immutable polygonal mesh, its cells stored once as flat arrays.

    Attributes
    ----------
    vertices : ndarray, shape (n, 2)
    cell_ids : ndarray of int64
        The counter-clockwise vertex-index cycles of all cells, concatenated.
    cell_sizes : ndarray of int64, shape (n_cells,)
        Vertex count of each cell.
    domain_tag : str
        One of "unit_square", "rotated_T", "custom".

    `h`, `boundary_vertex`, `topology`, `geometry` and the tuple view
    `cells` are derived from these on first use and cached.
    """

    vertices: np.ndarray
    cell_ids: np.ndarray
    cell_sizes: np.ndarray
    domain_tag: str

    def __post_init__(self):
        for a in (self.vertices, self.cell_ids, self.cell_sizes):
            a.flags.writeable = False

    @classmethod
    def from_cells(cls, vertices, cells, domain_tag: str) -> "PolyMesh":
        """Mesh from vertex coordinates and a sequence of vertex-index cycles."""
        sizes = np.fromiter(map(len, cells), dtype=np.int64, count=len(cells))
        flat = np.fromiter(chain.from_iterable(cells), dtype=np.int64, count=int(sizes.sum()))
        return cls(np.asarray(vertices, dtype=float), flat, sizes, domain_tag)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_cells(self) -> int:
        return len(self.cell_sizes)

    @cached_property
    def _starts(self) -> np.ndarray:
        return np.cumsum(self.cell_sizes) - self.cell_sizes

    def cell(self, i: int) -> np.ndarray:
        """Vertex ids of cell i, counter-clockwise."""
        return self.cell_ids[self._starts[i] : self._starts[i] + self.cell_sizes[i]]

    @cached_property
    def cells(self) -> tuple:
        """The cells as a tuple of vertex-index tuples."""
        return tuple(map(tuple, _split(self.cell_ids, self.cell_sizes)))

    def cell_vertices(self, i: int) -> np.ndarray:
        return self.vertices[self.cell(i)]

    def cell_polygon(self, i: int, validate: bool = False) -> Polygon:
        return Polygon(self.cell_vertices(i), validate=validate)

    @cached_property
    def geometry(self) -> MeshGeometry:
        """Cell geometry grouped by vertex count, computed once per mesh.

        Validation, assembly and the error norms all read this.

        Raises
        ------
        MeshConformityError
            Naming the first cell that is not a valid polygon, with the
            message of ``Polygon(validate=True)``.
        """
        geom = mesh_geometry(self.vertices, self.cell_ids, self.cell_sizes)
        if len(geom.invalid):
            ci = int(geom.invalid[0])
            try:
                Polygon(self.cell_vertices(ci))
            except ValueError as exc:
                raise MeshConformityError(f"cell {ci} is not a valid polygon: {exc}") from exc
        return geom

    @cached_property
    def h(self) -> float:
        """Maximum cell diameter."""
        return max((float(g.diameter.max()) for g in self.geometry.groups), default=0.0)

    @cached_property
    def topology(self) -> "EdgeTopology":
        """Directed cell edges and undirected incidence counts.

        Vertex ids must be non-negative (`validate` checks the range first).
        """
        return edge_topology(self.cell_ids, self.cell_sizes)

    @cached_property
    def boundary_vertex(self) -> np.ndarray:
        """Read-only flags of the vertices on an edge of exactly one cell."""
        topo = self.topology
        flags = np.bincount(topo.edges[topo.counts == 1].ravel(), minlength=self.n_vertices) > 0
        flags.flags.writeable = False
        return flags

    def edge_counts(self) -> dict:
        """Undirected edge -> number of incident cells."""
        topo = self.topology
        return dict(zip(map(tuple, topo.edges.tolist()), topo.counts.tolist()))


@dataclass(frozen=True)
class MeshQualityReport:
    h: float
    min_edge: float
    min_edge_over_h: float
    min_rho: float
    cell_count: int
    vertex_count: int


def _split(flat: np.ndarray, sizes: np.ndarray) -> list:
    """Per-cell lists of a flat per-vertex array."""
    items = flat.tolist()
    ends = np.cumsum(sizes).tolist()
    return [items[s:e] for s, e in zip([0, *ends[:-1]], ends)]


def _out_of_range_cells(flat: np.ndarray, sizes: np.ndarray, n: int) -> np.ndarray:
    """Per cell: does it reference a vertex id outside [0, n)."""
    bad = np.zeros(len(sizes), dtype=bool)
    bad[np.repeat(np.arange(len(sizes)), sizes)[(flat < 0) | (flat >= n)]] = True
    return bad


def _successor(sizes: np.ndarray) -> np.ndarray:
    """Flat position of each cell vertex's successor in its (cyclic) cell."""
    ends = np.cumsum(sizes)
    nxt = np.arange(1, int(sizes.sum()) + 1)
    nonempty = sizes > 0
    nxt[ends[nonempty] - 1] = (ends - sizes)[nonempty]
    return nxt


class EdgeTopology(NamedTuple):
    """Directed cell edges and the undirected edges they lie on.

    Attributes
    ----------
    tail, head : ndarray, shape (E,)
        Directed edge tail -> head of every cell side, in traversal order:
        cells in order, each from its first vertex.
    edges : ndarray, shape (U, 2)
        Undirected edges (a, b), a <= b, in lexicographic order.
    counts : ndarray, shape (U,)
        Number of cell sides on each undirected edge.
    edge : ndarray, shape (E,)
        Row of `edges` that each directed edge lies on.
    """

    tail: np.ndarray
    head: np.ndarray
    edges: np.ndarray
    counts: np.ndarray
    edge: np.ndarray


def edge_topology(flat: np.ndarray, sizes: np.ndarray) -> EdgeTopology:
    """Edge topology of cells given as concatenated ids (>= 0) and vertex counts."""
    tail = flat
    head = flat[_successor(sizes)]
    lo = np.minimum(tail, head)
    hi = np.maximum(tail, head)
    n = int(hi.max()) + 1 if len(hi) else 1
    keys, edge, counts = np.unique(lo * n + hi, return_inverse=True, return_counts=True)
    return EdgeTopology(tail, head, np.column_stack([keys // n, keys % n]), counts, edge)


def _cluster_ids(vals: np.ndarray) -> np.ndarray:
    """Cluster label of each scalar, clusters numbered in increasing order.

    A gap wider than _SNAP between neighbours in sorted order starts a new
    cluster, so the labels do not depend on the order of the values.
    """
    order = np.argsort(vals)
    sv = vals[order]
    ids = np.empty(len(vals), dtype=np.int64)
    ids[order] = np.cumsum(np.diff(sv, prepend=sv[:1]) > _SNAP)
    return ids


def _dedupe(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge points (P, 2) whose x and whose y share a `_cluster_ids` label.

    Vertices are numbered in order of first appearance and keep the
    coordinates they first appeared with.  Which points merge does not
    depend on their order.

    Returns
    -------
    coords : ndarray, shape (n, 2)
    ids : ndarray, shape (P,)
        Vertex id of each point.
    grid : ndarray of int64, shape (n, 2)
        The x (column) and y (row) cluster label of each vertex.
    """
    label = np.column_stack([_cluster_ids(pts[:, 0]), _cluster_ids(pts[:, 1])])
    key = label[:, 0] * (int(label[:, 1].max()) + 1) + label[:, 1]
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    vid = np.empty(len(order), dtype=np.int64)
    vid[order] = np.arange(len(order))
    return pts[first[order]], vid[inv], label[first[order]]


def _insert_hanging_vertices(
    grid: np.ndarray, flat: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Insert every vertex lying strictly inside an axis-aligned cell edge.

    An edge whose end points share a column label of `grid` (else a row
    label) receives the other vertices of that column (row) between its
    end points, in the direction of travel.  Returns the new (flat, sizes).
    """
    tail, head = flat, flat[_successor(sizes)]
    count = np.zeros(len(flat), dtype=np.int64)
    begin = np.zeros(len(flat), dtype=np.int64)
    forward = np.ones(len(flat), dtype=bool)
    on_line = []
    taken = np.zeros(len(flat), dtype=bool)
    offset = 0
    for axis in (0, 1):  # columns (parameter: row label), then rows
        line, rank = grid[:, axis], grid[:, 1 - axis]
        stride = int(rank.max()) + 1
        key = line * stride + rank  # one vertex per key
        order = np.argsort(key)
        sorted_key = key[order]
        sel = ~taken & (line[tail] == line[head])
        taken |= sel
        a, b = tail[sel], head[sel]
        i0 = np.searchsorted(sorted_key, line[a] * stride + np.minimum(rank[a], rank[b]), "right")
        i1 = np.searchsorted(sorted_key, line[a] * stride + np.maximum(rank[a], rank[b]), "left")
        count[sel] = np.maximum(i1 - i0, 0)
        begin[sel] = offset + i0
        forward[sel] = rank[a] < rank[b]
        on_line.append(order)
        offset += len(order)
    line_vids = np.concatenate(on_line)

    out_len = 1 + count
    out_start = np.cumsum(out_len) - out_len
    out = np.empty(int(out_len.sum()), dtype=np.int64)
    out[out_start] = flat
    edge = np.repeat(np.arange(len(flat)), count)
    j = np.arange(len(edge)) - np.repeat(np.cumsum(count) - count, count)
    src = np.where(forward[edge], begin[edge] + j, begin[edge] + count[edge] - 1 - j)
    out[out_start[edge] + 1 + j] = line_vids[src]
    starts = np.cumsum(sizes) - sizes
    return out, sizes + np.add.reduceat(count, starts)


def _orient_ccw(coords: np.ndarray, flat: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Reverse the vertex order of every clockwise cell."""
    starts = np.cumsum(sizes) - sizes
    x, y = coords[flat, 0], coords[flat, 1]
    nxt = _successor(sizes)
    area2 = np.add.reduceat(x * y[nxt], starts) - np.add.reduceat(x[nxt] * y, starts)
    rev = np.repeat(area2 < 0.0, sizes)
    if not rev.any():
        return flat
    pos = np.arange(len(flat))
    first = np.repeat(starts, sizes)
    last = first + np.repeat(sizes, sizes) - 1
    return flat[np.where(rev, first + last - pos, pos)]


def _build_mesh(parts, domain_tag: str, insert_hanging: bool = True) -> PolyMesh:
    """Mesh from cells given as coordinate arrays, one (G, k, 2) array per part.

    Shared vertices are merged (`_dedupe`), hanging vertices inserted into
    axis-aligned edges, and every cell oriented counter-clockwise.
    """
    sizes = np.concatenate([np.full(len(p), p.shape[1], dtype=np.int64) for p in parts])
    coords, flat, grid = _dedupe(np.concatenate([p.reshape(-1, 2) for p in parts]))
    if insert_hanging:
        flat, sizes = _insert_hanging_vertices(grid, flat, sizes)
    return PolyMesh(coords, _orient_ccw(coords, flat, sizes), sizes, domain_tag)


# ---------------------------------------------------------------------------
# primitive cell generators (stacked coordinate arrays, counter-clockwise)


def _rects(xa, xb, ya, yb) -> np.ndarray:
    """Rectangles (xa,ya) (xb,ya) (xb,yb) (xa,yb), broadcast; shape (G, 4, 2)."""
    xa, xb, ya, yb = np.broadcast_arrays(xa, xb, ya, yb)
    corners = [(xa, ya), (xb, ya), (xb, yb), (xa, yb)]
    return np.stack([np.stack(c, axis=-1) for c in corners], axis=-2).reshape(-1, 4, 2)


def _quad_cells(x0, x1, y0, y1, nx, ny):
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    return _rects(xs[None, :-1], xs[None, 1:], ys[:-1, None], ys[1:, None])


def _tri_cells(x0, x1, y0, y1, nx, ny):
    """Each grid quad (v00, v10, v11, v01) split into (v00, v10, v11), (v00, v11, v01)."""
    quads = _quad_cells(x0, x1, y0, y1, nx, ny)
    return quads[:, [[0, 1, 2], [0, 2, 3]]].reshape(-1, 3, 2)


def _brick_cells(x0, x1, y0, y1, nx, ny):
    """Rows of bricks; odd rows offset by half a brick width."""
    ys = np.linspace(y0, y1, ny + 1)
    w = (x1 - x0) / nx
    cuts = (
        np.linspace(x0, x1, nx + 1),
        np.concatenate([[x0], x0 + w * (np.arange(nx) + 0.5), [x1]]),
    )
    return np.concatenate(
        [_rects(cuts[j % 2][:-1], cuts[j % 2][1:], ys[j], ys[j + 1]) for j in range(ny)]
    )


# ---------------------------------------------------------------------------
# mesh families


def _check_n(N: int, minimum: int) -> None:
    if not isinstance(N, (int, np.integer)) or N < minimum:
        raise ValueError(f"N must be an integer >= {minimum}, got {N!r}")


def _glued_grids(N: int, upper_cells) -> PolyMesh:
    """A quad grid of N columns below `_INTERFACE_Y`, glued to a grid of
    N + 1 columns above it made by `upper_cells`."""
    _check_n(N, 2)
    ny_low = max(1, round(_INTERFACE_Y * N))
    ny_high = max(1, round((1.0 - _INTERFACE_Y) * (N + 1)))
    parts = [
        _quad_cells(0.0, 1.0, 0.0, _INTERFACE_Y, N, ny_low),
        upper_cells(0.0, 1.0, _INTERFACE_Y, 1.0, N + 1, ny_high),
    ]
    return _build_mesh(parts, "unit_square")


def gen_square_th1(N: int) -> PolyMesh:
    """Unit-square mesh of two structured quad grids glued at a horizontal line.

    The lower grid has N columns, the upper one N+1 (incommensurate), so the
    gluing inserts hanging vertices on the interface and creates edges down
    to O(h/N).

    Parameters
    ----------
    N : int
        Subdivisions in the abscissae of the lower grid, N >= 2.
    """
    return _glued_grids(N, _quad_cells)


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
    p = _tri_cells(0.0, 1.0, 0.0, 1.0, N, N)
    if not split_edges:
        return _build_mesh([p], "unit_square", insert_hanging=False)
    q = np.roll(p, -1, axis=1)
    # anchor a at the lexicographically smaller endpoint of each edge (p, q)
    swap = (q[..., 0] < p[..., 0]) | ((q[..., 0] == p[..., 0]) & (q[..., 1] < p[..., 1]))
    a = np.where(swap[..., None], q, p)
    c = np.where(swap[..., None], p, q)
    he = np.hypot(c[..., 0] - a[..., 0], c[..., 1] - a[..., 1])
    # arc length he^2 from the anchor: a + he * (c - a)
    split = a + he[..., None] * (c - a)
    hexagons = np.stack([p, split], axis=2).reshape(-1, 6, 2)
    return _build_mesh([hexagons], "unit_square", insert_hanging=False)


def gen_square_th3(N: int) -> PolyMesh:
    """Unit-square mesh gluing a quad grid (below) to a triangle grid (above).

    Same incommensurate gluing as :func:`gen_square_th1` (N columns below,
    N+1 above) but the upper grid is made of right triangles.
    """
    return _glued_grids(N, _tri_cells)


def _rotated_t_half(kind: str, m: int, side: int):
    """Cell arrays for one half (side -1: x<0, +1: x>0) of the rotated-T domain.

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
    return [gen(*rect) for rect in rects]


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
    parts = _rotated_t_half(kinds[0], m, -1) + _rotated_t_half(kinds[1], m + 1, +1)
    return _build_mesh(parts, "rotated_T")


# ---------------------------------------------------------------------------
# validation


def _domain_area(mesh: PolyMesh) -> float:
    if mesh.domain_tag in ("unit_square", "rotated_T"):
        return 1.0
    # custom: shoelace over the directed boundary edges (they form closed
    # loops, so the per-edge cross terms sum to the enclosed area)
    topo = mesh.topology
    on_boundary = topo.counts[topo.edge] == 1
    a, b = mesh.vertices[topo.tail[on_boundary]], mesh.vertices[topo.head[on_boundary]]
    return 0.5 * float((a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1]).sum())


def _star_metrics(shapes) -> list:
    """Star metrics of the shapes: one block LP, per shape if that fails."""
    return star_metrics(shapes) or [star_metric(v) for v in shapes]


def _edge_fault(topo: EdgeTopology, n: int) -> str | None:
    """The first edge traversed twice in the same direction, or None.

    This also rejects every edge of three or more cells: their sides run
    in only two directions.
    """
    _, first, inverse = np.unique(topo.tail * n + topo.head, return_index=True, return_inverse=True)
    repeated = np.flatnonzero(first[inverse] != np.arange(len(inverse)))
    if len(repeated):
        a, b = int(topo.tail[repeated[0]]), int(topo.head[repeated[0]])
        return f"edge ({a}, {b}) is traversed twice in the same direction"
    return None


def validate(mesh: PolyMesh) -> MeshQualityReport:
    """Check mesh conformity and collect quality metrics.

    Raises
    ------
    MeshConformityError
        On an invalid cell polygon (naming the cell), an edge traversed
        twice in the same direction (naming the edge), or a coverage/overlap
        area mismatch.  Small star-shapedness radii are reported, not
        rejected.  When several faults exist, the one named is the first in
        cell order.
    """
    n = mesh.n_vertices
    flat, sizes = mesh.cell_ids, mesh.cell_sizes
    cell_of = np.repeat(np.arange(len(sizes)), sizes)
    order = np.lexsort((flat, cell_of))
    same = (flat[order][1:] == flat[order][:-1]) & (cell_of[order][1:] == cell_of[order][:-1])
    repeats = np.zeros(len(sizes), dtype=bool)
    repeats[cell_of[order][1:][same]] = True
    out_of_range = _out_of_range_cells(flat, sizes, n)
    bad = np.flatnonzero(repeats | out_of_range)
    if len(bad):
        ci = int(bad[0])
        what = "repeats a vertex index" if repeats[ci] else "references a vertex out of range"
        raise MeshConformityError(f"cell {ci} {what}")
    groups = mesh.geometry.groups

    fault = _edge_fault(mesh.topology, n)
    if fault:
        raise MeshConformityError(fault)

    area = sum(float(g.area.sum()) for g in groups)
    ref_area = _domain_area(mesh)
    if abs(area - ref_area) > 1e-10 * abs(ref_area):
        raise MeshConformityError(
            f"coverage mismatch: cell areas sum to {area!r}, domain area is {ref_area!r}"
            " (overlapping or missing cells)"
        )

    min_edge = min(float(g.edge_lengths.min()) for g in groups)
    # rho is translation-invariant and structured meshes repeat a handful of
    # cell shapes, so the LP covers one cell per translated-shape signature
    shapes = []
    for g in groups:
        rel = (g.vertices - g.vertices[:, :1]).round(10).reshape(len(g.cells), -1)
        _, first = np.unique(rel, axis=0, return_index=True)
        shapes.extend(g.vertices[first])
    min_rho = min((m.rho for m in _star_metrics(shapes)), default=np.inf)
    return MeshQualityReport(
        h=mesh.h,
        min_edge=min_edge,
        min_edge_over_h=min_edge / mesh.h,
        min_rho=min_rho,
        cell_count=mesh.n_cells,
        vertex_count=mesh.n_vertices,
    )


def reentrant_corners(mesh: PolyMesh) -> list[Point2]:
    """Boundary vertices with interior angle > pi.

    Walks the directed boundary loops (counter-clockwise around the domain)
    and flags right turns, by more than 1e-9 rad.  Collinear boundary
    vertices (hanging nodes) are skipped.  Assumes a domain without holes.
    """
    topo = mesh.topology
    on_boundary = topo.counts[topo.edge] == 1
    tail, head = topo.tail[on_boundary], topo.head[on_boundary]
    succ = np.full(mesh.n_vertices, -1)
    succ[tail] = head
    # boundary vertices in order of first traversal
    _, first = np.unique(tail, return_index=True)
    a = tail[np.sort(first)]
    b = succ[a]
    c = succ[b]
    v = mesh.vertices
    d1 = v[b] - v[a]
    d2 = v[c] - v[b]
    cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    turn = cross < -1e-9 * np.hypot(d1[:, 0], d1[:, 1]) * np.hypot(d2[:, 0], d2[:, 1])
    return [Point2(x, y) for x, y in v[b[turn]].tolist()]


# ---------------------------------------------------------------------------
# file IO


def io_write(path, mesh: PolyMesh) -> None:
    """Write a mesh as JSON (schema version 1)."""
    doc = {
        "version": 1,
        "domain": mesh.domain_tag,
        "vertices": np.asarray(mesh.vertices, dtype=float).tolist(),
        "cells": _split(mesh.cell_ids, mesh.cell_sizes),
        "boundary": np.asarray(mesh.boundary_vertex, dtype=bool).tolist(),
    }
    # json.dumps encodes in C; json.dump streams through the Python encoder
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))
        fh.write("\n")


def io_read(path) -> PolyMesh:
    """Read a mesh written by :func:`io_write`.

    The cheap part of `validate` runs here, because the cells come from
    outside: vertex ids in range, no edge traversed twice in the same
    direction, and boundary flags equal to the ones the cells imply.
    Cell polygons, coverage and rho are left to `validate`.

    Raises
    ------
    MeshIOError
        With line/column information on parse errors, or a description of
        the first schema or conformity violation.  Never returns a partial
        mesh.
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
        cells = doc["cells"]
        # a JSON id must be an integer literal: int() would truncate 0.7 and read true as 1
        bad = next(((ci, i) for ci, c in enumerate(cells) for i in c if type(i) is not int), None)
        if bad is None:
            mesh = PolyMesh.from_cells(verts, cells, domain)
        boundary = np.asarray(doc["boundary"], dtype=bool)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MeshIOError(f"malformed mesh arrays: {exc}") from exc
    if bad is not None:
        raise MeshIOError(f"cell {bad[0]} has a vertex id that is not an integer: {bad[1]!r}")
    if verts.ndim != 2 or verts.shape[1] != 2:
        raise MeshIOError(f"vertices must be an (n, 2) array, got shape {verts.shape}")
    if len(boundary) != len(verts):
        raise MeshIOError("boundary flag count does not match vertex count")
    short = mesh.cell_sizes < 3
    out_of_range = _out_of_range_cells(mesh.cell_ids, mesh.cell_sizes, len(verts))
    bad = np.flatnonzero(short | out_of_range)
    if len(bad):
        ci = int(bad[0])
        what = "has fewer than 3 vertices" if short[ci] else "references a vertex out of range"
        raise MeshIOError(f"cell {ci} {what}")
    fault = _edge_fault(mesh.topology, len(verts))
    if fault:
        raise MeshIOError(fault)
    mismatch = np.flatnonzero(boundary != mesh.boundary_vertex)
    if len(mismatch):
        raise MeshIOError(f"boundary flag of vertex {int(mismatch[0])} is inconsistent")
    return mesh


def export_vtk(path, mesh: PolyMesh, field=None) -> None:
    """Write a legacy ASCII VTK POLYDATA file, optionally with nodal data `u`."""
    lines = [
        "# vtk DataFile Version 3.0",
        "polyvem mesh",
        "ASCII",
        "DATASET POLYDATA",
        f"POINTS {mesh.n_vertices} double",
    ]
    lines.extend(f"{x!r} {y!r} 0.0" for x, y in mesh.vertices.tolist())
    lines.append(f"POLYGONS {mesh.n_cells} {mesh.n_cells + len(mesh.cell_ids)}")
    rows = np.insert(mesh.cell_ids, mesh._starts, mesh.cell_sizes)  # per cell: k, then k ids
    lines.extend(" ".join(map(str, row)) for row in _split(rows, mesh.cell_sizes + 1))
    if field is not None:
        field = np.asarray(field, dtype=float)
        if field.shape != (mesh.n_vertices,):
            raise ValueError(
                f"nodal field must have shape ({mesh.n_vertices},), got {field.shape}"
            )
        lines.append(f"POINT_DATA {mesh.n_vertices}")
        lines.append("SCALARS u double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(f"{val!r}" for val in field.tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
