"""Polygonal mesh model, small-edge mesh generators, validation, and IO.

The mesh families built here deliberately contain edges that are tiny
relative to the cell diameter: structured grids of incommensurate resolution
glued along a line (collinear hanging vertices), triangle meshes whose every
edge carries an extra vertex at squared-length distance from one endpoint,
and offset brick meshes.  All of them keep every cell star-shaped with
respect to a ball, which is the one shape assumption the solver relies on.

Generators emit cells as stacked coordinate arrays.  Each family states
its lattice scale (sx, sy), which makes every coordinate an integer, so
each point has an exact (column, row) key however two blocks spell it.
Points with equal keys are one vertex, and each vertex whose column (row)
matches both end points of a vertical (horizontal) cell edge and lies
strictly between them is inserted into that edge, all as array operations.
`split_edges` adds a vertex on every edge of a mesh, as th2 does.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np

from .geometry import (
    FAULTS,
    REPEATS,
    TOO_FEW,
    MeshGeometry,
    Point2,
    Polygon,  # noqa: F401  perfbench/spans.py wraps this name
    _chebyshev_centres,
    fault_message,
    mesh_geometry,
    star_metric,  # noqa: F401  perfbench/spans.py wraps this name
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
    "split_edges",
    "ROTATED_T_FAMILIES",
    "MeshFamily",
    "FAMILIES",
    "validate",
    "io_read",
    "io_write",
    "export_vtk",
    "reentrant_corners",
]

DOMAIN_TAGS = ("unit_square", "rotated_T", "custom")
# the primitive meshes of the left and right half of each rotated-T family
_T_HALVES = {
    "th4": ("quad", "quad"), "th5": ("quad", "tri"), "th6": ("tri", "tri"), "th7": ("brick", "quad")
}
ROTATED_T_FAMILIES = tuple(_T_HALVES)
# height of the line where th1 and th3 glue their lower and upper grids
_INTERFACE_Y = 0.6


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

    def _check_vertex_ids(self) -> None:
        """Raise MeshConformityError naming the first cell that references a
        vertex id outside [0, n_vertices)."""
        ids = self.cell_ids
        if len(ids) and (ids.min() < 0 or ids.max() >= self.n_vertices):
            bad = np.flatnonzero(_out_of_range_cells(ids, self.cell_sizes, self.n_vertices))
            raise MeshConformityError(f"cell {int(bad[0])} references a vertex out of range")

    @cached_property
    def geometry(self) -> MeshGeometry:
        """Cell geometry grouped by vertex count, computed once per mesh.

        Validation, assembly and the error norms all read this.

        Raises
        ------
        MeshConformityError
            Naming the first cell that references a vertex out of range, or
            else the first that has a fault in `geometry.FAULTS`.
        """
        self._check_vertex_ids()
        geom = mesh_geometry(self.vertices, self.cell_ids, self.cell_sizes)
        if len(geom.invalid):
            ci = int(geom.invalid[0])
            k = int(self.cell_sizes[ci])
            if k < 3:
                what = FAULTS[TOO_FEW].format(k)
            else:
                g = next(g for g in geom.groups if g.ids.shape[1] == k)
                what = fault_message(g, np.searchsorted(g.cells, ci))
            if what != FAULTS[REPEATS]:
                what = f"is not a valid polygon: {what}"
            raise MeshConformityError(f"cell {ci} {what}")
        return geom

    @cached_property
    def h(self) -> float:
        """Maximum cell diameter."""
        return max((float(g.diameter.max()) for g in self.geometry.groups), default=0.0)

    @cached_property
    def topology(self) -> "EdgeTopology":
        """Directed cell edges and undirected incidence counts.

        Raises MeshConformityError if a cell references a vertex out of range.
        """
        self._check_vertex_ids()
        return edge_topology(self.cell_ids, self.cell_sizes)

    @cached_property
    def boundary_vertex(self) -> np.ndarray:
        """Read-only flags of the vertices on an edge of exactly one cell."""
        topo = self.topology
        flags = np.bincount(topo.edges[topo.counts == 1].ravel(), minlength=self.n_vertices) > 0
        flags.flags.writeable = False
        return flags

    @cached_property
    def _coordinate_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct coordinate spellings, as JSON and as `repr`, and the
        index of the spelling of each coordinate x0, y0, x1, ...

        The values are told apart by their bits, since 0.0 and -0.0 are
        equal but spelled differently; a spelling is a function of the bits.
        `json.dumps` spells a float as `repr` does, except nan and ±inf,
        so the two are one array unless a coordinate is not finite.
        """
        flat = np.ascontiguousarray(self.vertices, dtype=np.float64).ravel()
        bits, index = np.unique(flat.view(np.int64), return_inverse=True)
        values = bits.view(np.float64).tolist()
        reprs = np.array(list(map(repr, values)), dtype=object)
        finite = np.isfinite(bits.view(np.float64)).all()
        spellings = reprs if finite else np.array(list(map(json.dumps, values)), dtype=object)
        return spellings, reprs, index

    @cached_property
    def _id_tokens(self) -> np.ndarray:
        """`str(i)` for i = 0 .. the largest vertex id or cell size, as an
        object array that the writers index with ids and sizes."""
        top = max(self.n_vertices, int(self.cell_sizes.max(initial=-1)) + 1)
        return np.array(list(map(str, range(top))), dtype=object)


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


def _lattice_keys(pts: np.ndarray, scale) -> np.ndarray:
    """Integer keys (columns, rows), shape (2, P), of points (P, 2) whose
    coordinates times `scale` (sx, sy) are integers, shifted to start at 0.

    Raises MeshConformityError if a point lies more than 1e-6 lattice units
    off the lattice, or if column * rows + row could overflow int64.
    """
    # (2, P) in C order: reductions along a (P, 2) column are slow
    offset = np.multiply(pts.T, np.asarray(scale, dtype=float)[:, None], order="C")
    keys = np.rint(offset)
    offset -= keys
    off = float(np.abs(offset, out=offset).max())
    if not off <= 1e-6:
        raise MeshConformityError(f"a generated point lies {off:.3g} lattice units off its family's lattice")
    keys -= keys.min(axis=1, keepdims=True)
    columns, rows = (int(k) + 1 for k in keys.max(axis=1))
    if columns * rows > np.iinfo(np.int64).max:
        raise MeshConformityError(f"lattice keys of {columns} x {rows} points overflow int64")
    return keys.astype(np.int64)


def _dedupe(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of each vertex's first point and the vertex id of each
    point, merging points of equal key; vertices in order of first appearance."""
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    vid = np.empty(len(order), dtype=np.int64)
    vid[order] = np.arange(len(order))
    return first[order], vid[inv]


def _insert_hanging_vertices(
    grid: np.ndarray, flat: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Insert every vertex lying strictly inside an axis-aligned cell edge.

    `grid` (2, n) holds the lattice keys (columns, rows) of the vertices, all >= 0.
    An edge whose end points share a column (else a row) receives the other
    vertices of that column (row) between its end points, in the direction
    of travel.  Returns the new (flat, sizes).
    """
    tail, head = flat, flat[_successor(sizes)]
    count = np.zeros(len(flat), dtype=np.int64)
    begin = np.zeros(len(flat), dtype=np.int64)
    forward = np.ones(len(flat), dtype=bool)
    on_line = []
    taken = np.zeros(len(flat), dtype=bool)
    offset = 0
    for axis in (0, 1):  # columns (parameter: row), then rows
        line, rank = grid[axis], grid[1 - axis]
        sel = ~taken & (line[tail] == line[head])
        taken |= sel
        # a vertex fits strictly inside an edge only if its ends are at least
        # 2 lattice steps apart; an axis without such an edge is not searched
        sel &= np.abs(rank[tail] - rank[head]) >= 2
        if not sel.any():
            continue
        stride = int(rank.max()) + 1
        key = line * stride + rank  # one vertex per key
        order = np.argsort(key)
        sorted_key = key[order]
        a, b = tail[sel], head[sel]
        i0 = np.searchsorted(sorted_key, line[a] * stride + np.minimum(rank[a], rank[b]), "right")
        i1 = np.searchsorted(sorted_key, line[a] * stride + np.maximum(rank[a], rank[b]), "left")
        count[sel] = np.maximum(i1 - i0, 0)
        begin[sel] = offset + i0
        forward[sel] = rank[a] < rank[b]
        on_line.append(order)
        offset += len(order)
    line_vids = np.concatenate(on_line) if on_line else np.empty(0, dtype=np.int64)

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


def _build_mesh(parts, domain_tag: str, scale) -> PolyMesh:
    """Mesh from cells given as coordinate arrays, one (G, k, 2) array per part.

    Points with equal `_lattice_keys` on the lattice `scale` (sx, sy) are
    one vertex, which keeps its first point's coordinates, and hanging
    vertices are inserted into axis-aligned edges.  The cells keep the
    counter-clockwise order the generators emit; `PolyMesh.geometry`
    rejects a clockwise one.
    """
    sizes = np.concatenate([np.full(len(p), p.shape[1], dtype=np.int64) for p in parts])
    pts = np.concatenate([p.reshape(-1, 2) for p in parts], dtype=np.float64)
    keys = _lattice_keys(pts, scale)
    first, flat = _dedupe(keys[0] * (int(keys[1].max()) + 1) + keys[1])
    coords, grid = pts[first], keys[:, first]
    del pts, keys  # the insertion's peak holds neither
    flat, sizes = _insert_hanging_vertices(grid, flat, sizes)
    return PolyMesh(coords, flat, sizes, domain_tag)


def split_edges(mesh: PolyMesh, fraction) -> PolyMesh:
    """`mesh` with a new vertex at a + f (c - a) on each edge (a, c) of
    `mesh.topology.edges`, a its lexicographically smaller end point and f
    the `fraction`, one number or one per edge.  In each cell the vertex
    follows the edge's first vertex.  Vertices are numbered by first
    appearance; a new one is keyed by its edge, not by its coordinates.
    """
    topo = mesh.topology
    p, q = mesh.vertices[topo.edges.T]
    swap = ((q[:, 0] < p[:, 0]) | ((q[:, 0] == p[:, 0]) & (q[:, 1] < p[:, 1])))[:, None]
    a, c = np.where(swap, q, p), np.where(swap, p, q)
    points = np.concatenate([mesh.vertices, a + np.reshape(fraction, (-1, 1)) * (c - a)])
    key = np.stack([mesh.cell_ids, mesh.n_vertices + topo.edge], axis=1).ravel()
    first, flat = _dedupe(key)
    return PolyMesh(points[key[first]], flat, 2 * mesh.cell_sizes, mesh.domain_tag)


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
    # abscissae i/N and j/(N+1); ordinates 3i/(5 ny_low) and 3/5 + 2j/(5 ny_high)
    return _build_mesh(parts, "unit_square", (N * (N + 1), 5 * math.lcm(ny_low, ny_high)))


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


def gen_square_th2(N: int) -> PolyMesh:
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
    """
    _check_n(N, 2)
    tri = _build_mesh([_tri_cells(0.0, 1.0, 0.0, 1.0, N, N)], "unit_square", (N, N))
    a, c = tri.vertices[tri.topology.edges.T]
    return split_edges(tri, np.hypot(*(c - a).T))


def gen_square_th3(N: int) -> PolyMesh:
    """Unit-square mesh gluing a quad grid (below) to a triangle grid (above).

    Same incommensurate gluing as :func:`gen_square_th1` (N columns below,
    N+1 above) but the upper grid is made of right triangles.
    """
    return _glued_grids(N, _tri_cells)


def _rotated_t_half(kind: str, m: int, nq: int, side: int):
    """Cell arrays for one half (side -1: x<0, +1: x>0) of the rotated-T
    domain, of m rows per bar height and nq columns per quarter-width.

    The half is decomposed into three rectangles (outer bar, inner bar, stem)
    meshed conformingly, so the reentrant corner (+-0.25, 0) is a mesh vertex
    for every m.
    """
    gen = {"quad": _quad_cells, "tri": _tri_cells, "brick": _brick_cells}[kind]
    if side < 0:
        rects = [(-0.5, -0.25, -0.5, 0.0, m), (-0.25, 0.0, -0.5, 0.0, m), (-0.25, 0.0, 0.0, 1.0, 2 * m)]
    else:
        rects = [(0.25, 0.5, -0.5, 0.0, m), (0.0, 0.25, -0.5, 0.0, m), (0.0, 0.25, 0.0, 1.0, 2 * m)]
    return [gen(x0, x1, y0, y1, nq, ny) for x0, x1, y0, y1, ny in rects]


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
    kinds = _T_HALVES[family]
    m = N // 2
    # columns per quarter-width: this quotient, not round(m / 2), which differs at m = 49, 99, ...
    nq = [max(1, round(0.25 / (0.5 / k))) for k in (m, m + 1)]
    parts = _rotated_t_half(kinds[0], m, nq[0], -1) + _rotated_t_half(kinds[1], m + 1, nq[1], +1)
    # abscissae: multiples of half a column of either half; ordinates: of 1/(2m) and 1/(2m + 2)
    return _build_mesh(parts, "rotated_T", (8 * math.lcm(*nq), 2 * math.lcm(m, m + 1)))


class MeshFamily(NamedTuple):
    """A mesh family: its domain, its generator of N, and the N list of its
    table (the generator takes any admissible N)."""

    domain: str
    generate: Callable[[int], PolyMesh]
    table_N: tuple


FAMILIES: dict[str, MeshFamily] = {
    "th1": MeshFamily("unit_square", gen_square_th1, (8, 16, 32, 64)),
    "th2": MeshFamily("unit_square", gen_square_th2, (8, 16, 32, 64)),
    "th3": MeshFamily("unit_square", gen_square_th3, (8, 16, 32, 64)),
    "th4": MeshFamily("rotated_T", partial(gen_rotated_T, "th4"), (16, 30, 62, 130)),
    "th5": MeshFamily("rotated_T", partial(gen_rotated_T, "th5"), (16, 30, 62, 130)),
    "th6": MeshFamily("rotated_T", partial(gen_rotated_T, "th6"), (16, 30, 62, 130)),
    "th7": MeshFamily("rotated_T", partial(gen_rotated_T, "th7"), (16, 28, 60, 132)),
}


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


def _edge_fault(topo: EdgeTopology, n: int) -> str | None:
    """The first edge traversed twice in the same direction, or None.

    This also rejects every edge of three or more cells: their sides run
    in only two directions.  The sides of each undirected edge are counted
    by direction on the topology; only a fault is looked up by a sort.
    """
    if np.bincount(2 * topo.edge + (topo.tail < topo.head)).max(initial=0) <= 1:
        return None
    _, first, inverse = np.unique(topo.tail * n + topo.head, return_index=True, return_inverse=True)
    repeated = np.flatnonzero(first[inverse] != np.arange(len(inverse)))
    a, b = int(topo.tail[repeated[0]]), int(topo.head[repeated[0]])
    return f"edge ({a}, {b}) is traversed twice in the same direction"


def _shape_representatives(g) -> np.ndarray:
    """Index of the first cell of each distinct shape of a `CellBatch`.

    rho is invariant under translation and scaling, and structured meshes
    repeat a handful of cell shapes, so `validate` computes rho for one
    cell per signature: the vertices relative to the first, in units of
    the diameter, rounded to 10 digits.  A signature is the bytes of that
    row, so the cells come in the order of their bytes.
    """
    rel = (g.vertices - g.vertices[:, :1]) / g.diameter[:, None, None]
    # + 0.0 turns -0.0 into 0.0, so that equal rows have equal bytes
    rows = np.ascontiguousarray(rel.round(10).reshape(len(g.cells), -1) + 0.0)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    return np.unique(keys, return_index=True)[1]


def validate(mesh: PolyMesh) -> MeshQualityReport:
    """Check mesh conformity and collect quality metrics.

    Raises
    ------
    MeshConformityError
        On a mesh without cells, a cell with a fault in `geometry.FAULTS`
        or a vertex id out of range (naming the cell), an edge traversed
        twice in the same direction (naming the edge), or a coverage/overlap
        area mismatch.  Small star-shapedness radii are reported, not
        rejected.  The faulty cell named is the first in cell order, except
        that ids out of range, which have no coordinates, come first.
    """
    if mesh.n_cells == 0:
        raise MeshConformityError("mesh has no cells")
    groups = mesh.geometry.groups

    fault = _edge_fault(mesh.topology, mesh.n_vertices)
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
    # rho is the kernel's Chebyshev radius over the diameter; an empty
    # kernel has a negative one and is reported as rho 0
    radii = (_chebyshev_centres(g.vertices[_shape_representatives(g)])[1] for g in groups)
    min_rho = max(min(float(r.min()) for r in radii), 0.0)
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


# rows per chunk of the writers: a write holds one chunk's tokens and text
# at a time, whatever the size of the mesh
ROW_CHUNK = 4096
_JSON_BOOLS = np.array(["false", "true"], dtype=object)


def _write_rows(fh, n_rows: int, chunk, sep: str, row_end: str, last_end: str) -> None:
    """Write `n_rows` rows to fh, ROW_CHUNK rows at a time.

    `chunk(r0, r1)` returns the tokens of rows r0 .. r1 - 1 and their
    counts, an array or one count for every row.  A row is its tokens
    joined by `sep` and followed by `row_end`, the last row by `last_end`.
    """
    for r0 in range(0, n_rows, ROW_CHUNK):
        r1 = min(r0 + ROW_CHUNK, n_rows)
        tokens, sizes = chunk(r0, r1)
        if np.ndim(sizes) and not sizes.all():  # an empty row holds one blank token
            at = (np.cumsum(sizes) - sizes)[sizes == 0]
            tokens = np.insert(np.array(tokens, dtype=object), at, "").tolist()
            sizes = np.maximum(sizes, 1)
        out = [sep] * (2 * len(tokens))
        out[::2] = tokens
        if np.ndim(sizes):
            for end in (2 * np.cumsum(sizes) - 1).tolist():
                out[end] = row_end
        else:  # rows of one length
            out[2 * sizes - 1 :: 2 * sizes] = [row_end] * (r1 - r0)
        if r1 == n_rows:
            out[-1] = last_end
        fh.write("".join(out))


def _write_json_list(fh, n_rows: int, chunk, nested: bool = True) -> None:
    """The list `json.dumps` writes for the rows of `chunk`: a list of
    lists, or if not `nested` a list of the rows' one token each."""
    if n_rows == 0:
        fh.write("[]")
        return
    opening, closing = ("[", "]") if nested else ("", "")
    fh.write("[" + opening)
    _write_rows(fh, n_rows, chunk, ", ", f"{closing}, {opening}", closing + "]")


def _coordinate_rows(spellings: np.ndarray, index: np.ndarray):
    """`_write_rows` chunks of the vertices (x, y), spelled from the table."""
    return lambda r0, r1: (spellings[index[2 * r0 : 2 * r1]].tolist(), 2)


def _cell_span(mesh: PolyMesh, r0: int, r1: int) -> slice:
    """The span of `mesh.cell_ids` that holds cells r0 .. r1 - 1."""
    return slice(int(mesh._starts[r0]), int(mesh._starts[r1 - 1] + mesh.cell_sizes[r1 - 1]))


def io_write(path, mesh: PolyMesh) -> None:
    """Write a mesh as JSON (schema version 1).

    The bytes are those of one `json.dumps` of the document: key order
    version, domain, vertices, cells, boundary, and ", " and ": " as
    separators.  Each block is written ROW_CHUNK rows at a time, its
    coordinates and ids spelled from the mesh's tables, which it shares
    with `export_vtk`.  A cell that references a vertex out of range
    raises MeshConformityError before the file is opened.
    """
    mesh._check_vertex_ids()
    spellings, _, index = mesh._coordinate_table
    flags = mesh.boundary_vertex.view(np.int8)

    def cells(r0, r1):
        ids = mesh.cell_ids[_cell_span(mesh, r0, r1)]
        return mesh._id_tokens[ids].tolist(), mesh.cell_sizes[r0:r1]

    def boundary(r0, r1):
        return _JSON_BOOLS[flags[r0:r1]].tolist(), 1

    with open(path, "w") as fh:
        fh.write(f'{{"version": 1, "domain": {json.dumps(mesh.domain_tag)}, "vertices": ')
        _write_json_list(fh, mesh.n_vertices, _coordinate_rows(spellings, index))
        fh.write(', "cells": ')
        _write_json_list(fh, mesh.n_cells, cells)
        fh.write(', "boundary": ')
        _write_json_list(fh, mesh.n_vertices, boundary, nested=False)
        fh.write("}\n")


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
        flags = doc["boundary"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MeshIOError(f"malformed mesh arrays: {exc}") from exc
    if bad is not None:
        raise MeshIOError(f"cell {bad[0]} has a vertex id that is not an integer: {bad[1]!r}")
    if verts.ndim != 2 or verts.shape[1] != 2:
        raise MeshIOError(f"vertices must be an (n, 2) array, got shape {verts.shape}")
    # like the ids: bool() would read 1 and [true] as true
    if type(flags) is not list or any(type(f) is not bool for f in flags):
        raise MeshIOError(f"boundary must be a list of {len(verts)} JSON booleans")
    if len(flags) != len(verts):
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
    mismatch = np.flatnonzero(np.array(flags) != mesh.boundary_vertex)
    if len(mismatch):
        raise MeshIOError(f"boundary flag of vertex {int(mismatch[0])} is inconsistent")
    return mesh


def export_vtk(path, mesh: PolyMesh, field=None) -> None:
    """Write a legacy ASCII VTK POLYDATA file, optionally with nodal data `u`.

    Numbers are spelled by `repr` and `str`, from the tables `io_write`
    uses; the POINTS block, the POLYGONS block and the field are each
    written ROW_CHUNK rows at a time.  Vertex ids are checked as in
    `io_write`, and the field's shape, before the file is opened.
    """
    mesh._check_vertex_ids()
    n = mesh.n_vertices
    if field is not None:
        field = np.asarray(field, dtype=float)
        if field.shape != (n,):
            raise ValueError(f"nodal field must have shape ({n},), got {field.shape}")
    _, reprs, index = mesh._coordinate_table

    def polygons(r0, r1):  # per cell: k, then k ids
        span, sizes = _cell_span(mesh, r0, r1), mesh.cell_sizes[r0:r1]
        rows = np.insert(mesh.cell_ids[span], mesh._starts[r0:r1] - span.start, sizes)
        return mesh._id_tokens[rows].tolist(), sizes + 1

    def values(r0, r1):
        return list(map(repr, field[r0:r1].tolist())), 1

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\npolyvem mesh\nASCII\nDATASET POLYDATA\n")
        fh.write(f"POINTS {n} double\n")
        _write_rows(fh, n, _coordinate_rows(reprs, index), " ", " 0.0\n", " 0.0\n")
        fh.write(f"POLYGONS {mesh.n_cells} {mesh.n_cells + len(mesh.cell_ids)}\n")
        _write_rows(fh, mesh.n_cells, polygons, " ", "\n", "\n")
        if field is not None:
            fh.write(f"POINT_DATA {n}\nSCALARS u double 1\nLOOKUP_TABLE default\n")
            _write_rows(fh, n, values, "", "\n", "\n")
