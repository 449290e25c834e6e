"""Planar cell geometry: batched validity checks, quadrature and star-shapedness.

Everything downstream (element matrices, error norms) reduces to integrals
over simple polygons, so this module owns the geometric predicates and the
fixed-degree triangle quadrature rules used to evaluate them.  Cells are
computed in batches of one vertex count (`CellBatch`); a `Polygon`,
`polygon_quadrature` and `star_metric` are one-cell views of those batches.
Polygons are oriented counter-clockwise; edges may be arbitrarily short
relative to the diameter, and consecutive collinear vertices (hanging
nodes) are legal.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "Point2",
    "Polygon",
    "TriQuadRule",
    "QUAD_RULES",
    "polygon_quadrature",
    "StarMetric",
    "star_metric",
    "BATCH_CELLS",
    "CellBatch",
    "FAULTS",
    "fault_message",
    "MeshGeometry",
    "mesh_geometry",
    "polygon_batch",
    "cell_quadrature",
]

# Relative tolerance for "zero": areas are scaled by diam^2, distances by diam.
_AREA_EPS = 1e-14


class Point2(NamedTuple):
    """A point in the plane."""

    x: float
    y: float


class TriQuadRule(NamedTuple):
    """Symmetric quadrature rule on the reference triangle.

    Attributes
    ----------
    degree : int
        Highest polynomial degree integrated exactly.
    bary : ndarray, shape (npts, 3)
        Barycentric coordinates of the nodes.
    weights : ndarray, shape (npts,)
        Weights normalized to sum to 1 (i.e. relative to the triangle area).
    """

    degree: int
    bary: np.ndarray
    weights: np.ndarray


def _orbit3(a: float, b: float) -> list[tuple[float, float, float]]:
    # orbit of (a, b, b) under coordinate permutations
    return [(a, b, b), (b, a, b), (b, b, a)]


def _orbit6(a: float, b: float, c: float) -> list[tuple[float, float, float]]:
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


def _make_rule(degree: int, groups) -> TriQuadRule:
    bary = []
    weights = []
    for pts, w in groups:
        bary.extend(pts)
        weights.extend([w] * len(pts))
    return TriQuadRule(degree, np.array(bary, dtype=float), np.array(weights, dtype=float))


# Classical symmetric Gauss rules on the triangle (Strang-Fix degree 2,
# Dunavant degrees 4 and 6).  Weights sum to 1.
QUAD_RULES: dict[int, TriQuadRule] = {
    2: _make_rule(2, [(_orbit3(2.0 / 3.0, 1.0 / 6.0), 1.0 / 3.0)]),
    4: _make_rule(
        4,
        [
            (_orbit3(0.108103018168070, 0.445948490915965), 0.223381589678011),
            (_orbit3(0.816847572980459, 0.091576213509771), 0.109951743655322),
        ],
    ),
    6: _make_rule(
        6,
        [
            (_orbit3(0.501426509658179, 0.249286745170910), 0.116786275726379),
            (_orbit3(0.873821971016996, 0.063089014491502), 0.050844906370207),
            (
                _orbit6(0.053145049844816, 0.310352451033785, 0.636502499121399),
                0.082851075618374,
            ),
        ],
    ),
}


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """z-component of the cross product of 2-vectors stored in the last axis."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _shoelace(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed area and centroid of polygons with vertex arrays v, shape (..., n, 2).

    A polygon of zero signed area gets its vertex mean as centroid.
    """
    x, y = v[..., 0], v[..., 1]
    xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    area2 = cross.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.stack(
            [((x + xn) * cross).sum(axis=-1), ((y + yn) * cross).sum(axis=-1)], axis=-1
        ) / (3.0 * area2[..., None])
    c = np.where((area2 == 0.0)[..., None], v.mean(axis=-2), c)
    return 0.5 * area2, c


def _diameter(v: np.ndarray) -> np.ndarray:
    """Largest pairwise vertex distance of polygons v, shape (..., n, 2).

    Over the pairs i < j, with one square root of the largest squared
    distance: for finite v, the bits of the largest of all n x n distances.
    """
    i, j = np.triu_indices(v.shape[-2], 1)
    x, y = v[..., 0], v[..., 1]
    dx, dy = x[..., i] - x[..., j], y[..., i] - y[..., j]
    return np.sqrt((dx * dx + dy * dy).max(axis=-1))


def _edge_lengths(v: np.ndarray) -> np.ndarray:
    """|v_{i+1} - v_i| for polygons v, shape (..., n, 2)."""
    e = np.roll(v, -1, axis=-2) - v
    return np.hypot(e[..., 0], e[..., 1])


def _fan_triangulable(v: np.ndarray, c: np.ndarray, tol) -> np.ndarray:
    """True where every fan triangle (v_i, v_{i+1}, c) has area >= -tol/2.

    That is, the polygon is star-shaped with respect to c within tol.
    """
    e = np.roll(v, -1, axis=-2) - v
    return (_cross(e, c[..., None, :] - v) >= -np.asarray(tol)[..., None]).all(axis=-1)


def _nonadjacent_edge_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Edge pairs (i, j), i < j, that share no vertex; ordered by i, then j."""
    i, j = np.triu_indices(n, 2)
    keep = ~((i == 0) & (j == n - 1))
    return i[keep], j[keep]


def _segments_cross(p1, p2, p3, p4, tol) -> np.ndarray:
    """True where segments (p1,p2) and (p3,p4) intersect (touching counts).

    Points have shape (..., 2); the length tol broadcasts against the
    leading shape.  A point counts as on a segment's line when its distance
    to that line is at most tol, so the test does not depend on how short
    the segment is.
    """
    tol = np.asarray(tol)
    e12, e34 = p2 - p1, p4 - p3
    tiny = np.finfo(float).tiny
    n12 = np.maximum(np.hypot(e12[..., 0], e12[..., 1]), tiny)
    n34 = np.maximum(np.hypot(e34[..., 0], e34[..., 1]), tiny)
    d1 = _cross(e34, p1 - p3) / n34
    d2 = _cross(e34, p2 - p3) / n34
    d3 = _cross(e12, p3 - p1) / n12
    d4 = _cross(e12, p4 - p1) / n12

    def straddle(a, b):
        return ((a > tol) & (b < -tol)) | ((a < -tol) & (b > tol))

    hit = straddle(d1, d2) & straddle(d3, d4)
    # collinear / touching configurations: fall back to bounding-box overlap,
    # taken only at the points that lie near the other segment's line
    for d, a, b, p in ((d1, p3, p4, p1), (d2, p3, p4, p2), (d3, p1, p2, p3), (d4, p1, p2, p4)):
        near = np.abs(d) <= tol
        if near.any():
            near = np.nonzero(near)
            p, a, b = (np.broadcast_to(q, hit.shape + (2,))[near] for q in (p, a, b))
            e = np.broadcast_to(tol, hit.shape)[near][:, None]
            hit[near] |= ((p >= np.minimum(a, b) - e) & (p <= np.maximum(a, b) + e)).all(axis=-1)
    return hit


def _crossings(v: np.ndarray, diam: np.ndarray) -> np.ndarray:
    """Per polygon of v (G, k, 2), whether each `_nonadjacent_edge_pairs` pair crosses."""
    k = v.shape[1]
    i, j = _nonadjacent_edge_pairs(k)
    return _segments_cross(
        v[:, i], v[:, (i + 1) % k], v[:, j], v[:, (j + 1) % k], _AREA_EPS * diam[:, None]
    )


class Polygon:
    """A simple, counter-clockwise oriented polygon: a `CellBatch` of one cell.

    Parameters
    ----------
    vertices : array_like, shape (n, 2)
        Vertex coordinates in order.  n >= 3.  Consecutive vertices must be
        distinct; edges may otherwise be arbitrarily short.  Consecutive
        collinear vertices are allowed (hanging nodes).

    Raises
    ------
    ValueError
        If the vertex array is not (n, 2) with n >= 3, or with the message
        of the polygon's fault in `FAULTS`.
    """

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError(f"vertex array must have shape (n, 2), got {v.shape}")
        if v.shape[0] < 3:
            raise ValueError(FAULTS[TOO_FEW].format(v.shape[0]))
        self.vertices = v
        self.batch = _cell_batch(np.zeros(1, dtype=np.int64), np.arange(len(v))[None], v[None])
        if self.batch.fault[0]:
            raise ValueError(fault_message(self.batch, 0))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def diameter(self) -> float:
        """Largest pairwise vertex distance."""
        return float(self.batch.diameter[0])

    @property
    def area(self) -> float:
        return float(self.batch.area[0])

    @property
    def centroid(self) -> Point2:
        return Point2(*map(float, self.batch.centroid[0]))

    @property
    def edge_lengths(self) -> np.ndarray:
        return self.batch.edge_lengths[0]

    @property
    def perimeter(self) -> float:
        return float(self.edge_lengths.sum())

    def __repr__(self) -> str:
        return f"Polygon(n={self.n_vertices}, area={self.area:.6g})"


def _as_polygon(poly) -> Polygon:
    return poly if isinstance(poly, Polygon) else Polygon(poly)


def _point_in_triangle_strict(q, a, b, c, eps: float) -> bool:
    d1 = (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])
    d2 = (c[0] - b[0]) * (q[1] - b[1]) - (c[1] - b[1]) * (q[0] - b[0])
    d3 = (a[0] - c[0]) * (q[1] - c[1]) - (a[1] - c[1]) * (q[0] - c[0])
    return d1 > eps and d2 > eps and d3 > eps


def _ear_clip(v: np.ndarray, tol: float) -> list[np.ndarray]:
    idx = list(range(len(v)))
    tris: list[np.ndarray] = []
    while len(idx) > 3:
        n = len(idx)
        for k in range(n):
            ip, ic, inx = idx[(k - 1) % n], idx[k], idx[(k + 1) % n]
            a, b, c = v[ip], v[ic], v[inx]
            a2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if a2 < -tol:
                continue  # reflex corner
            if abs(a2) <= tol:
                # collinear corner: zero-area sliver, drop the vertex
                idx.pop(k)
                break
            if any(
                _point_in_triangle_strict(v[j], a, b, c, -tol)
                for j in idx
                if j not in (ip, ic, inx)
            ):
                continue
            tris.append(np.array([a, b, c]))
            idx.pop(k)
            break
        else:
            raise ValueError("ear clipping failed; polygon is not simple")
    tris.append(np.array([v[idx[0]], v[idx[1]], v[idx[2]]]))
    return tris


# cells per batch of the vectorized per-cell computations: bounds the
# (cells x quadrature nodes) temporaries while amortizing the per-batch
# Python overhead
BATCH_CELLS = 1024


class CellBatch(NamedTuple):
    """Geometry of cells sharing one vertex count k, as stacked arrays.

    Attributes
    ----------
    cells : ndarray, shape (G,)
        Mesh cell indices, ascending.
    ids : ndarray, shape (G, k)
        Vertex ids of each cell, in the cell's (counter-clockwise) order.
    vertices : ndarray, shape (G, k, 2)
    area : ndarray, shape (G,)
        Signed area.
    centroid : ndarray, shape (G, 2)
    diameter : ndarray, shape (G,)
    edge_lengths : ndarray, shape (G, k)
        Length of the edge from vertex i to vertex i + 1.
    fault : ndarray of int8, shape (G,)
        0 for a valid cell, else the index in `FAULTS` of the first fault
        the cell has.
    fan : ndarray of bool, shape (G,)
        The cell is star-shaped with respect to its centroid, so the
        centroid fan triangulates it and `cell_quadrature` integrates it
        as array operations; it ear-clips the other valid cells one by one.
    """

    cells: np.ndarray
    ids: np.ndarray
    vertices: np.ndarray
    area: np.ndarray
    centroid: np.ndarray
    diameter: np.ndarray
    edge_lengths: np.ndarray
    fault: np.ndarray
    fan: np.ndarray

    def take(self, sel) -> "CellBatch":
        """The cells selected by an index, mask or slice along the first axis."""
        return CellBatch._make(a[sel] for a in self)


class MeshGeometry(NamedTuple):
    """Cell geometry of a whole mesh, grouped by vertex count.

    Attributes
    ----------
    groups : tuple of CellBatch
        One per vertex count k >= 3, ascending in k.
    invalid : ndarray
        Ascending indices of the cells that are not valid polygons (this
        includes cells with fewer than 3 vertices, which have no group).
    """

    groups: tuple
    invalid: np.ndarray

    def batches(self):
        """Valid cells in batches of at most BATCH_CELLS, views unless a group has a fault."""
        for g in self.groups:
            if g.fault.any():
                g = g.take(g.fault == 0)
            for start in range(0, len(g.cells), BATCH_CELLS):
                yield g.take(slice(start, start + BATCH_CELLS))


# The faults of a cell in the order they are checked; `CellBatch.fault` is
# the first one a cell has, 0 if none.  No batch holds a cell of fewer than
# 3 vertices (entry 1).  A mesh names entry 2 as "cell N repeats ...".
FAULTS = (
    "",
    "polygon needs at least 3 vertices, got {}",
    "repeats a vertex index",
    "polygon has non-finite vertex coordinates",
    "duplicate consecutive vertices at position {}",
    "polygon is not simple: edges {} and {} intersect",
    "polygon is degenerate (zero area)",
    "polygon is clockwise; vertices must be counter-clockwise",
)
TOO_FEW, REPEATS, _CROSSES = 1, 2, 5


def _cell_batch(cells: np.ndarray, ids: np.ndarray, v: np.ndarray) -> CellBatch:
    # a cell with an infinite coordinate is named by its fault, not by warnings
    with np.errstate(invalid="ignore", over="ignore"):
        area, centroid = _shoelace(v)
        diam = _diameter(v)
        lengths = _edge_lengths(v)
        eps = _AREA_EPS * diam * diam
        i, j = np.triu_indices(ids.shape[1], 1)
        checks = [
            (ids[:, i] == ids[:, j]).any(axis=1),
            ~np.isfinite(v).all(axis=(1, 2)),
            (lengths == 0.0).any(axis=1),
            _crossings(v, diam).any(axis=1),
            np.abs(area) <= eps,
            area < 0.0,
        ]
        fault = np.select(checks, np.arange(REPEATS, REPEATS + len(checks), dtype=np.int8), 0)
        fan = _fan_triangulable(v, centroid, eps)
    return CellBatch(cells, ids, v, area, centroid, diam, lengths, fault, fan)


def fault_message(g: CellBatch, row: int) -> str:
    """`FAULTS` entry of the cell in row `row` of g, its details read from that row."""
    fault = int(g.fault[row])
    if fault == _CROSSES:
        i, j = _nonadjacent_edge_pairs(g.vertices.shape[1])
        p = int(np.argmax(_crossings(g.vertices[row : row + 1], g.diameter[row : row + 1])))
        return FAULTS[fault].format(i[p], j[p])
    return FAULTS[fault].format(int(np.argmin(g.edge_lengths[row])))


def polygon_batch(poly) -> CellBatch:
    """A `Polygon` or (n, 2) array as a batch of one cell.

    Raises ValueError, with the message of its fault, if the polygon is
    not valid.
    """
    return _as_polygon(poly).batch


def mesh_geometry(vertices: np.ndarray, flat: np.ndarray, sizes: np.ndarray) -> MeshGeometry:
    """Geometry of the cells (flat ids, per-cell sizes), grouped by vertex count.

    Groups are ordered by ascending vertex count and cells by ascending
    index within a group, so the result is a fixed function of the mesh.
    Vertex ids must be in range.  The arrays of a group are allocated once
    and filled BATCH_CELLS cells at a time.
    """
    starts = np.cumsum(sizes) - sizes
    valid = np.zeros(len(sizes), dtype=bool)
    groups = []
    for k in np.unique(sizes[sizes >= 3]):
        idx = np.flatnonzero(sizes == k)
        ids = flat[starts[idx][:, None] + np.arange(k)]
        v = vertices[ids]
        computed = None  # area .. fan of the whole group
        for start in range(0, len(idx), BATCH_CELLS):
            chunk = slice(start, start + BATCH_CELLS)
            part = _cell_batch(idx[chunk], ids[chunk], v[chunk])[3:]
            if computed is None:
                computed = [np.empty((len(idx),) + a.shape[1:], a.dtype) for a in part]
            for whole, a in zip(computed, part):
                whole[chunk] = a
        g = CellBatch(idx, ids, v, *computed)
        groups.append(g)
        valid[g.cells] = g.fault == 0
    return MeshGeometry(tuple(groups), np.flatnonzero(~valid))


def cell_quadrature(g: CellBatch, degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature nodes and weights of every cell of a batch of valid cells, row per cell.

    The degree's triangle rule (2, 4 or 6) is mapped onto each triangle of
    the cell, and the weights carry the triangle areas, so ``w @ g(x, y)``
    integrates g over the cell.  Cells with ``g.fan`` are integrated over
    the centroid fan as array operations.  The others are ear-clipped one
    by one from their batch row; that yields at most k - 2 triangles, so
    each such row is padded to k * npts nodes with zero-weight copies of
    its last node, a point inside the cell where the integrands are already
    evaluated.

    Returns
    -------
    x, y, w : ndarray, shape (G, k * npts)
    """
    rule = QUAD_RULES[degree]
    b0, b1, b2 = rule.bary.T
    v, vn, c = g.vertices, np.roll(g.vertices, -1, axis=1), g.centroid[:, None, :]
    # node q of fan triangle t = (v_t, v_t+1, c) goes to column t * npts + q
    x, y = (
        (b0 * v[..., d, None] + b1 * vn[..., d, None] + b2 * c[..., d, None]).reshape(len(v), -1)
        for d in (0, 1)
    )
    w = (rule.weights * (0.5 * _cross(vn - v, c - v))[..., None]).reshape(len(v), -1)
    for r in np.flatnonzero(~g.fan):
        tri = np.array(_ear_clip(v[r], _AREA_EPS * float(g.diameter[r]) ** 2))
        pts = rule.bary @ tri
        wr = rule.weights * (0.5 * _cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]))[:, None]
        pad = (0, w.shape[1] - wr.size)
        x[r], y[r] = (np.pad(pts[..., d].ravel(), pad, mode="edge") for d in (0, 1))
        w[r] = np.pad(wr.ravel(), pad)
    return x, y, w


def polygon_quadrature(poly, degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`cell_quadrature` of one polygon: row 0 of its one-cell batch.

    An ear-clipped polygon's row ends in zero-weight padding nodes, as in
    the batch.  Raises ValueError for a degree other than 2, 4 or 6, and
    with the message of its fault for a polygon that is not valid.
    """
    if degree not in QUAD_RULES:
        raise ValueError(
            f"unsupported quadrature degree {degree}; available: {sorted(QUAD_RULES)}"
        )
    return tuple(a[0] for a in cell_quadrature(polygon_batch(poly), degree))


class StarMetric(NamedTuple):
    """Star-shapedness report for a polygon.

    ``rho`` is the radius of the largest ball the polygon is star-shaped
    with respect to, divided by the polygon diameter.
    """

    is_star: bool
    center: Point2 | None
    rho: float


# (polygon, triple, edge) entries per chunk of the kernel-centre search:
# each float temporary stays at 8 MiB, whatever the vertex count
_CENTRE_CHUNK = 1 << 20


def _chebyshev_centres(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre (S, 2) and radius over diameter (S,) of the largest ball in each kernel.

    v has shape (S, k, 2), counter-clockwise.  The ball (c, r) lies in the
    kernel iff n_i.c - r >= b_i for the inward unit normal n_i of each edge
    and b_i = n_i.v_i: a linear program in three unknowns, so an optimum is
    a point equidistant from three edge lines.  Every triple's point is
    scored by its true radius min_i (n_i.c - b_i), which never exceeds the
    optimum, and the best score is the optimum; it is negative when the
    kernel is empty.  The search runs with the polygons moved to the origin
    and scaled to unit diameter, so no step depends on their size.
    """
    # normals from the given coordinates: translating first would round
    # the end points of an edge of 1e-12 diam, and turn its normal by 1e-4
    e = np.roll(v, -1, axis=1) - v
    n = np.stack([-e[..., 1], e[..., 0]], axis=-1) / np.hypot(e[..., 0], e[..., 1])[..., None]
    origin, diam = v.mean(axis=1), _diameter(v)
    b = (n * (v - origin[:, None])).sum(axis=-1) / diam[:, None]
    a = np.arange(v.shape[1])
    triples = np.nonzero((a[:, None, None] < a[:, None]) & (a[:, None] < a))  # p < q < s
    best_c, best_r = np.zeros((len(v), 2)), np.full(len(v), -np.inf)
    step = max(1, _CENTRE_CHUNK // v[..., 0].size)
    for start in range(0, len(triples[0]), step):
        p, q, s = (t[start : start + step] for t in triples)
        # subtracting row p leaves (n_q - n_p).c = b_q - b_p and the same
        # for s, solved by Cramer's rule; the system is singular when two of
        # the edges are parallel with the same orientation, and c then holds
        # inf or nan, so its score is -inf or nan
        u, w = n[:, q] - n[:, p], n[:, s] - n[:, p]
        beta, gamma = b[:, q] - b[:, p], b[:, s] - b[:, p]
        det = _cross(u, w)
        with np.errstate(divide="ignore", invalid="ignore"):
            cx = (beta * w[..., 1] - gamma * u[..., 1]) / det
            cy = (gamma * u[..., 0] - beta * w[..., 0]) / det
            c = np.stack([cx, cy], axis=-1)
            r = (c @ n.transpose(0, 2, 1) - b[:, None, :]).min(axis=-1)
        r = np.where(np.isnan(r), -np.inf, r)
        t = r.argmax(axis=1)
        better = r[np.arange(len(v)), t] > best_r
        best_r[better], best_c[better] = r[better, t[better]], c[better, t[better]]
    return origin + best_c * diam[:, None], best_r


def star_metric(poly) -> StarMetric:
    """Star-shapedness of one polygon: `_chebyshev_centres` of a stack of one.

    The kernel is the intersection of the half-planes to the left of each
    (counter-clockwise) edge.  Its Chebyshev centre, the centre of the
    largest inscribed ball, is the best of the points equidistant from
    three edge lines over all C(k, 3) edge triples of a k-gon: exact up to
    rounding, at a cost of order C(k, 3)·k.  The answer does not depend on
    the polygon's size or position.  ``is_star`` is False (with center
    None, rho 0) when the best radius is below -_AREA_EPS·diam, i.e. the
    kernel is empty; a degenerate kernel yields is_star True with rho ~ 0.
    Raises ValueError, with the message of its fault, if the polygon is
    not valid.
    """
    (c,), (r,) = _chebyshev_centres(_as_polygon(poly).vertices[None])
    if r < -_AREA_EPS:
        return StarMetric(False, None, 0.0)
    return StarMetric(True, Point2(float(c[0]), float(c[1])), max(float(r), 0.0))
