"""Straightforward references for code that polyvem computes in bulk.

The local VEM forms, one polygon at a time: Pi from edge sums, S scattered
entry by entry with `np.add.at`, and the forms integrated by this module's
own `polygon_quadrature`.  That quadrature triangulates the polygon itself
(the centroid fan, or ear clipping when a fan triangle would be inverted)
and maps `QUAD_RULES`, the one table it shares with polyvem, onto each
triangle in a loop.  `polyvem.vem_core` and `polyvem.geometry.cell_quadrature`
compute the same quantities for stacked batches of cells, in a different
summation order; the tests compare the two to a relative 1e-12.

The mesh writers, one document built by `json.dumps` and one line per
vertex and per cell: `polyvem.mesh.io_write` and `export_vtk` must write
the same bytes.

Four pieces of cell geometry and `validate`, as first written: the
diameter as the largest of all k x k vertex distances, the segment
crossing test with its bounding-box fallback on every edge pair, the
shape signatures as the distinct rows of `np.unique(axis=0)`, and the
edge check as a sort of every directed edge.  `polyvem.geometry` and
`polyvem.mesh` compute the same values with less work; the tests require
every bit to agree.

The validity checks of one polygon, one after another, as `Polygon` ran
them before they moved into the cell batch: `Polygon(v)` must raise
exactly the message `polygon_fault(v)` returns.

The eigenvalues of a pencil by QZ on the dense matrices, with no shift,
no factorization and no acceptance check: `polyvem.solvers.solve_eigs`
must find the same values by shift and invert.  QZ is backward stable in
the norm of the pencil only, so on small-edge meshes its own componentwise
backward error is large (7.1e-4 on th2 N=8 split at t = 1e-9).
"""

import json
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from polyvem.geometry import (
    _AREA_EPS,
    QUAD_RULES,
    _as_polygon,
    _edge_lengths,
    _cross,
    _nonadjacent_edge_pairs,
    _shoelace,
)
from polyvem.vem_core import QUAD_DEGREE


class LocalForms(NamedTuple):
    """Local matrices of one polygon; field meanings as in `vem_core.LocalElement`."""

    PiNabla: np.ndarray
    S: np.ndarray
    Ah: np.ndarray
    Bh: np.ndarray
    Ch: np.ndarray
    Mh: np.ndarray
    Fh: np.ndarray


def pi_nabla(E) -> np.ndarray:
    """Elliptic projector onto P1 in the scaled monomial basis, shape (3, n)."""
    p = _as_polygon(E)
    v = p.vertices
    x, y = v[:, 0], v[:, 1]
    area = p.area
    h = p.diameter
    if area <= 1e-14 * h * h:
        raise ValueError("degenerate element: area is zero within tolerance")
    xc, yc = p.centroid

    # gradient rows: c_alpha = (h/|E|) * sum_e (n_e,alpha |e|) (v_i+v_j)/2,
    # which telescopes to centered differences of the neighbor coordinates
    c1 = 0.5 * (np.roll(y, -1) - np.roll(y, 1)) * (h / area)
    c2 = -0.5 * (np.roll(x, -1) - np.roll(x, 1)) * (h / area)

    # constant row: boundary average of the projection matches that of v
    lengths = p.edge_lengths
    t = 0.5 * (lengths + np.roll(lengths, 1))  # trapezoid weight per vertex
    per = p.perimeter
    m1 = (x - xc) / h
    m2 = (y - yc) / h
    a1 = (t @ m1) / per
    a2 = (t @ m2) / per
    c0 = t / per - a1 * c1 - a2 * c2
    return np.vstack([c0, c1, c2])


def stab_matrix(E) -> np.ndarray:
    """S = h_E times the cycle-graph Laplacian with edge weights 1/|e|."""
    p = _as_polygon(E)
    lengths = p.edge_lengths
    if np.any(lengths == 0.0):
        raise ValueError("zero-length edge")
    n = p.n_vertices
    w = p.diameter / lengths
    S = np.zeros((n, n))
    idx = np.arange(n)
    nxt = np.roll(idx, -1)
    np.add.at(S, (idx, idx), w)
    np.add.at(S, (nxt, nxt), w)
    np.add.at(S, (idx, nxt), -w)
    np.add.at(S, (nxt, idx), -w)
    return S


def _ear_clip(v: np.ndarray, tol: float) -> list:
    """Cut off the first corner, in index order, that is convex and whose
    triangle holds no other remaining vertex; drop a collinear corner."""
    idx = list(range(len(v)))
    tris = []
    while len(idx) > 3:
        n = len(idx)
        for k in range(n):
            a, b, c = v[idx[k - 1]], v[idx[k]], v[idx[(k + 1) % n]]
            a2 = _cross(b - a, c - a)
            if abs(a2) <= tol:
                idx.pop(k)
                break
            q = v[[j for j in idx if j not in (idx[k - 1], idx[k], idx[(k + 1) % n])]]
            sides = [_cross(b - a, q - a), _cross(c - b, q - b), _cross(a - c, q - c)]
            if a2 > 0.0 and not (np.array(sides) > -tol).all(axis=0).any():
                tris.append(np.array([a, b, c]))
                idx.pop(k)
                break
        else:
            raise ValueError("ear clipping failed; polygon is not simple")
    return tris + [v[idx]]


def triangulate(E) -> list:
    """Triangles (3, 2) of the polygon E: its centroid fan when no fan
    triangle has twice its signed area below -1e-14 diam^2, else ear clipping."""
    p = _as_polygon(E)
    v, c, n = p.vertices, np.array(p.centroid), p.n_vertices
    tol = _AREA_EPS * p.diameter**2
    fan = [np.array([v[i], v[(i + 1) % n], c]) for i in range(n)]
    if all(_cross(b - a, c - a) >= -tol for a, b, c in fan):
        return fan
    return _ear_clip(v, tol)


def polygon_quadrature(E, degree: int):
    """Nodes x, y and weights w of the degree's rule on each triangle of
    `triangulate(E)`, so that ``w @ g(x, y)`` integrates g over E."""
    rule = QUAD_RULES[degree]
    x, y, w = [], [], []
    for a, b, c in triangulate(E):
        area = 0.5 * _cross(b - a, c - a)
        for bary, weight in zip(rule.bary, rule.weights):
            x.append(bary @ [a[0], b[0], c[0]])
            y.append(bary @ [a[1], b[1], c[1]])
            w.append(weight * area)
    return np.array(x), np.array(y), np.array(w)


def _eval_scalar(field, x, y) -> np.ndarray:
    return np.broadcast_to(np.asarray(field(x, y), dtype=float), np.shape(x))


def local_forms(E, coeffs) -> LocalForms:
    """All local matrices and the load of one polygon.

    Ah = kappa_E a(Pi w, Pi v) + ((I - D Pi) w)^T S ((I - D Pi) v), with
    kappa sampled at the centroid; Bh, Ch, Mh and Fh put Pi in both slots
    and are integrated by `polygon_quadrature` of degree `QUAD_DEGREE`.
    """
    p = _as_polygon(E)
    n = p.n_vertices
    h = p.diameter
    area = p.area
    xc, yc = p.centroid

    kappa_e = float(np.asarray(coeffs.kappa(np.asarray(xc), np.asarray(yc))))
    if not kappa_e > 0.0:
        raise ValueError(f"kappa must be strictly positive, got {kappa_e} at {p.centroid}")

    P = pi_nabla(p)
    v = p.vertices
    D = np.column_stack([np.ones(n), (v[:, 0] - xc) / h, (v[:, 1] - yc) / h])
    S = stab_matrix(p)
    remainder = np.eye(n) - D @ P
    consistency = (area / (h * h)) * (np.outer(P[1], P[1]) + np.outer(P[2], P[2]))
    Ah = kappa_e * consistency + remainder.T @ S @ remainder

    xq, yq, wq = polygon_quadrature(p, QUAD_DEGREE)
    monomials = np.column_stack([np.ones_like(xq), (xq - xc) / h, (yq - yc) / h])
    V = monomials @ P  # values of Pi phi_j at the quadrature points
    gx = P[1] / h
    gy = P[2] / h

    tx, ty = (np.broadcast_to(np.asarray(t, dtype=float), xq.shape) for t in coeffs.theta(xq, yq))
    Bh = V.T @ ((wq * tx)[:, None] * gx[None, :] + (wq * ty)[:, None] * gy[None, :])

    gq = _eval_scalar(coeffs.gamma, xq, yq)
    Ch = V.T @ ((wq * gq)[:, None] * V)
    Mh = V.T @ (wq[:, None] * V)

    if coeffs.f is not None:
        Fh = V.T @ (wq * _eval_scalar(coeffs.f, xq, yq))
    else:
        Fh = np.zeros(n)
    return LocalForms(P, S, Ah, Bh, Ch, Mh, Fh)


def _split(flat: np.ndarray, sizes: np.ndarray) -> list:
    """Per-cell lists of a flat per-vertex array."""
    items = flat.tolist()
    ends = np.cumsum(sizes).tolist()
    return [items[s:e] for s, e in zip([0, *ends[:-1]], ends)]


def io_write(path, mesh) -> None:
    """The JSON mesh file (schema version 1), as one `json.dumps`."""
    doc = {
        "version": 1,
        "domain": mesh.domain_tag,
        "vertices": np.asarray(mesh.vertices, dtype=float).tolist(),
        "cells": _split(mesh.cell_ids, mesh.cell_sizes),
        "boundary": np.asarray(mesh.boundary_vertex, dtype=bool).tolist(),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))
        fh.write("\n")


def export_vtk(path, mesh, field=None) -> None:
    """The legacy ASCII VTK POLYDATA file, one f-string per line."""
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


def diameter(v: np.ndarray) -> np.ndarray:
    """Largest pairwise vertex distance of polygons v, shape (..., n, 2)."""
    d = v[..., :, None, :] - v[..., None, :, :]
    return np.sqrt((d * d).sum(axis=-1)).max(axis=(-2, -1))


def shape_representatives(g) -> np.ndarray:
    """Index of the first cell of each distinct shape signature of a
    `CellBatch`: vertices relative to the first, in units of the diameter,
    rounded to 10 digits and compared as rows of floats."""
    rel = (g.vertices - g.vertices[:, :1]) / g.diameter[:, None, None]
    _, first = np.unique(rel.round(10).reshape(len(g.cells), -1), axis=0, return_index=True)
    return first


def edge_fault(topo, n: int):
    """The first edge traversed twice in the same direction, or None."""
    _, first, inverse = np.unique(topo.tail * n + topo.head, return_index=True, return_inverse=True)
    repeated = np.flatnonzero(first[inverse] != np.arange(len(inverse)))
    if len(repeated):
        a, b = int(topo.tail[repeated[0]]), int(topo.head[repeated[0]])
        return f"edge ({a}, {b}) is traversed twice in the same direction"
    return None


def segments_cross(p1, p2, p3, p4, tol) -> np.ndarray:
    """`geometry._segments_cross` with the bounding-box test run on every
    pair whenever any one pair has a point near the other's line."""
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
    e = tol[..., None]
    for d, a, b, p in ((d1, p3, p4, p1), (d2, p3, p4, p2), (d3, p1, p2, p3), (d4, p1, p2, p4)):
        near = np.abs(d) <= tol
        if near.any():
            in_box = (p >= np.minimum(a, b) - e) & (p <= np.maximum(a, b) + e)
            hit |= near & in_box.all(axis=-1)
    return hit


def polygon_fault(v):
    """Why `Polygon(v)` rejects the vertex array v, or None if it is valid."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2:
        return f"vertex array must have shape (n, 2), got {v.shape}"
    n = len(v)
    if n < 3:
        return f"polygon needs at least 3 vertices, got {n}"
    if not np.all(np.isfinite(v)):
        return "polygon has non-finite vertex coordinates"
    lengths = _edge_lengths(v)
    if np.any(lengths == 0.0):
        return f"duplicate consecutive vertices at position {int(np.argmin(lengths))}"
    diam = float(diameter(v))
    i, j = _nonadjacent_edge_pairs(n)
    hit = segments_cross(v[i], v[(i + 1) % n], v[j], v[(j + 1) % n], _AREA_EPS * diam)
    if hit.any():
        p = int(np.argmax(hit))
        return f"polygon is not simple: edges {i[p]} and {j[p]} intersect"
    area = float(_shoelace(v)[0])
    if abs(area) <= _AREA_EPS * diam * diam:
        return "polygon is degenerate (zero area)"
    if area < 0.0:
        return "polygon is clockwise; vertices must be counter-clockwise"
    return None


def qz_eigs(A, M, k: int) -> np.ndarray:
    """The k finite eigenvalues of smallest real part of the pencil (A, M),
    ascending by real part, then imaginary part; an eigenvalue counts as
    infinite when its |beta| is below 1e-8 of the largest."""
    dense = [X.toarray() if sp.issparse(X) else np.asarray(X, dtype=float) for X in (A, M)]
    alpha, beta = sla.eig(*dense, right=False, homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-8 * np.abs(beta).max()
    vals = alpha[finite] / beta[finite]
    return vals[np.lexsort((vals.imag, vals.real))][:k]
