"""Per-element machinery of the lowest-order virtual element method.

The local space on a polygon E has one degree of freedom per vertex.  The
elliptic projector Pi onto P1(E) is computable from vertex values alone:
its gradient equations reduce to boundary integrals of the (piecewise
linear) trace, evaluated edge-wise by the trapezoid rule, which is exact;
the remaining constant is fixed by matching the boundary average.  The
element space is the "enhanced" one on which the L2 projector onto P1
coincides with Pi, so all local forms below are assembled from Pi plus a
boundary stabilization.

The stabilization is the scaled tangential-derivative form

    S(w, v) = h_E * integral over the boundary of  dw/ds dv/ds,

which for piecewise linear traces is exactly h_E times the cycle-graph
Laplacian with edge weights 1/|e|.  Short edges get large weights; this is
what keeps the method robust when edges are arbitrarily small relative to
the diameter.  The diffusion coefficient does not scale this term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coefficients import CoefficientSet
from .geometry import CellBatch, Point2, _as_polygon, cell_quadrature, polygon_quadrature

__all__ = [
    "LocalElement",
    "pi_nabla",
    "stab_matrix",
    "local_forms",
    "FormBatch",
    "pi_nabla_batch",
    "local_forms_batch",
]

QUAD_DEGREE = 4


@dataclass(frozen=True)
class LocalElement:
    """Local matrices of one polygonal element.

    Attributes
    ----------
    n_dof : int
        Number of vertices / degrees of freedom.
    PiNabla : ndarray, shape (3, n)
        DOF vector -> coefficients of the projected polynomial in the scaled
        monomial basis {1, (x-x_E)/h_E, (y-y_E)/h_E}.
    PiNablaDof : ndarray, shape (n, n)
        DOF vector -> vertex values of the projected polynomial.
    S : ndarray, shape (n, n)
        Boundary stabilization matrix.
    Ah, Bh, Ch, Mh : ndarray, shape (n, n)
        Diffusion (stabilized), convection, reaction, and mass matrices;
        entry [i, j] is the form evaluated on (trial phi_j, test phi_i).
    Fh : ndarray, shape (n,)
        Local load vector.
    h_E, area : float
    centroid : Point2
    """

    n_dof: int
    PiNabla: np.ndarray
    PiNablaDof: np.ndarray
    S: np.ndarray
    Ah: np.ndarray
    Bh: np.ndarray
    Ch: np.ndarray
    Mh: np.ndarray
    Fh: np.ndarray
    h_E: float
    area: float
    centroid: Point2


def pi_nabla(E) -> np.ndarray:
    """Elliptic projector onto P1 in the scaled monomial basis.

    Returns the 3 x n matrix mapping vertex values to the coefficients
    (c0, c1, c2) of the projection in {1, (x-x_E)/h_E, (y-y_E)/h_E}.

    The gradient rows come from integrating the projector's defining
    equations by parts: the normal flux of each basis monomial is constant
    per edge and the trace is linear, so the trapezoid rule on each edge is
    exact.  The constant row matches the boundary averages.

    Raises
    ------
    ValueError
        On a degenerate (zero-area) element.
    """
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
    """Tangential-derivative boundary stabilization matrix.

    S = h_E * L with L the cycle-graph Laplacian weighted by 1/|e|:
    S_ii = h_E (1/|e_{i-1}| + 1/|e_i|), S_{i,i+1} = S_{i+1,i} = -h_E/|e_i|.
    Symmetric positive semidefinite with constants in the kernel.
    """
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


def _eval_scalar(field, x, y) -> np.ndarray:
    return np.broadcast_to(np.asarray(field(x, y), dtype=float), np.shape(x))


def _eval_vector(field, x, y) -> tuple[np.ndarray, np.ndarray]:
    tx, ty = field(x, y)
    shape = np.shape(x)
    return (
        np.broadcast_to(np.asarray(tx, dtype=float), shape),
        np.broadcast_to(np.asarray(ty, dtype=float), shape),
    )


def local_forms(E, coeffs: CoefficientSet) -> LocalElement:
    """All local matrices and the load for one element.

    The diffusion matrix is the projected consistency term plus the
    stabilization acting on the projection remainder:

        Ah = kappa_E a(Pi w, Pi v) + ((I - D Pi) w)^T S ((I - D Pi) v).

    Convection, reaction, mass, and load use the L2 projection (equal to Pi
    on this element space) in both slots and are integrated by quadrature
    of degree `QUAD_DEGREE`, as in the batched path; the mass matrix
    carries no stabilization and has rank at most 3.

    Parameters
    ----------
    E : Polygon or array_like
    coeffs : CoefficientSet
        kappa is sampled at the centroid (piecewise-constant model).

    Raises
    ------
    ValueError
        If kappa at the centroid is not strictly positive.
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
    pi_dof = D @ P
    S = stab_matrix(p)
    remainder = np.eye(n) - pi_dof
    consistency = (area / (h * h)) * (np.outer(P[1], P[1]) + np.outer(P[2], P[2]))
    Ah = kappa_e * consistency + remainder.T @ S @ remainder

    xq, yq, wq = polygon_quadrature(p, QUAD_DEGREE)
    monomials = np.column_stack([np.ones_like(xq), (xq - xc) / h, (yq - yc) / h])
    V = monomials @ P  # values of Pi phi_j at the quadrature points
    gx = P[1] / h
    gy = P[2] / h

    tx, ty = _eval_vector(coeffs.theta, xq, yq)
    Bh = V.T @ ((wq * tx)[:, None] * gx[None, :] + (wq * ty)[:, None] * gy[None, :])

    gq = _eval_scalar(coeffs.gamma, xq, yq)
    Ch = V.T @ ((wq * gq)[:, None] * V)
    Mh = V.T @ (wq[:, None] * V)

    if coeffs.f is not None:
        fq = _eval_scalar(coeffs.f, xq, yq)
        Fh = V.T @ (wq * fq)
    else:
        Fh = np.zeros(n)

    return LocalElement(
        n_dof=n,
        PiNabla=P,
        PiNablaDof=pi_dof,
        S=S,
        Ah=Ah,
        Bh=Bh,
        Ch=Ch,
        Mh=Mh,
        Fh=Fh,
        h_E=h,
        area=area,
        centroid=p.centroid,
    )


# --- batched forms ---------------------------------------------------------
#
# The functions below compute the same quantities as `pi_nabla`,
# `stab_matrix` and `local_forms` for a whole CellBatch at once; the
# per-cell functions above stay the reference they are tested against.
# Every projected form is P^T Q P with a 3 x 3 moment matrix Q of the
# scaled monomials, so the quadrature enters only through those moments.


class FormBatch(NamedTuple):
    """Local matrices of a batch of cells, stacked along the first axis.

    Attributes
    ----------
    Ah, Bh, Ch, Mh : ndarray, shape (G, k, k)
    Fh : ndarray, shape (G, k)
    ok : ndarray of bool, shape (G,)
        kappa at the centroid is positive and every entry is finite.
        Assembly rejects a cell without it, with the error `local_forms`
        raises on that cell.
    """

    Ah: np.ndarray
    Bh: np.ndarray
    Ch: np.ndarray
    Mh: np.ndarray
    Fh: np.ndarray
    ok: np.ndarray


def pi_nabla_batch(g: CellBatch) -> np.ndarray:
    """`pi_nabla` of every cell of a batch, shape (G, 3, k)."""
    x, y = g.vertices[..., 0], g.vertices[..., 1]
    h = g.diameter[:, None]
    scale = h / g.area[:, None]
    c1 = 0.5 * (np.roll(y, -1, axis=1) - np.roll(y, 1, axis=1)) * scale
    c2 = -0.5 * (np.roll(x, -1, axis=1) - np.roll(x, 1, axis=1)) * scale
    lengths = g.edge_lengths
    t = 0.5 * (lengths + np.roll(lengths, 1, axis=1))
    per = lengths.sum(axis=1, keepdims=True)
    a1 = (t * (x - g.centroid[:, :1]) / h).sum(axis=1, keepdims=True) / per
    a2 = (t * (y - g.centroid[:, 1:]) / h).sum(axis=1, keepdims=True) / per
    c0 = t / per - a1 * c1 - a2 * c2
    return np.stack([c0, c1, c2], axis=1)


def _scaled_monomials(x, y, g: CellBatch) -> np.ndarray:
    """{1, (x-x_E)/h_E, (y-y_E)/h_E} at points (G, m) of each cell: (G, m, 3)."""
    h = g.diameter[:, None]
    return np.stack(
        [np.ones_like(x), (x - g.centroid[:, :1]) / h, (y - g.centroid[:, 1:]) / h], axis=-1
    )


def _stab_batch(g: CellBatch) -> np.ndarray:
    """`stab_matrix` of every cell of a batch, shape (G, k, k)."""
    w = g.diameter[:, None] / g.edge_lengths
    G, k = w.shape
    i = np.arange(k)
    nxt = np.roll(i, -1)
    S = np.zeros((G, k, k))
    S[:, i, i] = w + np.roll(w, 1, axis=1)
    S[:, i, nxt] = -w
    S[:, nxt, i] = -w
    return S


def local_forms_batch(g: CellBatch, coeffs: CoefficientSet) -> FormBatch:
    """`local_forms` (default quadrature degree) for every cell of a batch.

    The cells must have ``g.valid``; the quadrature is `cell_quadrature`.
    Coefficients are called once per batch, on arrays of shape (G,) for
    kappa and (G, m) at the quadrature nodes.
    """
    h, area = g.diameter, g.area
    kappa = _eval_scalar(coeffs.kappa, g.centroid[:, 0], g.centroid[:, 1])
    P = pi_nabla_batch(g)
    PT = P.transpose(0, 2, 1)
    k = P.shape[2]

    remainder = np.eye(k) - _scaled_monomials(g.vertices[..., 0], g.vertices[..., 1], g) @ P
    consistency = (area / (h * h))[:, None, None] * (PT[:, :, 1:] @ P[:, 1:, :])
    stabilization = remainder.transpose(0, 2, 1) @ _stab_batch(g) @ remainder
    Ah = kappa[:, None, None] * consistency + stabilization

    xq, yq, wq = cell_quadrature(g, QUAD_DEGREE)
    mono = _scaled_monomials(xq, yq, g)
    mono_w = (mono * wq[..., None]).transpose(0, 2, 1)  # (G, 3, m)

    def moments(values):
        """Integrals of values (G, m) against each scaled monomial: (G, 3)."""
        return (mono_w @ values[..., None])[..., 0]

    tx, ty = _eval_vector(coeffs.theta, xq, yq)
    Bq = np.zeros((len(h), 3, 3))
    Bq[:, :, 1] = moments(tx) / h[:, None]
    Bq[:, :, 2] = moments(ty) / h[:, None]
    Bh = PT @ Bq @ P
    Ch = PT @ ((mono_w * _eval_scalar(coeffs.gamma, xq, yq)[:, None, :]) @ mono) @ P
    Mh = PT @ (mono_w @ mono) @ P
    if coeffs.f is not None:
        Fh = (PT @ moments(_eval_scalar(coeffs.f, xq, yq))[..., None])[..., 0]
    else:
        Fh = np.zeros((len(h), k))

    ok = kappa > 0.0
    for m in (Ah, Bh, Ch, Mh):
        ok &= np.isfinite(m).all(axis=(1, 2))
    ok &= np.isfinite(Fh).all(axis=1)
    return FormBatch(Ah, Bh, Ch, Mh, Fh, ok)
