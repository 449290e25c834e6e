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
from .geometry import (
    CellBatch,
    Point2,
    cell_quadrature,
    polygon_batch,
    polygon_quadrature,  # noqa: F401  perfbench/spans.py wraps this name
)

__all__ = [
    "LocalElement",
    "local_forms",
    "form_fault",
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


def local_forms(E, coeffs: CoefficientSet) -> LocalElement:
    """`local_forms_batch` of the polygon E alone, with its Pi and S.

    Raises
    ------
    ValueError
        If E is not a valid polygon (with the message of its fault), if
        kappa at its centroid is not strictly positive, or if an entry of
        the forms is not finite.
    """
    g = polygon_batch(E)
    forms = local_forms_batch(g, coeffs)
    if not forms.ok[0]:
        raise ValueError(form_fault(g, coeffs, 0))
    P = pi_nabla_batch(g)
    D = _scaled_monomials(g.vertices[..., 0], g.vertices[..., 1], g)
    local = (P, D @ P, _stab_batch(g), *forms[:5])
    return LocalElement(P.shape[2], *(m[0] for m in local))


def form_fault(g: CellBatch, coeffs: CoefficientSet, row: int) -> str:
    """Why the forms of the cell in row `row` of g are not usable
    (`FormBatch.ok` is False there), read from that row."""
    x, y = g.centroid[row : row + 1].T
    kappa = float(_eval_scalar(coeffs.kappa, x, y)[0])
    if not kappa > 0.0:
        centroid = Point2(float(x[0]), float(y[0]))
        return f"kappa must be strictly positive, got {kappa} at {centroid}"
    return "coefficient evaluation produced non-finite values"


def _eval_scalar(field, x, y) -> np.ndarray:
    return np.broadcast_to(np.asarray(field(x, y), dtype=float), np.shape(x))


def _eval_vector(field, x, y) -> tuple[np.ndarray, np.ndarray]:
    tx, ty = field(x, y)
    shape = np.shape(x)
    return (
        np.broadcast_to(np.asarray(tx, dtype=float), shape),
        np.broadcast_to(np.asarray(ty, dtype=float), shape),
    )


# --- batched forms ---------------------------------------------------------
#
# The local forms of a whole CellBatch at once; the tests compare them with
# an independent per-cell reference.  Every projected form is P^T Q P with a
# 3 x 3 moment matrix Q of the scaled monomials, so the quadrature enters
# only through those moments.


class FormBatch(NamedTuple):
    """Local matrices of a batch of cells, stacked along the first axis.

    Attributes
    ----------
    Ah, Bh, Ch, Mh : ndarray, shape (G, k, k)
    Fh : ndarray, shape (G, k)
    ok : ndarray of bool, shape (G,)
        kappa at the centroid is positive and every entry is finite.
        Assembly and `local_forms` reject a cell without it, with the
        reason `form_fault` words from the cell's batch row.
    field_ratio : ndarray, shape (G,)
        max |theta| over the cell's quadrature nodes / sqrt(kappa_E); 0
        where kappa_E is not positive.  With positive weights it bounds
        the convection form by the diffusion and mass forms:
        |Bh(w, v)| <= field_ratio (kappa_E |E| |grad Pi w|^2)^1/2 Mh(v, v)^1/2.
    """

    Ah: np.ndarray
    Bh: np.ndarray
    Ch: np.ndarray
    Mh: np.ndarray
    Fh: np.ndarray
    ok: np.ndarray
    field_ratio: np.ndarray


def pi_nabla_batch(g: CellBatch) -> np.ndarray:
    """Elliptic projector onto P1 of every cell of a batch, shape (G, 3, k).

    Maps vertex values to the coefficients in {1, (x-x_E)/h_E, (y-y_E)/h_E}.
    """
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
    """Boundary stabilization S of every cell of a batch, shape (G, k, k)."""
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
    """All local matrices and the load of every cell of a batch.

    Ah = kappa_E a(Pi w, Pi v) + ((I - D Pi) w)^T S ((I - D Pi) v), with
    kappa sampled at the centroid.  Convection, reaction, mass and load put
    Pi (the L2 projection on this element space) in both slots and are
    integrated by `cell_quadrature` of degree `QUAD_DEGREE`; Mh carries no
    stabilization.  The cells must be valid (``g.fault == 0``).  Coefficients are
    called once per batch, on arrays of shape (G,) for kappa and (G, m) at
    the quadrature nodes.
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
    theta_sq = (tx * tx + ty * ty).max(axis=1)
    field_ratio = np.sqrt(theta_sq / np.where(kappa > 0.0, kappa, np.inf))
    return FormBatch(Ah, Bh, Ch, Mh, Fh, ok, field_ratio)
