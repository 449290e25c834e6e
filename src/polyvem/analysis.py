"""Error norms, convergence-rate fitting, and eigenvalue post-processing.

The virtual solution is only known through its vertex values, so errors
are measured against the computable projections: the L2 error uses the
cellwise P1 projection of u_h, the H1 seminorm its (constant per cell)
gradient.  Rates come from a log-log least-squares fit; the non-convex
benchmark has no closed-form spectrum, so its columns are extrapolated
with a three-parameter power-law fit instead.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .coefficients import _eval_scalar, _eval_vector
from .geometry import cell_quadrature
from .geometry import polygon_quadrature  # noqa: F401  perfbench/spans.py wraps this name
from .mesh import PolyMesh
from .vem_core import _scaled_monomials, pi_nabla_batch

__all__ = [
    "exact_moments",
    "finish_error_norms",
    "error_norms",
    "error_l2",
    "error_h1_semi",
    "triple_seminorm_interp",
    "fit_rate",
    "extrapolate",
    "is_complex",
    "ConvergenceEntry",
    "ColumnFit",
    "ConvergenceRecord",
]

ERROR_QUAD_DEGREE = 6
# cells per chunk of `exact_moments`: its (cells x nodes) temporaries stay
# small, so a thread running it leaves no large freed blocks behind
MOMENT_CHUNK = 32
# columns of a cell's moments: c (3), E2, r (3); with the gradient also
# gbar (2), H2, rho (2)
L2_MOMENTS, H1_MOMENTS = 7, 12


def exact_moments(
    mesh: PolyMesh, u_exact: Callable, grad_u_exact: Optional[Callable] = None
) -> np.ndarray:
    """All the error norms need of the exact solution: a row per valid cell.

    With the degree-6 nodes (x, y), weights w and scaled monomials m of a
    cell, its row holds the cell's P1 L2 projection c = G^-1 sum w u m
    (G = sum w m m^T), E2 = sum w e^2 and r = sum w e m for e = u - c.m
    and, when grad_u is given, gbar = sum w grad u / sum w,
    H2 = sum w |grad u - gbar|^2 and rho = sum w (grad u - gbar).  Rows
    follow `MeshGeometry.batches`.  No u_h is read, so the pass can run
    while u_h is being solved for; it fills the rows MOMENT_CHUNK cells at
    a time.
    """
    cells = mesh.n_cells - len(mesh.geometry.invalid)
    out = np.empty((cells, L2_MOMENTS if grad_u_exact is None else H1_MOMENTS))
    row = 0
    for batch in mesh.geometry.batches():
        for start in range(0, len(batch.cells), MOMENT_CHUNK):
            g = batch.take(slice(start, start + MOMENT_CHUNK))
            x, y, w = cell_quadrature(g, ERROR_QUAD_DEGREE)
            m = _scaled_monomials(x, y, g)
            mwT = np.swapaxes(m * w[..., None], 1, 2)  # (G, 3, q)
            u = _eval_scalar(u_exact, x, y)
            c = np.linalg.solve(mwT @ m, mwT @ u[..., None])[..., 0]
            e = u - (m @ c[..., None])[..., 0]
            rows = out[row : row + len(g.cells)]
            rows[:, :3] = c
            rows[:, 3] = (w * e * e).sum(axis=1)
            rows[:, 4:7] = (mwT @ e[..., None])[..., 0]
            if grad_u_exact is not None:
                grad = np.stack(_eval_vector(grad_u_exact, x, y))  # (2, G, q)
                gbar = (grad * w).sum(axis=2) / w.sum(axis=1)
                dev = grad - gbar[..., None]
                rows[:, 7:9] = gbar.T
                rows[:, 9] = (w * (dev * dev).sum(axis=0)).sum(axis=1)
                rows[:, 10:12] = (dev * w).sum(axis=2).T
            row += len(g.cells)
    return out


def finish_error_norms(
    mesh: PolyMesh, moments: np.ndarray, u_h: np.ndarray
) -> tuple[float, Optional[float]]:
    """(|| u - Pi u_h ||_{L2}, | u - Pi u_h |_{H1}) from the `exact_moments` of u.

    With s = Pi u_h in the scaled monomials, d = c - s and a = (s_1, s_2)/h_E,
    a cell contributes E2 + 2 d.r + d^T G d and H2 + 2 (gbar - a).rho
    + |gbar - a|^2 |E|.  Both are exact expansions of the sums over the
    nodes, and every term is small, so nothing cancels.  d^T G d is the
    integral of (d.m)^2, taken exactly from the values of d.m at the
    vertices and the centroid over the centroid fan, whose signed
    triangles sum to the cell whether or not the cell is star-shaped.  The
    H1 seminorm is None when the moments hold no gradient.
    """
    u_h = np.asarray(u_h, dtype=float)
    if u_h.shape != (len(mesh.vertices),):
        raise ValueError(f"u_h has shape {u_h.shape}, expected ({len(mesh.vertices)},)")
    gradient = moments.shape[1] == H1_MOMENTS
    l2 = h1 = 0.0
    row = 0
    for g in mesh.geometry.batches():
        rows = moments[row : row + len(g.cells)]
        row += len(g.cells)
        s = (pi_nabla_batch(g) @ u_h[g.ids][..., None])[..., 0]  # Pi u_h, scaled monomials
        d = rows[:, :3] - s
        v = g.vertices - g.centroid[:, None, :]
        vn = np.roll(v, -1, axis=1)
        fan = 0.5 * (v[..., 0] * vn[..., 1] - v[..., 1] * vn[..., 0])  # signed triangle areas
        p = d[:, :1] + (d[:, 1:2] * v[..., 0] + d[:, 2:] * v[..., 1]) / g.diameter[:, None]
        pn, pc = np.roll(p, -1, axis=1), d[:, :1]  # d.m at the next vertex and the centroid
        dGd = (fan * (p * p + pn * pn + pc * pc + p * pn + pc * (p + pn))).sum(axis=1) / 6.0
        l2 += float((rows[:, 3] + 2.0 * (d * rows[:, 4:7]).sum(axis=1) + dGd).sum())
        if gradient:
            dg = rows[:, 7:9] - s[:, 1:] / g.diameter[:, None]
            cross = 2.0 * (dg * rows[:, 10:12]).sum(axis=1)
            h1 += float((rows[:, 9] + cross + (dg * dg).sum(axis=1) * g.area).sum())
    l2, h1 = np.sqrt(np.maximum([l2, h1], 0.0)).tolist()
    return l2, h1 if gradient else None


def error_norms(
    mesh: PolyMesh, u_h: np.ndarray, u_exact: Callable, grad_u_exact: Optional[Callable] = None
) -> tuple[float, Optional[float]]:
    """(|| u - Pi u_h ||_{L2}, | u - Pi u_h |_{H1}): `exact_moments`, then
    `finish_error_norms`.

    u_h is given at all vertices; the projected gradient is constant per
    cell.  The H1 seminorm is None when no exact gradient is given.
    """
    return finish_error_norms(mesh, exact_moments(mesh, u_exact, grad_u_exact), u_h)


def error_l2(mesh: PolyMesh, u_h: np.ndarray, u_exact: Callable) -> float:
    """|| u - Pi u_h ||_{L2} with u_h given at all vertices."""
    return error_norms(mesh, u_h, u_exact)[0]


def error_h1_semi(mesh: PolyMesh, u_h: np.ndarray, grad_u_exact: Callable) -> float:
    """| u - Pi u_h |_{H1}; the projected gradient is constant per cell."""
    return error_norms(mesh, u_h, lambda x, y: 0.0, grad_u_exact)[1]


def triple_seminorm_interp(
    mesh: PolyMesh, A, u_h: np.ndarray, u_exact: Callable
) -> float:
    """Discrete energy distance between u_h and the interpolant of u.

    The continuous triple seminorm needs boundary derivatives of the exact
    solution; the computable stand-in replaces u by its vertex interpolant
    u_I and evaluates the discrete form sum_E a_h^E(d, d), d = u_I - u_h,
    which includes the stabilization term.  A load solve writes u's own
    values at the boundary vertices, so d vanishes there and the sum is
    d_I^T A d_I over the interior vertices, with A the interior diffusion
    matrix `assemble` returns.  Raises ValueError naming the first
    boundary vertex where u_h differs from u.
    """
    u_h = np.asarray(u_h, dtype=float)
    u_i = _eval_scalar(u_exact, mesh.vertices[:, 0], mesh.vertices[:, 1])
    if u_h.shape != u_i.shape:
        raise ValueError(
            f"u_h has shape {u_h.shape}, expected {u_i.shape}"
        )
    off = np.flatnonzero(mesh.boundary_vertex & (u_h != u_i))
    if len(off):
        raise ValueError(f"u_h differs from u at boundary vertex {off[0]}")
    d = (u_i - u_h)[~mesh.boundary_vertex]
    total = float(d @ (A @ d))
    return float(np.sqrt(max(total, 0.0)))


def fit_rate(hs: Sequence[float], errs: Sequence[float]) -> float:
    """Least-squares slope of log(err) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if hs.shape != errs.shape or hs.ndim != 1 or len(hs) < 3:
        raise ValueError("need at least 3 (h, err) pairs of equal length")
    if (hs <= 0).any() or (errs <= 0).any():
        raise ValueError("h and err values must be positive for a log-log fit")
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def extrapolate(hs: Sequence[float], vals: Sequence[float]) -> tuple[float, float]:
    """Fit vals ~ limit + C * h^order; returns (limit, order).

    Levenberg-Marquardt (`scipy.optimize.least_squares`, method "lm") with
    the analytic Jacobian, started from limit = the finest value, order 2
    and C through the two coarsest points.  Raises ValueError on fewer than
    3 points, a non-positive h or a non-finite value.  When the fit fails
    the limit falls back to the finest value, with order NaN and a
    RuntimeWarning.
    """
    from scipy.optimize import least_squares  # imported here: keeps start-up fast

    hs = np.asarray(hs, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if hs.shape != vals.shape or hs.ndim != 1 or len(hs) < 3:
        raise ValueError("need at least 3 (h, value) pairs of equal length")
    if not (hs > 0).all():
        raise ValueError("h values must be positive")
    if not np.isfinite(vals).all():
        raise ValueError("values must be finite")

    def residual(params):
        lam, c, t = params
        return lam + c * hs**t - vals

    def jacobian(params):
        _, c, t = params
        ht = hs**t
        return np.column_stack([np.ones_like(hs), ht, c * ht * np.log(hs)])

    denom = hs[0] ** 2 - hs[1] ** 2
    c = float((vals[0] - vals[1]) / denom) if denom != 0 else 1.0
    # tolerances near round-off: the 1e-8 defaults stop ~2e-9 short of the
    # optimum on a four-level eigenvalue column
    tol = 1e-14
    fit = least_squares(
        residual, [vals[-1], c, 2.0], jac=jacobian, method="lm", xtol=tol, ftol=tol, gtol=tol
    )
    lam, _, t = fit.x
    if not (fit.success and np.isfinite(lam) and np.isfinite(t)):
        warnings.warn(
            "power-law extrapolation failed; falling back to the finest value",
            RuntimeWarning,
        )
        return float(vals[-1]), float("nan")
    return float(lam), float(t)


def is_complex(lam: complex) -> bool:
    """Whether lam's imaginary part exceeds 1e-6 of its modulus."""
    return bool(abs(lam.imag) > 1e-6 * max(abs(lam), 1e-300))


@dataclass(frozen=True)
class ConvergenceEntry:
    N: int
    h: float
    dof_count: int
    values: dict


class ColumnFit(NamedTuple):
    """Footer of one study column: its order, or why it has none, and its limit."""

    order: Optional[float]
    undefined: str  # why there is no order; "" when there is one
    limit: Optional[float]  # the exact value or the extrapolated limit


@dataclass
class ConvergenceRecord:
    """Mesh-refinement study: one entry per level, finest last.

    Values are named columns (errors or eigenvalues).  Footer helpers fit
    orders per column and, where no exact reference exists, extrapolate
    the limit.
    """

    entries: list = field(default_factory=list)

    def add_entry(self, N: int, h: float, dof_count: int, values: dict) -> None:
        if self.entries:
            if h >= self.entries[-1].h:
                raise ValueError("h must be strictly decreasing across entries")
            if list(values.keys()) != self.names:
                raise ValueError(
                    f"value names {list(values.keys())} do not match {self.names}"
                )
        self.entries.append(
            ConvergenceEntry(int(N), float(h), int(dof_count), dict(values))
        )

    @property
    def names(self) -> list:
        return list(self.entries[0].values.keys()) if self.entries else []

    def column(self, name: str) -> np.ndarray:
        return np.array([e.values[name] for e in self.entries], dtype=float)

    @property
    def hs(self) -> np.ndarray:
        return np.array([e.h for e in self.entries])

    def fitted_order(self, name: str, reference: Optional[float] = None) -> float:
        """Slope of the column (as |value - reference| if a reference is given)."""
        col = self.column(name)
        if reference is not None:
            col = np.abs(col - reference)
        return fit_rate(self.hs, col)

    def extrapolated(self, name: str) -> tuple[float, float]:
        return extrapolate(self.hs, self.column(name))

    def column_fits(self, exact: Optional[dict] = None, extrap: bool = False) -> dict:
        """Order and limit of each column, fitted once for the footer and the printout.

        The order is the log-log slope of |value - exact| for a column with
        an exact reference, the fitted power-law exponent when extrapolating,
        and the raw log-log slope otherwise (error columns).  A column with a
        zero or non-finite entry has no order.  Empty below 3 levels.
        """
        if len(self.entries) < 3:
            return {}
        fits = {}
        for n in self.names:
            ref = (exact or {}).get(n)
            try:
                if ref is not None:
                    fits[n] = ColumnFit(self.fitted_order(n, ref), "", ref)
                elif extrap:
                    limit, order = self.extrapolated(n)
                    fits[n] = ColumnFit(order, "", limit)
                else:
                    fits[n] = ColumnFit(self.fitted_order(n), "", None)
            except ValueError as exc:
                fits[n] = ColumnFit(None, str(exc), ref)
        return fits

    def check_monotone_from_above(self, reference: dict) -> list:
        """Columns observed to approach their reference from above.

        Returns the offending column names and warns; never raises (the
        nonsymmetric pencil carries no monotonicity theorem).
        """
        bad = []
        for name, ref in reference.items():
            col = self.column(name)
            above = (col >= ref - 1e-12 * max(abs(ref), 1.0)).all()
            decreasing = (np.diff(col) <= 1e-12 * np.abs(col[:-1])).all()
            if not (above and decreasing):
                bad.append(name)
        if bad:
            warnings.warn(
                f"columns not monotone from above: {', '.join(bad)}",
                RuntimeWarning,
            )
        return bad

    def write_csv(
        self,
        path: Union[str, Path],
        exact: Optional[dict] = None,
        extrap: bool = False,
        header_comment: Optional[str] = None,
        fits: Optional[dict] = None,
    ) -> Path:
        """One row per level plus footer rows: order, then exact or extrap.

        The footer comes from `fits`, which is ``column_fits(exact, extrap)``
        and computed here unless given; an undefined order or limit is an
        empty cell.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with open(path, "w", newline="") as fh:
            if header_comment:
                for line in header_comment.splitlines():
                    fh.write(f"# {line}\n")
            writer = csv.writer(fh)
            writer.writerow(["N", "h", "dof_count"] + names)
            for e in self.entries:
                writer.writerow(
                    [e.N, f"{e.h:.12g}", e.dof_count]
                    + [f"{e.values[n]:.12g}" for n in names]
                )
            fits = self.column_fits(exact, extrap) if fits is None else fits
            footer = []
            if len(self.entries) >= 3:
                footer.append(("order", [fits[n].order for n in names], ".4f"))
            if exact:
                footer.append(("exact", [exact.get(n) for n in names], ".12g"))
            elif extrap and fits:
                footer.append(("extrap", [fits[n].limit for n in names], ".12g"))
            for label, values, fmt in footer:
                writer.writerow(
                    [label, "", ""] + ["" if v is None else format(v, fmt) for v in values]
                )
        return path
