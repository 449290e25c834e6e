"""Linear and generalized eigenvalue solvers.

The load problem is solved by a sparse LU factorization whose solution is
certified by its normwise backward error.  The spectral problem pairs the
(nonsymmetric) operator A + B with the projected mass matrix M, which is
rank deficient: each element contributes a rank-3 block, so M has a large
nullspace whose directions correspond to "infinite" eigenvalues of the
pencil.  Shift and invert maps the finite eigenvalues near the shift to
large Ritz values and the infinite ones to zero, so the Arnoldi iteration
naturally targets the former; anything that still converges near zero is
filtered out.  A dense QZ path handles small pencils and doubles as a
cross-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import GlobalSystem
from .coefficients import CoefficientSet

__all__ = [
    "SolverError",
    "EigenResult",
    "backward_error",
    "solve_linear",
    "solve_load",
    "solve_eigs",
    "solve_eigs_dense",
    "solve_adjoint_eigs",
    "suggested_shift",
]

# |nu| below this fraction of the largest Ritz value counts as an infinite
# mode of the singular-M pencil (same threshold for dense QZ beta values)
INFINITE_MODE_RTOL = 1e-8

# eigenpair acceptance: ||A x - lambda M x|| <= RESIDUAL_RTOL * (||A||_1 + |lambda| ||M||_1) ||x||
RESIDUAL_RTOL = 1e-8

# load-solve acceptance: normwise backward error <= LOAD_BACKWARD_ERROR_FACTOR * n * eps
LOAD_BACKWARD_ERROR_FACTOR = 10.0


class SolverError(RuntimeError):
    """Raised when a factorization or iteration cannot deliver the contract."""


@dataclass(frozen=True)
class EigenResult:
    """Finite eigenpairs of the pencil (A, M), ascending by real part.

    Attributes
    ----------
    eigenvalues : complex ndarray, shape (k,)
    eigenvectors : complex ndarray, shape (n, k)
        Nodal DOF vectors, one column per eigenvalue.
    residuals : ndarray, shape (k,)
        ||A x - lambda M x||_2 / ||x||_2 per pair.
    discarded_count : int
        Near-infinite modes filtered out (Ritz values near zero in
        shift-invert coordinates, or QZ beta values near zero).
    method : str
        "arnoldi" or "dense".
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    discarded_count: int
    method: str


def _condition_estimate(K: sp.spmatrix, lu) -> float:
    """1-norm condition estimate of K from its LU factors; inf when unusable."""
    try:
        n = K.shape[0]
        inv_op = spla.LinearOperator(
            (n, n), matvec=lu.solve, rmatvec=lambda v: lu.solve(v, trans="T")
        )
        return float(spla.onenormest(inv_op) * spla.norm(K, 1))
    except Exception:
        return float("inf")


def backward_error(K: sp.spmatrix, u: np.ndarray, F: np.ndarray) -> float:
    """Rigal-Gaches normwise backward error of u as a solution of K u = F.

        eta = ||K u - F||_inf / (||K||_inf ||u||_inf + ||F||_inf)

    The smallest relative perturbation of K and F (in the infinity norm)
    for which u is an exact solution.  Partial-pivot LU keeps it of order
    n * eps however ill-conditioned K is, unlike the relative residual
    ||K u - F|| / ||F||, which grows with the condition number.
    """
    r = np.abs(K @ u - F).max(initial=0.0)
    scale = spla.norm(K, np.inf) * np.abs(u).max(initial=0.0) + np.abs(F).max(initial=0.0)
    return float(r / max(scale, np.finfo(float).tiny))


def solve_linear(K: sp.spmatrix, F: np.ndarray) -> np.ndarray:
    """Solve K u = F by sparse LU, certified by the normwise backward error.

    Raises SolverError when the factorization fails, or when u is not
    finite or its backward error exceeds LOAD_BACKWARD_ERROR_FACTOR * n * eps.
    """
    K = sp.csc_matrix(K)
    F = np.asarray(F, dtype=float)
    if K.shape[0] != K.shape[1] or F.shape != (K.shape[0],):
        raise SolverError(f"incompatible system: K {K.shape}, F {F.shape}")
    try:
        lu = spla.splu(K)
        u = lu.solve(F)
    except RuntimeError as exc:
        # K has no LU factors to estimate from: its condition is infinite
        raise SolverError(
            f"sparse factorization failed ({exc}); 1-norm condition estimate "
            f"inf — the mesh may be too coarse or the data inconsistent"
        ) from exc
    bound = LOAD_BACKWARD_ERROR_FACTOR * K.shape[0] * np.finfo(float).eps
    eta = backward_error(K, u, F) if np.isfinite(u).all() else float("inf")
    if not eta <= bound:
        raise SolverError(
            f"load solve backward error {eta:.3e} exceeds {bound:.1e}; "
            f"1-norm condition estimate {_condition_estimate(K, lu):.3e}"
        )
    return u


def solve_load(system: GlobalSystem, F: Optional[np.ndarray] = None) -> np.ndarray:
    """Solve the load problem (A + B + C) u = F on the interior DOFs.

    F defaults to the assembled volume load; pass ``system.F + delta`` to
    include Dirichlet lift contributions.
    """
    return solve_linear(system.K_load, system.F if F is None else F)


def _as_csc(mat) -> sp.csc_matrix:
    if sp.issparse(mat):
        return mat.tocsc()
    return sp.csc_matrix(np.asarray(mat, dtype=float))


def _eigen_result(A, M, vals, vecs, k: int, discarded: int, method: str) -> EigenResult:
    """The k finite pairs of smallest real part of the sparse pencil (A, M),
    accepted only if every residual meets the RESIDUAL_RTOL bound."""
    order = np.lexsort((vals.imag, vals.real))[:k]
    vals, vecs = vals[order], vecs[:, order]
    residuals = np.array(
        [np.linalg.norm(A @ x - lam * (M @ x)) / np.linalg.norm(x) for lam, x in zip(vals, vecs.T)]
    )
    bound = RESIDUAL_RTOL * (spla.norm(A, 1) + np.abs(vals) * spla.norm(M, 1))
    if (residuals > bound).any():
        worst = float((residuals / bound).max())
        raise SolverError(
            f"{method} eigensolve did not converge: worst residual exceeds the "
            f"acceptance bound by a factor {worst:.2e} "
            f"(residuals: {np.array2string(residuals, precision=3)})"
        )
    return EigenResult(vals, vecs, residuals, discarded, method)


def solve_eigs_dense(A, M, k: int) -> EigenResult:
    """Dense QZ solve of the pencil (A, M); the cross-check oracle path."""
    Ad = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
    Md = M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)
    n = Ad.shape[0]
    if Ad.shape != (n, n) or Md.shape != (n, n):
        raise SolverError(f"incompatible pencil: A {Ad.shape}, M {Md.shape}")
    w, vr = sla.eig(Ad, Md, homogeneous_eigvals=True)
    alpha, beta = w
    finite = np.abs(beta) > INFINITE_MODE_RTOL * np.abs(beta).max()
    discarded = int(n - finite.sum())
    if finite.sum() < k:
        raise SolverError(
            f"pencil has only {int(finite.sum())} finite eigenvalues, {k} requested"
        )
    vals = alpha[finite] / beta[finite]
    return _eigen_result(
        sp.csr_matrix(Ad), sp.csr_matrix(Md), vals, vr[:, finite], k, discarded, "dense"
    )


def solve_eigs(
    A,
    M,
    k: int,
    shift: Optional[float] = None,
    seed: int = 0,
) -> EigenResult:
    """k smallest-real-part finite eigenvalues of (A, M) by shift-invert Arnoldi.

    A is the full operator of the spectral problem (diffusion + convection);
    M is the projected mass matrix, typically singular.  The shift should
    sit below the first eigenvalue; see `suggested_shift`.  Small pencils
    fall through to the dense QZ path.
    """
    A = _as_csc(A)
    M = _as_csc(M)
    n = A.shape[0]
    if M.shape != (n, n):
        raise SolverError(f"incompatible pencil: A {A.shape}, M {M.shape}")
    if k < 1:
        raise SolverError("k must be >= 1")
    sigma = 1.0 if shift is None else float(shift)
    k_arn = k + max(8, k)
    if k_arn >= n - 1:
        return solve_eigs_dense(A, M, k)

    lu = None
    last_exc: Optional[Exception] = None
    for _ in range(6):
        try:
            # each cell couples all its vertices, so the pattern of A - sigma M
            # is symmetric: order for A + A^T, not for A^T A as COLAMD does
            lu = spla.splu((A - sigma * M).tocsc(), permc_spec="MMD_AT_PLUS_A")
            break
        except RuntimeError as exc:
            last_exc = exc
            sigma = sigma * 1.1 + 1.0
    if lu is None:
        raise SolverError(
            f"shifted factorization failed after 5 retries "
            f"(last shift {sigma:.6g}): {last_exc}"
        )

    op = spla.LinearOperator((n, n), matvec=lambda v: lu.solve(M @ v))
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    try:
        nu, W = spla.eigs(op, k=k_arn, which="LM", v0=v0)
    except spla.ArpackNoConvergence as exc:
        try:
            ncv = min(n, max(4 * k_arn + 1, 64))
            nu, W = spla.eigs(op, k=k_arn, which="LM", v0=v0, ncv=ncv, maxiter=50 * n)
        except spla.ArpackNoConvergence as exc2:
            got = np.asarray(exc2.eigenvalues)
            raise SolverError(
                f"Arnoldi did not converge ({len(got)} of {k_arn} Ritz values); "
                f"converged shift-invert values: {np.array2string(got, precision=5)}"
            ) from exc2

    keep = np.abs(nu) >= INFINITE_MODE_RTOL * np.abs(nu).max()
    discarded = int((~keep).sum())
    if keep.sum() < k:
        raise SolverError(
            f"only {int(keep.sum())} finite Ritz values survived the "
            f"infinite-mode filter of {k_arn}, {k} requested"
        )
    return _eigen_result(A, M, sigma + 1.0 / nu[keep], W[:, keep], k, discarded, "arnoldi")


def solve_adjoint_eigs(
    A,
    M,
    k: int,
    shift: Optional[float] = None,
    seed: int = 0,
) -> EigenResult:
    """Eigenpairs of the adjoint problem: the pencil (A^T, M^T).

    The adjoint spectrum is the conjugate of the primal one; for real
    matrices the two coincide as multisets.
    """
    return solve_eigs(_as_csc(A).T, _as_csc(M).T, k, shift=shift, seed=seed)


def suggested_shift(domain_tag: str, coeffs: CoefficientSet) -> float:
    """Default shift-invert target for the named domain.

    On the unit square with (near-)constant coefficients the first
    eigenvalue is |theta|^2/(4 kappa) + 2 kappa pi^2; aim just below it.
    Other domains default to 1.0, safely below the spectra of interest.
    """
    if domain_tag == "unit_square":
        x = y = np.array([0.5])
        kappa = float(np.asarray(coeffs.kappa(x, y)).ravel()[0])
        tx, ty = coeffs.theta(x, y)
        tsq = float(np.asarray(tx).ravel()[0]) ** 2 + float(np.asarray(ty).ravel()[0]) ** 2
        return 0.9 * (tsq / (4.0 * kappa) + 2.0 * kappa * np.pi**2)
    return 1.0
