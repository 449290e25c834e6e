"""Linear and generalized eigenvalue solvers.

The load problem is solved by a sparse LU factorization whose solution is
certified by its normwise backward error.  The spectral problem pairs the
(nonsymmetric) operator A + B with the projected mass matrix M, which is
rank deficient: each element contributes a rank-3 block, so M has a large
nullspace whose directions correspond to "infinite" eigenvalues of the
pencil.  Shift and invert maps the finite eigenvalues near the shift to
large values and the infinite ones to zero, so the Arnoldi iteration
naturally targets the former; anything that still lands near zero is
filtered out.  Every pencil takes this one path: small ones take every
shift-invert value densely instead of by Arnoldi, with the same filter,
and every pair is accepted on its componentwise backward error.  The
values of smallest real part need not be the ones nearest the shift; a
field-of-values bound on the convection form proves when they are (see
`solve_eigs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly import _Module, _tight
from .coefficients import CoefficientSet, _eval_scalar, _eval_vector, square_exact_eigenvalues

# all solver code reaches scipy through these module attributes, so a
# tracer can replace spla with a proxy of its own
sla = _Module("scipy.linalg")
sp = _Module("scipy.sparse")
spla = _Module("scipy.sparse.linalg")

__all__ = [
    "SolverError",
    "EigenResult",
    "backward_error",
    "solve_load",
    "solve_eigs",
    "suggested_shift",
]

# an eigenvalue nu of (A - sigma M)^-1 M, by Arnoldi or dense, with |nu| below
# this fraction of the largest is an infinite mode of the singular-M pencil
INFINITE_MODE_RTOL = 1e-8

# eigenpair acceptance: componentwise backward error <= BACKWARD_ERROR_BOUND.
# The worst pair accepted on th1-th7 and the split th2 meshes, seeds 0-7, reads
# 9.5e-9 (th2_split_at(16, 1e-8)); 1.0001 * lambda_1 reads 8e-8 on th2_split_at(32, t).
BACKWARD_ERROR_BOUND = 1e-8

# ARPACK's relative accuracy for the Ritz values: 4 orders below the 12
# digits the CSVs print and 6 below the 1 - 1e-6 margin of the
# field-of-values guard (`_nothing_missed`).  The default, machine
# precision, keeps restarting until the extra (k+1)-th value, which only
# the guard reads, has converged to the last bit.
ARNOLDI_TOL = 1e-12

# SuperLU's panel width and relaxed-supernode size for the shifted pencil:
# blocking parameters that size its working storage, not the pivot rule or
# the fill.  Against scipy's defaults they cut SuperLU's RSS growth at
# th7 N=132 from 38.2 to 30.3 MiB and its factor time from about 0.2 to
# 0.15 s.
SPLU_PANEL_SIZE = 4
SPLU_RELAX = 4

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
    backward_errors : ndarray, shape (k,)
        Componentwise backward error per pair,
        max_i |A x - lambda M x|_i / (|A| |x| + |lambda| |M| |x|)_i: the
        smallest relative change of the entries of A and M that makes the
        pair exact (see `_pair_errors` for rows where x is all round-off).
        Every pair is accepted on it.
    discarded_count : int
        Near-infinite modes filtered out: shift-invert values near zero.
    method : str
        "arnoldi", or "dense" for a pencil too small for ARPACK's request,
        whose shift-invert operator is solved densely.
    requested : int
        Ritz values ARPACK was asked for in the run whose values were
        accepted; 0 on the dense path.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    backward_errors: np.ndarray
    discarded_count: int
    method: str
    requested: int


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


def backward_error(
    K: sp.spmatrix, u: np.ndarray, F: np.ndarray, K_norm: Optional[float] = None
) -> float:
    """Rigal-Gaches normwise backward error of u as a solution of K u = F.

        eta = ||K u - F||_inf / (||K||_inf ||u||_inf + ||F||_inf)

    The smallest relative perturbation of K and F (in the infinity norm)
    for which u is an exact solution.  Partial-pivot LU keeps it of order
    n * eps however ill-conditioned K is, unlike the relative residual
    ||K u - F|| / ||F||, which grows with the condition number.  K_norm
    is ||K||_inf, when the caller has it already.
    """
    if K_norm is None:
        K_norm = spla.norm(K, np.inf)
    r = np.abs(K @ u - F).max(initial=0.0)
    scale = K_norm * np.abs(u).max(initial=0.0) + np.abs(F).max(initial=0.0)
    return float(r / max(scale, np.finfo(float).tiny))


def solve_load(K: sp.spmatrix, F: np.ndarray) -> np.ndarray:
    """Solve the load problem K u = F by sparse LU, certified by the
    normwise backward error.

    K is `GlobalSystem.K_load` (pass it in CSC to factor it without a
    copy), and F is ``system.F`` plus the Dirichlet lift's ``delta``.
    ||K||_inf is taken before the factors exist, since the norm copies K's
    entries; that copy, and whatever the caller freed before the call, go
    back to the OS (`_release_heap`) right before `splu`.
    Raises SolverError when the factorization fails, or when u is not
    finite or its backward error exceeds LOAD_BACKWARD_ERROR_FACTOR * n * eps.
    """
    K = sp.csc_matrix(K)
    F = np.asarray(F, dtype=float)
    if K.shape[0] != K.shape[1] or F.shape != (K.shape[0],):
        raise SolverError(f"incompatible system: K {K.shape}, F {F.shape}")
    K_norm = spla.norm(K, np.inf)
    _release_heap()
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
    eta = backward_error(K, u, F, K_norm) if np.isfinite(u).all() else float("inf")
    if not eta <= bound:
        raise SolverError(
            f"load solve backward error {eta:.3e} exceeds {bound:.1e}; "
            f"1-norm condition estimate {_condition_estimate(K, lu):.3e}"
        )
    return u


def _release_heap() -> None:
    """Return the allocator's free heap pages to the OS: glibc's
    ``malloc_trim(0)``.  Does nothing where glibc or the symbol is missing.

    Once earlier levels have freed their LU factors, glibc's mmap threshold
    has risen, so the assembly's temporaries, the |K| copy of the load
    norm and SuperLU's working storage land in the brk heap and stay
    resident after they are freed; the factors, and what Arnoldi
    allocates, then come from fresh pages on top of them.  `solve_load`
    calls it right before `splu`, `solve_eigs` before its shift loop and
    `_shifted_lu` right after each factorization.
    """
    import sys  # imported here, as ctypes: only this helper needs them

    if not sys.platform.startswith("linux"):
        return
    import ctypes

    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return
    trim(0)


def _as_csc(mat) -> sp.csc_matrix:
    if sp.issparse(mat):
        return mat.tocsc()
    return sp.csc_matrix(np.asarray(mat, dtype=float))


def _pair_errors(A, M, vals: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual ||A x - lambda M x||_2 / ||x||_2 and componentwise backward
    error of each pair (vals[j], vecs[:, j]) of the sparse pencil (A, M).

    A row whose stencil sees only entries of x below ARNOLDI_TOL ||x||_inf,
    which no solver resolves, is measured against its row sums times
    ||x||_inf as well (Arioli, Demmel and Duff, SIAM J. Matrix Anal. Appl.
    10(2), 1989): on a diagonal pencil, round-off in the zero entries of
    an exact eigenvector would otherwise read a backward error near 1.
    No row of the VEM pencils swept for BACKWARD_ERROR_BOUND is such a
    row.  Everything comes from products of each real operator with the
    real and imaginary parts of the vectors, not one complex product per
    pair.
    """
    k = len(vals)

    def apply(op, X):
        Y = op @ np.hstack((X.real, X.imag))
        return Y[:, :k] + 1j * Y[:, k:]

    R = np.abs(apply(A, vecs) - vals * apply(M, vecs))
    X = np.abs(vecs)
    absA, absM = abs(A), abs(M)
    scale = absA @ X + np.abs(vals) * (absM @ X)
    x_max = X.max(axis=0)
    if (X <= ARNOLDI_TOL * x_max).any():  # else every stencil sees a resolved entry
        stencil = absA + absM
        stencil.data[:] = 1.0
        ones = np.ones(len(X))
        rows = ((absA @ ones)[:, None] + np.abs(vals) * (absM @ ones)[:, None]) * x_max
        scale = np.where(stencil @ X <= ARNOLDI_TOL * x_max, scale + rows, scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        # an exact row reads 0; a NaN residual stays NaN, so no bound accepts it
        omega = np.where(R == 0.0, 0.0, R / scale).max(axis=0, initial=0.0)
    return np.linalg.norm(R, axis=0) / np.linalg.norm(vecs, axis=0), omega


def _eigen_result(
    A, M, vals, vecs, k: int, discarded: int, method: str, requested: int
) -> EigenResult:
    """The k finite pairs of smallest real part of the sparse pencil (A, M),
    accepted when every backward error is at most BACKWARD_ERROR_BOUND."""
    if len(vals) < k:
        raise SolverError(
            f"only {len(vals)} finite eigenvalues survived the infinite-mode "
            f"filter of {len(vals) + discarded}, {k} requested"
        )
    order = np.lexsort((vals.imag, vals.real))[:k]
    vals, vecs = vals[order], vecs[:, order]
    residuals, omega = _pair_errors(A, M, vals, vecs)
    if not (omega <= BACKWARD_ERROR_BOUND).all():
        worst = float((omega / BACKWARD_ERROR_BOUND).max())
        raise SolverError(
            f"{method} eigensolve did not converge: worst backward error exceeds the "
            f"acceptance bound by a factor {worst:.2e} "
            f"(backward errors: {np.array2string(omega, precision=3)})"
        )
    return EigenResult(vals, vecs, residuals, omega, discarded, method, requested)


def _arnoldi(op: spla.LinearOperator, m: int, v0: np.ndarray):
    """The m Ritz pairs of op of largest modulus; one retry with a larger
    subspace and iteration budget before giving up."""
    n = op.shape[0]
    try:
        return spla.eigs(op, k=m, which="LM", v0=v0, tol=ARNOLDI_TOL)
    except spla.ArpackNoConvergence:
        try:
            ncv = min(n, max(4 * m + 1, 64))
            return spla.eigs(
                op, k=m, which="LM", v0=v0, ncv=ncv, maxiter=50 * n, tol=ARNOLDI_TOL
            )
        except spla.ArpackNoConvergence as exc:
            got = np.asarray(exc.eigenvalues)
            raise SolverError(
                f"Arnoldi did not converge ({len(got)} of {m} Ritz values); "
                f"converged shift-invert values: {np.array2string(got, precision=5)}"
            ) from exc


def _shifted_lu(A, M, sigma: float):
    """SuperLU factors of A - sigma M.

    Each cell couples all its vertices, so the pattern of A - sigma M is
    symmetric: order for A + A^T, not for A^T A as COLAMD does.  The sum
    holds twice its nonzeros until _tight copies them out.  SuperLU's
    working storage, freed when it returns, goes back to the OS before
    anything reads the factors.
    """
    lu = spla.splu(
        _tight((A - sigma * M).tocsc()),
        permc_spec="MMD_AT_PLUS_A",
        panel_size=SPLU_PANEL_SIZE,
        relax=SPLU_RELAX,
    )
    _release_heap()
    return lu


def _nothing_missed(nu, keep, k: int, sigma: float, c: float) -> bool:
    """True when no eigenvalue outside sigma + 1/nu can have a real part at
    or below the k-th smallest among the finite ones (``keep``).

    Every eigenvalue lies in Re >= -c^2/4, |Im| <= g(Re) with
    g(r) = c (c + sqrt(c^2 + 4 r)) / 2, and every one not returned lies at
    distance >= 1/min|nu| from sigma.
    """
    if keep.sum() < k:
        return False
    r = np.sort((sigma + 1.0 / nu[keep]).real)[k - 1]
    g = 0.5 * c * (c + np.sqrt(max(c * c + 4.0 * r, 0.0)))
    reach = np.hypot(max(r - sigma, sigma + 0.25 * c * c), g)
    return bool(reach < (1.0 - 1e-6) / np.abs(nu).min())


def solve_eigs(
    A,
    M,
    k: int,
    shift: Optional[float] = None,
    seed: int = 0,
    field_bound: Optional[float] = None,
) -> EigenResult:
    """k smallest-real-part finite eigenvalues of (A, M) by shift-invert Arnoldi.

    A is the full operator of the spectral problem (diffusion + convection);
    M is the projected mass matrix, typically singular.  The shift should
    sit below the first eigenvalue; see `suggested_shift`.  When
    k + max(8, k) >= n - 1, more than ARPACK can be asked for, every
    eigenvalue of (A - sigma M)^-1 M is computed densely from the same
    factors instead ("dense", requested 0).  Either way the values near
    zero are discarded as infinite modes, and the pairs are accepted only
    when every backward error is at most BACKWARD_ERROR_BOUND.

    field_bound is a c with |x^H B x| <= c (x^H D x x^H M x)^1/2 for all
    x, where A = D + B and D is symmetric positive semidefinite.
    `GlobalSystem.field_bound` is one for the pencil (A + B, M), where D is
    the diffusion part A, and for (A + B + C, M) when gamma >= 0, where D
    is A + C.  Then s = x^H D x / x^H M x of an eigenpair gives
    Re lambda >= s - c sqrt(s) and |Im lambda| <= c sqrt(s), so every
    eigenvalue has Re lambda >= -c^2/4 and |Im lambda| <= g(Re lambda),
    g(r) = c (c + sqrt(c^2 + 4 r)) / 2.
    ARPACK is then asked for k + 1 Ritz values, which are accepted when
    this region, cut at the k-th smallest real part, lies strictly nearer
    the shift than every value not returned.  Otherwise, and always when
    field_bound is None, ARPACK is asked for k + max(8, k) values, with the
    same factors and start vector.  So is it when the k + 1 pairs fail the
    backward-error acceptance; their factors are freed by then, so A -
    sigma M is factored once more at the same shift.

    k > n raises SolverError before anything is factored.  The heap the
    caller freed goes back to the OS (`_release_heap`) before the shift
    loop, and SuperLU's working storage after each factorization.
    """
    A = _as_csc(A)
    M = _as_csc(M)
    n = A.shape[0]
    if M.shape != (n, n):
        raise SolverError(f"incompatible pencil: A {A.shape}, M {M.shape}")
    if k < 1:
        raise SolverError("k must be >= 1")
    if k > n:
        raise SolverError(f"k = {k} exceeds the pencil's order n = {n}")
    sigma = 1.0 if shift is None else float(shift)
    if not np.isfinite(sigma):
        raise SolverError(f"shift must be finite, got {sigma}")
    _release_heap()
    lu = None
    last_exc: Optional[Exception] = None
    for attempt in range(6):
        if attempt:
            sigma = sigma * 1.1 + 1.0
        try:
            lu = _shifted_lu(A, M, sigma)
            break
        except RuntimeError as exc:
            last_exc = exc
    if lu is None:
        raise SolverError(
            f"shifted factorization failed after 5 retries "
            f"(last shift {sigma:.6g}): {last_exc}"
        )

    k_pad = k + max(8, k)
    if k_pad >= n - 1:
        requests = (0,)
    else:
        requests = (k_pad,) if field_bound is None else (k + 1, k_pad)
    v0 = np.random.default_rng(seed).standard_normal(n)
    for m in requests:
        if lu is None:
            # the guarded pairs failed the acceptance after their factors
            # were freed; the same shift factors to the same LU
            lu = _shifted_lu(A, M, sigma)
        if m:
            nu, W = _arnoldi(spla.LinearOperator((n, n), matvec=lambda v: lu.solve(M @ v)), m, v0)
        else:
            nu, W = sla.eig(lu.solve(M.toarray()))
        keep = np.abs(nu) >= INFINITE_MODE_RTOL * np.abs(nu).max()
        if m == k + 1 and not _nothing_missed(nu, keep, k, sigma, field_bound):
            continue  # the padded request, on the same factors and start vector
        # the acceptance needs only the pencil and the pairs
        lu = None
        try:
            return _eigen_result(
                A, M, sigma + 1.0 / nu[keep], W[:, keep], k, int((~keep).sum()),
                "arnoldi" if m else "dense", m,
            )
        except SolverError:
            if m != k + 1:
                raise


def suggested_shift(domain_tag: str, coeffs: CoefficientSet) -> float:
    """Default shift-invert target for the named domain.

    On the unit square with (near-)constant coefficients, aim just below
    the first eigenvalue of the coefficients at the centre
    (`square_exact_eigenvalues`).  Other domains default to 1.0, safely
    below the spectra of interest.
    """
    if domain_tag == "unit_square":
        x = y = np.array([0.5])
        kappa = float(_eval_scalar(coeffs.kappa, x, y)[0])
        theta = [float(t[0]) for t in _eval_vector(coeffs.theta, x, y)]
        return float(0.9 * square_exact_eigenvalues(1, theta, kappa)[0])
    return 1.0
