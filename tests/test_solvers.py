"""Solver tests.

Oracles: hand-solvable pencils, the dense QZ path against the Arnoldi
path, conjugate gradients against the LU path on symmetric systems, the
transpose-spectrum identity for the adjoint problem, and the known closed
form for the unit-square convection-diffusion spectrum.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from polyvem.assembly import apply_dirichlet_lift, assemble
from polyvem.coefficients import (
    CASES,
    CoefficientSet,
    constant,
    constant_vector,
    square_exact_eigenvalues,
)
from polyvem.mesh import gen_rotated_T, gen_square_th1, gen_square_th2
from polyvem import solvers
from polyvem.solvers import (
    EigenResult,
    SolverError,
    backward_error,
    solve_adjoint_eigs,
    solve_eigs,
    solve_eigs_dense,
    solve_linear,
    solve_load,
    suggested_shift,
)

LAPLACE = CoefficientSet(constant(1.0), constant_vector(0.0, 0.0), constant(0.0))


def eigen_pencil(N):
    """(A + B, M, n) for the unit-square spectral problem on th2(N)."""
    mesh = gen_square_th2(N)
    system = assemble(mesh, CASES["eigen_square"].coeffs)
    return (system.A + system.B).tocsc(), system.M.tocsc(), system


class TestSolveLinear:
    def test_one_by_one(self):
        u = solve_linear(sp.csr_matrix(np.array([[2.0]])), np.array([4.0]))
        assert u == pytest.approx([2.0])

    def test_residual_contract_on_load_problem(self):
        mesh = gen_square_th1(16)
        system = assemble(mesh, CASES["test1"].coeffs)
        u = solve_load(system)
        K = system.K_load
        resid = np.linalg.norm(K @ u - system.F) / np.linalg.norm(system.F)
        assert resid <= 1e-10

    @staticmethod
    def laplacian_1d(n):
        """K = tridiag(-1, 2, -1) and F = K u for a smooth u: ||F|| << ||K|| ||u||."""
        K = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csc")
        x = np.arange(1, n + 1) / (n + 1)
        return K, K @ np.sin(np.pi * x)

    def test_accepts_correct_solve_with_large_relative_residual(self):
        # cond(K) ~ n^2: the relative residual of the LU solution exceeds
        # 1e-10, a bound that does not scale with cond(K); the normwise
        # backward error, which LU keeps small, is a few eps
        K, F = self.laplacian_1d(8000)
        u = solve_linear(K, F)
        assert np.linalg.norm(K @ u - F) / np.linalg.norm(F) > 1e-10
        assert backward_error(K, u, F) <= 10 * np.finfo(float).eps

    def test_rejects_perturbed_solution(self, monkeypatch):
        K, F = self.laplacian_1d(8000)
        rng = np.random.default_rng(0)
        splu = solvers.spla.splu

        class PerturbedLU:
            def __init__(self, A):
                self.lu = splu(A)

            def solve(self, b, trans="N"):
                u = self.lu.solve(b, trans=trans)
                return u + 1e-8 * np.abs(u).max() * rng.standard_normal(len(u))

        monkeypatch.setattr(solvers.spla, "splu", PerturbedLU)
        with pytest.raises(SolverError, match="backward error"):
            solve_linear(K, F)

    def test_singular_matrix_reports_condition(self):
        K = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SolverError, match="condition estimate"):
            solve_linear(K, np.array([1.0, 2.0]))

    def test_failed_factorization_is_not_repeated(self, monkeypatch):
        # a matrix splu cannot factor has no factors to estimate from
        calls, splu = [], spla.splu

        def counting_splu(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(solvers.spla, "splu", counting_splu)
        K = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SolverError, match="condition estimate inf — "):
            solve_linear(K, np.array([1.0, 2.0]))
        assert len(calls) == 1

    def test_shape_mismatch(self):
        with pytest.raises(SolverError, match="incompatible"):
            solve_linear(sp.eye(3, format="csr"), np.ones(2))

    def test_matches_conjugate_gradient_on_symmetric_case(self):
        # two-solver agreement on the symmetric subcase theta=0, gamma=0
        mesh = gen_square_th2(8)
        system = assemble(
            mesh,
            CoefficientSet(
                kappa=constant(1.0),
                theta=constant_vector(0.0, 0.0),
                gamma=constant(0.0),
                f=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
            ),
        )
        u_lu = solve_load(system)
        u_cg, info = spla.cg(system.A, system.F, rtol=1e-14, atol=0.0, maxiter=5000)
        assert info == 0
        assert np.abs(u_lu - u_cg).max() <= 1e-9 * max(np.abs(u_lu).max(), 1.0)

    def test_patch_solution_through_solver(self):
        mesh = gen_square_th1(4)
        coeffs = CoefficientSet(
            kappa=constant(1.0),
            theta=lambda x, y: (np.asarray(x, float), np.asarray(y, float)),
            gamma=constant(1.0),
            f=lambda x, y: 1.0 + 4.0 * np.asarray(x) + 6.0 * np.asarray(y),
        )
        system = assemble(mesh, coeffs)
        delta, _ = apply_dirichlet_lift(
            system, mesh, lambda x, y: 1.0 + 2.0 * x + 3.0 * y
        )
        u = solve_load(system, system.F + delta)
        xy = mesh.vertices[system.dof.interior_vertices]
        assert np.abs(u - (1.0 + 2.0 * xy[:, 0] + 3.0 * xy[:, 1])).max() <= 1e-10


class TestEigsSmallPencils:
    def test_diag_identity(self):
        A = sp.diags([1.0, 2.0, 3.0]).tocsc()
        M = sp.eye(3, format="csc")
        res = solve_eigs(A, M, k=2, shift=0.0)
        assert res.method == "dense"  # too small for Arnoldi, falls through
        assert np.allclose(res.eigenvalues, [1.0, 2.0], atol=1e-12)
        assert res.discarded_count == 0

    def test_singular_mass_discards_infinite_mode(self):
        A = sp.diags([1.0, 2.0]).tocsc()
        M = sp.diags([1.0, 0.0]).tocsc()
        res = solve_eigs(A, M, k=1, shift=0.5)
        assert np.allclose(res.eigenvalues, [1.0], atol=1e-12)
        assert res.discarded_count == 1

    def test_requesting_more_than_finite_count_fails(self):
        A = sp.diags([1.0, 2.0]).tocsc()
        M = sp.diags([1.0, 0.0]).tocsc()
        with pytest.raises(SolverError, match="finite"):
            solve_eigs(A, M, k=2, shift=0.5)

    def test_arnoldi_on_diagonal_pencil(self):
        n = 60
        A = sp.diags(np.arange(1.0, n + 1)).tocsc()
        M = sp.eye(n, format="csc")
        res = solve_eigs(A, M, k=5, shift=0.0)
        assert res.method == "arnoldi"
        assert np.allclose(res.eigenvalues, np.arange(1.0, 6.0), atol=1e-9)
        assert (res.residuals <= 1e-9 * n).all()

    def test_sorted_ascending_real_part(self):
        rng = np.random.default_rng(5)
        A = sp.csc_matrix(rng.standard_normal((40, 40)))
        M = sp.eye(40, format="csc")
        res = solve_eigs_dense(A, M, k=10)
        assert (np.diff(res.eigenvalues.real) >= -1e-14).all()


class TestEigsVem:
    def test_arnoldi_matches_dense_qz(self):
        A, M, _ = eigen_pencil(8)
        shift = suggested_shift("unit_square", CASES["eigen_square"].coeffs)
        res_a = solve_eigs(A, M, k=6, shift=shift)
        res_d = solve_eigs_dense(A, M, k=6)
        assert res_a.method == "arnoldi"
        ref = np.sort(res_d.eigenvalues.real)
        got = np.sort(res_a.eigenvalues.real)
        assert np.abs(got - ref).max() <= 1e-7 * np.abs(ref).max()

    def test_residual_invariant(self):
        A, M, _ = eigen_pencil(8)
        res = solve_eigs(A, M, k=6, shift=17.0)
        nA = spla.norm(A, 1)
        nM = spla.norm(M, 1)
        for lam, r in zip(res.eigenvalues, res.residuals):
            assert r <= 1e-8 * (nA + abs(lam) * nM)

    def test_first_eigenvalue_near_exact(self):
        # closed form on the unit square: lambda_1 = |theta|^2/4 + 2 pi^2
        A, M, _ = eigen_pencil(16)
        exact = square_exact_eigenvalues(1)[0]
        res = solve_eigs(A, M, k=1, shift=0.9 * exact)
        lam1 = res.eigenvalues[0]
        assert abs(lam1.imag) <= 1e-8 * abs(lam1.real)
        # O(h^2) discretization error at this resolution; the tight check
        # runs on the fine mesh in the acceptance suite
        assert lam1.real == pytest.approx(exact, rel=2e-2)

    def test_adjoint_spectrum_is_conjugate_multiset(self):
        A, M, _ = eigen_pencil(16)
        shift = suggested_shift("unit_square", CASES["eigen_square"].coeffs)
        primal = solve_eigs(A, M, k=6, shift=shift)
        adjoint = solve_adjoint_eigs(A, M, k=6, shift=shift)
        p = np.sort_complex(primal.eigenvalues)
        a = np.sort_complex(np.conj(adjoint.eigenvalues))
        assert np.abs(p - a).max() <= 1e-8 * np.abs(p).max()

    def test_symmetric_case_adjoint_equals_primal(self):
        mesh = gen_square_th2(8)
        system = assemble(mesh, LAPLACE)
        A, M = system.A.tocsc(), system.M.tocsc()
        primal = solve_eigs(A, M, k=3, shift=15.0, seed=1)
        adjoint = solve_adjoint_eigs(A, M, k=3, shift=15.0, seed=2)
        assert np.abs(primal.eigenvalues - adjoint.eigenvalues).max() <= 1e-7 * np.abs(
            primal.eigenvalues
        ).max()
        for j in range(3):
            x = primal.eigenvectors[:, j]
            y = adjoint.eigenvectors[:, j]
            cos = abs(np.vdot(x, y)) / (np.linalg.norm(x) * np.linalg.norm(y))
            assert cos == pytest.approx(1.0, abs=1e-6)

    def test_convective_tilt_of_primal_and_adjoint_modes(self):
        # theta = (1, 0): the primal ground mode carries a factor
        # exp(+theta.x/2kappa) (mass shifted downstream), the adjoint mode
        # the opposite factor; compare |u|-weighted centroids
        A, M, system = eigen_pencil(16)
        shift = suggested_shift("unit_square", CASES["eigen_square"].coeffs)
        primal = solve_eigs(A, M, k=1, shift=shift)
        adjoint = solve_adjoint_eigs(A, M, k=1, shift=shift)
        mesh = gen_square_th2(16)
        x_coord = mesh.vertices[system.dof.interior_vertices, 0]
        w_p = np.abs(primal.eigenvectors[:, 0])
        w_a = np.abs(adjoint.eigenvectors[:, 0])
        cen_p = float(w_p @ x_coord / w_p.sum())
        cen_a = float(w_a @ x_coord / w_a.sum())
        assert cen_p > 0.5 + 0.01
        assert cen_a < 0.5 - 0.01
        assert cen_p - 0.5 == pytest.approx(0.5 - cen_a, abs=0.01)


class TestPencilFactorization:
    """The LU of the shifted pencil A - sigma M inside solve_eigs."""

    def test_failed_factorization_moves_the_shift(self, monkeypatch):
        A, M, _ = eigen_pencil(8)
        shift = suggested_shift("unit_square", CASES["eigen_square"].coeffs)
        reference = solve_eigs(A, M, k=6, shift=shift)
        splu = solvers.spla.splu
        seen = []

        def fail_once(K, **kwargs):
            seen.append(K)
            if len(seen) == 1:
                raise RuntimeError("Factor is exactly singular")
            return splu(K, **kwargs)

        monkeypatch.setattr(solvers.spla, "splu", fail_once)
        res = solve_eigs(A, M, k=6, shift=shift)
        assert len(seen) == 2
        assert abs(seen[0] - (A - shift * M)).max() == 0.0
        assert abs(seen[1] - (A - (1.1 * shift + 1.0) * M)).max() == 0.0
        ref = reference.eigenvalues
        assert np.abs(res.eigenvalues - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_fill_below_default_ordering(self, monkeypatch):
        # the pencil's pattern is symmetric; an ordering for A + A^T must
        # fill less than SuperLU's default COLAMD, which orders for A^T A
        mesh = gen_rotated_T("th7", 28)
        system = assemble(mesh, CASES["eigen_T"].coeffs)
        splu = solvers.spla.splu
        factored = []

        def spy(K, **kwargs):
            lu = splu(K, **kwargs)
            factored.append((K, lu))
            return lu

        monkeypatch.setattr(solvers.spla, "splu", spy)
        solve_eigs((system.A + system.B).tocsc(), system.M, k=6, shift=1.0)
        assert len(factored) == 1
        K, lu = factored[0]
        fill = (lu.L.nnz + lu.U.nnz) / K.nnz
        default = splu(K)
        assert fill < (default.L.nnz + default.U.nnz) / K.nnz


class TestSuggestedShift:
    def test_unit_square_value(self):
        shift = suggested_shift("unit_square", CASES["eigen_square"].coeffs)
        assert shift == pytest.approx(0.9 * (0.25 + 2.0 * np.pi**2), rel=1e-12)
        assert shift < square_exact_eigenvalues(1)[0]

    def test_other_domains_default(self):
        assert suggested_shift("rotated_T", CASES["eigen_T"].coeffs) == 1.0
