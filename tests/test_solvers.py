"""Solver tests.

Oracles: hand-solvable pencils, QZ (`reference.qz_eigs`) against both
shift-invert branches, Arnoldi and dense, conjugate gradients against the
LU path on symmetric systems, the transpose-spectrum identity for the
adjoint problem, the known closed form for the unit-square
convection-diffusion spectrum, and the quadratic forms themselves for the
field-of-values bound behind the Arnoldi request.
"""

import weakref

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
from polyvem.mesh import gen_rotated_T, gen_square_th1, gen_square_th2, split_edges
from polyvem import solvers
from polyvem.solvers import (
    EigenResult,
    SolverError,
    backward_error,
    solve_eigs,
    solve_load,
    suggested_shift,
)

from reference import qz_eigs
from test_mesh_checks import th2_split_at, th2_unsplit

LAPLACE = CoefficientSet(constant(1.0), constant_vector(0.0, 0.0), constant(0.0))


def eigen_pencil(N):
    """(A + B, M, n) for the unit-square spectral problem on th2(N)."""
    mesh = gen_square_th2(N)
    system = assemble(mesh, CASES["eigen_square"].coeffs)
    return (system.A + system.B).tocsc(), system.M.tocsc(), system


class TestSolveLinear:
    """`solve_load`: the sparse LU of K, certified by the normwise
    backward error."""

    def test_one_by_one(self):
        u = solve_load(sp.csr_matrix(np.array([[2.0]])), np.array([4.0]))
        assert u == pytest.approx([2.0])

    def test_residual_contract_on_load_problem(self):
        mesh = gen_square_th1(16)
        system = assemble(mesh, CASES["test1"].coeffs)
        K = system.K_load
        u = solve_load(K, system.F)
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
        u = solve_load(K, F)
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
            solve_load(K, F)

    def test_singular_matrix_reports_condition(self):
        K = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SolverError, match="condition estimate"):
            solve_load(K, np.array([1.0, 2.0]))

    def test_failed_factorization_is_not_repeated(self, monkeypatch):
        # a matrix splu cannot factor has no factors to estimate from
        calls, splu = [], spla.splu

        def counting_splu(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(solvers.spla, "splu", counting_splu)
        K = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SolverError, match="condition estimate inf — "):
            solve_load(K, np.array([1.0, 2.0]))
        assert len(calls) == 1

    def test_shape_mismatch(self):
        with pytest.raises(SolverError, match="incompatible"):
            solve_load(sp.eye(3, format="csr"), np.ones(2))

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
        u_lu = solve_load(system.K_load, system.F)
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
        u = solve_load(system.K_load, system.F + delta)
        xy = mesh.vertices[system.dof.interior_vertices]
        assert np.abs(u - (1.0 + 2.0 * xy[:, 0] + 3.0 * xy[:, 1])).max() <= 1e-10


class TestEigsSmallPencils:
    """Pencils too small for ARPACK's request: every eigenvalue of
    (A - sigma M)^-1 M, densely, from the same factors, filter and
    acceptance as Arnoldi."""

    def test_diag_identity(self):
        A = sp.diags([1.0, 2.0, 3.0]).tocsc()
        M = sp.eye(3, format="csc")
        res = solve_eigs(A, M, k=2, shift=0.0)
        assert res.method == "dense"  # too small for Arnoldi
        assert res.requested == 0
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

    def test_count_up_to_the_order_is_taken_and_above_it_refused(self, monkeypatch):
        A = sp.diags([1.0, 2.0, 3.0]).tocsc()
        M = sp.eye(3, format="csc")
        assert np.allclose(solve_eigs(A, M, k=3, shift=0.0).eigenvalues, [1.0, 2.0, 3.0])
        calls = []
        monkeypatch.setattr(solvers.spla, "splu", lambda *a, **kw: calls.append(a))
        with pytest.raises(SolverError, match="k = 4 exceeds the pencil's order n = 3"):
            solve_eigs(A, M, k=4, shift=0.0)
        assert calls == []

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
        res = solve_eigs(A, M, k=10)
        assert res.method == "arnoldi"
        for vals in (res.eigenvalues, qz_eigs(A, M, 10)):
            assert (np.diff(vals.real) >= -1e-14).all()

    def test_random_pencil_matches_qz(self):
        # the dense path has every eigenvalue, so its k of smallest real
        # part are QZ's, wherever the shift sits
        rng = np.random.default_rng(5)
        A = sp.csc_matrix(rng.standard_normal((12, 12)))
        M = sp.eye(12, format="csc")
        res = solve_eigs(A, M, k=4)
        ref = qz_eigs(A, M, 4)
        assert res.method == "dense"
        assert np.abs(res.eigenvalues - ref).max() <= 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("t", [1e-9, 1e-10])
    def test_split_mesh_pair_passes_the_backward_error(self, t):
        # QZ's pairs here read omega 1.1e-7 (t = 1e-9) and 5.1e-6 (1e-10)
        coeffs = CASES["eigen_square"].coeffs
        system = assemble(th2_split_at(2, t), coeffs)
        A = (system.A + system.B).tocsc()
        shift = suggested_shift("unit_square", coeffs)
        res = solve_eigs(A, system.M, k=1, shift=shift, field_bound=system.field_bound)
        assert (res.method, res.requested) == ("dense", 0)
        assert res.backward_errors[0] <= solvers.BACKWARD_ERROR_BOUND

    def test_split_mesh_second_value_is_not_resolved(self):
        # lambda_2 ~ 9.6e7 = 3e6 lambda_1: shift and invert at 0.9 lambda_1
        # leaves it with omega 1.4e-6, which the acceptance refuses
        coeffs = CASES["eigen_square"].coeffs
        system = assemble(th2_split_at(2, 1e-6), coeffs)
        A = (system.A + system.B).tocsc()
        shift = suggested_shift("unit_square", coeffs)
        with pytest.raises(SolverError, match="backward error exceeds"):
            solve_eigs(A, system.M, k=2, shift=shift, field_bound=system.field_bound)

    def test_singular_shift_moves(self, monkeypatch):
        # A - 1.0 M = diag(0, 1, 2) cannot be factored; the shift moves to 2.1
        splu, calls = solvers.spla.splu, []

        def spy(K, **kwargs):
            try:
                lu = splu(K, **kwargs)
            except RuntimeError:
                calls.append("raised")
                raise
            calls.append("factored")
            return lu

        monkeypatch.setattr(solvers.spla, "splu", spy)
        res = solve_eigs(sp.diags([1.0, 2.0, 3.0]), sp.eye(3), k=2, shift=1.0)
        assert calls == ["raised", "factored"]
        assert res.method == "dense"
        np.testing.assert_allclose(res.eigenvalues, [1.0, 2.0], rtol=1e-12)

    def test_shift_retries_are_exhausted(self, monkeypatch):
        # with M = 0 every shift leaves A - sigma M = A, which is singular;
        # the message names the last shift tried, not the one after it
        A = sp.diags([1.0, 2.0, 0.0, 3.0]).tocsc()
        M = sp.csc_matrix((4, 4))
        shifted_lu, shifts = solvers._shifted_lu, []

        def spy(A, M, sigma):
            shifts.append(sigma)
            return shifted_lu(A, M, sigma)

        monkeypatch.setattr(solvers, "_shifted_lu", spy)
        message = (
            "shifted factorization failed after 5 retries "
            "(last shift 7.71561): Factor is exactly singular"
        )
        with pytest.raises(SolverError) as exc:
            solve_eigs(A, M, k=1, shift=1.0)
        assert str(exc.value) == message
        np.testing.assert_allclose(shifts, [1.0, 2.1, 3.31, 4.641, 6.1051, 7.71561], rtol=1e-12)


class TestEigsVem:
    def test_arnoldi_matches_dense_qz(self):
        A, M, _ = eigen_pencil(8)
        shift = suggested_shift("unit_square", CASES["eigen_square"].coeffs)
        res_a = solve_eigs(A, M, k=6, shift=shift)
        assert res_a.method == "arnoldi"
        ref = np.sort(qz_eigs(A, M, 6).real)
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
        adjoint = solve_eigs(A.T, M.T, k=6, shift=shift)
        p = np.sort_complex(primal.eigenvalues)
        a = np.sort_complex(np.conj(adjoint.eigenvalues))
        assert np.abs(p - a).max() <= 1e-8 * np.abs(p).max()

    def test_symmetric_case_adjoint_equals_primal(self):
        mesh = gen_square_th2(8)
        system = assemble(mesh, LAPLACE)
        A, M = system.A.tocsc(), system.M.tocsc()
        primal = solve_eigs(A, M, k=3, shift=15.0, seed=1)
        adjoint = solve_eigs(A.T, M.T, k=3, shift=15.0, seed=2)
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
        adjoint = solve_eigs(A.T, M.T, k=1, shift=shift)
        mesh = gen_square_th2(16)
        x_coord = mesh.vertices[system.dof.interior_vertices, 0]
        w_p = np.abs(primal.eigenvectors[:, 0])
        w_a = np.abs(adjoint.eigenvectors[:, 0])
        cen_p = float(w_p @ x_coord / w_p.sum())
        cen_a = float(w_a @ x_coord / w_a.sum())
        assert cen_p > 0.5 + 0.01
        assert cen_a < 0.5 - 0.01
        assert cen_p - 0.5 == pytest.approx(0.5 - cen_a, abs=0.01)


class TestBackwardError:
    """`EigenResult.backward_errors`, the componentwise backward error
    max_i |A x - lambda M x|_i / (|A| |x| + |lambda| |M| |x|)_i, does not
    grow with the edge ratio as the normwise acceptance bound does."""

    def test_rejects_a_one_percent_wrong_eigenvalue_on_a_split_mesh(self):
        mesh = th2_split_at(32, 1e-10)
        coeffs = CASES["eigen_square"].coeffs
        system = assemble(mesh, coeffs)
        A, M = (system.A + system.B).tocsc(), system.M.tocsc()
        res = solve_eigs(A, M, k=1, shift=suggested_shift("unit_square", coeffs))
        assert res.backward_errors.shape == (1,)
        assert res.backward_errors[0] <= 1e-12
        wrong = 1.01 * res.eigenvalues
        residuals, omega = solvers._pair_errors(A, M, wrong, res.eigenvectors)
        assert omega[0] >= 1e-6
        # a normwise bound, ~1e3 here, accepts the wrong value
        bound = 1e-8 * (spla.norm(A, 1) + abs(wrong[0]) * spla.norm(M, 1))
        assert residuals[0] <= bound

    def test_arnoldi_acceptance_rejects_a_one_percent_wrong_eigenvalue(self):
        mesh = th2_split_at(32, 1e-10)
        coeffs = CASES["eigen_square"].coeffs
        system = assemble(mesh, coeffs)
        A, M = (system.A + system.B).tocsc(), system.M.tocsc()
        res = solve_eigs(A, M, k=1, shift=suggested_shift("unit_square", coeffs))
        assert res.method == "arnoldi"
        with pytest.raises(SolverError, match="worst backward error exceeds"):
            solvers._eigen_result(A, M, 1.01 * res.eigenvalues, res.eigenvectors, 1, 0, "arnoldi", 1)

    @pytest.mark.parametrize("t", [1e-6, 1e-10])
    def test_rejects_a_one_percent_wrong_eigenvalue_with_tiny_edges_off_the_boundary(self, t):
        # every tiny edge has two interior end points, so the rows next to
        # the boundary see no 1/t weights; those rows read 1.6e-5 for
        # 1.01 lambda_1, the computed pair 6e-16
        base = th2_unsplit(16)
        mesh = split_edges(base, np.where(base.boundary_vertex[base.topology.edges].any(axis=1), 0.5, t))
        coeffs = CASES["eigen_square"].coeffs
        system = assemble(mesh, coeffs)
        A, M = (system.A + system.B).tocsc(), system.M.tocsc()
        res = solve_eigs(A, M, k=1, shift=suggested_shift("unit_square", coeffs))
        assert res.backward_errors[0] <= solvers.BACKWARD_ERROR_BOUND
        _, omega = solvers._pair_errors(A, M, 1.01 * res.eigenvalues, res.eigenvectors)
        assert omega[0] >= 100 * solvers.BACKWARD_ERROR_BOUND

    def test_rows_that_see_only_round_off_of_x_read_their_row_norm(self):
        # e_1 of a diagonal pencil, with round-off in its zero entries: no
        # relative change of A's entries removes that residual, but it is
        # 1e-20 of the row norms times ||x||
        n = 40
        A = sp.diags(np.arange(1.0, n + 1)).tocsc()
        M = sp.eye(n, format="csc")
        x = np.zeros((n, 1), dtype=complex)
        x[0, 0], x[1:, 0] = 1.0, 1e-20
        _, omega = solvers._pair_errors(A, M, np.array([1.0 + 0j]), x)
        assert omega[0] <= 1e-19
        # an entry of x above ARNOLDI_TOL is measured componentwise
        x[1:, 0] = 1e-9
        _, omega = solvers._pair_errors(A, M, np.array([1.0 + 0j]), x)
        assert omega[0] >= 0.3

    def test_dense_path_reports_it(self):
        A, M, _ = eigen_pencil(2)
        res = solve_eigs(A, M, k=6, shift=17.0)
        assert res.method == "dense"
        assert res.backward_errors.shape == (6,)
        assert (res.backward_errors <= 1e-10).all()

    def test_residuals_match_a_complex_product_per_pair(self):
        A, M, _ = eigen_pencil(8)
        res = solve_eigs(A, M, k=6, shift=17.0)
        for lam, x, r in zip(res.eigenvalues, res.eigenvectors.T, res.residuals):
            assert r == pytest.approx(np.linalg.norm(A @ x - lam * (M @ x)) / np.linalg.norm(x), rel=1e-12)


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

    def test_factors_a_matrix_that_holds_just_its_nonzeros(self, monkeypatch):
        A, M, _ = eigen_pencil(16)
        # the sum leaves its entries in views of buffers of nnz(A) + nnz(M) slots
        shifted = A - 17.0 * M
        assert shifted.data.base.size == A.nnz + M.nnz > shifted.nnz
        splu, factored = solvers.spla.splu, []

        def spy(K, **kwargs):
            factored.append([(arr.base, arr.size, K.nnz) for arr in (K.data, K.indices)])
            return splu(K, **kwargs)

        monkeypatch.setattr(solvers.spla, "splu", spy)
        solve_eigs(A, M, k=6, shift=17.0)
        assert factored == [[(None, shifted.nnz, shifted.nnz)] * 2]

    def test_factors_are_freed_before_the_residual_check(self, monkeypatch):
        refs, alive, factored, events = [], [], [], []
        splu, pair_errors = solvers.spla.splu, solvers._pair_errors

        class Factors:
            """Holds the only reference to the SuperLU object, which takes
            no weak references itself."""

            def __init__(self, lu):
                self.solve = lu.solve

        def spy_splu(K, **kwargs):
            factors = Factors(splu(K, **kwargs))
            refs.append(weakref.ref(factors))
            factored.append(K)
            events.append("splu")
            return factors

        def spy_pair_errors(*args):
            alive.append([ref() is not None for ref in refs])
            return pair_errors(*args)

        monkeypatch.setattr(solvers.spla, "splu", spy_splu)
        monkeypatch.setattr(solvers, "_pair_errors", spy_pair_errors)
        monkeypatch.setattr(solvers, "_release_heap", lambda: events.append("release"))
        A, M, _ = eigen_pencil(16)
        res = solve_eigs(A, M, k=6, shift=17.0)
        assert alive == [[False]]
        assert res.method == "arnoldi"
        assert events == ["release", "splu", "release"]

        # with seed 1 the guarded pairs fail the acceptance here, and the
        # padded request factors the same A - sigma M once more
        for seen in (refs, alive, factored, events):
            seen.clear()
        coeffs = CASES["eigen_square"].coeffs
        system = assemble(th2_split_at(8, 1e-9), coeffs)
        A, M = (system.A + system.B).tocsc(), system.M.tocsc()
        shift = suggested_shift("unit_square", coeffs)
        res = solve_eigs(A, M, k=6, shift=shift, seed=1, field_bound=system.field_bound)
        assert res.requested == 14
        assert alive == [[False], [False, False]]
        assert len(factored) == 2 and abs(factored[0] - factored[1]).max() == 0.0
        # each factorization hands SuperLU's working storage back
        assert events == ["release", "splu", "release", "splu", "release"]

    @pytest.mark.parametrize(
        "pencil, rtol",
        [
            (lambda: (gen_rotated_T("th7", 28), "eigen_T"), 1e-12),
            (lambda: (gen_square_th2(16), "eigen_square"), 1e-12),
            # +-1-ulp changes to A's entries move these eigenvalues by
            # 5e-7 to 2.2e-6 relative; the blocking moves them by 7.2e-8
            (lambda: (th2_split_at(8, 1e-9), "eigen_square"), 1e-6),
        ],
        ids=["th7-28-eigen_T", "th2-16-eigen_square", "th2_split_at-8-1e-9"],
    )
    def test_blocking_constants_leave_the_eigenpairs(self, pencil, rtol, monkeypatch):
        # SPLU_PANEL_SIZE and SPLU_RELAX size SuperLU's working storage;
        # they change neither the pivot rule nor the fill, so the eigenpairs
        # match those factored with scipy's default blocking to round-off
        mesh, name = pencil()
        coeffs = CASES[name].coeffs
        system = assemble(mesh, coeffs)
        A, M = (system.A + system.B).tocsc(), system.M.tocsc()

        def solve():
            shift = suggested_shift(mesh.domain_tag, coeffs)
            return solve_eigs(A, M, k=6, shift=shift, field_bound=system.field_bound)

        tuned = solve()
        splu = solvers.spla.splu

        def default_blocking(K, panel_size, relax, **kwargs):
            assert (panel_size, relax) == (solvers.SPLU_PANEL_SIZE, solvers.SPLU_RELAX)
            return splu(K, **kwargs)

        monkeypatch.setattr(solvers.spla, "splu", default_blocking)
        default = solve()
        assert tuned.method == default.method == "arnoldi"
        np.testing.assert_allclose(tuned.eigenvalues, default.eigenvalues, rtol=rtol, atol=0)
        assert tuned.requested == default.requested
        assert tuned.discarded_count == default.discarded_count

    @pytest.mark.parametrize("shift", [np.nan, np.inf, -np.inf])
    def test_non_finite_shift_is_refused_before_factoring(self, shift, monkeypatch):
        # A - nan M cannot be factored; the retries used to run six splu
        # calls and end in "failed after 5 retries (last shift nan)"
        A, M, _ = eigen_pencil(8)
        calls = []
        monkeypatch.setattr(solvers.spla, "splu", lambda *a, **kw: calls.append(a))
        with pytest.raises(SolverError, match="shift must be finite"):
            solve_eigs(A, M, k=6, shift=shift)
        assert calls == []


def rotating(a):
    """theta = a (-(y - 1/2), x - 1/2): divergence free, |theta| up to a / sqrt(2)."""
    return CoefficientSet(
        constant(1.0),
        lambda x, y: (-a * (np.asarray(y) - 0.5), a * (np.asarray(x) - 0.5)),
        constant(0.0),
        domain="unit_square",
    )


# kappa varies: the bound takes |theta| / sqrt(kappa) cell by cell
VARIABLE_KAPPA = CoefficientSet(
    lambda x, y: 0.25 + 3.0 * np.asarray(x), constant_vector(2.0, 1.0), constant(0.0)
)


def sorted_spectrum(vals):
    """By real part, then |Im|: the two members of a conjugate pair compare
    equal whichever order a solver returns them in."""
    vals = np.asarray(vals)
    vals = vals[np.lexsort((np.abs(vals.imag), vals.real))]
    return vals.real, np.abs(vals.imag)


class TestFieldOfValuesGuard:
    """solve_eigs asks ARPACK for k + 1 values and keeps them only when the
    bound |x^H B x| <= c (x^H A x x^H M x)^1/2, c = `GlobalSystem.field_bound`,
    proves that no eigenvalue of smaller real part was left out."""

    @pytest.mark.parametrize(
        "mesh, coeffs",
        [
            (lambda: gen_square_th1(16), CASES["test1"].coeffs),
            (lambda: gen_square_th2(16), CASES["eigen_square"].coeffs),
            (lambda: gen_rotated_T("th7", 28), CASES["eigen_T"].coeffs),
            (lambda: th2_split_at(16, 1e-9), CASES["eigen_square"].coeffs),
            (lambda: gen_square_th2(12), rotating(40.0)),
            (lambda: gen_square_th2(12), VARIABLE_KAPPA),
        ],
        ids=["th1", "th2", "th7", "th2_split", "rotating", "variable_kappa"],
    )
    def test_convection_bounded_by_diffusion_and_mass(self, mesh, coeffs):
        mesh = mesh()
        system = assemble(mesh, coeffs)
        c = system.field_bound
        rng = np.random.default_rng(1)
        xs = list(rng.standard_normal((8, system.n)) + 1j * rng.standard_normal((8, system.n)))
        # waves e^{iwx} reach 0.27-0.70 of the bound on th1, th2 and th7 at
        # w = 20, the random vectors 0.015 at most
        xy = mesh.vertices[system.dof.interior_vertices]
        xs += [np.exp(1j * w * xy[:, 0]) for w in (5.0, 20.0)]
        for x in xs:
            b = abs(np.vdot(x, system.B @ x))
            a = np.vdot(x, system.A @ x).real
            m = np.vdot(x, system.M @ x).real
            # slack: a fan triangle of a valid cell may have signed area down
            # to -1e-14 diam^2 / 2 (geometry._AREA_EPS), so its quadrature
            # weights may be that negative, 1e-13 of these cells' areas at
            # most; round-off in the three forms adds a few n eps
            assert b <= c * np.sqrt(a * m) * (1.0 + 1e-10)

    def test_field_bound_divides_by_root_kappa(self):
        # |theta| = sqrt(5) everywhere; kappa is sampled at the centroids,
        # and is smallest at the cell whose centroid is leftmost
        mesh = gen_square_th2(12)
        xc = min(g.centroid[:, 0].min() for g in mesh.geometry.groups)
        c = assemble(mesh, VARIABLE_KAPPA).field_bound
        assert c == pytest.approx(np.sqrt(5.0 / (0.25 + 3.0 * xc)), rel=1e-12)

    @pytest.mark.parametrize(
        "mesh, case, rtol",
        [
            # pairs 2-3 and 5-6 are double in the continuous problem
            (lambda: gen_square_th2(8), "eigen_square", 1e-9),
            (lambda: gen_rotated_T("th7", 16), "eigen_T", 1e-9),
            # edges of 1e-9 h put weights near 1e9 into A, and QZ's answers
            # move by about 2e-6 relative (residuals 10x Arnoldi's); the
            # eigenvalues lie 1e-2 relative or more apart, so a missed one
            # still shows
            (lambda: th2_split_at(8, 1e-9), "eigen_square", 1e-5),
        ],
        ids=["th2_double", "th7", "th2_split"],
    )
    def test_guarded_values_equal_dense_qz(self, mesh, case, rtol):
        mesh = mesh()
        coeffs = CASES[case].coeffs
        system = assemble(mesh, coeffs)
        A = (system.A + system.B).tocsc()
        shift = suggested_shift(mesh.domain_tag, coeffs)
        res = solve_eigs(A, system.M, k=6, shift=shift, field_bound=system.field_bound)
        assert res.requested == 7
        ref = qz_eigs(A, system.M, 6)
        got_re, got_im = sorted_spectrum(res.eigenvalues)
        ref_re, ref_im = sorted_spectrum(ref)
        scale = np.abs(ref).max()
        assert np.abs(got_re - ref_re).max() <= rtol * scale
        assert np.abs(got_im - ref_im).max() <= rtol * scale

    @pytest.mark.parametrize("N", [16, 28, 60])
    def test_eigen_T_asks_for_k_plus_one(self, N):
        system = assemble(gen_rotated_T("th7", N), CASES["eigen_T"].coeffs)
        A = (system.A + system.B).tocsc()
        guarded = solve_eigs(A, system.M, k=6, shift=1.0, seed=5, field_bound=system.field_bound)
        padded = solve_eigs(A, system.M, k=6, shift=1.0, seed=5)
        assert (guarded.requested, padded.requested) == (7, 14)
        ref = padded.eigenvalues
        assert np.abs(guarded.eigenvalues - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("seed", range(8))
    def test_split_mesh_answer_is_independent_of_the_start_vector(self, seed):
        # the guarded pairs pass the acceptance with seed 0 only; with
        # seeds 1-7 one of them reads omega up to 1.2e-6, and the padded
        # request answers
        coeffs = CASES["eigen_square"].coeffs
        system = assemble(th2_split_at(8, 1e-9), coeffs)
        A = (system.A + system.B).tocsc()
        shift = suggested_shift("unit_square", coeffs)
        res = solve_eigs(A, system.M, k=6, shift=shift, seed=seed, field_bound=system.field_bound)
        padded = solve_eigs(A, system.M, k=6, shift=shift, seed=seed)
        assert res.requested == (7 if seed == 0 else 14)
        ref = padded.eigenvalues
        assert np.abs(res.eigenvalues - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_eigen_T_stops_at_the_arnoldi_tolerance(self, monkeypatch):
        # at machine precision ARPACK made 50 operator applications here
        system = assemble(gen_rotated_T("th7", 60), CASES["eigen_T"].coeffs)
        eigs, applied = solvers.spla.eigs, []

        def counting(op, *args, **kwargs):
            def matvec(v):
                applied.append(1)
                return op.matvec(v)

            return eigs(spla.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype), *args, **kwargs)

        monkeypatch.setattr(solvers.spla, "eigs", counting)
        A, M = (system.A + system.B).tocsc(), system.M.tocsc()
        solve_eigs(A, M, k=6, shift=1.0, seed=0, field_bound=system.field_bound)
        assert len(applied) <= 42

    def test_strong_rotation_falls_back_to_padded_request(self):
        # pairs with |Im| near 40 and 78 among the first 6 values; with
        # c = 28.1 the region cut at the 6th real part, 110.6, reaches 915
        # from the shift, past the 178 of the 7th value returned, so the
        # guard cannot decide and the padded run, with the same factors and
        # start vector, answers
        coeffs = rotating(40.0)
        system = assemble(gen_square_th2(12), coeffs)
        assert system.field_bound == pytest.approx(28.1, abs=0.05)
        A = (system.A + system.B).tocsc()
        shift = suggested_shift("unit_square", coeffs)
        splu = solvers.spla.splu
        factored = []

        def spy(K, **kwargs):
            factored.append(K)
            return splu(K, **kwargs)

        padded = solve_eigs(A, system.M, k=6, shift=shift)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers.spla, "splu", spy)
            res = solve_eigs(A, system.M, k=6, shift=shift, field_bound=system.field_bound)
        assert len(factored) == 1
        assert res.requested == 14
        assert np.array_equal(res.eigenvalues, padded.eigenvalues)
        assert np.abs(res.eigenvalues.imag).max() > 70.0

    def test_adjoint_takes_the_primal_bound(self):
        system = assemble(gen_rotated_T("th7", 16), CASES["eigen_T"].coeffs)
        A = (system.A + system.B).tocsc()
        primal = solve_eigs(A, system.M, k=6, field_bound=system.field_bound)
        adjoint = solve_eigs(A.T, system.M.T, k=6, field_bound=system.field_bound)
        assert adjoint.requested == 7
        p = np.sort_complex(primal.eigenvalues)
        a = np.sort_complex(np.conj(adjoint.eigenvalues))
        assert np.abs(p - a).max() <= 1e-8 * np.abs(p).max()

    def test_messages_name_the_request(self, monkeypatch):
        system = assemble(gen_rotated_T("th7", 16), CASES["eigen_T"].coeffs)
        A = (system.A + system.B).tocsc()

        def no_convergence(op, k, **kwargs):
            n = op.shape[0]
            raise spla.ArpackNoConvergence("no convergence", np.zeros(1), np.zeros((n, 1)))

        monkeypatch.setattr(solvers.spla, "eigs", no_convergence)
        with pytest.raises(SolverError, match=r"\(1 of 7 Ritz values\)"):
            solve_eigs(A, system.M, k=6, field_bound=system.field_bound)
        with pytest.raises(SolverError, match=r"\(1 of 14 Ritz values\)"):
            solve_eigs(A, system.M, k=6)


class TestSuggestedShift:
    def test_unit_square_value(self):
        shift = suggested_shift("unit_square", CASES["eigen_square"].coeffs)
        assert shift == pytest.approx(0.9 * (0.25 + 2.0 * np.pi**2), rel=1e-12)
        assert shift < square_exact_eigenvalues(1)[0]

    def test_other_domains_default(self):
        assert suggested_shift("rotated_T", CASES["eigen_T"].coeffs) == 1.0
