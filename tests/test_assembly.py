"""Global assembly tests.

Oracles: the scatter identity (global quadratic form = sum of the local
quadratic forms of `tests/reference.py`, checked with random vectors), a Cholesky factorization
for positive definiteness, and direct substitution of global linear
fields, which the method reproduces exactly.
"""

import typing

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from polyvem.assembly import (
    AssemblyError,
    GlobalSystem,
    apply_dirichlet_lift,
    assemble,
    dof_map,
    expand_solution,
)
from polyvem.coefficients import CASES, CoefficientSet, constant, constant_vector
from polyvem.geometry import Polygon
from polyvem.mesh import (
    MeshConformityError,
    PolyMesh,
    gen_rotated_T,
    gen_square_th1,
    gen_square_th2,
    gen_square_th3,
)

import reference
from test_mesh_checks import th2_unsplit

LAPLACE = CoefficientSet(constant(1.0), constant_vector(0.0, 0.0), constant(0.0))


def patch_coeffs():
    # u = 1 + 2x + 3y, kappa = 1, theta = (x, y), gamma = 1:
    # f = theta . grad u + gamma u = (2x + 3y) + (1 + 2x + 3y)
    return CoefficientSet(
        kappa=constant(1.0),
        theta=lambda x, y: (np.asarray(x, dtype=float), np.asarray(y, dtype=float)),
        gamma=constant(1.0),
        f=lambda x, y: 1.0 + 4.0 * np.asarray(x) + 6.0 * np.asarray(y),
    )


def u_linear(x, y):
    return 1.0 + 2.0 * x + 3.0 * y


class TestDofMap:
    @pytest.mark.parametrize("gen", [gen_square_th1, gen_square_th2, gen_square_th3])
    def test_bijection(self, gen):
        mesh = gen(4)
        dof = dof_map(mesh)
        nv = len(mesh.vertices)
        assert dof.n_interior + dof.n_boundary == nv
        # interior indices are a bijection onto 0..n_interior-1
        idx = dof.interior_index[dof.interior_vertices]
        assert np.array_equal(np.sort(idx), np.arange(dof.n_interior))
        # boundary vertices carry no interior DOF
        assert (dof.interior_index[dof.boundary_vertices] == -1).all()
        assert (dof.boundary_index[dof.interior_vertices] == -1).all()
        assert np.array_equal(
            dof.interior_vertices, np.flatnonzero(~mesh.boundary_vertex)
        )

    def test_counts_on_structured_quads(self):
        # th1(N) glues an N-quad strip (below y = 0.6) to an (N+1)-quad strip;
        # every vertex not on the outer square boundary is interior.
        mesh = gen_square_th1(4)
        dof = dof_map(mesh)
        on_bdry = (
            (np.abs(mesh.vertices[:, 0]) < 1e-12)
            | (np.abs(mesh.vertices[:, 0] - 1) < 1e-12)
            | (np.abs(mesh.vertices[:, 1]) < 1e-12)
            | (np.abs(mesh.vertices[:, 1] - 1) < 1e-12)
        )
        assert dof.n_boundary == int(on_bdry.sum())


class TestScatter:
    @pytest.mark.parametrize(
        "gen,coeffs",
        [
            (gen_square_th1, CASES["test2"].coeffs),
            (gen_square_th2, CASES["test1"].coeffs),
            (gen_square_th3, patch_coeffs()),
        ],
    )
    def test_global_form_equals_sum_of_local(self, gen, coeffs):
        # vectors that vanish at the boundary vertices see only the interior block
        mesh = gen(4)
        system = assemble(mesh, coeffs)
        ii = system.dof.interior_vertices
        rng = np.random.default_rng(11)
        v, w = np.zeros((2, len(mesh.vertices)))
        v[ii] = rng.standard_normal(len(ii))
        w[ii] = rng.standard_normal(len(ii))
        acc = {"A": 0.0, "B": 0.0, "C": 0.0, "M": 0.0}
        for cell in mesh.cells:
            ids = list(cell)
            le = reference.local_forms(Polygon(mesh.vertices[ids]), coeffs)
            vl, wl = v[ids], w[ids]
            acc["A"] += vl @ le.Ah @ wl
            acc["B"] += vl @ le.Bh @ wl
            acc["C"] += vl @ le.Ch @ wl
            acc["M"] += vl @ le.Mh @ wl
        for name in acc:
            glob = v[ii] @ (getattr(system, name) @ w[ii])
            assert glob == pytest.approx(acc[name], rel=1e-12, abs=1e-14)

    def test_load_vector_against_direct_sum(self):
        mesh = gen_square_th1(3)
        coeffs = patch_coeffs()
        system = assemble(mesh, coeffs)
        F_ref = np.zeros(len(mesh.vertices))
        for cell in mesh.cells:
            ids = list(cell)
            le = reference.local_forms(Polygon(mesh.vertices[ids]), coeffs)
            F_ref[ids] += le.Fh
        assert system.F == pytest.approx(F_ref[system.dof.interior_vertices], rel=1e-13)


class TestOperatorStructure:
    def test_stiffness_spd_cholesky(self):
        # factorization oracle: Cholesky succeeds only for SPD matrices
        mesh = gen_square_th2(2)
        system = assemble(mesh, LAPLACE)
        A = system.A.toarray()
        assert np.abs(A - A.T).max() <= 1e-13 * np.abs(A).max()
        np.linalg.cholesky(A)  # raises LinAlgError if not positive definite

    def test_zero_theta_gives_zero_convection(self):
        mesh = gen_square_th1(3)
        system = assemble(mesh, LAPLACE)
        assert system.B.count_nonzero() == 0

    def test_mass_reaction_psd(self):
        mesh = gen_square_th3(3)
        coeffs = CoefficientSet(constant(1.0), constant_vector(0, 0), constant(0.7))
        system = assemble(mesh, coeffs)
        for mat in (system.M, system.C):
            dense = mat.toarray()
            assert np.abs(dense - dense.T).max() <= 1e-13 * max(np.abs(dense).max(), 1e-300)
            eig = np.linalg.eigvalsh(dense)
            assert eig.min() >= -1e-12 * max(eig.max(), 1e-300)

    def test_constants_in_kernel_pre_elimination(self):
        # with boundary rows retained, A annihilates the constant vector; its
        # interior rows are A and, with B = C = 0, K_coupling
        mesh = gen_square_th2(3)
        system = assemble(mesh, LAPLACE)
        A, K = system.A, system.K_coupling
        resid = np.abs(A @ np.ones(A.shape[1]) + K @ np.ones(K.shape[1])).max()
        assert resid <= 1e-12 * np.abs(A.data).max()

    @pytest.mark.parametrize(
        "mesh, case",
        [(lambda: gen_square_th2(8), "eigen_square"), (lambda: gen_rotated_T("th7", 16), "eigen_T")],
        ids=["th2", "th7"],
    )
    def test_operators_hold_only_their_nonzeros(self, mesh, case):
        # summing duplicates leaves data and indices as views of buffers as
        # long as the triplets; assembly keeps copies of just the nonzeros
        mesh = mesh()
        system = assemble(mesh, CASES[case].coeffs)
        for mat in (getattr(system, name) for name in ("A", "B", "C", "M", "K_coupling")):
            for arr, size in ((mat.data, mat.nnz), (mat.indices, mat.nnz), (mat.indptr, mat.shape[0] + 1)):
                assert arr.base is None and arr.size == size

    @pytest.mark.parametrize(
        "mesh, case",
        [(lambda: gen_square_th2(8), "test1"), (lambda: gen_rotated_T("th7", 16), "eigen_T")],
        ids=["th2", "th7"],
    )
    def test_load_operator_holds_only_its_nonzeros(self, mesh, case):
        # A + B + C leaves data and indices in buffers as long as the
        # summands' nonzeros together; K_load keeps copies of just its own
        system = assemble(mesh(), CASES[case].coeffs)
        K = system.K_load
        for arr, size in ((K.data, K.nnz), (K.indices, K.nnz), (K.indptr, K.shape[0] + 1)):
            assert arr.base is None and arr.size == size
        # oracle: the four operators share one pattern, so K is the sum of
        # their data on it, less the entries that cancel exactly
        A, B, C = system.A, system.B, system.C
        for m in (B, C, system.M):
            assert np.array_equal(m.indptr, A.indptr) and np.array_equal(m.indices, A.indices)
        S = sp.csr_matrix(((A.data + B.data) + C.data, A.indices, A.indptr), shape=A.shape)
        S.eliminate_zeros()
        for got, want in ((K.indptr, S.indptr), (K.indices, S.indices), (K.data, S.data)):
            assert got.tobytes() == want.tobytes()

    def test_domain_mismatch_rejected(self):
        mesh = gen_rotated_T("th4", 4)
        with pytest.raises(AssemblyError, match="domain"):
            assemble(mesh, CASES["test1"].coeffs)
        with pytest.raises(AssemblyError, match="domain"):
            assemble(mesh, CASES["eigen_square"].coeffs)

    def test_mesh_without_cells_rejected(self):
        mesh = PolyMesh.from_cells([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [], "custom")
        with pytest.raises(AssemblyError, match="^mesh has no cells$"):
            assemble(mesh, LAPLACE)

    @pytest.mark.parametrize(
        "kappa, gamma, message",
        [
            (lambda x, y: np.where(np.asarray(x) > 0.5, -1.0, 1.0), constant(0.0),
             "kappa must be strictly positive"),
            (constant(1.0), lambda x, y: np.where(np.asarray(x) > 0.5, np.nan, 1.0),
             "coefficient evaluation produced non-finite values"),
        ],
        ids=["kappa", "non_finite"],
    )
    def test_lowest_failed_cell_named(self, kappa, gamma, message):
        # th3 batches its cells by vertex count, so the first failed cell in
        # batch order (13 or 15) is not the lowest one (2)
        mesh = gen_square_th3(4)
        coeffs = CoefficientSet(kappa, constant_vector(0.0, 0.0), gamma)
        with pytest.raises(AssemblyError, match=rf"^cell 2: {message}"):
            assemble(mesh, coeffs)

    @pytest.mark.parametrize("bad_id", [7, -5])
    def test_vertex_id_out_of_range_rejected(self, bad_id):
        # numpy would raise IndexError on 7, and read -5 as vertex 0
        verts = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]]
        cells = [(0, 1, 4), (1, 2, 4), (2, 3, bad_id), (3, 0, 4)]
        mesh = PolyMesh.from_cells(verts, cells, "unit_square")
        with pytest.raises(MeshConformityError, match="^cell 2 references a vertex out of range$"):
            assemble(mesh, LAPLACE)

    def test_non_simple_cell_rejected(self):
        mesh = th2_unsplit(2)
        cells = list(mesh.cells)
        cells[2] = (0, 4, 7, 8)  # corners (0,0), (1,0), (0,1), (1,1): a bow-tie
        bad = PolyMesh.from_cells(mesh.vertices, cells, mesh.domain_tag)
        with pytest.raises(ValueError, match="cell 2 .*not simple: edges 1 and 3"):
            assemble(bad, CASES["test1"].coeffs)

    def test_determinism_bit_identical(self):
        mesh = gen_square_th2(3)
        coeffs = CASES["test1"].coeffs
        s1 = assemble(mesh, coeffs)
        s2 = assemble(mesh, coeffs)
        for name in ("A", "B", "C", "M", "K_coupling"):
            m1, m2 = getattr(s1, name), getattr(s2, name)
            assert m1.indptr.tobytes() == m2.indptr.tobytes()
            assert m1.indices.tobytes() == m2.indices.tobytes()
            assert m1.data.tobytes() == m2.data.tobytes()
        assert s1.F.tobytes() == s2.F.tobytes()

    @pytest.mark.parametrize("system", [GlobalSystem])
    def test_annotations_resolve(self, system):
        # the operator annotations name scipy.sparse through the module's
        # `sp`, which imports it on first use
        hints = typing.get_type_hints(system)
        assert hints["A"] is sp.csr_matrix and hints["F"] is np.ndarray

    def test_k_load_is_sum(self):
        mesh = gen_square_th1(3)
        system = assemble(mesh, patch_coeffs())
        diff = (system.K_load - (system.A + system.B + system.C)).toarray()
        assert np.abs(diff).max() == 0.0


class TestDirichletLift:
    def test_zero_data_changes_nothing(self):
        mesh = gen_square_th1(4)
        system = assemble(mesh, patch_coeffs())
        delta, g_b = apply_dirichlet_lift(system, mesh, 0.0)
        assert np.abs(delta).max() == 0.0
        assert np.abs(g_b).max() == 0.0

    def test_patch_test_exactness(self):
        # substitution oracle: the discrete space contains global linears,
        # so the solver must return u = 1 + 2x + 3y exactly (up to solver
        # roundoff) when f and the boundary data are consistent with it
        for gen in (gen_square_th1, gen_square_th2, gen_square_th3):
            mesh = gen(4)
            system = assemble(mesh, patch_coeffs())
            delta, g_b = apply_dirichlet_lift(system, mesh, u_linear)
            u_int = spla.spsolve(system.K_load.tocsc(), system.F + delta)
            xy = mesh.vertices[system.dof.interior_vertices]
            err = np.abs(u_int - u_linear(xy[:, 0], xy[:, 1])).max()
            assert err <= 1e-10

    def test_constant_solution(self):
        # g = 1, gamma = 1, f = 1, theta . grad(1) = 0 -> u is identically 1
        coeffs = CoefficientSet(
            kappa=constant(1.0),
            theta=lambda x, y: (np.asarray(x, float), np.asarray(y, float)),
            gamma=constant(1.0),
            f=constant(1.0),
        )
        mesh = gen_square_th2(4)
        system = assemble(mesh, coeffs)
        delta, g_b = apply_dirichlet_lift(system, mesh, 1.0)
        u_int = spla.spsolve(system.K_load.tocsc(), system.F + delta)
        assert np.abs(u_int - 1.0).max() <= 1e-10
        full = expand_solution(system.dof, u_int, g_b)
        assert np.abs(full - 1.0).max() <= 1e-10

    def test_boundary_array_and_validation(self):
        mesh = gen_square_th1(3)
        system = assemble(mesh, LAPLACE)
        vals = np.linspace(0, 1, system.dof.n_boundary)
        delta, g_b = apply_dirichlet_lift(system, mesh, vals)
        assert np.array_equal(g_b, vals)
        with pytest.raises(AssemblyError, match="shape"):
            apply_dirichlet_lift(system, mesh, vals[:-1])
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(AssemblyError, match="finite"):
                apply_dirichlet_lift(system, mesh, lambda x, y: x / (x - x))

    def test_expand_solution_layout(self):
        mesh = gen_square_th1(3)
        dof = dof_map(mesh)
        u = np.arange(dof.n_interior, dtype=float)
        full = expand_solution(dof, u)
        assert np.array_equal(full[dof.interior_vertices], u)
        assert np.abs(full[dof.boundary_vertices]).max() == 0.0
        with pytest.raises(AssemblyError):
            expand_solution(dof, u[:-1])
