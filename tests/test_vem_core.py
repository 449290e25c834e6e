import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from polyvem.coefficients import CoefficientSet, constant, constant_vector
from polyvem.geometry import Polygon
from polyvem.mesh import gen_rotated_T, gen_square_th1, gen_square_th2
from polyvem.vem_core import local_forms

UNIT_SQUARE = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
LAPLACE = CoefficientSet(constant(1.0), constant_vector(0.0, 0.0), constant(0.0))


def pi_nabla(poly):
    return local_forms(poly, LAPLACE).PiNabla


def stab_matrix(poly):
    return local_forms(poly, LAPLACE).S


def tiny_edge_pentagon(eps):
    return Polygon([(0.0, 0.0), (1.0, 0.0), (1.0 + eps, eps), (1.0, 1.0), (0.0, 1.0)])


def projector_oracle(poly, dof_values):
    """Solve the projector system independently in the plain basis {1, x, y}.

    Boundary integrals are evaluated with dense Gauss-Legendre quadrature on
    each edge (the trace is linear between vertices), not with the closed
    trapezoid form used by the implementation.  Returns p(x, y) callable.
    """
    v = poly.vertices
    n = len(v)
    area = poly.area
    t, w = leggauss(6)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w

    def edge_quad(values_fn):
        # integrate a function given on edge parameter t over the boundary
        total = 0.0
        for i in range(n):
            p, q = v[i], v[(i + 1) % n]
            le = np.hypot(*(q - p))
            total += le * np.sum(w * values_fn(i, p, q, t))
        return total

    def trace(i, p, q, s):
        return dof_values[i] * (1 - s) + dof_values[(i + 1) % n] * s

    # gradient equations: beta |E| = boundary integral of v * n_x, etc.
    rhs_x = 0.0
    rhs_y = 0.0
    for i in range(n):
        p, q = v[i], v[(i + 1) % n]
        le = np.hypot(*(q - p))
        nx, ny = (q[1] - p[1]) / le, -(q[0] - p[0]) / le
        line = le * np.sum(w * trace(i, p, q, t))
        rhs_x += nx * line
        rhs_y += ny * line

    perimeter = poly.perimeter
    avg_v = edge_quad(trace) / perimeter
    avg_1 = 1.0
    avg_x = edge_quad(lambda i, p, q, s: p[0] + s * (q[0] - p[0])) / perimeter
    avg_y = edge_quad(lambda i, p, q, s: p[1] + s * (q[1] - p[1])) / perimeter

    mat = np.array([[avg_1, avg_x, avg_y], [0.0, area, 0.0], [0.0, 0.0, area]])
    alpha, beta, gamma = np.linalg.solve(mat, [avg_v, rhs_x, rhs_y])
    return lambda x, y: alpha + beta * x + gamma * y


def eval_projection(poly, P, dofs, x, y):
    c = P @ dofs
    h = poly.diameter
    xc, yc = poly.centroid
    return c[0] + c[1] * (x - xc) / h + c[2] * (y - yc) / h


def fem_p1_stiffness(tri):
    """Classical linear finite element stiffness matrix of a triangle."""
    v = tri.vertices
    area = tri.area
    b = np.array([v[1, 1] - v[2, 1], v[2, 1] - v[0, 1], v[0, 1] - v[1, 1]])
    c = np.array([v[2, 0] - v[1, 0], v[0, 0] - v[2, 0], v[1, 0] - v[0, 0]])
    return (np.outer(b, b) + np.outer(c, c)) / (4.0 * area)


def sample_cells(mesh, limit=40):
    step = max(1, mesh.n_cells // limit)
    return [Polygon(mesh.cell_vertices(i)) for i in range(0, mesh.n_cells, step)]


class TestPiNabla:
    def test_hat_function_vs_hand_solution(self):
        P = pi_nabla(UNIT_SQUARE)
        hat = np.array([1.0, 0.0, 0.0, 0.0])
        coeffs = P @ hat
        # hand solution of the 3x3 system: Pi hat = 1/4 - (x-1/2)/2 - (y-1/2)/2
        assert coeffs == pytest.approx(
            [0.25, -np.sqrt(2.0) / 2.0, -np.sqrt(2.0) / 2.0], abs=1e-14
        )
        for x, y in [(0.0, 0.0), (1.0, 1.0), (0.3, 0.7)]:
            expected = 0.25 - (x - 0.5) / 2.0 - (y - 0.5) / 2.0
            assert eval_projection(UNIT_SQUARE, P, hat, x, y) == pytest.approx(
                expected, abs=1e-14
            )

    def test_hat_function_vs_quadrature_oracle(self):
        hat = np.array([1.0, 0.0, 0.0, 0.0])
        oracle = projector_oracle(UNIT_SQUARE, hat)
        P = pi_nabla(UNIT_SQUARE)
        for x, y in [(0.1, 0.9), (0.5, 0.5), (0.8, 0.2)]:
            assert eval_projection(UNIT_SQUARE, P, hat, x, y) == pytest.approx(
                oracle(x, y), abs=1e-12
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_random_dofs_vs_quadrature_oracle(self, seed):
        rng = np.random.default_rng(seed)
        poly = tiny_edge_pentagon(0.3)
        dofs = rng.standard_normal(poly.n_vertices)
        oracle = projector_oracle(poly, dofs)
        P = pi_nabla(poly)
        for x, y in rng.uniform(0.0, 1.0, (5, 2)):
            assert eval_projection(poly, P, dofs, x, y) == pytest.approx(
                oracle(x, y), abs=1e-11
            )

    def test_constant_reproduced(self):
        P = pi_nabla(UNIT_SQUARE)
        assert P @ np.ones(4) == pytest.approx([1.0, 0.0, 0.0], abs=1e-14)

    def test_linear_x_reproduced(self):
        # v = x: coefficients must be (mean-ish constant, h_E-scaled slope, 0)
        P = pi_nabla(UNIT_SQUARE)
        v = UNIT_SQUARE.vertices[:, 0]
        c = P @ v
        assert c[1] == pytest.approx(UNIT_SQUARE.diameter * 1.0, rel=1e-14)
        assert c[2] == pytest.approx(0.0, abs=1e-14)
        for x, y in [(0.2, 0.9), (0.7, 0.1)]:
            assert eval_projection(UNIT_SQUARE, P, v, x, y) == pytest.approx(x, abs=1e-14)

    @pytest.mark.parametrize(
        "mesh_fn",
        [
            lambda: gen_square_th1(4),
            lambda: gen_square_th2(4),
            lambda: gen_rotated_T("th7", 8),
        ],
    )
    def test_p1_reproduction_on_mesh_cells(self, mesh_fn):
        mesh = mesh_fn()
        rng = np.random.default_rng(0)
        a, b, c = rng.uniform(-2, 2, 3)
        for poly in sample_cells(mesh):
            P = pi_nabla(poly)
            v = poly.vertices
            dofs = a + b * v[:, 0] + c * v[:, 1]
            scale = max(1.0, np.abs(dofs).max())
            for x, y in v:
                err = eval_projection(poly, P, dofs, x, y) - (a + b * x + c * y)
                assert abs(err) <= 1e-12 * scale

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            pi_nabla(np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]))


class TestStabMatrix:
    def test_unit_square_exact(self):
        S = stab_matrix(UNIT_SQUARE)
        L = np.array(
            [
                [2.0, -1.0, 0.0, -1.0],
                [-1.0, 2.0, -1.0, 0.0],
                [0.0, -1.0, 2.0, -1.0],
                [-1.0, 0.0, -1.0, 2.0],
            ]
        )
        assert S == pytest.approx(np.sqrt(2.0) * L, rel=1e-14)

    def test_constants_in_kernel(self):
        for poly in (UNIT_SQUARE, tiny_edge_pentagon(0.3), tiny_edge_pentagon(1e-6)):
            S = stab_matrix(poly)
            assert np.abs(S @ np.ones(poly.n_vertices)).max() <= 1e-12 * np.abs(S).max()

    def test_symmetric_psd(self):
        rng = np.random.default_rng(3)
        mesh = gen_square_th2(4)
        for poly in sample_cells(mesh, limit=12) + [tiny_edge_pentagon(1e-6)]:
            S = stab_matrix(poly)
            assert np.abs(S - S.T).max() <= 1e-14 * np.abs(S).max()
            eig = np.linalg.eigvalsh(S)
            assert eig.min() >= -1e-12 * np.abs(eig).max()
            v = rng.standard_normal(poly.n_vertices)
            assert v @ S @ v >= -1e-12 * np.abs(S).max() * (v @ v)

    def test_tiny_edge_weight(self):
        eps = 1e-6
        poly = tiny_edge_pentagon(eps)
        S = stab_matrix(poly)
        h = poly.diameter
        # the short edge connects vertices 1, 2; measure it from the stored
        # coordinates (1+eps rounds, so hypot(eps, eps) would be a different edge)
        edge = float(np.linalg.norm(poly.vertices[2] - poly.vertices[1]))
        assert S[1, 2] == pytest.approx(-h / edge, rel=1e-12)
        assert abs(S[1, 2]) > 1e5


class TestLocalForms:
    @pytest.mark.parametrize("seed", range(3))
    def test_p1_consistency(self, seed):
        rng = np.random.default_rng(40 + seed)
        kappa = float(rng.uniform(0.5, 3.0))
        coeffs = CoefficientSet(constant(kappa), constant_vector(0, 0), constant(0.0))
        for poly in (UNIT_SQUARE, tiny_edge_pentagon(0.4), tiny_edge_pentagon(1e-3)):
            le = local_forms(poly, coeffs)
            v = poly.vertices
            bp = rng.uniform(-2, 2, 2)
            bq = rng.uniform(-2, 2, 2)
            p_dofs = 1.0 + bp[0] * v[:, 0] + bp[1] * v[:, 1]
            q_dofs = -0.5 + bq[0] * v[:, 0] + bq[1] * v[:, 1]
            exact = kappa * poly.area * (bp @ bq)
            # tolerance relative to the form scale, not the (possibly tiny,
            # sign-cancelling) value bp.bq itself
            scale = kappa * poly.area * np.linalg.norm(bp) * np.linalg.norm(bq)
            assert p_dofs @ le.Ah @ q_dofs == pytest.approx(
                exact, rel=1e-12, abs=1e-12 * scale)

    @pytest.mark.parametrize("seed", range(3))
    def test_p1_consistency_extreme_edge(self, seed):
        # At edge ratio 1e-8 the stabilization weights reach ~1e8, so the
        # assembled Ah mixes entries of that size; contracting linear dofs
        # against it cancels down to the float64 summation floor, which is
        # eps * max|S| * |p| * |q| up to a small constant -- not 1e-12
        # relative to the O(1) answer.  Check against that honest envelope
        # (a broken stabilization would miss by ~8 orders of magnitude),
        # and check the two pieces separately at full precision.
        rng = np.random.default_rng(90 + seed)
        kappa = float(rng.uniform(0.5, 3.0))
        coeffs = CoefficientSet(constant(kappa), constant_vector(0, 0), constant(0.0))
        poly = tiny_edge_pentagon(1e-8)
        le = local_forms(poly, coeffs)
        v = poly.vertices
        bp = rng.uniform(-2, 2, 2)
        bq = rng.uniform(-2, 2, 2)
        p_dofs = 1.0 + bp[0] * v[:, 0] + bp[1] * v[:, 1]
        q_dofs = -0.5 + bq[0] * v[:, 0] + bq[1] * v[:, 1]
        exact = kappa * poly.area * (bp @ bq)

        floor = np.finfo(float).eps * np.abs(le.S).max()
        floor *= np.abs(p_dofs).max() * np.abs(q_dofs).max() * poly.n_vertices
        assert abs(p_dofs @ le.Ah @ q_dofs - exact) <= 100.0 * floor

        # consistency part alone is exact, and the remainder kills P1 dofs
        # (quadratic-form evaluation keeps the cancellation ahead of S)
        P = le.PiNabla
        cons = kappa * (poly.area / poly.diameter ** 2) * (
            np.outer(P[1], P[1]) + np.outer(P[2], P[2]))
        assert p_dofs @ cons @ q_dofs == pytest.approx(exact, rel=1e-12)
        rp = p_dofs - (le.PiNabla @ p_dofs) @ np.vstack(
            [np.ones(poly.n_vertices),
             (v[:, 0] - poly.centroid[0]) / poly.diameter,
             (v[:, 1] - poly.centroid[1]) / poly.diameter])
        rq = q_dofs - (le.PiNabla @ q_dofs) @ np.vstack(
            [np.ones(poly.n_vertices),
             (v[:, 0] - poly.centroid[0]) / poly.diameter,
             (v[:, 1] - poly.centroid[1]) / poly.diameter])
        assert abs(rp @ le.S @ rq) <= 100.0 * floor * np.finfo(float).eps

    def test_row_sums_zero(self):
        le = local_forms(UNIT_SQUARE, LAPLACE)
        assert np.abs(le.Ah.sum(axis=1)).max() <= 1e-13 * np.abs(le.Ah).max()
        assert np.abs(le.Ah.sum(axis=0)).max() <= 1e-13 * np.abs(le.Ah).max()

    @pytest.mark.parametrize("seed", range(3))
    def test_triangle_equals_fem_stiffness(self, seed):
        rng = np.random.default_rng(70 + seed)
        while True:
            v = rng.uniform(0, 1, (3, 2))
            u1, u2 = v[1] - v[0], v[2] - v[0]
            if u1[0] * u2[1] - u1[1] * u2[0] > 0.05:
                break
        tri = Polygon(v)
        le = local_forms(tri, LAPLACE)
        K = fem_p1_stiffness(tri)
        assert np.abs(le.Ah - K).max() <= 1e-12 * np.abs(K).max()

    def test_mass_rank_at_most_three(self):
        for poly in (UNIT_SQUARE, tiny_edge_pentagon(0.3), tiny_edge_pentagon(1e-8)):
            le = local_forms(poly, LAPLACE)
            sv = np.linalg.svd(le.Mh, compute_uv=False)
            assert np.abs(le.Mh - le.Mh.T).max() <= 1e-14 * sv[0]
            if len(sv) > 3:
                assert sv[3] <= 1e-12 * sv[0]
            assert np.linalg.eigvalsh(le.Mh).min() >= -1e-12 * sv[0]

    def test_mass_integrates_projections(self):
        # 1^T Mh 1 = integral of (Pi 1)^2 = |E|
        le = local_forms(UNIT_SQUARE, LAPLACE)
        ones = np.ones(4)
        assert ones @ le.Mh @ ones == pytest.approx(UNIT_SQUARE.area, rel=1e-13)

    def test_reaction_equals_mass_for_unit_gamma(self):
        coeffs = CoefficientSet(constant(1.0), constant_vector(0, 0), constant(1.0))
        le = local_forms(tiny_edge_pentagon(0.3), coeffs)
        assert le.Ch == pytest.approx(le.Mh, rel=1e-13)

    def test_convection_zero_for_zero_theta(self):
        le = local_forms(UNIT_SQUARE, LAPLACE)
        assert np.abs(le.Bh).max() == 0.0

    def test_convection_kills_constant_trial(self):
        coeffs = CoefficientSet(constant(1.0), constant_vector(1.0, 0.5), constant(0.0))
        le = local_forms(tiny_edge_pentagon(0.3), coeffs)
        assert np.abs(le.Bh @ np.ones(le.n_dof)).max() <= 1e-13 * max(
            1.0, np.abs(le.Bh).max()
        )

    def test_convection_exact_for_linears(self):
        # trial u = x, test v = y, theta = (1, 0):
        # integral of (theta . grad u) v = integral of y over E
        coeffs = CoefficientSet(constant(1.0), constant_vector(1.0, 0.0), constant(0.0))
        le = local_forms(UNIT_SQUARE, coeffs)
        v = UNIT_SQUARE.vertices
        val = v[:, 1] @ le.Bh @ v[:, 0]  # test dofs on the left
        assert val == pytest.approx(0.5, rel=1e-13)

    def test_load_exact_for_linear_f(self):
        # f = 2x + 3: Fh_i = integral of f Pi phi_i; sum_i Fh_i = integral of f
        def f(x, y):
            return 2.0 * x + 3.0

        coeffs = CoefficientSet(constant(1.0), constant_vector(0, 0), constant(0.0), f=f)
        le = local_forms(UNIT_SQUARE, coeffs)
        assert le.Fh.sum() == pytest.approx(4.0, rel=1e-13)

    def test_rejects_nonpositive_kappa(self):
        bad = CoefficientSet(constant(0.0), constant_vector(0, 0), constant(0.0))
        with pytest.raises(ValueError, match="kappa"):
            local_forms(UNIT_SQUARE, bad)
        bad = CoefficientSet(constant(-1.0), constant_vector(0, 0), constant(0.0))
        with pytest.raises(ValueError, match="kappa"):
            local_forms(UNIT_SQUARE, bad)

    def test_pinabla_dof_is_projection_at_vertices(self):
        le = local_forms(tiny_edge_pentagon(0.2), LAPLACE)
        poly = tiny_edge_pentagon(0.2)
        rng = np.random.default_rng(5)
        dofs = rng.standard_normal(poly.n_vertices)
        P = pi_nabla(poly)
        expected = np.array(
            [eval_projection(poly, P, dofs, x, y) for x, y in poly.vertices]
        )
        assert le.PiNablaDof @ dofs == pytest.approx(expected, abs=1e-13)

    def test_coercivity_proxy_on_th2_cells(self):
        mesh = gen_square_th2(8)
        rng = np.random.default_rng(11)
        for ci in range(mesh.n_cells):
            le = local_forms(Polygon(mesh.cell_vertices(ci)), LAPLACE)
            scale = np.abs(le.Ah).max()
            v = rng.standard_normal(le.n_dof)
            assert v @ le.Ah @ v >= -1e-12 * scale * (v @ v)
            eig = np.linalg.eigvalsh(0.5 * (le.Ah + le.Ah.T))
            assert (np.abs(eig) <= 1e-10 * scale).sum() == 1  # kernel = constants

    def test_small_edge_robustness(self):
        # the full invariant set on a cell with edge ratio 1e-8
        poly = tiny_edge_pentagon(1e-8)
        le = local_forms(poly, LAPLACE)
        n = le.n_dof
        scale = np.abs(le.Ah).max()
        assert np.all(np.isfinite(le.Ah))
        assert np.abs(le.Ah - le.Ah.T).max() <= 1e-13 * scale
        assert np.abs(le.Ah @ np.ones(n)).max() <= 1e-12 * scale
        eig = np.linalg.eigvalsh(le.Ah)
        assert eig.min() >= -1e-12 * scale
        assert (np.abs(eig) <= 1e-10 * scale).sum() == 1
        sv = np.linalg.svd(le.Mh, compute_uv=False)
        assert sv[3] <= 1e-12 * sv[0]
