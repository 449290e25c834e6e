import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.spatial import ConvexHull

import reference

from polyvem.geometry import (
    Point2,
    Polygon,
    QUAD_RULES,
    _shoelace,
    cell_quadrature,
    polygon_batch,
    polygon_quadrature,
    star_metric,
)

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
REF_TRIANGLE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]


def random_convex_polygon(rng, n_pts=10, scale=1.0):
    pts = rng.standard_normal((n_pts, 2)) * scale
    hull = ConvexHull(pts)
    return pts[hull.vertices]  # hull vertices come out counter-clockwise


def random_star_polygon(rng, n=8):
    # star-shaped w.r.t. the origin by construction
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    ang += np.linspace(0.0, 1e-3, n)  # break ties
    rad = rng.uniform(0.5, 1.5, n)
    return np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])


def integrate(poly, g, degree):
    """Integral of the field g(x, y) over poly by `polygon_quadrature`;
    a scalar g broadcasts over the nodes."""
    x, y, w = polygon_quadrature(poly, degree)
    return float(w @ np.broadcast_to(np.asarray(g(x, y), dtype=float), x.shape))


def greens_monomial_integral(verts, a, b):
    """Exact integral of x^a y^b via the divergence theorem.

    Independent of the triangle rules: reduces the area integral to edge
    integrals of a 1D polynomial, evaluated with Gauss-Legendre.
    """
    v = np.asarray(verts, dtype=float)
    t, w = leggauss(8)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    total = 0.0
    for i in range(len(v)):
        p, q = v[i], v[(i + 1) % len(v)]
        x = p[0] + t * (q[0] - p[0])
        y = p[1] + t * (q[1] - p[1])
        total += (q[1] - p[1]) * np.sum(w * x ** (a + 1) / (a + 1) * y**b)
    return total


class TestPolygon:
    def test_unit_square_area_centroid(self):
        poly = Polygon(UNIT_SQUARE)
        assert poly.area == pytest.approx(1.0, abs=1e-15)
        assert poly.centroid == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_reference_triangle(self):
        poly = Polygon(REF_TRIANGLE)
        assert poly.area == pytest.approx(0.5, abs=1e-15)
        assert poly.centroid == pytest.approx((1.0 / 3.0, 1.0 / 3.0), abs=1e-15)

    def test_hanging_vertex_square(self):
        # collinear vertex on the bottom edge must not change area/centroid
        poly = Polygon([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)])
        assert poly.area == pytest.approx(1.0, abs=1e-15)
        assert tuple(poly.centroid) == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_diameter_and_perimeter(self):
        poly = Polygon(UNIT_SQUARE)
        assert poly.diameter == pytest.approx(np.sqrt(2.0))
        assert poly.perimeter == pytest.approx(4.0)

    def test_rejects_too_few_vertices(self):
        with pytest.raises(ValueError, match="at least 3"):
            Polygon([(0, 0), (1, 0)])

    def test_rejects_duplicate_consecutive(self):
        with pytest.raises(ValueError, match="duplicate"):
            Polygon([(0, 0), (1, 0), (1, 0), (0, 1)])

    def test_rejects_bowtie(self):
        with pytest.raises(ValueError, match="not simple"):
            Polygon([(0, 0), (1, 1), (1, 0), (0, 1)])

    def test_rejects_clockwise(self):
        with pytest.raises(ValueError, match="counter-clockwise"):
            Polygon(UNIT_SQUARE[::-1])

    def test_rejects_collinear_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            Polygon([(0, 0), (1, 0), (2, 0)])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            Polygon([(0, 0), (1, 0), (np.nan, 1)])

    def test_tiny_edge_is_legal(self):
        eps = 1e-8
        poly = Polygon([(0, 0), (1, 0), (1 + eps, eps), (1, 1), (0, 1)])
        assert poly.edge_lengths.min() < 2 * eps
        assert poly.area > 0.99


@st.composite
def faulty_polygons(draw):
    """A (k, 2) star-shaped polygon, k = 3..12, as drawn or broken in one
    way: reversed (clockwise), shuffled (mostly self-intersecting), with a
    repeated consecutive vertex, collinear (3 vertices: zero area), with a vertex at
    1e-12..1e-3 of the diameter from the one before, or not finite."""
    k = draw(st.integers(3, 12))
    t = np.sort(draw(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=k, max_size=k, unique=True)))
    r = np.array(draw(st.lists(st.floats(0.2, 1.5), min_size=k, max_size=k)))
    v = np.column_stack([r * np.cos(t), r * np.sin(t)]) + draw(st.floats(-5.0, 5.0))
    i = draw(st.integers(1, k - 1))
    kind = draw(st.sampled_from(
        ["star", "reversed", "shuffled", "repeat", "collinear", "tiny", "non-finite"]
    ))
    if kind == "reversed":
        v = v[::-1]
    elif kind == "shuffled":
        v = v[draw(st.permutations(range(k)))]
    elif kind == "repeat":
        v[i] = v[i - 1]
    elif kind == "collinear":
        line = np.outer(r, [draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))]) + v[0]
        # beyond 3 vertices, some edges of a collinear polygon overlap
        v = line[: draw(st.sampled_from([3, k]))]
    elif kind == "tiny":
        ratio = 10.0 ** draw(st.floats(-12.0, -3.0))
        # the unit vector along v[i] - v[i-1], taken from its angle: two
        # angles such as 0.0 and a subnormal give a zero or subnormal step,
        # and dividing by its length divides by zero or overflows
        phi = np.arctan2(*(v[i] - v[i - 1])[::-1])
        unit = np.array([np.cos(phi), np.sin(phi)])
        v[i] = v[i - 1] + ratio * float(reference.diameter(v)) * unit
    elif kind == "non-finite":
        v[i, draw(st.integers(0, 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return v


@settings(max_examples=300, deadline=None)
@given(faulty_polygons())
def test_polygon_raises_the_oracles_message(v):
    message = reference.polygon_fault(v)
    if message is None:
        Polygon(v)
    else:
        with pytest.raises(ValueError) as info:
            Polygon(v)
        assert str(info.value) == message


class TestTriangulate:
    """The oracle's own triangulation, which `reference.polygon_quadrature` uses."""

    def test_square_fan(self):
        tris = reference.triangulate(Polygon(UNIT_SQUARE))
        assert len(tris) == 4
        for tri in tris:
            assert _shoelace(tri)[0] == pytest.approx(0.25, abs=1e-15)

    def test_convex_pentagon_fan(self):
        verts = [(0, 0), (2, 0), (2.5, 1.5), (1, 2.6), (-0.5, 1.4)]
        poly = Polygon(verts)
        tris = reference.triangulate(poly)
        assert len(tris) == 5
        total = sum(_shoelace(t)[0] for t in tris)
        assert total == pytest.approx(poly.area, rel=1e-12)

    def test_l_hexagon_ear_clip(self):
        # long-armed L: centroid (1.7, 0.7) lies outside the kernel [0,1]^2,
        # so the centroid fan is invalid and ear clipping must kick in
        verts = [(0, 0), (4, 0), (4, 1), (1, 1), (1, 2), (0, 2)]
        poly = Polygon(verts)
        tris = reference.triangulate(poly)
        assert len(tris) == 4
        total = sum(_shoelace(t)[0] for t in tris)
        assert total == pytest.approx(poly.area, rel=1e-12)
        assert all(_shoelace(t)[0] > 0 for t in tris)

    @pytest.mark.parametrize("seed", range(6))
    def test_area_sum_random_convex(self, seed):
        rng = np.random.default_rng(seed)
        poly = Polygon(random_convex_polygon(rng))
        total = sum(_shoelace(t)[0] for t in reference.triangulate(poly))
        assert total == pytest.approx(poly.area, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_area_sum_random_star(self, seed):
        rng = np.random.default_rng(100 + seed)
        poly = Polygon(random_star_polygon(rng))
        total = sum(_shoelace(t)[0] for t in reference.triangulate(poly))
        assert total == pytest.approx(poly.area, rel=1e-12)

    def test_hanging_vertices_covered(self):
        poly = Polygon([(0, 0), (0.3, 0), (0.7, 0), (1, 0), (1, 1), (0, 1)])
        total = sum(_shoelace(t)[0] for t in reference.triangulate(poly))
        assert total == pytest.approx(1.0, rel=1e-12)


class TestQuadrature:
    def test_weights_normalized(self):
        for deg, rule in QUAD_RULES.items():
            assert rule.weights.sum() == pytest.approx(1.0, abs=1e-12), deg
            assert np.allclose(rule.bary.sum(axis=1), 1.0, atol=1e-12)

    def test_constant_gives_area(self):
        for deg in (2, 4, 6):
            val = integrate(Polygon(UNIT_SQUARE), lambda x, y: 1.0, deg)
            assert val == pytest.approx(1.0, rel=1e-13)

    def test_cubic_on_reference_triangle(self):
        # oracle: symbolic integration of x^2 + y^3 over the reference triangle
        import sympy

        x, y = sympy.symbols("x y")
        exact = float(sympy.integrate(sympy.integrate(x**2 + y**3, (y, 0, 1 - x)), (x, 0, 1)))
        val = integrate(Polygon(REF_TRIANGLE), lambda x, y: x**2 + y**3, 4)
        assert val == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("degree", [2, 4, 6])
    @pytest.mark.parametrize("seed", range(3))
    def test_monomial_exactness_random_triangle(self, degree, seed):
        rng = np.random.default_rng(10 * degree + seed)
        while True:
            tri = rng.uniform(-1, 2, (3, 2))
            u, v = tri[1] - tri[0], tri[2] - tri[0]
            a2 = u[0] * v[1] - u[1] * v[0]
            if a2 > 0.3:
                break
        poly = Polygon(tri)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                exact = greens_monomial_integral(tri, a, b)
                val = integrate(poly, lambda x, y, a=a, b=b: x**a * y**b, degree)
                assert val == pytest.approx(exact, rel=1e-11, abs=1e-13), (a, b)

    @pytest.mark.parametrize("seed", range(3))
    def test_monomial_exactness_convex_polygon(self, seed):
        rng = np.random.default_rng(200 + seed)
        verts = random_convex_polygon(rng)
        poly = Polygon(verts)
        for a in range(5):
            for b in range(5 - a):
                exact = greens_monomial_integral(verts, a, b)
                val = integrate(poly, lambda x, y, a=a, b=b: x**a * y**b, 4)
                assert val == pytest.approx(exact, rel=1e-11, abs=1e-12), (a, b)

    def test_unsupported_degree(self):
        with pytest.raises(ValueError, match="unsupported quadrature degree"):
            integrate(Polygon(UNIT_SQUARE), lambda x, y: 1.0, 3)

    def test_quadrature_weights_sum_to_area(self):
        rng = np.random.default_rng(7)
        poly = Polygon(random_star_polygon(rng))
        _, _, w = polygon_quadrature(poly, 6)
        assert w.sum() == pytest.approx(poly.area, rel=1e-12)

    def test_scalar_return_broadcasts(self):
        val = integrate(Polygon(UNIT_SQUARE), lambda x, y: 3.5, 2)
        assert val == pytest.approx(3.5, rel=1e-13)

    def test_ear_clip_drops_a_collinear_corner(self):
        # a U whose centroid lies in the notch, so it is ear-clipped; its
        # first vertex hangs on the bottom edge, a corner of zero area that
        # is dropped, so 9 vertices give 6 triangles rather than 7
        U = [(0.5, 0), (1, 0), (1, 1), (0.7, 1), (0.7, 0.3), (0.3, 0.3), (0.3, 1), (0, 1), (0, 0)]
        g = polygon_batch(U)
        assert not g.fan[0]
        x, y, w = (a[0] for a in cell_quadrature(g, 6))
        npts = len(QUAD_RULES[6].weights)
        assert np.count_nonzero(w) == 6 * npts
        for f, exact in [
            (lambda x, y: np.ones_like(x), 0.72),
            (lambda x, y: x, 0.36),
            (lambda x, y: x**2, 0.2596),
            (lambda x, y: x * y, 0.159),
        ]:
            assert w @ f(x, y) == pytest.approx(exact, rel=1e-13)
        rx, ry, rw = reference.polygon_quadrature(U, 6)
        np.testing.assert_array_equal(x[: 6 * npts], rx)
        np.testing.assert_array_equal(y[: 6 * npts], ry)
        np.testing.assert_array_equal(w[: 6 * npts], rw)

    def test_tiny_edge_polygon_integrates(self):
        eps = 1e-8
        poly = Polygon([(0, 0), (1, 0), (1 + eps, eps), (1, 1), (0, 1)])
        assert integrate(poly, lambda x, y: 1.0, 2) == pytest.approx(poly.area, rel=1e-12)


def kernel_sampling_oracle(verts, n_grid=200):
    """Brute-force kernel probe: best inscribed-ball radius over a grid."""
    v = np.asarray(verts, dtype=float)
    e = np.roll(v, -1, axis=0) - v
    normals = np.column_stack([-e[:, 1], e[:, 0]]) / np.hypot(e[:, 0], e[:, 1])[:, None]
    lo, hi = v.min(axis=0), v.max(axis=0)
    gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], n_grid), np.linspace(lo[1], hi[1], n_grid))
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    # signed distance of each grid point to each edge line (positive inside)
    d = (pts @ normals.T) - (normals * v).sum(axis=1)
    radii = d.min(axis=1)
    best = radii.max()
    return best


class TestStarMetric:
    def test_unit_square(self):
        m = star_metric(Polygon(UNIT_SQUARE))
        assert m.is_star
        assert m.rho == pytest.approx(0.5 / np.sqrt(2.0), abs=1e-9)
        assert m.center == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_l_hexagon(self):
        # kernel of this L is exactly [0,1]^2: Chebyshev ball r=1/2 at (1/2,1/2)
        poly = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        m = star_metric(poly)
        assert m.is_star
        assert m.rho == pytest.approx(0.5 / (2.0 * np.sqrt(2.0)), abs=1e-9)
        assert m.center == pytest.approx((0.5, 0.5), abs=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_convex_is_star(self, seed):
        rng = np.random.default_rng(300 + seed)
        verts = random_convex_polygon(rng)
        poly = Polygon(verts)
        m = star_metric(poly)
        assert m.is_star
        assert m.rho > 0.0
        # LP optimum must match the brute-force sampled radius
        best = kernel_sampling_oracle(verts)
        grid_slack = 2.0 * poly.diameter / 200
        assert m.rho * poly.diameter >= best - grid_slack
        assert m.rho * poly.diameter <= best + grid_slack

    @pytest.mark.parametrize("seed", range(5))
    def test_random_star_polygon(self, seed):
        rng = np.random.default_rng(400 + seed)
        verts = random_star_polygon(rng)
        poly = Polygon(verts)
        m = star_metric(poly)
        assert m.is_star  # contains the origin in its kernel by construction
        best = kernel_sampling_oracle(verts)
        grid_slack = 2.0 * poly.diameter / 200
        assert abs(m.rho * poly.diameter - best) <= grid_slack

    def test_arrowhead_kernel_tiny(self):
        # deep dart: the reflex tip at (1.8, 1) almost reaches the opposite
        # vertex, leaving at most a sliver of a kernel
        verts = [(0.0, 0.0), (2.0, 1.0), (0.0, 2.0), (1.8, 1.0)]
        poly = Polygon(verts)
        m = star_metric(poly)
        best = kernel_sampling_oracle(verts, n_grid=400)
        if m.is_star:
            assert m.rho * poly.diameter <= max(best, 0.0) + 2.0 * poly.diameter / 400
            assert m.rho < 0.05
        else:
            assert best <= 1e-2

    def test_hanging_vertices_do_not_shrink_kernel(self):
        plain = star_metric(Polygon(UNIT_SQUARE))
        hung = star_metric(Polygon([(0, 0), (0.25, 0), (1, 0), (1, 1), (0.5, 1), (0, 1)]))
        assert hung.is_star
        assert hung.rho == pytest.approx(plain.rho, abs=1e-9)

    @pytest.mark.parametrize("k", [4, 8, 96])
    def test_regular_polygon(self, k):
        # inradius cos(pi/k) over diameter 2, about the origin.  At k = 96
        # the C(k, 3)·k triple-by-edge radii would take 110 MB at once
        t = 2.0 * np.pi * np.arange(k) / k
        tracemalloc.start()
        try:
            m = star_metric(np.column_stack([np.cos(t), np.sin(t)]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.is_star
        assert abs(m.rho - np.cos(np.pi / k) / 2.0) <= 1e-12
        assert np.hypot(*m.center) <= 1e-12
        assert peak < 64 * 2**20

    def test_point2_fields(self):
        p = Point2(1.5, -2.0)
        assert p.x == 1.5 and p.y == -2.0
