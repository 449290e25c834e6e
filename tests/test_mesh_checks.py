"""Array-level mesh checks against their per-polygon and per-edge references.

`validate` solves the star-metric LP of all distinct cell shapes as one
block-diagonal program, and every edge count comes from one edge-topology
helper.  The references are `star_metric` on one polygon at a time and a
dict count over the cell cycles.  Polygons carry edges down to 1e-12 of
their diameter: the small-edge regime the method is meant for.  They are
simple by construction, so the validity check must accept every one.
"""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from polyvem.analysis import error_h1_semi, error_l2
from polyvem.assembly import apply_dirichlet_lift, assemble, expand_solution
from polyvem.coefficients import CASES, CoefficientSet, constant, constant_vector
from polyvem.geometry import Polygon, StarMetric, mesh_geometry, star_metric, star_metrics
from polyvem.mesh import (
    PolyMesh,
    _build_mesh,
    _quad_cells,
    _star_metrics,
    _tri_cells,
    gen_rotated_T,
    gen_square_th1,
    gen_square_th2,
    gen_square_th3,
    validate,
)
from polyvem.solvers import solve_eigs, solve_load, suggested_shift
from polyvem.vem_core import local_forms, pi_nabla, stab_matrix

# kernel-free: the arms x <= 1 and x >= 2 cannot both be seen
U_SHAPE = np.array([(0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)], dtype=float)


@st.composite
def small_edge_polygons(draw):
    """A star-shaped polygon about a random center with edges split at
    1e-12..1e-3 of the diameter from either end point.  One corner may be
    cut on both of its edges, so that two tiny edges meet at that vertex."""
    k = draw(st.integers(3, 8))
    jitter = draw(st.lists(st.floats(-0.25, 0.25), min_size=k, max_size=k))
    radii = draw(st.lists(st.floats(0.6, 1.0), min_size=k, max_size=k))
    cx, cy = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    t = 2.0 * np.pi * (np.arange(k) + np.array(jitter)) / k
    v = np.column_stack([cx + np.array(radii) * np.cos(t), cy + np.array(radii) * np.sin(t)])
    # keep every corner's turn away from 0 and pi, so that the polygon is
    # simple by a margin no split closes: a valid-polygon check must accept it
    e = np.roll(v, -1, axis=0) - v
    e /= np.hypot(*e.T)[:, None]
    e_in = np.roll(e, 1, axis=0)
    assume(np.abs(e_in[:, 0] * e[:, 1] - e_in[:, 1] * e[:, 0]).min() >= 0.05)
    diam = float(np.max(np.hypot(*(v[:, None] - v[None]).transpose(2, 0, 1))))
    corner = draw(st.integers(0, k))  # k: no corner cut on both edges
    out = []
    for i in range(k):
        p, q = v[i], v[(i + 1) % k]
        out.append(p)
        for a, b, cut in ((p, q, i == corner), (q, p, (i + 1) % k == corner)):
            if cut or draw(st.booleans()):
                ratio = 10.0 ** draw(st.floats(-12.0, -3.0))
                out.append(a + ratio * diam / np.hypot(*(b - a)) * (b - a))
    return np.array(out)


SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)


@SETTINGS
@given(st.lists(small_edge_polygons(), min_size=1, max_size=6))
def test_block_lp_matches_per_polygon_rho(polys):
    batched = star_metrics(polys)
    assert batched is not None
    for poly, m in zip(polys, batched):
        ref = star_metric(poly)
        assert m.is_star and ref.is_star
        assert abs(m.rho - ref.rho) <= 1e-12


@SETTINGS
@given(st.lists(small_edge_polygons(), min_size=1, max_size=5), st.integers(0, 5))
def test_non_star_polygon_leaves_the_others_alone(polys, at):
    at = min(at, len(polys))
    alone = _star_metrics(polys)
    mixed = _star_metrics(polys[:at] + [U_SHAPE] + polys[at:])
    assert mixed[at].is_star is False and mixed[at].rho == 0.0
    others = mixed[:at] + mixed[at + 1 :]
    assert [m.is_star for m in others] == [True] * len(polys)
    for m, ref in zip(others, alone):
        assert abs(m.rho - ref.rho) <= 1e-12


@SETTINGS
@given(st.lists(small_edge_polygons(), min_size=1, max_size=6))
def test_small_edge_polygons_are_valid(polys):
    for poly in polys:
        Polygon(poly)
    vertices = np.concatenate(polys)
    sizes = np.array([len(p) for p in polys])
    assert len(mesh_geometry(vertices, np.arange(len(vertices)), sizes).invalid) == 0


def th2_split_at(N, t):
    """th2 with each edge's extra vertex at fraction t of the edge from its
    lexicographically smaller end point, instead of at arc length h_e^2."""
    p = _tri_cells(0.0, 1.0, 0.0, 1.0, N, N)
    q = np.roll(p, -1, axis=1)
    swap = (q[..., 0] < p[..., 0]) | ((q[..., 0] == p[..., 0]) & (q[..., 1] < p[..., 1]))
    a = np.where(swap[..., None], q, p)
    c = np.where(swap[..., None], p, q)
    hexagons = np.stack([p, a + t * (c - a)], axis=2).reshape(-1, 6, 2)
    return _build_mesh([hexagons], "unit_square", insert_hanging=False)


@SETTINGS
@given(small_edge_polygons())
def test_stability_in_the_discrete_triple_seminorm(v):
    # Ah is equivalent to T_E = |E| |grad Pi v|^2 + S(v, v) on the
    # complement of the constants, with bounds free of the edge ratio,
    # although cond(Ah) there grows like h_E / min |e|
    poly = Polygon(v)
    P, S = pi_nabla(poly), stab_matrix(poly)
    T = poly.area / poly.diameter**2 * (P[1:].T @ P[1:]) + S
    laplace = CoefficientSet(constant(1.0), constant_vector(0.0, 0.0), constant(0.0))
    A = local_forms(poly, laplace).Ah
    Q = sla.null_space(np.ones((1, len(v))))
    lam = sla.eigh(Q.T @ A @ Q, Q.T @ T @ Q, eigvals_only=True)
    assert 0.05 <= lam.min() and lam.max() <= 2.0


@pytest.mark.parametrize("t", [1e-9, 1e-10])
def test_th2_with_tiny_split_fraction_validates(t):
    # two edges of length t*h_e meet at one corner of some hexagons
    report = validate(th2_split_at(16, t))
    assert report.cell_count == 512
    assert report.min_edge_over_h == pytest.approx(t / np.sqrt(2.0), rel=1e-3)


@pytest.mark.parametrize("t", [1e-3, 1e-6, 1e-9])
def test_load_errors_stay_close_at_tiny_split_fraction(t):
    case = CASES["test1"]
    errors = []
    for mesh in (gen_square_th2(16), th2_split_at(16, t)):
        system = assemble(mesh, case.coeffs)
        delta, g_b = apply_dirichlet_lift(system, mesh, case.u)
        u = expand_solution(system.dof, solve_load(system, system.F + delta), g_b)
        errors.append((error_l2(mesh, u, case.u), error_h1_semi(mesh, u, case.grad_u)))
    (l2, h1), (l2_t, h1_t) = errors
    assert l2_t <= 1.25 * l2 and h1_t <= 1.25 * h1


@pytest.mark.parametrize("t", [1e-3, 1e-6, 1e-9])
def test_first_eigenvalue_stays_close_at_tiny_split_fraction(t):
    case = CASES["eigen_square"]
    exact = case.exact_eigenvalues(1)[0]
    shift = suggested_shift("unit_square", case.coeffs)
    errors = []
    for mesh in (gen_square_th2(16), th2_split_at(16, t)):
        system = assemble(mesh, case.coeffs)
        lam = solve_eigs(system.A + system.B, system.M, 1, shift=shift).eigenvalues[0]
        errors.append(abs(lam.real - exact) / exact)
    assert errors[1] <= 1.25 * errors[0]


def test_u_shape_has_empty_kernel():
    # the LP has no solution; star_metric reports that as its fallback
    assert star_metric(U_SHAPE) == StarMetric(False, None, 0.0)
    assert star_metric(Polygon(U_SHAPE)) == StarMetric(False, None, 0.0)
    assert star_metrics([U_SHAPE]) is None


MESHES = {
    "th1": gen_square_th1(6),
    "th2": gen_square_th2(5),
    "th3": gen_square_th3(6),
    "th4": gen_rotated_T("th4", 8),
    "th5": gen_rotated_T("th5", 8),
    "th6": gen_rotated_T("th6", 8),
    "th7": gen_rotated_T("th7", 8),
}


def reference_edges(cells):
    directed, counts = [], {}
    for cell in cells:
        for k in range(len(cell)):
            a, b = cell[k], cell[(k + 1) % len(cell)]
            directed.append((a, b))
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    return directed, counts


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(MESHES)), st.data())
def test_edge_topology_matches_dict_count(family, data):
    mesh = MESHES[family]
    picked = data.draw(st.lists(st.integers(0, mesh.n_cells - 1), min_size=1, unique=True))
    cells = tuple(mesh.cells[i] for i in picked)
    sub = PolyMesh.from_cells(mesh.vertices.copy(), cells, mesh.domain_tag)
    topo = sub.topology
    directed, counts = reference_edges(cells)
    assert list(zip(topo.tail.tolist(), topo.head.tolist())) == directed
    assert sub.edge_counts() == counts
    assert [tuple(e) for e in topo.edges[topo.edge].tolist()] == [
        (min(a, b), max(a, b)) for a, b in directed
    ]


@pytest.mark.parametrize("family", sorted(MESHES))
def test_boundary_flags_from_topology(family):
    mesh = MESHES[family]
    _, counts = reference_edges(mesh.cells)
    flags = np.zeros(mesh.n_vertices, dtype=bool)
    for (a, b), c in counts.items():
        if c == 1:
            flags[[a, b]] = True
    assert np.array_equal(flags, mesh.boundary_vertex)


def test_clockwise_cells_are_reversed():
    square = _quad_cells(0.0, 1.0, 0.0, 1.0, 1, 1)
    mesh = _build_mesh([square, square[:, ::-1] + [1.0, 0.0]], "custom")
    # the second cell arrives clockwise as vertices (2, 4, 5, 1)
    assert mesh.cells == ((0, 1, 2, 3), (1, 5, 4, 2))


def test_one_quantum_apart_merges_into_the_first_vertex():
    # the right square's left corners sit one 1e-12 quantum off the left
    # square's right corners; they must still be shared
    left = _quad_cells(0.0, 1.0, 0.0, 1.0, 1, 1)
    right = _quad_cells(1.0, 2.0, 0.0, 1.0, 1, 1)
    right[0, [0, 3], 0] -= 1e-12
    mesh = _build_mesh([left, right], "custom")
    assert mesh.n_vertices == 6
    assert mesh.cells == ((0, 1, 2, 3), (1, 4, 5, 2))
    assert mesh.vertices[1].tolist() == [1.0, 0.0]
    assert mesh.boundary_vertex.tolist() == [True] * 6
