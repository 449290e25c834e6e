"""Array-level mesh checks against their per-polygon and per-edge references.

`validate` takes ρ of all distinct cell shapes from the kernel-centre
search, run on each vertex-count group's batch rows
(`geometry._chebyshev_centres`), which `star_metric` runs on a stack of
one polygon.  It enumerates the points equidistant from three edge lines,
and every edge count comes from one edge-topology helper.  The references
are the Chebyshev-centre linear program solved by HiGHS, one polygon at a
time (only the tests import `linprog`), ρ of every cell from
`star_metric`, and a dict count over the cell cycles.
Polygons carry edges down to 1e-12 of their diameter: the small-edge
regime the method is meant for.  They are simple by construction, so the
validity check must accept every one.  The mesh builder keeps the order
of the cells it is given; a clockwise one is left for the geometry to
reject.

The cell geometry and the quality report must also agree bit for bit with
`tests/reference.py`'s all-pairs diameter, row-wise shape signatures and
sort-based edge check swapped in for the ones `polyvem` runs.  The
diameter agrees for whole stacks and for batches of one cell, the batch a
`Polygon` holds.  The crossing test, which boxes only the edge pairs with
a point near the other edge's line, agrees with the reference that boxes
every pair.
"""

from functools import partial

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import polyvem.geometry
import polyvem.mesh
import reference
from polyvem.analysis import error_h1_semi, error_l2, triple_seminorm_interp
from polyvem.assembly import apply_dirichlet_lift, assemble, expand_solution
from polyvem.coefficients import CASES, CoefficientSet, constant, constant_vector
from polyvem.geometry import (
    CellBatch,
    Polygon,
    StarMetric,
    _AREA_EPS,
    _diameter,
    _nonadjacent_edge_pairs,
    _segments_cross,
    mesh_geometry,
    star_metric,
)
from polyvem.mesh import (
    FAMILIES,
    MeshConformityError,
    PolyMesh,
    _build_mesh,
    _edge_fault,
    _shape_representatives,
    _quad_cells,
    _tri_cells,
    gen_rotated_T,
    gen_square_th1,
    gen_square_th2,
    gen_square_th3,
    split_edges,
    validate,
)
from polyvem.solvers import solve_eigs, solve_load, suggested_shift
from polyvem.vem_core import local_forms

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


def highs_star_metric(v) -> StarMetric:
    """Reference ρ: max r s.t. n_i.c - r >= n_i.v_i over the inward unit
    edge normals n_i, solved by HiGHS; infeasible means an empty kernel."""
    v = np.asarray(v, dtype=float)
    e = np.roll(v, -1, axis=0) - v
    n = np.column_stack([-e[:, 1], e[:, 0]]) / np.hypot(*e.T)[:, None]
    diam = float(np.max(np.hypot(*(v[:, None] - v[None]).transpose(2, 0, 1))))
    res = linprog(
        c=[0.0, 0.0, -1.0],
        A_ub=np.column_stack([-n, np.ones(len(v))]),
        b_ub=-(n * v).sum(axis=1),
        bounds=[(None, None), (None, None), (0.0, diam)],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if not res.success:
        return StarMetric(False, None, 0.0)
    return StarMetric(True, (float(res.x[0]), float(res.x[1])), float(res.x[2]) / diam)


@SETTINGS
@given(st.lists(small_edge_polygons(), min_size=1, max_size=6), st.integers(0, 6))
def test_rho_matches_the_highs_oracle(polys, at):
    polys = polys[:at] + [U_SHAPE] + polys[at:]
    for poly in polys:
        m, ref = star_metric(poly), highs_star_metric(poly)
        assert m.is_star == ref.is_star
        # HiGHS meets each constraint to its 1e-10 feasibility tolerance
        assert abs(m.rho - ref.rho) <= 1e-10


@SETTINGS
@given(st.lists(small_edge_polygons(), min_size=1, max_size=6))
def test_small_edge_polygons_are_valid(polys):
    for poly in polys:
        Polygon(poly)
    vertices = np.concatenate(polys)
    sizes = np.array([len(p) for p in polys])
    assert len(mesh_geometry(vertices, np.arange(len(vertices)), sizes).invalid) == 0


def th2_split_at(N, t):
    """th2 with each edge's extra vertex at fraction t of the edge, not h_e."""
    return split_edges(th2_unsplit(N), t)


def th2_unsplit(N):
    """The N x N x 2 right-triangle mesh th2 splits, built by the same builder."""
    return _build_mesh([_tri_cells(0.0, 1.0, 0.0, 1.0, N, N)], "unit_square", (N, N))


@SETTINGS
@given(small_edge_polygons())
def test_stability_in_the_discrete_triple_seminorm(v):
    # Ah is equivalent to T_E = |E| |grad Pi v|^2 + S(v, v) on the
    # complement of the constants, with bounds free of the edge ratio,
    # although cond(Ah) there grows like h_E / min |e|
    poly = Polygon(v)
    laplace = CoefficientSet(constant(1.0), constant_vector(0.0, 0.0), constant(0.0))
    le = local_forms(poly, laplace)
    P, A = le.PiNabla, le.Ah
    T = poly.area / poly.diameter**2 * (P[1:].T @ P[1:]) + le.S
    Q = sla.null_space(np.ones((1, len(v))))
    lam = sla.eigh(Q.T @ A @ Q, Q.T @ T @ Q, eigvals_only=True)
    assert 0.05 <= lam.min() and lam.max() <= 2.0


@pytest.mark.parametrize("t", [1e-9, 1e-10])
def test_th2_with_tiny_split_fraction_validates(t):
    # two edges of length t*h_e meet at one corner of some hexagons
    report = validate(th2_split_at(16, t))
    assert report.cell_count == 512
    assert report.min_edge_over_h == pytest.approx(t / np.sqrt(2.0), rel=1e-3)


@pytest.mark.parametrize("t", [1e-11, 1e-12, 1e-13])
@pytest.mark.parametrize("N", [16, 32])
def test_th2_split_far_below_the_cell_size_validates(N, t):
    # a split vertex is keyed by its edge, so the one at 1e-13 of an edge
    # of about 0.09 or less stays apart from the edge's end point
    report = validate(th2_split_at(N, t))
    assert report.cell_count == 2 * N * N
    assert report.min_edge_over_h == pytest.approx(t / np.sqrt(2.0), rel=1e-2)


@pytest.mark.parametrize("N", [16, 32])
def test_the_geometry_sets_the_floor_on_split_th2(N):
    # at 1e-14 of the edge the split vertex is a few ulps off the end
    # point, within the geometry's 1e-14 * diameter "on the line" tolerance
    with pytest.raises(MeshConformityError, match=r"^cell 0 is not a valid polygon: polygon is not simple: "):
        validate(th2_split_at(N, 1e-14))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.sampled_from([4, 6, 8, 12]), st.floats(-10.0, np.log10(0.5)))
def test_a_split_of_any_family_keeps_its_cells_and_area(family, N, exponent):
    mesh = FAMILIES[family].generate(N)
    split = split_edges(mesh, 10.0**exponent)
    assert np.array_equal(split.cell_sizes, 2 * mesh.cell_sizes)
    assert split.n_vertices == mesh.n_vertices + len(mesh.topology.edges)
    area = [sum(float(g.area.sum()) for g in m.geometry.groups) for m in (mesh, split)]
    assert abs(area[1] - area[0]) <= 1e-12
    validate(split)


@pytest.mark.parametrize("t", [1e-3, 1e-6, 1e-9])
def test_load_errors_stay_close_at_tiny_split_fraction(t):
    case = CASES["test1"]
    errors = []
    for mesh in (gen_square_th2(16), th2_split_at(16, t)):
        system = assemble(mesh, case.coeffs)
        delta, g_b = apply_dirichlet_lift(system, mesh, case.u)
        u = expand_solution(system.dof, solve_load(system.K_load, system.F + delta), g_b)
        errors.append((error_l2(mesh, u, case.u), error_h1_semi(mesh, u, case.grad_u)))
    (l2, h1), (l2_t, h1_t) = errors
    assert l2_t <= 1.25 * l2 and h1_t <= 1.25 * h1


@pytest.mark.parametrize(
    "make, low, high",
    [(gen_square_th2, 1.45, 1.60), (partial(th2_split_at, t=1e-6), 1.90, 2.05)],
    ids=["th2", "split_1e-6"],
)
def test_triple_seminorm_orders(make, low, high):
    # supercloseness: |||u_I - u_h||| converges faster than the O(h) the
    # paper proves for |||u - u_h|||; measured 1.521, 1.529, 1.519 on th2
    # and 1.969, 1.980, 1.946 split at 1e-6
    case = CASES["test1"]
    hs, errs = [], []
    for N in (8, 16, 32, 64):
        mesh = make(N)
        system = assemble(mesh, case.coeffs)
        delta, g_b = apply_dirichlet_lift(system, mesh, case.u)
        u = expand_solution(system.dof, solve_load(system.K_load, system.F + delta), g_b)
        hs.append(mesh.h)
        errs.append(triple_seminorm_interp(mesh, system.A, u, case.u))
    orders = np.diff(np.log(errs)) / np.diff(np.log(hs))
    assert ((low <= orders) & (orders <= high)).all(), orders


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
    # every point equidistant from three edge lines is outside some edge's
    # half-plane, and the Chebyshev-centre program is infeasible
    assert star_metric(U_SHAPE) == StarMetric(False, None, 0.0)
    assert star_metric(Polygon(U_SHAPE)) == StarMetric(False, None, 0.0)
    assert highs_star_metric(U_SHAPE) == StarMetric(False, None, 0.0)


def test_min_rho_of_a_tiny_mesh_is_the_per_cell_minimum():
    # the two cells differ, but relative to their first vertex both round
    # to zero at 10 absolute digits; they must not share one rho
    v = np.array([(0, 0), (0.5, 0), (1, 0), (1, 1), (0.4, 1), (0, 1)], dtype=float)
    cells = [(1, 2, 3, 4), (0, 1, 4, 5)]
    per_cell = min(highs_star_metric(v[list(c)]).rho for c in cells)
    report = validate(PolyMesh.from_cells(v * 1e-10, cells, "custom"))
    assert report.min_rho == pytest.approx(0.2124542698, abs=1e-10)
    assert report.min_rho == pytest.approx(per_cell, abs=1e-10)


@pytest.mark.parametrize("scale", [1e-9, 1e-10])
@pytest.mark.parametrize(
    "make",
    [gen_square_th1, gen_square_th3, lambda N: gen_rotated_T("th7", N)],
    ids=["th1", "th3", "th7"],
)
def test_min_rho_does_not_depend_on_the_mesh_scale(make, scale):
    mesh = make(16)
    small = PolyMesh(mesh.vertices * scale, mesh.cell_ids, mesh.cell_sizes, "custom")
    assert abs(validate(small).min_rho - validate(mesh).min_rho) <= 1e-12


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
    keys = sorted(counts)
    assert topo.edges.tolist() == [list(k) for k in keys]
    assert topo.counts.tolist() == [counts[k] for k in keys]
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


def test_builder_keeps_a_clockwise_cell_for_geometry_to_reject():
    # the generators emit counter-clockwise cells; one that does not is a
    # generator bug, which the builder passes on and the geometry names
    square = _quad_cells(0.0, 1.0, 0.0, 1.0, 1, 1)
    mesh = _build_mesh([square, square[:, ::-1] + [1.0, 0.0]], "custom", (1, 1))
    assert mesh.cells == ((0, 1, 2, 3), (2, 4, 5, 1))
    with pytest.raises(MeshConformityError, match="^cell 1 is not a valid polygon: polygon is clockwise"):
        mesh.geometry


@st.composite
def spelled_lattice_points(draw):
    """Points of the lattice (i/nx, j/ny), each coordinate spelled i/n,
    i*(1/n) or linspace(0, 1, n + 1)[i] at random, sites repeating.

    Returns the points, the site of each and the lattice scale (nx, ny).
    """
    scale = draw(st.tuples(st.integers(1, 200), st.integers(1, 200)))
    sites = draw(st.lists(st.tuples(*(st.integers(0, n) for n in scale)), min_size=1, max_size=30))
    spellings = [
        lambda i, n: i / n,
        lambda i, n: i * (1 / n),
        lambda i, n: np.linspace(0.0, 1.0, n + 1)[i],
    ]
    pick = st.sampled_from(spellings)
    pts = [[draw(pick)(i, n) for i, n in zip(site, scale)] for site in sites]
    return np.array(pts, dtype=float), sites, scale


def build_points(pts, scale):
    """`_build_mesh` of points as cells of one vertex each: the merge alone,
    since a one-vertex cell has no edge to insert into."""
    mesh = _build_mesh([pts[:, None, :]], "custom", scale)
    return mesh.vertices, mesh.cell_ids


@settings(max_examples=60, deadline=None)
@given(spelled_lattice_points(), st.randoms(use_true_random=False))
def test_every_spelling_of_a_lattice_point_is_one_vertex(case, rnd):
    pts, sites, scale = case
    coords, ids = build_points(pts, scale)
    # one vertex per site, and points of distinct sites stay apart
    assert len(coords) == len(set(sites))
    assert len(set(zip(sites, ids.tolist()))) == len(coords)
    # vertices are numbered in order of first appearance and keep their
    # first point's coordinates
    assert list(dict.fromkeys(ids.tolist())) == list(range(len(coords)))
    first = np.unique(ids, return_index=True)[1]
    assert np.array_equal(coords, pts[first])
    # the grouping into vertices does not depend on the input order
    perm = list(range(len(pts)))
    rnd.shuffle(perm)
    _, ids_perm = build_points(pts[perm], scale)
    back = np.empty_like(ids_perm)
    back[perm] = ids_perm
    assert len(set(zip(ids.tolist(), back.tolist()))) == len(coords)


def test_a_point_off_its_lattice_is_refused():
    # cells on thirds, stated on a lattice of halves: a generator bug
    cells = _quad_cells(0.0, 1.0, 0.0, 1.0, 3, 3)
    with pytest.raises(MeshConformityError, match="^a generated point lies 0.333 lattice units off"):
        _build_mesh([cells], "custom", (2, 2))
    assert _build_mesh([cells], "custom", (6, 6)).n_vertices == 16


def test_lattice_keys_that_would_overflow_are_refused():
    # (2**32 + 1)**2 keys do not fit in int64, (2**31 + 1)**2 do
    square = _quad_cells(0.0, 1.0, 0.0, 1.0, 1, 1)
    with pytest.raises(MeshConformityError, match=r"^lattice keys of 4294967297 x 4294967297 points overflow int64"):
        _build_mesh([square], "custom", (2**32, 2**32))
    assert _build_mesh([square], "custom", (2**31, 2**31)).cells == ((0, 1, 2, 3),)


def bits(a):
    return a.dtype.str, a.shape, a.tobytes()


# every family at two sizes; th2 N=24 has 1152 hexagons, two batches
GENERATORS = {
    "th1": gen_square_th1,
    "th2": gen_square_th2,
    "th3": gen_square_th3,
    **{f: partial(gen_rotated_T, f) for f in ("th4", "th5", "th6", "th7")},
}
SIZES = {"th1": (6, 24), "th2": (5, 24), "th3": (6, 32)}
ORACLE_MESHES = {
    f"{f}-N{N}": partial(gen, N) for f, gen in GENERATORS.items() for N in SIZES.get(f, (8, 24))
}
ORACLE_MESHES["th2-split-1e-9-N8"] = partial(th2_split_at, 8, 1e-9)
ORACLE_MESHES["th3-split-1e-6-N8"] = lambda: split_edges(gen_square_th3(8), 1e-6)
ORACLE_MESHES["th7-split-1e-6-N8"] = lambda: split_edges(gen_rotated_T("th7", 8), 1e-6)


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_geometry_and_report_match_the_oracle_bit_for_bit(name, monkeypatch):
    mesh = ORACLE_MESHES[name]()
    geom, report = mesh.geometry, validate(mesh)
    with monkeypatch.context() as m:
        m.setattr(polyvem.geometry, "_diameter", reference.diameter)
        m.setattr(polyvem.mesh, "_shape_representatives", reference.shape_representatives)
        m.setattr(polyvem.mesh, "_edge_fault", reference.edge_fault)
        # the same arrays, without the cached geometry and topology
        ref = PolyMesh(mesh.vertices, mesh.cell_ids, mesh.cell_sizes, mesh.domain_tag)
        ref_geom, ref_report = ref.geometry, validate(ref)
    assert bits(geom.invalid) == bits(ref_geom.invalid)
    assert len(geom.groups) == len(ref_geom.groups)
    for g, r in zip(geom.groups, ref_geom.groups):
        for field in CellBatch._fields:
            assert bits(getattr(g, field)) == bits(getattr(r, field)), field
        # the same cells stand for the shapes, in another order
        assert sorted(_shape_representatives(g)) == sorted(reference.shape_representatives(r))
    # repr spells every float exactly, and -0.0 apart from 0.0
    assert repr(report) == repr(ref_report)


@st.composite
def vertex_stacks(draw):
    """(G, k, 2) vertex stacks, k = 3..12, holding -0.0 and vertices at
    1e-12..1e-3 of the stack's diameter from the one before."""
    k, G = draw(st.integers(3, 12)), draw(st.integers(1, 4))
    coords = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))
    v = np.array(draw(st.lists(coords, min_size=2 * G * k, max_size=2 * G * k))).reshape(G, k, 2)
    for g, i in draw(st.lists(st.tuples(st.integers(0, G - 1), st.integers(1, k - 1)), max_size=k)):
        ratio = 10.0 ** draw(st.floats(-12.0, -3.0))
        step = draw(st.sampled_from([(1.0, 0.0), (0.0, -1.0), (0.6, 0.8), (-0.8, 0.6)]))
        v[g, i] = v[g, i - 1] + ratio * max(float(reference.diameter(v[g])), 1.0) * np.array(step)
    return v


@settings(max_examples=100, deadline=None)
@given(vertex_stacks())
def test_diameter_matches_the_all_pairs_oracle_bit_for_bit(v):
    assert bits(_diameter(v)) == bits(reference.diameter(v))
    # a batch of one cell, the batch a `Polygon` holds, gives the same bits;
    # most stacks are not valid polygons, so no `Polygon` is built from them
    for g in range(len(v)):
        assert bits(_diameter(v[g : g + 1])) == bits(reference.diameter(v[g : g + 1]))


def crossing_args(v, diam):
    """`_segments_cross`'s arguments for every non-adjacent edge pair of the stack v."""
    k = v.shape[1]
    i, j = _nonadjacent_edge_pairs(k)
    return v[:, i], v[:, (i + 1) % k], v[:, j], v[:, (j + 1) % k], _AREA_EPS * diam[:, None]


@pytest.mark.parametrize(
    "make",
    [partial(gen_square_th2, 16), partial(gen_rotated_T, "th7", 16), partial(th2_split_at, 16, 1e-9)],
    ids=["th2-N16", "th7-N16", "th2-split-1e-9-N16"],
)
def test_crossings_match_the_all_pairs_box_test_bit_for_bit(make):
    # every th2 batch has split vertices within tol of another edge's line
    for b in make().geometry.batches():
        args = crossing_args(b.vertices, b.diameter)
        assert bits(_segments_cross(*args)) == bits(reference.segments_cross(*args))


@settings(max_examples=100, deadline=None)
@given(vertex_stacks())
def test_crossings_of_random_stacks_match_the_all_pairs_box_test(v):
    # most stacks are not simple polygons: they cross and touch
    args = crossing_args(v, _diameter(v))
    assert bits(_segments_cross(*args)) == bits(reference.segments_cross(*args))


# directed-edge faults, each named by the oracle's message
EDGE_FAULTS = {
    # side 0 -> 1 belongs to cells 0 and 2
    "three-cells": ([(0, 0), (1, 0), (0.5, 1), (0.5, -1), (0.5, 2)], [(0, 1, 2), (1, 0, 3), (0, 1, 4)]),
    # cell 1 is clockwise, so it runs 1 -> 2 as cell 0 does
    "flipped": ([(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (2, 1)], [(0, 1, 2, 3), (1, 2, 5, 4)]),
    # the second cell repeats the first cell's second side
    "same-direction": ([(0, 0), (1, 0), (0, 1), (0.2, 0.2)], [(0, 1, 2), (1, 2, 3)]),
    # what io_read sees before any repeat check: a side 0 -> 0 in two cells
    "self-loop": ([(0, 0), (1, 0), (0, 1)], [(0, 0, 1), (0, 0, 2)]),
}


@pytest.mark.parametrize("name", sorted(EDGE_FAULTS))
def test_edge_fault_names_the_edge_the_oracle_names(name):
    v, cells = EDGE_FAULTS[name]
    mesh = PolyMesh.from_cells(v, cells, "custom")
    fault = _edge_fault(mesh.topology, mesh.n_vertices)
    assert fault is not None
    assert fault == reference.edge_fault(mesh.topology, mesh.n_vertices)


@pytest.mark.parametrize("family", sorted(MESHES))
def test_min_rho_is_the_minimum_over_every_cell(family):
    # congruent cells in other positions round differently, by far less
    # than the tolerance
    mesh = MESHES[family]
    rho = min(star_metric(mesh.cell_vertices(i)).rho for i in range(mesh.n_cells))
    assert abs(validate(mesh).min_rho - rho) <= 1e-12


def test_signed_zero_does_not_split_a_shape():
    # cell 1 is cell 0 moved by (2, 0), except that its last vertex lies
    # 1e-12 right of x = 2 where cell 0's lies 1e-12 left of x = 0: that
    # relative coordinate rounds to -0.0 in cell 0 and to 0.0 in cell 1
    v = [(0, 0), (1, 0), (1, 1), (-1e-12, 1), (2, 0), (3, 0), (3, 1), (2 + 1e-12, 1)]
    mesh = PolyMesh.from_cells(v, [(0, 1, 2, 3), (4, 5, 6, 7)], "custom")
    (g,) = mesh.geometry.groups
    rel = ((g.vertices - g.vertices[:, :1]) / g.diameter[:, None, None]).round(10)
    assert np.signbit(rel[:, 3, 0]).tolist() == [True, False]
    assert list(_shape_representatives(g)) == list(reference.shape_representatives(g)) == [0]
    rho = min(star_metric(mesh.cell_vertices(i)).rho for i in range(mesh.n_cells))
    assert abs(validate(mesh).min_rho - rho) <= 1e-12
