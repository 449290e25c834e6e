"""Batched cell computations against the per-cell reference.

Assembly and the error norms run on stacked arrays of cells that share a
vertex count (`PolyMesh.geometry`, `local_forms_batch`, `cell_quadrature`).
The oracle works on one `Polygon` at a time: the forms, Pi and the
quadrature of `tests/reference.py`.  The two sum in a different order, so
agreement is to a relative 1e-12, not bitwise.  The public per-cell
`local_forms`, `polygon_quadrature` and `star_metric` are the batched
kernels on a batch of one cell, so they equal the batch rows bitwise, and
no production path calls them.
"""

import sys

import numpy as np
import pytest

import polyvem.cli as cli
import polyvem.geometry as geometry
from polyvem.analysis import (
    ERROR_QUAD_DEGREE,
    error_h1_semi,
    error_l2,
    error_norms,
    triple_seminorm_interp,
)
from polyvem.assembly import (
    AssemblyError,
    apply_dirichlet_lift,
    assemble,
    expand_solution,
)
from polyvem.coefficients import CoefficientSet, constant, constant_vector
from polyvem.geometry import (
    QUAD_RULES,
    Polygon,
    _chebyshev_centres,
    cell_quadrature,
    fault_message,
    mesh_geometry,
    polygon_batch,
    polygon_quadrature,
    star_metric,
)
from polyvem.mesh import (
    PolyMesh,
    gen_rotated_T,
    gen_square_th1,
    gen_square_th2,
    gen_square_th3,
    io_read,
    io_write,
    validate,
)
from polyvem.solvers import solve_load
from polyvem.vem_core import _stab_batch, local_forms, local_forms_batch, pi_nabla_batch

import reference
from test_mesh_checks import th2_split_at

RTOL = 1e-12

# every coefficient varies in space and none is tied to a domain, so one
# set exercises every term on every family
COEFFS = CoefficientSet(
    kappa=lambda x, y: 1.0 + np.asarray(x) ** 2,
    theta=lambda x, y: (np.asarray(y, dtype=float), -np.asarray(x, dtype=float)),
    gamma=lambda x, y: 1.0 + np.asarray(x) * np.asarray(y),
    f=lambda x, y: np.sin(3.0 * np.asarray(x)) + np.asarray(y),
)

FAMILIES = [
    ("th1", lambda: gen_square_th1(4)),
    ("th2", lambda: gen_square_th2(4)),
    ("th3", lambda: gen_square_th3(4)),
    ("th4", lambda: gen_rotated_T("th4", 8)),
    ("th5", lambda: gen_rotated_T("th5", 8)),
    ("th6", lambda: gen_rotated_T("th6", 8)),
    ("th7", lambda: gen_rotated_T("th7", 8)),
]


def u_smooth(x, y):
    return np.cos(2.0 * x) * np.exp(y)


def grad_u_smooth(x, y):
    return -2.0 * np.sin(2.0 * x) * np.exp(y), np.cos(2.0 * x) * np.exp(y)


def cubic(x, y):
    return x**3 - 2.0 * x * y**2 + y


def reference_forms(mesh, coeffs):
    """Dense A, B, C, M, F over all vertices, summed cell by cell."""
    nv = len(mesh.vertices)
    ops = {name: np.zeros((nv, nv)) for name in ("A", "B", "C", "M")}
    F = np.zeros(nv)
    for ci, cell in enumerate(mesh.cells):
        ids = list(cell)
        le = reference.local_forms(Polygon(mesh.cell_vertices(ci)), coeffs)
        for name, local in (("A", le.Ah), ("B", le.Bh), ("C", le.Ch), ("M", le.Mh)):
            ops[name][np.ix_(ids, ids)] += local
        F[ids] += le.Fh
    return ops, F


def reference_errors(mesh, u_h, u, grad_u):
    """L2 and H1 errors of Pi u_h, cell by cell."""
    l2 = h1 = 0.0
    for ci, cell in enumerate(mesh.cells):
        poly = Polygon(mesh.cell_vertices(ci))
        s = reference.pi_nabla(poly) @ u_h[list(cell)]
        (xc, yc), h = poly.centroid, poly.diameter
        x, y, w = reference.polygon_quadrature(poly, 6)
        proj = s[0] + s[1] * (x - xc) / h + s[2] * (y - yc) / h
        l2 += w @ (u(x, y) - proj) ** 2
        gx, gy = grad_u(x, y)
        h1 += w @ ((gx - s[1] / h) ** 2 + (gy - s[2] / h) ** 2)
    return np.sqrt(l2), np.sqrt(h1)


def reference_triple(mesh, d, coeffs):
    total = 0.0
    for ci, cell in enumerate(mesh.cells):
        le = reference.local_forms(Polygon(mesh.cell_vertices(ci)), coeffs)
        total += d[list(cell)] @ le.Ah @ d[list(cell)]
    return np.sqrt(total)


def assert_close(got, ref):
    scale = max(np.abs(ref).max(), 1e-300)
    assert np.abs(got - ref).max() <= RTOL * scale


def check_against_reference(mesh):
    ops, F = reference_forms(mesh, COEFFS)
    system = assemble(mesh, COEFFS)
    ii = system.dof.interior_vertices
    bb = system.dof.boundary_vertices
    for name in ("A", "B", "C", "M"):
        assert_close(getattr(system, name).toarray(), ops[name][np.ix_(ii, ii)])
    K = ops["A"] + ops["B"] + ops["C"]
    assert_close(system.K_coupling.toarray(), K[np.ix_(ii, bb)])
    assert_close(system.F, F[ii])

    rng = np.random.default_rng(5)
    xy = mesh.vertices
    # noise at the interior vertices only: a load solve keeps u's boundary values
    u_h = u_smooth(xy[:, 0], xy[:, 1])
    u_h[ii] += 0.1 * rng.standard_normal(len(ii))
    ref_l2, ref_h1 = reference_errors(mesh, u_h, u_smooth, grad_u_smooth)
    assert error_l2(mesh, u_h, u_smooth) == pytest.approx(ref_l2, rel=RTOL)
    assert error_h1_semi(mesh, u_h, grad_u_smooth) == pytest.approx(ref_h1, rel=RTOL)
    d = u_smooth(xy[:, 0], xy[:, 1]) - u_h
    assert triple_seminorm_interp(mesh, system.A, u_h, u_smooth) == pytest.approx(
        reference_triple(mesh, d, COEFFS), rel=RTOL
    )


@pytest.mark.parametrize("name,gen", FAMILIES, ids=[f[0] for f in FAMILIES])
def test_batched_matches_per_cell(name, gen):
    mesh = gen()
    geom = mesh.geometry
    # the centroid fan triangulates every cell of the shipped families
    assert all(g.fan.all() for g in geom.groups)
    assert sum(len(g.cells) for g in geom.groups) == mesh.n_cells
    check_against_reference(mesh)


def test_random_polygons_match_per_cell():
    """A soup of random cells with 3 to 12 vertices: star-shaped about the
    origin (mostly, not always, about the centroid) or with shuffled, mostly
    self-intersecting vertex order, and the U-shaped cell of `u_shaped_mesh`."""
    rng = np.random.default_rng(7)
    polys = []
    for k in range(3, 13):
        for _ in range(6):
            ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, k)) + np.linspace(0.0, 1e-3, k)
            rad = rng.uniform(0.2, 1.5, k)
            v = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)]) + rng.uniform(-5, 5, 2)
            polys.append(v)
        polys.append(rng.permutation(polys[-1]))
    u_cell = [(0, 0), (1, 0), (1, 1), (0.8, 1), (0.8, 0.2), (0.5, 0.2), (0.2, 0.2), (0.2, 1), (0, 1)]
    polys.append(np.array(u_cell, dtype=float))
    vertices = np.concatenate(polys)
    starts = np.cumsum([0] + [len(v) for v in polys])
    geom = mesh_geometry(vertices, np.arange(len(vertices)), np.diff(starts))

    fan = []
    for g in geom.groups:
        for row, ci in enumerate(g.cells):
            message = reference.polygon_fault(polys[ci])
            if message is None:
                assert g.fault[row] == 0
                assert g.area[row] == pytest.approx(Polygon(polys[ci]).area, rel=RTOL)
            else:
                assert fault_message(g, row) == message
    for b in geom.batches():
        forms = local_forms_batch(b, COEFFS)
        P = pi_nabla_batch(b)
        quads = {degree: cell_quadrature(b, degree) for degree in (2, 4, 6)}
        for degree, quad in quads.items():
            # one row per cell, fan and ear-clipped alike, k * npts columns
            shape = (len(b.cells), b.ids.shape[1] * len(QUAD_RULES[degree].weights))
            for a in quad:
                assert a.shape == shape and a.flags.c_contiguous
        for row, ci in enumerate(b.cells):
            poly = Polygon(polys[ci])
            le = reference.local_forms(poly, COEFFS)
            for got, ref in zip(forms[:5], (le.Ah, le.Bh, le.Ch, le.Mh, le.Fh)):
                assert_close(got[row], ref)
            assert_close(P[row], reference.pi_nabla(poly))
            for degree, (x, y, w) in quads.items():
                ref = reference.polygon_quadrature(poly, degree)
                m = len(ref[2])
                for got, r in zip((x, y, w), ref):
                    assert_close(got[row, :m], r)
                # ear-clipped rows are padded with zero-weight nodes
                assert (w[row, m:] == 0.0).all()
                # the oracle triangulates and maps the rule itself, and
                # integrates a smooth field and a cubic as the kernel does
                xr, yr, wr = ref
                for g in (u_smooth, cubic):
                    err = abs(w[row] @ g(x[row], y[row]) - wr @ g(xr, yr))
                    assert err <= 1e-14 * (np.abs(wr) @ np.abs(g(xr, yr)))
            fan.append(b.fan[row])
    # every valid cell is batched, and both quadratures are exercised:
    # centroid fans and ear-clipped cells
    assert len(fan) == len(polys) - len(geom.invalid) and 0 < sum(fan) < len(fan)


def u_shaped_mesh(tmp_path) -> PolyMesh:
    """Unit square: a U-shaped cell around a notch filled by two quads.

    The U's centroid (0.5, 0.41) lies in the notch, outside the U, so the
    centroid fan does not triangulate it and it is ear-clipped.
    The mesh goes through a file, as a user-supplied mesh would.
    """
    verts = [
        (0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.8, 1.0), (0.8, 0.2),
        (0.2, 0.2), (0.2, 1.0), (0.0, 1.0), (0.5, 0.2), (0.5, 1.0),
    ]
    cells = [
        [0, 1, 2, 3, 4, 8, 5, 6, 7],
        [5, 8, 9, 6],
        [8, 4, 3, 9],
    ]
    boundary = np.ones(len(verts), dtype=bool)
    boundary[[4, 5, 8]] = False
    mesh = PolyMesh.from_cells(np.array(verts), cells, "custom")
    assert mesh.boundary_vertex.tolist() == boundary.tolist()
    io_write(tmp_path / "u.json", mesh)
    return io_read(tmp_path / "u.json")


def test_non_star_cell_is_ear_clipped(tmp_path):
    mesh = u_shaped_mesh(tmp_path)
    report = validate(mesh)
    assert report.min_rho == 0.0  # the U has an empty kernel: reported, not rejected
    geom = mesh.geometry
    assert [len(g.cells) for g in geom.groups] == [2, 1]
    (u_cell,) = [b for b in geom.batches() if 0 in b.cells]
    assert u_cell.cells.tolist() == [0] and not u_cell.fan[0]
    check_against_reference(mesh)

    # the patch test holds across the ear-clipped cell
    u = lambda x, y: 1.0 + 2.0 * np.asarray(x) + 3.0 * np.asarray(y)
    laplace = CoefficientSet(constant(1.0), constant_vector(0.0, 0.0), constant(0.0), f=constant(0.0))
    system = assemble(mesh, laplace)
    delta, g_b = apply_dirichlet_lift(system, mesh, u)
    u_full = expand_solution(system.dof, solve_load(system.K_load, system.F + delta), g_b)
    assert np.abs(u_full - u(mesh.vertices[:, 0], mesh.vertices[:, 1])).max() <= 1e-12


@pytest.mark.parametrize("name", ["th1", "th2", "th3", "th4", "th5", "th6", "th7", "u_shaped"])
def test_per_cell_functions_are_one_cell_batches(name, tmp_path):
    # local_forms, polygon_quadrature and star_metric run the batched
    # kernels on a batch of one cell, so they return exactly what assembly
    # and validate use
    if name == "u_shaped":
        mesh = u_shaped_mesh(tmp_path)
    elif name in ("th1", "th2", "th3"):
        mesh = {"th1": gen_square_th1, "th2": gen_square_th2, "th3": gen_square_th3}[name](8)
    else:
        mesh = gen_rotated_T(name, 8)
    for b in mesh.geometry.batches():
        forms, P, S = local_forms_batch(b, COEFFS), pi_nabla_batch(b), _stab_batch(b)
        quad = cell_quadrature(b, 4)
        centres, radii = _chebyshev_centres(b.vertices)
        for row, ci in enumerate(b.cells):
            poly = Polygon(mesh.cell_vertices(ci))
            le = local_forms(poly, COEFFS)
            per_cell = (le.Ah, le.Bh, le.Ch, le.Mh, le.Fh, le.PiNabla, le.S)
            for got, batched in zip(per_cell, (*forms[:5], P, S)):
                assert np.array_equal(got, batched[row])
            for got, batched in zip(polygon_quadrature(poly, 4), quad):
                assert np.array_equal(got, batched[row])
            m = star_metric(poly)
            assert m.rho == max(radii[row], 0.0)
            assert m.center is None or m.center == tuple(centres[row])


def run_production(name, tmp_path):
    """One production path: the ear-clipped U through assembly and the
    error norms, a kappa assembly rejects on one cell, or a CLI command."""
    if name == "u_shaped":
        mesh = u_shaped_mesh(tmp_path)
        assemble(mesh, COEFFS)
        error_norms(mesh, u_smooth(*mesh.vertices.T), u_smooth, grad_u_smooth)
    elif name == "kappa":
        kappa = lambda x, y: np.where(np.asarray(x) > 0.5, -1.0, 1.0)
        coeffs = CoefficientSet(kappa, constant_vector(0.0, 0.0), constant(0.0))
        with pytest.raises(AssemblyError, match="^cell 2: kappa must be strictly positive"):
            assemble(gen_square_th3(4), coeffs)
    else:
        argv = {
            "cli_solve": ["solve", "--family", "th2", "--case", "test1", "--N", "8"],
            "cli_eig": ["eig", "--family", "th7", "--case", "eigen_T", "--N", "16"],
            "cli_mesh": ["mesh", "--family", "th3", "--N", "8"],
        }[name]
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("name", ["u_shaped", "kappa", "cli_solve", "cli_eig", "cli_mesh"])
def test_production_builds_no_polygon(name, tmp_path):
    # production reads cells as batch rows: the ear clipping of a cell that
    # is not star-shaped and assembly's error for one cell are worked from
    # the cell's row, and no command builds a single-cell `Polygon` or
    # enters a one-cell view, under whatever name a module holds it
    views = (Polygon.__init__, polygon_quadrature, star_metric, polygon_batch, local_forms)
    codes = {f.__code__: f.__qualname__ for f in views}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append(codes[frame.f_code])

    sys.setprofile(profile)
    try:
        run_production(name, tmp_path)
    finally:
        sys.setprofile(None)
    assert calls == []


@pytest.mark.parametrize("name", ["th2", "u_shaped"])
def test_error_norms_is_both_errors_in_one_pass(name, tmp_path):
    mesh = gen_square_th2(8) if name == "th2" else u_shaped_mesh(tmp_path)
    rng = np.random.default_rng(11)
    xy = mesh.vertices
    u_h = u_smooth(xy[:, 0], xy[:, 1]) + 0.1 * rng.standard_normal(len(xy))
    l2, h1 = error_norms(mesh, u_h, u_smooth, grad_u_smooth)
    assert l2 == error_l2(mesh, u_h, u_smooth)
    assert h1 == error_h1_semi(mesh, u_h, grad_u_smooth)
    assert (l2, h1) == pytest.approx(reference_errors(mesh, u_h, u_smooth, grad_u_smooth), rel=RTOL)
    assert error_norms(mesh, u_h, u_smooth) == (l2, None)


def long_double_errors(mesh, u_h, u, grad_u):
    """Squared L2 and H1 errors as long-double sums over the degree-6 nodes
    of w (u - Pi u_h)^2 and w |grad u - grad Pi u_h|^2."""
    l2 = h1 = np.longdouble(0)
    for g in mesh.geometry.batches():
        s = (pi_nabla_batch(g) @ u_h[g.ids][..., None])[..., 0].astype(np.longdouble)
        x, y, w = (a.astype(np.longdouble) for a in cell_quadrature(g, ERROR_QUAD_DEGREE))
        c, h = g.centroid.astype(np.longdouble), g.diameter[:, None].astype(np.longdouble)
        proj = s[:, :1] + s[:, 1:2] * (x - c[:, :1]) / h + s[:, 2:] * (y - c[:, 1:]) / h
        xd, yd = x.astype(float), y.astype(float)
        gx, gy = (a.astype(np.longdouble) for a in grad_u(xd, yd))
        l2 += (w * (u(xd, yd).astype(np.longdouble) - proj) ** 2).sum()
        h1 += (w * ((gx - s[:, 1:2] / h) ** 2 + (gy - s[:, 2:] / h) ** 2)).sum()
    return l2, h1


@pytest.mark.parametrize("name", ["th2_interpolant", "th2_split", "u_shaped"])
def test_error_norms_match_long_double_sums_over_the_nodes(name, tmp_path):
    # error_norms expands each cell's sums around the L2 projection of u
    # (exact_moments) and adds Pi u_h's part after the solve; the expansion
    # is exact, so it must agree with the direct node sums to round-off.
    # u_h = u_I makes the errors small, where a cancellation would show
    if name == "u_shaped":
        mesh = u_shaped_mesh(tmp_path)
    else:
        mesh = gen_square_th2(16) if name == "th2_interpolant" else th2_split_at(16, 1e-6)
    xy = mesh.vertices
    u_h = u_smooth(xy[:, 0], xy[:, 1])
    if name != "th2_interpolant":
        u_h = u_h + 0.01 * np.random.default_rng(3).standard_normal(len(xy))
    l2, h1 = error_norms(mesh, u_h, u_smooth, grad_u_smooth)
    ref_l2, ref_h1 = long_double_errors(mesh, u_h, u_smooth, grad_u_smooth)
    assert abs(np.longdouble(l2) ** 2 - ref_l2) <= 1e-13 * ref_l2
    assert abs(np.longdouble(h1) ** 2 - ref_h1) <= 1e-13 * ref_h1


def test_mesh_geometry_is_independent_of_the_batch_size(monkeypatch):
    # mesh_geometry fills each vertex-count group BATCH_CELLS cells at a
    # time; groups of many batches, the last one short, hold the same bits.
    # th3 N=64 has 3317 triangles, 2431 quadrilaterals and 64 pentagons
    mesh = gen_square_th3(64)
    whole = mesh_geometry(mesh.vertices, mesh.cell_ids, mesh.cell_sizes)
    monkeypatch.setattr(geometry, "BATCH_CELLS", 7)
    parts = mesh_geometry(mesh.vertices, mesh.cell_ids, mesh.cell_sizes)
    assert np.array_equal(parts.invalid, whole.invalid)
    assert len(parts.groups) == len(whole.groups) == 3
    for g, h in zip(whole.groups, parts.groups):
        for name, a, b in zip(g._fields, g, h):
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_the_batches_of_a_valid_mesh_are_views_of_its_groups():
    # PolyMesh.geometry refuses a mesh with a faulty cell, so its batches
    # are slices of the groups, not filtered copies; th3 N=64 has 3317
    # triangles, 2431 quadrilaterals and 64 pentagons
    geom = gen_square_th3(64).geometry
    batches = list(geom.batches())
    assert len(batches) == 4 + 3 + 1
    for g in geom.groups:
        mine = [b for b in batches if b.ids.shape[1] == g.ids.shape[1]]
        assert np.array_equal(np.concatenate([b.cells for b in mine]), g.cells)
        for b in mine:
            for name, a, whole in zip(g._fields, b, g):
                assert np.shares_memory(a, whole), name
