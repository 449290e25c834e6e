"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single PASS line with the measured numbers (visible
inline even when captured output is suppressed).  Soft checks — reference
values whose exact figures depend on construction details of the meshes —
report their status inside the line but do not fail the gate; the hard
bounds always assert.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from polyvem.analysis import ConvergenceRecord, error_h1_semi, error_l2
from polyvem.assembly import (
    apply_dirichlet_lift,
    assemble,
    expand_solution,
)
from polyvem.cli import ExperimentConfig, run_study
from polyvem.coefficients import (
    CASES,
    CoefficientSet,
    constant,
    constant_vector,
    square_exact_eigenvalues,
)
from polyvem.geometry import Polygon
from polyvem.mesh import gen_rotated_T, gen_square_th1, gen_square_th2, gen_square_th3
from polyvem.solvers import solve_eigs, solve_load, suggested_shift
from polyvem.vem_core import local_forms

from reference import qz_eigs
from test_mesh_checks import th2_unsplit

LAPLACE = CoefficientSet(constant(1.0), constant_vector(0.0, 0.0), constant(0.0))


def report(capsys, line: str) -> None:
    with capsys.disabled():
        print("\n" + line)


def soft(label: str, dev: float, tol: float) -> str:
    status = "PASS" if dev <= tol else "MISS (reported only)"
    return f"soft {label}: {status} ({dev:.2e} vs {tol:.0e})"


def eigen_pencil(mesh, coeffs):
    system = assemble(mesh, coeffs)
    return (system.A + system.B).tocsc(), system.M.tocsc()


# --- criterion 1 ------------------------------------------------------------


def test_criterion_1_patch_test(capsys):
    def u(x, y):
        return 1.0 + 2.0 * np.asarray(x, dtype=float) + 3.0 * np.asarray(y, dtype=float)

    coeffs = CoefficientSet(
        kappa=constant(1.0),
        theta=lambda x, y: (np.asarray(x, dtype=float), np.asarray(y, dtype=float)),
        gamma=constant(1.0),
        # theta . grad u + gamma u for the linear u above; diffusion drops out
        f=lambda x, y: 1.0 + 4.0 * np.asarray(x, dtype=float) + 6.0 * np.asarray(y, dtype=float),
        domain="unit_square",
    )
    worst = 0.0
    times = []
    for gen in (gen_square_th1, gen_square_th2, gen_square_th3):
        t0 = time.monotonic()
        mesh = gen(8)
        system = assemble(mesh, coeffs)
        delta, g_b = apply_dirichlet_lift(system, mesh, u)
        u_h = expand_solution(system.dof, solve_load(system.K_load, system.F + delta), g_b)
        err = np.abs(u_h - u(mesh.vertices[:, 0], mesh.vertices[:, 1])).max()
        times.append(time.monotonic() - t0)
        worst = max(worst, err)
        assert err <= 1e-9
    assert max(times) < 5.0
    report(
        capsys,
        f"PASS criterion 1 (patch test): max nodal error {worst:.2e} <= 1e-9 "
        f"on th1(8)/th2(8)/th3(8) [{max(times):.2f}s < 5s each]",
    )


# --- criterion 2 ------------------------------------------------------------


def test_criterion_2_load_convergence(capsys):
    t0 = time.monotonic()
    lines = []
    for family in ("th1", "th2", "th3"):
        cfg = ExperimentConfig(
            problem="load",
            mesh_family=family,
            N_list=(8, 16, 32, 64),
            coefficients="test1",
        )
        record, _, _ = run_study(cfg)
        l2 = record.fitted_order("err_l2")
        h1 = record.fitted_order("err_h1")
        assert 1.85 <= l2 <= 2.2, f"{family}: L2 order {l2}"
        assert 0.85 <= h1 <= 1.2, f"{family}: H1 order {h1}"
        lines.append(f"{family} L2 {l2:.3f} H1 {h1:.3f}")
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(
        capsys,
        "PASS criterion 2 (load convergence): "
        + "; ".join(lines)
        + f" — L2 in [1.85,2.2], H1 in [0.85,1.2] [{elapsed:.1f}s < 120s]",
    )


# --- criterion 3 ------------------------------------------------------------


def test_criterion_3_square_eigenvalues(capsys):
    t0 = time.monotonic()
    coeffs = CASES["eigen_square"].coeffs
    exact = square_exact_eigenvalues(6)
    shift = suggested_shift("unit_square", coeffs)
    record = ConvergenceRecord()
    names = [f"lambda_{j + 1}" for j in range(6)]
    max_imag_ratio = 0.0
    finest = None
    for N in (8, 16, 32, 64):
        mesh = gen_square_th2(N)
        A, M = eigen_pencil(mesh, coeffs)
        result = solve_eigs(A, M, 6, shift=shift, seed=0)
        lams = result.eigenvalues
        max_imag_ratio = max(max_imag_ratio, (np.abs(lams.imag) / lams.real).max())
        record.add_entry(N, mesh.h, A.shape[0], dict(zip(names, lams.real)))
        finest = lams.real
    rel_dev = np.abs(finest - exact) / exact
    assert (rel_dev <= 5e-3).all(), f"relative deviations {rel_dev}"
    orders = [record.fitted_order(n, e) for n, e in zip(names, exact)]
    assert all(1.8 <= o <= 2.3 for o in orders), f"orders {orders}"
    assert max_imag_ratio <= 1e-8
    lam1_soft = abs(finest[0] - 20.0057) / 20.0057
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(
        capsys,
        f"PASS criterion 3 (square eigenvalues): N=64 max rel dev {rel_dev.max():.2e} "
        f"<= 5e-3; orders {min(orders):.2f}..{max(orders):.2f} in [1.8,2.3]; "
        f"max |Im|/Re {max_imag_ratio:.1e} <= 1e-8; "
        + soft("lambda_1 vs 20.0057", lam1_soft, 5e-4)
        + f" [{elapsed:.1f}s < 300s]",
    )


# --- criterion 4 ------------------------------------------------------------


def test_criterion_4_rotated_t_eigenvalues(capsys):
    t0 = time.monotonic()
    coeffs = CASES["eigen_T"].coeffs
    shift = suggested_shift("rotated_T", coeffs)
    record = ConvergenceRecord()
    names = [f"lambda_{j + 1}" for j in range(6)]
    for N in (16, 30, 62, 130):
        mesh = gen_rotated_T("th4", N)
        A, M = eigen_pencil(mesh, coeffs)
        result = solve_eigs(A, M, 6, shift=shift, seed=0)
        record.add_entry(N, mesh.h, A.shape[0], dict(zip(names, result.eigenvalues.real)))
    limits = {n: record.extrapolated(n) for n in names}
    lam1_limit, lam1_order = limits["lambda_1"]
    assert 1.2 <= lam1_order <= 1.8, f"lambda_1 order {lam1_order}"
    higher = {n: limits[n][1] for n in names[1:]}
    assert all(o >= 1.8 for o in higher.values()), f"orders {higher}"
    extrap_soft = abs(lam1_limit - 34.31) / 34.31
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    report(
        capsys,
        f"PASS criterion 4 (rotated-T eigenvalues): lambda_1 order {lam1_order:.2f} "
        f"in [1.2,1.8]; lambda_2..6 orders {min(higher.values()):.2f}.."
        f"{max(higher.values()):.2f} >= 1.8; "
        + soft(f"extrapolated lambda_1 {lam1_limit:.4f} vs 34.31", extrap_soft, 2e-2)
        + f" [{elapsed:.1f}s < 600s]",
    )


# --- criterion 5 ------------------------------------------------------------


def test_criterion_5_small_edge_invariants(capsys):
    t0 = time.monotonic()
    mesh = gen_square_th2(16)
    rng = np.random.default_rng(16)
    grads = np.vstack([np.eye(2), rng.uniform(-2.0, 2.0, size=(3, 2))])
    min_ratio = np.inf
    for ci in range(len(mesh.cells)):
        poly = Polygon(mesh.cell_vertices(ci))
        le = local_forms(poly, LAPLACE)
        v = poly.vertices
        h, area = poly.diameter, poly.area
        min_ratio = min(min_ratio, poly.edge_lengths.min() / h)

        # projector reproduces P1 exactly: Pi @ D = I on the monomial basis
        xc, yc = poly.centroid
        D = np.column_stack(
            [np.ones(le.n_dof), (v[:, 0] - xc) / h, (v[:, 1] - yc) / h]
        )
        assert np.abs(le.PiNabla @ D - np.eye(3)).max() <= 1e-12

        # stabilization: symmetric PSD with exactly the constants in its kernel
        smax = np.abs(le.S).max()
        assert np.abs(le.S - le.S.T).max() <= 1e-14 * smax
        eig = np.linalg.eigvalsh(le.S)
        assert eig.min() >= -1e-12 * smax
        assert np.abs(le.S @ np.ones(le.n_dof)).max() <= 1e-12 * smax
        assert eig[1] > 1e-12 * smax  # kernel is one-dimensional

        # P1 consistency of a_h, measured against the form scale
        for a1, a2 in grads:
            for b1, b2 in grads:
                p = a1 * (v[:, 0] - xc) + a2 * (v[:, 1] - yc)
                q = b1 * (v[:, 0] - xc) + b2 * (v[:, 1] - yc)
                exact = area * (a1 * b1 + a2 * b2)
                scale = area * np.hypot(a1, a2) * np.hypot(b1, b2)
                assert abs(p @ le.Ah @ q - exact) <= 1e-12 * scale
        assert np.abs(le.Ah @ np.ones(le.n_dof)).max() <= 1e-12 * np.abs(le.Ah).max()

        # rank of the projected mass matrix never exceeds dim P1 = 3
        sv = np.linalg.svd(le.Mh, compute_uv=False)
        assert sv[3] <= 1e-12 * sv[0]
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(
        capsys,
        f"PASS criterion 5 (small-edge invariants): projector/S/consistency/rank "
        f"hold on all {len(mesh.cells)} cells of th2(16) "
        f"(min edge/diameter {min_ratio:.1e}) [{elapsed:.1f}s < 60s]",
    )


# --- criterion 6 ------------------------------------------------------------


def test_criterion_6_arnoldi_matches_dense(capsys):
    t0 = time.monotonic()
    coeffs = CASES["eigen_square"].coeffs
    mesh = gen_square_th2(8)
    A, M = eigen_pencil(mesh, coeffs)
    assert A.shape[0] < 1500
    shift = suggested_shift("unit_square", coeffs)
    arnoldi = solve_eigs(A, M, 6, shift=shift, seed=0).eigenvalues
    dense = qz_eigs(A, M, 6)
    rel = np.abs(arnoldi - dense) / np.abs(dense)
    assert (rel <= 1e-7).all(), f"relative differences {rel}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(
        capsys,
        f"PASS criterion 6 (Arnoldi vs dense QZ): max rel diff {rel.max():.2e} "
        f"<= 1e-7 for k=6 on th2(8), n={A.shape[0]} [{elapsed:.1f}s < 60s]",
    )


# --- criterion 7 ------------------------------------------------------------


def fem_p1_stiffness_global(mesh) -> sp.csr_matrix:
    """Classical piecewise-linear stiffness over all vertices, kappa = 1."""
    rows, cols, data = [], [], []
    for cell in mesh.cells:
        ids = np.asarray(cell)
        assert len(ids) == 3
        x, y = mesh.vertices[ids, 0], mesh.vertices[ids, 1]
        b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
        c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
        twice_area = x[0] * b[0] + x[1] * b[1] + x[2] * b[2]
        K = (np.outer(b, b) + np.outer(c, c)) / (2.0 * twice_area)
        rows.append(np.repeat(ids, 3))
        cols.append(np.tile(ids, 3))
        data.append(K.ravel())
    n = len(mesh.vertices)
    mat = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    mat.sum_duplicates()
    return mat


def test_criterion_7_triangle_fem_equivalence(capsys):
    t0 = time.monotonic()
    mesh = th2_unsplit(16)
    system = assemble(mesh, LAPLACE)
    fem = fem_p1_stiffness_global(mesh).toarray()
    ii, bb = system.dof.interior_vertices, system.dof.boundary_vertices
    # with B = C = 0, K_coupling is the interior-boundary block of A
    diff = max(
        np.abs(system.A.toarray() - fem[np.ix_(ii, ii)]).max(),
        np.abs(system.K_coupling.toarray() - fem[np.ix_(ii, bb)]).max(),
    )
    assert diff <= 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(
        capsys,
        f"PASS criterion 7 (triangle FEM equivalence): max entrywise diff "
        f"{diff:.2e} <= 1e-10 on {len(mesh.cells)} triangles [{elapsed:.1f}s < 30s]",
    )
