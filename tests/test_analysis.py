"""Analysis tests.

Oracles: hand-integrated projections on a single square cell (checked
against sympy), exact power-law data for the fitting routines, and the
closed-form unit-square spectrum for the matching logic.
"""

import csv
import warnings

import numpy as np
import pytest
import sympy as sym

from polyvem.analysis import (
    ConvergenceRecord,
    extrapolate,
    error_h1_semi,
    error_l2,
    fit_rate,
    match_eigs,
    triple_seminorm_interp,
)
from polyvem.coefficients import (
    CASES,
    CoefficientSet,
    constant,
    constant_vector,
    square_exact_eigenvalues,
)
from polyvem.mesh import PolyMesh, gen_rotated_T, gen_square_th1, gen_square_th2

LAPLACE = CoefficientSet(constant(1.0), constant_vector(0.0, 0.0), constant(0.0))


def single_square_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return PolyMesh.from_cells(verts, ((0, 1, 2, 3),), "unit_square")


class TestErrorNorms:
    def test_l2_hand_value_single_cell(self):
        # Pi of the hat at vertex 0 on the unit square is
        # 1/4 - (x - 1/2)/2 - (y - 1/2)/2; with u_exact = 0 the error is
        # sqrt(int Pi^2) = sqrt(1/16 + 2*(1/4)/12) = sqrt(5/48)
        mesh = single_square_mesh()
        u_h = np.array([1.0, 0.0, 0.0, 0.0])
        err = error_l2(mesh, u_h, lambda x, y: np.zeros_like(x))
        x, y = sym.symbols("x y")
        proj = sym.Rational(1, 4) - (x - sym.Rational(1, 2)) / 2 - (y - sym.Rational(1, 2)) / 2
        ref = float(sym.sqrt(sym.integrate(proj**2, (x, 0, 1), (y, 0, 1))))
        assert err == pytest.approx(ref, rel=1e-13)
        assert err == pytest.approx(float(np.sqrt(5.0 / 48.0)), rel=1e-13)

    def test_h1_hand_value_single_cell(self):
        mesh = single_square_mesh()
        u_h = np.array([1.0, 0.0, 0.0, 0.0])
        err = error_h1_semi(mesh, u_h, lambda x, y: (np.zeros_like(x), np.zeros_like(y)))
        assert err == pytest.approx(float(np.sqrt(0.5)), rel=1e-13)

    def test_quadratic_exact_against_sympy(self):
        # u_exact = x^2 y, u_h = its interpolant on the square; the error
        # integrals are polynomial, so degree-6 quadrature is exact and the
        # whole computation has a closed form
        mesh = single_square_mesh()
        xs, ys = mesh.vertices[:, 0], mesh.vertices[:, 1]
        u_h = xs**2 * ys
        x, y = sym.symbols("x y")
        u_sym = x**2 * y
        # projector of the interpolant on the square, scaled monomials at the centroid
        verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
        dofs = [u_sym.subs({x: vx, y: vy}) for vx, vy in verts]
        h = sym.sqrt(2)
        m1, m2 = (x - sym.Rational(1, 2)) / h, (y - sym.Rational(1, 2)) / h
        # trapezoid boundary integrals reproduce the slope rows exactly:
        # s1 = (h/|E|) * sum over vertices of dof_i (y_{i+1} - y_{i-1})/2
        n = 4
        s1 = sum(
            dofs[i] * (sym.Integer(verts[(i + 1) % n][1]) - verts[(i - 1) % n][1])
            for i in range(n)
        ) / 2 * h
        s2 = -sum(
            dofs[i] * (sym.Integer(verts[(i + 1) % n][0]) - verts[(i - 1) % n][0])
            for i in range(n)
        ) / 2 * h
        per = 4
        t_weights = [sym.Rational(1, 2) * (1 + 1) for _ in range(n)]  # all edges length 1
        bavg = sum(w * d for w, d in zip(t_weights, dofs)) / per
        m1avg = sum(w * m1.subs({x: vx, y: vy}) for w, (vx, vy) in zip(t_weights, verts)) / per
        m2avg = sum(w * m2.subs({x: vx, y: vy}) for w, (vx, vy) in zip(t_weights, verts)) / per
        s0 = bavg - s1 * m1avg - s2 * m2avg
        proj = s0 + s1 * m1 + s2 * m2
        ref_l2 = float(sym.sqrt(sym.integrate((u_sym - proj) ** 2, (x, 0, 1), (y, 0, 1))))
        err_l2 = error_l2(mesh, u_h, lambda xx, yy: xx**2 * yy)
        assert err_l2 == pytest.approx(ref_l2, rel=1e-12)

        gpx = sym.diff(u_sym, x) - sym.diff(proj, x)
        gpy = sym.diff(u_sym, y) - sym.diff(proj, y)
        ref_h1 = float(sym.sqrt(sym.integrate(gpx**2 + gpy**2, (x, 0, 1), (y, 0, 1))))
        err_h1 = error_h1_semi(
            mesh, u_h, lambda xx, yy: (2 * xx * yy, xx**2)
        )
        assert err_h1 == pytest.approx(ref_h1, rel=1e-12)

    @pytest.mark.parametrize(
        "gen,N", [(gen_square_th1, 4), (gen_square_th2, 4), (lambda n: gen_rotated_T("th5", n), 8)]
    )
    def test_linear_interpolant_is_exact(self, gen, N):
        mesh = gen(N)
        u = lambda x, y: 1.0 + 2.0 * x + 3.0 * y
        u_h = u(mesh.vertices[:, 0], mesh.vertices[:, 1])
        assert error_l2(mesh, u_h, u) <= 1e-12
        assert error_h1_semi(
            mesh, u_h, lambda x, y: (np.full_like(x, 2.0), np.full_like(x, 3.0))
        ) <= 1e-12
        assert triple_seminorm_interp(mesh, u_h, u, LAPLACE) == 0.0

    def test_zero_data(self):
        mesh = gen_square_th1(3)
        zero = np.zeros(len(mesh.vertices))
        assert error_l2(mesh, zero, lambda x, y: np.zeros_like(x)) == 0.0
        assert (
            error_h1_semi(mesh, zero, lambda x, y: (np.zeros_like(x), np.zeros_like(x)))
            == 0.0
        )

    def test_triangle_inequality_on_discrete_data(self):
        mesh = gen_square_th2(3)
        rng = np.random.default_rng(3)
        zero = lambda x, y: np.zeros_like(x)
        gzero = lambda x, y: (np.zeros_like(x), np.zeros_like(x))
        for _ in range(5):
            a = rng.standard_normal(len(mesh.vertices))
            b = rng.standard_normal(len(mesh.vertices))
            assert error_l2(mesh, a + b, zero) <= error_l2(mesh, a, zero) + error_l2(
                mesh, b, zero
            ) + 1e-12
            assert error_h1_semi(mesh, a + b, gzero) <= error_h1_semi(
                mesh, a, gzero
            ) + error_h1_semi(mesh, b, gzero) + 1e-12

    def test_triple_seminorm_positive_for_nonlinear_mismatch(self):
        mesh = gen_square_th1(4)
        u = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        u_h = np.zeros(len(mesh.vertices))
        assert triple_seminorm_interp(mesh, u_h, u, LAPLACE) > 0.1

    def test_shape_validation(self):
        mesh = gen_square_th1(3)
        with pytest.raises(ValueError, match="shape"):
            error_l2(mesh, np.zeros(3), lambda x, y: x)


class TestFitRate:
    def test_exact_quadratic_power_law(self):
        hs = np.array([0.4, 0.2, 0.1, 0.05])
        errs = 3.7 * hs**2
        assert fit_rate(hs, errs) == pytest.approx(2.0, abs=1e-12)

    def test_halving(self):
        hs = np.array([0.8, 0.4, 0.2])
        errs = np.array([0.12, 0.06, 0.03])
        assert fit_rate(hs, errs) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive_and_short(self):
        with pytest.raises(ValueError):
            fit_rate([0.4, 0.2, 0.1], [1.0, -0.5, 0.1])
        with pytest.raises(ValueError):
            fit_rate([0.4, -0.2, 0.1], [1.0, 0.5, 0.1])
        with pytest.raises(ValueError):
            fit_rate([0.4, 0.2], [1.0, 0.5])

    def test_reference_eigenvalue_column_order(self):
        # first-eigenvalue column of the hexagonal-family table, N = 8..64;
        # the fitted slope of |lambda_h - lambda| vs h = 1/N is just below 2
        column = np.array([20.8967, 20.2310, 20.0531, 20.0057])
        exact = square_exact_eigenvalues(1)[0]
        hs = 1.0 / np.array([8.0, 16.0, 32.0, 64.0])
        order = fit_rate(hs, np.abs(column - exact))
        assert order == pytest.approx(1.93, abs=0.03)


class TestExtrapolate:
    def test_exact_quadratic_model(self):
        hs = np.array([0.4, 0.2, 0.1, 0.05])
        vals = 5.0 + 3.0 * hs**2
        limit, order = extrapolate(hs, vals)
        assert limit == pytest.approx(5.0, abs=1e-8)
        assert order == pytest.approx(2.0, abs=1e-8)

    def test_exact_fractional_model(self):
        hs = np.array([0.4, 0.2, 0.1, 0.05])
        vals = 5.0 + 3.0 * hs**1.5
        limit, order = extrapolate(hs, vals)
        assert limit == pytest.approx(5.0, abs=1e-6)
        assert order == pytest.approx(1.5, abs=1e-6)

    @pytest.mark.parametrize("t", [0.5, 1.0, 1.5, 2.2, 3.0])
    def test_recovers_planted_exponent(self, t):
        hs = 1.0 / np.array([16.0, 30.0, 62.0, 130.0])
        vals = -2.5 + 1.7 * hs**t
        limit, order = extrapolate(hs, vals)
        assert limit == pytest.approx(-2.5, abs=1e-6)
        assert order == pytest.approx(t, abs=1e-6)

    def test_descending_data_from_reference_table(self):
        # first-eigenvalue column of the coarsest non-convex family
        hs = 1.0 / np.array([16.0, 30.0, 62.0, 130.0])
        vals = np.array([35.8647, 34.9179, 34.5028, 34.3804])
        limit, order = extrapolate(hs, vals)
        assert limit == pytest.approx(34.31, abs=0.05)
        assert order == pytest.approx(1.5, abs=0.2)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            extrapolate([0.4, 0.2], [1.0, 0.5])
        with pytest.raises(ValueError):
            extrapolate([0.4, -0.2, 0.1], [1.0, 0.5, 0.2])
        with pytest.raises(ValueError, match="finite"):
            extrapolate(1.0 / np.array([16.0, 30.0, 62.0, 130.0]), [1.0, np.nan, 1.0, 1.0])


class TestMatchEigs:
    def test_formula_value(self):
        # lambda_{1,1} = |theta|^2/4 + 2 pi^2 for theta = (1,0), kappa = 1
        exact = square_exact_eigenvalues(6)
        assert exact[0] == pytest.approx(0.25 + 2.0 * np.pi**2, rel=1e-14)
        ref = [19.9892, 49.5980, 49.5980, 79.2068, 98.9460, 98.9460]
        assert np.abs(exact - np.array(ref)).max() <= 5e-5

    def test_exact_match_gives_zero_errors(self):
        ref = square_exact_eigenvalues(6)
        report = match_eigs(ref.astype(complex), ref)
        assert report.rel_errors.max() == 0.0
        assert not report.any_imag_flagged
        assert report.unmatched_computed == 0
        assert report.unmatched_reference == 0

    def test_multiplicities_pair_positionally(self):
        ref = [1.0, 2.0, 2.0, 3.0]
        computed = np.array([2.02, 0.99, 1.98, 3.1])
        report = match_eigs(computed, ref)
        got = [p.computed.real for p in report.pairs]
        assert got == [0.99, 1.98, 2.02, 3.1]
        assert [p.reference for p in report.pairs] == ref

    def test_count_mismatch_partial(self):
        report = match_eigs(np.array([1.0, 2.0]), [1.0, 2.0, 3.0])
        assert len(report.pairs) == 2
        assert report.unmatched_reference == 1
        assert report.unmatched_computed == 0

    def test_imag_flagging(self):
        report = match_eigs(np.array([1.0 + 1e-3j]), [1.0])
        assert report.pairs[0].imag_flagged
        report = match_eigs(np.array([1.0 + 1e-9j]), [1.0])
        assert not report.pairs[0].imag_flagged


class TestConvergenceRecord:
    def make_record(self):
        rec = ConvergenceRecord()
        for N in (8, 16, 32, 64):
            h = 1.0 / N
            rec.add_entry(N, h, N * N, {"err": 2.0 * h**2, "lam": 5.0 + h**1.5})
        return rec

    def test_enforces_decreasing_h_and_names(self):
        rec = ConvergenceRecord()
        rec.add_entry(8, 0.125, 64, {"err": 1.0})
        with pytest.raises(ValueError, match="decreasing"):
            rec.add_entry(4, 0.25, 16, {"err": 2.0})
        with pytest.raises(ValueError, match="names"):
            rec.add_entry(16, 0.0625, 256, {"other": 0.5})

    def test_fitted_order_and_extrapolation(self):
        rec = self.make_record()
        assert rec.fitted_order("err") == pytest.approx(2.0, abs=1e-10)
        assert rec.fitted_order("lam", reference=5.0) == pytest.approx(1.5, abs=1e-10)
        limit, order = rec.extrapolated("lam")
        assert limit == pytest.approx(5.0, abs=1e-7)
        assert order == pytest.approx(1.5, abs=1e-6)

    def test_column_fits(self, tmp_path, monkeypatch):
        rec = self.make_record()
        fits = rec.column_fits(exact={"lam": 5.0})
        assert fits["err"] == (rec.fitted_order("err"), "", None)
        assert fits["lam"] == (rec.fitted_order("lam", 5.0), "", 5.0)
        limit, order = rec.extrapolated("lam")
        assert rec.column_fits(extrap=True)["lam"] == (order, "", limit)
        assert ConvergenceRecord().column_fits() == {}
        zero = ConvergenceRecord()
        for N in (4, 8, 16):
            zero.add_entry(N, 1.0 / N, N, {"err": 0.0})
        assert zero.column_fits()["err"] == (
            None, "h and err values must be positive for a log-log fit", None
        )
        # given its fits, write_csv fits nothing again and writes the same file
        want = rec.write_csv(tmp_path / "a.csv", extrap=True).read_text()
        fits = rec.column_fits(extrap=True)
        monkeypatch.setattr("polyvem.analysis.extrapolate", None)
        monkeypatch.setattr("polyvem.analysis.fit_rate", None)
        assert rec.write_csv(tmp_path / "b.csv", extrap=True, fits=fits).read_text() == want

    def test_csv_round_trip_with_exact_footer(self, tmp_path):
        rec = self.make_record()
        path = rec.write_csv(tmp_path / "study.csv", exact={"lam": 5.0})
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["N", "h", "dof_count", "err", "lam"]
        assert len(rows) == 1 + 4 + 2  # header + levels + order + exact
        assert rows[-2][0] == "order"
        assert rows[-1][0] == "exact"
        assert float(rows[-1][4]) == 5.0
        assert int(rows[1][0]) == 8 and int(rows[4][0]) == 64

    def test_csv_extrap_footer(self, tmp_path):
        rec = self.make_record()
        path = rec.write_csv(tmp_path / "study.csv", extrap=True)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[-1][0] == "extrap"
        assert float(rows[-1][4]) == pytest.approx(5.0, abs=1e-6)

    def test_monotone_check_warns_only(self):
        rec = self.make_record()
        assert rec.check_monotone_from_above({"lam": 5.0}) == []
        bad = ConvergenceRecord()
        for N, v in ((8, 4.8), (16, 5.2), (32, 5.05)):
            bad.add_entry(N, 1.0 / N, N, {"lam": v})
        with pytest.warns(RuntimeWarning, match="monotone"):
            names = bad.check_monotone_from_above({"lam": 5.0})
        assert names == ["lam"]
