"""Self-test of the benchmark's oracle, span arithmetic and metric definitions.

    python3 perfbench/selftest.py

The last test runs the three coarsest eig_T levels with two seeds, traced,
and takes about half a minute.
"""

from __future__ import annotations

import math
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from run import OUT, end_to_end  # noqa: E402
from workloads import REFERENCE, REL_TOL, WORKLOADS, check_level, check_sweep  # noqa: E402


class OracleTest(unittest.TestCase):
    def test_reference_passes_and_perturbation_fails(self):
        for name in WORKLOADS:
            for N, ref in REFERENCE[name].items():
                self.assertEqual(check_level(name, int(N), dict(ref)), [], (name, N))
                for key, value in ref.items():
                    bad = dict(ref)
                    bad[key] = value + 1 if isinstance(value, int) else value * (1 + 1e-6)
                    self.assertTrue(check_level(name, int(N), bad), f"{name} N={N}: {key} perturbed")
                    missing = {k: v for k, v in ref.items() if k != key}
                    self.assertTrue(check_level(name, int(N), missing))

    def test_rates_of_the_reference_pass(self):
        for name in WORKLOADS:
            passed = [(int(N), obs) for N, obs in REFERENCE[name].items()]
            self.assertEqual(check_sweep(name, passed), {}, name)

    def test_wrong_rate_blames_the_finer_level(self):
        ref = REFERENCE["load_th2"]
        coarse, fine = dict(ref["24"]), dict(ref["48"])
        fine["err_l2"] = coarse["err_l2"] / 2.0  # first order instead of second
        blame = check_sweep("load_th2", [(24, coarse), (48, fine)])
        self.assertEqual(list(blame), [48])
        self.assertIn("err_l2 rate", blame[48][0])


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_on_a_synthetic_tree(self):
        # root [0, 100] has children a [10, 40] and b [30, 60], which overlap,
        # and c [90, 120], which runs past the root; a has a child [15, 20]
        tree = [
            ["root", 0, 100, -1, 0, "ok"],
            ["a", 10, 40, 0, 0, "ok"],
            ["a.x", 15, 20, 1, 0, "ok"],
            ["b", 30, 60, 0, 0, "ok"],
            ["c", 90, 120, 0, 0, "ok"],
        ]
        self.assertEqual(spans.self_times(tree), [100 - 50 - 10, 25, 5, 30, 30])
        agg = spans.summarize(tree)
        self.assertAlmostEqual(agg["root"]["self_s"], 40e-9)
        self.assertAlmostEqual(agg["a"]["total_s"], 30e-9)

    def test_shift_retries_count_failed_factorizations_under_eigs(self):
        tree = [
            ["solvers.solve_eigs", 0, 10, -1, 0, "ok"],
            ["solvers.splu", 1, 2, 0, 0, "RuntimeError"],
            ["solvers.splu", 2, 3, 0, 0, "ok"],
            ["solvers.solve_load", 20, 30, -1, 1, "SolverError"],
            ["solvers.splu", 21, 22, 3, 1, "RuntimeError"],
        ]
        self.assertEqual(spans.shift_retries(tree), 1)
        self.assertEqual(spans.summarize(tree)["solvers.solve_load"]["failures"], 1)


class EndToEndTest(unittest.TestCase):
    def test_failed_level_costs_time_and_adds_no_cells(self):
        result = {
            "sweeps": 1,
            "peak_rss_kib": 2048,
            "levels": [
                {"sweep": 0, "seconds": 1.0, "ok": True, "cells": 100},
                {"sweep": 0, "seconds": 3.0, "ok": False, "cells": None},
            ],
        }
        m = end_to_end(result, [0.5, 0.7, 0.6])
        self.assertEqual(m["cells_per_s"], 25.0)
        self.assertEqual(m["setup_s"], 0.6)
        self.assertEqual(m["peak_rss_mb"], 2.0)
        self.assertEqual(m["passed_frac"], 0.5)


class EigSeedTest(unittest.TestCase):
    def test_two_seeds_give_the_same_eigenvalues(self):
        from setup_probe import import_cli
        from worker import run_workload

        cli, _ = import_cli()
        rec = spans.Recorder()
        spans.install(rec)
        out = OUT / "selftest"
        runs = {}
        try:
            for seed in (1, 2):
                before = rec.counts["solvers.arnoldi_opapps"]
                run = run_workload(cli, "eig_T", seed, 0.0, out / str(seed), rec, levels=(16, 28, 60))
                opapps = rec.counts["solvers.arnoldi_opapps"] - before
                print(f"\neig_T seed {seed}: solvers.arnoldi_opapps {opapps}", file=sys.stderr)
                self.assertGreater(opapps, 0)
                self.assertTrue(all(lv["ok"] for lv in run["levels"]), run["levels"])
                runs[seed] = run["levels"]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        for a, b in zip(runs[1], runs[2]):
            for j in range(1, 7):
                la, lb = a["observed"][f"lambda_{j}"], b["observed"][f"lambda_{j}"]
                self.assertTrue(math.isclose(la, lb, rel_tol=REL_TOL), (a["N"], j, la, lb))


if __name__ == "__main__":
    unittest.main()
