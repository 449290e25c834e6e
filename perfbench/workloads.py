"""Workloads of the polyvem benchmark and the oracle that checks their outputs.

A workload is a list of refinement levels; each level is one call of
``polyvem.cli.main`` with the argument list built here, and is one
operation of the benchmark.  The oracle reads what the level wrote (CSV,
mesh report, mesh JSON), compares it with ``reference.json`` and checks
convergence rates across the levels of one sweep.  Only
``mesh_round_trip`` imports polyvem, because ``run.py`` imports this module
without the checkout's ``src`` on its path.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

# relative tolerance for values the CLI writes with 12 significant digits
REL_TOL = REFERENCE["rel_tol"]
# the mesh report prints 8 significant digits; two roundings of equal values
# can differ by one unit in the last place, about 1e-7 relative
REPORT_REL_TOL = REFERENCE["report_rel_tol"]


@dataclass(frozen=True)
class Workload:
    name: str
    levels: tuple
    argv: Callable[[int, int, str], list]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "load_th2",
            (24, 48, 96),
            lambda N, seed, out: [
                "solve", "--family", "th2", "--case", "test1",
                "--format", "csv", "--N", str(N), "--out", out,
            ],
        ),
        Workload(
            "eig_T",
            (16, 28, 60, 132),
            lambda N, seed, out: [
                "eig", "--family", "th7", "--case", "eigen_T", "--eig-count", "6",
                "--format", "csv", "--seed", str(seed), "--N", str(N), "--out", out,
            ],
        ),
        Workload(
            "mesh_th3",
            (32, 64, 128),
            lambda N, seed, out: ["mesh", "--family", "th3", "--N", str(N), "--out", out],
        ),
    )
}


# --- reading what a level wrote ---------------------------------------------

_QUALITY = re.compile(r"cells=(\d+) vertices=(\d+)")


def _read_csv(path: Path) -> dict:
    """First data row of a ConvergenceRecord CSV plus the quality comment."""
    lines = path.read_text().splitlines()
    obs = {}
    for line in lines:
        m = _QUALITY.search(line) if line.startswith("#") else None
        if m:
            obs["cells"], obs["vertices"] = int(m.group(1)), int(m.group(2))
    rows = [line for line in lines if not line.startswith("#")]
    names = rows[0].split(",")
    for name, value in zip(names, rows[1].split(",")):
        obs[name] = int(value) if name in ("N", "dof_count") else float(value)
    return obs


def _read_mesh_report(path: Path) -> dict:
    obs = {}
    for line in path.read_text().splitlines():
        m = re.fullmatch(r"vertices (\d+), cells (\d+)", line)
        if m:
            obs["vertices"], obs["cells"] = int(m.group(1)), int(m.group(2))
        m = re.fullmatch(r"(h|min_edge|min_rho) = (\S+)", line)
        if m:
            obs[m.group(1)] = float(m.group(2))
    return obs


def observe(workload: str, N: int, out: Path) -> dict:
    """Values the oracle checks, read from the files one level wrote.

    Raises OSError, ValueError or IndexError when the files are missing or
    malformed; the caller counts that as a failed check.
    """
    if workload == "load_th2":
        return _read_csv(out / f"solution_th2_N{N}_errors.csv")
    if workload == "eig_T":
        return _read_csv(out / f"eig_th7_N{N}.csv")
    return _read_mesh_report(out / f"th3_N{N}_report.txt")


def mesh_round_trip(N: int, out: Path, observed: dict) -> list:
    """Read the written mesh JSON back and write it again; bytes must match."""
    from polyvem.mesh import io_read, io_write

    path = out / f"th3_N{N}.json"
    problems = []
    mesh = io_read(path)
    if (mesh.n_cells, mesh.n_vertices) != (observed.get("cells"), observed.get("vertices")):
        problems.append(
            f"round trip: JSON has {mesh.n_cells} cells, {mesh.n_vertices} vertices; "
            f"report says {observed.get('cells')}, {observed.get('vertices')}"
        )
    if not _close(mesh.h, observed.get("h", math.nan), REPORT_REL_TOL):
        problems.append(f"round trip: h of the read mesh {mesh.h!r} != report {observed.get('h')!r}")
    again = out / f"th3_N{N}.roundtrip.json"
    io_write(again, mesh)
    if again.read_bytes() != path.read_bytes():
        problems.append("round trip: io_write(io_read(mesh JSON)) changed the file")
    vtk = out / f"th3_N{N}.vtk"
    if not vtk.read_text().startswith("# vtk DataFile"):
        problems.append("VTK file lacks its header")
    return problems


# --- checks -------------------------------------------------------------------


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def check_level(workload: str, N: int, observed: dict) -> list:
    """Differences between one level's output and its reference values."""
    ref = REFERENCE[workload][str(N)]
    rel = REPORT_REL_TOL if workload == "mesh_th3" else REL_TOL
    problems = []
    for key, want in ref.items():
        got = observed.get(key)
        if got is None:
            problems.append(f"{key} missing from the output")
        elif isinstance(want, int):
            if got != want:
                problems.append(f"{key} = {got}, reference {want}")
        elif not _close(got, want, rel):
            problems.append(f"{key} = {got!r}, reference {want!r} (rel. tol. {rel:g})")
    return problems


# observed orders must lie in these intervals
LOAD_RATES = {"err_l2": (1.75, 2.25), "err_h1": (0.85, 1.15)}
EIG_ORDER = (1.2, 1.8)


def rate(h0: float, e0: float, h1: float, e1: float) -> float:
    return math.log(e0 / e1) / math.log(h0 / h1)


def three_level_order(hs, vals) -> float:
    """Order p of vals ~ v_inf + C h^p through the last three levels.

    Solves (h0^p - h1^p) / (h1^p - h2^p) = (v0 - v1) / (v1 - v2) by
    bisection; returns nan when the differences do not have one sign.
    """
    (h0, h1, h2), (v0, v1, v2) = hs[-3:], vals[-3:]
    if (v0 - v1) * (v1 - v2) <= 0.0:
        return math.nan
    target = (v0 - v1) / (v1 - v2)

    def g(p):
        return (h0**p - h1**p) / (h1**p - h2**p) - target

    lo, hi = 0.05, 8.0
    if g(lo) * g(hi) > 0.0:
        return math.nan
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if g(lo) * g(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def check_sweep(workload: str, passed: list) -> dict:
    """Rate checks across the levels of one sweep that passed check_level.

    ``passed`` holds (N, observed) in refinement order.  Returns
    {N: [problem, ...]}, blaming the finer level of a failing pair.
    """
    blame: dict = {}
    if workload == "load_th2":
        for (_, a), (Nb, b) in zip(passed, passed[1:]):
            for key, (lo, hi) in LOAD_RATES.items():
                r = rate(a["h"], a[key], b["h"], b[key])
                if not lo <= r <= hi:
                    blame.setdefault(Nb, []).append(
                        f"{key} rate {r:.3f} outside [{lo}, {hi}]"
                    )
    elif workload == "eig_T" and len(passed) >= 3:
        hs = [obs["h"] for _, obs in passed]
        lam = [obs["lambda_1"] for _, obs in passed]
        p = three_level_order(hs, lam)
        lo, hi = EIG_ORDER
        if not lo <= p <= hi:
            blame.setdefault(passed[-1][0], []).append(
                f"extrapolated lambda_1 order {p:.3f} outside [{lo}, {hi}]"
            )
    return blame
