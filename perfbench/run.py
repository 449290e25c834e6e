"""polyvem benchmark: run a workload through the polyvem CLI and print its metrics.

    python3 perfbench/run.py --workload all                 # every workload
    python3 perfbench/run.py --workload load_th2 --seed 3 --seconds 10 --trace 0

Each measured run is a fresh Python process (``worker.py``) with the BLAS
and OpenMP thread pools pinned to one thread.  With ``--trace 0`` the run
reports the end-to-end metrics; ``setup_s`` is the median over fresh
processes of ``setup_probe.py``.  With ``--trace 1`` it makes one untraced
and one traced run and reports the per-layer metrics, the per-stage table
and the tracing overhead.  Metric names and units are those of
``BENCHMARK.json``.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

A level that exits non-zero, raises, or fails the oracle counts as failed.
``correct`` is false only when a level exited 0 but its output failed the
oracle, that is, when the program reported a wrong result as a success.

Output files, the full result with its environment record, and the spans
of a traced run go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import THREAD_VARS, status
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
# a run must end within 180 s; the first level of the slowest workload is
# far below this, so running out means something hangs
BUDGET_S = 170.0
ENV = dict(os.environ, **{k: "1" for k in THREAD_VARS})


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spec() -> dict:
    """Metric units and workload reasons, from BENCHMARK.json at the checkout root."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in doc["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]},
        "why": {w["name"]: w["why"] for w in doc["workloads"]},
    }


def _python(args: list, deadline: float) -> str:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time budget used up")
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=left
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} did not finish within the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def measure(workload: str, seed: int, seconds: float, traced: bool, out: Path, deadline: float) -> dict:
    """One worker process; returns its result document."""
    result = out / f"result-trace{int(traced)}.json"
    _python(
        [
            str(HERE / "worker.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(traced)), "--out", str(out / f"trace{int(traced)}"),
            "--result", str(result),
        ],
        deadline,
    )
    return json.loads(result.read_text())


def sweep_seconds(result: dict) -> list:
    """Timed seconds of each sweep: the sum over its levels."""
    totals = [0.0] * result["sweeps"]
    for lv in result["levels"]:
        totals[lv["sweep"]] += lv["seconds"]
    return totals


def end_to_end(result: dict, setups: list) -> dict:
    passed_cells = [0] * result["sweeps"]
    for lv in result["levels"]:
        if lv["ok"]:
            passed_cells[lv["sweep"]] += lv["cells"]
    levels = result["levels"]
    return {
        # failed levels cost their time and add no cells
        "cells_per_s": statistics.median(c / t for c, t in zip(passed_cells, sweep_seconds(result))),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
        "passed_frac": sum(lv["ok"] for lv in levels) / len(levels),
    }


def environment(worker_env: dict, seed: int, out: Path) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polyvem").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        **worker_env,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "output_dir": str(out.relative_to(ROOT)),
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_levels(result: dict) -> list:
    lines = [f"  {'sweep':>5} {'N':>4} {'seconds':>9} {'cells':>6}  status"]
    for lv in result["levels"]:
        lines.append(f"  {lv['sweep']:>5} {lv['N']:>4} {lv['seconds']:>9.3f} {lv['cells'] or '-':>6}  {status(lv)}")
        for text in ([lv["message"]] if lv["message"] else []) + lv["problems"]:
            lines.append(f"{'':>30}{text}")
    return lines


def run_one(workload: str, seed: int, seconds: float, traced: bool, units: dict, why: str) -> dict:
    """Measure one workload; print the report and return the final JSON object."""
    deadline = time.monotonic() + BUDGET_S
    out = OUT / f"{workload}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    if traced:
        plain = measure(workload, seed, seconds, False, out, deadline)
        result = measure(workload, seed, seconds, True, out, deadline)
        untraced_s = statistics.mean(sweep_seconds(plain))
        metrics = dict(result["layers"])
        metrics["trace.overhead_frac"] = (statistics.mean(sweep_seconds(result)) - untraced_s) / untraced_s
        runs = [plain, result]
    else:
        setups = [json.loads(_python([str(HERE / "setup_probe.py")], deadline))["setup_s"] for _ in range(SETUP_SAMPLES)]
        result = measure(workload, seed, seconds, False, out, deadline)
        metrics = end_to_end(result, setups)
        runs = [result]
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    levels = [lv for r in runs for lv in r["levels"]]
    attempted = len(levels)
    failed = sum(not lv["ok"] for lv in levels)
    correct = not any(lv["exit"] == 0 and lv["problems"] for lv in levels)
    env = environment(result["env"], seed, out)

    print(f"== {workload}: seed {seed}, {seconds:g} s, trace {int(traced)} -- {why}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for r in runs:
        print(f"levels ({'traced' if r['traced'] else 'untraced'}, {r['sweeps']} sweep(s)):")
        print("\n".join(report_levels(r)))
    if traced:
        print("per-stage seconds (traced run):")
        print(result["stage_table"])
        print(f"spans: {(out / 'trace1' / 'spans.jsonl.gz').relative_to(ROOT)}")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.4f} (ops_attempted {attempted}); correct {correct}")
    print("per-layer metrics (per sweep):" if traced else "end-to-end metrics:")
    for name, value in metrics.items():
        print(f"  {name:<28} {_fmt(value):>14} {units[name]}")

    final = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (out / "summary.json").write_text(json.dumps({**final, "environment": env, "runs": runs}, indent=1))
    return final


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="polyvem benchmark")
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "polyvem" / "cli.py").is_file():
        print(f"error: no polyvem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        doc = spec()
        units = doc["per_layer" if args.trace else "end_to_end"]
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        finals = {}
        for name in names:
            finals[name] = run_one(name, args.seed, args.seconds, bool(args.trace), units, doc["why"][name])
            print(json.dumps(finals[name]), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) > 1:
        print(
            json.dumps(
                {
                    "correct": all(f["correct"] for f in finals.values()),
                    "attempted": sum(f["attempted"] for f in finals.values()),
                    "failed": sum(f["failed"] for f in finals.values()),
                    "metrics": {f"{w}.{k}": v for w, f in finals.items() for k, v in f["metrics"].items()},
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
