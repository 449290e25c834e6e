"""One measured run of a benchmark workload, in a fresh Python process.

Imports ``polyvem.cli`` from the checkout's ``src`` directory and calls
``polyvem.cli.main`` in-process once per refinement level, the same entry
point the ``polyvem`` console script uses.  Only that call is timed; the
oracle reads the level's files afterwards.  Whole sweeps over the levels
repeat while the next one is expected to end within ``--seconds``.

    python3 perfbench/worker.py --workload eig_T --seed 1 --seconds 10 \
        --trace 1 --out .perfbench_out/eig_T --result result.json

``run.py`` starts this script; it is not meant to be run by hand except to
debug one workload.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from setup_probe import import_cli
from workloads import WORKLOADS, check_level, check_sweep, mesh_round_trip, observe

# thread pools the worker's environment pins; recorded with every result
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_level(cli, workload, N: int, seed: int, out: Path, rec=None, op=None) -> dict:
    """Run one level through cli.main and check what it wrote."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    argv = workload.argv(N, seed, str(out))
    stdout, stderr = io.StringIO(), io.StringIO()
    message = ""
    if rec is not None:
        rec.op = op
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        message = traceback.format_exc().strip().splitlines()[-1]
    seconds = time.perf_counter() - t0
    if rec is not None:
        rec.op = None
    message = message or stderr.getvalue().strip()

    level = {"N": N, "seconds": seconds, "exit": code, "message": message, "problems": [], "observed": None}
    if code != 0:
        return level
    try:
        level["observed"] = observe(workload.name, N, out)
        level["problems"] = check_level(workload.name, N, level["observed"])
        if workload.name == "mesh_th3":
            level["problems"] += mesh_round_trip(N, out, level["observed"])
    except (OSError, ValueError, IndexError, KeyError) as exc:
        level["problems"].append(f"could not read the output: {type(exc).__name__}: {exc}")
    return level


def run_workload(cli, name: str, seed: int, seconds: float, out: Path, rec=None, levels=None) -> dict:
    """Sweeps over the workload's levels; see the module docstring."""
    workload = WORKLOADS[name]
    levels = tuple(levels or workload.levels)
    records, ops = [], []
    start = time.perf_counter()
    sweeps = 0
    while True:
        t_sweep = time.perf_counter()
        sweep = []
        for N in levels:
            op = len(ops)
            level = run_level(cli, workload, N, seed, out / f"N{N}", rec, op)
            level["sweep"] = sweeps
            sweep.append(level)
            ops.append((op, f"{name} N={N} sweep {sweeps}", level))
        passed = [(lv["N"], lv["observed"]) for lv in sweep if lv["exit"] == 0 and not lv["problems"]]
        blame = check_sweep(name, passed)
        for lv in sweep:
            lv["problems"] += blame.get(lv["N"], [])
        records += sweep
        sweeps += 1
        now = time.perf_counter()
        if now - start + (now - t_sweep) > seconds:
            break
    for lv in records:
        lv["ok"] = lv["exit"] == 0 and not lv["problems"]
        lv["cells"] = (lv["observed"] or {}).get("cells")
    return {"sweeps": sweeps, "levels": records, "ops": ops}


def status(level: dict) -> str:
    if level["exit"] != 0:
        return f"failed: exit {level['exit']}"
    return "wrong output" if level["problems"] else "ok"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    p.add_argument("--result", type=Path)
    args = p.parse_args(argv)

    cli, _ = import_cli()
    rec = None
    if args.trace:
        import spans

        rec = spans.Recorder()
        spans.install(rec)
    run = run_workload(cli, args.workload, args.seed, args.seconds, args.out, rec)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "sweeps": run["sweeps"],
        "levels": run["levels"],
        "env": environment(),
    }
    if rec is not None:
        result["layers"] = spans.layer_metrics(rec, run["sweeps"])
        result["stage_table"] = spans.stage_table(rec, [(op, label, status(lv)) for op, label, lv in run["ops"]])
        spans.write_spans(rec, args.out / "spans.jsonl.gz")
    args.result.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
