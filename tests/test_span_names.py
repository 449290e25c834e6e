"""The names the benchmark's span tracer wraps must exist in polyvem.

`perfbench/spans.py` replaces module attributes of polyvem by name
(`assembly.local_forms`, `analysis.polygon_quadrature`, the names
`polyvem.cli` imports, ...).  A refactor that drops one still passes every
untraced run and fails only when the tracer is installed.  `install`
monkeypatches the modules, so it runs in a subprocess of its own.

The names `__all__` exports must exist too, so a deleted function leaves
no stale export behind.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import polyvem

ROOT = Path(__file__).resolve().parents[1]


def run_traced(code: str) -> subprocess.CompletedProcess:
    """Run code after installing the tracer in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", f"import spans; rec = spans.Recorder(); spans.install(rec); {code}"],
        cwd=ROOT / "perfbench",
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_span_tracer_installs():
    run_traced("pass")


def test_solver_calls_go_through_the_traced_spla(tmp_path):
    # the tracer sees factorizations and Arnoldi only through
    # `solvers.spla`; a solver that imported scipy.sparse.linalg itself
    # would still pass the smoke runs, with zero LU fill and operator counts
    runs = [
        ["solve", "--family", "th2", "--case", "test1", "--N", "8"],
        ["eig", "--family", "th2", "--case", "eigen_square", "--N", "8", "--eig-count", "2"],
    ]
    runs = [[*argv, "--out", str(tmp_path), "--quiet"] for argv in runs]
    proc = run_traced(
        "import json; import polyvem.cli as cli; "
        f"codes = [cli.main(argv) for argv in {runs!r}]; "
        "print(json.dumps([codes, sorted({s[spans.NAME] for s in rec.spans}), "
        "rec.counts['solvers.arnoldi_opapps']]))"
    )
    codes, names, opapps = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert {"solvers.splu", "solvers.arnoldi"} <= set(names)
    assert opapps > 0


def test_a_traced_solve_opens_every_span_on_the_main_thread(tmp_path):
    # the error moments run on a second thread while the main thread
    # solves; the tracer's span stack is shared between threads, so that
    # thread must enter no traced name.  Every span then closes on the
    # stack it opened, and lies within its parent's interval
    argv = ["solve", "--family", "th2", "--case", "test1", "--N", "8", "--out", str(tmp_path), "--quiet"]
    proc = run_traced(
        "import json, threading; import polyvem.cli as cli; "
        "openers = set(); "
        "Stack = type('Stack', (list,), {'append': lambda self, i: "
        "(openers.add(threading.get_ident()), list.append(self, i))[1]}); "
        "rec.stack = Stack(); "
        f"code = cli.main({argv!r}); "
        "print(json.dumps([code, openers == {threading.get_ident()}, rec.stack, rec.spans]))"
    )
    code, main_only, stack, spans_ = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0 and main_only and stack == []
    assert {"cli.op", "solvers.splu", "assembly.assemble"} <= {s[0] for s in spans_}
    for name, start, end, parent, _, status in spans_:
        assert start <= end and status == "ok"
        if parent >= 0:
            assert spans_[parent][1] <= start and end <= spans_[parent][2], name


@pytest.mark.parametrize(
    "module",
    ["polyvem", *(f"polyvem.{m.name}" for m in pkgutil.iter_modules(polyvem.__path__))],
)
def test_every_export_exists(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
