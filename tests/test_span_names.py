"""The names the benchmark's span tracer wraps must exist in polyvem.

`perfbench/spans.py` replaces module attributes of polyvem by name
(`assembly.local_forms`, `analysis.polygon_quadrature`, the names
`polyvem.cli` imports, ...).  A refactor that drops one still passes every
untraced run and fails only when the tracer is installed.  `install`
monkeypatches the modules, so it runs in a subprocess of its own.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_span_tracer_installs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Recorder())"],
        cwd=ROOT / "perfbench",
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
