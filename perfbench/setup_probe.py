"""Time what a CLI user pays on every call: import polyvem.cli, build its parser.

    python3 perfbench/setup_probe.py      # prints {"setup_s": ...}

Only ``sys``, ``os`` and ``time`` are loaded before the clock starts, so
the standard-library modules polyvem needs are counted as well.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_cli():
    """Import polyvem.cli from the checkout and build its parser; (module, seconds)."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import polyvem.cli as cli

    cli.build_parser()
    seconds = time.perf_counter() - t0
    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"error: polyvem was imported from {where}, not from {SRC}")
    return cli, seconds


if __name__ == "__main__":
    print('{"setup_s": %r}' % import_cli()[1])
