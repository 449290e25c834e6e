"""Span tracing installed from outside the program, and the per-layer metrics.

``install`` replaces module attributes of polyvem (the names ``polyvem.cli``
and the layer modules import from each other, and ``spla`` in
``polyvem.solvers``) with wrappers that record a span per call: name,
start, end, parent span and the operation (refinement level) it belongs
to.  Spans stay in memory until the run ends.  Nothing in polyvem itself
changes, so an untraced run executes exactly the program's code.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

# span record fields
NAME, START, END, PARENT, OP, STATUS = range(6)


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.op = None
        self.op_counts: dict = defaultdict(Counter)

    def count(self, key: str, n=1) -> None:
        self.counts[key] += n
        if self.op is not None:
            self.op_counts[self.op][key] += n

    def wrap(self, name: str, fn, after=None):
        """Wrap fn in a span; ``after(args, kwargs, result)`` runs in a
        ``trace.hook`` span of its own, so bookkeeping is not charged to the
        parent layer's self time."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, rec.stack[-1] if rec.stack else -1, rec.op, "ok"]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[STATUS] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter_ns()
                rec.stack.pop()
            if after is not None:
                rec.wrap("trace.hook", after)(args, kwargs, out)
            return out

        return traced


class _Proxy:
    """Attribute proxy for a module: overrides first, then the module."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def install(rec: Recorder) -> None:
    """Wrap the layer boundaries of polyvem so that calls record spans."""
    import dataclasses

    import polyvem.analysis as analysis
    import polyvem.assembly as assembly
    import polyvem.cli as cli
    import polyvem.mesh as mesh
    import polyvem.solvers as solvers
    import polyvem.vem_core as vem_core

    def on_mesh(args, kwargs, out):
        rec.count("mesh.cells", out.n_cells)

    def on_validate(args, kwargs, out):
        rec.count("mesh.validate_cells", out.cell_count)

    def on_write(args, kwargs, out):
        rec.count("mesh.bytes_written", os.path.getsize(args[0]))

    def on_assemble(args, kwargs, out):
        rec.count("assembly.nnz", sum(m.nnz for m in (out.A, out.B, out.C, out.M, out.K_coupling)))
        rec.count("assembly.dofs", out.n)

    def on_splu(args, kwargs, lu):
        rec.count("solvers.lu_nnz", lu.L.nnz + lu.U.nnz)
        rec.count("solvers.K_nnz", args[0].nnz)

    def eigs(op, *args, **kwargs):
        inner = op.matvec

        def matvec(v):
            rec.count("solvers.arnoldi_opapps")
            return inner(v)

        counted = solvers.spla.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
        return arnoldi(counted, *args, **kwargs)

    arnoldi = rec.wrap("solvers.arnoldi", solvers.spla.eigs)
    solvers.spla = _Proxy(
        solvers.spla, splu=rec.wrap("solvers.splu", solvers.spla.splu, on_splu), eigs=eigs
    )

    boundaries = {
        cli: {
            "main": ("cli.op", None),
            "generate_mesh": ("mesh.generate", on_mesh),
            "validate": ("mesh.validate", on_validate),
            "io_write": ("mesh.write", on_write),
            "export_vtk": ("mesh.write", on_write),
            "reentrant_corners": ("mesh.reentrant_corners", None),
            "build_coefficients": ("coefficients.build", None),
            "assemble": ("assembly.assemble", on_assemble),
            "apply_dirichlet_lift": ("assembly.lift", None),
            "expand_solution": ("assembly.expand", None),
            "solve_load": ("solvers.solve_load", None),
            "solve_eigs": ("solvers.solve_eigs", None),
            "error_l2": ("analysis.error_l2", None),
            "error_h1_semi": ("analysis.error_h1", None),
        },
        mesh: {"star_metric": ("geometry.star_metric", None)},
        assembly: {"local_forms": ("vem_core.local_forms", None)},
        vem_core: {"polygon_quadrature": ("geometry.quadrature", None)},
        analysis: {"polygon_quadrature": ("geometry.quadrature", None)},
    }
    for module, names in boundaries.items():
        for attr, (name, after) in names.items():
            setattr(module, attr, rec.wrap(name, getattr(module, attr), after))

    # a subclass, not a function, so isinstance checks against Polygon hold
    polygon = type("Polygon", (mesh.Polygon,), {"__init__": rec.wrap("geometry.polygon", mesh.Polygon.__init__)})
    for module in (mesh, assembly, analysis):
        module.Polygon = polygon

    def counted(fn):
        if fn is None:
            return None

        @functools.wraps(fn)
        def call(*args, **kwargs):
            rec.count("coefficients.calls")
            return fn(*args, **kwargs)

        return call

    def count_case(case):
        c = case.coeffs
        coeffs = dataclasses.replace(
            c, kappa=counted(c.kappa), theta=counted(c.theta), gamma=counted(c.gamma), f=counted(c.f)
        )
        return dataclasses.replace(case, coeffs=coeffs, u=counted(case.u), grad_u=counted(case.grad_u))

    cli.CASES = {key: count_case(case) for key, case in cli.CASES.items()}


# --- analysis of a finished trace --------------------------------------------


def self_times(spans: list) -> list:
    """Duration of each span minus the part of it its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s[START]
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][START]):
            lo = max(spans[c][START], reach)
            hi = min(spans[c][END], s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def summarize(spans: list) -> dict:
    """Per span name: calls, failures, total and self time in seconds."""
    selfs = self_times(spans)
    agg = defaultdict(lambda: {"calls": 0, "failures": 0, "total_s": 0.0, "self_s": 0.0})
    for s, own in zip(spans, selfs):
        a = agg[s[NAME]]
        a["calls"] += 1
        a["failures"] += s[STATUS] != "ok"
        a["total_s"] += (s[END] - s[START]) * 1e-9
        a["self_s"] += own * 1e-9
    return dict(agg)


def shift_retries(spans: list) -> int:
    """Failed factorizations inside solve_eigs: each one moved the shift."""
    return sum(
        1
        for s in spans
        if s[NAME] == "solvers.splu"
        and s[STATUS] != "ok"
        and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == "solvers.solve_eigs"
    )


def layer_metrics(rec: Recorder, sweeps: int) -> dict:
    """The per-layer metrics of the benchmark, per sweep of the workload."""
    agg = summarize(rec.spans)
    counts = rec.counts

    def tot(name):
        return agg.get(name, {}).get("total_s", 0.0) / sweeps

    def own(name):
        return agg.get(name, {}).get("self_s", 0.0) / sweeps

    def calls(name):
        return agg.get(name, {}).get("calls", 0) / sweeps

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "mesh.generate_s": tot("mesh.generate"),
        "mesh.validate_s": tot("mesh.validate"),
        "mesh.validate_self_s": own("mesh.validate"),
        "mesh.write_s": tot("mesh.write"),
        "mesh.bytes_written": counts["mesh.bytes_written"] / sweeps,
        "mesh.star_metric_calls": calls("geometry.star_metric"),
        "mesh.validate_cells": counts["mesh.validate_cells"] / sweeps,
        "geometry.polygon_s": tot("geometry.polygon"),
        "geometry.polygons_per_cell": ratio(calls("geometry.polygon"), counts["mesh.cells"] / sweeps),
        "geometry.quadrature_s": tot("geometry.quadrature"),
        "vem_core.local_forms_s": tot("vem_core.local_forms"),
        "vem_core.local_forms_calls": calls("vem_core.local_forms"),
        "coefficients.calls": counts["coefficients.calls"] / sweeps,
        "assembly.assemble_s": tot("assembly.assemble"),
        "assembly.self_s": own("assembly.assemble"),
        "assembly.nnz": counts["assembly.nnz"] / sweeps,
        "solvers.solve_load_s": tot("solvers.solve_load"),
        "solvers.splu_s": tot("solvers.splu"),
        "solvers.splu_calls": calls("solvers.splu"),
        "solvers.lu_fill": ratio(counts["solvers.lu_nnz"], counts["solvers.K_nnz"]),
        "solvers.solve_eigs_s": tot("solvers.solve_eigs"),
        "solvers.arnoldi_s": tot("solvers.arnoldi"),
        "solvers.arnoldi_opapps": counts["solvers.arnoldi_opapps"] / sweeps,
        "solvers.shift_retries": shift_retries(rec.spans) / sweeps,
        "solvers.failures": sum(
            agg.get(n, {}).get("failures", 0) for n in ("solvers.solve_load", "solvers.solve_eigs")
        )
        / sweeps,
        "analysis.error_l2_s": tot("analysis.error_l2"),
        "analysis.error_h1_s": tot("analysis.error_h1"),
        "cli.op_s": tot("cli.op"),
        "cli.self_s": own("cli.op"),
        "trace.hook_s": tot("trace.hook"),
        "trace.spans": len(rec.spans) / sweeps,
    }


# columns of the per-stage table: header -> span names summed into it
STAGES = {
    "mesh": ("mesh.generate",),
    "validate": ("mesh.validate",),
    "assemble": ("assembly.assemble",),
    "solve/eigs": ("solvers.solve_load", "solvers.solve_eigs"),
    "err L2": ("analysis.error_l2",),
    "err H1": ("analysis.error_h1",),
    "write": ("mesh.write",),
    "op": ("cli.op",),
}


def stage_table(rec: Recorder, ops: list) -> str:
    """Seconds per stage and level, in the layout of the ROADMAP baseline.

    ``ops`` holds (op id, label, status) in run order.
    """
    per_op = defaultdict(lambda: defaultdict(float))
    for s in rec.spans:
        per_op[s[OP]][s[NAME]] += (s[END] - s[START]) * 1e-9
    head = ["case", "cells / DOFs", *STAGES, "status"]
    rows = [head]
    for op, label, status in ops:
        t = per_op[op]
        c = rec.op_counts[op]
        sizes = f"{c['mesh.cells']} / {c['assembly.dofs'] or '-'}"
        rows.append(
            [label, sizes]
            + [f"{sum(t[n] for n in names):.3f}" if any(n in t for n in names) else "-" for names in STAGES.values()]
            + [status]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(head))]
    lines = [" | ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in rows]
    lines.insert(1, "-+-".join("-" * w for w in widths))
    return "\n".join(lines)


def write_spans(rec: Recorder, path: Path) -> None:
    """All spans as gzipped JSON lines: name, start_ns, end_ns, parent, op, status."""
    with gzip.open(path, "wt") as fh:
        for s in rec.spans:
            fh.write(json.dumps(s, separators=(",", ":")))
            fh.write("\n")
