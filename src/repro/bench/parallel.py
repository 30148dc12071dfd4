"""Parallel benchmark driver: fan (figure, seed) cells over processes.

``python -m repro.bench all --jobs N`` decomposes the requested targets
into independent *cells* — one per (figure, repeat-seed) pair — and runs
them on a :mod:`multiprocessing` pool.  Each cell builds its own
simulated cluster inside the worker process, so cells share nothing and
the fan-out is embarrassingly parallel.

Determinism: a cell's entire workload derives from its seed (set via
:func:`~repro.bench.common.set_seed` inside the worker before the figure
runs), and ``Pool.map`` returns results in submission order, so merging
is order-stable.  ``--jobs 1`` routes through the exact same cell
decomposition with a plain ``map``, which is how the harness guarantees
serial and parallel runs emit identical ``BENCH_<figure>.json``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import obs_provenance
from ..sim import sched_provenance
from .common import FigureResult, average_results, set_seed, set_tracing

__all__ = ["Cell", "FigureRun", "run_targets"]

#: One unit of parallel work: a figure run at a specific seed.
Cell = Tuple[str, str, int, bool, str]  # (figure, scale, seed, trace, dir)


@dataclass
class FigureRun:
    """Merged outcome of all cells of one figure."""

    name: str
    result: FigureResult
    #: Rendered trace reports + paths written, in cell order.
    trace_reports: List[str] = field(default_factory=list)
    #: Sum of worker-side wall seconds across this figure's cells.
    cpu_seconds: float = 0.0


def _run_cell(cell: Cell):
    """Worker entry: run one figure once at one seed (module-level so it
    pickles across the process pool)."""
    from . import run_figure  # late import: avoid a cycle at module load

    name, scale, seed, trace, trace_dir = cell
    set_seed(seed)
    set_tracing(trace)
    start = time.perf_counter()
    result = run_figure(name, scale=scale)
    elapsed = time.perf_counter() - start
    reports = []
    attribution: Dict[str, list] = {}
    if trace:
        from ..obs.attr import attribution_tables, render_attribution
        from ..obs.export import render_report, write_chrome_trace
        from .common import drain_trace_bundles
        for i, obs in enumerate(drain_trace_bundles()):
            path = os.path.join(trace_dir, f"TRACE_{name}_s{seed}_{i}.json")
            write_chrome_trace(obs, path)
            report = (
                f"--- trace report: {name} seed={seed} cluster #{i} ---\n"
                + render_report(obs)
            )
            tables = attribution_tables(obs)
            if tables:
                attribution[f"s{seed}_{i}"] = tables
                report += "\n\n" + render_attribution(tables)
            reports.append(report + f"\n[wrote {path}]")
    return result, reports, elapsed, attribution


def run_targets(targets: Sequence[str], scale: str, *, seed: int = 0,
                repeat: int = 1, jobs: int = 1, trace: bool = False,
                trace_dir: str = ".") -> List[FigureRun]:
    """Run *targets*, each ``repeat`` times (seeds ``seed..seed+repeat-1``),
    across ``jobs`` worker processes; returns one merged
    :class:`FigureRun` per target, in input order."""
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    if repeat < 1:
        raise ValueError(f"--repeat must be >= 1, got {repeat}")
    cells: List[Cell] = [(name, scale, seed + i, trace, trace_dir)
                         for name in targets for i in range(repeat)]
    if jobs == 1 or len(cells) == 1:
        outs = [_run_cell(c) for c in cells]
    else:
        # fork keeps workers cheap (no re-import); each cell re-seeds
        # itself so inherited module state cannot leak into results.
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=min(jobs, len(cells))) as pool:
            outs = pool.map(_run_cell, cells)

    by_name: Dict[str, List] = {name: [] for name in targets}
    for (name, _scale, _seed, _tr, _dir), out in zip(cells, outs):
        by_name[name].append(out)
    runs: List[FigureRun] = []
    for name in targets:
        results = [result for result, _, _, _ in by_name[name]]
        merged = average_results(results)
        # ``jobs`` is deliberately NOT recorded: the json must be
        # byte-identical between serial and parallel runs of one seed.
        merged.meta.update(seed=seed, repeat=repeat, scale=scale,
                           **sched_provenance(), **obs_provenance())
        if trace:
            # Per-cluster latency-attribution tables (conservation is
            # asserted inside attribution_tables); cells are ordered the
            # same serially and in parallel, so the json stays stable.
            attribution: Dict[str, list] = {}
            for _, _, _, attr in by_name[name]:
                attribution.update(attr)
            if attribution:
                merged.meta["attribution"] = attribution
        reports = [r for _, rs, _, _ in by_name[name] for r in rs]
        cpu = sum(elapsed for _, _, elapsed, _ in by_name[name])
        runs.append(FigureRun(name=name, result=merged,
                              trace_reports=reports, cpu_seconds=cpu))
    return runs
