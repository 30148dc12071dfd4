"""Shared infrastructure for the per-figure benchmark harness.

Every figure/table of the paper's §4 has a runner module in this package;
each exposes ``run(scale)`` returning a :class:`FigureResult` whose rows
are the same series the paper plots.  ``scale`` picks the geometry:

* ``"smoke"`` — seconds-scale: the default of `python -m repro.bench`
  and the tier the CI bench-trend job runs;
* ``"small"`` — a few minutes for the full set;
* ``"medium"`` — 64 clients over 16 CNs; the NICs start saturating.
* ``"paper"`` — the paper's testbed geometry (23 CNs : 5 MNs, 184
  client threads); write paths run fully NIC-saturated, which is the
  regime where the paper's 2.3-2.7x write ratios live.  Minutes per
  figure — figure runs at this tier sit behind ``-m slow``.

Absolute numbers differ from the paper (its testbed is 28 physical
machines; ours is a calibrated simulator) — the *shapes* are the
reproduction target.  Each runner documents the expected shape and
checks it with ``add_verdict``; those verdicts are the harness's only
shape check, and :attr:`FigureResult.shape_ok` folds them into the one
pass bit that BENCH json and the exit codes of ``repro.bench``,
``repro.frontend`` and ``repro.chaos`` report.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from ..baselines.fusee import FuseeCluster
from ..config import SystemConfig, aceso_config, factor_config, fusee_config
from ..core.store import AcesoCluster
from ..workloads import (
    WorkloadRunner,
    load_ops,
    micro_stream,
    twitter_stream,
    ycsb_load_ops,
    ycsb_stream,
)

__all__ = ["FigureResult", "Scale", "SCALES", "build_cluster",
           "micro_throughput", "run_mix", "format_table",
           "set_tracing", "drain_trace_bundles", "set_seed", "bench_seed",
           "average_results"]

OPS = ("INSERT", "UPDATE", "SEARCH", "DELETE")

#: Base RNG seed for workload generation (``--seed``).  Every stream and
#: load-phase constructor in the harness derives its per-client RNG from
#: this, so two runs with the same seed are op-for-op identical.
_BENCH_SEED = 0


def set_seed(seed: int) -> None:
    global _BENCH_SEED
    _BENCH_SEED = int(seed)


def bench_seed() -> int:
    """The harness-wide workload seed (set by ``--seed``, default 0)."""
    return _BENCH_SEED

#: Opt-in tracing for benchmark runs (``--trace``): when enabled, every
#: cluster built without an explicit ``obs`` gets a fresh enabled bundle,
#: collected here for the harness to report/export after the run.
_TRACE_ENABLED = False
_TRACE_BUNDLES: List = []


def set_tracing(enabled: bool) -> None:
    global _TRACE_ENABLED
    _TRACE_ENABLED = enabled


def drain_trace_bundles() -> List:
    """Observability bundles created since the last drain (one per
    cluster built under ``set_tracing(True)``)."""
    bundles = list(_TRACE_BUNDLES)
    _TRACE_BUNDLES.clear()
    return bundles


@dataclass
class Scale:
    """Benchmark geometry for one scale tier."""

    name: str
    num_cns: int
    clients_per_cn: int
    index_buckets: int
    blocks_per_mn: int
    block_size: int
    kv_size: int
    keys_per_client: int
    total_keys: int              # shared key space (YCSB/Twitter)
    duration: float              # measurement window (simulated seconds)
    warmup: float

    def cluster_kwargs(self) -> Dict:
        return dict(num_cns=self.num_cns,
                    clients_per_cn=self.clients_per_cn,
                    index_buckets=self.index_buckets,
                    blocks_per_mn=self.blocks_per_mn,
                    block_size=self.block_size,
                    kv_size=self.kv_size)


SCALES: Dict[str, Scale] = {
    # 12+ clients with 1 KB KVs saturate the scaled MN NICs on writes
    # (the paper's operating point), with a CN:MN ratio high enough that
    # client-side NICs never bottleneck (paper: 23 CNs vs 5 MNs).
    "smoke": Scale(name="smoke", num_cns=6, clients_per_cn=2,
                   index_buckets=4096, blocks_per_mn=96,
                   block_size=256 * 1024, kv_size=1024,
                   keys_per_client=150, total_keys=1200,
                   duration=0.01, warmup=0.002),
    "small": Scale(name="small", num_cns=12, clients_per_cn=2,
                   index_buckets=8192, blocks_per_mn=160,
                   block_size=256 * 1024, kv_size=1024,
                   keys_per_client=250, total_keys=3000,
                   duration=0.02, warmup=0.005),
    "medium": Scale(name="medium", num_cns=16, clients_per_cn=4,
                    index_buckets=16384, blocks_per_mn=256,
                    block_size=256 * 1024, kv_size=1024,
                    keys_per_client=200, total_keys=6000,
                    duration=0.01, warmup=0.002),
    # The paper's testbed: 23 CNs and 5 MNs (the MN count is the
    # cluster default), 184 client threads — the NIC-saturated
    # operating point behind the headline write ratios.
    "paper": Scale(name="paper", num_cns=23, clients_per_cn=8,
                   index_buckets=65536, blocks_per_mn=512,
                   block_size=256 * 1024, kv_size=1024,
                   keys_per_client=200, total_keys=12000,
                   duration=0.005, warmup=0.001),
}


@dataclass
class FigureResult:
    """Rows regenerated for one paper figure/table."""

    figure: str
    title: str
    columns: List[str]
    rows: List[Dict] = field(default_factory=list)
    notes: str = ""
    #: Headline shape checks: [{"check", "ok", "detail"}, ...].
    verdicts: List[Dict] = field(default_factory=list)
    #: Run provenance (seed, scale, repeat count, checkpoint codec, ...).
    meta: Dict = field(default_factory=dict)
    #: Seed-sweep spread, populated by :func:`average_results` when
    #: ``--repeat`` > 1: one dict per row mapping each numeric column to
    #: ``{"mean", "stddev"}`` across the repeats.
    variance: List[Dict] = field(default_factory=list)

    def add(self, **row) -> None:
        self.rows.append(row)

    def add_verdict(self, check: str, ok: bool, detail: str = "",
                    *, noisy: bool = False) -> None:
        """Record whether one expected headline shape held in this run.

        ``noisy`` marks a check whose outcome is known to flip across
        seeds at small scales; it is still reported, but excluded from
        :attr:`shape_ok` so seed-sensitive flips don't read as
        regressions.
        """
        verdict = {"check": check, "ok": bool(ok), "detail": detail}
        if noisy:
            verdict["noisy"] = True
        self.verdicts.append(verdict)

    @property
    def shape_ok(self) -> bool:
        """Every non-noisy, non-flaky verdict passed.

        ``noisy`` checks are known seed-sensitive a priori; ``flaky``
        ones were *observed* flipping across a ``--repeat`` seed sweep.
        Neither belongs in the pass bit.
        """
        return all(v["ok"] for v in self.verdicts
                   if not v.get("noisy") and not v.get("flaky"))

    def series(self, key: str, where: Optional[Dict] = None) -> List:
        out = []
        for row in self.rows:
            if where and any(row.get(k) != v for k, v in where.items()):
                continue
            out.append(row[key])
        return out

    def lookup(self, **where):
        for row in self.rows:
            if all(row.get(k) == v for k, v in where.items()):
                return row
        raise KeyError(f"no row matching {where} in {self.figure}")

    def render(self) -> str:
        notes = self.notes
        if self.verdicts:
            lines = [
                f"[{'PASS' if v['ok'] else 'FAIL'}] {v['check']}"
                + (f" — {v['detail']}" if v["detail"] else "")
                for v in self.verdicts
            ]
            notes = (notes + "\n" if notes else "") + "\n".join(lines)
        return format_table(self.figure + " — " + self.title,
                            self.columns, self.rows, notes)

    def to_json_dict(self) -> Dict:
        """Machine-readable form of this figure's results."""

        def scrub(value):
            # NaN/inf are not valid JSON; null keeps consumers honest.
            if isinstance(value, float) and not math.isfinite(value):
                return None
            return value

        out = {
            "figure": self.figure,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [{k: scrub(v) for k, v in row.items()}
                     for row in self.rows],
            "notes": self.notes,
            "verdicts": list(self.verdicts),
            "shape_ok": self.shape_ok if self.verdicts else None,
            "meta": dict(self.meta),
        }
        if self.variance:
            out["variance"] = [
                {k: {kk: scrub(vv) for kk, vv in stats.items()}
                 for k, stats in row.items()}
                for row in self.variance
            ]
        return out

    def write_json(self, directory: str = ".") -> str:
        """Write ``BENCH_<figure>.json`` into *directory*; returns the
        path."""
        path = os.path.join(directory, f"BENCH_{self.figure}.json")
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")
        return path


def format_table(title: str, columns: Sequence[str],
                 rows: Sequence[Dict], notes: str = "") -> str:
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    widths = {c: len(c) for c in columns}
    rendered = []
    for row in rows:
        cells = {c: fmt(row.get(c, "")) for c in columns}
        for c in columns:
            widths[c] = max(widths[c], len(cells[c]))
        rendered.append(cells)
    lines = [title, "-" * len(title)]
    lines.append("  ".join(c.ljust(widths[c]) for c in columns))
    for cells in rendered:
        lines.append("  ".join(cells[c].rjust(widths[c]) for c in columns))
    if notes:
        lines.append("")
        lines.append(notes)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# cluster construction + measurement helpers
# ----------------------------------------------------------------------

def build_cluster(system: str, scale: Scale, *, replication_factor: int = 3,
                  mutate: Optional[Callable[[SystemConfig], None]] = None,
                  obs=None):
    """Build and start one system under test.

    ``system``: "aceso", "fusee", or a factor step ("origin", "+slot",
    "+ckpt", "+cache").  ``mutate`` may adjust the config (checkpoint
    interval, codec, ...) before construction.  ``obs`` opts the cluster
    into an :class:`~repro.obs.Observability` bundle (``--trace`` runs).
    """
    kwargs = scale.cluster_kwargs()
    if system == "aceso":
        cfg = aceso_config(**kwargs)
    elif system == "fusee":
        cfg = fusee_config(replication_factor=replication_factor, **kwargs)
    else:
        cfg = factor_config(system, **kwargs)
    if mutate is not None:
        mutate(cfg)
        cfg.validate()
    if obs is None and _TRACE_ENABLED:
        from ..obs import Observability
        obs = Observability(enabled=True)
        _TRACE_BUNDLES.append(obs)
    if cfg.ft.index_mode == "replication":
        cluster = FuseeCluster(cfg, obs=obs)
    else:
        cluster = AcesoCluster(cfg, obs=obs)
    cluster.start()
    return cluster


def load_micro(cluster, scale: Scale) -> WorkloadRunner:
    runner = WorkloadRunner(cluster)
    runner.load([load_ops(c.cli_id, scale.keys_per_client,
                          scale.kv_size - 64, seed=_BENCH_SEED)
                 for c in cluster.clients])
    return runner


def micro_throughput(cluster, scale: Scale, op: str,
                     runner: Optional[WorkloadRunner] = None):
    """Measure one microbenchmark op type; returns the RunResult."""
    if runner is None:
        runner = load_micro(cluster, scale)
    streams = [micro_stream(op, c.cli_id, scale.keys_per_client,
                            scale.kv_size - 64, seed=_BENCH_SEED)
               for c in cluster.clients]
    return runner.measure(streams, duration=scale.duration,
                          warmup=scale.warmup)


def run_mix(cluster, scale: Scale, stream_factory: Callable[[int], Iterator],
            *, load_shared: bool = True):
    """Load the shared YCSB-style key space and measure a mixed stream."""
    runner = WorkloadRunner(cluster)
    if load_shared:
        runner.load([
            ycsb_load_ops(c.cli_id, len(cluster.clients), scale.total_keys,
                          scale.kv_size - 64, seed=_BENCH_SEED)
            for c in cluster.clients
        ])
    streams = [stream_factory(c.cli_id) for c in cluster.clients]
    return runner.measure(streams, duration=scale.duration,
                          warmup=scale.warmup)


def ycsb_result(cluster, scale: Scale, workload: str):
    return run_mix(cluster, scale,
                   lambda cli_id: ycsb_stream(workload, cli_id,
                                              scale.total_keys,
                                              scale.kv_size - 64,
                                              seed=_BENCH_SEED))


def twitter_result(cluster, scale: Scale, trace: str):
    return run_mix(cluster, scale,
                   lambda cli_id: twitter_stream(trace, cli_id,
                                                 scale.total_keys,
                                                 scale.kv_size - 64,
                                                 seed=_BENCH_SEED))


def average_results(results: Sequence[FigureResult]) -> FigureResult:
    """Fold ``--repeat`` seed-sweep runs of one figure into one result.

    Numeric cells are averaged positionally across the repeats (every
    repeat regenerates the same row skeleton, only measurements differ);
    non-numeric cells come from the first run.  The per-cell spread is
    kept: ``merged.variance`` carries ``{"mean", "stddev"}`` (sample
    stddev across seeds) for every numeric cell, emitted as the
    ``variance`` block of the BENCH json.

    A shape verdict passes only if it passed in every repeat; a verdict
    whose outcome *flipped* across the seeds is additionally flagged
    ``flaky: true`` and excluded from :attr:`FigureResult.shape_ok` — a
    seed-sensitive check is a fact about noise, not a regression, and
    must not gate CI (the per-seed outcomes stay visible in ``detail``).
    """
    first = results[0]
    if len(results) == 1:
        return first
    merged = FigureResult(figure=first.figure, title=first.title,
                          columns=list(first.columns), notes=first.notes,
                          meta=dict(first.meta))
    n = len(results)
    for i, row in enumerate(first.rows):
        out = {}
        spread = {}
        for key, value in row.items():
            cells = [r.rows[i].get(key) for r in results]
            if (isinstance(value, (int, float)) and not isinstance(value, bool)
                    and all(isinstance(c, (int, float))
                            and not isinstance(c, bool) for c in cells)):
                mean = sum(cells) / n
                out[key] = mean
                stddev = math.sqrt(sum((c - mean) ** 2 for c in cells)
                                   / (n - 1))
                spread[key] = {"mean": mean, "stddev": stddev}
            else:
                out[key] = value
        merged.rows.append(out)
        merged.variance.append(spread)
    for i, verdict in enumerate(first.verdicts):
        oks = [r.verdicts[i]["ok"] for r in results if i < len(r.verdicts)]
        out = {
            "check": verdict["check"],
            "ok": all(oks),
            "detail": verdict["detail"]
            + f" [x{len(results)} repeats: "
            + "".join("P" if ok else "F" for ok in oks) + "]",
        }
        if verdict.get("noisy"):
            out["noisy"] = True
        if any(oks) and not all(oks):
            out["flaky"] = True
        merged.verdicts.append(out)
    return merged
