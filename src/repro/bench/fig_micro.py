"""Figs. 8 & 9 — microbenchmark throughput and latency (§4.2).

One run measures both: Aceso vs FUSEE across the four request types on
conflict-free per-client key ranges.  Expected shapes: Aceso improves
writes ~2-2.7x (single-CAS commit vs n-CAS replication; DELETE gains the
most) and reads modestly; P50/P99 latencies drop for writes.
"""

from __future__ import annotations

from typing import Tuple

from .common import (
    OPS,
    FigureResult,
    Scale,
    build_cluster,
    load_micro,
    micro_throughput,
)

__all__ = ["run_micro_comparison", "run_fig8", "run_fig9"]


def run_micro_comparison(scale: Scale) -> Tuple[FigureResult, FigureResult]:
    tpt = FigureResult(
        figure="fig8",
        title="Microbenchmark throughput, Aceso vs FUSEE",
        columns=["system", "op", "mops", "vs_fusee"],
        notes="Expected: Aceso wins all writes (paper: up to 2.67x on "
              "DELETE), modest SEARCH gain.",
    )
    lat = FigureResult(
        figure="fig9",
        title="Microbenchmark P50/P99 latency (us), Aceso vs FUSEE",
        columns=["system", "op", "p50_us", "p99_us"],
        notes="Expected: Aceso cuts write latencies (paper: up to 62% "
              "P50, 54% P99).",
    )
    throughput = {}
    for system in ("fusee", "aceso"):
        cluster = build_cluster(system, scale)
        runner = load_micro(cluster, scale)
        for op in OPS:
            res = micro_throughput(cluster, scale, op, runner=runner)
            throughput[(system, op)] = res.throughput(op)
            lat.add(system=system, op=op, p50_us=res.p50(op),
                    p99_us=res.p99(op))
    for system in ("fusee", "aceso"):
        for op in OPS:
            mops = throughput[(system, op)] / 1e6
            base = throughput[("fusee", op)]
            tpt.add(system=system, op=op, mops=mops,
                    vs_fusee=throughput[(system, op)] / base if base else 0.0)
    write_gains = [tpt.lookup(system="aceso", op=op)["vs_fusee"]
                   for op in ("INSERT", "UPDATE", "DELETE")]
    tpt.add_verdict(
        "aceso wins all writes", all(g > 1.2 for g in write_gains),
        f"vs_fusee={['%.2f' % g for g in write_gains]} (bar 1.2x)",
    )
    search = tpt.lookup(system="aceso", op="SEARCH")["vs_fusee"]
    tpt.add_verdict("SEARCH at par or better (> 0.9x)", search > 0.9,
                    f"vs_fusee={search:.2f} (paper 1.1)")
    if scale.name in ("medium", "paper"):
        # The paper's headline write ratios (2.3-2.7x, Fig. 8) are
        # measured with 184 clients saturating 5 MN NICs; the small
        # tiers compress them to ~1.4x because the NICs never fill.
        # At the saturated tiers, record whether the ratios open toward
        # the paper band — the claim EXPERIMENTS.md tracks.  Noisy: the
        # verdict is the measurement, not a regression gate, so it
        # stays out of the aggregate shape_ok.
        best = max(write_gains)
        tpt.add_verdict(
            "write ratios open toward paper band (>=2.0x)",
            best >= 2.0,
            f"best write gain {best:.2f}x at {scale.name} scale "
            f"({scale.num_cns} CNs x {scale.clients_per_cn} clients); "
            f"paper band 2.3-2.7x",
            noisy=True,
        )
    def cut(op: str, column: str = "p99_us") -> bool:
        return (lat.lookup(system="aceso", op=op)[column]
                < lat.lookup(system="fusee", op=op)[column])

    # INSERT P99 is known-noisy at smoke scale (seed-sensitive tail; see
    # ROADMAP): report it but keep it out of the aggregate shape_ok.
    lat.add_verdict("aceso cuts INSERT P99", cut("INSERT"), noisy=True)
    lat.add_verdict(
        "aceso cuts UPDATE/DELETE P99",
        cut("UPDATE") and cut("DELETE"),
        f"per-op={[cut('UPDATE'), cut('DELETE')]}",
    )
    p50 = [cut(op, "p50_us") for op in ("UPDATE", "DELETE")]
    lat.add_verdict("aceso cuts UPDATE/DELETE P50", all(p50),
                    f"per-op={p50}")
    return tpt, lat


def run_fig8(scale: Scale) -> FigureResult:
    return run_micro_comparison(scale)[0]


def run_fig9(scale: Scale) -> FigureResult:
    return run_micro_comparison(scale)[1]
