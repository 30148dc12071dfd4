"""Figs. 10, 11, 15 — macrobenchmarks (§4.3, §4.5).

* Fig. 10: YCSB A-D (Zipf 0.99 over a shared key space).  Expected:
  Aceso wins big on the write-heavy A (paper 1.63x) and modestly on the
  read-heavy B/C/D (paper up to 1.28x).
* Fig. 11: Twitter-cluster mixes.  Expected: small win on STORAGE
  (read-dominant), large on COMPUTE/TRANSIENT (write-heavy).
* Fig. 15: throughput across UPDATE:SEARCH ratios.  Expected: both fall
  as updates grow; Aceso stays ahead at every ratio.
"""

from __future__ import annotations

from ..workloads import mix_stream
from .common import (
    FigureResult,
    bench_seed,
    Scale,
    build_cluster,
    run_mix,
    twitter_result,
    ycsb_result,
)

__all__ = ["run_fig10", "run_fig11", "run_fig15"]

YCSB_WORKLOADS = ("A", "B", "C", "D")
TWITTER_TRACES = ("STORAGE", "COMPUTE", "TRANSIENT")
UPDATE_RATIOS = (0.0, 0.25, 0.5, 0.75, 1.0)


def run_fig10(scale: Scale) -> FigureResult:
    result = FigureResult(
        figure="fig10",
        title="YCSB throughput, Aceso vs FUSEE",
        columns=["workload", "system", "mops", "vs_fusee"],
        notes="Expected: Aceso ahead on every workload, most on A "
              "(write-heavy, paper 1.63x).",
    )
    for workload in YCSB_WORKLOADS:
        base = None
        for system in ("fusee", "aceso"):
            cluster = build_cluster(system, scale)
            res = ycsb_result(cluster, scale, workload)
            mops = res.total_ops / res.duration / 1e6
            if system == "fusee":
                base = mops
            result.add(workload=workload, system=system, mops=mops,
                       vs_fusee=mops / base if base else 0.0)
    gains = {w: result.lookup(workload=w, system="aceso")["vs_fusee"]
             for w in YCSB_WORKLOADS}
    result.add_verdict(
        "aceso ahead on every YCSB workload",
        all(g > 1.0 for g in gains.values()),
        ", ".join(f"{w}={g:.2f}x" for w, g in gains.items()),
    )
    result.add_verdict(
        "write-heavy A gains most (> 1.2x, >= 0.95x of B and C)",
        gains["A"] > 1.2
        and gains["A"] >= 0.95 * max(gains["B"], gains["C"]),
        f"A={gains['A']:.2f}x (paper 1.63)",
    )
    return result


def run_fig11(scale: Scale) -> FigureResult:
    result = FigureResult(
        figure="fig11",
        title="Twitter-trace throughput, Aceso vs FUSEE",
        columns=["trace", "system", "mops", "vs_fusee"],
        notes="Expected: modest win on STORAGE (paper 1.10x), large on "
              "COMPUTE/TRANSIENT (paper up to 1.94x).",
    )
    for trace in TWITTER_TRACES:
        base = None
        for system in ("fusee", "aceso"):
            cluster = build_cluster(system, scale)
            res = twitter_result(cluster, scale, trace)
            mops = res.total_ops / res.duration / 1e6
            if system == "fusee":
                base = mops
            result.add(trace=trace, system=system, mops=mops,
                       vs_fusee=mops / base if base else 0.0)
    gains = {t: result.lookup(trace=t, system="aceso")["vs_fusee"]
             for t in TWITTER_TRACES}
    result.add_verdict(
        "aceso ahead on every Twitter trace",
        all(g > 1.0 for g in gains.values()),
        ", ".join(f"{t}={g:.2f}x" for t, g in gains.items()),
    )
    result.add_verdict(
        "write-heavy traces gain most (COMPUTE > STORAGE, best > 1.15x)",
        gains["COMPUTE"] > gains["STORAGE"]
        and max(gains["COMPUTE"], gains["TRANSIENT"]) > 1.15,
        "paper: STORAGE 1.10x, up to 1.94x",
    )
    return result


def run_fig15(scale: Scale) -> FigureResult:
    result = FigureResult(
        figure="fig15",
        title="Throughput vs UPDATE ratio",
        columns=["update_ratio", "system", "mops"],
        notes="Expected: throughput declines with the update share; Aceso "
              "above FUSEE at every ratio.",
    )
    for ratio in UPDATE_RATIOS:
        mix = {}
        if ratio > 0:
            mix["UPDATE"] = ratio
        if ratio < 1:
            mix["SEARCH"] = 1.0 - ratio
        for system in ("fusee", "aceso"):
            cluster = build_cluster(system, scale)
            res = run_mix(
                cluster, scale,
                lambda cli_id: mix_stream(mix, cli_id, scale.total_keys,
                                          scale.kv_size - 64,
                                          seed=bench_seed()),
            )
            result.add(update_ratio=ratio, system=system,
                       mops=res.total_ops / res.duration / 1e6)
    ahead = [
        result.lookup(update_ratio=r, system="aceso")["mops"]
        >= result.lookup(update_ratio=r, system="fusee")["mops"]
        for r in UPDATE_RATIOS
    ]
    result.add_verdict("aceso at/above fusee at every ratio", all(ahead),
                       f"per-ratio={ahead}")

    def mops(ratio, system):
        return result.lookup(update_ratio=ratio, system=system)["mops"]

    declines = [mops(1.0, system) < mops(0.0, system)
                for system in ("fusee", "aceso")]
    result.add_verdict("updates cost more than reads", all(declines),
                       f"write-only below read-only (fusee, aceso)="
                       f"{declines}")
    gap_low = mops(0.25, "aceso") / mops(0.25, "fusee")
    gap_high = mops(1.0, "aceso") / mops(1.0, "fusee")
    result.add_verdict("aceso's lead holds as updates grow (>= 0.9x)",
                       gap_high > 0.9 * gap_low,
                       f"{gap_low:.2f}x at 25% -> {gap_high:.2f}x at 100%")
    return result
