"""Fig. 13 — factor analysis: the evolution from FUSEE to Aceso (§4.4).

Four configurations, cumulative:

* ORIGIN — FUSEE (compact 8 B slots, replicated index+KVs, value cache);
* +SLOT  — 16 B slots (bandwidth cost on reads, writes unaffected);
* +CKPT  — checkpointed index + erasure-coded KVs (big write win, small
  read dip from checkpoint bandwidth);
* +CACHE — the addr+value cache (read recovery) = full Aceso.
"""

from __future__ import annotations

from .common import (
    OPS,
    FigureResult,
    Scale,
    build_cluster,
    load_micro,
    micro_throughput,
)

__all__ = ["run_fig13", "FACTOR_STEPS"]

FACTOR_STEPS = ("origin", "+slot", "+ckpt", "+cache")


def run_fig13(scale: Scale) -> FigureResult:
    result = FigureResult(
        figure="fig13",
        title="Factor analysis: ORIGIN -> +SLOT -> +CKPT -> +CACHE",
        columns=["step", "op", "mops"],
        notes="Expected: +SLOT dips reads; +CKPT boosts writes sharply; "
              "+CACHE recovers reads above ORIGIN.",
    )
    for step in FACTOR_STEPS:
        cluster = build_cluster(step, scale)
        runner = load_micro(cluster, scale)
        for op in OPS:
            res = micro_throughput(cluster, scale, op, runner=runner)
            result.add(step=step, op=op, mops=res.throughput(op) / 1e6)
    def mops(step, op):
        return result.lookup(step=step, op=op)["mops"]

    boosts = [mops("+ckpt", op) > 1.15 * mops("+slot", op)
              for op in ("UPDATE", "INSERT", "DELETE")]
    result.add_verdict("+ckpt boosts writes over +slot", all(boosts),
                       f"UPDATE/INSERT/DELETE above 1.15x={boosts}")
    result.add_verdict("+slot leaves writes roughly unchanged (> 0.8x)",
                       mops("+slot", "UPDATE") > 0.8 * mops("origin", "UPDATE"),
                       f"UPDATE {mops('origin', 'UPDATE'):.3f} -> "
                       f"{mops('+slot', 'UPDATE'):.3f} Mops")
    cache_r = mops("+cache", "SEARCH")
    ckpt_r = mops("+ckpt", "SEARCH")
    result.add_verdict("+cache recovers reads", cache_r > ckpt_r,
                       f"SEARCH {ckpt_r:.3f} -> {cache_r:.3f} Mops")
    origin_r = mops("origin", "SEARCH")
    result.add_verdict("full system reads at ORIGIN's level (> 0.9x)",
                       cache_r > 0.9 * origin_r,
                       f"SEARCH {origin_r:.3f} -> {cache_r:.3f} Mops "
                       f"(paper 1.28x)")
    return result
