"""Fig. 20 — impact of the memory block size (§4.5).

Expected shapes: UPDATE throughput rises with the block size (fewer
allocation RPCs per KV write); index-recovery time is worst at small
blocks (per-block overheads defeat the read/decode pipeline) and grows
again at very large blocks (bigger unfilled blocks to decode).
"""

from __future__ import annotations

from ..workloads import WorkloadRunner, load_ops
from .common import (
    FigureResult,
    bench_seed,
    Scale,
    build_cluster,
    load_micro,
    micro_throughput,
)
from .fig_recovery import crash_recover_report

__all__ = ["run_fig20"]

#: Block sizes per scale tier (the paper sweeps 16 KB - 16 MB).
_BLOCK_SIZES = {
    "smoke": (4 * 1024, 16 * 1024, 64 * 1024),
    "small": (4 * 1024, 16 * 1024, 64 * 1024, 256 * 1024),
}


def run_fig20(scale: Scale) -> FigureResult:
    result = FigureResult(
        figure="fig20",
        title="Impact of the memory block size",
        columns=["block_kb", "update_mops", "index_ms", "total_ms"],
        notes="Expected: UPDATE throughput rises with block size (fewer "
              "allocation RPCs); recovery time is worst at the extremes.",
    )
    sizes = _BLOCK_SIZES.get(scale.name, _BLOCK_SIZES["smoke"])
    pool_bytes = scale.blocks_per_mn * scale.block_size
    for block_size in sizes:
        def mutate(cfg, block_size=block_size):
            cfg.cluster.block_size = block_size
            cfg.cluster.blocks_per_mn = max(16, pool_bytes // block_size)

        # throughput half
        cluster = build_cluster("aceso", scale, mutate=mutate)
        runner = load_micro(cluster, scale)
        update = micro_throughput(cluster, scale, "UPDATE", runner=runner)

        # recovery half (fresh cluster, settled checkpoints)
        cluster2 = build_cluster("aceso", scale, mutate=lambda cfg, b=block_size: (
            mutate(cfg), setattr(cfg.checkpoint, "interval", 0.02))[0])
        runner2 = WorkloadRunner(cluster2)
        runner2.load([load_ops(c.cli_id, scale.keys_per_client,
                               scale.kv_size - 64, seed=bench_seed())
                      for c in cluster2.clients])
        cluster2.run(cluster2.env.now + 0.2)
        report = crash_recover_report(cluster2)

        result.add(block_kb=block_size // 1024,
                   update_mops=update.throughput("UPDATE") / 1e6,
                   index_ms=report.index_time * 1e3,
                   total_ms=report.total_time * 1e3)
    mops = result.series("update_mops")
    result.add_verdict("UPDATE throughput rises with block size",
                       mops[-1] > mops[0],
                       f"{mops[0]:.3f} -> {mops[-1]:.3f} Mops")
    total = result.series("total_ms")
    result.add_verdict("recovery completes at every block size",
                       all(t > 0 for t in total),
                       f"total {min(total):.2f} - {max(total):.2f} ms")
    return result
