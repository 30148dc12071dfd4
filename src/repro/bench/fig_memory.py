"""Fig. 12 — memory distribution after a bulk write phase (§4.4).

Every client inserts a fixed number of unique KV pairs into both systems;
the Block-Area bytes are then broken down into Valid / Redundancy / Delta
(and Obsolete/Unused, which the paper folds into its bars).

Expected shape: Aceso's redundancy is parity (m/k = 2/3 of the valid
bytes) instead of FUSEE's n-1 = 2 full copies; delta blocks are ~1% —
overall ~44% total space saving.
"""

from __future__ import annotations

from ..workloads import WorkloadRunner, load_ops
from .common import FigureResult, Scale, bench_seed, build_cluster

__all__ = ["run_fig12"]


def run_fig12(scale: Scale) -> FigureResult:
    result = FigureResult(
        figure="fig12",
        title="Memory distribution (MiB) after bulk writes",
        columns=["system", "valid", "redundancy", "delta", "obsolete",
                 "unused", "total"],
        notes="Expected: Aceso total ~0.56x of FUSEE (paper: 44% saving); "
              "delta ~1% of data.",
    )
    totals = {}
    # Size the bulk load like the paper's (184 clients x 300k writes =
    # ~150 blocks each): enough full blocks per client that open-block
    # tails and DELTA twins amortise to a few percent.
    slot_size = ((scale.kv_size + 63) // 64) * 64
    keys = 20 * (scale.block_size // slot_size)
    blocks_needed = 22 * scale.num_cns * scale.clients_per_cn
    for system in ("fusee", "aceso"):
        def mutate(cfg):
            cfg.cluster.blocks_per_mn = max(cfg.cluster.blocks_per_mn,
                                            blocks_needed)

        cluster = build_cluster(system, scale, mutate=mutate)
        runner = WorkloadRunner(cluster)
        runner.load([load_ops(c.cli_id, keys, scale.kv_size - 64,
                              seed=bench_seed())
                     for c in cluster.clients])
        cluster.run(cluster.env.now + 0.05)  # drain seals/folds
        dist = cluster.memory_distribution()
        mib = 1 << 20
        totals[system] = dist.total
        result.add(system=system,
                   valid=dist.valid / mib,
                   redundancy=dist.redundancy / mib,
                   delta=dist.delta / mib,
                   obsolete=dist.obsolete / mib,
                   unused=dist.unused_in_open_blocks / mib,
                   total=dist.total / mib)
    saving = 1.0 - totals["aceso"] / totals["fusee"]
    result.notes += f"  Measured saving: {saving:.1%}."
    result.add_verdict("aceso uses less memory than fusee", saving > 0.25,
                       f"saving={saving:.1%} (bar 25%, paper 44%)")
    aceso = result.lookup(system="aceso")
    fusee = result.lookup(system="fusee")
    result.add_verdict(
        "redundancy: fusee 2 copies (> 1.8x valid), aceso parity (< 1.2x)",
        fusee["redundancy"] > 1.8 * fusee["valid"]
        and aceso["redundancy"] < 1.2 * aceso["valid"],
        f"fusee {fusee['redundancy']:.1f} / {fusee['valid']:.1f} MiB, "
        f"aceso {aceso['redundancy']:.1f} / {aceso['valid']:.1f} MiB")
    result.add_verdict("delta blocks are a small overhead (< 15% of valid)",
                       aceso["delta"] < 0.15 * aceso["valid"],
                       f"{aceso['delta']:.1f} / {aceso['valid']:.1f} MiB "
                       f"(paper ~1%)")
    return result
