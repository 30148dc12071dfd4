"""Fig. 1 — the motivation experiments (§2.4, §2.5).

* Fig. 1a: FUSEE throughput and mean CAS count per op as the index/KV
  replica count grows 1 -> 3.  Expected shape: INSERT/UPDATE/DELETE lose
  ~half their throughput (>= n CASes per write), SEARCH is unaffected.
* Fig. 1b: Aceso KV throughput while the MNs periodically ship index
  checkpoints of growing size.  Expected shape: throughput (especially
  bandwidth-bound SEARCH) falls as the checkpoint bandwidth grows.

Checkpoint sizes are labelled with their paper-equivalent values: the
simulated interval is scaled down, and ``extra_bytes`` preserves the
bytes-per-second ratio of a 64..512 MB checkpoint every 500 ms.
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

__all__ = ["run_fig1a", "run_fig1b"]

#: Paper x-axis (MB per 500 ms round).
CKPT_SIZES_MB = (0, 64, 128, 256, 512)
#: Simulated checkpoint interval for Fig. 1b (paper: 0.5 s, scaled 50x).
_FIG1B_INTERVAL = 0.01


def run_fig1a(scale: Scale) -> FigureResult:
    result = FigureResult(
        figure="fig1a",
        title="FUSEE throughput / CAS count vs number of replicas",
        columns=["replicas", "op", "mops", "mean_cas"],
        notes="Expected: write ops degrade ~50% from 1 to 3 replicas; "
              "SEARCH unaffected (0 CAS).",
    )
    for replicas in (1, 2, 3):
        cluster = build_cluster("fusee", scale,
                                replication_factor=replicas)
        runner = load_micro(cluster, scale)
        for op in OPS:
            res = micro_throughput(cluster, scale, op, runner=runner)
            result.add(replicas=replicas, op=op,
                       mops=res.throughput(op) / 1e6,
                       mean_cas=res.mean_cas(op))

    def mops(replicas, op):
        return result.lookup(replicas=replicas, op=op)["mops"]

    writes = ("INSERT", "UPDATE", "DELETE")
    degrade = [mops(3, op) < 0.7 * mops(1, op) for op in writes]
    result.add_verdict("writes degrade 1 -> 3 replicas", all(degrade),
                       f"per-op below 0.7x={degrade}")
    cas = [result.lookup(replicas=3, op=op)["mean_cas"] for op in writes]
    result.add_verdict("writes issue >= 3 CAS at 3 replicas",
                       all(c >= 3.0 for c in cas), f"mean_cas={cas}")
    search_cas = result.lookup(replicas=3, op="SEARCH")["mean_cas"]
    result.add_verdict("SEARCH issues no CAS", search_cas == 0.0,
                       f"mean_cas={search_cas}")
    result.add_verdict("SEARCH unaffected by replicas",
                       mops(3, "SEARCH") > 0.9 * mops(1, "SEARCH"),
                       f"{mops(1, 'SEARCH'):.3f} -> "
                       f"{mops(3, 'SEARCH'):.3f} Mops")
    return result


def run_fig1b(scale: Scale) -> FigureResult:
    result = FigureResult(
        figure="fig1b",
        title="Aceso throughput vs index checkpoint size",
        columns=["ckpt_mb", "op", "mops"],
        notes="ckpt_mb is the paper-equivalent checkpoint size per 500 ms "
              "round (bandwidth ratio preserved). Expected: throughput "
              "falls as checkpoint bandwidth grows.",
    )
    for size_mb in CKPT_SIZES_MB:
        # Preserve the checkpoint-bandwidth : NIC-bandwidth ratio of the
        # paper (size/0.5s against 7 GB/s) at our scaled interval and
        # scaled NIC bandwidth.
        def mutate(cfg, size_mb=size_mb):
            paper_ratio = (size_mb * (1 << 20) / 0.5) / 7e9
            cfg.checkpoint.interval = _FIG1B_INTERVAL
            cfg.checkpoint.extra_bytes = int(
                paper_ratio * cfg.cluster.nic.bandwidth * _FIG1B_INTERVAL
            )

        cluster = build_cluster("aceso", scale, mutate=mutate)
        runner = load_micro(cluster, scale)
        for op in OPS:
            res = micro_throughput(cluster, scale, op, runner=runner)
            result.add(ckpt_mb=size_mb, op=op,
                       mops=res.throughput(op) / 1e6)
    biggest = CKPT_SIZES_MB[-1]
    falls = [
        result.lookup(ckpt_mb=biggest, op=op)["mops"]
        < result.lookup(ckpt_mb=0, op=op)["mops"]
        for op in OPS
    ]
    result.add_verdict(
        f"throughput falls by {biggest} MB checkpoints", all(falls),
        f"per-op={falls}",
    )
    return result
