"""Table 3 — MN server CPU utilisation (§4.4).

All clients run write-heavy microbenchmarks while the four server cores
(RPC serving, erasure coding, checkpoint sending, checkpoint receiving)
are metered over the measurement window.  Expected: every core well below
50%, independent of the client count — the paper's argument that weak MN
compute suffices.
"""

from __future__ import annotations

from ..workloads import micro_stream
from .common import (FigureResult, Scale, bench_seed, build_cluster,
                     load_micro)

__all__ = ["run_tab03"]


def run_tab03(scale: Scale) -> FigureResult:
    result = FigureResult(
        figure="tab03",
        title="Average MN core utilisation under a 100% write workload",
        columns=["core", "utilisation"],
        notes="Expected: all four cores below 50% (paper: 3.8% / 41.9% / "
              "29.1% / 43.1%).",
    )

    def mutate(cfg):
        cfg.checkpoint.interval = 0.01  # keep the ckpt cores busy in a
        # short window (paper scale: 500 ms rounds over long runs)

    cluster = build_cluster("aceso", scale, mutate=mutate)
    runner = load_micro(cluster, scale)
    for mn in cluster.mns.values():
        for core in (mn.rpc_core, mn.ec_core, mn.ckpt_send_core,
                     mn.ckpt_recv_core):
            core.reset_accounting()
    start = cluster.env.now
    streams = [micro_stream("UPDATE", c.cli_id, scale.keys_per_client,
                            scale.kv_size - 64, seed=bench_seed())
               for c in cluster.clients]
    runner.measure(streams, duration=scale.duration * 4)
    window = cluster.env.now - start
    num_mns = len(cluster.mns)
    totals = {"rpc": 0.0, "ec": 0.0, "ckpt_send": 0.0, "ckpt_recv": 0.0}
    for mn in cluster.mns.values():
        for name, value in mn.cpu_utilisation(window).items():
            totals[name] += value
    for name in ("rpc", "ec", "ckpt_send", "ckpt_recv"):
        result.add(core=name, utilisation=totals[name] / num_mns)
    utils = result.series("utilisation")
    result.add_verdict("every MN core below 50%",
                       all(0.0 <= u < 0.5 for u in utils),
                       f"max={max(utils):.1%}")
    rpc = result.lookup(core="rpc")["utilisation"]
    others = [r["utilisation"] for r in result.rows if r["core"] != "rpc"]
    result.add_verdict("RPC core no busier than the others (+5 points)",
                       rpc <= max(others) + 0.05,
                       f"rpc={rpc:.1%}, others {min(others):.1%} - "
                       f"{max(others):.1%} (paper 3.8%, the lightest)")
    return result
