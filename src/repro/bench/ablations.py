"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not figures from the paper — these isolate individual Aceso mechanisms:

* ``ckpt_compression`` — differential checkpointing with vs without
  compression (bytes on the wire per round and SEARCH throughput).
* ``codec_writes`` — XOR vs RS codec under a 100% UPDATE load: since
  erasure coding is *offline* (§3.3.2), the client-visible write path
  should be nearly identical; only the MN EC-core utilisation differs.

MN recovery has no ablation: its read/decode pipeline (§3.4.1 remark 1)
has no off switch, and ``tests/test_recovery.py`` pins that it keeps the
recovering NIC busy.
"""

from __future__ import annotations

from .common import (FigureResult, Scale, build_cluster, load_micro,
                     micro_throughput)

__all__ = ["run_ablation_compression", "run_ablation_codec_writes"]


def run_ablation_compression(scale: Scale) -> FigureResult:
    result = FigureResult(
        figure="abl-compression",
        title="Ablation: checkpoint delta compression",
        columns=["compression", "ckpt_bytes_per_round", "search_mops"],
        notes="Expected: compression shrinks checkpoint traffic by orders "
              "of magnitude, protecting read throughput.",
    )
    for compression in ("zlib", "none"):
        def mutate(cfg, compression=compression):
            cfg.checkpoint.compression = compression
            cfg.checkpoint.interval = 0.005

        cluster = build_cluster("aceso", scale, mutate=mutate)
        runner = load_micro(cluster, scale)
        res = micro_throughput(cluster, scale, "SEARCH", runner=runner)
        rounds = max(1, cluster.checkpoint_rounds())
        shipped = cluster.fabric.bytes_by_class.get("checkpoint", 0)
        result.add(compression=compression,
                   ckpt_bytes_per_round=shipped // rounds,
                   search_mops=res.throughput("SEARCH") / 1e6)
    zl = result.lookup(compression="zlib")["ckpt_bytes_per_round"]
    raw = result.lookup(compression="none")["ckpt_bytes_per_round"]
    result.add_verdict("compression shrinks checkpoint traffic",
                       zl < raw * 0.5, f"{raw} -> {zl} B/round")
    zl_r = result.lookup(compression="zlib")["search_mops"]
    raw_r = result.lookup(compression="none")["search_mops"]
    result.add_verdict("compression keeps reads (>= 0.9x)",
                       zl_r >= raw_r * 0.9,
                       f"SEARCH {raw_r:.3f} -> {zl_r:.3f} Mops")
    return result


def run_ablation_codec_writes(scale: Scale) -> FigureResult:
    result = FigureResult(
        figure="abl-codec",
        title="Ablation: XOR vs RS under 100% UPDATEs (offline EC)",
        columns=["codec", "update_mops", "ec_core_util"],
        notes="Expected: client throughput nearly identical (coding is "
              "off the critical path); the RS EC core works harder.",
    )
    for codec in ("xor", "rs"):
        def mutate(cfg, codec=codec):
            cfg.coding.codec = codec

        cluster = build_cluster("aceso", scale, mutate=mutate)
        runner = load_micro(cluster, scale)
        for mn in cluster.mns.values():
            mn.ec_core.reset_accounting()
        start = cluster.env.now
        res = micro_throughput(cluster, scale, "UPDATE", runner=runner)
        window = cluster.env.now - start
        util = sum(mn.ec_core.utilisation(window)
                   for mn in cluster.mns.values()) / len(cluster.mns)
        result.add(codec=codec, update_mops=res.throughput("UPDATE") / 1e6,
                   ec_core_util=util)
    xor = result.lookup(codec="xor")
    rs = result.lookup(codec="rs")
    close = (min(xor["update_mops"], rs["update_mops"])
             / max(xor["update_mops"], rs["update_mops"])
             if max(xor["update_mops"], rs["update_mops"]) else 0.0)
    result.add_verdict("codec choice off the write critical path",
                       close > 0.9, f"xor/rs tpt ratio={close:.2f}")
    result.add_verdict("RS EC core works at least as hard (>= 0.9x)",
                       rs["ec_core_util"] >= xor["ec_core_util"] * 0.9,
                       f"ec core {xor['ec_core_util']:.2%} (xor) vs "
                       f"{rs['ec_core_util']:.2%} (rs)")
    return result
