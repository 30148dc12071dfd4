"""Recovery experiments: Table 2, Fig. 16, Fig. 18, and the recovery half
of Fig. 20 (§4.4-4.5).

All of them drive the same scenario the paper uses for its *Degraded
Search* setup: clients bulk-write KV pairs, one MN is killed, and the full
tiered recovery runs; the per-stage breakdown comes from
:class:`~repro.core.recovery.RecoveryReport`.
"""

from __future__ import annotations

import time

import numpy as np

from ..cluster.master import MnState
from ..ec.stripe import make_codec
from ..workloads import WorkloadRunner, load_ops
from .common import FigureResult, Scale, bench_seed, build_cluster

__all__ = ["run_tab02", "run_fig16", "run_fig18", "crash_recover_report",
           "encode_throughput"]

_VICTIM = 1


def crash_recover_report(cluster, victim: int = _VICTIM):
    cluster.crash_mn(victim)
    done = cluster.master.milestone(victim, MnState.RECOVERED)
    cluster.env.run_until_event(done, limit=cluster.env.now + 600)
    return cluster._recovery.reports[-1]


def recovery_keys(scale: Scale, blocks_per_client: float = 3.0) -> int:
    """Keys per client so each fills ~`blocks_per_client` sealed blocks
    (recovery experiments need erasure-coded state to lose)."""
    slot_size = ((scale.kv_size + 63) // 64) * 64
    return int(blocks_per_client * (scale.block_size // slot_size))


def _loaded_cluster(scale: Scale, mutate=None, keys_factor: float = 1.0,
                    settle: float = 0.1):
    cluster = build_cluster("aceso", scale, mutate=mutate)
    runner = WorkloadRunner(cluster)
    keys = int(recovery_keys(scale) * keys_factor)
    runner.load([load_ops(c.cli_id, keys, scale.kv_size - 64,
                          seed=bench_seed())
                 for c in cluster.clients])
    cluster.run(cluster.env.now + settle)  # seal/fold + checkpoint rounds
    return cluster


def encode_throughput(codec_name: str, k: int = 3,
                      block_mb: int = 2) -> float:
    """Wall-clock encode throughput (GB/s) generating one parity set from
    k data + k delta blocks of ``block_mb`` MiB — the analogue of the
    paper's ISA-L performance test (Table 2's Test Tpt)."""
    block_size = block_mb << 20
    codec = make_codec(codec_name, k, block_size)
    rng = np.random.default_rng(7)
    blocks = [rng.integers(0, 256, block_size, dtype=np.uint8).tobytes()
              for _ in range(k)]
    deltas = [rng.integers(0, 256, block_size, dtype=np.uint8).tobytes()
              for _ in range(k)]
    codec.encode(blocks)  # warm caches (GF tables, numpy buffers)
    t0 = time.perf_counter()
    parity = bytearray(codec.encode(blocks)[0])
    for j, delta in enumerate(deltas):
        codec.apply_delta(parity, 0, j, delta)
    elapsed = time.perf_counter() - t0
    processed = 2 * k * block_size
    return processed / elapsed / 1e9


#: Table 2's columns; each recovery stage's ``<stage>_ms`` is among them,
#: in the order the stages end (``core.recovery.STAGES``).
TAB02_COLUMNS = ["codec", "read_meta_ms", "recover_lblock_ms",
                 "lblock_count", "read_rblock_ms", "rblock_count",
                 "read_ckpt_ms", "scan_kv_ms", "kv_count", "scan_tail_ms",
                 "scrub_ms", "apply_ms", "recover_old_ms", "old_count",
                 "rebaseline_ms", "total_ms", "twins_done_ms",
                 "recovery_bytes",
                 "recovering_nic_bytes", "nic_busy_ms", "helper_nic_busy_ms",
                 "test_gbps"]


def run_tab02(scale: Scale) -> FigureResult:
    result = FigureResult(
        figure="tab02",
        title="MN recovery breakdown: XOR vs Reed-Solomon",
        columns=list(TAB02_COLUMNS),
        notes="Expected: XOR beats RS on the erasure-coding stages "
              "(Recover LBlock / Recover OldLBlock) and in raw encode "
              "throughput; other stages are similar (paper: 18% total "
              "saving, 68% higher encode tpt).  Scan KV is EC-core time "
              "on whichever node walked: the holders walk their own "
              "recent blocks within Read RBlock, and the P holders the "
              "DELTA twins of the lost unsealed blocks granted fresh, "
              "and ship only the index records homed on the lost node; "
              "the recovering node's walks of the blocks it decodes run "
              "under its reads.  "
              "The checkpoint read and the holder scans start with "
              "Recover LBlock: recover_lblock ends at the last decoded "
              "LBlock installed (0 when every LBlock is a twin; "
              "lblock_count counts the twins), read_rblock and read_ckpt "
              "are what each leaves after it.  The twins' bytes follow "
              "by one stream beside the tiers, from the scrub on: "
              "twins_done is the recovery's start to the last twin "
              "installed, 0 without a twin.  "
              "The wall-clock stages (every *_ms column but scan_kv, "
              "twins_done, the two nic_busy and total) sum to total_ms.  The old-"
              "block decodes and the parity re-baselines are one job "
              "pool: recover_old ends at the last old block installed, "
              "rebaseline is the rest of the Block tier.  "
              "recovery_bytes is the whole fabric's; each rebuilt block "
              "crosses the recovering NIC once (recovering_nic_bytes).",
    )
    for codec in ("xor", "rs"):
        def mutate(cfg, codec=codec):
            cfg.coding.codec = codec
            cfg.checkpoint.interval = 0.02

        cluster = _loaded_cluster(scale, mutate=mutate, settle=0.2)
        report = crash_recover_report(cluster)
        row = report.row()
        row["codec"] = codec
        row["test_gbps"] = encode_throughput(codec, block_mb=2)
        result.add(**row)
    xor = result.lookup(codec="xor")
    rs = result.lookup(codec="rs")
    result.add_verdict(
        "XOR encodes faster than RS",
        xor["test_gbps"] > rs["test_gbps"] * 1.2,
        f"{xor['test_gbps']:.2f} vs {rs['test_gbps']:.2f} GB/s (bar 1.2x)",
    )
    result.add_verdict(
        "XOR recovers no slower than RS",
        xor["total_ms"] <= rs["total_ms"] * 1.05,
        f"{xor['total_ms']:.1f} vs {rs['total_ms']:.1f} ms",
    )
    result.add_verdict(
        "XOR's Recover LBlock within 1.1x of RS",
        xor["recover_lblock_ms"] <= rs["recover_lblock_ms"] * 1.1,
        f"{xor['recover_lblock_ms']:.2f} vs {rs['recover_lblock_ms']:.2f} ms",
    )
    result.add_verdict(
        "Read Checkpoint comparable (XOR within 1.5x of RS)",
        xor["read_ckpt_ms"] <= rs["read_ckpt_ms"] * 1.5,
        f"{xor['read_ckpt_ms']:.2f} vs {rs['read_ckpt_ms']:.2f} ms",
    )
    return result


def run_fig16(scale: Scale) -> FigureResult:
    result = FigureResult(
        figure="fig16",
        title="Recovery time vs lost data size",
        columns=["lost_mb", "meta_ms", "index_ms", "block_ms", "total_ms",
                 "recovering_nic_bytes", "helper_nic_busy_ms"],
        notes="Expected: Meta and Index Area times flat; Block Area time "
              "grows with the lost data size.",
    )
    for factor in (0.5, 1.0, 2.0, 4.0):
        def mutate(cfg):
            cfg.checkpoint.interval = 0.02

        cluster = _loaded_cluster(scale, mutate=mutate, keys_factor=factor,
                                  settle=0.2)
        report = crash_recover_report(cluster)
        result.add(lost_mb=report.lost_bytes / (1 << 20),
                   meta_ms=report.meta_time * 1e3,
                   index_ms=report.index_time * 1e3,
                   block_ms=report.block_time * 1e3,
                   total_ms=report.total_time * 1e3,
                   recovering_nic_bytes=report.recovering_nic_bytes,
                   helper_nic_busy_ms=report.helper_nic_busy_s * 1e3)
    rows = sorted(result.rows, key=lambda r: r["lost_mb"])
    first, last = rows[0], rows[-1]
    result.add_verdict("Block-Area time grows with lost size",
                       last["lost_mb"] > first["lost_mb"]
                       and last["block_ms"] > first["block_ms"],
                       f"{first['block_ms']:.1f} -> {last['block_ms']:.1f} ms "
                       f"over {first['lost_mb']:.1f} -> "
                       f"{last['lost_mb']:.1f} MB")
    # Checkpointing caps the Index-Area scan (paper: always under 1 s).
    index = [r["index_ms"] for r in rows]
    result.add_verdict("Index-Area time stays flat (max < 6x min)",
                       max(index) < 6 * max(min(index), 0.5),
                       f"{min(index):.2f} - {max(index):.2f} ms")
    meta = max(r["meta_ms"] for r in rows)
    total = max(r["total_ms"] for r in rows)
    result.add_verdict("Meta-Area time is small (< 0.25x of the total)",
                       meta < 0.25 * total,
                       f"max {meta:.3f} of {total:.1f} ms")
    return result


#: Simulated checkpoint intervals with their paper-equivalent labels
#: (25x scale: 20 ms simulated = the paper's default 500 ms).
INTERVALS = ((0.004, "0.1s"), (0.02, "0.5s"), (0.04, "1s"),
             (0.08, "2s"), (0.2, "5s"))


def run_fig18(scale: Scale) -> FigureResult:
    result = FigureResult(
        figure="fig18",
        title="Recovery time vs checkpoint interval",
        columns=["interval", "meta_ms", "index_ms", "block_ms", "total_ms",
                 "recovering_nic_bytes", "helper_nic_busy_ms"],
        notes="Intervals labelled with paper-equivalent values (25x time "
              "scale). Expected: Index Area recovery grows with the "
              "interval (more KV pairs to scan); Block Area shrinks "
              "slightly.",
    )
    from ..workloads import micro_stream

    for interval, label in INTERVALS:
        def mutate(cfg, interval=interval):
            cfg.checkpoint.interval = interval

        cluster = _loaded_cluster(scale, mutate=mutate,
                                  settle=max(0.1, 2.5 * interval))
        # Run a continuous write stream spanning more than one round, then
        # crash: the un-checkpointed state (and hence the Index-Area scan)
        # grows with the interval.
        runner = WorkloadRunner(cluster)
        keys = recovery_keys(scale)
        runner.measure(
            [micro_stream("UPDATE", c.cli_id, keys, scale.kv_size - 64,
                          seed=bench_seed())
             for c in cluster.clients],
            duration=max(interval * 1.2, 0.01),
        )
        report = crash_recover_report(cluster)
        result.add(interval=label,
                   meta_ms=report.meta_time * 1e3,
                   index_ms=report.index_time * 1e3,
                   block_ms=report.block_time * 1e3,
                   total_ms=report.total_time * 1e3,
                   recovering_nic_bytes=report.recovering_nic_bytes,
                   helper_nic_busy_ms=report.helper_nic_busy_s * 1e3)
    index = result.series("index_ms")
    result.add_verdict("Index-Area time grows with the interval",
                       index[-1] > index[0],
                       f"{index[0]:.2f} -> {index[-1]:.2f} ms")
    peak = index.index(max(index))
    result.add_verdict("Index-Area time peaks at a long interval",
                       max(index[2:]) == max(index),
                       f"peak at {result.rows[peak]['interval']}")
    return result
