"""Figs. 17 & 19 — checkpointing sensitivity (§4.5).

* Fig. 17: KV throughput across checkpoint intervals.  Expected: nearly
  flat, with a small dip at the shortest interval (checkpoint bandwidth).
* Fig. 19: the differential-checkpointing pipeline on *real bytes*:
  compressed delta size and wall-clock time of each step (Copy&XOR,
  Compress, Decompress, XOR) across index sizes.  Expected: compressed
  deltas are a tiny fraction of the index; every step scales with size.
"""

from __future__ import annotations



import numpy as np

from ..checkpoint.compress import ZlibCompressor
from ..checkpoint.differential import DifferentialCheckpointer
from .common import (
    FigureResult,
    Scale,
    build_cluster,
    load_micro,
    micro_throughput,
)
from .fig_recovery import INTERVALS

__all__ = ["run_fig17", "run_fig19"]


def run_fig17(scale: Scale) -> FigureResult:
    result = FigureResult(
        figure="fig17",
        title="Throughput vs checkpoint interval",
        columns=["interval", "op", "mops"],
        notes="Intervals labelled with paper-equivalent values (25x time "
              "scale). Expected: minimal impact; slight dip at the "
              "shortest interval.",
    )
    for interval, label in INTERVALS:
        def mutate(cfg, interval=interval):
            cfg.checkpoint.interval = interval

        cluster = build_cluster("aceso", scale, mutate=mutate)
        runner = load_micro(cluster, scale)
        for op in ("UPDATE", "SEARCH"):
            res = micro_throughput(cluster, scale, op, runner=runner)
            result.add(interval=label, op=op,
                       mops=res.throughput(op) / 1e6)
    spreads = {}
    for op in ("UPDATE", "SEARCH"):
        series = result.series("mops", where={"op": op})
        spreads[op] = min(series) / max(series) if max(series) else 0.0
    result.add_verdict(
        "checkpoint interval barely moves throughput",
        all(s > 0.7 for s in spreads.values()),
        ", ".join(f"{op} min/max={s:.2f}" for op, s in spreads.items()),
    )
    return result


#: Index sizes for Fig. 19 per scale tier (bytes).
_FIG19_SIZES = {
    "smoke": (1 << 20, 4 << 20, 16 << 20),
    "small": (4 << 20, 16 << 20, 64 << 20, 256 << 20),
}

#: Fraction of 16 B slots dirtied between consecutive checkpoints (a
#: load-factor-0.75 index under a steady update stream).
_DIRTY_FRACTION = 0.05


def _dirty_snapshot(base: bytes, rng, fraction: float) -> bytes:
    arr = np.frombuffer(base, dtype=np.uint8).copy()
    slots = len(base) // 16
    dirty = max(1, int(slots * fraction))
    picks = rng.integers(0, slots, dirty)
    for offset in (0, 8):
        idx = picks * 16 + offset
        arr[idx] = rng.integers(0, 256, dirty, dtype=np.uint8)
    return arr.tobytes()


def run_fig19(scale: Scale) -> FigureResult:
    result = FigureResult(
        figure="fig19",
        title="Differential checkpointing across index sizes (real bytes)",
        columns=["index_mb", "delta_mb", "copy_xor_ms", "compress_ms",
                 "decompress_ms", "xor_ms"],
        notes="Wall-clock per step, zlib-1 as the LZ4 stand-in. Expected: "
              "compressed deltas are a small fraction of the index (paper: "
              "27 MB for a 2 GB index); step times scale with size.",
    )
    sizes = _FIG19_SIZES.get(scale.name, _FIG19_SIZES["smoke"])
    rng = np.random.default_rng(11)
    for size in sizes:
        # An index at load factor ~0.75: three of four slots non-zero.
        arr = np.zeros(size, dtype=np.uint8)
        slots = size // 16
        occupied = rng.random(slots) < 0.75
        fill = rng.integers(1, 256, occupied.sum(), dtype=np.uint8)
        arr[np.flatnonzero(occupied) * 16] = fill
        snapshot1 = arr.tobytes()
        snapshot2 = _dirty_snapshot(snapshot1, rng, _DIRTY_FRACTION)

        ckpt = DifferentialCheckpointer(ZlibCompressor(), size)
        image = ckpt.apply_delta(None, ckpt.make_delta(snapshot1, 1))
        delta = ckpt.make_delta(snapshot2, 2)      # the measured round
        image = ckpt.apply_delta(image, delta)
        assert image.data == snapshot2  # pipeline really reproduces state
        timings = ckpt.last_timings
        result.add(index_mb=size / (1 << 20),
                   delta_mb=delta.compressed_size / (1 << 20),
                   copy_xor_ms=timings.copy_xor * 1e3,
                   compress_ms=timings.compress * 1e3,
                   decompress_ms=timings.decompress * 1e3,
                   xor_ms=timings.apply_xor * 1e3)
        del snapshot1, snapshot2, arr
    small = all(row["delta_mb"] < 0.35 * row["index_mb"]
                for row in result.rows)
    result.add_verdict("compressed delta is a fraction of the index", small,
                       f"worst ratio={max(r['delta_mb'] / r['index_mb'] for r in result.rows):.2f} "
                       f"(bar 0.35)")
    compress = result.series("compress_ms")
    copy_xor = result.series("copy_xor_ms")
    result.add_verdict("step times scale with index size",
                       compress[-1] > compress[0]
                       and copy_xor[-1] > copy_xor[0],
                       f"compress {compress[0]:.2f} -> {compress[-1]:.2f} ms, "
                       f"copy&xor {copy_xor[0]:.2f} -> {copy_xor[-1]:.2f} ms")
    delta = result.series("delta_mb")
    result.add_verdict("delta grows with index size", delta[-1] > delta[0],
                       f"{delta[0]:.3f} -> {delta[-1]:.3f} MB")
    return result
