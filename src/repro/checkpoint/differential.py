"""Differential checkpointing pipeline (§3.2.1, Fig. 3).

One round, executed by the source MN's server and its neighbour:

1. snapshot the index region (``Copy``),
2. XOR against the previous snapshot to get the delta (``XOR``),
3. compress the delta (``Compress``) — mostly zeros, so it shrinks well,
4. ship the compressed delta to the neighbour,
5. neighbour decompresses (``Decompress``) and XORs it onto its stored
   checkpoint image (``Apply``), yielding the new checkpoint.

All steps here operate on real bytes — Fig. 19's per-step timings are
wall-clock measurements of exactly these functions — while the simulation
charges their *modelled* CPU/NIC time when running inside the DES.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .compress import Compressor

__all__ = ["xor_bytes", "CheckpointImage", "CheckpointDelta",
           "DifferentialCheckpointer", "StepTimings"]


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """Element-wise XOR of two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    av = np.frombuffer(a, dtype=np.uint8)
    bv = np.frombuffer(b, dtype=np.uint8)
    return np.bitwise_xor(av, bv).tobytes()


@dataclass
class CheckpointImage:
    """A checkpoint held by a neighbour MN: the full index image plus the
    Index Version it captured."""

    data: bytes
    index_version: int


@dataclass
class CheckpointDelta:
    """The unit shipped over the wire each round."""

    compressed: bytes
    raw_size: int
    index_version: int            # version of the *new* checkpoint

    @property
    def compressed_size(self) -> int:
        return len(self.compressed)

    @property
    def compression_ratio(self) -> float:
        """raw/compressed; 1.0 for an empty (zero-size) delta."""
        if self.compressed_size == 0:
            return 1.0
        return self.raw_size / self.compressed_size


@dataclass
class StepTimings:
    """Wall-clock seconds per pipeline step (Fig. 19's series)."""

    copy_xor: float = 0.0
    compress: float = 0.0
    decompress: float = 0.0
    apply_xor: float = 0.0


class DifferentialCheckpointer:
    """Source-side state for one index's checkpoint stream."""

    def __init__(self, compressor: Compressor, index_size: int):
        self.compressor = compressor
        self.index_size = index_size
        self._last_snapshot: bytes = bytes(index_size)
        self.rounds = 0
        self.last_timings = StepTimings()

    def make_delta(self, snapshot: bytes, index_version: int) -> CheckpointDelta:
        """Steps 1-3: diff the new snapshot against the previous one and
        compress.  Updates the stored snapshot."""
        if len(snapshot) != self.index_size:
            raise ValueError("snapshot size changed mid-stream")
        t0 = time.perf_counter()
        delta = xor_bytes(snapshot, self._last_snapshot)
        t1 = time.perf_counter()
        compressed = self.compressor.compress(delta)
        t2 = time.perf_counter()
        self._last_snapshot = snapshot
        self.rounds += 1
        self.last_timings.copy_xor = t1 - t0
        self.last_timings.compress = t2 - t1
        return CheckpointDelta(compressed=compressed, raw_size=len(delta),
                               index_version=index_version)

    def apply_delta(self, image: Optional[CheckpointImage],
                    delta: CheckpointDelta) -> CheckpointImage:
        """Steps 4-5 (neighbour side): decompress and XOR onto the image."""
        t0 = time.perf_counter()
        raw = self.compressor.decompress(delta.compressed)
        t1 = time.perf_counter()
        if image is None:
            base = bytes(len(raw))
        else:
            base = image.data
        data = xor_bytes(base, raw)
        t2 = time.perf_counter()
        self.last_timings.decompress = t1 - t0
        self.last_timings.apply_xor = t2 - t1
        return CheckpointImage(data=data, index_version=delta.index_version)
