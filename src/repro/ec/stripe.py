"""Block-granular stripe codecs and stripe layout.

Aceso performs erasure coding on coarse-grained memory blocks (§3.3.1):
a *coding stripe* is k DATA blocks + m PARITY blocks, each on a distinct MN
of one coding group, with consecutive stripes rotated across the group for
load balance.  Two codecs are provided:

* :class:`XorStripeCodec` — the XOR-only family (X-Code/RDP construction):
  parity P is the plain XOR of the data blocks (so one lost block is a
  single XOR pass over surviving blocks, §3.3.2) and the diagonal parity Q
  provides the second fault-tolerance dimension;
* :class:`RSStripeCodec` — Reed-Solomon over GF(256), the slower GF-based
  alternative of Table 2.

Both are linear: ``parity_delta`` maps a data-block delta to per-parity
deltas, enabling the delta-based space reclamation of §3.3.3.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

import numpy as np

from ..errors import CodingError
from .rs import ReedSolomon
from .xorcode import RDP, is_prime

__all__ = ["StripeCodec", "XorStripeCodec", "RSStripeCodec", "StripeLayout",
           "make_codec"]


def _as_array(block: bytes, size: int) -> np.ndarray:
    if len(block) != size:
        raise CodingError(f"block of {len(block)} bytes, expected {size}")
    return np.frombuffer(bytes(block), dtype=np.uint8).copy()


class StripeCodec(abc.ABC):
    """Erasure codec over k data + m parity blocks of one fixed size."""

    name: str
    k: int
    m: int
    block_size: int

    @property
    def width(self) -> int:
        return self.k + self.m

    @abc.abstractmethod
    def encode(self, data_blocks: Sequence[bytes]) -> List[bytes]:
        """Parity blocks for k data blocks."""

    @abc.abstractmethod
    def reconstruct(self, shards: Sequence[Optional[bytes]]) -> List[bytes]:
        """Fill the ``None`` entries of a k+m shard list (<= m missing)."""

    @abc.abstractmethod
    def parity_delta(self, data_index: int, delta: bytes) -> List[bytes]:
        """Per-parity XOR contributions of a data-block delta (both codecs
        are linear: it is the parity of a stripe holding only the
        delta)."""

    def apply_delta(self, parity: bytearray, parity_index: int,
                    data_index: int, delta: bytes) -> None:
        """parity ^= contribution(data_index -> parity_index, delta)."""
        contrib = self.parity_delta(data_index, delta)[parity_index]
        arr = np.frombuffer(memoryview(parity), dtype=np.uint8)
        np.bitwise_xor(arr, np.frombuffer(contrib, dtype=np.uint8), out=arr)

    @abc.abstractmethod
    def solve_one(self, data_index: int, known: dict,
                  parity0: bytes) -> bytes:
        """Recover one data *slice* element-wise from the first parity.

        ``known`` maps each other data position to the corresponding slice
        of its (folded) contents; ``parity0`` is the same slice of parity 0.
        Both codecs' first parity is element-wise in the byte offset, so
        degraded SEARCH (§3.4.1) can reconstruct just the slot region of a
        lost KV — the paper's "one XOR involving all DATA, DELTA, and
        PARITY blocks".
        """


class XorStripeCodec(StripeCodec):
    """RDP-construction XOR codec at block granularity."""

    name = "xor"

    def __init__(self, k: int, block_size: int, m: int = 2):
        if m != 2:
            raise CodingError("XOR codec needs exactly m = 2 parities")
        p = k + 1
        while not is_prime(p):
            p += 1
        self._rdp = RDP(p, k)
        rows = p - 1
        if block_size % rows:
            raise CodingError(
                f"block size {block_size} not divisible by p-1={rows}"
            )
        self._row_width = block_size // rows
        self.k = k
        self.m = m
        self.block_size = block_size

    # -- column packing -----------------------------------------------------

    def _to_column(self, block: bytes) -> np.ndarray:
        arr = _as_array(block, self.block_size)
        return arr.reshape(self._rdp.nrows, self._row_width)

    def _from_column(self, column: np.ndarray) -> bytes:
        return column.tobytes()

    def encode(self, data_blocks: Sequence[bytes]) -> List[bytes]:
        if len(data_blocks) != self.k:
            raise CodingError(f"expected {self.k} data blocks")
        rdp = self._rdp
        array = rdp.empty_array(self._row_width)
        for c, block in enumerate(data_blocks):
            array[:, c, :] = self._to_column(block)
        rdp.encode(array)
        return [self._from_column(array[:, rdp.p_col, :]),
                self._from_column(array[:, rdp.q_col, :])]

    def reconstruct(self, shards: Sequence[Optional[bytes]]) -> List[bytes]:
        if len(shards) != self.width:
            raise CodingError(f"expected {self.width} shards")
        missing = [i for i, s in enumerate(shards) if s is None]
        if not missing:
            return [bytes(s) for s in shards]  # type: ignore[arg-type]
        if len(missing) > self.m:
            raise CodingError(f"{len(missing)} erasures exceed m={self.m}")
        rdp = self._rdp
        array = rdp.empty_array(self._row_width)
        for i, shard in enumerate(shards):
            if shard is not None:
                array[:, i, :] = self._to_column(shard)
        rdp.decode(array, missing)
        return [self._from_column(array[:, i, :]) for i in range(self.width)]

    def solve_one(self, data_index: int, known: dict,
                  parity0: bytes) -> bytes:
        if set(known) | {data_index} != set(range(self.k)):
            raise CodingError("solve_one needs every other data position")
        acc = np.frombuffer(bytes(parity0), dtype=np.uint8).copy()
        for _pos, slice_bytes in known.items():
            np.bitwise_xor(acc, np.frombuffer(slice_bytes, dtype=np.uint8),
                           out=acc)
        return acc.tobytes()

    def parity_delta(self, data_index: int, delta: bytes) -> List[bytes]:
        if not 0 <= data_index < self.k:
            raise CodingError(f"data index {data_index} out of range")
        # P changes by the delta itself; Q changes both directly (the data
        # cell's diagonal) and through P (the P column participates in Q's
        # diagonals in the RDP construction).
        rdp = self._rdp
        col = self._to_column(delta)
        q = np.zeros_like(col)
        for r in range(rdp.nrows):
            direct = (r + data_index) % rdp.p
            if direct < rdp.nrows:  # construction diagonal p-1 is not stored
                np.bitwise_xor(q[direct], col[r], out=q[direct])
            via_p = (r + rdp.p - 1) % rdp.p  # P sits at construction col p-1
            if via_p < rdp.nrows:
                np.bitwise_xor(q[via_p], col[r], out=q[via_p])
        return [bytes(delta), self._from_column(q)]


class RSStripeCodec(StripeCodec):
    """Reed-Solomon codec at block granularity (Table 2's GF-based rival)."""

    name = "rs"

    def __init__(self, k: int, block_size: int, m: int = 2):
        self._rs = ReedSolomon(k, m)
        self.k = k
        self.m = m
        self.block_size = block_size

    def encode(self, data_blocks: Sequence[bytes]) -> List[bytes]:
        data = [_as_array(b, self.block_size) for b in data_blocks]
        return [p.tobytes() for p in self._rs.encode(data)]

    def reconstruct(self, shards: Sequence[Optional[bytes]]) -> List[bytes]:
        arrays = [None if s is None else _as_array(s, self.block_size)
                  for s in shards]
        return [a.tobytes() for a in self._rs.reconstruct(arrays)]

    def parity_delta(self, data_index: int, delta: bytes) -> List[bytes]:
        arr = _as_array(delta, self.block_size)
        return [d.tobytes() for d in self._rs.parity_delta(data_index, arr)]

    def solve_one(self, data_index: int, known: dict,
                  parity0: bytes) -> bytes:
        if set(known) | {data_index} != set(range(self.k)):
            raise CodingError("solve_one needs every other data position")
        from .gf256 import gf_addmul_buffer, gf_inv, gf_mul_buffer

        coefs = self._rs.parity_matrix[0]
        acc = np.frombuffer(bytes(parity0), dtype=np.uint8).copy()
        for pos, slice_bytes in known.items():
            gf_addmul_buffer(acc, coefs[pos],
                             np.frombuffer(slice_bytes, dtype=np.uint8))
        return gf_mul_buffer(gf_inv(coefs[data_index]), acc).tobytes()


def make_codec(name: str, k: int, block_size: int, m: int = 2) -> StripeCodec:
    if name == "xor":
        return XorStripeCodec(k, block_size, m)
    if name == "rs":
        return RSStripeCodec(k, block_size, m)
    raise CodingError(f"unknown codec {name!r}")


class StripeLayout:
    """Placement of stripe positions onto the MNs of one coding group.

    Stripe *s* places position *j* (0..k-1 data, k..k+m-1 parity) on group
    member ``(s + j) mod n`` — the rotation that interleaves stripes so each
    MN holds both DATA and PARITY blocks (§3.3.1).
    """

    def __init__(self, group_members: Sequence[int], k: int, m: int):
        if len(group_members) != k + m:
            raise CodingError("group size must equal stripe width k+m")
        self.members = list(group_members)
        self.k = k
        self.m = m

    @property
    def width(self) -> int:
        return self.k + self.m

    def node_of(self, stripe_id: int, position: int) -> int:
        if not 0 <= position < self.width:
            raise CodingError(f"position {position} out of stripe")
        return self.members[(stripe_id + position) % self.width]

