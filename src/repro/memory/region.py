"""Byte-addressable memory regions with the RDMA access primitives.

Every area of an MN (Index, Meta, Block) is a :class:`MemoryRegion`: a real
``bytearray`` plus the operations one-sided verbs perform on it — bounded
reads/writes, 8-byte compare-and-swap and fetch-and-add.  The simulation
executes these at verb-completion time, giving CAS a single serialization
point exactly like the PCIe read-modify-write transactions the paper cites.
"""

from __future__ import annotations

import struct
from typing import Tuple

__all__ = ["MemoryRegion"]

_U64 = struct.Struct("<Q")


class MemoryRegion:
    """A contiguous, bounds-checked slice of MN memory."""

    def __init__(self, size: int, name: str = "region"):
        if size <= 0:
            raise ValueError("region size must be positive")
        self.size = size
        self.name = name
        self._buf = bytearray(size)

    # -- bounds ------------------------------------------------------------

    def _out_of_bounds(self, offset: int, length: int) -> IndexError:
        return IndexError(
            f"{self.name}: access [{offset}, {offset + length}) outside "
            f"[0, {self.size})"
        )

    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise self._out_of_bounds(offset, length)

    # -- bulk --------------------------------------------------------------
    # ``read``, ``write`` and ``cas_u64`` are what one-sided verbs run at
    # completion: they make the bounds check in line, once.

    def read(self, offset: int, length: int) -> bytes:
        end = offset + length
        if offset < 0 or length < 0 or end > self.size:
            raise self._out_of_bounds(offset, length)
        return bytes(self._buf[offset:end])

    def write(self, offset: int, data: bytes) -> None:
        end = offset + len(data)
        if offset < 0 or end > self.size:
            raise self._out_of_bounds(offset, len(data))
        self._buf[offset:end] = data

    def snapshot(self) -> bytes:
        """Copy of the whole region (checkpoint generation)."""
        return bytes(self._buf)

    def restore(self, data: bytes) -> None:
        if len(data) != self.size:
            raise ValueError(
                f"{self.name}: restore size {len(data)} != region {self.size}"
            )
        self._buf[:] = data

    def clear(self) -> None:
        """Wipe contents — models the data loss of a node crash."""
        self._buf[:] = bytes(self.size)

    # -- 8-byte atomics ------------------------------------------------------

    def read_u64(self, offset: int) -> int:
        self._check(offset, 8)
        return _U64.unpack_from(self._buf, offset)[0]

    def write_u64(self, offset: int, value: int) -> None:
        self._check(offset, 8)
        _U64.pack_into(self._buf, offset, value & 0xFFFFFFFFFFFFFFFF)

    def cas_u64(self, offset: int, expected: int, new: int) -> Tuple[bool, int]:
        """Atomic compare-and-swap; returns (swapped?, value before)."""
        if offset < 0 or offset + 8 > self.size:
            raise self._out_of_bounds(offset, 8)
        old = _U64.unpack_from(self._buf, offset)[0]
        if old == expected:
            _U64.pack_into(self._buf, offset, new & 0xFFFFFFFFFFFFFFFF)
            return True, old
        return False, old
