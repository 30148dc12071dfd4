"""48-bit global addresses for the memory pool.

An index slot's ``addr`` field has 48 bits (§3.2.2): we split them into an
8-bit node id and a 40-bit byte offset within that node's memory, which
comfortably covers the paper's 48 GB-per-MN pool (2^40 = 1 TiB).
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["GlobalAddress", "NODE_BITS", "OFFSET_BITS", "NULL_ADDR"]

NODE_BITS = 8
OFFSET_BITS = 40
_OFFSET_MASK = (1 << OFFSET_BITS) - 1
_NODE_MASK = (1 << NODE_BITS) - 1
_PACKED_MASK = (1 << (NODE_BITS + OFFSET_BITS)) - 1
_new = tuple.__new__

#: Packed value representing "no address" (offset 0 on node 0 is reserved).
NULL_ADDR = 0


class GlobalAddress(NamedTuple):
    """(node_id, offset) with loss-free packing into 48 bits."""

    node_id: int
    offset: int

    def pack(self) -> int:
        if not 0 <= self.node_id <= _NODE_MASK:
            raise ValueError(f"node_id out of range: {self.node_id}")
        if not 0 <= self.offset <= _OFFSET_MASK:
            raise ValueError(f"offset out of range: {self.offset}")
        return (self.node_id << OFFSET_BITS) | self.offset

    @classmethod
    def unpack(cls, packed: int) -> "GlobalAddress":
        if not 0 <= packed <= _PACKED_MASK:
            raise ValueError(f"packed address out of range: {packed:#x}")
        return _new(cls, (packed >> OFFSET_BITS, packed & _OFFSET_MASK))
