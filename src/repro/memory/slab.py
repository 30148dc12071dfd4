"""Slab-style size classes for KV slots within blocks.

KV pairs within a memory block all have the same size, and blocks are
grouped into size classes to accommodate variable-length KV pairs (§3.3.1),
like the slab allocators the paper cites.  The index slot's ``len`` field
counts 64-byte units, so every class is a multiple of 64 B.
"""

from __future__ import annotations

from typing import List

__all__ = ["SIZE_UNIT", "SizeClass", "SizeClasser"]

#: Granularity of the index slot's length field (§3.2.2).
SIZE_UNIT = 64


class SizeClass:
    """One slab class: slot size and how many slots fit a block."""

    def __init__(self, slot_size: int, block_size: int):
        if slot_size <= 0 or slot_size % SIZE_UNIT:
            raise ValueError(f"slot size must be a positive multiple of "
                             f"{SIZE_UNIT}: {slot_size}")
        if slot_size > block_size:
            raise ValueError("slot size exceeds block size")
        self.slot_size = slot_size
        self.block_size = block_size
        self.slots_per_block = block_size // slot_size
        #: Value of the index slot's 8-bit ``len`` field.
        self.len_units = slot_size // SIZE_UNIT

    def slot_offset(self, slot: int) -> int:
        if not 0 <= slot < self.slots_per_block:
            raise IndexError(f"slot {slot} out of {self.slots_per_block}")
        return slot * self.slot_size


class SizeClasser:
    """Maps a KV pair's on-wire size to its slab class."""

    def __init__(self, block_size: int):
        self.block_size = block_size
        self._classes = {}

    def class_for(self, kv_bytes: int) -> SizeClass:
        """Smallest 64 B-aligned class that fits *kv_bytes*."""
        if kv_bytes <= 0:
            raise ValueError("KV size must be positive")
        slot_size = ((kv_bytes + SIZE_UNIT - 1) // SIZE_UNIT) * SIZE_UNIT
        cls = self._classes.get(slot_size)
        if cls is None:
            cls = SizeClass(slot_size, self.block_size)
            self._classes[slot_size] = cls
        return cls

    def known_classes(self) -> List[SizeClass]:
        return [self._classes[k] for k in sorted(self._classes)]
