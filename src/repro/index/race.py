"""RACE-style hash index living in an MN's Index Area.

The index is an array of buckets of fixed slot count; a key hashes to two
candidate buckets (two-choice hashing, the flattened essence of RACE [94])
and may occupy any slot in either.  Slots are raw words in a
:class:`~repro.memory.region.MemoryRegion`, so clients manipulate them only
through simulated one-sided verbs, and the checkpointing pipeline snapshots
the same bytes clients CAS into.

A 64-bit *Index Version* (§3.2.3) sits at the end of the index region and
is included in every checkpoint.

This class itself is pure geometry + local accessors: remote access cost is
paid by the verbs whose ``execute`` closures call into it.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from ..memory.region import MemoryRegion
from .hashing import bucket_pair
from .slot import COMPACT_SLOT_SIZE, WIDE_SLOT_SIZE, AtomicField, MetaField

__all__ = ["RaceIndex"]


class RaceIndex:
    """Geometry and local accessors for one MN's index."""

    def __init__(self, region: MemoryRegion, num_buckets: int,
                 bucket_slots: int, wide: bool, base: int = 0):
        if num_buckets < 1 or bucket_slots < 1:
            raise ValueError("need at least one bucket and one slot")
        self.region = region
        self.num_buckets = num_buckets
        self.bucket_slots = bucket_slots
        self.wide = wide
        self.base = base
        self.slot_size = WIDE_SLOT_SIZE if wide else COMPACT_SLOT_SIZE
        self.bucket_size = bucket_slots * self.slot_size
        self.index_bytes = num_buckets * self.bucket_size
        self.total_bytes = self.index_bytes + 8  # + Index Version tail
        if base + self.total_bytes > region.size:
            raise ValueError("index does not fit its region")

    # -- geometry -----------------------------------------------------------

    def candidate_buckets(self, key: bytes) -> Tuple[int, int]:
        return bucket_pair(key, self.num_buckets)

    def bucket_offset(self, bucket: int) -> int:
        if not 0 <= bucket < self.num_buckets:
            raise IndexError(f"bucket {bucket} out of range")
        return self.base + bucket * self.bucket_size

    def slot_offset(self, bucket: int, slot: int) -> int:
        """Offset of the slot's Atomic word (the CAS target)."""
        if not 0 <= slot < self.bucket_slots:
            raise IndexError(f"slot {slot} out of range")
        return self.bucket_offset(bucket) + slot * self.slot_size

    def meta_offset(self, bucket: int, slot: int) -> int:
        if not self.wide:
            raise ValueError("compact slots have no Meta field")
        return self.slot_offset(bucket, slot) + 8

    @property
    def version_offset(self) -> int:
        return self.base + self.index_bytes

    def locate_slot(self, slot_offset: int) -> Tuple[int, int]:
        """(bucket, slot) of an Atomic-word offset (recovery bookkeeping)."""
        rel = slot_offset - self.base
        if rel < 0 or rel >= self.index_bytes or rel % self.slot_size:
            raise IndexError(f"offset {slot_offset} is not a slot")
        return rel // self.bucket_size, (rel % self.bucket_size) // self.slot_size

    # -- local accessors ------------------------------------------------------

    def read_atomic(self, bucket: int, slot: int) -> AtomicField:
        return AtomicField.unpack(self.region.read_u64(self.slot_offset(bucket, slot)))

    def write_atomic(self, bucket: int, slot: int, field: AtomicField) -> None:
        self.region.write_u64(self.slot_offset(bucket, slot), field.pack())

    def read_meta(self, bucket: int, slot: int) -> MetaField:
        return MetaField.unpack(self.region.read_u64(self.meta_offset(bucket, slot)))

    def write_meta(self, bucket: int, slot: int, field: MetaField) -> None:
        self.region.write_u64(self.meta_offset(bucket, slot), field.pack())

    @property
    def index_version(self) -> int:
        return self.region.read_u64(self.version_offset)

    @index_version.setter
    def index_version(self, value: int) -> None:
        self.region.write_u64(self.version_offset, value)

    # -- bucket parsing (what a client does with the bytes it read) -----------

    def parse_bucket(self, raw: bytes) -> List[int]:
        """Atomic words of a raw bucket image, in slot order."""
        if len(raw) != self.bucket_size:
            raise ValueError(
                f"bucket image of {len(raw)} bytes, expected {self.bucket_size}"
            )
        words = []
        for s in range(self.bucket_slots):
            off = s * self.slot_size
            words.append(int.from_bytes(raw[off:off + 8], "little"))
        return words

    # -- whole-index iteration (server/recovery/tests) -------------------------

    def iter_slots(self) -> Iterator[Tuple[int, int, int]]:
        """Yields (bucket, slot, atomic_word) for every non-empty slot."""
        for b in range(self.num_buckets):
            raw = self.region.read(self.bucket_offset(b), self.bucket_size)
            for s, word in enumerate(self.parse_bucket(raw)):
                if word:
                    yield b, s, word
