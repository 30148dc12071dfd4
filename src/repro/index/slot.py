"""Index slot formats.

Aceso extends RACE hashing's 8-byte slot to 16 bytes (§3.2.2, Fig. 3):

* ``Atomic`` (8 B, modified only by RDMA_CAS):
  ``fp`` (8-bit fingerprint) | ``ver`` (8-bit slot version low bits) |
  ``addr`` (48-bit global address of the KV pair);
* ``Meta`` (8 B, infrequently changed):
  ``epoch`` (56 bits, low bit doubles as the lock flag) | ``len`` (8 bits,
  KV size in 64 B units).

The logical 64-bit *Slot Version* is ``epoch`` (upper 56 bits) concatenated
with ``ver`` (lower 8 bits).

The FUSEE baseline keeps the original compact 8-byte slot:
``fp`` | ``len`` | ``addr``.

Clients decode whole slots through :class:`~repro.index.race.RaceIndex`,
which presents both formats as (Atomic word, Meta word) pairs: ``addr``
is ``atomic & ADDR_MASK`` and ``len`` is ``meta & LEN_MASK`` in either.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "AtomicField",
    "MetaField",
    "CompactSlot",
    "slot_version",
    "split_slot_version",
    "INVALID_SLOT_VERSION",
    "WIDE_SLOT_SIZE",
    "COMPACT_SLOT_SIZE",
    "WIDE_SLOT",
    "ADDR_MASK",
    "LEN_MASK",
]

WIDE_SLOT_SIZE = 16
COMPACT_SLOT_SIZE = 8

#: One wide slot as read off the wire: (Atomic word, Meta word).
WIDE_SLOT = struct.Struct("<QQ")
#: The 48-bit ``addr`` of an Atomic (or compact) slot word.
ADDR_MASK = (1 << 48) - 1
#: The 8-bit ``len`` of a Meta word (64 B units).
LEN_MASK = 0xFF
_EPOCH_MASK = (1 << 56) - 1

# The slot words are decoded on every op: ``unpack`` builds the tuple
# directly (its masks already confine every field), range validation is
# ``pack``'s job.
_new = tuple.__new__

#: The "version -1" marker written into a KV pair whose commit CAS failed
#: (Algorithm 1 line 18): all-ones, never produced by a real version.
INVALID_SLOT_VERSION = (1 << 64) - 1


def slot_version(epoch: int, ver: int) -> int:
    """Compose the logical 64-bit Slot Version from epoch (56b) + ver (8b)."""
    if not 0 <= ver <= 0xFF:
        raise ValueError(f"ver out of 8-bit range: {ver}")
    if not 0 <= epoch <= _EPOCH_MASK:
        raise ValueError(f"epoch out of 56-bit range: {epoch}")
    return (epoch << 8) | ver


def split_slot_version(version: int) -> tuple:
    """(epoch, ver) components of a logical Slot Version."""
    return (version >> 8) & _EPOCH_MASK, version & 0xFF


class AtomicField(NamedTuple):
    """The CAS-able half of a wide slot."""

    fp: int = 0
    ver: int = 0
    addr: int = 0  # packed 48-bit GlobalAddress

    def pack(self) -> int:
        if not 0 <= self.fp <= 0xFF:
            raise ValueError(f"fp out of range: {self.fp}")
        if not 0 <= self.ver <= 0xFF:
            raise ValueError(f"ver out of range: {self.ver}")
        if not 0 <= self.addr <= ADDR_MASK:
            raise ValueError(f"addr out of range: {self.addr:#x}")
        return (self.fp << 56) | (self.ver << 48) | self.addr

    @classmethod
    def unpack(cls, word: int) -> "AtomicField":
        return _new(cls, ((word >> 56) & 0xFF, (word >> 48) & 0xFF,
                          word & ADDR_MASK))

    @property
    def empty(self) -> bool:
        return self.addr == 0 and self.fp == 0


class MetaField(NamedTuple):
    """The infrequently-updated half of a wide slot."""

    epoch: int = 0
    len_units: int = 0  # KV size in 64 B units

    def pack(self) -> int:
        if not 0 <= self.epoch <= _EPOCH_MASK:
            raise ValueError(f"epoch out of range: {self.epoch}")
        if not 0 <= self.len_units <= 0xFF:
            raise ValueError(f"len out of range: {self.len_units}")
        return (self.epoch << 8) | self.len_units

    @classmethod
    def unpack(cls, word: int) -> "MetaField":
        return _new(cls, ((word >> 8) & _EPOCH_MASK, word & 0xFF))

    @property
    def locked(self) -> bool:
        """Odd epoch = locked by a client rolling the version over."""
        return bool(self.epoch & 1)


@dataclass(frozen=True)
class CompactSlot:
    """FUSEE/RACE original 8-byte slot: fp | len | addr."""

    fp: int = 0
    len_units: int = 0
    addr: int = 0

    def pack(self) -> int:
        if not 0 <= self.fp <= 0xFF:
            raise ValueError(f"fp out of range: {self.fp}")
        if not 0 <= self.len_units <= 0xFF:
            raise ValueError(f"len out of range: {self.len_units}")
        if not 0 <= self.addr <= ADDR_MASK:
            raise ValueError(f"addr out of range: {self.addr:#x}")
        return (self.fp << 56) | (self.len_units << 48) | self.addr
