"""Client-side memory-block management.

Each client manages its own coarse-grained blocks (§3.2.3): it requests a
DATA block (plus its DELTA block on the stripe's P-parity MN) from the
servers, appends KV pairs out-of-place into consecutive slab slots, and
seals the block when full.  A reused block (space reclamation, §3.3.3)
arrives with the old free bitmap; the client reads the old contents once
and then overwrites only obsolete slots, computing write deltas against
the old bytes it holds locally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..memory.address import GlobalAddress
from ..memory.slab import SizeClass

__all__ = ["BlockGrant", "OpenBlock", "ClientBlockManager"]


@dataclass
class BlockGrant:
    """What the allocation RPC returns (fresh or reused block)."""

    data_node: int
    data_block: int
    data_offset: int                    # node-local offset of block start
    delta_node: int = -1                # -1: no delta target (degraded/FUSEE)
    delta_block: int = -1
    delta_offset: int = -1
    stripe_id: int = -1
    stripe_pos: int = -1
    reused: bool = False
    old_bitmap: Optional[bytes] = None  # reused blocks: which slots to reuse
    replica_locs: List[Tuple[int, int, int]] = field(default_factory=list)
    # replica_locs: FUSEE mode — [(node, block, offset)] of all KV replicas,
    # primary first.


class OpenBlock:
    """A client's currently-filling block of one size class."""

    def __init__(self, grant: BlockGrant, size_class: SizeClass):
        self.grant = grant
        self.size_class = size_class
        self.slots = size_class.slots_per_block
        if grant.reused:
            if grant.old_bitmap is None:
                raise ValueError("reused grant lacks its old bitmap")
            self._reusable = _bitmap_slots(grant.old_bitmap, self.slots)
        else:
            self._reusable = list(range(self.slots))
        self._cursor = 0
        #: Whether every writable slot has been claimed.  A plain
        #: attribute, kept by the two claiming methods: the write path
        #: reads it twice per write.
        self.exhausted = not self._reusable
        #: Old contents of the block (reused blocks only; fetched once).
        self.old_content: Optional[bytes] = None
        self.writes_done = 0
        #: (data-node, delta-node) crash incarnations at grant time.  A
        #: later crash of either node invalidates the grant's addresses.
        self.epoch: Tuple[int, int] = (0, 0)
        #: ``Master.version`` at which the grant was last found writable
        #: (see ``AcesoClient._grant_writable``); -1 before the first look.
        self.writable_at = -1

    def slots_left(self) -> int:
        return len(self._reusable) - self._cursor

    @property
    def needs_old_content(self) -> bool:
        return self.grant.reused and self.old_content is None

    def take_slot(self) -> int:
        """Claim the next writable slot index."""
        if self.exhausted:
            raise RuntimeError("block exhausted; seal and allocate")
        slot = self._reusable[self._cursor]
        self._cursor += 1
        self.exhausted = self._cursor == len(self._reusable)
        return slot

    def slot_old_bytes(self, slot: int) -> bytes:
        """Previous contents of a slot (zeros for fresh blocks)."""
        size = self.size_class.slot_size
        if not self.grant.reused:
            return bytes(size)
        if self.old_content is None:
            raise RuntimeError("reused block contents not fetched yet")
        off = self.size_class.slot_offset(slot)
        return self.old_content[off:off + size]

    def kv_address(self, slot: int) -> GlobalAddress:
        return GlobalAddress(
            self.grant.data_node,
            self.grant.data_offset + self.size_class.slot_offset(slot),
        )

    def delta_address(self, slot: int) -> Optional[GlobalAddress]:
        if self.grant.delta_node < 0:
            return None
        return GlobalAddress(
            self.grant.delta_node,
            self.grant.delta_offset + self.size_class.slot_offset(slot),
        )


class ClientBlockManager:
    """Per-client registry of open blocks, one per size class, plus the
    pending obsolescence bitmap updates awaiting their periodic flush."""

    def __init__(self, cli_id: int):
        self.cli_id = cli_id
        self._open: Dict[int, OpenBlock] = {}          # slot_size -> block
        #: (node, block_id) -> {slot index: mark timestamp}.  Timestamps
        #: let the owning server drop marks that predate a block's reuse
        #: (they refer to the previous generation of contents).
        self.pending_obsolete: Dict[Tuple[int, int], Dict[int, float]] = {}
        self.blocks_filled = 0

    def open_block(self, slot_size: int) -> Optional[OpenBlock]:
        block = self._open.get(slot_size)
        if block is not None and block.exhausted:
            return None
        return block

    def claim(self, slot_size: int) -> Optional[Tuple[OpenBlock, int, int]]:
        """Claim the next writable slot of the installed *slot_size*
        block: ``(block, slot, slots left after it)``, or None when no
        installed block has a slot left.  ``open_block`` plus
        ``OpenBlock.take_slot`` and ``slots_left`` in one frame, for the
        write path."""
        block = self._open.get(slot_size)
        if block is None or block.exhausted:
            return None
        reusable = block._reusable
        cursor = block._cursor
        block._cursor = cursor + 1
        left = len(reusable) - cursor - 1
        block.exhausted = not left
        return block, reusable[cursor], left

    def install(self, slot_size: int, block: OpenBlock) -> None:
        self._open[slot_size] = block

    def retire(self, slot_size: int) -> Optional[OpenBlock]:
        return self._open.pop(slot_size, None)

    def retire_if(self, slot_size: int, block: OpenBlock) -> bool:
        """Retire only if *block* is still the installed one (idempotent
        sealing guard)."""
        if self._open.get(slot_size) is block:
            del self._open[slot_size]
            return True
        return False

    def all_open(self) -> List[OpenBlock]:
        return list(self._open.values())

    def mark_obsolete(self, node: int, block_id: int, intra_offset: int,
                      now: float = 0.0) -> None:
        """Queue one obsolete mark.

        Marks carry the *byte offset* within the block, not a slot index:
        the owning server converts with its authoritative slot size, so a
        stale ``len`` field read during the commit-CAS/len-repair window
        can never corrupt a different slot's bit.
        """
        entry = self.pending_obsolete.setdefault((node, block_id), {})
        entry.setdefault(intra_offset, now)

    def drain_obsolete(self) -> Dict[Tuple[int, int], Dict[int, float]]:
        pending, self.pending_obsolete = self.pending_obsolete, {}
        return pending


def _bitmap_slots(bitmap: bytes, nbits: int) -> List[int]:
    """Slot indices whose bit is set (the obsolete => reusable slots)."""
    out = []
    for bit in range(nbits):
        if bitmap[bit >> 3] & (1 << (bit & 7)):
            out.append(bit)
    return out
