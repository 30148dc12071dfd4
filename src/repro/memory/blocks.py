"""Memory blocks, their metadata records (Fig. 5), and the per-MN allocator.

The Block Area of an MN is divided into fixed-size blocks.  Each block has a
metadata record in the Meta Area carrying exactly the fields of the paper's
Figure 5:

* ``Role`` (2 bits): FREE / DATA / PARITY / DELTA,
* ``Valid`` (1 bit): temporarily cleared while a block's data is lost,
* ``XOR ID``: the block's sequential position within its coding stripe,
* ``Index Version`` (64 bits): copied from the index when the block seals,
* ``CLI ID`` (16 bits): owning client, used by CN crash recovery,
* ``Free Bitmap``: per-KV-slot obsolescence, driving space reclamation,
* for PARITY blocks, ``XOR Map`` (which data blocks are encoded in) and
  ``Delta Addr`` (the address of each data block's DELTA block).

Block *contents* are real bytes, allocated lazily so large simulated pools
do not cost memory until written.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import AllocationError, NodeFailedError
from .address import GlobalAddress

__all__ = ["Role", "FreeBitmap", "BlockMeta", "BlockStore"]


class Role(enum.IntEnum):
    FREE = 0
    DATA = 1
    PARITY = 2
    DELTA = 3


class FreeBitmap:
    """Validity bitmap over the KV slots of one DATA block.

    Bit = 1 means the slot's KV pair is obsolete (overwritten/deleted).
    """

    def __init__(self, nbits: int):
        if nbits < 0:
            raise ValueError("negative bitmap size")
        self.nbits = nbits
        self._bytes = bytearray((nbits + 7) // 8)

    def set(self, bit: int) -> None:
        self._check(bit)
        self._bytes[bit >> 3] |= 1 << (bit & 7)

    def _check(self, bit: int) -> None:
        if not 0 <= bit < self.nbits:
            raise IndexError(f"bit {bit} outside bitmap of {self.nbits}")

    def popcount(self) -> int:
        return sum(bin(b).count("1") for b in self._bytes)

    def obsolete_ratio(self) -> float:
        return self.popcount() / self.nbits if self.nbits else 0.0

    def reset(self) -> None:
        for i in range(len(self._bytes)):
            self._bytes[i] = 0

    def to_bytes(self) -> bytes:
        return bytes(self._bytes)

    @classmethod
    def from_bytes(cls, nbits: int, data: bytes) -> "FreeBitmap":
        out = cls(nbits)
        if len(data) != len(out._bytes):
            raise ValueError("bitmap payload size mismatch")
        out._bytes[:] = data
        return out


# Packed record layout: fixed header + variable bitmap + parity extras.
_META_HEADER = struct.Struct("<BBHQHHB")  # role, valid, xor_id, index_version,
                                          # cli_id, slots, has_parity_extras


@dataclass
class BlockMeta:
    """One Meta-Area record (Fig. 5)."""

    block_id: int
    role: Role = Role.FREE
    valid: bool = True
    xor_id: int = 0
    index_version: int = 0
    cli_id: int = 0
    stripe_id: int = -1
    slot_size: int = 0                 # KV slot size class (bytes)
    slots: int = 0                     # number of KV slots in the block
    #: When this block was last handed out for reuse (§3.3.3).  Bitmap
    #: updates created before this instant refer to the block's previous
    #: generation and must be dropped — otherwise a late flush marks live
    #: slots of the new generation as obsolete (reuse ABA).
    reuse_time: float = -1.0
    #: Monotonic count of times this block was handed to a writer (fresh
    #: allocation or reuse grant).  Not part of the Fig. 5 wire format —
    #: node-local liveness info the recovery scrub uses to tell "DATA,
    #: untouched since the checkpoint" from "freed and re-granted while
    #: recovery was running" (the roles alone are indistinguishable).
    alloc_gen: int = 0
    free_bitmap: Optional[FreeBitmap] = None
    # PARITY-only:
    xor_map: int = 0                   # bit i set => data block i encoded in
    delta_addrs: List[int] = field(default_factory=list)  # packed 48-bit

    def pack(self) -> bytes:
        """Serialize the record (used for Meta-Area sizing and replication)."""
        has_extras = 1 if self.role is Role.PARITY else 0
        head = _META_HEADER.pack(
            int(self.role), int(self.valid), self.xor_id,
            self.index_version, self.cli_id, self.slots, has_extras,
        )
        body = struct.pack("<iHd", self.stripe_id, self.slot_size,
                           self.reuse_time)
        bitmap = self.free_bitmap.to_bytes() if self.free_bitmap else b""
        parts = [head, body, struct.pack("<H", len(bitmap)), bitmap]
        if has_extras:
            parts.append(struct.pack("<QB", self.xor_map,
                                     len(self.delta_addrs)))
            for addr in self.delta_addrs:
                parts.append(struct.pack("<Q", addr))
        return b"".join(parts)

    @classmethod
    def unpack(cls, block_id: int, data: bytes) -> "BlockMeta":
        role, valid, xor_id, index_version, cli_id, slots, has_extras = \
            _META_HEADER.unpack_from(data, 0)
        off = _META_HEADER.size
        stripe_id, slot_size, reuse_time = struct.unpack_from("<iHd", data,
                                                              off)
        off += struct.calcsize("<iHd")
        (bitmap_len,) = struct.unpack_from("<H", data, off)
        off += 2
        bitmap = None
        if bitmap_len:
            bitmap = FreeBitmap.from_bytes(slots, data[off:off + bitmap_len])
        off += bitmap_len
        xor_map = 0
        delta_addrs: List[int] = []
        if has_extras:
            xor_map, naddr = struct.unpack_from("<QB", data, off)
            off += struct.calcsize("<QB")
            for _i in range(naddr):
                (addr,) = struct.unpack_from("<Q", data, off)
                delta_addrs.append(addr)
                off += 8
        return cls(block_id=block_id, role=Role(role), valid=bool(valid),
                   xor_id=xor_id, index_version=index_version, cli_id=cli_id,
                   stripe_id=stripe_id, slot_size=slot_size, slots=slots,
                   reuse_time=reuse_time, free_bitmap=bitmap,
                   xor_map=xor_map, delta_addrs=delta_addrs)

    def copy(self) -> "BlockMeta":
        return BlockMeta.unpack(self.block_id, self.pack())


class BlockStore:
    """The Block Area of one MN: lazily materialised block buffers plus the
    coarse-grained allocator the MN server runs."""

    def __init__(self, num_blocks: int, block_size: int, node_id: int,
                 base_offset: int = 0):
        if num_blocks <= 0 or block_size <= 0:
            raise ValueError("num_blocks and block_size must be positive")
        self.num_blocks = num_blocks
        self.block_size = block_size
        self.node_id = node_id
        self.base_offset = base_offset
        self.meta: List[BlockMeta] = [BlockMeta(i) for i in range(num_blocks)]
        self._buffers: Dict[int, bytearray] = {}
        self._free: List[int] = list(range(num_blocks - 1, -1, -1))

    # -- geometry ------------------------------------------------------------

    def offset_of(self, block_id: int) -> int:
        """Node-local byte offset of a block's first byte."""
        self._check_id(block_id)
        return self.base_offset + block_id * self.block_size

    def address_of(self, block_id: int) -> GlobalAddress:
        return GlobalAddress(self.node_id, self.offset_of(block_id))

    def locate(self, offset: int) -> tuple:
        """(block_id, intra-block offset) for a node-local byte offset."""
        rel = offset - self.base_offset
        if rel < 0 or rel >= self.num_blocks * self.block_size:
            raise IndexError(f"offset {offset} outside block area")
        return rel // self.block_size, rel % self.block_size

    def _check_id(self, block_id: int) -> None:
        if not 0 <= block_id < self.num_blocks:
            raise IndexError(f"block id {block_id} out of range")

    # -- allocation ------------------------------------------------------------

    def allocate(self, role: Role, cli_id: int = 0, *, slot_size: int = 0,
                 slots: int = 0) -> BlockMeta:
        if not self._free:
            raise AllocationError(f"MN {self.node_id}: no free blocks")
        block_id = self._free.pop()
        meta = self.meta[block_id]
        meta.role = role
        meta.valid = True
        meta.alloc_gen += 1
        meta.cli_id = cli_id
        meta.index_version = 0
        meta.xor_id = 0
        meta.stripe_id = -1
        meta.slot_size = slot_size
        meta.slots = slots
        meta.xor_map = 0
        meta.delta_addrs = []
        meta.free_bitmap = FreeBitmap(slots) if slots else None
        return meta

    def allocate_specific(self, block_id: int, role: Role, cli_id: int = 0,
                          *, slot_size: int = 0, slots: int = 0) -> BlockMeta:
        """Allocate a particular free block (replicated block groups use
        the same id on several MNs so replica addresses are derivable)."""
        self._check_id(block_id)
        try:
            self._free.remove(block_id)
        except ValueError:
            raise AllocationError(f"block {block_id} is not free") from None
        meta = self.meta[block_id]
        meta.role = role
        meta.valid = True
        meta.alloc_gen += 1
        meta.cli_id = cli_id
        meta.index_version = 0
        meta.xor_id = 0
        meta.stripe_id = -1
        meta.slot_size = slot_size
        meta.slots = slots
        meta.xor_map = 0
        meta.delta_addrs = []
        meta.free_bitmap = FreeBitmap(slots) if slots else None
        return meta

    def free(self, block_id: int) -> None:
        self._check_id(block_id)
        meta = self.meta[block_id]
        if meta.role is Role.FREE:
            raise AllocationError(f"double free of block {block_id}")
        meta.role = Role.FREE
        meta.free_bitmap = None
        meta.index_version = 0
        meta.stripe_id = -1
        self._buffers.pop(block_id, None)
        self._free.append(block_id)

    def free_fraction(self) -> float:
        return len(self._free) / self.num_blocks

    def blocks_with_role(self, role: Role) -> List[BlockMeta]:
        return [m for m in self.meta if m.role is role]

    # -- contents ------------------------------------------------------------

    def buffer(self, block_id: int) -> bytearray:
        """The block's real bytes (materialised on first access)."""
        self._check_id(block_id)
        buf = self._buffers.get(block_id)
        if buf is None:
            buf = bytearray(self.block_size)
            self._buffers[block_id] = buf
        return buf

    # ``read`` and ``write`` are what one-sided verbs run at completion:
    # ``locate`` and ``buffer`` written out, each check made once.

    def read(self, offset: int, length: int) -> bytes:
        """Bytes at a node-local offset.  A block whose contents are
        still lost (crashed and not yet recovered) raises
        :class:`NodeFailedError`, which sends the client down the
        degraded-read path (§3.4.1)."""
        rel = offset - self.base_offset
        block_size = self.block_size
        if rel < 0 or rel >= self.num_blocks * block_size:
            raise IndexError(f"offset {offset} outside block area")
        block_id, intra = divmod(rel, block_size)
        if not self.meta[block_id].valid:
            raise NodeFailedError(self.node_id, f"block {block_id} lost")
        if intra + length > block_size:
            raise IndexError("read crosses block boundary")
        buf = self._buffers.get(block_id)
        if buf is None:
            buf = self._buffers[block_id] = bytearray(block_size)
        return bytes(buf[intra:intra + length])

    def write(self, offset: int, data: bytes) -> None:
        rel = offset - self.base_offset
        block_size = self.block_size
        if rel < 0 or rel >= self.num_blocks * block_size:
            raise IndexError(f"offset {offset} outside block area")
        block_id, intra = divmod(rel, block_size)
        end = intra + len(data)
        if end > block_size:
            raise IndexError("write crosses block boundary")
        buf = self._buffers.get(block_id)
        if buf is None:
            buf = self._buffers[block_id] = bytearray(block_size)
        buf[intra:end] = data

    def set_block(self, block_id: int, data: bytes) -> None:
        if len(data) != self.block_size:
            raise ValueError("block content size mismatch")
        self.buffer(block_id)[:] = data

    def crash(self) -> None:
        """Lose all volatile state (MN fail-stop).  Every block comes back
        not valid: until the Meta tier of recovery has restored the
        records, a zero buffer must not be served as a block's contents
        (:meth:`read` sends the reader down the degraded path)."""
        self._buffers.clear()
        self.meta = [BlockMeta(i, valid=False)
                     for i in range(self.num_blocks)]
        self._free = list(range(self.num_blocks - 1, -1, -1))
