"""On-memory KV pair format.

Every KV pair is written out-of-place into a slab slot of its size class
(a multiple of 64 B).  The layout carries everything recovery needs:

    offset 0   write-version front (1 B): 0 = unwritten, else '01'/'10'
    offset 1   flags (1 B): bit 0 = tombstone (zero-length DELETE record)
    offset 2   key length  (u16)
    offset 4   value length (u32)
    offset 8   Slot Version (u64; all-ones marks an invalidated pair)
    offset 16  payload checksum (u32, crc32 of flags/lengths/key/value)
    offset 20  reserved (4 B)
    offset 24  key bytes, then value bytes
    last byte  write-version back (1 B, equals the front when consistent)

* The *Slot Version* (§3.2.2) orders all KV pairs ever committed to one
  index slot; index recovery keeps the highest per slot.
* The *write versions* (§3.4.2) straddle the record so a torn RDMA write
  (front updated, tail not) is detectable: RDMA writes land in order.
* The checksum covers everything except the mutable Slot Version field, so
  recovery can reject a corrupted stripe reconstruction (e.g. one raced by
  an in-flight write) instead of resurrecting garbage.
* The length header lets a reader detect a stale ``len`` in the index slot
  and repair it (§3.2.2).
"""

from __future__ import annotations

import struct
import zlib
from typing import NamedTuple, Optional

from ..index.slot import INVALID_SLOT_VERSION
from ..memory.slab import SIZE_UNIT

__all__ = ["KVRecord", "encode_kv", "parse_kv", "kv_wire_size",
           "stored_size", "HEADER_SIZE", "VERSION_FIELD_OFFSET",
           "FLAG_TOMBSTONE", "wv_toggle", "wv_consistent"]

HEADER_SIZE = 24
#: Byte offset of the Slot Version field (target of invalidation writes).
VERSION_FIELD_OFFSET = 8
FLAG_TOMBSTONE = 0x01

_HEADER = struct.Struct("<BBHIQ")
#: Header and checksum (20 bytes) in one pass, for the reader.
_HEADER_CRC = struct.Struct("<BBHIQI")
#: The whole 24-byte record head (header, checksum, reserved), for the
#: writer.
_RECORD_HEAD = struct.Struct("<BBHIQI4x")
#: The checksum's 2-byte head: flags, low byte of the key length.  The
#: checksum is crc32 over that head, then the key, then the value.
_CRC_HEAD = struct.Struct("<BB")
_crc32 = zlib.crc32
_new = tuple.__new__
_U64 = (1 << 64) - 1
#: Zero padding, sliced per record: the largest slot an index ``len``
#: (8 bits of 64 B units) can name.
_ZEROS = bytes(0xFF * SIZE_UNIT)
#: The write-version tail byte, by write version.
_WV_BYTE = (b"", b"\x01", b"\x02")


def kv_wire_size(key_len: int, val_len: int) -> int:
    """Bytes a KV pair needs before slab rounding (header + payload + wv)."""
    return HEADER_SIZE + key_len + val_len + 1


def stored_size(buf: bytes) -> Optional[int]:
    """Slab-slot size of the record whose header starts *buf*, from its
    own length fields; ``None`` when nothing was ever written there.

    This is what lets a reader see through a stale ``len`` in the index
    slot (§3.2.2): the slot is the record's wire size rounded up to the
    slab unit, whatever length was read.
    """
    if len(buf) < HEADER_SIZE:
        return None
    wv_front, _flags, key_len, val_len, _version = _HEADER.unpack_from(buf, 0)
    if wv_front == 0:
        return None
    return -(-kv_wire_size(key_len, val_len) // SIZE_UNIT) * SIZE_UNIT


def wv_toggle(previous: int) -> int:
    """Next write-version value: alternates 1 <-> 2 (paper's '01'/'10')."""
    return 2 if previous == 1 else 1


def wv_consistent(buf: bytes) -> bool:
    """Whether a record's straddling write versions agree and are non-zero.

    Works for KV slots *and* their deltas: an overwrite delta carries
    ``old_wv ^ new_wv`` (= 3) at both ends, a fresh-slot delta carries the
    new wv; in both cases a torn write leaves the ends unequal because
    RDMA writes land in address order (§3.4.2).
    """
    if len(buf) < 2:
        return False
    return buf[0] != 0 and buf[0] == buf[-1]


class KVRecord(NamedTuple):
    """A decoded KV pair."""

    key: bytes
    value: bytes
    slot_version: int
    write_version: int
    tombstone: bool = False

    @property
    def invalidated(self) -> bool:
        return self.slot_version == INVALID_SLOT_VERSION


def encode_kv(key: bytes, value: bytes, slot_version: int, slot_size: int,
              write_version: int = 1, tombstone: bool = False) -> bytes:
    """Serialize a KV pair into its slab slot (zero-padded to *slot_size*).

    One ``struct`` pass for the 24-byte head and one join of key, value,
    padding and the write-version tail: every write encodes one record.
    """
    if not key:
        raise ValueError("empty key")
    if write_version not in (1, 2):
        raise ValueError(f"write version must be 1 or 2: {write_version}")
    key_len = len(key)
    val_len = len(value)
    pad = slot_size - (HEADER_SIZE + key_len + val_len + 1)
    if pad < 0:
        raise ValueError(f"KV of {kv_wire_size(key_len, val_len)} bytes "
                         f"exceeds slot of {slot_size}")
    flags = FLAG_TOMBSTONE if tombstone else 0
    crc = _crc32(value, _crc32(key, _crc32(
        _CRC_HEAD.pack(flags, key_len & 0xFF))))
    return b"".join((
        _RECORD_HEAD.pack(write_version, flags, key_len, val_len,
                          slot_version & _U64, crc),
        key, value,
        _ZEROS[:pad] if pad <= len(_ZEROS) else bytes(pad),
        _WV_BYTE[write_version],
    ))


def parse_kv(buf: bytes) -> Optional[KVRecord]:
    """Decode a slab slot; ``None`` for unwritten or torn records.

    A record is consistent iff its front and back write versions are equal
    and non-zero (§3.4.2); invalidated records (version -1) parse fine and
    are flagged via :attr:`KVRecord.invalidated`.
    """
    size = len(buf)
    if size < HEADER_SIZE + 1:
        return None
    wv_front, flags, key_len, val_len, version, crc = \
        _HEADER_CRC.unpack_from(buf, 0)
    if wv_front == 0:
        return None  # never written
    if buf[-1] != wv_front:
        return None  # torn write
    mid = HEADER_SIZE + key_len
    end = mid + val_len
    if end >= size:
        return None  # corrupt lengths
    if not key_len:
        return None
    key = bytes(buf[HEADER_SIZE:mid])
    value = bytes(buf[mid:end])
    # The checksum (``encode_kv``'s), written out: once per KV read.
    if crc != _crc32(value, _crc32(key, _crc32(
            _CRC_HEAD.pack(flags, key_len & 0xFF)))):
        return None  # corrupted (e.g. a raced stripe reconstruction)
    return _new(KVRecord, (key, value, version, wv_front,
                           bool(flags & FLAG_TOMBSTONE)))
