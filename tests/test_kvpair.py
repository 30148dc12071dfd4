"""Tests for the KV wire format."""

import struct
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.kvpair import (
    HEADER_SIZE,
    VERSION_FIELD_OFFSET,
    encode_kv,
    kv_wire_size,
    parse_kv,
    wv_consistent,
    wv_toggle,
)
from repro.index.slot import INVALID_SLOT_VERSION

keys = st.binary(min_size=1, max_size=32)
values = st.binary(min_size=0, max_size=128)
versions = st.integers(min_value=0, max_value=(1 << 63))


@given(keys, values, versions)
def test_roundtrip(key, value, version):
    size = ((kv_wire_size(len(key), len(value)) + 63) // 64) * 64
    buf = encode_kv(key, value, version, size)
    record = parse_kv(buf)
    assert record is not None
    assert record.key == key
    assert record.value == value
    assert record.slot_version == version
    assert not record.tombstone


def test_tombstone_roundtrip():
    buf = encode_kv(b"k", b"", 5, 64, tombstone=True)
    record = parse_kv(buf)
    assert record.tombstone
    assert record.value == b""


def test_unwritten_slot_parses_none():
    assert parse_kv(bytes(128)) is None


def test_too_small_buffer():
    assert parse_kv(b"\x01" * 8) is None


def test_torn_write_detected():
    buf = bytearray(encode_kv(b"key", b"value", 1, 64, write_version=2))
    buf[-1] = 1  # tail still holds the previous write version
    assert parse_kv(bytes(buf)) is None
    assert not wv_consistent(bytes(buf))


def test_corruption_detected_by_checksum():
    buf = bytearray(encode_kv(b"key", b"value", 1, 64))
    buf[HEADER_SIZE + 1] ^= 0xFF  # flip a key byte
    assert parse_kv(bytes(buf)) is None


def test_version_field_not_in_checksum():
    """Invalidation rewrites only the version; the record must still
    parse (as an invalidated record)."""
    buf = bytearray(encode_kv(b"key", b"value", 1, 64))
    buf[VERSION_FIELD_OFFSET:VERSION_FIELD_OFFSET + 8] = \
        INVALID_SLOT_VERSION.to_bytes(8, "little")
    record = parse_kv(bytes(buf))
    assert record is not None
    assert record.invalidated


def test_oversized_kv_rejected():
    with pytest.raises(ValueError):
        encode_kv(b"k", b"v" * 100, 0, 64)


def test_empty_key_rejected():
    with pytest.raises(ValueError):
        encode_kv(b"", b"v", 0, 64)


def test_bad_write_version_rejected():
    with pytest.raises(ValueError):
        encode_kv(b"k", b"v", 0, 64, write_version=3)


def test_wv_toggle():
    assert wv_toggle(1) == 2
    assert wv_toggle(2) == 1
    assert wv_toggle(0) == 1


def test_wv_consistent_on_overwrite_delta():
    """An overwrite delta carries old_wv ^ new_wv (=3) at both ends."""
    old = encode_kv(b"k", b"v1", 1, 64, write_version=1)
    new = encode_kv(b"k", b"v2", 2, 64, write_version=2)
    delta = bytes(a ^ b for a, b in zip(old, new))
    assert delta[0] == 3 and delta[-1] == 3
    assert wv_consistent(delta)


def test_wv_consistent_on_fresh_delta():
    fresh = encode_kv(b"k", b"v", 1, 64, write_version=1)
    assert wv_consistent(fresh)  # delta of a fresh slot IS the KV


def test_wire_size():
    assert kv_wire_size(3, 5) == HEADER_SIZE + 3 + 5 + 1


def test_padding_is_zero():
    buf = encode_kv(b"k", b"v", 0, 128)
    payload_end = HEADER_SIZE + 2
    assert buf[payload_end:127] == bytes(127 - payload_end)


@given(keys, values)
def test_write_version_straddles(key, value):
    size = ((kv_wire_size(len(key), len(value)) + 63) // 64) * 64
    for wv in (1, 2):
        buf = encode_kv(key, value, 0, size, write_version=wv)
        assert buf[0] == wv and buf[-1] == wv


def reference_encode_kv(key, value, slot_version, slot_size,
                        write_version=1, tombstone=False):
    """The encoder as it was before the one-pass rewrite: a zeroed
    buffer filled by slices, then copied.  ``encode_kv`` must match it
    byte for byte."""
    if not key:
        raise ValueError("empty key")
    if write_version not in (1, 2):
        raise ValueError(f"write version must be 1 or 2: {write_version}")
    need = kv_wire_size(len(key), len(value))
    if need > slot_size:
        raise ValueError(f"KV of {need} bytes exceeds slot of {slot_size}")
    flags = 0x01 if tombstone else 0
    header = struct.pack("<BBHIQ", write_version, flags, len(key),
                         len(value), slot_version & 0xFFFFFFFFFFFFFFFF)
    crc = zlib.crc32(value, zlib.crc32(key, zlib.crc32(
        struct.pack("<BB", flags, len(key) & 0xFF))))
    body = bytearray(slot_size)
    body[:16] = header
    struct.pack_into("<I", body, 16, crc)
    body[HEADER_SIZE:HEADER_SIZE + len(key)] = key
    start = HEADER_SIZE + len(key)
    body[start:start + len(value)] = value
    body[slot_size - 1] = write_version
    return bytes(body)


def test_encode_kv_matches_the_reference_encoder():
    """Every slot size from 64 B to 4 KiB, key and value lengths up to
    the class's limit (an exact fit included), both write versions,
    tombstones, and the Slot Versions at the edges of the field."""
    slot_versions = (0, 1, (1 << 56) + 0x2A, INVALID_SLOT_VERSION, -1)
    checked = 0
    for slot_size in (64, 128, 192, 256, 1024, 4096):
        room = slot_size - kv_wire_size(0, 0)
        for key_len in sorted({1, 2, 13, room // 2, room}):
            for val_len in sorted({0, min(1, room - key_len),
                                   (room - key_len) // 3, room - key_len}):
                key = bytes((7 * i + key_len) & 0xFF
                            for i in range(key_len))
                value = bytes((31 * i + 1) & 0xFF for i in range(val_len))
                for write_version in (1, 2):
                    for tombstone in (False, True):
                        for version in slot_versions:
                            args = (key, value, version, slot_size,
                                    write_version, tombstone)
                            assert encode_kv(*args) \
                                == reference_encode_kv(*args), args
                            checked += 1
    assert checked > 2000


@pytest.mark.parametrize("args", [
    (b"", b"v", 0, 64, 1),              # empty key
    (b"k", b"v", 0, 64, 3),             # write version
    (b"k", b"v" * 100, 0, 64, 1),       # too large for the slot
    (b"k" * 40, b"", 0, 64, 2),         # one byte over an exact fit
])
def test_encode_kv_rejects_what_the_reference_rejects(args):
    with pytest.raises(ValueError) as new:
        encode_kv(*args)
    with pytest.raises(ValueError) as old:
        reference_encode_kv(*args)
    assert str(new.value) == str(old.value)

