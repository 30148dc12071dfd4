"""Tests for differential checkpointing and compression."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    CheckpointImage,
    DifferentialCheckpointer,
    NullCompressor,
    ZlibCompressor,
    make_compressor,
    xor_bytes,
)
from repro.errors import ConfigError


# ---------------------------------------------------------------- xor

@given(st.binary(min_size=0, max_size=256))
def test_xor_self_is_zero(data):
    assert xor_bytes(data, data) == bytes(len(data))


@given(st.binary(min_size=1, max_size=256))
def test_xor_zero_is_identity(data):
    assert xor_bytes(data, bytes(len(data))) == data


@given(st.binary(min_size=1, max_size=128), st.binary(min_size=1, max_size=128))
def test_xor_involution(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    assert xor_bytes(xor_bytes(a, b), b) == a


def test_xor_length_mismatch():
    with pytest.raises(ValueError):
        xor_bytes(b"ab", b"abc")


# ---------------------------------------------------------------- compressors

@given(st.binary(max_size=1024))
def test_zlib_roundtrip(data):
    comp = ZlibCompressor()
    assert comp.decompress(comp.compress(data)) == data


def test_zlib_compresses_sparse_deltas():
    comp = ZlibCompressor()
    sparse = bytearray(64 * 1024)
    sparse[100:108] = b"\xff" * 8
    compressed = comp.compress(bytes(sparse))
    assert len(compressed) < len(sparse) / 100


@given(st.binary(max_size=256))
def test_null_roundtrip(data):
    comp = NullCompressor()
    assert comp.decompress(comp.compress(data)) == data
    assert comp.compress(data) == data


def test_make_compressor():
    """Config names: "zlib" is level 1 on every host, "none" the
    ablation; no codec is chosen by what the host can import."""
    assert make_compressor("zlib").name == "zlib1"
    assert make_compressor("none").name == "none"
    for name in ("bogus", "auto", "lz4"):
        with pytest.raises(ConfigError):
            make_compressor(name)


# ---------------------------------------------------------------- pipeline

def chained_images(snapshots, compressor=None):
    """Run the full source->neighbour pipeline over snapshot history."""
    comp = compressor or ZlibCompressor()
    ckpt = DifferentialCheckpointer(comp, len(snapshots[0]))
    image = None
    for iv, snap in enumerate(snapshots, start=1):
        delta = ckpt.make_delta(snap, iv)
        image = ckpt.apply_delta(image, delta)
    return ckpt, image


def test_first_delta_is_full_snapshot():
    snap = bytes(range(256)) * 4
    ckpt = DifferentialCheckpointer(NullCompressor(), len(snap))
    delta = ckpt.make_delta(snap, 1)
    assert delta.compressed == snap  # XOR against zeros


def test_chain_converges_to_latest_snapshot():
    base = bytearray(4096)
    snapshots = []
    for round_no in range(5):
        base[round_no * 16:round_no * 16 + 8] = b"\xaa" * 8
        snapshots.append(bytes(base))
    _ckpt, image = chained_images(snapshots)
    assert image.data == snapshots[-1]
    assert image.index_version == 5


def test_delta_shrinks_when_changes_are_small():
    base = bytearray(64 * 1024)
    snap1 = bytes(base)
    base[5000:5008] = b"\x11" * 8
    snap2 = bytes(base)
    ckpt = DifferentialCheckpointer(ZlibCompressor(), len(snap1))
    first = ckpt.make_delta(snap1, 1)
    second = ckpt.make_delta(snap2, 2)
    assert second.compressed_size < max(first.compressed_size, 1024)


def test_snapshot_size_change_rejected():
    ckpt = DifferentialCheckpointer(NullCompressor(), 64)
    with pytest.raises(ValueError):
        ckpt.make_delta(bytes(65), 1)


def test_rounds_counted():
    ckpt = DifferentialCheckpointer(NullCompressor(), 16)
    ckpt.make_delta(bytes(16), 1)
    ckpt.make_delta(bytes(16), 2)
    assert ckpt.rounds == 2


def test_timings_populated():
    snap = bytes(8192)
    ckpt = DifferentialCheckpointer(ZlibCompressor(), len(snap))
    delta = ckpt.make_delta(snap, 1)
    ckpt.apply_delta(None, delta)
    t = ckpt.last_timings
    assert t.copy_xor >= 0 and t.compress >= 0
    assert t.decompress >= 0 and t.apply_xor >= 0


def test_apply_from_none_base():
    snap = b"\x42" * 128
    ckpt = DifferentialCheckpointer(NullCompressor(), 128)
    delta = ckpt.make_delta(snap, 7)
    image = ckpt.apply_delta(None, delta)
    assert image.data == snap
    assert image.index_version == 7


@settings(max_examples=20)
@given(st.lists(st.binary(min_size=64, max_size=64), min_size=1, max_size=6))
def test_chain_property(snapshots):
    _ckpt, image = chained_images(snapshots)
    assert image.data == snapshots[-1]
