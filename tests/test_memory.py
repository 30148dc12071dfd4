"""Tests for the memory substrate: addresses, regions, blocks, slabs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AllocationError
from repro.memory import (
    BlockMeta,
    BlockStore,
    FreeBitmap,
    GlobalAddress,
    MemoryRegion,
    Role,
    SizeClass,
    SizeClasser,
)


# ---------------------------------------------------------------- address

@given(st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=(1 << 40) - 1))
def test_address_pack_roundtrip(node, offset):
    ga = GlobalAddress(node, offset)
    assert GlobalAddress.unpack(ga.pack()) == ga


def test_address_out_of_range():
    with pytest.raises(ValueError):
        GlobalAddress(256, 0).pack()
    with pytest.raises(ValueError):
        GlobalAddress(0, 1 << 40).pack()


def test_unpack_out_of_range():
    with pytest.raises(ValueError):
        GlobalAddress.unpack(1 << 48)


# ---------------------------------------------------------------- region

def test_region_read_write():
    region = MemoryRegion(256)
    region.write(10, b"hello")
    assert region.read(10, 5) == b"hello"


def test_region_bounds_checked():
    region = MemoryRegion(64)
    with pytest.raises(IndexError):
        region.read(60, 8)
    with pytest.raises(IndexError):
        region.write(-1, b"x")


def test_region_u64_roundtrip():
    region = MemoryRegion(64)
    region.write_u64(8, 0xDEADBEEF12345678)
    assert region.read_u64(8) == 0xDEADBEEF12345678


def test_region_cas_success_and_failure():
    region = MemoryRegion(64)
    region.write_u64(0, 5)
    ok, old = region.cas_u64(0, 5, 9)
    assert (ok, old) == (True, 5)
    ok, old = region.cas_u64(0, 5, 11)
    assert (ok, old) == (False, 9)
    assert region.read_u64(0) == 9


def test_region_snapshot_restore():
    region = MemoryRegion(128)
    region.write(0, b"state")
    snap = region.snapshot()
    region.write(0, b"other")
    region.restore(snap)
    assert region.read(0, 5) == b"state"


def test_region_restore_size_checked():
    region = MemoryRegion(128)
    with pytest.raises(ValueError):
        region.restore(b"short")


def test_region_clear():
    region = MemoryRegion(32)
    region.write(0, b"\xff" * 32)
    region.clear()
    assert region.read(0, 32) == bytes(32)


# ---------------------------------------------------------------- bitmap

def _bit(bitmap, bit):
    """One bit of a FreeBitmap, read off its bytes."""
    return bool(bitmap._bytes[bit >> 3] & (1 << (bit & 7)))


def test_bitmap_set_get_clear():
    bm = FreeBitmap(20)
    bm.set(13)
    assert _bit(bm, 13)
    assert [i for i in range(20) if _bit(bm, i)] == [13]


def test_bitmap_bounds():
    bm = FreeBitmap(8)
    with pytest.raises(IndexError):
        bm.set(8)


def test_bitmap_popcount_ratio():
    bm = FreeBitmap(10)
    for i in (0, 3, 7):
        bm.set(i)
    assert bm.popcount() == 3
    assert bm.obsolete_ratio() == pytest.approx(0.3)


def test_bitmap_roundtrip():
    bm = FreeBitmap(17)
    bm.set(16)
    bm.set(2)
    again = FreeBitmap.from_bytes(17, bm.to_bytes())
    assert [_bit(again, i) for i in range(17)] == \
        [_bit(bm, i) for i in range(17)]


def test_bitmap_reset():
    bm = FreeBitmap(8)
    bm.set(0)
    bm.reset()
    assert bm.popcount() == 0


# ---------------------------------------------------------------- metadata

def test_meta_pack_roundtrip_data_block():
    meta = BlockMeta(block_id=7, role=Role.DATA, valid=True, xor_id=2,
                     index_version=42, cli_id=9, stripe_id=3,
                     slot_size=256, slots=32)
    meta.free_bitmap = FreeBitmap(32)
    meta.free_bitmap.set(5)
    again = BlockMeta.unpack(7, meta.pack())
    assert again.role is Role.DATA
    assert again.index_version == 42
    assert again.cli_id == 9
    assert again.stripe_id == 3
    assert again.slot_size == 256
    assert _bit(again.free_bitmap, 5)
    assert not _bit(again.free_bitmap, 4)


def test_meta_pack_roundtrip_parity_block():
    meta = BlockMeta(block_id=1, role=Role.PARITY, xor_id=3,
                     xor_map=0b101, delta_addrs=[0, 77, 0])
    again = BlockMeta.unpack(1, meta.pack())
    assert again.role is Role.PARITY
    assert again.xor_map == 0b101
    assert again.delta_addrs == [0, 77, 0]


def test_meta_copy_is_independent():
    meta = BlockMeta(block_id=0, role=Role.DATA, slots=8, slot_size=64)
    meta.free_bitmap = FreeBitmap(8)
    clone = meta.copy()
    meta.free_bitmap.set(1)
    assert not _bit(clone.free_bitmap, 1)


def test_meta_unfilled_convention():
    """Unfilled blocks carry Index Version 0 (§3.2.3): a new record does,
    and the Meta-replication wire format keeps it apart from a sealed
    block's version."""
    meta = BlockMeta(block_id=0)
    assert BlockMeta.unpack(0, meta.pack()).index_version == 0
    meta.index_version = 3
    assert BlockMeta.unpack(0, meta.pack()).index_version == 3


# ---------------------------------------------------------------- store

def make_store(num_blocks=8, block_size=1024, node_id=1, base=4096):
    return BlockStore(num_blocks, block_size, node_id, base_offset=base)


def test_store_allocate_and_free():
    store = make_store()
    meta = store.allocate(Role.DATA, cli_id=3, slot_size=256, slots=4)
    assert meta.role is Role.DATA
    assert meta.free_bitmap.nbits == 4
    assert store.free_fraction() == pytest.approx(7 / 8)
    store.free(meta.block_id)
    assert store.free_fraction() == 1.0


def test_store_allocation_generation_bumps_per_grant():
    """Every grant of a block (fresh or re-grant after a free) bumps its
    allocation generation — the recovery scrub uses the generation to
    tell an untouched DATA block from one freed and re-granted while
    recovery was running, which the role alone cannot distinguish."""
    store = make_store()
    meta = store.allocate(Role.DATA, slot_size=256, slots=4)
    first = meta.alloc_gen
    assert first >= 1
    store.free(meta.block_id)
    again = store.allocate_specific(meta.block_id, Role.DATA,
                                    slot_size=256, slots=4)
    assert again is meta and again.alloc_gen == first + 1
    # The generation is node-local liveness info, not wire format: a
    # serialised round-trip must neither fail nor carry it.
    assert BlockMeta.unpack(meta.block_id, meta.pack()).alloc_gen == 0


def test_store_double_free_rejected():
    store = make_store()
    meta = store.allocate(Role.DELTA)
    store.free(meta.block_id)
    with pytest.raises(AllocationError):
        store.free(meta.block_id)


def test_store_exhaustion():
    store = make_store(num_blocks=2)
    store.allocate(Role.DATA)
    store.allocate(Role.DATA)
    with pytest.raises(AllocationError):
        store.allocate(Role.DATA)


def test_store_allocate_specific():
    store = make_store()
    meta = store.allocate_specific(5, Role.DATA, slot_size=128, slots=8)
    assert meta.block_id == 5
    with pytest.raises(AllocationError):
        store.allocate_specific(5, Role.DATA)


def test_store_offsets_and_locate():
    store = make_store(block_size=1024, base=4096)
    assert store.offset_of(2) == 4096 + 2048
    assert store.locate(4096 + 2048 + 100) == (2, 100)
    with pytest.raises(IndexError):
        store.locate(0)


def test_store_read_write_block_contents():
    store = make_store()
    meta = store.allocate(Role.DATA)
    offset = store.offset_of(meta.block_id)
    store.write(offset + 10, b"payload")
    assert store.read(offset + 10, 7) == b"payload"


def test_store_rw_cannot_cross_blocks():
    store = make_store(block_size=64)
    with pytest.raises(IndexError):
        store.write(store.offset_of(0) + 60, b"12345678")


def test_store_lazy_materialisation():
    store = make_store(num_blocks=100, block_size=4096)
    assert len(store._buffers) == 0
    store.buffer(3)
    assert len(store._buffers) * store.block_size == 4096


def test_store_set_block_size_checked():
    store = make_store(block_size=64)
    with pytest.raises(ValueError):
        store.set_block(0, b"short")


def test_store_crash_wipes_everything():
    store = make_store()
    meta = store.allocate(Role.DATA)
    store.write(store.offset_of(meta.block_id), b"data")
    store.crash()
    assert store.free_fraction() == 1.0
    assert len(store._buffers) == 0
    assert store.meta[meta.block_id].role is Role.FREE


def test_store_blocks_with_role():
    store = make_store()
    store.allocate(Role.DATA)
    store.allocate(Role.PARITY)
    store.allocate(Role.DATA)
    assert len(store.blocks_with_role(Role.DATA)) == 2
    assert len(store.blocks_with_role(Role.PARITY)) == 1


def test_allocate_resets_recycled_meta():
    store = make_store()
    meta = store.allocate(Role.DATA, cli_id=5, slot_size=64, slots=16)
    meta.index_version = 99
    meta.free_bitmap.set(3)
    store.free(meta.block_id)
    again = store.allocate(Role.DATA, cli_id=6, slot_size=64, slots=16)
    assert again.index_version == 0
    assert again.free_bitmap.popcount() == 0
    assert again.cli_id == 6


# ---------------------------------------------------------------- slab

def test_size_class_rounding():
    classer = SizeClasser(8192)
    cls = classer.class_for(100)
    assert cls.slot_size == 128
    assert cls.slots_per_block == 64
    assert cls.len_units == 2


def test_size_class_exact_multiple():
    cls = SizeClasser(8192).class_for(256)
    assert cls.slot_size == 256


def test_size_class_cached():
    classer = SizeClasser(8192)
    assert classer.class_for(100) is classer.class_for(128)


def test_size_class_slot_offsets():
    cls = SizeClass(256, 1024)
    assert cls.slot_offset(3) == 768
    with pytest.raises(IndexError):
        cls.slot_offset(4)


def test_size_class_invalid():
    with pytest.raises(ValueError):
        SizeClass(100, 1024)  # not a multiple of 64
    with pytest.raises(ValueError):
        SizeClass(2048, 1024)  # bigger than the block
    with pytest.raises(ValueError):
        SizeClasser(1024).class_for(0)
