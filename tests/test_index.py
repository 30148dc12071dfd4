"""Tests for hashing, slot formats, the RACE index, and client caches."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index import (
    AtomicField,
    CacheEntry,
    CompactSlot,
    IndexCache,
    INVALID_SLOT_VERSION,
    MetaField,
    RaceIndex,
    bucket_pair,
    fingerprint8,
    hash64,
    home_of,
    slot_version,
    split_slot_version,
)
from repro.memory import MemoryRegion

keys = st.binary(min_size=1, max_size=64)


# ---------------------------------------------------------------- hashing

@given(keys)
def test_hash64_deterministic(key):
    assert hash64(key) == hash64(key)


@given(keys)
def test_hash_salts_differ(key):
    assert hash64(key, b"a") != hash64(key, b"b") or key == b""


@given(keys)
def test_fingerprint_range(key):
    fp = fingerprint8(key)
    assert 1 <= fp <= 255  # 0 means "empty slot"


@given(keys, st.integers(min_value=1, max_value=64))
def test_home_in_range(key, n):
    assert 0 <= home_of(key, n) < n


@given(keys)
def test_bucket_pair_distinct(key):
    b1, b2 = bucket_pair(key, 128)
    assert b1 != b2
    assert 0 <= b1 < 128 and 0 <= b2 < 128


def test_bucket_pair_single_bucket():
    b1, b2 = bucket_pair(b"k", 1)
    assert b1 == b2 == 0


def test_hash_spreads_homes():
    counts = [0] * 5
    for i in range(1000):
        counts[home_of(b"key%d" % i, 5)] += 1
    assert min(counts) > 100  # roughly uniform


# ---------------------------------------------------------------- slots

@given(st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=(1 << 48) - 1))
def test_atomic_roundtrip(fp, ver, addr):
    field = AtomicField(fp, ver, addr)
    assert AtomicField.unpack(field.pack()) == field


@given(st.integers(min_value=0, max_value=(1 << 56) - 1),
       st.integers(min_value=0, max_value=255))
def test_meta_roundtrip(epoch, len_units):
    field = MetaField(epoch, len_units)
    assert MetaField.unpack(field.pack()) == field


@given(st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=(1 << 48) - 1))
def test_compact_roundtrip(fp, len_units, addr):
    field = CompactSlot(fp, len_units, addr)
    assert CompactSlot.unpack(field.pack()) == field


def test_atomic_field_ranges():
    with pytest.raises(ValueError):
        AtomicField(fp=256).pack()
    with pytest.raises(ValueError):
        AtomicField(ver=-1).pack()
    with pytest.raises(ValueError):
        AtomicField(addr=1 << 48).pack()


def test_atomic_bumped_wraps():
    assert AtomicField(1, 255, 7).bumped().ver == 0
    assert AtomicField(1, 4, 7).bumped().ver == 5


def test_empty_slot_detection():
    assert AtomicField(0, 0, 0).empty
    assert not AtomicField(1, 0, 0).empty
    assert CompactSlot(0, 0, 0).empty


def test_meta_lock_flag_is_low_epoch_bit():
    assert MetaField(epoch=3, len_units=0).locked
    assert not MetaField(epoch=4, len_units=0).locked


@given(st.integers(min_value=0, max_value=(1 << 56) - 1),
       st.integers(min_value=0, max_value=255))
def test_slot_version_roundtrip(epoch, ver):
    version = slot_version(epoch, ver)
    assert split_slot_version(version) == (epoch, ver)


def test_slot_version_ordering_across_rollover():
    """§3.2.2: after ver wraps 255 -> 0 the epoch jumps by 2, keeping the
    logical version strictly increasing."""
    before = slot_version(epoch=4, ver=255)
    after = slot_version(epoch=6, ver=0)
    assert after > before


def test_invalid_version_is_all_ones():
    assert INVALID_SLOT_VERSION == (1 << 64) - 1
    epoch, ver = split_slot_version(INVALID_SLOT_VERSION)
    assert ver == 255


# ---------------------------------------------------------------- RACE index

def make_index(wide=True, buckets=16, slots=4):
    slot = 16 if wide else 8
    region = MemoryRegion(buckets * slots * slot + 8)
    return RaceIndex(region, buckets, slots, wide=wide)


def test_index_geometry_wide():
    index = make_index(wide=True, buckets=16, slots=4)
    assert index.bucket_size == 64
    assert index.slot_offset(1, 2) == 64 + 32
    assert index.meta_offset(1, 2) == 64 + 40
    assert index.version_offset == 16 * 64


def test_index_geometry_compact():
    index = make_index(wide=False)
    assert index.bucket_size == 32
    with pytest.raises(ValueError):
        index.meta_offset(0, 0)


def test_index_does_not_fit_region():
    region = MemoryRegion(64)
    with pytest.raises(ValueError):
        RaceIndex(region, 16, 4, wide=True)


def test_index_slot_read_write():
    index = make_index()
    field = AtomicField(fp=9, ver=3, addr=1234)
    index.write_atomic(2, 1, field)
    assert index.read_atomic(2, 1) == field
    meta = MetaField(epoch=8, len_units=4)
    index.write_meta(2, 1, meta)
    assert index.read_meta(2, 1) == meta


def test_index_version_tail():
    index = make_index()
    index.index_version = 42
    assert index.index_version == 42


def test_locate_slot_inverse():
    index = make_index()
    offset = index.slot_offset(5, 3)
    assert index.locate_slot(offset) == (5, 3)
    with pytest.raises(IndexError):
        index.locate_slot(offset + 1)


def test_parse_bucket_words():
    index = make_index()
    index.write_atomic(0, 2, AtomicField(fp=7, ver=0, addr=99))
    raw = index.region.read(index.bucket_offset(0), index.bucket_size)
    words = index.parse_bucket(raw)
    assert words[2] == AtomicField(fp=7, ver=0, addr=99).pack()
    assert words[0] == 0


def test_match_fingerprint_and_free():
    """The client's scan of a raw bucket image (``_find_slot``): the
    fingerprint candidates and the free positions."""
    from tests.conftest import make_aceso
    client = make_aceso().clients[0]
    index = make_index()
    key = b"mykey"
    fp = fingerprint8(key)
    index.write_atomic(0, 1, AtomicField(fp=fp, ver=0, addr=5))
    raw = index.region.read(index.bucket_offset(0), index.bucket_size)
    _match, free, matches = client._find_slot(key,
                                              [(0, index.slot_words(raw))])
    assert [(b, s) for b, s, _atomic, _meta in matches] == [(0, 1)]
    assert (0, 1) not in free
    assert (0, 0) in free


def test_iter_slots_and_load_factor():
    index = make_index(buckets=4, slots=4)
    assert list(index.iter_slots()) == []
    index.write_atomic(0, 0, AtomicField(fp=1, ver=0, addr=1))
    index.write_atomic(3, 3, AtomicField(fp=2, ver=0, addr=2))
    found = list(index.iter_slots())
    assert [(b, s) for b, s, _word in found] == [(0, 0), (3, 3)]


def test_parse_bucket_size_checked():
    index = make_index()
    with pytest.raises(ValueError):
        index.parse_bucket(b"short")


# ---------------------------------------------------------------- cache

def test_cache_hit_miss_counting():
    cache = IndexCache("addr_value")
    assert cache.lookup(b"k") is None
    cache.store(b"k", CacheEntry(atomic_word=1, len_units=1))
    assert cache.lookup(b"k").atomic_word == 1
    assert cache.hits == 1 and cache.misses == 1


def test_cache_value_only_retains_write_location():
    """Both policies keep the slot position (writes CAS directly); the
    policies differ only on the read-validation path."""
    cache = IndexCache("value_only")
    cache.store(b"k", CacheEntry(atomic_word=1, len_units=1, slot_node=3,
                                 slot_offset=64, bucket=1, slot=2))
    entry = cache.lookup(b"k")
    assert entry.slot_node == 3
    assert entry.slot_offset == 64


def test_cache_lru_eviction():
    cache = IndexCache("addr_value", capacity=2)
    for i in range(3):
        cache.store(b"k%d" % i, CacheEntry(atomic_word=i, len_units=1))
    assert cache.lookup(b"k0") is None  # evicted
    assert cache.lookup(b"k2") is not None


def test_cache_lru_touch_on_lookup():
    cache = IndexCache("addr_value", capacity=2)
    cache.store(b"a", CacheEntry(atomic_word=1, len_units=1))
    cache.store(b"b", CacheEntry(atomic_word=2, len_units=1))
    cache.lookup(b"a")  # refresh a
    cache.store(b"c", CacheEntry(atomic_word=3, len_units=1))
    assert cache.lookup(b"a") is not None
    assert cache.lookup(b"b") is None


def test_cache_invalidate():
    cache = IndexCache("addr_value")
    cache.store(b"k", CacheEntry(atomic_word=1, len_units=1))
    cache.invalidate(b"k")
    assert cache.lookup(b"k") is None
    cache.invalidate(b"missing")  # no-op


def test_cache_entry_heat_counts_looks():
    """A changed look saturates ``heat``; each unchanged one steps it
    down to 0 and no further."""
    entry = CacheEntry(atomic_word=1, len_units=1)
    entry.looked(changed=False)
    assert entry.heat == 0
    entry.looked(changed=True)
    entry.looked(changed=True)
    assert entry.heat == 2
    entry.looked(changed=False)
    assert entry.heat == 1
    entry.looked(changed=True)
    assert entry.heat == 2
    for expected in (1, 0, 0):
        entry.looked(changed=False)
        assert entry.heat == expected


def test_cache_store_carries_heat_until_the_entry_is_dropped():
    cache = IndexCache("addr_value", capacity=2)
    first = CacheEntry(atomic_word=1, len_units=1)
    cache.store(b"k", first)
    first.looked(changed=True)
    cache.store(b"k", first)                    # re-stored in place
    assert first.heat == 2
    second = CacheEntry(atomic_word=2, len_units=1)
    cache.store(b"k", second)                   # replaced after a commit
    assert cache.peek(b"k") is second and second.heat == 2
    cache.invalidate(b"k")
    cache.store(b"k", CacheEntry(atomic_word=3, len_units=1))
    assert cache.peek(b"k").heat == 0
    cache.peek(b"k").looked(changed=True)
    cache.store(b"a", CacheEntry(atomic_word=4, len_units=1))
    cache.store(b"b", CacheEntry(atomic_word=5, len_units=1))   # evicts k
    cache.store(b"k", CacheEntry(atomic_word=6, len_units=1))
    assert cache.peek(b"k").heat == 0


def test_cache_store_words_leaves_what_store_of_a_copy_leaves():
    """The post-commit store in place: new words in the looked-up entry,
    ``home_epoch`` re-stamped, ``heat`` kept, moved to the MRU end —
    and nothing stored once the entry is no longer the cached one."""
    epochs = {3: 0}

    def filled():
        cache = IndexCache("addr_value", capacity=2,
                           epoch_of=epochs.__getitem__)
        cache.store(b"k", CacheEntry(atomic_word=1, len_units=1,
                                     meta_word=7, slot_node=3,
                                     slot_offset=64, bucket=1, slot=2))
        cache.store(b"a", CacheEntry(atomic_word=9, len_units=1))
        entry = cache.lookup(b"k")
        entry.looked(changed=True)
        return cache, entry

    copied, entry = filled()
    in_place, same = filled()
    epochs[3] = 5
    copied.store(b"k", CacheEntry(atomic_word=2, len_units=4, meta_word=8,
                                  slot_node=3, slot_offset=64, bucket=1,
                                  slot=2))
    assert in_place.store_words(b"k", same, 2, 8, 4)
    for cache in (copied, in_place):
        cache.store(b"b", CacheEntry(atomic_word=10, len_units=1))
        assert cache.peek(b"a") is None     # k was the MRU: a evicted
    assert in_place.peek(b"k") is same
    assert vars(same) == vars(copied.peek(b"k"))
    assert (same.atomic_word, same.meta_word, same.len_units,
            same.home_epoch, same.heat) == (2, 8, 4, 5, 2)
    in_place.invalidate(b"k")
    assert not in_place.store_words(b"k", same, 3, 8, 4)
    assert in_place.peek(b"k") is None and same.atomic_word == 2


def test_cache_unknown_policy():
    with pytest.raises(ValueError):
        IndexCache("write_back")
