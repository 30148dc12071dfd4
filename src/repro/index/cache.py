"""Client-side index caches (§3.5.1).

Two policies, matching the paper's factor analysis:

* ``value_only`` (FUSEE's cache) — remembers only the slot *value* (the KV
  pair's address and size).  When the slot has changed, the client cannot
  tell where the slot lives and must re-query the index from the buckets.
* ``addr_value`` (Aceso's cache) — remembers the slot's *address* as well,
  so a changed slot costs just one extra 16 B read of the current slot and
  a re-read of the new KV, never a bucket query (unless the slot address
  itself changed, e.g. after resizing).  The same address lets a *write*
  refresh a cached slot with one 16 B read before it commits against it,
  which it does for keys it has seen other clients change
  (:attr:`CacheEntry.heat`).

Entries are LRU-bounded; the cache is local client memory, so hits cost no
fabric traffic by themselves.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

__all__ = ["CacheEntry", "IndexCache"]

#: Consecutive looks at a slot that must find it unchanged before a write
#: trusts the cached pair again (one measured worse: DESIGN.md).
COOL_LOOKS = 2


@dataclass
class CacheEntry:
    """What a client remembers about one key's slot.

    ``atomic_word`` and ``meta_word`` are always a *coherent pair* — read
    from the slot in one access — so a successful commit CAS against the
    cached Atomic word guarantees the cached Meta (epoch) is still current
    (any intervening update would have changed the Atomic word's version
    bits and failed the CAS).

    A write uses the pair in one of two ways (``AcesoClient.
    _write_inner``): *trust* it and let the commit CAS catch
    staleness, or *refresh* it with one 16 B READ of the slot first.
    ``heat`` decides, from what this client has seen of the slot: every
    *look* — the validating slot read of a cached SEARCH, a refresh READ,
    a trusted commit CAS — either found the slot as cached or found it
    changed by another writer.
    """

    atomic_word: int                # last-seen Atomic (or compact slot) word
    len_units: int                  # KV size class (64 B units)
    meta_word: int = 0              # last-seen Meta word (wide slots)
    slot_node: int = -1             # where the slot lives (addr_value only)
    slot_offset: int = -1           # Atomic-word offset (addr_value only)
    bucket: int = -1
    slot: int = -1
    #: Crash incarnation of ``slot_node`` the entry was stored under (set
    #: by :meth:`IndexCache.store`).  Index recovery may vacate or re-key
    #: a slot, so an entry from an older incarnation proves nothing about
    #: which key the slot holds now.
    home_epoch: int = 0
    #: Unchanged looks still owed before the pair is trusted again: 0
    #: until a look first finds the slot changed.  Survives a re-store
    #: (:meth:`IndexCache.store`), not an invalidation or eviction.
    heat: int = 0

    def looked(self, changed: bool) -> None:
        """Account one look: a change saturates ``heat``, an unchanged
        look steps it down."""
        if changed:
            self.heat = COOL_LOOKS
        elif self.heat:
            self.heat -= 1


class IndexCache:
    """LRU map: key -> :class:`CacheEntry`.

    *epoch_of* maps a node id to its current crash incarnation; entries
    are stamped with it as they are stored.
    """

    def __init__(self, policy: str, capacity: int = 1 << 16,
                 epoch_of=None):
        if policy not in ("addr_value", "value_only"):
            raise ValueError(f"unknown cache policy {policy!r}")
        self.policy = policy
        self.capacity = capacity
        self._epoch_of = epoch_of
        self._entries: "OrderedDict[bytes, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, key: bytes) -> Optional[CacheEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def peek(self, key: bytes) -> Optional[CacheEntry]:
        """The entry :meth:`lookup` would return, without counting a hit
        or refreshing its LRU position."""
        return self._entries.get(key)

    def store(self, key: bytes, entry: CacheEntry) -> None:
        """Remember a slot.

        Both policies retain the slot position (writes CAS the commit
        word directly from the cache in FUSEE too); the policies differ
        on the *read* path — value_only cannot validate a read with a
        single slot read and must re-query the candidate buckets
        (§3.5.1), which is what the addr+value cache removes — and only
        addr_value writes ever refresh a pair before using it.

        A new entry takes over the ``heat`` of the one it replaces: the
        post-commit store builds a fresh object, and what the client
        learnt about the key's writers must outlive its own commits.
        """
        if self._epoch_of is not None and entry.slot_node >= 0:
            entry.home_epoch = self._epoch_of(entry.slot_node)
        old = self._entries.pop(key, None)
        if old is not None:
            entry.heat = old.heat
        self._entries[key] = entry              # lands at the MRU end
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def store_words(self, key: bytes, entry: CacheEntry, atomic_word: int,
                    meta_word: int, len_units: int) -> bool:
        """Store new slot words for *key* into *entry*, the object
        :meth:`lookup` returned, when it is still the cached one: what
        :meth:`store` of a copy carrying these words would leave
        (``home_epoch`` re-stamped, ``heat`` kept, at the MRU end), with
        no object built.  Returns False, storing nothing, when *entry*
        was invalidated or replaced since."""
        entries = self._entries
        if entries.get(key) is not entry:
            return False
        entry.atomic_word = atomic_word
        entry.meta_word = meta_word
        entry.len_units = len_units
        if self._epoch_of is not None and entry.slot_node >= 0:
            entry.home_epoch = self._epoch_of(entry.slot_node)
        entries.move_to_end(key)
        return True

    def invalidate(self, key: bytes) -> None:
        self._entries.pop(key, None)
