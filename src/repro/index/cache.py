"""Client-side index caches (§3.5.1).

Two policies, matching the paper's factor analysis:

* ``value_only`` (FUSEE's cache) — remembers only the slot *value* (the KV
  pair's address and size).  When the slot has changed, the client cannot
  tell where the slot lives and must re-query the index from the buckets.
* ``addr_value`` (Aceso's cache) — remembers the slot's *address* as well,
  so a changed slot costs just one extra 16 B read of the current slot and
  a re-read of the new KV, never a bucket query (unless the slot address
  itself changed, e.g. after resizing).

Entries are LRU-bounded; the cache is local client memory, so hits cost no
fabric traffic by themselves.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

__all__ = ["CacheEntry", "IndexCache"]


@dataclass
class CacheEntry:
    """What a client remembers about one key's slot.

    ``atomic_word`` and ``meta_word`` are always a *coherent pair* — read
    from the slot in one access — so a successful commit CAS against the
    cached Atomic word guarantees the cached Meta (epoch) is still current
    (any intervening update would have changed the Atomic word's version
    bits and failed the CAS).
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


class IndexCache:
    """LRU map: key -> :class:`CacheEntry`.

    *epoch_of* maps a node id to its current crash incarnation; entries
    are stamped with it as they are stored.
    """

    def __init__(self, policy: str, capacity: int = 1 << 16,
                 epoch_of=None):
        if policy not in ("addr_value", "value_only", "none"):
            raise ValueError(f"unknown cache policy {policy!r}")
        self.policy = policy
        #: False under the "none" policy: nothing is stored or found.
        self.enabled = policy != "none"
        self.capacity = capacity
        self._epoch_of = epoch_of
        self._entries: "OrderedDict[bytes, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, key: bytes) -> Optional[CacheEntry]:
        if not self.enabled:
            return None
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
        (§3.5.1), which is what the addr+value cache removes.
        """
        if not self.enabled:
            return
        if self._epoch_of is not None and entry.slot_node >= 0:
            entry.home_epoch = self._epoch_of(entry.slot_node)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def invalidate(self, key: bytes) -> None:
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
