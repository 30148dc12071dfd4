"""Per-lane (per-CN) client-side value cache.

The front-end routes every request for a key to one lane (rendezvous
hashing over the alive compute nodes), so all traffic for a key flows
through one lane — but a lane runs one dispatcher *per client*, so a
read and a write for the same key can still overlap inside the lane.
Coherence therefore rests on two mechanisms:

* **write generations** — every write-path mutation (:meth:`put`,
  :meth:`invalidate`) bumps the key's generation.  The read path
  captures a token (:meth:`gen`) before touching the fabric and fills
  the cache through :meth:`fill`, which drops the value if any write
  completed in the meantime — a slow fabric read can never overwrite a
  newer acknowledged value.
* **failure epochs** — a CN crash (keys move to surviving lanes) and an
  MN failure (recovery may resurrect older committed state for keys
  homed there) clear the affected entries via the master's failure
  listener *and* bump the cache epoch, so in-flight read fills started
  before the failure are dropped too.

Distinct from the protocol-level :class:`~repro.index.cache.IndexCache`
(§3.5.1), which caches *slot addresses* and still pays a validation
read: a front-end hit is served from CN-local memory with no fabric
traffic at all.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..index.hashing import home_of

__all__ = ["ValueCache"]


class ValueCache:
    """LRU key -> value map with write-generation coherence."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: "OrderedDict[bytes, bytes]" = OrderedDict()
        #: Per-key count of completed write-path mutations; read fills
        #: started before the latest write are recognisably stale.
        self._gen: Dict[bytes, int] = {}
        #: Bumped on whole-cache invalidation events (CN/MN failures);
        #: stales every in-flight read fill at once.
        self._epoch = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.stale_fills = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def get(self, key: bytes) -> Optional[bytes]:
        if not self.enabled:
            return None
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def gen(self, key: bytes) -> Tuple[int, int]:
        """Opaque coherence token for *key*; changes whenever a write
        path mutates the key or a failure invalidates the cache.
        Capture before a fabric read, hand back to :meth:`fill`."""
        return (self._epoch, self._gen.get(key, 0))

    def put(self, key: bytes, value: bytes) -> None:
        """Write-path store: the caller just committed *value*."""
        if not self.enabled or value is None:
            return
        self._gen[key] = self._gen.get(key, 0) + 1
        self._store(key, value)

    def fill(self, key: bytes, value: bytes, token: Tuple[int, int]) -> bool:
        """Read-path store, conditional on no intervening write.

        *token* is the :meth:`gen` captured before the fabric read was
        issued; if any write to *key* (or a failure invalidation)
        completed since, the read's value may predate acknowledged state
        and is dropped.  Returns whether the value was stored."""
        if not self.enabled or value is None:
            return False
        if token != (self._epoch, self._gen.get(key, 0)):
            self.stale_fills += 1
            return False
        self._store(key, value)
        return True

    def _store(self, key: bytes, value: bytes) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def invalidate(self, key: bytes) -> None:
        if not self.enabled:
            return
        self._gen[key] = self._gen.get(key, 0) + 1
        if self._entries.pop(key, None) is not None:
            self.invalidations += 1

    def invalidate_home(self, node_id: int, num_mns: int) -> int:
        """Drop every entry whose key is homed on *node_id* (MN failure:
        recovery may restore older committed state).  Returns the count."""
        self._epoch += 1
        doomed = [k for k in self._entries
                  if home_of(k, num_mns) == node_id]
        for key in doomed:
            del self._entries[key]
        self.invalidations += len(doomed)
        return len(doomed)

    def clear(self) -> None:
        self._epoch += 1
        self.invalidations += len(self._entries)
        self._entries.clear()
