"""Doorbell-batched multi-key SEARCH (the serving front-end's read path).

A batch of SEARCH keys resolves in at most three fabric stages, each a
single doorbell-batched verb group per destination MN:

* **stage A** — keys with an ``addr_value`` cache entry issue their KV
  read plus 16 B slot-validation read (the §3.5.1 hit path) grouped per
  MN, so a batch of n cached keys costs one doorbell per touched MN
  instead of n;
* **stage B** — uncached keys read both candidate buckets, grouped per
  home MN, then chase their single fingerprint candidate with KV reads
  grouped per data MN;
* **fallback** — anything the fast stages cannot settle (validation
  mismatch, fingerprint collisions, degraded/failed nodes, stale
  lengths) drops to the ordinary :meth:`AcesoClient.search` path, which
  already handles every corner case (recovery waits, degraded reads,
  retries).

The result maps each key to an outcome tuple: ``("ok", value)``,
``("miss", None)`` or ``("error", exc)`` — the caller decides how to
complete each request.  Latency/stat accounting matches the single-key
path: every batch-resolved key records one SEARCH op; fallback keys
record themselves inside :meth:`search`.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Sequence, Tuple

from ..errors import KeyNotFoundError, NodeFailedError, RetryBudgetExceeded
from ..index.cache import CacheEntry
from ..index.hashing import home_of
from ..index.slot import AtomicField, MetaField
from ..memory.address import GlobalAddress
from ..memory.slab import SIZE_UNIT
from ..obs.trace import NULL_SPAN
from ..rdma.verbs import Opcode, Verb

__all__ = ["search_many"]

#: (node_id, index-within-group) reference into the posted verb groups.
_Ref = Tuple[int, int]


def _add_read(client, groups: Dict[int, List[Verb]], node: int,
              offset: int, length: int) -> _Ref:
    mn = client.mns[node]
    verbs = groups.setdefault(node, [])
    verbs.append(Verb(Opcode.READ, length,
                      lambda: mn.read_bytes(offset, length)))
    return (node, len(verbs) - 1)


def _post_groups(client, groups: Dict[int, List[Verb]]) -> Generator:
    """Post every per-MN verb group (one doorbell each) and collect the
    raw results; a group whose destination failed resolves to None."""
    fabric = client.fabric
    events = []
    for node in sorted(groups):
        verbs = groups[node]
        mn_nic = client.mns[node].nic
        if len(verbs) == 1:
            ev = fabric.post(client.nic, mn_nic, verbs[0],
                             track=client._track)
        else:
            ev = fabric.post_batch(client.nic, mn_nic, verbs,
                                   track=client._track)
        events.append((node, ev))
    results: Dict[int, object] = {}
    for node, ev in events:
        try:
            raw = yield ev
        except (NodeFailedError, IndexError):
            results[node] = None
            continue
        results[node] = raw if len(groups[node]) > 1 else [raw]
    return results


def _fetch(results: Dict[int, object], ref: _Ref):
    group = results.get(ref[0])
    return None if group is None else group[ref[1]]


def search_many(client, keys: Sequence[bytes], sp=NULL_SPAN) -> Generator:
    """Resolve a batch of SEARCH keys; returns ``{key: outcome}``."""
    env = client.env
    t0 = env.now
    order: List[bytes] = []
    seen = set()
    for key in keys:
        if key not in seen:
            seen.add(key)
            order.append(key)
    outcomes: Dict[bytes, tuple] = {}
    resolved: List[bytes] = []
    fallback: List[bytes] = []
    cached: List[Tuple[bytes, CacheEntry]] = []
    uncached: List[Tuple[bytes, int]] = []
    master = client.master
    use_addr = client.cache.policy == "addr_value"
    for key in order:
        home = home_of(key, client.num_mns)
        if not master.mn_writable(home) or master.mn_degraded(home):
            # Recovery in progress: the single-key path knows how to wait.
            fallback.append(key)
            continue
        entry = client.cache.lookup(key)
        if use_addr and entry is not None and entry.slot_offset >= 0:
            cached.append((key, entry))
        else:
            uncached.append((key, home))

    # -- stage A: validated cache hits, grouped per MN ------------------
    if cached:
        groups: Dict[int, List[Verb]] = {}
        plans = []
        slot_size = 16 if client.wide else 8
        for key, entry in cached:
            atomic = AtomicField.unpack(entry.atomic_word)
            ga = GlobalAddress.unpack(atomic.addr)
            kv_len = max(entry.len_units, 1) * SIZE_UNIT
            kv_ref = _add_read(client, groups, ga.node_id, ga.offset, kv_len)
            slot_ref = _add_read(client, groups, entry.slot_node,
                                 entry.slot_offset, slot_size)
            plans.append((key, entry, kv_ref, slot_ref))
        results = yield from _post_groups(client, groups)
        for key, entry, kv_ref, slot_ref in plans:
            kv_raw = _fetch(results, kv_ref)
            slot_raw = _fetch(results, slot_ref)
            if kv_raw is None or slot_raw is None:
                fallback.append(key)
                continue
            current = int.from_bytes(slot_raw[:8], "little")
            if current != entry.atomic_word:
                client.stats.bump("cache_slot_changed")
                client.cache.invalidate(key)
                fallback.append(key)
                continue
            record = client._parse_or_none(kv_raw, key)
            if record is None:
                client.cache.invalidate(key)
                fallback.append(key)
                continue
            resolved.append(key)
            if record.tombstone:
                client.stats.bump("search_miss")
                outcomes[key] = ("miss", None)
            else:
                outcomes[key] = ("ok", record.value)

    # -- stage B: bucket queries for uncached keys, grouped per home ----
    if uncached:
        groups = {}
        plans = []
        for key, home in uncached:
            index = client._index_of(home)
            b1, b2 = index.candidate_buckets(key)
            size = index.bucket_size
            r1 = _add_read(client, groups, home,
                           index.bucket_offset(b1), size)
            r2 = _add_read(client, groups, home,
                           index.bucket_offset(b2), size)
            plans.append((key, home, b1, b2, r1, r2))
        results = yield from _post_groups(client, groups)
        kv_groups: Dict[int, List[Verb]] = {}
        kv_plans = []
        for key, home, b1, b2, r1, r2 in plans:
            raw1 = _fetch(results, r1)
            raw2 = _fetch(results, r2)
            if raw1 is None or raw2 is None:
                fallback.append(key)
                continue
            _m, _free, matches = client._find_slot(
                key, [(b1, raw1), (b2, raw2)])
            if not matches:
                resolved.append(key)
                client.stats.bump("search_miss")
                outcomes[key] = ("miss", None)
                continue
            if len(matches) > 1:
                # Fingerprint collision: let the chasing path sort it out.
                fallback.append(key)
                continue
            bucket, slot, atomic_word, meta_word = matches[0]
            if client.wide:
                addr = AtomicField.unpack(atomic_word).addr
                len_units = MetaField.unpack(meta_word).len_units
            else:
                addr = atomic_word & ((1 << 48) - 1)
                len_units = (atomic_word >> 48) & 0xFF
            ga = GlobalAddress.unpack(addr)
            ref = _add_read(client, kv_groups, ga.node_id, ga.offset,
                            max(len_units, 1) * SIZE_UNIT)
            kv_plans.append((key, home, bucket, slot, atomic_word,
                             meta_word, max(len_units, 1), ref))
        kv_results = yield from _post_groups(client, kv_groups)
        for (key, home, bucket, slot, atomic_word, meta_word,
             len_units, ref) in kv_plans:
            raw = _fetch(kv_results, ref)
            record = (client._parse_or_none(raw, key)
                      if raw is not None else None)
            if record is None:
                fallback.append(key)
                continue
            index = client._index_of(home)
            client.cache.store(key, CacheEntry(
                atomic_word=atomic_word, len_units=len_units,
                meta_word=meta_word, slot_node=home,
                slot_offset=index.slot_offset(bucket, slot),
                bucket=bucket, slot=slot,
            ))
            resolved.append(key)
            if record.tombstone:
                client.stats.bump("search_miss")
                outcomes[key] = ("miss", None)
            else:
                outcomes[key] = ("ok", record.value)

    # Batch-resolved keys account one SEARCH op each, like the single path.
    latency = env.now - t0
    for key in resolved:
        client.stats.record_op("SEARCH", latency)

    # -- fallback: the full single-key path -----------------------------
    for key in fallback:
        try:
            value = yield from client.search(key)
            outcomes[key] = ("ok", value)
        except KeyNotFoundError:
            outcomes[key] = ("miss", None)
        except (NodeFailedError, RetryBudgetExceeded) as exc:
            outcomes[key] = ("error", exc)
    sp.set(keys=len(order), batched=len(resolved), fallbacks=len(fallback))
    return outcomes
