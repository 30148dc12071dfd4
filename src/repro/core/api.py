"""Aceso clients: the INSERT / UPDATE / SEARCH / DELETE API (§3.1).

Clients run on compute nodes and execute every KV request through
one-sided verbs on the simulated fabric; MN CPUs are involved only for the
coarse-grained RPCs (block allocation, sealing, bitmap flushes).

The write path is Algorithm 1: out-of-place KV + delta writes, then a
single RDMA_CAS on the slot's Atomic field as the commit point, with the
8-bit ``ver`` / 56-bit ``epoch`` slot-versioning protocol (lock the Meta
field on rollover; on CAS failure re-stamp the orphan KV pair with the
next Slot Version and CAS again, invalidating it only when the slot
alone cannot decide the retry).  The slot read that opens Algorithm 1 is
one 16 B READ at the cached slot address, and is skipped while the client
has not seen another writer change the key (``CacheEntry.heat``).

The read path uses the local index cache (§3.5.1): with the ``addr_value``
policy a hit costs one KV read plus one 16 B slot-validation read and
never re-queries the index; the ``value_only`` policy (FUSEE's cache, and
the +CKPT factor step) must re-read the candidate buckets to validate.

Degraded reads (§3.4.1): when a KV's block is still lost after an MN's
Index-Area recovery, the client fetches a read plan from the stripe's
P-parity server and rebuilds just the slot region element-wise.
"""

from __future__ import annotations

import struct
from functools import partial
from typing import Dict, Generator, List, NamedTuple, Optional, Tuple

from ..checkpoint.differential import xor_bytes
from ..config import SystemConfig
from ..errors import (
    AllocationError,
    KeyNotFoundError,
    IndexFullError,
    NodeFailedError,
    RetryBudgetExceeded,
)
from ..index.cache import CacheEntry, IndexCache
from ..index.hashing import fingerprint8, hash64, home_of
from ..index.slot import (
    INVALID_SLOT_VERSION,
    AtomicField,
    MetaField,
    slot_version,
)
from ..memory.address import GlobalAddress
from ..memory.slab import SIZE_UNIT, SizeClasser
from ..obs.trace import NULL_SPAN
from ..rdma.qp import rpc_call
from ..rdma.verbs import Opcode, Verb
from ..sim import Interrupt
from .blockmgr import ClientBlockManager, OpenBlock
from .kvpair import (
    VERSION_FIELD_OFFSET,
    KVRecord,
    encode_kv,
    kv_wire_size,
    parse_kv,
    stored_size,
    wv_toggle,
)

__all__ = ["AcesoClient"]

#: Give-up threshold for one op; generous, only guards against livelock.
RETRY_BUDGET = 64
#: Paper §3.2.2 remark 2: retry the Meta lock after 500 us.
LOCK_TIMEOUT = 500e-6
LOCK_POLL = 50e-6
#: Slots left in the open block when the next one is allocated ahead.
PREFETCH_MARGIN = 8

#: Precompiled slot layouts for bucket decoding (hot read path).
_WIDE_SLOT = struct.Struct("<QQ")
_COMPACT_SLOT = struct.Struct("<Q")
#: The 48-bit ``addr`` field of an Atomic (or compact) slot word.
_ADDR_MASK = (1 << 48) - 1


class _Orphan(NamedTuple):
    """A written KV pair whose commit CAS lost (not referenced by any
    slot), with what re-stamping its Slot Version needs."""

    kv: GlobalAddress
    delta: Optional[GlobalAddress]
    #: Slot Version field of the slot's previous contents (0 in a fresh
    #: block): the delta block holds ``old ^ current``.
    old_field: int


class AcesoClient:
    """One client endpoint; all public ops are simulation generators."""

    def __init__(self, env, fabric, config: SystemConfig, cli_id: int,
                 cn, mns: Dict[int, object], servers: Dict[int, object],
                 master, layout, codec, stats, obs=None):
        self.env = env
        self.fabric = fabric
        self.config = config
        self.cli_id = cli_id
        self.cn = cn
        self.nic = cn.nic
        self.mns = mns
        self.servers = servers
        self.master = master
        self.layout = layout
        self.codec = codec
        self.stats = stats
        #: Observability bundle; spans/metrics no-op when None or disabled.
        self.obs = obs
        self._track = f"cli{cli_id}"
        self.cache = IndexCache(config.ft.cache_policy,
                                epoch_of=master.mn_incarnation)
        self.blocks = ClientBlockManager(cli_id)
        self.classer = SizeClasser(config.cluster.block_size)
        self.num_mns = config.cluster.num_mns
        self.wide = config.ft.slot_format == "wide16"
        self._procs: List = []
        self._prefetched: Dict[int, OpenBlock] = {}
        self._prefetching: set = set()
        self.alive = True

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start_background(self) -> None:
        """Start the periodic free-bitmap flush (§3.3.3 step 1)."""
        self._procs.append(self.env.process(
            self._bitmap_flush_loop(), name=f"bitmaps@cli{self.cli_id}"
        ))

    def stop(self) -> None:
        self.alive = False
        for proc in self._procs:
            if proc.is_alive:
                proc.interrupt("client stopped")
        self._procs.clear()

    def _spawn(self, gen, name: str) -> None:
        self._procs.append(self.env.process(gen, name=name))

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def search(self, key: bytes) -> Generator:
        """SEARCH: returns the value bytes; raises KeyNotFoundError.

        A SEARCH interrupted by an MN failure (§3.4.1) waits for the
        affected node's Index-Area recovery and retries; the stall counts
        toward its latency.
        """
        obs = self.obs
        if obs is None or not obs.enabled:
            return self._search_op(key, NULL_SPAN)
        return self._traced_op("SEARCH", self._search_op, key)

    def _traced_op(self, op: str, fn, *args) -> Generator:
        """Run one op generator under a span on this client's track."""
        with self.obs.tracer.span(op, cat="op", track=self._track) as sp:
            result = yield from fn(*args, sp)
            return result

    def _phase(self, name: str):
        """Open a protocol-phase span (``cat="phase"``) on this client's
        track; :mod:`repro.obs.attr` claims these intervals first when
        decomposing op latency.  No-op when tracing is off."""
        obs = self.obs
        if obs is None or not obs.enabled:
            return NULL_SPAN
        return obs.tracer.span(name, cat="phase", track=self._track)

    def _search_op(self, key: bytes, sp) -> Generator:
        t0 = self.env.now
        home = self._home(key)
        for attempt in range(RETRY_BUDGET):
            try:
                record = yield from self._search_inner(key, home)
            except NodeFailedError as exc:
                self.stats.bump("search_interrupted")
                self.cache.invalidate(key)
                node = exc.node_id if exc.node_id >= 0 else home
                if node < self.num_mns:
                    while not self.master.mn_writable(node):
                        yield self.master.milestone(node, "index_recovered")
                continue
            self.stats.record_op("SEARCH", self.env.now - t0)
            sp.set(retries=attempt)
            if record is None or record.tombstone:
                self.stats.bump("search_miss")
                raise KeyNotFoundError(key)
            return record.value
        raise RetryBudgetExceeded(f"SEARCH {key!r}")

    def search_many(self, keys) -> Generator:
        """Batched SEARCH: resolve several keys with doorbell-batched verb
        groups (one op cost per touched MN per stage); returns
        ``{key: ("ok", value) | ("miss", None) | ("error", exc)}``.

        Used by the serving front-end; semantically equivalent to issuing
        :meth:`search` per key (corner cases fall back to exactly that).
        """
        from .multiget import search_many as _search_many
        obs = self.obs
        if obs is None or not obs.enabled:
            return _search_many(self, keys, NULL_SPAN)
        return self._traced_op("MULTIGET", self._search_many_op, keys)

    def _search_many_op(self, keys, sp) -> Generator:
        from .multiget import search_many as _search_many
        out = yield from _search_many(self, keys, sp)
        return out

    def insert(self, key: bytes, value: bytes) -> Generator:
        yield from self._write(key, value, "INSERT")

    def update(self, key: bytes, value: bytes) -> Generator:
        yield from self._write(key, value, "UPDATE")

    def delete(self, key: bytes) -> Generator:
        yield from self._write(key, b"", "DELETE")

    # ------------------------------------------------------------------
    # fabric helpers
    # ------------------------------------------------------------------

    # These three and ``_query_buckets`` are the only places a client
    # posts verbs (tests count an op's verbs by wrapping them).

    def _post_read(self, node: int, offset: int, length: int):
        mn = self.mns[node]
        return self.fabric.read(self.nic, mn.nic, length, mn.read_bytes,
                                (offset, length), "client", self._track)

    def _post_write(self, node: int, offset: int, data: bytes):
        mn = self.mns[node]
        return self.fabric.write(self.nic, mn.nic, len(data), mn.write_bytes,
                                 (offset, data), "client", self._track)

    def _post_cas(self, node: int, offset: int, expected: int, new: int):
        mn = self.mns[node]
        return self.fabric.cas(self.nic, mn.nic, mn.cas_u64,
                               (offset, expected, new), "client", self._track)

    def _rpc(self, server, method, *args, response_size=64,
             timeout=10e-3):
        """Client control-plane RPC.  The generous default timeout keeps
        multi-hop handlers (block allocation) from being abandoned
        half-applied when MN serving queues are deep."""
        result = yield from rpc_call(self.env, self.fabric, self.nic,
                                     server.rpc_server, method, *args,
                                     response_size=response_size,
                                     timeout=timeout, track=self._track)
        return result

    def _leader(self):
        alive = sorted(i for i, s in self.servers.items()
                       if self.fabric.is_alive(i))
        if not alive:
            raise NodeFailedError(-1, "no alive MN")
        return self.servers[alive[0]]

    # ------------------------------------------------------------------
    # index access
    # ------------------------------------------------------------------

    def _home(self, key: bytes) -> int:
        return home_of(key, self.num_mns)

    def _ensure_home_writable(self, home: int) -> Generator:
        """Writes to a failed MN's index range block until its Index Area
        is recovered (§3.4.1)."""
        while not self.master.mn_writable(home):
            yield self.master.milestone(home, "index_recovered")

    def _index_of(self, node: int):
        return self.mns[node].index

    def _query_buckets(self, key: bytes, home: int) -> Generator:
        """Read both candidate buckets in one doorbell batch."""
        index = self._index_of(home)
        b1, b2 = index.candidate_buckets(key)
        mn = self.mns[home]
        size = index.bucket_size
        verbs = [Verb(Opcode.READ, size,
                      partial(mn.read_bytes, index.bucket_offset(b1), size)),
                 Verb(Opcode.READ, size,
                      partial(mn.read_bytes, index.bucket_offset(b2), size))]
        raws = yield self.fabric.post_batch(self.nic, mn.nic, verbs,
                                            track=self._track)
        return [(b1, raws[0]), (b2, raws[1])]

    def _find_slot(self, key: bytes, buckets):
        """Locate *key* in raw bucket images.

        Returns (match, free, matches): ``matches`` are all fingerprint
        candidates as (bucket, slot, atomic_word, meta_word); ``free`` the
        empty positions.
        """
        matches = []
        free: List[Tuple[int, int]] = []
        fp = fingerprint8(key)
        for bucket, raw in buckets:
            words = self._bucket_words(raw)
            for slot, (atomic_word, meta_word) in enumerate(words):
                if atomic_word == 0:
                    free.append((bucket, slot))
                    continue
                if (atomic_word >> 56) & 0xFF == fp:
                    matches.append((bucket, slot, atomic_word, meta_word))
        match = matches[0] if matches else None
        return match, free, matches

    def _bucket_words(self, raw: bytes) -> List[Tuple[int, int]]:
        """(atomic, meta) word pairs of a raw bucket image (meta = 0 when
        slots are compact)."""
        if self.wide:
            return list(_WIDE_SLOT.iter_unpack(raw))
        return [(atomic, 0) for (atomic,) in _COMPACT_SLOT.iter_unpack(raw)]

    # ------------------------------------------------------------------
    # SEARCH path
    # ------------------------------------------------------------------

    def _search_inner(self, key: bytes, home: int) -> Generator:
        """Pick the read path by what the cache knows; returns that
        path's generator (not a generator itself: one frame less on
        every resume of every SEARCH)."""
        cache = self.cache
        entry = cache.lookup(key)
        if entry is not None:
            if cache.policy == "addr_value":
                return self._search_cached_addr(key, home, entry)
            return self._search_cached_value(key, home, entry)
        return self._search_via_index(key, home)

    def _search_cached_addr(self, key: bytes, home: int,
                            entry: CacheEntry) -> Generator:
        """Aceso's cache hit: KV read + 16 B slot read, in parallel."""
        ga = GlobalAddress.unpack(entry.atomic_word & _ADDR_MASK)
        kv_ev = self._post_read(ga.node_id, ga.offset,
                                entry.len_units * SIZE_UNIT)
        slot_ev = self._post_read(entry.slot_node, entry.slot_offset,
                                  16 if self.wide else 8)
        kv_raw, slot_raw = yield self.env.all_of([kv_ev, slot_ev])
        current_word = int.from_bytes(slot_raw[:8], "little")
        if current_word == entry.atomic_word:
            if entry.heat:
                entry.looked(False)
            record = self._parse_or_none(kv_raw, key)
            if record is not None:
                return record
            # Stale length or fp collision: fall through to a fresh query.
            self.cache.invalidate(key)
            record = yield from self._search_via_index(key, home)
            return record
        # Slot changed: read the new KV directly — no bucket query needed.
        self.stats.bump("cache_slot_changed")
        entry.looked(True)
        new_atomic = AtomicField.unpack(current_word)
        if new_atomic.empty:
            # The slot was vacated (e.g. recovery re-placed the key in a
            # different free slot): only a full query is authoritative.
            self.cache.invalidate(key)
            record = yield from self._search_via_index(key, home)
            return record
        meta_word = (int.from_bytes(slot_raw[8:16], "little")
                     if self.wide else 0)
        len_units = (MetaField.unpack(meta_word).len_units
                     if self.wide else entry.len_units)
        record, raw = yield from self._read_kv_checked(
            new_atomic.addr, max(len_units, 1) * SIZE_UNIT, key
        )
        if record is not None:
            entry.atomic_word = current_word
            entry.meta_word = meta_word
            entry.len_units = len(raw) // SIZE_UNIT
            self.cache.store(key, entry)
            return record
        self.cache.invalidate(key)
        record = yield from self._search_via_index(key, home)
        return record

    def _search_cached_value(self, key: bytes, home: int,
                             entry: CacheEntry) -> Generator:
        """Value-only cache hit (FUSEE's policy): the KV read must be
        validated by re-reading the slot's bucket — the cache holds no
        slot address to check with a single-word read, so the whole
        bucket comes back (the read amplification §3.5.1 removes)."""
        atomic_word = entry.atomic_word
        ga = GlobalAddress.unpack(atomic_word & _ADDR_MASK)
        kv_ev = self._post_read(ga.node_id, ga.offset,
                                entry.len_units * SIZE_UNIT)
        index = self._index_of(home)
        bucket = entry.bucket if entry.bucket >= 0 \
            else index.candidate_buckets(key)[0]
        size = index.bucket_size
        offset = index.bucket_offset(bucket)
        bucket_ev = self._post_read(home, offset, size)
        outcome = yield self.env.all_of([kv_ev, bucket_ev])
        kv_raw, raw = outcome
        match, _free, _all = self._find_slot(key, [(bucket, raw)])
        if match is not None and match[2] == atomic_word:
            record = self._parse_or_none(kv_raw, key)
            if record is not None:
                return record
        # Slot changed (or moved): fall back to a full index query.
        self.stats.bump("cache_slot_changed")
        self.cache.invalidate(key)
        record = yield from self._search_via_index(key, home)
        return record

    def _search_via_index(self, key: bytes, home: int) -> Generator:
        while not self.master.mn_writable(home):
            yield self.master.milestone(home, "index_recovered")
        buckets = yield from self._query_buckets(key, home)
        record = yield from self._resolve_candidates(key, home, buckets)
        return record

    def _resolve_candidates(self, key: bytes, home: int, buckets) -> Generator:
        """Chase fingerprint candidates until the key matches."""
        _match, _free, matches = self._find_slot(key, buckets)
        index = self._index_of(home)
        for bucket, slot, atomic_word, meta_word in matches:
            atomic = AtomicField.unpack(atomic_word) if self.wide else None
            if self.wide:
                addr = atomic.addr
                len_units = MetaField.unpack(meta_word).len_units
            else:
                addr = atomic_word & _ADDR_MASK
                len_units = (atomic_word >> 48) & 0xFF
            record, raw = yield from self._read_kv_checked(
                addr, max(len_units, 1) * SIZE_UNIT, key
            )
            if record is not None:
                self.cache.store(key, CacheEntry(
                    atomic_word=atomic_word, len_units=len(raw) // SIZE_UNIT,
                    meta_word=meta_word, slot_node=home,
                    slot_offset=index.slot_offset(bucket, slot),
                    bucket=bucket, slot=slot,
                ))
                return record
        return None

    @staticmethod
    def _parse_or_none(raw, key: bytes):
        """Decode a KV read; None unless it is a consistent, valid record
        of *key* (fp collisions and invalidated pairs filter out here)."""
        if raw is None:
            return None
        record = parse_kv(raw)
        if record is None or record.key != key \
                or record.slot_version == INVALID_SLOT_VERSION:
            return None
        return record

    def _read_kv_checked(self, packed_addr: int, length: int,
                         key: bytes) -> Generator:
        """Read a KV pair, tolerating a stale ``len`` (§3.2.2) and lost
        blocks (degraded read).  Returns ``(record, raw)``; ``raw`` is
        exactly the record's slab slot when ``record`` is not None."""
        ga = GlobalAddress.unpack(packed_addr)
        block_id, intra = self._locate_block_slot(ga)
        if block_id is None:
            return None, None
        # A stale len may overshoot the block; no record crosses its end.
        room = self.config.cluster.block_size - intra
        length = min(length, room)
        try:
            raw = yield self._post_read(ga.node_id, ga.offset, length)
        except NodeFailedError:
            with self._phase("degraded_read"):
                raw = yield from self._degraded_read(ga, length)
            if raw is None:
                return None, None
        record = parse_kv(raw)
        if record is None:
            # Possibly a stale length (a size-changing commit repairs the
            # slot's len a round trip after its CAS): the record's own
            # header names its extent.
            size = stored_size(raw)
            if size is None or size == length or size > room:
                return None, raw
            if size > length:
                try:
                    raw = yield self._post_read(ga.node_id, ga.offset, size)
                except NodeFailedError:
                    return None, None
            else:
                raw = raw[:size]
            record = parse_kv(raw)
        if record is None or record.key != key or record.invalidated:
            return None, raw
        return record, raw

    # ------------------------------------------------------------------
    # degraded read (§3.4.1)
    # ------------------------------------------------------------------

    def _degraded_read(self, ga: GlobalAddress, length: int) -> Generator:
        """Rebuild a slot region of a lost block from its stripe."""
        node = ga.node_id
        # Degraded reads need the lost MN's Meta Area back (tiered recovery
        # restores it first); block until then.
        while self.master.mn_state(node) == "failed":
            yield self.master.milestone(node, "meta_recovered")
        mn = self.mns[node]
        block_id, intra = mn.blocks.locate(ga.offset)
        info = yield from self._rpc(self.servers[node], "block_info", block_id)
        sid, pos = info["stripe_id"], info["position"]
        if sid < 0:
            return None
        pnode = self.layout.node_of(sid, self.codec.k)
        plan = yield from self._rpc(self.servers[pnode], "degraded_plan",
                                    sid, pos, intra, length,
                                    response_size=256)
        self.stats.bump("degraded_reads")
        results = yield self.env.all_of(
            [self._post_read(n, off, length) for n, off in plan.regions()])
        return plan.solve(self.codec, results)

    # ------------------------------------------------------------------
    # write path (Algorithm 1)
    # ------------------------------------------------------------------

    def _write(self, key: bytes, value: bytes, op: str) -> Generator:
        obs = self.obs
        if obs is None or not obs.enabled:
            return self._write_inner(key, value, op, NULL_SPAN)
        return self._traced_op(op, self._write_inner, key, value, op)

    def _write_inner(self, key: bytes, value: bytes, op: str,
                     sp) -> Generator:
        t0 = self.env.now
        home = self._home(key)
        cas_count = 0
        retries = 0
        while retries < RETRY_BUDGET:
            yield from self._ensure_home_writable(home)
            # Incarnation of the home index the located slot was verified
            # under: a cached slot address carries the one it was stored
            # under (taken before the lookup below; no yield in between).
            cached = self.cache.peek(key)
            if cached is not None and cached.slot_offset < 0:
                cached = None
            slot_epoch = (cached.home_epoch if cached is not None
                          else self.master.mn_incarnation(home))
            # A cached pair used as it is makes the commit CAS a look at
            # the slot (a refreshed one, heat > 0, was looked at already);
            # only a lost CAS moves a heat of 0.
            trusted = cached if cached is not None and not cached.heat \
                else None
            try:
                located = yield from self._locate_for_write(key, home, op)
            except NodeFailedError:
                retries += 1
                self.cache.invalidate(key)
                continue
            if located is None:
                self.stats.record_error(op)
                raise KeyNotFoundError(key)
            (bucket, slot, atomic_word, meta_word, fresh_insert) = located
            index = self._index_of(home)
            slot_offset = index.slot_offset(bucket, slot)
            atomic_old = AtomicField.unpack(atomic_word)
            meta_old = MetaField.unpack(meta_word)
            fp = fingerprint8(key)

            # --- slot-version bookkeeping (Algorithm 1 lines 3-14) -----
            rolled = False
            if fresh_insert:
                ver_new = 1
                epoch_eff = 0
            else:
                if meta_old.locked:
                    with self._phase("lock_wait"):
                        took_over = yield from self._wait_or_takeover(
                            key, home, bucket, slot, meta_old
                        )
                    retries += 1
                    if not took_over:
                        # The lock was released (or the takeover lost):
                        # the located Atomic/Meta pair is stale, and if
                        # it came from the cache every retry would poll
                        # against the same locked word.
                        self.cache.invalidate(key)
                        continue
                    meta_word = took_over
                    meta_old = MetaField.unpack(meta_word)
                    # We now hold the lock (odd epoch).
                    rolled = True
                ver_new = (atomic_old.ver + 1) & 0xFF
                if atomic_old.ver == 0xFF and not rolled:
                    # Rollover: lock the Meta field (epoch -> odd).
                    locked_meta = MetaField(meta_old.epoch + 1,
                                            meta_old.len_units)
                    cas_count += 1
                    try:
                        ok, _old = yield self._post_cas(
                            home, index.meta_offset(bucket, slot),
                            meta_old.pack(), locked_meta.pack(),
                        )
                    except NodeFailedError:
                        retries += 1
                        continue
                    if not ok:
                        # Another client rolled the slot over first; a
                        # cached pair would lose this CAS forever.
                        retries += 1
                        self.cache.invalidate(key)
                        yield self.env.timeout(LOCK_POLL)
                        continue
                    meta_old = locked_meta
                    rolled = True
                if rolled:
                    epoch_eff = meta_old.epoch + 1  # the final, even epoch
                else:
                    epoch_eff = meta_old.epoch
            version = slot_version(epoch_eff, ver_new)

            # --- write the KV pair and its delta out of place ------------
            size_class = self.classer.class_for(
                kv_wire_size(len(key), len(value))
            )
            block, wslot = yield from self._get_write_slot(size_class)
            if not self._grant_writable(block):
                # A KV/delta write landing now could be overwritten or
                # clobber another client's block (§3.4.1).  Abandon the
                # grant and allocate a fresh block.
                self.blocks.retire_if(size_class.slot_size, block)
                retries += 1
                continue
            old_bytes = block.slot_old_bytes(wslot)
            wv = wv_toggle(old_bytes[0]) if old_bytes[0] else 1
            kv_bytes = encode_kv(key, value, version, size_class.slot_size,
                                 write_version=wv, tombstone=(op == "DELETE"))
            delta_bytes = (xor_bytes(kv_bytes, old_bytes)
                           if block.grant.reused else kv_bytes)
            kv_addr = block.kv_address(wslot)
            delta_addr = block.delta_address(wslot)
            writes = [self._post_write(kv_addr.node_id, kv_addr.offset,
                                       kv_bytes)]
            if delta_addr is not None:
                writes.append(self._delta_write_event(delta_addr, delta_bytes))
            try:
                yield self.env.all_of(writes)
            except NodeFailedError:
                # A failed MN on the write path: bypass it (§3.4.1) — the
                # KV write must land, the delta write may be skipped.  The
                # KV write is already posted: wait for it (it raises
                # again if the data node is the dead one).
                try:
                    yield writes[0]
                except NodeFailedError:
                    retries += 1
                    block.writes_done += 1
                    self._maybe_seal(size_class, block)
                    continue

            # --- commit: CAS the Atomic field --------------------------
            new_atomic = AtomicField(fp=fp, ver=ver_new,
                                     addr=kv_addr.pack())
            meta_final = MetaField(epoch_eff, size_class.len_units)
            try:
                if fresh_insert:
                    # Publish the Meta word before the commit CAS so
                    # readers see a valid length.
                    yield self._post_write(
                        home, index.meta_offset(bucket, slot),
                        meta_final.pack().to_bytes(8, "little"),
                    )
                cas_count += 1
                ok, _observed = yield self._post_cas(
                    home, slot_offset, atomic_word, new_atomic.pack()
                )
            except NodeFailedError:
                retries += 1
                block.writes_done += 1
                self._maybe_seal(size_class, block)
                self.cache.invalidate(key)
                continue
            block.writes_done += 1
            if ok:
                try:
                    if rolled:
                        # Unlock: epoch to the next even value (line 20).
                        cas_count += 1
                        yield self._post_cas(
                            home, index.meta_offset(bucket, slot),
                            meta_old.pack(), meta_final.pack(),
                        )
                    elif not fresh_insert and \
                            meta_old.len_units != size_class.len_units:
                        # Size class changed: repair the len (§3.2.2).
                        yield self._post_write(
                            home, index.meta_offset(bucket, slot),
                            meta_final.pack().to_bytes(8, "little"),
                        )
                except NodeFailedError:
                    pass  # commit already landed; recovery fixes the Meta
            else:
                # --- CAS lost: re-stamp the orphan KV and CAS again, or
                # invalidate it (line 18) and start over -----------------
                self.stats.bump("commit_conflicts")
                if trusted is not None:
                    trusted.looked(changed=True)
                orphan = _Orphan(kv_addr, delta_addr, int.from_bytes(
                    old_bytes[VERSION_FIELD_OFFSET:VERSION_FIELD_OFFSET + 8],
                    "little"))
                # Inserts race for an empty slot and a rollover holds the
                # Meta lock: neither can be served from the slot alone.
                keep = self.wide and not (fresh_insert or rolled)
                with self._phase("cas_retry"):
                    won, rounds = yield from self._resolve_conflict(
                        home, slot_offset, slot_epoch, fp, size_class,
                        block, orphan,
                        RETRY_BUDGET - retries - 1 if keep else 0)
                    if won is None and rolled:
                        yield self._post_cas(
                            home, index.meta_offset(bucket, slot),
                            meta_old.pack(),
                            MetaField(epoch_eff, meta_old.len_units).pack(),
                        )
                cas_count += rounds
                retries += rounds
                if won is None:
                    self.cache.invalidate(key)
                    self._maybe_seal(size_class, block)
                    retries += 1
                    continue
                atomic_old, new_atomic, meta_final = won
            self._mark_old_obsolete(atomic_old, fresh_insert)
            self.cache.store(key, CacheEntry(
                atomic_word=new_atomic.pack(),
                len_units=size_class.len_units,
                meta_word=meta_final.pack(),
                slot_node=home, slot_offset=slot_offset,
                bucket=bucket, slot=slot,
            ))
            self._maybe_seal(size_class, block)
            self.stats.record_op(op, self.env.now - t0, cas=cas_count,
                                 retries=retries)
            sp.set(retries=retries, cas=cas_count)
            return
        raise RetryBudgetExceeded(f"{op} {key!r} exceeded {RETRY_BUDGET} retries")

    def _delta_write_event(self, delta_addr: GlobalAddress, data: bytes):
        return self._post_write(delta_addr.node_id, delta_addr.offset, data)

    def _wait_or_takeover(self, key, home, bucket, slot, meta_locked):
        """Meta locked by another client: poll, then take over after the
        timeout (remark 2 of §3.2.2).  Returns the new meta word when the
        lock was taken over, else None (caller retries)."""
        index = self._index_of(home)
        waited = 0.0
        while waited < LOCK_TIMEOUT:
            yield self.env.timeout(LOCK_POLL)
            waited += LOCK_POLL
            raw = yield self._post_read(home, index.meta_offset(bucket, slot), 8)
            meta = MetaField.unpack(int.from_bytes(raw, "little"))
            if not meta.locked:
                return None
        # Take over: epoch to the next odd number.
        takeover = MetaField(meta.epoch + 2, meta.len_units)
        ok, _ = yield self._post_cas(home, index.meta_offset(bucket, slot),
                                     meta.pack(), takeover.pack())
        if ok:
            self.stats.bump("lock_takeovers")
            return takeover.pack()
        return None

    def _locate_for_write(self, key: bytes, home: int, op: str):
        """Find (bucket, slot, atomic_word, meta_word, fresh_insert).

        A cache hit is used in one of two ways.  *Trust*: return the
        cached Atomic/Meta pair and let the commit CAS catch staleness —
        no verb here, and a lost CAS (then `_resolve_conflict`) when
        another client wrote the key since.  *Refresh*: read the 16 B slot
        at the cached address first and return the pair just read — one
        small round trip more, and the CAS loses only to a true race.
        The entry's ``heat`` picks (trust while no look at the slot found
        it changed, and again after two unchanged looks in a row); only
        the addr_value cache on wide slots refreshes — the slot address
        is that cache's feature (§3.5.1), and FUSEE and the earlier factor
        steps keep their verbs.  Without a hit the candidate buckets are
        queried.

        Raises ``NodeFailedError`` when a refresh finds the home MN
        failed since the entry was stored.
        """
        cache = self.cache
        entry = cache.lookup(key)
        if entry is not None and entry.slot_offset >= 0:
            if not (entry.heat and self.wide
                    and cache.policy == "addr_value"):
                return (entry.bucket, entry.slot, entry.atomic_word,
                        entry.meta_word, False)
            pair = yield from self._refresh_slot(key, home, entry)
            if pair is not None:
                return (entry.bucket, entry.slot, *pair, False)
            cache.invalidate(key)
        buckets = yield from self._query_buckets(key, home)
        _match, free, matches = self._find_slot(key, buckets)
        # Verify fingerprint candidates actually hold this key.
        for bucket, slot, atomic_word, meta_word in matches:
            addr = atomic_word & _ADDR_MASK
            len_units = ((meta_word & 0xFF) if self.wide
                         else (atomic_word >> 48) & 0xFF)
            record, _ = yield from self._read_kv_checked(
                addr, max(len_units, 1) * SIZE_UNIT, key
            )
            if record is not None:
                return bucket, slot, atomic_word, meta_word, False
        if op in ("UPDATE", "DELETE"):
            return None
        if not free:
            raise IndexFullError(f"no free slot for {key!r}")
        # Spread concurrent inserts across the free positions (picking the
        # first free slot would make unrelated keys contend on one CAS).
        bucket, slot = free[hash64(key, b"slotpick") % len(free)]
        return bucket, slot, 0, 0, True

    def _refresh_slot(self, key: bytes, home: int,
                      entry: CacheEntry) -> Generator:
        """Read the slot a cache entry names: its current (atomic_word,
        meta_word), or None when it no longer holds *key* (vacated, or
        under another fingerprint).  Nothing has been written yet, so a
        caller that gives the entry up has no orphan to invalidate.

        The home MN's incarnation is compared after the READ returns, as
        `_resolve_conflict` does: index recovery may re-key a slot, and a
        fingerprint match alone would then adopt another key's slot.
        """
        raw = yield self._post_read(home, entry.slot_offset, 16)
        master = self.master
        if not master.mn_writable(home) \
                or master.mn_incarnation(home) != entry.home_epoch:
            raise NodeFailedError(home, "home index recovered since the "
                                  "slot was cached")
        self.stats.bump("slot_refreshes")
        atomic_word, meta_word = _WIDE_SLOT.unpack(raw)
        changed = atomic_word != entry.atomic_word
        entry.looked(changed)
        if changed:
            self.stats.bump("slot_refresh_stale")
            if atomic_word >> 56 != fingerprint8(key) \
                    or atomic_word & _ADDR_MASK == 0:
                return None
        return atomic_word, meta_word

    def _grant_writable(self, block: OpenBlock) -> bool:
        """Whether KV/delta writes through *block*'s grant may still land:
        false once its data or delta node crashed after the grant was
        issued (the recovered node may re-hand out the space) or while the
        data node's Block Area is being rebuilt."""
        grant = block.grant
        master = self.master
        return (
            master.mn_incarnation(grant.data_node) == block.epoch[0]
            and (grant.delta_node < 0
                 or master.mn_incarnation(grant.delta_node) == block.epoch[1])
            and master.mn_block_writable(grant.data_node)
        )

    def _stamp_orphan(self, orphan: _Orphan, version: int) -> Generator:
        """Overwrite the Slot Version field of an uncommitted KV pair and
        patch its delta to match (two parallel 8 B writes).

        ``INVALID_SLOT_VERSION`` is Algorithm 1 line 18; any other value
        turns the orphan into a fresh in-flight write of that version.
        The KV checksum excludes this field, and the delta block holds
        ``old_content ^ current_content``, so the delta's field becomes
        ``old_field ^ version`` and parity folding stays consistent.
        Returns False when a target node failed.
        """
        kv, delta = orphan.kv, orphan.delta
        events = [self._post_write(
            kv.node_id, kv.offset + VERSION_FIELD_OFFSET,
            version.to_bytes(8, "little"),
        )]
        if delta is not None:
            events.append(self._post_write(
                delta.node_id, delta.offset + VERSION_FIELD_OFFSET,
                (orphan.old_field ^ version).to_bytes(8, "little"),
            ))
        try:
            yield self.env.all_of(events)
        except NodeFailedError:
            return False
        return True

    def _resolve_conflict(self, home: int, slot_offset: int,
                          slot_epoch: int, fp: int, size_class,
                          block: OpenBlock, orphan: _Orphan,
                          budget: int) -> Generator:
        """Conflict path of Algorithm 1: commit the KV pair already
        written instead of writing a new one.

        Each round re-reads the 16 B slot, re-stamps the orphan with the
        successor of the Slot Version it found and CASes again — three
        small round trips, no bucket query, no KV-sized verb, no new
        block slot.  The orphan is unreferenced until its CAS wins, so
        changing its version is invisible to readers; to recovery it is
        an in-flight write of the stamped version, as it was before the
        first CAS.

        Returns ``(commit, rounds)``: ``commit`` is ``(superseded Atomic,
        new Atomic, Meta)`` when a CAS won.  Otherwise the orphan has been
        invalidated (Algorithm 1 line 18) and ``commit`` is None: the
        caller starts over with a bucket query.  That happens after
        *budget* rounds, when the slot needs or holds the rollover lock,
        was vacated or re-keyed, records another size class than this
        write (the re-read ``len`` may predate a winner's repair still in
        flight, and a commit here never repairs it), when the home index
        or the block grant went through a crash, or on a node failure.
        """
        master = self.master
        rounds = 0
        while rounds < budget:
            try:
                raw = yield self._post_read(home, slot_offset, 16)
            except NodeFailedError:
                break
            atomic_word, meta_word = _WIDE_SLOT.unpack(raw)
            atomic = AtomicField.unpack(atomic_word)
            meta = MetaField.unpack(meta_word)
            if (atomic.fp != fp or atomic.addr == 0 or atomic.ver == 0xFF
                    or meta.locked
                    or meta.len_units != size_class.len_units
                    or not master.mn_writable(home)
                    or master.mn_incarnation(home) != slot_epoch
                    or not self._grant_writable(block)):
                break
            rounds += 1
            self.stats.bump("restamp_retries")
            new_atomic = AtomicField(fp=fp, ver=atomic.ver + 1,
                                     addr=orphan.kv.pack())
            stamped = yield from self._stamp_orphan(
                orphan, slot_version(meta.epoch, new_atomic.ver))
            if not stamped:
                break
            try:
                ok, _observed = yield self._post_cas(
                    home, slot_offset, atomic_word, new_atomic.pack())
            except NodeFailedError:
                break
            if ok:
                return (atomic, new_atomic, meta), rounds
            self.stats.bump("commit_conflicts")
        # Give up: never leave the orphan carrying a committable version.
        if self._grant_writable(block):
            yield from self._stamp_orphan(orphan, INVALID_SLOT_VERSION)
        dead_block, dead_intra = self._locate_block_slot(orphan.kv)
        if dead_block is not None:
            self.blocks.mark_obsolete(orphan.kv.node_id, dead_block,
                                      dead_intra, now=self.env.now)
        return None, rounds

    def _mark_old_obsolete(self, atomic_old: AtomicField,
                           fresh_insert: bool) -> None:
        """Queue the superseded KV pair's bitmap update (§3.3.3 step 1)."""
        if fresh_insert or atomic_old.addr == 0:
            return
        ga = GlobalAddress.unpack(atomic_old.addr)
        block_id, intra = self._locate_block_slot(ga)
        if block_id is not None:
            self.blocks.mark_obsolete(ga.node_id, block_id, intra,
                                      now=self.env.now)

    def _locate_block_slot(self, ga: GlobalAddress):
        """(block_id, intra-block byte offset) of a KV address."""
        mn = self.mns[ga.node_id]
        try:
            return mn.blocks.locate(ga.offset)
        except IndexError:
            return None, None

    # ------------------------------------------------------------------
    # block lifecycle
    # ------------------------------------------------------------------

    def _get_write_slot(self, size_class) -> Generator:
        slot_size = size_class.slot_size
        block = self.blocks.open_block(slot_size)
        if block is None:
            old = self.blocks.retire(slot_size)
            if old is not None:
                self._seal_async(old)
            block = self._take_prefetched(slot_size)
            if block is None:
                block = yield from self._fetch_block(size_class)
            self.blocks.install(slot_size, block)
        slot = block.take_slot()
        # Allocate the next block ahead of time so the allocation RPC
        # chain never sits on the write critical path.
        if block.slots_left() == PREFETCH_MARGIN:
            self._start_prefetch(size_class)
        return block, slot

    def _take_prefetched(self, slot_size: int) -> Optional[OpenBlock]:
        return self._prefetched.pop(slot_size, None)

    def _start_prefetch(self, size_class) -> None:
        slot_size = size_class.slot_size
        if slot_size in self._prefetching or slot_size in self._prefetched:
            return
        self._prefetching.add(slot_size)
        self._spawn(self._prefetch_block(size_class),
                    name=f"prefetch@cli{self.cli_id}")

    def _prefetch_block(self, size_class) -> Generator:
        try:
            block = yield from self._fetch_block(size_class)
            self._prefetched[size_class.slot_size] = block
        except (AllocationError, NodeFailedError):
            pass  # the write path will allocate synchronously instead
        finally:
            self._prefetching.discard(size_class.slot_size)

    def _fetch_block(self, size_class) -> Generator:
        """Allocate one block (plus its DELTA twin) and fetch the old
        contents when it is a reused block (§3.3.3)."""
        slot_size = size_class.slot_size
        grant = None
        for _attempt in range(64):
            leader = self._leader()
            try:
                grant = yield from self._rpc(leader, "alloc_block",
                                             self.cli_id, slot_size,
                                             response_size=128)
                break
            except AllocationError:
                # Pool under pressure: back off so bitmap flushes can
                # surface reclamation candidates (§3.3.3), then retry.
                yield from self.flush_bitmaps()
                yield self.env.timeout(
                    self.config.reclamation.bitmap_flush_interval
                )
            except NodeFailedError:
                # Leader crashed mid-allocation; wait out the failover
                # and retry against the new leader.
                yield self.env.timeout(LOCK_TIMEOUT)
        if grant is None:
            raise AllocationError("block allocation failed repeatedly")
        block = OpenBlock(grant, size_class)
        block.epoch = (
            self.master.mn_incarnation(grant.data_node),
            self.master.mn_incarnation(grant.delta_node)
            if grant.delta_node >= 0 else 0,
        )
        if block.needs_old_content:
            # Read the whole reused block once (§3.3.3) — chunked so
            # other clients' verbs interleave.
            mn = self.mns[grant.data_node]
            size = self.config.cluster.block_size
            raw = yield self.fabric.transfer(
                self.nic, mn.nic, size, opcode=Opcode.READ,
                execute=lambda: mn.read_bytes(grant.data_offset, size),
                traffic_class="reclaim",
            )
            block.old_content = raw
            self.stats.bump("reused_blocks")
        return block

    def _maybe_seal(self, size_class, block: OpenBlock) -> None:
        """Seal the block (asynchronously) once its last slot was written."""
        if block.exhausted and self.blocks.retire_if(
                size_class.slot_size, block):
            self._seal_async(block)
            self.blocks.blocks_filled += 1

    def _seal_async(self, block: OpenBlock) -> None:
        self._spawn(self._seal(block), name=f"seal@cli{self.cli_id}")

    def _seal(self, block: OpenBlock) -> Generator:
        grant = block.grant
        try:
            yield from self._rpc(self.servers[grant.data_node],
                                 "seal_block", grant.data_block)
        except NodeFailedError:
            pass
        if grant.delta_node >= 0 and grant.stripe_id >= 0:
            try:
                yield from self._rpc(self.servers[grant.delta_node],
                                     "fold_delta", grant.stripe_id,
                                     grant.stripe_pos, grant.delta_block)
            except NodeFailedError:
                pass

    def _bitmap_flush_loop(self) -> Generator:
        interval = self.config.reclamation.bitmap_flush_interval
        while True:
            yield self.env.timeout(interval)
            yield from self.flush_bitmaps()

    def flush_bitmaps(self) -> Generator:
        """Send pending obsolescence bits to their owning servers."""
        pending = self.blocks.drain_obsolete()
        by_node: Dict[int, List] = {}
        for (node, block_id), slots in pending.items():
            by_node.setdefault(node, []).append(
                (block_id, sorted(slots.items())))
        for node, entries in by_node.items():
            if not self.fabric.is_alive(node):
                for block_id, slots in entries:
                    for slot, ts in slots:
                        self.blocks.mark_obsolete(node, block_id, slot,
                                                  now=ts)
                continue
            try:
                yield from self._rpc(self.servers[node], "update_bitmaps",
                                     entries, response_size=64)
            except NodeFailedError:
                for block_id, slots in entries:
                    for slot, ts in slots:
                        self.blocks.mark_obsolete(node, block_id, slot,
                                                  now=ts)
