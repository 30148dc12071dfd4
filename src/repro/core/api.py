"""Clients of disaggregated memory: a shared base and Aceso's protocol.

Clients run on compute nodes and execute every KV request through
one-sided verbs on the simulated fabric; MN CPUs are involved only for the
coarse-grained RPCs (block allocation, sealing, bitmap flushes).

:class:`DMClient` is what both systems under test run: the verb and RPC
helpers, the bucket query and slot match, the KV read and its validation,
the SEARCH driver with the value-only cache hit (FUSEE's cache, and the
+CKPT factor step), the bucket-query half of locating a write, and the
client's blocks (allocation, prefetch, size classes).  Slot words are
decoded by the home MN's :class:`~repro.index.race.RaceIndex`, so the
base reads a slot's address and length the same way in either slot
format.  A protocol peer supplies ``_write_inner`` (its write path) and
``_degraded_read`` (how it reads a KV pair whose MN is lost).

:class:`AcesoClient` is Aceso's peer.  It runs on 16 B slots only.  Its
write path is Algorithm 1: out-of-place KV + delta writes, then a single
RDMA_CAS on the slot's Atomic field as the commit point, with the 8-bit
``ver`` / 56-bit ``epoch`` slot-versioning protocol (lock the Meta field
on rollover).  A writer whose commit CAS loses to another commit of the
key made during its op is *overwritten*: it invalidates its orphan KV
pair and returns, linearized just before the winner.  One whose CAS lost
against a word trusted from an earlier op re-stamps the orphan with the
next Slot Version and CASes once more; the slow path (invalidate, start
over) is left for what the slot alone cannot decide.  The slot read that
opens Algorithm 1 is one 16 B READ at the cached slot address, and is
skipped while the client has not seen another writer change the key
(``CacheEntry.heat``).  With the ``addr_value`` cache policy (§3.5.1) a
SEARCH hit costs one KV read plus one 16 B slot-validation read and never
re-queries the index.  Degraded
reads (§3.4.1): when a KV's block is still lost after an MN's Index-Area
recovery, the client fetches a read plan from the stripe's P-parity
server and rebuilds just the slot region element-wise.  Filled blocks are
sealed and their deltas folded; obsolete slots reach their servers in
periodic bitmap flushes.

FUSEE's peer is :class:`repro.baselines.fusee.FuseeClient`.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Generator, List, NamedTuple, Optional, Tuple

from ..checkpoint.differential import xor_bytes
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
    ADDR_MASK,
    INVALID_SLOT_VERSION,
    LEN_MASK,
    WIDE_SLOT,
    WIDE_SLOT_SIZE,
    AtomicField,
    MetaField,
    slot_version,
)
from ..memory.address import NODE_BITS, OFFSET_BITS, GlobalAddress
from ..memory.slab import SIZE_UNIT, SizeClasser
from ..obs.trace import NULL_SPAN
from ..rdma.qp import rpc_call
from ..rdma.verbs import Opcode, Verb
from .blockmgr import ClientBlockManager, OpenBlock
from .kvpair import (
    VERSION_FIELD_OFFSET,
    encode_kv,
    kv_wire_size,
    parse_kv,
    stored_size,
    wv_toggle,
)
from .multiget import search_many as _search_many

__all__ = ["DMClient", "AcesoClient"]

#: Give-up threshold for one op; generous, only guards against livelock.
RETRY_BUDGET = 64
#: Paper §3.2.2 remark 2: retry the Meta lock after 500 us.
LOCK_TIMEOUT = 500e-6
LOCK_POLL = 50e-6
#: Slots left in the open block when the next one is allocated ahead.
PREFETCH_MARGIN = 8
#: ``_resolve_conflict``'s outcome for a write linearized just before the
#: concurrent commit its CAS lost to.
_OVERWRITTEN = "overwritten"
#: Field ranges of the packed words the write path builds with shifts.
_EPOCH_MASK = (1 << 56) - 1
_NODE_MASK = (1 << NODE_BITS) - 1
_OFFSET_MASK = (1 << OFFSET_BITS) - 1


class DMClient:
    """One client endpoint; all public ops are simulation generators."""

    def __init__(self, cluster, cli_id: int, cn):
        config = cluster.config
        self.env = cluster.env
        self.fabric = cluster.fabric
        self.config = config
        self.cli_id = cli_id
        self.cn = cn
        self.nic = cn.nic
        self.mns = cluster.mns
        self.servers = cluster.servers
        self.master = cluster.master
        self.stats = cluster.stats
        #: Observability bundle; spans/metrics no-op when disabled.
        self.obs = cluster.obs
        self._track = f"cli{cli_id}"
        self.cache = IndexCache(config.ft.cache_policy,
                                epoch_of=self.master.mn_incarnation)
        #: How a SEARCH uses a cache hit (a peer may pick its own).
        self._search_hit = self._search_cached_value
        self.blocks = ClientBlockManager(cli_id)
        self.classer = SizeClasser(config.cluster.block_size)
        self.num_mns = config.cluster.num_mns
        self._procs: List = []
        self._prefetched: Dict[int, OpenBlock] = {}
        self._prefetching: set = set()
        self.alive = True

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

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
        if not obs.enabled:
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
        if not obs.enabled:
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

    # The write ops return ``_write``'s generator, as ``search`` returns
    # its op's: no frame of their own on every resume of every write.
    # The generator returns True when the value committed, False when it
    # was overwritten: linearized just before a concurrent commit of the
    # same key, so never visible to a reader.

    def insert(self, key: bytes, value: bytes) -> Generator:
        return self._write(key, value, "INSERT")

    def update(self, key: bytes, value: bytes) -> Generator:
        return self._write(key, value, "UPDATE")

    def delete(self, key: bytes) -> Generator:
        return self._write(key, b"", "DELETE")

    def _write(self, key: bytes, value: bytes, op: str) -> Generator:
        obs = self.obs
        if not obs.enabled:
            return self._write_inner(key, value, op, NULL_SPAN)
        return self._traced_op(op, self._write_inner, key, value, op)

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

    def _index_of(self, node: int):
        return self.mns[node].index

    def _query_buckets(self, key: bytes, home: int) -> Generator:
        """Read both candidate buckets in one doorbell batch; returns
        ``[(bucket, slot words)]`` as :meth:`RaceIndex.slot_words`
        decodes them."""
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
        return [(b1, index.slot_words(raws[0])),
                (b2, index.slot_words(raws[1]))]

    @staticmethod
    def _find_slot(key: bytes, buckets):
        """Locate *key* in decoded buckets (``[(bucket, slot words)]``).

        Returns (match, free, matches): ``matches`` are all fingerprint
        candidates as (bucket, slot, atomic_word, meta_word); ``free`` the
        empty positions.
        """
        matches = []
        free: List[Tuple[int, int]] = []
        fp = fingerprint8(key)
        for bucket, words in buckets:
            for slot, (atomic_word, meta_word) in enumerate(words):
                if atomic_word == 0:
                    free.append((bucket, slot))
                    continue
                if (atomic_word >> 56) & 0xFF == fp:
                    matches.append((bucket, slot, atomic_word, meta_word))
        match = matches[0] if matches else None
        return match, free, matches

    def _locate_in_buckets(self, key: bytes, home: int, op: str):
        """Find (bucket, slot, atomic_word, meta_word, fresh_insert,
        kv_units) with a bucket query: the slot that holds *key*, with
        the size in 64 B units of the record that proved it, or for an
        INSERT a free one (``kv_units`` 0); None when an UPDATE or DELETE
        finds no such key."""
        buckets = yield from self._query_buckets(key, home)
        _match, free, matches = self._find_slot(key, buckets)
        # Verify fingerprint candidates actually hold this key.
        for bucket, slot, atomic_word, meta_word in matches:
            record, raw = yield from self._read_kv_checked(
                atomic_word & ADDR_MASK,
                max(meta_word & LEN_MASK, 1) * SIZE_UNIT, key
            )
            if record is not None:
                return (bucket, slot, atomic_word, meta_word, False,
                        len(raw) // SIZE_UNIT)
        if op in ("UPDATE", "DELETE"):
            return None
        if not free:
            raise IndexFullError(f"no free slot for {key!r}")
        # Spread concurrent inserts across the free positions (picking the
        # first free slot would make unrelated keys contend on one CAS).
        bucket, slot = free[hash64(key, b"slotpick") % len(free)]
        return bucket, slot, 0, 0, True, 0

    # ------------------------------------------------------------------
    # SEARCH path
    # ------------------------------------------------------------------

    def _search_inner(self, key: bytes, home: int) -> Generator:
        """Pick the read path by what the cache knows; returns that
        path's generator (not a generator itself: one frame less on
        every resume of every SEARCH)."""
        entry = self.cache.lookup(key)
        if entry is not None:
            return self._search_hit(key, home, entry)
        return self._search_via_index(key, home)

    def _search_cached_value(self, key: bytes, home: int,
                             entry: CacheEntry) -> Generator:
        """Value-only cache hit: the KV read must be validated by
        re-reading the slot's bucket — the cache holds no slot address to
        check with a single-word read, so the whole bucket comes back (the
        read amplification §3.5.1 removes)."""
        atomic_word = entry.atomic_word
        ga = GlobalAddress.unpack(atomic_word & ADDR_MASK)
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
        match, _free, _all = self._find_slot(
            key, [(bucket, index.slot_words(raw))])
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
            record, raw = yield from self._read_kv_checked(
                atomic_word & ADDR_MASK,
                max(meta_word & LEN_MASK, 1) * SIZE_UNIT, key
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
        blocks (the peer's degraded read).  Returns ``(record, raw)``;
        ``raw`` is exactly the record's slab slot when ``record`` is not
        None."""
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

    def open_blocks(self) -> List[OpenBlock]:
        """Every block this client holds open: the one installed per size
        class, then those allocated ahead."""
        return self.blocks.all_open() + list(self._prefetched.values())

    def _get_write_slot(self, size_class) -> Generator:
        slot_size = size_class.slot_size
        claimed = self.blocks.claim(slot_size)
        if claimed is None:
            # No installed block with a slot left: seal the filled one,
            # install the next (allocated ahead, or now).
            old = self.blocks.retire(slot_size)
            if old is not None:
                self._seal_async(old)
            block = self._prefetched.pop(slot_size, None)
            if block is None:
                # Allocation stall: the write waits out the RPC chain.
                start = self.env.now
                block = yield from self._fetch_block(size_class)
                self.stats.bump("alloc_stalls")
                self.stats.bump("alloc_stall_s", self.env.now - start)
            self.blocks.install(slot_size, block)
            slot = block.take_slot()
            left = block.slots_left()
        else:
            block, slot, left = claimed
        # Allocate the next block ahead of time so the allocation RPC
        # chain never sits on the write critical path.
        if left == PREFETCH_MARGIN:
            self._start_prefetch(size_class)
        return block, slot

    def _seal_async(self, block: OpenBlock) -> None:
        """A filled block left the open set.  What that takes is the
        protocol's: Aceso seals it and folds its delta; a replicated
        block needs nothing."""

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
        """Allocate one block (plus, under Aceso, its DELTA twin) and
        fetch the old contents when it is a reused block (§3.3.3)."""
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

    def flush_bitmaps(self) -> Generator:
        """Send pending obsolescence bits to their owning servers (only
        Aceso queues any: replication reuses its slots in place)."""
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


class _Orphan(NamedTuple):
    """A written KV pair whose commit CAS lost (not referenced by any
    slot), with what re-stamping its Slot Version needs."""

    kv: GlobalAddress
    delta: Optional[GlobalAddress]
    #: Slot Version field of the slot's previous contents (0 in a fresh
    #: block): the delta block holds ``old ^ current``.
    old_field: int


class AcesoClient(DMClient):
    """A client speaking Aceso's protocol on 16 B slots."""

    def __init__(self, cluster, cli_id: int, cn):
        super().__init__(cluster, cli_id, cn)
        self.layout = cluster.layout
        self.codec = cluster.codec
        if self.cache.policy == "addr_value":
            self._search_hit = self._search_cached_addr

    def start_background(self) -> None:
        """Start the periodic free-bitmap flush (§3.3.3 step 1)."""
        self._procs.append(self.env.process(
            self._bitmap_flush_loop(), name=f"bitmaps@cli{self.cli_id}"
        ))

    def search_many(self, keys) -> Generator:
        """Batched SEARCH: resolve several keys with doorbell-batched verb
        groups (one op cost per touched MN per stage); returns
        ``{key: ("ok", value) | ("miss", None) | ("error", exc)}``.

        Used by the serving front-end; semantically equivalent to issuing
        :meth:`search` per key (corner cases fall back to exactly that).
        """
        obs = self.obs
        if not obs.enabled:
            return _search_many(self, keys, NULL_SPAN)
        return self._traced_op("MULTIGET", _search_many, self, keys)

    # ------------------------------------------------------------------
    # SEARCH: the addr+value cache hit (§3.5.1)
    # ------------------------------------------------------------------

    def _search_cached_addr(self, key: bytes, home: int,
                            entry: CacheEntry) -> Generator:
        """Aceso's cache hit: KV read + 16 B slot read, in parallel."""
        ga = GlobalAddress.unpack(entry.atomic_word & ADDR_MASK)
        kv_ev = self._post_read(ga.node_id, ga.offset,
                                entry.len_units * SIZE_UNIT)
        slot_ev = self._post_read(entry.slot_node, entry.slot_offset,
                                  WIDE_SLOT_SIZE)
        kv_raw, slot_raw = yield self.env.all_of([kv_ev, slot_ev])
        current_word, meta_word = WIDE_SLOT.unpack(slot_raw)
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
        record, raw = yield from self._read_kv_checked(
            new_atomic.addr, max(meta_word & LEN_MASK, 1) * SIZE_UNIT, key
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

    def _write_inner(self, key: bytes, value: bytes, op: str,
                     sp) -> Generator:
        env = self.env
        t0 = env.now
        master = self.master
        cache = self.cache
        refreshes = cache.policy == "addr_value"
        home = self._home(key)
        fp = fingerprint8(key)
        cas_count = 0
        retries = 0
        while retries < RETRY_BUDGET:
            # Writes to a failed MN's index range block until its Index
            # Area is recovered (§3.4.1).
            while not master.mn_writable(home):
                yield master.milestone(home, "index_recovered")

            # --- locate the slot -----------------------------------------
            # A cache hit is used in one of two ways.  *Trust*: take the
            # cached Atomic/Meta pair and let the commit CAS catch
            # staleness — no verb here, and a lost CAS (then
            # `_resolve_conflict`) when another client wrote the key
            # since.  *Refresh*: read the 16 B slot at the cached address
            # first and use the pair just read — one small round trip
            # more, and the CAS loses only to a true race.  The entry's
            # ``heat`` picks (trust while no look at the slot found it
            # changed, and again after two unchanged looks in a row);
            # only the addr_value cache refreshes — the slot address is
            # that cache's feature (§3.5.1), and the +CKPT factor step
            # keeps its verbs.  Without a hit the candidate buckets are
            # queried, and an UPDATE or DELETE writes nothing until a KV
            # READ has proved that a candidate holds the key.
            cached = cache.lookup(key)
            if cached is not None and cached.slot_offset < 0:
                cached = None
            if cached is None:
                # The incarnation of the home index the located slot is
                # verified under (no yield before the query below).
                slot_epoch = master.mn_incarnation(home)
                trusted = None
            else:
                # ... or the one the cached slot address was stored under.
                slot_epoch = cached.home_epoch
                # A cached pair used as it is makes the commit CAS a look
                # at the slot (a refreshed one, heat > 0, was looked at
                # already); only a lost CAS moves a heat of 0.
                trusted = None if cached.heat else cached
            index = self._index_of(home)
            # the size of the record a query located (what an overwrite
            # caches; 0 when none was read)
            kv_units = 0
            if cached is not None and not (cached.heat and refreshes):
                bucket, slot = cached.bucket, cached.slot
                atomic_word, meta_word = cached.atomic_word, cached.meta_word
                # ``index.slot_offset(bucket, slot)``, range checks and
                # all, as computed when the entry was stored
                slot_offset = cached.slot_offset
                fresh_insert = False
                read_in_op = False
            else:
                located = None
                try:
                    if cached is not None:
                        # Raises NodeFailedError when the home MN failed
                        # since the entry was stored.
                        pair = yield from self._refresh_slot(key, home,
                                                             cached)
                        if pair is not None:
                            located = (cached.bucket, cached.slot, *pair,
                                       False, 0)
                        else:
                            cache.invalidate(key)
                    if located is None:
                        located = yield from self._locate_in_buckets(
                            key, home, op)
                except NodeFailedError:
                    retries += 1
                    cache.invalidate(key)
                    continue
                if located is None:
                    self.stats.record_error(op)
                    raise KeyNotFoundError(key)
                (bucket, slot, atomic_word, meta_word, fresh_insert,
                 kv_units) = located
                slot_offset = index.slot_offset(bucket, slot)
                # The pair was read in this op: a lost commit CAS lost to
                # a commit made since.
                read_in_op = True
            # ``index.meta_offset``: the Meta word follows the Atomic word
            # of a wide slot (a compact one has none: that call raises).
            meta_offset = slot_offset + 8 if index.wide \
                else index.meta_offset(bucket, slot)

            # --- claim a block slot ---------------------------------------
            # Before the rollover lock: an allocation stall must not hold
            # the Meta lock, or every other writer of the key polls it to
            # LOCK_TIMEOUT and takes it over.  A retry from here to the KV
            # write spends the claimed slot (``_slot_spent``).
            size_class = self.classer.class_for(
                kv_wire_size(len(key), len(value))
            )
            block, wslot = yield from self._get_write_slot(size_class)
            # The grant is checked once per master version (it can only
            # turn unwritable when the master's state changes).
            if block.writable_at != master.version \
                    and self._abandon_stale_grant(size_class, block):
                retries += 1
                continue

            # --- slot-version bookkeeping (Algorithm 1 lines 3-14) -----
            # On the slot words as ints: ``ver`` is Atomic bits 48-55,
            # ``epoch`` Meta bits 8-63 (its low bit the lock), ``len``
            # Meta bits 0-7.  The lock paths decode ``MetaField``s.
            rolled = False
            if fresh_insert:
                ver_new = 1
                epoch_eff = 0
            else:
                if (meta_word >> 8) & 1:
                    with self._phase("lock_wait"):
                        took_over = yield from self._wait_or_takeover(
                            key, home, bucket, slot,
                            MetaField.unpack(meta_word)
                        )
                    retries += 1
                    if not took_over:
                        # The lock was released (or the takeover lost):
                        # the located Atomic/Meta pair is stale.
                        self._stale_pair(key, cached, refreshes)
                        self._slot_spent(size_class, block)
                        continue
                    meta_word = took_over
                    # We now hold the lock (odd epoch).
                    rolled = True
                old_ver = (atomic_word >> 48) & 0xFF
                ver_new = (old_ver + 1) & 0xFF
                if old_ver == 0xFF and not rolled:
                    # Rollover: lock the Meta field (epoch -> odd).
                    meta_old = MetaField.unpack(meta_word)
                    locked_meta = MetaField(meta_old.epoch + 1,
                                            meta_old.len_units)
                    cas_count += 1
                    try:
                        ok, _old = yield self._post_cas(
                            home, meta_offset,
                            meta_old.pack(), locked_meta.pack(),
                        )
                    except NodeFailedError:
                        retries += 1
                        self._slot_spent(size_class, block)
                        continue
                    if not ok:
                        # Another client rolled the slot over first.
                        retries += 1
                        self._stale_pair(key, cached, refreshes)
                        self._slot_spent(size_class, block)
                        yield env.timeout(LOCK_POLL)
                        continue
                    meta_word = locked_meta.pack()
                    rolled = True
                epoch_eff = (meta_word >> 8) & _EPOCH_MASK
                if rolled:
                    epoch_eff += 1  # the final, even epoch
            # ``slot_version(epoch_eff, ver_new)`` with its range checks
            if not (0 <= epoch_eff <= _EPOCH_MASK and 0 <= ver_new <= 0xFF):
                slot_version(epoch_eff, ver_new)  # raises
            version = (epoch_eff << 8) | ver_new

            if rolled and block.writable_at != master.version \
                    and self._abandon_stale_grant(size_class, block):
                # The grant went stale while the lock was being taken.
                try:
                    yield self._give_back_lock(home, meta_offset, meta_word)
                except NodeFailedError:
                    pass    # a later writer takes the lock over (remark 2)
                retries += 1
                continue

            # --- write the KV pair and its delta out of place ------------
            grant = block.grant
            intra = size_class.slot_offset(wslot)
            kv_node = grant.data_node
            kv_offset = grant.data_offset + intra
            delta_node = grant.delta_node
            if grant.reused:
                old_bytes = block.slot_old_bytes(wslot)
                wv = wv_toggle(old_bytes[0]) if old_bytes[0] else 1
            else:
                # A fresh grant's slot was never written: write version
                # 1, a Slot Version field of 0, and the delta (old ^ new)
                # is the record itself.
                old_bytes = None
                wv = 1
            kv_bytes = encode_kv(key, value, version, size_class.slot_size,
                                 write_version=wv, tombstone=(op == "DELETE"))
            writes = [self._post_write(kv_node, kv_offset, kv_bytes)]
            if delta_node >= 0:
                writes.append(self._post_write(
                    delta_node, grant.delta_offset + intra,
                    kv_bytes if old_bytes is None
                    else xor_bytes(kv_bytes, old_bytes)))
            try:
                yield env.all_of(writes)
            except NodeFailedError:
                # A failed MN on the write path: bypass it (§3.4.1) — the
                # KV write must land, the delta write may be skipped.  The
                # KV write is already posted: wait for it (it raises
                # again if the data node is the dead one).
                try:
                    yield writes[0]
                except NodeFailedError:
                    retries += 1
                    self._slot_spent(size_class, block)
                    continue

            # --- commit: CAS the Atomic field --------------------------
            # ``GlobalAddress.pack``, ``AtomicField.pack`` and
            # ``MetaField.pack`` written out, each at the point the
            # NamedTuples packed, each range check kept.
            if not (0 <= kv_node <= _NODE_MASK
                    and 0 <= kv_offset <= _OFFSET_MASK):
                GlobalAddress(kv_node, kv_offset).pack()  # raises
            kv_addr = (kv_node << OFFSET_BITS) | kv_offset
            len_units = size_class.len_units
            meta_final = (epoch_eff << 8) | len_units
            meta_ok = 0 <= epoch_eff <= _EPOCH_MASK and 0 <= len_units <= 0xFF
            try:
                if fresh_insert:
                    if not meta_ok:
                        MetaField(epoch_eff, len_units).pack()  # raises
                    # Publish the Meta word before the commit CAS so
                    # readers see a valid length.
                    yield self._post_write(
                        home, meta_offset, meta_final.to_bytes(8, "little"))
                if not (0 <= fp <= 0xFF and 0 <= ver_new <= 0xFF
                        and 0 <= kv_addr <= ADDR_MASK):
                    AtomicField(fp, ver_new, kv_addr).pack()  # raises
                new_word = (fp << 56) | (ver_new << 48) | kv_addr
                cas_count += 1
                ok, observed = yield self._post_cas(
                    home, slot_offset, atomic_word, new_word
                )
            except NodeFailedError:
                retries += 1
                self._slot_spent(size_class, block)
                cache.invalidate(key)
                continue
            block.writes_done += 1
            if ok:
                old_addr = atomic_word & ADDR_MASK
                if not meta_ok:
                    MetaField(epoch_eff, len_units).pack()  # raises
                try:
                    if rolled:
                        # Unlock: epoch to the next even value (line 20).
                        cas_count += 1
                        yield self._post_cas(home, meta_offset, meta_word,
                                             meta_final)
                    elif not fresh_insert and \
                            meta_word & LEN_MASK != len_units:
                        # Size class changed: repair the len (§3.2.2).
                        yield self._post_write(
                            home, meta_offset,
                            meta_final.to_bytes(8, "little"),
                        )
                except NodeFailedError:
                    pass  # commit already landed; recovery fixes the Meta
            else:
                # --- CAS lost: overwritten, or re-stamp the orphan KV and
                # CAS again, or invalidate it (line 18) and start over ----
                self.stats.bump("commit_conflicts")
                if trusted is not None:
                    trusted.looked(changed=True)
                orphan = _Orphan(
                    GlobalAddress(kv_node, kv_offset),
                    GlobalAddress(delta_node, grant.delta_offset + intra)
                    if delta_node >= 0 else None,
                    0 if old_bytes is None else int.from_bytes(
                        old_bytes[VERSION_FIELD_OFFSET:
                                  VERSION_FIELD_OFFSET + 8], "little"))
                with self._phase("cas_retry"):
                    won, rounds = yield from self._resolve_conflict(
                        home, slot_offset, slot_epoch, fp, size_class,
                        block, orphan,
                        # Inserts race for an empty slot and a rollover
                        # holds the Meta lock: neither can be served from
                        # the slot alone.
                        not (fresh_insert or rolled), observed,
                        None if read_in_op else epoch_eff)
                    if won is None and rolled:
                        yield self._give_back_lock(home, meta_offset,
                                                   meta_word)
                cas_count += rounds
                retries += rounds
                if won is _OVERWRITTEN:
                    if kv_units and refreshes:
                        # Located by a query: cache the words it read
                        # with the len of the record that proved them,
                        # and a heat that makes the next write refresh
                        # them (a value_only cache would use them as they
                        # are, and lose its next CAS for certain).
                        entry = CacheEntry(
                            atomic_word=atomic_word, len_units=kv_units,
                            meta_word=meta_word, slot_node=home,
                            slot_offset=slot_offset, bucket=bucket,
                            slot=slot)
                        cache.store(key, entry)
                        entry.looked(changed=True)
                    elif cached is not None:
                        # The entry stays; the next write refreshes it.
                        cached.looked(changed=True)
                    self._maybe_seal(size_class, block)
                    self.stats.record_op(op, env.now - t0, cas=cas_count,
                                         retries=retries)
                    sp.set(retries=retries, cas=cas_count, overwritten=True)
                    return False
                if won is None:
                    cache.invalidate(key)
                    self._maybe_seal(size_class, block)
                    retries += 1
                    continue
                atomic_old, new_atomic, meta_won = won
                old_addr = atomic_old.addr
                new_word = new_atomic.pack()
                meta_final = meta_won.pack()
            if not fresh_insert and old_addr:
                self._mark_old_obsolete(old_addr)
            # The entry this write located through, still cached, takes
            # the new words in place; otherwise a new entry is stored.
            if cached is None or not cache.store_words(
                    key, cached, new_word, meta_final, len_units):
                cache.store(key, CacheEntry(
                    atomic_word=new_word, len_units=len_units,
                    meta_word=meta_final,
                    slot_node=home, slot_offset=slot_offset,
                    bucket=bucket, slot=slot,
                ))
            self._maybe_seal(size_class, block)
            self.stats.record_op(op, env.now - t0, cas=cas_count,
                                 retries=retries)
            sp.set(retries=retries, cas=cas_count)
            return True
        raise RetryBudgetExceeded(f"{op} {key!r} exceeded {RETRY_BUDGET} retries")

    def _abandon_stale_grant(self, size_class, block: OpenBlock) -> bool:
        """Whether *block*'s grant turned unwritable: a KV/delta write
        landing now could be overwritten or clobber another client's
        block (§3.4.1).  Such a block is retired, and the write retries
        with a fresh one."""
        if self._grant_writable(block):
            return False
        self.blocks.retire_if(size_class.slot_size, block)
        return True

    def _stale_pair(self, key: bytes, cached: Optional[CacheEntry],
                    refreshes: bool) -> None:
        """The located Atomic/Meta pair lost to another writer's rollover
        lock; a retry that used it again would poll the same locked word
        or lose the same lock CAS forever.  With the slot address cached
        the retry refreshes the entry (one 16 B READ); otherwise the
        entry goes, and the retry queries the buckets."""
        if refreshes and cached is not None:
            cached.looked(changed=True)
        else:
            self.cache.invalidate(key)

    def _give_back_lock(self, home: int, meta_offset: int, locked: int):
        """The CAS that releases a rollover lock this writer holds without
        committing: the Meta epoch moves on to the next even value, the
        ``len`` stays."""
        meta = MetaField.unpack(locked)
        return self._post_cas(home, meta_offset, locked,
                              MetaField(meta.epoch + 1,
                                        meta.len_units).pack())

    def _slot_spent(self, size_class, block: OpenBlock) -> None:
        """A claimed block slot is done with, whether or not a committed
        record ended up in it."""
        block.writes_done += 1
        self._maybe_seal(size_class, block)

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
        raw = yield self._post_read(home, entry.slot_offset, WIDE_SLOT_SIZE)
        master = self.master
        if not master.mn_writable(home) \
                or master.mn_incarnation(home) != entry.home_epoch:
            raise NodeFailedError(home, "home index recovered since the "
                                  "slot was cached")
        self.stats.bump("slot_refreshes")
        atomic_word, meta_word = WIDE_SLOT.unpack(raw)
        changed = atomic_word != entry.atomic_word
        entry.looked(changed)
        if changed:
            self.stats.bump("slot_refresh_stale")
            if atomic_word >> 56 != fingerprint8(key) \
                    or atomic_word & ADDR_MASK == 0:
                return None
        return atomic_word, meta_word

    def _grant_writable(self, block: OpenBlock) -> bool:
        """Whether KV/delta writes through *block*'s grant may still land:
        false once its data or delta node crashed after the grant was
        issued (the recovered node may re-hand out the space) or while the
        data node's Block Area is being rebuilt.  A yes is remembered
        with the master's version (``OpenBlock.writable_at``)."""
        grant = block.grant
        master = self.master
        if (master.mn_incarnation(grant.data_node) == block.epoch[0]
                and (grant.delta_node < 0
                     or master.mn_incarnation(grant.delta_node)
                     == block.epoch[1])
                and master.mn_block_writable(grant.data_node)):
            block.writable_at = master.version
            return True
        return False

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
                          block: OpenBlock, orphan: _Orphan, keep: bool,
                          lost_to: int,
                          trusted_epoch: Optional[int]) -> Generator:
        """Conflict path of Algorithm 1, after a commit CAS lost to
        *lost_to*, the word it found.

        *trusted_epoch* is None when the word the CAS expected was read
        in this op, else the Meta epoch of the pair trusted from an
        earlier op.  The first change to a word this op read is a commit
        of this key by another writer (index recovery bumps the home
        incarnation, and the rollover lock lives in the Meta word), so it
        happened inside this op's interval.  The write is then
        *overwritten*: linearized just before that commit, its orphan —
        never published, so seen by no reader — invalidated (Algorithm 1
        line 18).

        A loss against a trusted word may predate the op.  That writer
        re-stamps the orphan with the successor of *lost_to*'s Slot
        Version under *trusted_epoch*, reads the 16 B slot in the same
        round trip, and CASes once more when the slot still holds
        *lost_to* (`_restamp`): two small round trips, no bucket query,
        no KV-sized verb, no new block slot.  The orphan is unreferenced
        until a CAS wins, so changing its version is invisible to
        readers; to recovery it is an in-flight write of the stamped
        version, as it was before the first CAS.  A slot that moved on
        since *lost_to* took a commit inside this op, and so does one
        whose re-stamp CAS loses: both are overwrites too.

        Returns ``(outcome, rounds)``, ``rounds`` the re-stamp CASes made
        (0 or 1).  ``outcome`` is ``(superseded Atomic, new Atomic,
        Meta)`` when the re-stamp CAS won, or ``_OVERWRITTEN``.  Otherwise
        the orphan has been invalidated and ``outcome`` is None: the
        caller starts over with a bucket query.  That happens when not
        *keep* (a fresh INSERT or a rollover), when the slot needs or
        holds the rollover lock, was vacated or re-keyed, records another
        size class than this write (the re-read ``len`` may predate a
        winner's repair still in flight, and a commit here never repairs
        it), when the home index or the block grant went through a crash,
        or on a node failure.
        """
        rounds = 0
        if keep and trusted_epoch is not None:
            rounds, won, lost_to = yield from self._restamp(
                home, slot_offset, slot_epoch, fp, size_class, block, orphan,
                lost_to, trusted_epoch)
            if won is not None:
                return won, rounds
        master = self.master
        overwritten = (keep and lost_to is not None
                       and lost_to >> 56 == fp and lost_to & ADDR_MASK != 0
                       and master.mn_writable(home)
                       and master.mn_incarnation(home) == slot_epoch)
        # Never leave the orphan carrying a committable version: stamp it
        # invalid (line 18) unless its grant went stale (the space may
        # already belong to another writer).
        stamped = False
        if self._grant_writable(block):
            stamped = yield from self._stamp_orphan(orphan,
                                                    INVALID_SLOT_VERSION)
        dead_block, dead_intra = self._locate_block_slot(orphan.kv)
        if dead_block is not None:
            self.blocks.mark_obsolete(orphan.kv.node_id, dead_block,
                                      dead_intra, now=self.env.now)
        if overwritten and stamped:
            self.stats.bump("overwritten")
            return _OVERWRITTEN, rounds
        return None, rounds

    def _restamp(self, home: int, slot_offset: int, slot_epoch: int,
                 fp: int, size_class, block: OpenBlock, orphan: _Orphan,
                 lost_to: int, epoch: int) -> Generator:
        """The re-stamp round of `_resolve_conflict`: stamp the orphan
        with the version it predicts — *epoch* and *lost_to*'s ``ver`` +
        1 — and read the 16 B slot beside the stamp; CAS when the slot
        still holds *lost_to* under *epoch* and passes the checks.  A
        wrong prediction (``restamp_mispredicted``) costs the stamp: the
        orphan is invalidated over it.  Returns ``(rounds, commit,
        lost_to)``: ``rounds`` is 1 when the CAS was posted, ``commit``
        ``(superseded Atomic, new Atomic, Meta)`` when it won, ``lost_to``
        the word the slot moved to when it moved (else None)."""
        ver = (lost_to >> 48) & 0xFF
        if (lost_to >> 56 != fp or lost_to & ADDR_MASK == 0 or ver == 0xFF
                or not self._grant_writable(block)):
            return 0, None, None
        self.stats.bump("restamp_retries")
        new_atomic = AtomicField(fp=fp, ver=ver + 1, addr=orphan.kv.pack())
        read = self._post_read(home, slot_offset, WIDE_SLOT_SIZE)
        stamped = yield from self._stamp_orphan(
            orphan, slot_version(epoch, new_atomic.ver))
        try:
            raw = yield read
        except NodeFailedError:
            return 0, None, None
        atomic_word, meta_word = WIDE_SLOT.unpack(raw)
        meta = MetaField.unpack(meta_word)
        master = self.master
        if (atomic_word != lost_to or meta.epoch != epoch or not stamped
                or meta.len_units != size_class.len_units
                or not master.mn_writable(home)
                or master.mn_incarnation(home) != slot_epoch
                or not self._grant_writable(block)):
            self.stats.bump("restamp_mispredicted")
            return 0, None, atomic_word if atomic_word != lost_to else None
        try:
            ok, observed = yield self._post_cas(
                home, slot_offset, lost_to, new_atomic.pack())
        except NodeFailedError:
            return 1, None, None
        if ok:
            return 1, (AtomicField.unpack(lost_to), new_atomic, meta), None
        self.stats.bump("commit_conflicts")
        return 1, None, observed

    def _mark_old_obsolete(self, addr: int) -> None:
        """Queue the bitmap update of the superseded KV pair at packed
        *addr*, a slot's ``addr`` field (§3.3.3 step 1)."""
        # ``GlobalAddress.unpack`` and ``_locate_block_slot`` written out;
        # a 48-bit slot field is always in unpack's range.
        node = addr >> OFFSET_BITS
        try:
            block_id, intra = self.mns[node].blocks.locate(
                addr & _OFFSET_MASK)
        except IndexError:
            return
        self.blocks.mark_obsolete(node, block_id, intra, now=self.env.now)

    # ------------------------------------------------------------------
    # sealing and bitmap flushes
    # ------------------------------------------------------------------

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
