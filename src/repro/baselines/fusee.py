"""FUSEE baseline (FAST'23): replication-based fault tolerance on DM.

FUSEE protects the index with *n* synchronously-maintained replicas and
the KV pairs with *n*-way replication.  Its write protocol (as analysed in
the Aceso paper's §2.4) is what Aceso's checkpointing replaces:

1. write the KV pair to all n replica locations,
2. CAS the n-1 *backup* index slots in parallel,
3. the winner of the first backup CAS forces the remaining backups and
   then CASes the *primary* slot to commit — at least n CAS operations per
   write;
4. losers back off and retry against the new primary value.

Reads use a value-only client cache: a hit still requires re-reading the
candidate buckets to validate (the cache holds no slot address), which is
precisely the read-amplification Aceso's addr+value cache removes
(§3.5.1).

The baseline shares the fabric, memory substrate and index geometry with
the Aceso implementation, and its client is Aceso's sibling on the same
client core (:class:`repro.core.api.DMClient`: verbs, bucket query, KV
read and validation, the value-only SEARCH, block allocation).  What is
FUSEE's own lives here: n-replica KV writes, the backup-then-primary CAS,
the replica degraded read and in-place slot reuse.  So every measured
difference comes from the fault-tolerance protocol — not from incidental
modelling choices.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..config import SystemConfig, fusee_config
from ..core.api import LOCK_POLL, RETRY_BUDGET, DMClient
from ..core.blockmgr import BlockGrant
from ..core.kvpair import encode_kv, kv_wire_size
from ..core.store import ClusterBase, MemoryDistribution
from ..errors import (
    AllocationError,
    ConfigError,
    KeyNotFoundError,
    NodeFailedError,
    RetryBudgetExceeded,
)
from ..index.cache import CacheEntry
from ..index.hashing import fingerprint8
from ..index.slot import ADDR_MASK
from ..memory.address import GlobalAddress
from ..memory.blocks import Role
from ..rdma.qp import RpcServer

__all__ = ["FuseeClient", "FuseeServer", "FuseeCluster"]


class FuseeServer:
    """Minimal MN server for the baseline: replicated block allocation.

    The leader hands out block groups: the same block id on *n*
    consecutive MNs, so a replica of any KV byte lives at the same offset
    on the next n-1 nodes — matching how replication-based DM KV stores
    address replicas deterministically.
    """

    def __init__(self, env, fabric, mn, config: SystemConfig):
        self.env = env
        self.fabric = fabric
        self.mn = mn
        self.config = config
        self.node_id = mn.node_id
        self.servers: Dict[int, "FuseeServer"] = {}
        self._next_primary = 0
        mn.rpc.register("alloc_block", self.h_alloc_block)

    @property
    def rpc_server(self) -> RpcServer:
        return self.mn.rpc

    def start(self) -> None:
        self.mn.rpc.start()

    def stop(self) -> None:
        self.mn.rpc.stop()

    def h_alloc_block(self, cli_id: int, slot_size: int):
        """Allocate one replicated block group (leader only)."""
        r = self.config.ft.replication_factor
        num_mns = self.config.cluster.num_mns
        slots = self.config.cluster.block_size // slot_size
        for _attempt in range(num_mns):
            primary = self._next_primary % num_mns
            self._next_primary += 1
            nodes = [(primary + i) % num_mns for i in range(r)]
            if not all(self.fabric.is_alive(n) for n in nodes):
                continue
            stores = [self.servers[n].mn.blocks for n in nodes]
            common = self._common_free_id(stores)
            if common is None:
                continue
            locs = []
            for i, (node, store) in enumerate(zip(nodes, stores)):
                meta = store.allocate_specific(common, Role.DATA,
                                               cli_id=cli_id,
                                               slot_size=slot_size,
                                               slots=slots)
                meta.xor_id = i  # replica rank (0 = primary)
                meta.reuse_time = self.env.now
                locs.append((node, common, store.offset_of(common)))
            return BlockGrant(
                data_node=nodes[0], data_block=common,
                data_offset=stores[0].offset_of(common),
                replica_locs=locs,
            )
        raise AllocationError("no replicated block group available")

    @staticmethod
    def _common_free_id(stores) -> Optional[int]:
        free_sets = [set(s._free) for s in stores]
        common = set.intersection(*free_sets)
        return max(common) if common else None


class FuseeClient(DMClient):
    """Client speaking FUSEE's replication protocol.

    Runs the shared client core (bucket queries, the value-only cache,
    KV reads, slab blocks) and adds its own: n-replica KV writes, the
    backup-then-primary CAS commit, reads from a replica when an MN is
    lost, and in-place reuse of its own superseded slots.
    """

    def __init__(self, cluster, cli_id: int, cn):
        super().__init__(cluster, cli_id, cn)
        self.repl = self.config.ft.replication_factor
        #: per-size-class free slots within this client's own blocks:
        #: slot_size -> list of (primary GlobalAddress packed).
        self._free_slots: Dict[int, List[int]] = {}
        self._own_blocks: set = set()

    # -- replica geometry ------------------------------------------------------

    def _replica_addrs(self, primary_packed: int) -> List[GlobalAddress]:
        ga = GlobalAddress.unpack(primary_packed)
        return [GlobalAddress((ga.node_id + i) % self.num_mns, ga.offset)
                for i in range(self.repl)]

    def _index_nodes(self, home: int) -> List[int]:
        """Primary + backup index MNs for one key."""
        return [(home + i) % self.num_mns for i in range(self.repl)]

    # -- reads ------------------------------------------------------------------

    def _degraded_read(self, ga: GlobalAddress, length: int):
        """Replication makes degraded reads trivial: read a replica."""
        for i in range(1, self.repl):
            node = (ga.node_id + i) % self.num_mns
            if not self.fabric.is_alive(node):
                continue
            try:
                raw = yield self._post_read(node, ga.offset, length)
                self.stats.bump("degraded_reads")
                return raw
            except NodeFailedError:
                continue
        return None

    # -- write path ----------------------------------------------------------------

    def _locate_for_write(self, key: bytes, home: int, op: str):
        """A cached slot is used as it is (the commit CAS catches a stale
        word); without one the candidate buckets are queried."""
        entry = self.cache.lookup(key)
        if entry is not None and entry.slot_offset >= 0:
            return (entry.bucket, entry.slot, entry.atomic_word,
                    entry.meta_word, False, 0)
        located = yield from self._locate_in_buckets(key, home, op)
        return located

    def _write_inner(self, key: bytes, value: bytes, op: str, sp):
        t0 = self.env.now
        home = self._home(key)
        cas_count = 0
        retries = 0
        while retries < RETRY_BUDGET:
            try:
                located = yield from self._locate_for_write(key, home, op)
            except NodeFailedError:
                retries += 1
                yield self.env.timeout(LOCK_POLL)
                continue
            if located is None:
                self.stats.record_error(op)
                raise KeyNotFoundError(key)
            bucket, slot, atomic_word, meta_word, fresh_insert, _ = located
            index = self._index_of(home)
            slot_offset = index.slot_offset(bucket, slot)

            # 1. write the KV pair to all n replica locations.
            size_class = self.classer.class_for(
                kv_wire_size(len(key), len(value))
            )
            primary_addr, replicas = yield from self._take_kv_slot(size_class)
            kv_bytes = encode_kv(key, value, 0, size_class.slot_size,
                                 write_version=1, tombstone=(op == "DELETE"))
            write_events = []
            for ga in replicas:
                if self.fabric.is_alive(ga.node_id):
                    write_events.append(
                        self._post_write(ga.node_id, ga.offset, kv_bytes))
            try:
                yield self.env.all_of(write_events)
            except NodeFailedError:
                retries += 1
                continue

            new_word = index.commit_word(fingerprint8(key), atomic_word,
                                         primary_addr, size_class.len_units)

            # 2./3. the backup-then-primary CAS protocol.
            outcome = yield from self._commit_replicated(
                home, index, bucket, slot, atomic_word, new_word,
                fresh_insert, size_class.len_units,
            )
            cas_count += outcome["cas"]
            if outcome["ok"]:
                self._reclaim_old(atomic_word, fresh_insert)
                self.cache.store(key, CacheEntry(
                    atomic_word=new_word, len_units=size_class.len_units,
                    meta_word=meta_word, slot_node=home,
                    slot_offset=slot_offset, bucket=bucket, slot=slot,
                ))
                self.stats.record_op(op, self.env.now - t0, cas=cas_count,
                                     retries=retries)
                sp.set(retries=retries, cas=cas_count)
                return True
            # Loser: our replicated KV slots become garbage we can reuse.
            self.stats.bump("commit_conflicts")
            self._free_slots.setdefault(size_class.slot_size, []).append(
                primary_addr)
            self.cache.invalidate(key)
            retries += 1
            yield self.env.timeout(LOCK_POLL)
        raise RetryBudgetExceeded(f"{op} {key!r}")

    def _replica_slot_offset(self, home: int, replica: int, bucket: int,
                             slot: int) -> int:
        """Offset of a key's slot in replica *replica*'s sub-index (which
        lives on MN home+replica)."""
        node = (home + replica) % self.num_mns
        return self.mns[node].index_views[replica].slot_offset(bucket, slot)

    def _commit_replicated(self, home, index, bucket, slot, old_word,
                           new_word, fresh_insert, len_units):
        """The n-CAS index commit of §2.4."""
        nodes = self._index_nodes(home)
        cas = 0

        meta_word = index.insert_meta(len_units) if fresh_insert else None
        if meta_word is not None:
            meta_events = []
            for i, n in enumerate(nodes):
                if self.fabric.is_alive(n):
                    view = self.mns[n].index_views[i]
                    meta_events.append(self._post_write(
                        n, view.meta_offset(bucket, slot),
                        meta_word.to_bytes(8, "little"),
                    ))
            try:
                yield self.env.all_of(meta_events)
            except NodeFailedError:
                pass

        backups = [(i, n) for i, n in enumerate(nodes)
                   if i > 0 and self.fabric.is_alive(n)]
        backup_events = [
            self._post_cas(n, self._replica_slot_offset(home, i, bucket, slot),
                           old_word, new_word)
            for i, n in backups
        ]
        results = []
        if backup_events:
            cas += len(backup_events)
            try:
                results = yield self.env.all_of(backup_events)
            except NodeFailedError:
                results = [(False, 0)] * len(backup_events)
        if results and not results[0][0]:
            return {"ok": False, "cas": cas}  # lost the first backup
        # Winner: force any backups we lost, then commit the primary.
        force_events = []
        for (ok, _old), (i, n) in zip(results, backups):
            if not ok:
                force_events.append(self._post_write(
                    n, self._replica_slot_offset(home, i, bucket, slot),
                    new_word.to_bytes(8, "little")))
        if force_events:
            try:
                yield self.env.all_of(force_events)
            except NodeFailedError:
                pass
        cas += 1
        try:
            ok, _observed = yield self._post_cas(
                home, index.slot_offset(bucket, slot), old_word, new_word)
        except NodeFailedError:
            return {"ok": False, "cas": cas}
        return {"ok": ok, "cas": cas}

    # -- KV slot management -----------------------------------------------------------

    def _take_kv_slot(self, size_class):
        """A slot for a new replicated KV: reuse a freed slot in one of our
        own blocks when available (replication overwrites in place), else
        append to the open block."""
        free = self._free_slots.get(size_class.slot_size)
        if free:
            primary = free.pop()
            return primary, self._replica_addrs(primary)
        block, wslot = yield from self._get_write_slot(size_class)
        block.writes_done += 1
        primary = block.kv_address(wslot).pack()
        self._own_blocks.add((block.grant.data_node, block.grant.data_block))
        return primary, self._replica_addrs(primary)

    def _reclaim_old(self, old_word: int, fresh_insert: bool) -> None:
        """Replication reclaims in place: remember the superseded slot if
        it lives in one of this client's own blocks, under the slot size
        of that block (the index ``len`` may be stale: FUSEE never
        repairs it)."""
        if fresh_insert:
            return
        addr = old_word & ADDR_MASK
        if addr == 0:
            return
        ga = GlobalAddress.unpack(addr)
        block_id, _intra = self._locate_block_slot(ga)
        if block_id is not None and \
                (ga.node_id, block_id) in self._own_blocks:
            slot_size = self.mns[ga.node_id].blocks.meta[block_id].slot_size
            self._free_slots.setdefault(slot_size, []).append(addr)


class FuseeCluster(ClusterBase):
    """The FUSEE baseline system."""

    def __init__(self, config: Optional[SystemConfig] = None, env=None,
                 obs=None):
        if config is None:
            config = fusee_config()
        if config.ft.index_mode != "replication":
            raise ConfigError("FuseeCluster requires index_mode='replication'")
        super().__init__(config, env, obs)
        self.servers: Dict[int, FuseeServer] = {}
        for i, mn in self.mns.items():
            self.servers[i] = FuseeServer(self.env, self.fabric, mn, config)
        for server in self.servers.values():
            server.servers = self.servers
        self._add_clients(FuseeClient)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for server in self.servers.values():
            server.start()

    def crash_mn(self, node_id: int) -> None:
        self._mark_fault("mn", node_id)
        self.servers[node_id].stop()
        self.mns[node_id].crash()
        self.master.report_mn_failure(node_id)

    def memory_distribution(self) -> MemoryDistribution:
        """Fig. 12 accounting: replica ranks > 0 are pure redundancy."""
        block_size = self.config.cluster.block_size
        valid = obsolete = redundancy = unused = 0
        open_fill: Dict[Tuple[int, int], int] = {}
        free_counts: Dict[Tuple[int, int], int] = {}
        for client in self.clients:
            for block in client.open_blocks():
                open_fill[(block.grant.data_node, block.grant.data_block)] \
                    = block.writes_done
            for slot_size, frees in client._free_slots.items():
                for addr in frees:
                    ga = GlobalAddress.unpack(addr)
                    blk, _ = self.mns[ga.node_id].blocks.locate(ga.offset)
                    key = (ga.node_id, blk)
                    free_counts[key] = free_counts.get(key, 0) + 1
        for i, mn in self.mns.items():
            for meta in mn.blocks.meta:
                if meta.role is not Role.DATA or not meta.slots:
                    continue
                if meta.xor_id > 0:
                    redundancy += block_size
                    continue
                written = open_fill.get((i, meta.block_id), meta.slots)
                dead = free_counts.get((i, meta.block_id), 0)
                unused += (meta.slots - written) * meta.slot_size
                unused += block_size - meta.slots * meta.slot_size  # slack
                valid += max(written - dead, 0) * meta.slot_size
                obsolete += dead * meta.slot_size
        return MemoryDistribution(valid, obsolete, redundancy, 0, unused)
