"""Failure recovery (§3.4).

Memory-node recovery is *tiered* (§3.4.1): Meta Area (read the replica),
then Index Area (read the latest checkpoint, rebuild the recent blocks,
scan their KV pairs and re-apply each index slot to the KV pair with the
highest Slot Version), then Block Area (decode the remaining lost blocks,
finally re-derive parity state in the background).  Functionality returns
after the Index milestone — writes at full speed, reads degraded — which
is what minimises user disruption.  The tiers' stages are one table,
:data:`STAGES`: one call ends a stage, the end of a tier's last stage is
its milestone, and the report, the trace and Table 2 read those ends.

Every lost or re-encoded block is rebuilt at a survivor, so it crosses
the recovering node's NIC once (partial-parallel repair): each job's
*aggregator* is the surviving holder of its stripe with the fewest
recovery bytes in flight on its NIC; it reads the other holders'
blocks, its EC core decodes or encodes them, and the recovering node
reads back the one block that results.  Live deltas are folded into P
by their holder; a lost unsealed block granted fresh is read from its
DELTA twin at the P holder as it is.  The Index tier's rescan runs where
the bytes are: each live holder walks its own recent blocks, and each P
holder the twins it holds, and ships only the records homed on the
recovering node, under the rebuilds and the checkpoint read; the twins'
bytes follow in one stream the Index milestone does not wait for.  No
node whose master state is FAILED is a source of anything: back up
before its Meta milestone, it holds only the zeros of a reboot.  Every
stage keeps two jobs in flight per surviving MN, so the survivors' NICs
together are the floor.  DESIGN.md §5 has the data flow and its bytes.

Compute-node recovery (§3.4.2) restarts a client, re-finds its unfilled
blocks via the ``CLI ID`` metadata field, checks every KV/delta pair's
write versions, rolls torn writes back (using the reclamation backup for
reused blocks) and seals the blocks so nothing leaks.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

from ..checkpoint.differential import xor_bytes
from ..cluster.master import MnState
from ..errors import NodeFailedError, RecoveryError
from ..index.hashing import fingerprint8, hash64, home_of
from ..index.slot import AtomicField, MetaField, split_slot_version
from ..memory.address import GlobalAddress
from ..memory.blocks import Role
from ..rdma.qp import rpc_call
from .kvpair import HEADER_SIZE, kv_wire_size, parse_kv, wv_consistent
from .server import (CONTROL_RPC_TIMEOUT, DirStripe, StripeDirectory,
                     StripeRecord)

__all__ = ["STAGES", "TIERS", "RecoveryReport", "MemoryNodeRecovery",
           "restart_client", "rebuild_directory"]

_READ_CHUNK = 32 * 1024
#: Candidates with an implausibly large epoch are corruption, not commits
#: (epochs grow by 1 per 256 updates of one slot).
_EPOCH_SANITY_BOUND = 1 << 40
#: Front write version, flags, key and value length of a KV header.
_KV_EXTENT = struct.Struct("<BBHI")
#: Bytes a holder-side scan ships per block walked (block id, entry
#: count) and per record homed on the lost node, before its key (Slot
#: Version, which also marks an invalidated pair; intra-block offset;
#: slot size; key length).
_SCAN_BLOCK_BYTES = 8
_SCAN_ENTRY_BYTES = 8 + 4 + 2 + 2


#: The stages of one MN recovery (§3.4.1) in the order they end, each
#: with its tier.  A stage runs from the end of the stage before it in
#: its tier (a tier's first stage: from when the tier began) to:
STAGES = (("read_meta", "meta"),        # the Meta Area restored
          ("recover_lblock", "index"),  # the last decoded LBlock installed
          ("read_rblock", "index"),     # the last holder scan merged
          ("read_ckpt", "index"),       # the checkpoint image restored
          ("scan_tail", "index"),       # the last walk off the EC core
          ("scrub", "index"),           # the dangling slots cleared
          ("apply", "index"),           # every slot re-applied
          ("recover_old", "block"),     # the last old block installed
          ("rebaseline", "block"))      # the re-baselines and tails done
#: Each tier's milestone, in tier order: reached when its last stage ends.
TIERS = {"meta": MnState.META_RECOVERED, "index": MnState.INDEX_RECOVERED,
         "block": MnState.RECOVERED}
_LAST = {tier: stage for stage, tier in STAGES}


@dataclass
class RecoveryReport:
    """Timing breakdown of one MN recovery (Table 2 / Figs. 16, 18, 20).

    It keeps when each tier of the last attempt began and when each of
    its stages (:data:`STAGES`) ended; the milestones, the tier timeline
    and the stage durations (:meth:`stages`) derive from those.  For a
    recovery that ran its tiers once and was not held between them the
    stages partition ``total_time``; after a tier restart they and the
    counts describe the last attempt, and a Block tier held by
    ``hold_block_phase`` begins after the hold.  ``lblock_count`` counts
    the DELTA twins too; ``rblock_count`` does not."""

    node_id: int = -1
    started_at: float = 0.0
    #: tier -> when it began; stage -> when it ended (absolute sim times).
    begun: Dict[str, float] = field(default_factory=dict)
    ended: Dict[str, float] = field(default_factory=dict)
    #: When the twin stream (:meth:`MemoryNodeRecovery._stream_twins`)
    #: installed its last block (0.0: no twin).
    twins_done_at: float = 0.0
    lblock_count: int = 0
    rblock_count: int = 0
    #: Scan KV: CPU seconds walking ``kv_count`` records, summed over the
    #: EC cores that walked: a holder's walk is part of ``read_rblock``,
    #: of the recovering node's own only ``scan_tail`` is on the clock.
    scan_kv_s: float = 0.0
    kv_count: int = 0
    old_count: int = 0
    applied_slots: int = 0
    scrubbed_slots: int = 0
    lost_bytes: int = 0
    #: Recovery-class bytes on the whole fabric while this recovery ran.
    recovery_bytes: int = 0
    #: Recovery-class bytes this recovery read into the recovering NIC.
    recovering_nic_bytes: int = 0
    #: Seconds the recovering node's NIC was busy while it ran.
    nic_busy_s: float = 0.0
    #: Seconds the busiest other MN's NIC was busy while it ran.
    helper_nic_busy_s: float = 0.0
    #: Tier restarts forced by a dependency dying mid-recovery.
    attempts: int = 1

    def done_at(self, tier: str) -> float:
        """When *tier* reached its milestone (0.0: not yet)."""
        return self.ended.get(_LAST[tier], 0.0)

    meta_done_at = property(lambda self: self.done_at("meta"))
    index_done_at = property(lambda self: self.done_at("index"))
    blocks_done_at = property(lambda self: self.done_at("block"))

    @property
    def meta_time(self) -> float:
        return self.meta_done_at - self.started_at

    @property
    def index_time(self) -> float:
        return self.index_done_at - self.meta_done_at

    @property
    def block_time(self) -> float:
        return self.blocks_done_at - self.index_done_at

    @property
    def total_time(self) -> float:
        return self.blocks_done_at - self.started_at

    def timeline(self) -> List[Tuple[str, float, float]]:
        """Ordered (tier, start, end) triples of the three milestones;
        the tier durations sum exactly to :attr:`total_time`."""
        ends = [self.done_at(tier) for tier in TIERS]
        return [(f"tier.{tier}", start, end) for tier, start, end
                in zip(TIERS, [self.started_at] + ends, ends)]

    def stages(self) -> List[Tuple[str, float]]:
        """(stage, wall-clock seconds) in the order they end."""
        rows, ends = [], {}     # tier -> the end of its last stage so far
        for stage, tier in STAGES:
            start = ends.get(tier, self.begun.get(tier, 0.0))
            ends[tier] = self.ended.get(stage, 0.0)
            rows.append((stage, ends[tier] - start))
        return rows

    def row(self) -> Dict[str, float]:
        """Table 2's row for this recovery: its columns, then the stages
        Table 2 leaves out, then what the fabric and the NICs carried."""
        row = {f"{stage}_ms": seconds * 1e3
               for stage, seconds in self.stages()}
        row.update(
            lblock_count=self.lblock_count, rblock_count=self.rblock_count,
            scan_kv_ms=self.scan_kv_s * 1e3, kv_count=self.kv_count,
            old_count=self.old_count, total_ms=self.total_time * 1e3,
            twins_done_ms=(self.twins_done_at - self.started_at) * 1e3
            if self.twins_done_at else 0.0,
            recovery_bytes=self.recovery_bytes,
            recovering_nic_bytes=self.recovering_nic_bytes,
            nic_busy_ms=self.nic_busy_s * 1e3,
            helper_nic_busy_ms=self.helper_nic_busy_s * 1e3,
        )
        return row


def rebuild_directory(cluster) -> StripeDirectory:
    """Reconstruct the stripe directory from the surviving parity-holder
    records (the directory is leader soft state; everything it contains is
    mirrored in parity metadata, §3.3.1)."""
    coding = cluster.config.coding
    directory = StripeDirectory(coding.k, coding.m)
    max_sid = -1
    for server in cluster.servers.values():
        if not server.mn.alive:
            continue
        for sid, record in server.stripes.items():
            max_sid = max(max_sid, sid)
            stripe = directory.stripes.setdefault(sid, DirStripe(
                stripe_id=sid, data=[None] * coding.k,
                parity=[(-1, -1)] * coding.m))
            stripe.parity[record.parity_index] = (server.node_id,
                                                  record.parity_block)
            for j, loc in enumerate(record.data):
                if loc is not None:
                    stripe.data[j] = loc
    directory.next_stripe_id = max_sid + 1
    for sid, stripe in directory.stripes.items():
        for j, loc in enumerate(stripe.data):
            if loc is None:
                directory.open_positions.append((sid, j))
            else:
                directory.block_pos[loc] = (sid, j)
    return directory


@dataclass
class _Run:
    """One attempt at recovering one MN: what its jobs charge and leave
    running, and its stages' ends."""

    cluster: object
    node: int
    report: RecoveryReport
    #: Recovery bytes in flight on each MN's NIC for this attempt, each
    #: read or push credited back when it completes: the ledger
    #: aggregators are picked by.
    ledger: Counter = field(default_factory=Counter)
    #: Grace periods, Q pushes and the twin stream running beside the
    #: driver.
    tails: list = field(default_factory=list)
    #: Lost blocks scanned at their P holders whose DELTA twins the twin
    #: stream has yet to post (:meth:`MemoryNodeRecovery._stream_twins`),
    #: and the (job, delivered event) of each posted one not yet
    #: installed.
    twins: list = field(default_factory=list)
    twin_reads: list = field(default_factory=list)
    #: Set when the attempt lost a dependency: its jobs still in flight
    #: change nothing from then on.
    over: bool = False
    #: What the Index tier keeps of the blocks it rescans: key -> (Slot
    #: Version, record, packed address, slot size) of the best KV pair
    #: per key homed on the lost node; (owner, block id) -> {intra-block
    #: offset: record}, homed records only, one entry per rescanned block
    #: (the scrub tells "rescanned, nothing homed there" from "not
    #: rescanned" by it); the completion of the scan CPU time submitted
    #: so far.
    best: Dict[bytes, tuple] = field(default_factory=dict)
    rescanned: Dict[Tuple[int, int], Dict[int, object]] = \
        field(default_factory=dict)
    scan_done: Optional[object] = None
    #: (node, block id) -> allocation generation of every DATA block when
    #: its node's rescan set was built: the scrub tells a block re-granted
    #: since by it (:meth:`MemoryNodeRecovery._scrub_index`).
    data_gens: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def begin(self, tier: str) -> None:
        """Begin *tier* now: its first stage runs from here."""
        self.report.begun[tier] = self.cluster.env.now

    def end(self, stage: str) -> None:
        """End *stage* now (a stage ended again ends at the last call);
        ending its tier's last stage reaches the tier's milestone."""
        self.report.ended[stage] = self.cluster.env.now
        tier = dict(STAGES)[stage]
        if _LAST[tier] == stage:
            self.cluster.master.reach_milestone(self.node, TIERS[tier])


@dataclass
class _Job:
    """The rebuild of lost DATA block *meta* of node *owner*, as started:
    the parity-holder record it was planned on (*reference*), the node
    whose EC core decodes it (*agg*; the P holder for a twin), the k + m
    *shards* (None: not gathered) and the live *deltas* by position it
    gathered, and a twin's *content*, captured when it started."""

    owner: int
    meta: object
    sid: int
    pos: int
    agg: int
    reference: StripeRecord
    shards: list
    deltas: Dict[int, bytes] = field(default_factory=dict)
    content: Optional[bytes] = None


class MemoryNodeRecovery:
    """Drives tiered recovery of crashed MNs for one Aceso cluster."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.env = cluster.env
        self.reports: List[RecoveryReport] = []
        #: When set to an untriggered Event, recovery pauses after the
        #: Index milestone until it triggers — experiments use this to
        #: hold the system in the degraded-read window (Fig. 14).
        self.hold_block_phase = None

    # -- helpers ------------------------------------------------------------

    def _is_source(self, node_id: int) -> bool:
        """Whether recovery may take blocks, records or a block inventory
        from *node_id*.  A node whose master state is FAILED may not: it
        is down, or back up (``mn.alive`` set) with the fresh metadata of
        a reboot until its Meta milestone — every block FREE, every
        buffer zero."""
        return (self.cluster.mns[node_id].alive
                and self.cluster.master.mn_state(node_id) != MnState.FAILED)

    def _sources(self, excluding: int = -1):
        return [s for i, s in self.cluster.servers.items()
                if i != excluding and self._is_source(i)]

    @staticmethod
    def _charge(run: _Run, a: int, b: int, size: int, event) -> None:
        """Put *size* bytes on the ledger of NICs *a* and *b* until
        *event* (the verb carrying them) completes, either way."""
        ledger = run.ledger
        ledger[a] += size
        ledger[b] += size

        def landed(_event):
            ledger[a] -= size
            ledger[b] -= size

        event.add_callback(landed)

    def _post_reads(self, run: _Run, src: int, node: int, size: int) -> list:
        """Post a bulk READ of *size* bytes from *node* into *src* in
        chunks other traffic can interleave with; returns the chunks'
        events.  Only fabric time is charged — contents are handled at
        object level — and each chunk is on *run*'s ledger while in
        flight."""
        fabric = self.cluster.fabric
        mns = self.cluster.mns
        by_class = fabric.bytes_by_class
        before = by_class.get("recovery", 0)
        reads = []
        for done in range(0, size, _READ_CHUNK):
            chunk = min(_READ_CHUNK, size - done)
            reads.append(fabric.read(mns[src].nic, mns[node].nic, chunk,
                                     traffic_class="recovery"))
            self._charge(run, src, node, chunk, reads[-1])
        if src == run.node:
            run.report.recovering_nic_bytes += \
                by_class.get("recovery", 0) - before
        return reads

    def _read_blocks(self, run: _Run, dst, holders) -> list:
        """Post the READs of one block from each of *holders* but *dst*
        into *dst*; returns their events."""
        size = self.cluster.config.cluster.block_size
        return [read for srv in holders if srv is not dst
                for read in self._post_reads(run, dst.node_id, srv.node_id,
                                             size)]

    def _read_remote(self, run: _Run, node: int, size: int):
        """Bulk-read *size* bytes from *node* into the recovering server."""
        if size > 0:
            yield self.env.all_of(self._post_reads(run, run.node, node, size))

    def _pipelined(self, server, started, finish):
        """The pipeline of §3.4.1 (remark 1), for any stage of jobs that
        gather blocks and compute on them.  *started* posts the next job
        each time it is drawn from, and yields its ``(state, delivered
        event)``, or None for a job with nothing to do; ``finish(state)``
        consumes what was delivered.
        Two jobs are in flight per surviving MN of the coding group: a
        job loads its aggregator's NIC with about k blocks and each other
        holder's with one, so one job per survivor keeps every survivor's
        NIC busy only while its blocks are on the wire; the second job
        gathers while the first is decoded and handed back (double
        buffering).  The next job starts as soon as any one is delivered
        — the oldest may sit behind a later job's blocks in its
        aggregator's NIC queue."""
        window = 2 * max(1, sum(1 for node in self.cluster.layout.members
                                if node != server.node_id
                                and self._is_source(node)))
        pending: List[tuple] = []

        def finish_one():
            index, _value = yield self.env.any_of(
                [delivered for _state, delivered in pending])
            finish(pending.pop(index)[0])

        for job in started:
            if job is None:
                continue
            pending.append(job)
            if len(pending) >= window:
                yield from finish_one()
        while pending:
            yield from finish_one()

    @staticmethod
    def _aggregator(run: _Run, holders):
        """The holder with the fewest recovery bytes of this attempt in
        flight on its NIC now (the first such, in the order given)."""
        return min(holders, key=lambda srv: run.ledger[srv.node_id])

    def _needs(self, run: _Run, *servers) -> None:
        """Raise :class:`NodeFailedError` unless *run* is still the
        current attempt and every one of *servers* is still a source
        (:meth:`_is_source`).  The fabric fails a verb whose
        *destination* died; what an aggregator posts, captures or pushes
        needs this check of its source."""
        if run.over:
            raise NodeFailedError(run.node, "recovery attempt restarted")
        for srv in servers:
            if not self._is_source(srv.node_id):
                raise NodeFailedError(srv.node_id, "died mid-job")

    def _call(self, src_nic, server, method: str, *args,
              response_size: int = 64):
        """RPC to another MN's server, with the patience of a control
        RPC: it may queue behind the holder's own EC and RPC work."""
        return rpc_call(self.env, self.cluster.fabric, src_nic,
                        server.rpc_server, method, *args,
                        response_size=response_size,
                        timeout=CONTROL_RPC_TIMEOUT)

    def _aside(self, generator, name: str):
        """Run *generator* beside the driver; the returned event succeeds
        with its value or fails with its :class:`NodeFailedError`.  The
        process itself never dies of one: the driver, when it waits, is
        who must see it — and when the tiers were restarted meanwhile
        nobody waits, which must not read as a crashed process."""
        done = self.env.event()

        def run():
            try:
                done.succeed((yield from generator))
            except NodeFailedError as exc:
                done.fail(exc)

        self.env.process(run(), name=name)
        return done

    # -- main entry -----------------------------------------------------------

    def recover(self, node_id: int):
        """Tiered recovery with crash-during-recovery tolerance: when a
        node this recovery depends on (checkpoint holder, shard holder,
        scan source) dies mid-tier, the partial restoration is wiped and
        the tiers restart from scratch against the surviving membership —
        the same recovery process keeps driving, so a cluster with
        ``auto_recover`` off behaves identically."""
        cluster = self.cluster
        mn = cluster.mns[node_id]
        server = cluster.servers[node_id]
        report = RecoveryReport(node_id=node_id, started_at=self.env.now)
        self.reports.append(report)
        bytes_by_class = cluster.fabric.bytes_by_class
        bytes0 = bytes_by_class.get("recovery", 0)
        busy0 = {i: other.nic.busy_time for i, other in cluster.mns.items()}
        while True:
            run = _Run(cluster, node_id, report)
            try:
                yield from self._recover_once(server, run)
                break
            except NodeFailedError:
                run.over = True
                if report.attempts >= 6:
                    raise RecoveryError(
                        f"mn{node_id} recovery kept losing dependencies "
                        f"({report.attempts} attempts)"
                    )
                report.attempts += 1
                if mn.alive:
                    # Wipe the partial restoration; anything re-applied to
                    # the index so far is re-derivable from the blocks.
                    server.stop()
                    mn.crash()
                cluster.master.reset_to_failed(node_id)
                yield self.env.timeout(cluster.master.detection_delay)
        report.recovery_bytes = bytes_by_class.get("recovery", 0) - bytes0
        busy = {i: other.nic.busy_time - busy0[i]
                for i, other in cluster.mns.items()}
        report.nic_busy_s = busy.pop(node_id)
        report.helper_nic_busy_s = max(busy.values(), default=0.0)
        return report

    def _recover_once(self, server, run: _Run):
        cluster = self.cluster
        server.mn.reset_for_recovery()
        server.reset_after_crash()
        server.start_rpc()

        # Leadership repair: if the directory died with this node (or was
        # never placed on the current leader), rebuild it from parity
        # records.
        leader = cluster.leader_server()
        if leader.directory is None:
            leader.directory = rebuild_directory(cluster)

        yield from self._recover_meta(server, run)
        yield from self._recover_index(server, run)
        # Until a twin is installed its DELTA block is the only live copy
        # of the block: every one left goes on the wire ahead of the
        # Block tier, whose old blocks still have a second parity.
        while run.twins:
            self._post_twin(run)

        if self.hold_block_phase is not None \
                and not self.hold_block_phase.triggered:
            yield self.hold_block_phase

        yield from self._recover_blocks(server, run)
        self._trace_recovery(run.report)
        server.start()  # resume the checkpoint loop

    def _trace_recovery(self, report: RecoveryReport) -> None:
        """Emit the tier timeline retroactively from the report's
        milestone timestamps, so traced durations sum to total_time."""
        obs = getattr(self.cluster, "obs", None)
        if obs is None or not obs.enabled:
            return
        track = f"recover.mn{report.node_id}"
        for phase, start, end in report.timeline():
            obs.tracer.complete(phase, "recovery", track, start, end)
        for tier, milestone in TIERS.items():
            args = {"total_ms": round(report.total_time * 1e3, 4)} \
                if milestone == MnState.RECOVERED else {}
            obs.tracer.instant(milestone, cat="recovery", track=track,
                               at=report.done_at(tier), **args)

    # -- tier 1: Meta Area -------------------------------------------------------

    def _recover_meta(self, server, run: _Run):
        cluster = self.cluster
        node_id = server.node_id
        holder = next((other for other in self._sources(excluding=node_id)
                       if node_id in other.mn.meta_replicas), None)
        run.begin("meta")
        blocks = server.mn.blocks
        if holder is not None:
            replicas = holder.mn.meta_replicas[node_id]
            total = len(replicas) * server.mn.meta_record_size
            yield from self._read_remote(run, holder.node_id, total)
            for block_id, meta in replicas.items():
                restored = meta.copy()
                restored.valid = restored.role is Role.FREE
                blocks.meta[block_id] = restored
        # The replica map can be PARTIAL: if the replica holder itself
        # crashed earlier, it lost every record shipped before its own
        # failure, and only blocks touched since then were re-replicated.
        # Treating such a map as complete would leave old sealed blocks
        # marked FREE — they would be reallocated and overwritten while
        # surviving parity holders still reference them.  Always merge in
        # every block the parity holders / directory still know about,
        # then rebuild the free list from the merged view.
        self._restore_meta_from_parity_holders(server)
        self._rebuild_parity_records(server)
        # Free list last: only after DATA, PARITY and DELTA blocks have
        # all been re-claimed may the remainder be handed out again.
        blocks._free = []
        for meta in blocks.meta:
            if meta.role is Role.FREE:
                meta.valid = True  # nothing of it is lost
                blocks._free.append(meta.block_id)
        blocks._free.reverse()
        run.report.lost_bytes = cluster.config.cluster.block_size * (
            len(blocks.meta) - len(blocks._free))
        run.end("read_meta")

    def _restore_meta_from_parity_holders(self, server) -> None:
        """Rebuild skeleton DATA and PARITY metadata from surviving
        parity-holder records, for blocks the meta replica did not cover
        (a partial replica, or no replica at all).

        Blocks already restored from the replica (role not FREE) are left
        untouched.  Slot geometry is unknown without the replica
        (``slot_size`` 0); the KV scan then walks records generically by
        their self-describing headers."""
        node_id = server.node_id
        blocks = server.mn.blocks
        for other in self._sources(excluding=node_id):
            for sid, record in other.stripes.items():
                for pos, loc in enumerate(record.data):
                    if loc is None or loc[0] != node_id:
                        continue
                    meta = blocks.meta[loc[1]]
                    if self._claim(meta, Role.DATA, sid, pos):
                        meta.index_version = 0  # unknown: scan it
                        meta.slot_size = 0      # unknown: generic scan
                        meta.slots = 0
        # Parity blocks this node held, from the rebuilt directory.
        directory = self.cluster.leader_server().directory
        k = self.cluster.codec.k
        if directory is not None:
            for sid, stripe in directory.stripes.items():
                for parity_index, loc in enumerate(stripe.parity):
                    if loc is not None and loc[0] == node_id and loc[1] >= 0:
                        self._claim(blocks.meta[loc[1]], Role.PARITY, sid,
                                    k + parity_index)

    @staticmethod
    def _claim(meta, role, sid: int, xor_id: int) -> bool:
        """Re-claim a FREE block as a *role* block at position *xor_id*
        of stripe *sid* whose bytes are lost; whether it was FREE (a
        block already restored from the replica is left as it is)."""
        if meta.role is not Role.FREE:
            return False
        meta.role = role
        meta.valid = False
        meta.stripe_id = sid
        meta.xor_id = xor_id
        return True

    def _rebuild_parity_records(self, server) -> None:
        """Re-create this node's parity-holder stripe records from the
        restored metadata plus the directory."""
        directory = self.cluster.leader_server().directory
        k = self.cluster.codec.k
        for meta in server.mn.blocks.meta:
            if meta.role is not Role.PARITY or meta.stripe_id < 0:
                continue
            sid = meta.stripe_id
            parity_index = meta.xor_id - k
            stripe = directory.stripes.get(sid) if directory else None
            data = list(stripe.data) if stripe else [None] * k
            sealed = [bool(meta.xor_map >> j & 1) for j in range(k)]
            record = StripeRecord(
                stripe_id=sid, parity_index=parity_index,
                parity_block=meta.block_id, data=data, sealed=sealed,
            )
            if parity_index == 0:
                for j, addr in enumerate(meta.delta_addrs[:k]):
                    if addr:
                        _mn, block_id, _intra = self._locate(addr)
                        record.delta_blocks[j] = block_id
                        # Re-claim the DELTA block id: the replica that
                        # named it may predate the crash, and leaving it
                        # FREE would let the allocator re-grant space the
                        # fill cycle's clients still write deltas into.
                        self._claim(server.mn.blocks.meta[block_id],
                                    Role.DELTA, sid, j)
            server.stripes[sid] = record

    # -- tier 2: Index Area --------------------------------------------------------

    def _recover_index(self, server, run: _Run):
        """The Index tier.  The checkpoint image's Index Version is known
        before its bytes arrive, and it alone decides which blocks are
        rescanned, so the image read and the holders' scans (Read RBlock,
        and the P holders' walks of the DELTA twins) start at once,
        beside the driver, and Recover LBlock decodes the other lost new
        blocks under them; the image is restored once both are done,
        before the scrub, with which the twin stream starts
        (:meth:`_stream_twins`)."""
        cluster = self.cluster
        node_id = server.node_id
        report = run.report
        scan_rate = cluster.config.cluster.cpu.scan_rate
        run.begin("index")
        holder = next((other for other in self._sources(excluding=node_id)
                       if other.mn.ckpt_images.get(node_id) is not None),
                      None)
        if holder is not None:
            image = holder.mn.ckpt_images[node_id]
            ckpt_iv = image.index_version
            ckpt_read = self._aside(
                self._read_remote(run, holder.node_id, len(image.data)),
                f"ckpt-read@mn{holder.node_id}")
        else:
            ckpt_iv = 0  # no checkpoint: full rebuild from all blocks
            ckpt_read = None

        # Blocks whose KV pairs may postdate the checkpoint: Index Version
        # 0 (unfilled) or >= ckpt_iv - 1 (one round of cross-MN skew slack,
        # §3.2.3).
        threshold = max(ckpt_iv - 1, 1)

        def is_new(meta) -> bool:
            return meta.role is Role.DATA and (
                meta.index_version == 0 or meta.index_version >= threshold
            )

        def inventory(mn_id: int) -> list:
            """*mn_id*'s DATA blocks into ``run.data_gens``; returns its
            new ones."""
            new = []
            for meta in cluster.mns[mn_id].blocks.meta:
                if meta.role is Role.DATA:
                    run.data_gens[(mn_id, meta.block_id)] = meta.alloc_gen
                    if is_new(meta):
                        new.append(meta)
            return new

        # The counts are this attempt's.
        report.kv_count = report.rblock_count = 0
        report.applied_slots = report.scrubbed_slots = 0
        report.twins_done_at = 0.0

        # Scan KV runs under the reads: every block image is walked the
        # moment it is at hand, and the walk's CPU time goes to the
        # walking node's EC core right then, so it is spent while later
        # blocks are still on the wire.
        def scan(owner: int, meta, data: bytes) -> None:
            walked, homed = self._homed_records(node_id, data,
                                                meta.slot_size)
            self._merge(run, owner, meta.block_id, homed)
            report.kv_count += walked
            run.scan_done = server.mn.ec_core.submit(walked / scan_rate)

        def finish(job):
            content = self._land(server, job)
            if content is not None:
                scan(job.owner, job.meta, content)
                report.rblock_count += job.owner != node_id

        # The new local blocks: one that is its DELTA block's twin is
        # walked at its P holder and installed by the twin stream; every
        # other one is decoded by Recover LBlock.
        local_new = inventory(node_id)
        twins: Dict[int, list] = {}     # P holder -> [(meta, its twin)]
        decoded = []
        for meta in local_new:
            twin = self._twin_of(meta)
            if twin is None:
                decoded.append(meta)
            else:
                twins.setdefault(twin[0].node_id, []).append(
                    (meta, twin[1].delta_blocks[meta.xor_id]))
                run.twins.append(meta)

        # Read RBlock: each source walks its own new, valid blocks and the
        # twins it holds at once (:meth:`_scan_at_holder`).  New blocks of a
        # node past its Meta tier but not yet rebuilt, and those of
        # another failed node (a concurrent two-MN recovery), are
        # reconstructed transiently from their stripes instead; a failed
        # node's inventory is read only once its Meta milestone is
        # reached — before that it lists no block at all.
        scans = []

        def split(other) -> list:
            """Start *other*'s holder-side scan; returns its new blocks
            left to rebuild."""
            new = inventory(other.node_id)
            blocks = other.mn.blocks
            entries = [(other.node_id, meta.block_id,
                        blocks.buffer(meta.block_id), meta.slot_size)
                       for meta in new if meta.valid]
            entries += [(node_id, meta.block_id, blocks.buffer(dblk),
                         meta.slot_size)
                        for meta, dblk in twins.get(other.node_id, ())]
            if entries:
                scans.append(self._aside(
                    self._scan_at_holder(run, other, entries),
                    f"rblock-scan@mn{other.node_id}"))
            return [meta for meta in new if not meta.valid]

        others = [srv for i, srv in cluster.servers.items() if i != node_id]
        rebuilds = {other.node_id: split(other) for other in others
                    if self._is_source(other.node_id)}

        # Recover LBlock: decode the new local blocks without a twin.
        yield from self._pipelined(server, (
            self._start_block_reads(run, node_id, meta) for meta in decoded),
            finish)
        report.lblock_count = len(local_new)
        run.end("recover_lblock")

        for other in others:
            other_id = other.node_id
            if other_id not in rebuilds:
                yield cluster.master.milestone(other_id,
                                               MnState.META_RECOVERED)
                rebuilds[other_id] = split(other)
            yield from self._pipelined(server, (
                self._start_block_reads(run, other_id, meta)
                for meta in rebuilds[other_id]), finish)
        yield self.env.all_of(scans)
        run.end("read_rblock")

        # Read Checkpoint: whatever of the image read is left.
        if ckpt_read is not None:
            yield ckpt_read
            server.mn.index_region.restore(image.data)
        alive_ivs = [s.mn.index.index_version
                     for s in self._sources(excluding=node_id)]
        server.mn.index.index_version = max(alive_ivs + [ckpt_iv + 1])
        run.end("read_ckpt")

        # Scan KV: whatever of the walks the reads did not hide.
        report.scan_kv_s = report.kv_count / scan_rate
        if run.scan_done is not None:
            yield run.scan_done
        run.end("scan_tail")
        if run.twins:
            run.tails.append(self._aside(self._stream_twins(server, run),
                                         f"twins@mn{node_id}"))

        # Scrub restored entries dangling into rescanned blocks.
        yield from self._scrub_index(server, run)
        run.end("scrub")

        # Re-apply each slot to its highest-versioned KV pair.
        yield from self._apply_candidates(server, run)
        run.end("apply")

    @staticmethod
    def _walk_records(data: bytes, slot_size: int):
        """Yield (offset, slot_size, record) for each KV in a block image.

        With a known ``slot_size`` the walk is a fixed stride; without one
        (meta lost, skeleton restore) records are self-describing: parse
        at 64 B boundaries and stride by the record's own rounded size.
        """
        view = memoryview(data)
        if slot_size:
            for off in range(0, len(data) - slot_size + 1, slot_size):
                record = parse_kv(view[off:off + slot_size])
                if record is not None:
                    yield off, slot_size, record
            return
        pos = 0
        while pos + 64 <= len(data):
            # Peek the self-describing header to find the record extent,
            # then parse exactly that slot (the back write-version sits at
            # its last byte).
            wv, _flags, key_len, val_len = _KV_EXTENT.unpack_from(view, pos)
            if wv == 0:
                pos += 64
                continue
            stride = ((kv_wire_size(key_len, val_len) + 63) // 64) * 64
            if pos + stride > len(data):
                pos += 64
                continue
            record = parse_kv(view[pos:pos + stride])
            if record is None:
                pos += 64
                continue
            yield pos, stride, record
            pos += stride

    def _homed_records(self, node_id: int, data, slot_size: int):
        """Walk one block image: (records walked, [(offset, slot size,
        record)] of the records homed on *node_id*)."""
        num_mns = self.cluster.config.cluster.num_mns
        walked = 0
        homed = []
        for off, size, record in self._walk_records(data, slot_size):
            walked += 1
            if home_of(record.key, num_mns) == node_id:
                homed.append((off, size, record))
        return walked, homed

    def _merge(self, run: _Run, owner: int, block_id: int,
               homed: list) -> None:
        """Take one rescanned block's homed records into *run*: by
        position for the scrub and the re-apply pass, and as the best
        (highest Slot Version) KV pair of their key."""
        base = self.cluster.mns[owner].blocks.offset_of(block_id)
        best = run.best
        records = run.rescanned[(owner, block_id)] = {}
        for off, slot_size, record in homed:
            records[off] = record
            if record.invalidated:
                continue
            epoch, _ver = split_slot_version(record.slot_version)
            if epoch > _EPOCH_SANITY_BOUND:
                continue  # corrupted reconstruction survivor
            current = best.get(record.key)
            if current is None or record.slot_version > current[0]:
                addr = GlobalAddress(owner, base + off).pack()
                best[record.key] = (record.slot_version, record, addr,
                                    slot_size)

    def _scan_at_holder(self, run: _Run, holder, entries):
        """The Index tier's walk at one live *holder*, run beside the
        driver.  *entries* are (owner, block id, bytes, slot size): the
        holder's own new blocks (Read RBlock), and the DELTA twins it
        holds of the recovering node's lost blocks, whose records are
        merged under the lost block's own address (owner, block id).  The
        holder walks the bytes as they are now, on its EC core, and keeps
        the records homed on the recovering node; the recovering node
        reads those entries (per block its id and entry count, per record
        its offset, slot size, Slot Version and key), and only once they
        landed are they merged into *run*.  Fails with
        :class:`NodeFailedError` when the holder died on the way or the
        attempt was restarted, so a stale job merges nothing."""
        walked = size = 0
        scanned = []
        for owner, block_id, data, slot_size in entries:
            count, homed = self._homed_records(run.node, data, slot_size)
            walked += count
            size += _SCAN_BLOCK_BYTES + sum(
                _SCAN_ENTRY_BYTES + len(record.key)
                for _off, _size, record in homed)
            scanned.append((owner, block_id, homed))
        yield holder.mn.ec_core.submit(
            walked / self.cluster.config.cluster.cpu.scan_rate)
        yield self.env.all_of(self._post_reads(run, run.node,
                                               holder.node_id, size))
        self._needs(run, holder)
        for owner, block_id, homed in scanned:
            self._merge(run, owner, block_id, homed)
        run.report.kv_count += walked
        run.report.rblock_count += sum(owner != run.node
                                       for owner, _block, _homed in scanned)

    def _scrub_index(self, server, run: _Run):
        """Drop restored slots whose pointed-to record was reclaimed away.

        The checkpoint may be up to one round stale, so a restored entry
        can point into a block slot that reclamation handed out and a
        client rewrote under a *different* key in the meantime.  Left in
        place, such an entry is unrecognisable to the re-apply pass (the
        record no longer names the slot's key), so the key's newer KV
        pair would land in a second slot and the stale one would dangle.

        Every block mutated since the checkpoint is in the rescan set —
        open blocks and reuse grants carry Index Version 0 and re-sealed
        blocks a fresh stamp — so each restored pointer into a rescanned
        block can be checked against the records just scanned there,
        which are those homed on this node only, and cleared when none
        is at its offset or it no longer matches the slot's fingerprint
        (a record of a key homed elsewhere is not there).  Pointers into
        blocks outside the rescan set are untouched since the checkpoint
        and stay as restored — with one exception: a block that was
        freed (or repurposed as parity/delta space) holds no live record
        by definition, yet it escapes the rescan set precisely because
        nobody has written it since.  A restored pointer into such a
        block is stale, and if left in place it would silently go corrupt
        the moment the allocator hands the space to a new writer — so
        those slots are cleared here too, from block metadata alone.
        The block's *current* role is not enough to detect this:
        recovery takes simulated time with clients still running, so a
        freed block can already have been re-granted as DATA (but not
        rewritten) by the time this check runs.  The staleness test
        therefore also compares the block's allocation generation against
        the ``run.data_gens`` snapshot taken when the rescan set was
        built — any grant since then (fresh or reuse) makes every
        restored pointer into the block stale.
        """
        index = server.mn.index
        checked = 0
        for bucket, slot, word in index.iter_slots():
            atomic = AtomicField.unpack(word)
            if atomic.empty:
                continue
            checked += 1
            where = self._locate(atomic.addr)
            if where is None:
                continue
            owner_mn, block_id, intra = where
            stale = False
            if self._is_source(owner_mn.node_id):
                bmeta = None if block_id is None \
                    else owner_mn.blocks.meta[block_id]
                stale = (bmeta is None or bmeta.role is not Role.DATA
                         or run.data_gens.get((owner_mn.node_id, block_id))
                         != bmeta.alloc_gen)
            if not stale:
                records = run.rescanned.get((owner_mn.node_id, block_id))
                if records is None:
                    continue  # not rescanned: as restored
                record = records.get(intra)
                stale = (record is None or record.invalidated
                         or fingerprint8(record.key) != atomic.fp)
            if stale:
                index.write_atomic(bucket, slot,
                                   AtomicField(fp=0, ver=0, addr=0))
                index.write_meta(bucket, slot, MetaField(0, 0))
                run.report.scrubbed_slots += 1
        if checked:
            yield server.mn.ec_core.submit(
                checked / self.cluster.config.cluster.cpu.scan_rate)

    def _locate(self, addr: int):
        """(owner MN, block id, intra-block offset) of packed address
        *addr*: block id and offset None outside the owner's Block Area,
        the whole None when no MN has the address's node id."""
        ga = GlobalAddress.unpack(addr)
        owner_mn = self.cluster.mns.get(ga.node_id)
        if owner_mn is None:
            return None
        try:
            return (owner_mn, *owner_mn.blocks.locate(ga.offset))
        except IndexError:
            return owner_mn, None, None

    def _apply_candidates(self, server, run: _Run):
        """Point each index slot at the KV pair with the highest version.

        Fingerprints collide, so before a candidate takes a slot of its
        fingerprint over, the key that slot stands for is compared.  All
        those keys are resolved up front (:meth:`_slot_keys`); slots this
        pass writes are added as it goes, so a later candidate of the
        same fingerprint and bucket pair sees the earlier one."""
        index = server.mn.index
        slot_keys = yield from self._slot_keys(server, run)
        for key, (version, record, addr, slot_size) in run.best.items():
            epoch, ver = split_slot_version(version)
            fp = fingerprint8(key)
            len_units = slot_size // 64
            target = None
            free_slots = []
            for bucket in index.candidate_buckets(key):
                for slot in range(index.bucket_slots):
                    atomic = index.read_atomic(bucket, slot)
                    if atomic.empty:
                        free_slots.append((bucket, slot))
                    elif atomic.fp == fp \
                            and slot_keys.get((bucket, slot)) == key:
                        target = (bucket, slot, atomic)
                        break
                if target:
                    break
            if target is not None:
                bucket, slot, atomic = target
                meta_word = index.read_meta(bucket, slot)
                existing = (meta_word.epoch << 8) | atomic.ver
                if version <= existing:
                    continue
            elif free_slots:
                # Same placement rule as live inserts, so cached slot
                # addresses usually stay valid across a recovery.
                bucket, slot = free_slots[
                    hash64(key, b"slotpick") % len(free_slots)]
            else:
                continue  # bucket pair full; resizing is out of scope
            index.write_atomic(bucket, slot,
                               AtomicField(fp=fp, ver=ver, addr=addr))
            index.write_meta(bucket, slot,
                             MetaField(epoch=epoch & ~1,
                                       len_units=len_units))
            slot_keys[(bucket, slot)] = key
            run.report.applied_slots += 1

    def _slot_keys(self, server, run: _Run):
        """Key of the KV pair behind every occupied slot a candidate
        could collide with: ``{(bucket, slot): key or None}``.

        Nearly all of those slots point into a block recovery has just
        rescanned (the records the scrub already trusted: a slot with no
        homed record there resolves to None, as no candidate key can
        match it), and a pointer into a rebuilt block of the node's own
        is a local memory access: neither costs a verb.  What is left is
        fetched, all of it together: a pointer into a block of another
        node that was not rescanned is one READ; a pointer into a block
        of the node's own that the Block tier has yet to rebuild is a
        degraded read of that one slot, as a client would do it (§3.4.1: the P holder's plan,
        then the slot's region of each shard, delta and P) — left
        unknown, the key's newer KV pair would take a second slot and
        the old one would shadow it.  A pointer whose bytes cannot be
        had or do not parse resolves to None: no candidate matches it."""
        index = server.mn.index
        keys: Dict[Tuple[int, int], Optional[bytes]] = {}
        remote = []  # (bucket, slot), target MN, offset, length
        lost = []    # (bucket, slot), own block's meta, intra offset, length
        for key in run.best:
            fp = fingerprint8(key)
            for bucket in index.candidate_buckets(key):
                for slot in range(index.bucket_slots):
                    atomic = index.read_atomic(bucket, slot)
                    if atomic.empty or atomic.fp != fp \
                            or (bucket, slot) in keys:
                        continue
                    keys[(bucket, slot)] = None
                    where = self._locate(atomic.addr)
                    if where is None or where[1] is None:
                        continue
                    target, block_id, intra = where
                    held = run.rescanned.get((target.node_id, block_id))
                    if held is not None:
                        record = held.get(intra)
                        keys[(bucket, slot)] = record.key if record else None
                        continue
                    length = max(index.read_meta(bucket, slot).len_units,
                                 1) * 64
                    offset = target.blocks.offset_of(block_id) + intra
                    if target is not server.mn:
                        remote.append(((bucket, slot), target, offset,
                                       length))
                    elif target.blocks.meta[block_id].valid:
                        keys[(bucket, slot)] = self._key_at(
                            target, offset, length)
                    else:
                        lost.append(((bucket, slot),
                                     target.blocks.meta[block_id], intra,
                                     length))
        keys.update((yield from self._fetch_slot_keys(server, run, remote,
                                                      lost)))
        return keys

    def _fetch_slot_keys(self, server, run: _Run, remote, lost):
        """The slot keys that cost verbs: *remote* records are one READ
        each, slots of *lost* blocks of the node's own a degraded read
        each.  Every plan is asked for before the first is waited for,
        and likewise every read.  A read that fails leaves its slot
        out."""
        cluster = self.cluster
        asked = [
            (where, self._aside(self._call(
                server.mn.nic, psrv, "degraded_plan", meta.stripe_id,
                meta.xor_id, intra, length, response_size=256),
                f"slot-plan(s{meta.stripe_id}@mn{psrv.node_id})"))
            for where, meta, intra, length in lost
            for psrv, prec in [self._parity(meta.stripe_id)]
            if prec is not None]
        plans = []
        for where, asking in asked:
            plans.append((where, (yield asking)))

        # (slot, its reads' events, what gives the key once they landed)
        lookups = [
            (where, self._post_reads(run, run.node, target.node_id,
                                     min(length, HEADER_SIZE + 256)),
             partial(self._key_at, target, offset, length))
            for where, target, offset, length in remote]
        for where, plan in plans:
            regions = [(cluster.mns[node], offset)
                       for node, offset in plan.regions()]
            try:
                raw = plan.solve(cluster.codec, [
                    mn.read_bytes(offset, plan.length)
                    for mn, offset in regions])
            except (NodeFailedError, IndexError):
                continue  # a second lost shard: stays unknown
            lookups.append((where, [read for mn, _offset in regions
                                    for read in self._post_reads(
                                        run, run.node, mn.node_id,
                                        plan.length)],
                            partial(self._record_key, raw)))
        keys = {}
        for where, reads, key_of in lookups:
            try:
                yield self.env.all_of(reads)
            except NodeFailedError:
                continue
            keys[where] = key_of()
        return keys

    @staticmethod
    def _record_key(raw: bytes) -> Optional[bytes]:
        record = parse_kv(raw)
        return record.key if record else None

    def _key_at(self, mn, offset: int, length: int) -> Optional[bytes]:
        """Key of the KV pair at *offset* of *mn*'s memory, None when the
        block is still lost or no record parses there."""
        try:
            return self._record_key(mn.read_bytes(offset, length))
        except (NodeFailedError, IndexError):
            return None

    # -- tier 3: Block Area -----------------------------------------------------

    def _recover_blocks(self, server, run: _Run):
        """The Block tier as one job pool: the decodes of the old DATA
        blocks first, then the re-baselines of the parity this node holds
        (not critical, §3.4.1 — functionality returned at the Index
        milestone), with no drain between them, so the survivors' NICs
        stay busy across the seam.  ``rebaseline`` ends once the grace
        periods and Q pushes left running beside the driver and the twins
        still on the wire (:meth:`_stream_twins`) are done too."""
        run.begin("block")
        streamed = {job.meta.block_id for job, _delivered in run.twin_reads}
        old = [m for m in server.mn.blocks.meta
               if m.role is Role.DATA and not m.valid
               and m.block_id not in streamed]
        run.report.old_count = len(old)
        run.end("recover_old")

        def jobs():
            for meta in old:
                yield self._start_block_reads(run, server.node_id, meta)
            for stripe in list(server.stripes.items()):
                yield self._start_rebaseline(run, server, stripe)

        def finish(job):
            if job is not None:  # None: a re-baseline, installed at capture
                self._land(server, job)
                run.end("recover_old")

        yield from self._pipelined(server, jobs(), finish)
        yield self.env.all_of(run.tails)
        run.end("rebaseline")

    def _land(self, server, job: _Job) -> Optional[bytes]:
        """The contents of *job*'s block once delivered — a twin's as
        captured, any other's decoded (:meth:`_decode`) — installed in
        the recovering node's Block Area when the block is its own;
        None when the survivors' shards could not rebuild it."""
        content = job.content or self._decode(job)
        if content is not None and job.owner == server.node_id:
            server.mn.blocks.set_block(job.meta.block_id, content)
            job.meta.valid = True
        return content

    def _deliver(self, run: _Run, agg, gathered: list, blocks: int,
                 capture=None):
        """The aggregator's side of one job, run beside the driver: once
        the blocks it *gathered* have landed, its EC core decodes or
        encodes *blocks* blocks; a re-baseline's ``capture()`` then takes
        the stripe at that instant and returns what follows it (grace,
        Q push), which runs on beside the driver; and the recovering node
        reads the one block that results — no verb when it aggregated
        itself, having nothing to gather."""
        yield self.env.all_of(gathered)
        self._needs(run, agg)
        yield agg.mn.ec_core.submit(
            blocks * self.cluster.config.cluster.block_size / agg._ec_rate())
        if capture is not None:
            run.tails.append(self._aside(
                capture(), f"settle@mn{run.node}(via mn{agg.node_id})"))
        if agg.node_id != run.node:
            yield self.env.all_of(self._post_reads(
                run, run.node, agg.node_id,
                self.cluster.config.cluster.block_size))

    def _start_block_reads(self, run: _Run, owner: int, meta):
        """Start the rebuild of lost block *meta* of node *owner*; returns
        (job, delivered event) or None when unrecoverable.

        A block granted fresh whose DELTA block is live is its DELTA
        block's twin (:attr:`StripeRecord.fresh`): the recovering node
        reads that one block from the P holder (:meth:`_start_twin`).
        Every other block is decoded at an aggregator.  The job gathers
        the other data shards and the parity a decode of what is missing
        needs.  A single erasure whose P holder is alive needs one parity
        block whatever the stripe's state: the holder folds its live
        DELTA blocks into a scratch copy of P (:meth:`_fold_parity`),
        which is the parity of the shards as they are *now*, so nothing
        is left to fold.  A dead P holder or a second lost shard gathers
        P and/or Q plus every live DELTA block instead.  Contents are
        captured here, at one instant; the aggregator is the holder of
        any of those blocks with the fewest recovery bytes in flight, and
        reads the rest."""
        codec = self.cluster.codec
        sid, pos = meta.stripe_id, meta.xor_id
        if sid < 0:
            return None
        twin = self._twin_of(meta)
        if twin is not None:
            return self._start_twin(run, owner, meta, *twin)
        # Prefer the P holder's record; fall back to Q's for 2-MN failures.
        # A holder that is itself mid-recovery knows the stripe again but
        # has not re-derived its parity block yet: as good as dead.
        parity = [self._parity(sid, j) for j in range(codec.m)]
        records = [record if record is not None
                   and srv.mn.blocks.meta[record.parity_block].valid
                   else None for srv, record in parity]
        psrv = parity[0][0]
        primary = records[0]
        reference = primary or (records[1] if len(records) > 1 else None)
        if reference is None:
            return None
        shards: List[Optional[bytes]] = [None] * (codec.k + codec.m)
        deltas: Dict[int, bytes] = {}
        holders = []  # the server of each block to gather, one per block
        for j, loc in enumerate(reference.data):
            srv = self._data_source(loc) if j != pos else None
            if srv is not None:
                shards[j] = bytes(srv.mn.blocks.buffer(loc[1]))
                holders.append(srv)
        # A single erasure decodes from P alone: with the P record and
        # every other allocated data shard at hand, Q is neither fetched
        # nor charged (`codec.reconstruct` fills it in as a second
        # erasure).  Q stays for a dead P holder or a second lost shard.
        single = primary is not None and len(holders) == sum(
            1 for j in range(codec.k)
            if j != pos and reference.data[j] is not None)
        fold = single and any(d is not None for d in primary.delta_blocks)
        if fold:
            shards[codec.k] = psrv.folded_parity(sid)
        else:
            for parity_index, record in enumerate(records):
                if record is None or (single and parity_index > 0):
                    continue
                srv = parity[parity_index][0]
                shards[codec.k + parity_index] = bytes(
                    srv.mn.blocks.buffer(record.parity_block))
                holders.append(srv)
            if primary is not None:
                for j, dblk in enumerate(primary.delta_blocks):
                    if dblk is not None:
                        deltas[j] = bytes(psrv.mn.blocks.buffer(dblk))
                        holders.append(psrv)
        agg = self._aggregator(run, holders + [psrv] * fold)
        gathered = ([self._aside(self._fold_parity(run, agg, psrv, sid),
                                 f"fold-parity(s{sid}@mn{psrv.node_id})")]
                    if fold else []) + self._read_blocks(run, agg, holders)
        job = _Job(owner, meta, sid, pos, agg.node_id, reference, shards,
                   deltas)
        return job, self._aside(
            self._deliver(run, agg, gathered,
                          sum(s is not None for s in shards)),
            f"rebuild(s{sid}.{pos}@mn{agg.node_id})")

    def _twin_of(self, meta):
        """(P holder's server, its record) when lost DATA block *meta* is
        its DELTA block's twin — its P holder is a source, says the
        position was granted fresh (:attr:`StripeRecord.fresh`) and has a
        live DELTA block for it — else None."""
        psrv, prec = self._parity(meta.stripe_id)
        pos = meta.xor_id
        if prec is None or not prec.fresh[pos] \
                or prec.delta_blocks[pos] is None:
            return None
        return psrv, prec

    def _post_twin(self, run: _Run) -> None:
        """Post the next twin of ``run.twins`` onto ``run.twin_reads``.
        It goes through :meth:`_start_block_reads`, which re-checks the
        twin rule now: a block no longer fresh is decoded instead."""
        self._needs(run)
        started = self._start_block_reads(run, run.node, run.twins.pop(0))
        if started is not None:
            run.twin_reads.append(started)

    def _stream_twins(self, server, run: _Run):
        """The twin stream, run beside the driver from the scrub on and
        waited for only by ``RECOVERED`` (it is on ``run.tails``): it
        installs the lost blocks whose DELTA twins their P holders have
        walked.  Until the Index milestone one read is in flight, so the
        re-apply's key look-ups queue behind at most one block; at the
        milestone the driver posts every twin left.  Each is installed the
        moment it lands."""
        env = self.env
        reads = run.twin_reads
        while run.twins or reads:
            if not reads:
                self._post_twin(run)
                continue
            index, _value = yield env.any_of(
                [delivered for _job, delivered in reads])
            self._land(server, reads.pop(index)[0])
            run.report.twins_done_at = env.now

    def _start_twin(self, run: _Run, owner: int, meta, psrv, prec):
        """Rebuild lost DATA block *meta* from its DELTA twin: with P's
        baseline zero for the position, the DELTA block holds the data
        block's current bytes, so one block-sized read from the P holder
        into the recovering node rebuilds it — no shard gathered, no fold,
        no decode.  Contents are captured now, like a decode's shards,
        into the job; returns (job, delivered event), which fails when
        the P holder died on the way or the attempt was restarted."""
        codec = self.cluster.codec
        sid, pos = meta.stripe_id, meta.xor_id
        job = _Job(owner, meta, sid, pos, psrv.node_id, prec,
                   [None] * (codec.k + codec.m), content=bytes(
                       psrv.mn.blocks.buffer(prec.delta_blocks[pos])))
        reads = self._post_reads(run, run.node, psrv.node_id,
                                 self.cluster.config.cluster.block_size)

        def landed():
            yield self.env.all_of(reads)
            self._needs(run, psrv)

        return job, self._aside(landed(),
                                f"twin(s{sid}.{pos}@mn{psrv.node_id})")

    def _fold_parity(self, run: _Run, agg, psrv, sid: int):
        """The P holder of stripe *sid* folds the stripe's live deltas into
        a scratch copy of P (its EC core pays the XOR passes), asked by
        one small RPC, and the aggregator reads that one block once the
        call returned — or folds it locally, being the P holder.  Fails
        with :class:`NodeFailedError` when the holder dies on the way."""
        if psrv is agg:
            yield from psrv.h_fold_parity(sid)
            return
        yield from self._call(agg.mn.nic, psrv, "fold_parity", sid)
        yield self.env.all_of(self._read_blocks(run, agg, [psrv]))

    def _decode(self, job: _Job) -> Optional[bytes]:
        """Pure decode: reconstruct a lost block's current contents from
        the shard and delta bytes its job gathered (no simulated time);
        None when the survivors' shards cannot rebuild it."""
        codec = self.cluster.codec
        pos, shards, deltas = job.pos, job.shards, job.deltas
        block_size = self.cluster.config.cluster.block_size
        # Fold unsealed shards to their last-encoded state; positions
        # never allocated contribute zero blocks.
        folded = list(shards)
        for j in range(codec.k):
            if j == pos:
                continue
            if folded[j] is not None and j in deltas:
                folded[j] = xor_bytes(folded[j], deltas[j])
            elif folded[j] is None and job.reference.data[j] is None:
                folded[j] = bytes(block_size)
        try:
            recon = codec.reconstruct(folded)
        except Exception:
            return None  # unrecoverable with surviving shards
        content = recon[pos]
        if pos in deltas:
            content = xor_bytes(content, deltas[pos])
        return content

    def _start_rebaseline(self, run: _Run, server, stripe):
        """Start the rebuild of one parity block held on the recovered
        node; returns (None, delivered event).

        A recovered P holder lost the DELTA blocks too, so the stripe is
        re-baselined: both parities are re-encoded from the data blocks'
        *current* contents and all deltas restart from zero.  A recovered
        Q holder re-encodes from the folded states (P's baseline), which
        the surviving P holder still knows.

        The job runs at an aggregator, picked among the stripe's data
        holders and the Q holder (P re-baseline) or, with live deltas,
        the P holder (Q re-baseline): it gathers the other holders'
        blocks and encodes, and the recovering node reads back its parity
        block.  Clients keep writing meanwhile, so the capture must not
        straddle them: the reads are only charged, and once they landed
        and were encoded the blocks are copied at a single simulation
        instant (:meth:`_capture`).  Grace periods and Q pushes run
        beside the driver, on ``run.tails``."""
        sid, record = stripe
        sources = [(j, srv, loc[1])     # (position, data owner, block id)
                   for j, loc in enumerate(record.data)
                   for srv in [self._data_source(loc)] if srv is not None]
        holders = [srv for _j, srv, _block_id in sources]
        if record.parity_index == 0:
            capture = self._rebaseline_p
            qsrv, qrec = self._parity(sid, 1)
            candidates = holders + ([qsrv] if qrec is not None else [])
        else:
            capture = self._rebaseline_q
            psrv, prec = self._parity(sid)
            holders += [psrv for j, _srv, _block_id in sources
                        if prec is not None
                        and prec.delta_blocks[j] is not None]
            candidates = holders
        agg = self._aggregator(run, candidates) if candidates else server
        return None, self._aside(
            self._deliver(run, agg, self._read_blocks(run, agg, holders),
                          self.cluster.codec.k,
                          partial(capture, run, server, agg, sid, record,
                                  sources)),
            f"rebaseline(s{sid}@mn{agg.node_id})")

    def _data_source(self, loc):
        """The server of data block *loc* (node, block id) when it may be
        read as a shard — its node is a source and the block a valid
        DATA block there — else None."""
        if loc is None or not self._is_source(loc[0]):
            return None
        srv = self.cluster.servers[loc[0]]
        meta = srv.mn.blocks.meta[loc[1]]
        return srv if meta.role is Role.DATA and meta.valid else None

    def _parity(self, sid: int, j: int = 0):
        """(server, its record of stripe *sid*) of the *j*-th parity holder
        (0: P, 1: Q); the record is None when the holder is no source or
        does not know the stripe, and both are when there is no such one."""
        cluster = self.cluster
        if j >= cluster.codec.m:
            return None, None
        srv = cluster.servers.get(
            cluster.layout.node_of(sid, cluster.codec.k + j))
        if srv is None or not self._is_source(srv.node_id):
            return srv, None
        return srv, srv.stripes.get(sid)

    #: Grace period for fabric writes already in flight when a parity
    #: re-baseline captures its data blocks (one write latency, padded).
    _REBASE_GRACE = 10e-6

    def _capture(self, run: _Run, agg, sources, holder, record) -> list:
        """A re-baseline's capture, once *agg* and every source still count
        (:meth:`_needs`): per source (position, server, block id, its
        bytes now, its slot size, and the buffer of the live DELTA block
        *holder* keeps for the position under *record*, or None)."""
        self._needs(run, agg, *(srv for _j, srv, _block_id in sources))
        captured = []
        for j, srv, block_id in sources:
            dblk = None if record is None else record.delta_blocks[j]
            captured.append((
                j, srv, block_id, bytes(srv.mn.blocks.buffer(block_id)),
                srv.mn.blocks.meta[block_id].slot_size,
                None if dblk is None else holder.mn.blocks.buffer(dblk)))
        return captured

    def _rebaseline_p(self, run: _Run, server, agg, sid, record, sources):
        """Recovered P holder: folded := current, deltas restart at zero.
        Captures the stripe now and returns what follows beside the
        driver: the grace period, then the Q push from *agg*.

        Three hazards with live writers (each KV pair and its delta are
        posted in parallel, so either can land first):

        * an open position's delta keeps accumulating after the reset —
          the position must stay *unsealed* so decodes keep folding it;
        * a delta that landed before the capture while its KV pair is
          still in flight must be preserved, not zeroed: the new baseline
          holds the slot's generation-start bytes, so the delta stays
          exactly right once the KV write lands;
        * a delta landing just after the reset for a KV pair already in
          the baseline would double-apply — re-zero those slots after a
          grace period covering writes that were in flight.
        """
        cluster = self.cluster
        codec = cluster.codec
        block_size = cluster.config.cluster.block_size
        # ---- single-instant capture: datas, parity, delta reset -------
        datas = [bytes(block_size)] * codec.k
        rezero: List[Tuple[object, int, int]] = []  # (delta buf, off, size)
        for j, srv, block_id, data_now, slot_size, dbuf in self._capture(
                run, agg, sources, server, record):
            datas[j] = data_now
            if dbuf is None:
                continue
            # Re-claimed by _rebuild_parity_records with valid = False;
            # its bytes become defined here, so readers may use it again.
            server.mn.blocks.meta[record.delta_blocks[j]].valid = True
            if not slot_size:
                dbuf[:] = bytes(block_size)
                continue
            old = srv.mn.reclaim_backups.get(block_id) or bytes(block_size)
            landed = []
            for off in range(0, block_size, slot_size):
                if data_now[off:off + slot_size] == old[off:off + slot_size]:
                    continue  # KV pair not landed: keep in-flight delta
                dbuf[off:off + slot_size] = bytes(slot_size)
                rezero.append((dbuf, off, slot_size))
                landed.append(off)
            record.baselined[j] = frozenset(landed)
        for j in range(codec.k):
            record.sealed[j] = (record.data[j] is not None
                                and record.delta_blocks[j] is None)
        record.fresh = [False] * codec.k  # the baseline is the data now
        sealed = list(record.sealed)
        parity = codec.encode(datas)
        server.mn.blocks.set_block(record.parity_block, parity[0])
        server.mn.blocks.meta[record.parity_block].valid = True

        def settle():
            # ---- grace: drop deltas that were racing the capture ------
            if rezero:
                yield self.env.timeout(self._REBASE_GRACE)
                self._needs(run)
                for dbuf, off, slot_size in rezero:
                    if any(dbuf[off:off + slot_size]):
                        dbuf[off:off + slot_size] = bytes(slot_size)
            if not self._q_is_current(sid, record, sealed):
                yield from self._push_q(run, agg, sid, parity[1], record)

        return settle()

    def _q_is_current(self, sid: int, record, sealed) -> bool:
        """Whether the Q holder's Q already is the Q of the data a P
        re-baseline captured: every allocated position was sealed in the
        captured P record (*sealed*: no live delta, the data is its own
        folded state) and is sealed in the Q holder's record, which
        happens only once the position's forwarded Q contribution has
        landed — one still on the wire leaves it unsealed.  Such a Q is
        neither pushed nor installed again."""
        qrec = self._parity(sid, 1)[1]
        return qrec is not None and all(
            sealed[j] and qrec.sealed[j]
            for j, loc in enumerate(record.data) if loc is not None)

    def _push_q(self, run: _Run, agg, sid: int, q: bytes, record):
        """Install the Q matching a re-baselined P at its holder: pushed
        from the aggregator, or a local copy when that is the holder.  A
        push whose aggregator died on the way installs nothing.  A Q that
        is already current is not pushed at all (:meth:`_q_is_current`)."""
        qsrv, qrec = self._parity(sid, 1)
        if qrec is None:
            return
        if qsrv is not agg:
            self._needs(run, agg)
            size = self.cluster.config.cluster.block_size
            push = self.cluster.fabric.transfer(
                agg.mn.nic, qsrv.mn.nic, size, traffic_class="recovery")
            self._charge(run, agg.node_id, qsrv.node_id, size, push)
            yield push
        self._needs(run, agg)
        qrec = qsrv.stripes[sid]
        qsrv.mn.blocks.set_block(qrec.parity_block, q)
        qrec.sealed = list(record.sealed)

    def _rebaseline_q(self, run: _Run, server, agg, sid, record, sources):
        """Recovered Q holder: re-encode from the folded states, which the
        surviving P holder still covers (shard XOR its delta).  Captures
        the stripe now and returns what follows beside the driver.

        The shard and delta captures happen at one instant, so the only
        skew is a delta still in flight for a KV write that already
        landed.  After a grace period, slots whose delta changed while
        their shard did not are re-folded with the late delta (a changed
        shard means a fresh post-capture write instead, whose folded
        state *is* the captured shard)."""
        codec = self.cluster.codec
        datas = [bytes(self.cluster.config.cluster.block_size)] * codec.k
        late = []  # the capture of each source with a live delta, + bytes
        for j, srv, block_id, shard, slot_size, dbuf in self._capture(
                run, agg, sources, *self._parity(sid)):
            datas[j] = shard
            if dbuf is not None:
                dbytes = bytes(dbuf)
                datas[j] = xor_bytes(shard, dbytes)
                late.append((j, srv, block_id, shard, slot_size, dbuf,
                             dbytes))

        def settle():
            # ---- grace: re-fold slots whose delta arrived late --------
            if late:
                yield self.env.timeout(self._REBASE_GRACE)
                self._needs(run)
            for j, srv, block_id, shard, slot_size, dbuf, dbytes in late:
                if not slot_size:
                    continue
                now = bytes(dbuf)
                if now == dbytes:
                    continue
                current = srv.mn.blocks.buffer(block_id)
                folded = bytearray(datas[j])
                for off in range(0, len(now), slot_size):
                    if now[off:off + slot_size] == dbytes[off:off + slot_size]:
                        continue
                    if current[off:off + slot_size] \
                            != shard[off:off + slot_size]:
                        continue  # fresh write, not a late delta
                    folded[off:off + slot_size] = xor_bytes(
                        shard[off:off + slot_size],
                        now[off:off + slot_size])
                datas[j] = bytes(folded)
            parity = codec.encode(datas)
            server.mn.blocks.set_block(record.parity_block,
                                       parity[record.parity_index])
            server.mn.blocks.meta[record.parity_block].valid = True

        return settle()


# ----------------------------------------------------------------------
# compute-node (client) recovery — §3.4.2
# ----------------------------------------------------------------------

def restart_client(cluster, old_client, cn=None):
    """Restart a crashed client on a functional CN and return the new
    client plus the process driving its state recovery.  *cn* pins the
    replacement to a specific alive compute node (CN rejoin)."""
    from .api import AcesoClient

    if cn is not None and cn.alive:
        new_cn = cn
    else:
        new_cn = next(c for c in cluster.cns.values() if c.alive)
    client = AcesoClient(cluster, old_client.cli_id, new_cn)
    cluster.clients.append(client)
    proc = cluster.env.process(_client_recovery(cluster, client),
                               name=f"cn-recover(cli{client.cli_id})")
    return client, proc


def _client_recovery(cluster, client):
    """Re-establish a restarted client's block state (§3.4.2)."""
    block_size = cluster.config.cluster.block_size
    for node, server in list(cluster.servers.items()):
        if not server.mn.alive:
            continue
        try:
            blocks = yield from client._rpc(server, "client_blocks",
                                            client.cli_id,
                                            response_size=256)
        except NodeFailedError:
            continue
        for info in blocks:
            yield from _recover_block(cluster, client, node, server, info)
    client.start_background()
    cluster.master.report_cn_recovered(client.cn.node_id)
    return client


def _recover_block(cluster, client, node, server, info):
    """Validate one unfilled block: roll torn writes back, seal it, and
    mark unwritten slots obsolete so the space is reclaimed later."""
    sid, pos = info["stripe_id"], info["position"]
    slot_size, slots = info["slot_size"], info["slots"]
    if not slot_size or not slots:
        return
    data = yield client._post_read(node, info["offset"],
                                   cluster.config.cluster.block_size)
    status = None
    delta_base = None
    pnode = None
    if sid >= 0:
        pnode = cluster.layout.node_of(sid, cluster.codec.k)
        psrv = cluster.servers.get(pnode)
        if psrv is not None and psrv.mn.alive:
            try:
                status = yield from client._rpc(psrv, "stripe_status", sid,
                                                response_size=128)
            except NodeFailedError:
                status = None
    delta = None
    baselined = frozenset()
    if status is not None and status["delta_addrs"][pos] is not None:
        dnode, doffset = status["delta_addrs"][pos]
        delta_base = (dnode, doffset)
        baselined = status["baselined"][pos]
        delta = yield client._post_read(dnode, doffset,
                                        cluster.config.cluster.block_size)

    obsolete = []
    for slot in range(slots):
        off = slot * slot_size
        kv_raw = data[off:off + slot_size]
        delta_raw = delta[off:off + slot_size] if delta else None
        kv_written = kv_raw[0] != 0
        delta_written = delta_raw is not None and delta_raw[0] != 0
        if not kv_written and not delta_written:
            obsolete.append(slot)  # never written: reclaimable
            continue
        # A KV pair a P re-baseline folded into parity has a zero delta.
        consistent = wv_consistent(kv_raw) and (
            delta_raw is None or wv_consistent(delta_raw)
            or (off in baselined and not delta_written)
        ) and kv_written
        if consistent:
            continue
        # Torn write: clear the delta and restore the KV slot from the
        # reclamation backup (reused blocks) or to zero (fresh blocks).
        if delta_base is not None:
            yield client._post_write(delta_base[0], delta_base[1] + off,
                                     bytes(slot_size))
        restore = bytes(slot_size)
        if info["has_backup"]:
            backup = yield from client._rpc(server, "read_backup",
                                            info["block_id"], off,
                                            slot_size, response_size=128)
            if backup is not None:
                restore = backup
        yield client._post_write(node, info["offset"] + off, restore)
        obsolete.append(slot)
    for slot in obsolete:
        client.blocks.mark_obsolete(node, info["block_id"],
                                    slot * slot_size, now=cluster.env.now)
    # Seal: stamp the Index Version and fold the delta so the block stops
    # depending on client-side state.
    try:
        yield from client._rpc(server, "seal_block", info["block_id"])
    except NodeFailedError:
        pass
    if sid >= 0 and pnode is not None:
        psrv = cluster.servers.get(pnode)
        if psrv is not None and psrv.mn.alive:
            try:
                yield from client._rpc(psrv, "fold_delta", sid, pos)
            except NodeFailedError:
                pass
    yield from client.flush_bitmaps()
