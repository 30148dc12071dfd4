"""Failure recovery (§3.4).

Memory-node recovery is *tiered* (§3.4.1): Meta Area (read the replica),
then Index Area (read the latest checkpoint, rebuild the recent blocks,
scan their KV pairs and re-apply each index slot to the KV pair with the
highest Slot Version), then Block Area (decode the remaining lost blocks,
finally re-derive parity state in the background).  Functionality returns
after the Index milestone — writes at full speed, reads degraded — which
is what minimises user disruption.

Every lost or re-encoded block is rebuilt at a survivor, so it crosses
the recovering node's NIC once (partial-parallel repair): each job picks
as *aggregator* the surviving holder of its stripe with the fewest
recovery bytes in flight on its NIC, the other holders' blocks go to it
by one-sided READs, its EC core decodes or encodes them, and the
recovering node reads back the one block that results.  Live deltas are
folded into P by their holder.  A lost unsealed block granted fresh is
its DELTA block's twin (P's baseline for it is zero) and is read from
the P holder as it is, with nothing decoded.  The Index tier's rescan of
the blocks written since the checkpoint runs where the bytes are: each
live holder walks its own, and each P holder the DELTA twins it holds of
the recovering node's lost blocks, on its EC core and ships only the
records homed on the recovering node (a few bytes each instead of whole
blocks), while a block of the node's own that has no twin, or of another
failed node, is walked once where it is rebuilt; the checkpoint read and
those scans run under the rebuilds.  The twins' bytes follow in one
stream beside the driver that the Index milestone does not wait for.
No node whose master state is FAILED is a source of anything:
back up before its Meta milestone, it holds only the zeros of a reboot.
Slot keys come from records already held, and every stage keeps two
jobs in flight per surviving MN — the Block tier's decodes and parity
re-baselines as one pool — so the survivors' NICs together are the
floor.  DESIGN.md §5 has the byte table.

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

__all__ = ["RecoveryReport", "MemoryNodeRecovery", "restart_client",
           "rebuild_directory"]

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


@dataclass
class RecoveryReport:
    """Timing breakdown of one MN recovery (Table 2 / Figs. 16, 18, 20).

    The ``*_s`` stage fields are wall-clock and, for a recovery that ran
    its tiers once and was not held between them, partition
    ``total_time`` (:meth:`stages`); after a tier restart they describe
    the last attempt.  The Index tier starts the checkpoint read and the
    holders' scans (Read RBlock, and the P holders' walks of the DELTA
    twins) beside Recover LBlock, so its stages are the slices between
    the moments each kind of work is done: ``recover_lblock_s`` runs to
    the last *decoded* LBlock installed (0 when every LBlock is a twin),
    ``read_rblock_s`` is the rest up to the last holder scan merged (and
    the blocks of any other failed node rebuilt), and ``read_ckpt_s``
    the rest up to the image landing.  ``lblock_count`` counts the twins
    too; ``rblock_count`` does not.  The twins' bytes are installed by a
    stream beside the driver that starts with the scrub and that only
    ``RECOVERED`` waits for: ``twins_done_at`` is when the last landed.
    ``scan_kv_s`` is CPU, not
    wall-clock, summed over the cores that walked: a holder's walk
    is part of ``read_rblock_s``, and of the recovering node's own only
    ``scan_tail_s`` is exposed.  The Block tier runs its old-block
    decodes and parity re-baselines as one job pool: ``recover_old_s``
    ends when the last old block was installed, and ``rebaseline_s`` is
    the rest of the tier, re-baselines that overlapped the decodes
    having started inside ``recover_old_s``.
    """

    node_id: int = -1
    started_at: float = 0.0
    # tier completion (absolute sim times)
    meta_done_at: float = 0.0
    index_done_at: float = 0.0
    blocks_done_at: float = 0.0
    #: When the twin stream installed its last block (0.0: no twin).
    twins_done_at: float = 0.0
    # per-stage durations (Table 2's columns)
    read_meta_s: float = 0.0
    read_ckpt_s: float = 0.0
    recover_lblock_s: float = 0.0
    lblock_count: int = 0
    read_rblock_s: float = 0.0
    rblock_count: int = 0
    #: Scan KV: seconds of EC-core time walking ``kv_count`` records, on
    #: whichever core walked (the holder's for a live holder's block).
    scan_kv_s: float = 0.0
    kv_count: int = 0
    #: Scan time still outstanding when the last block image had arrived.
    scan_tail_s: float = 0.0
    scrub_s: float = 0.0
    apply_s: float = 0.0
    recover_old_s: float = 0.0
    old_count: int = 0
    rebaseline_s: float = 0.0
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
        return [
            ("tier.meta", self.started_at, self.meta_done_at),
            ("tier.index", self.meta_done_at, self.index_done_at),
            ("tier.block", self.index_done_at, self.blocks_done_at),
        ]

    def stages(self) -> List[Tuple[str, float]]:
        """Wall-clock stages in the order they end."""
        return [
            ("read_meta", self.read_meta_s),
            ("recover_lblock", self.recover_lblock_s),
            ("read_rblock", self.read_rblock_s),
            ("read_ckpt", self.read_ckpt_s),
            ("scan_tail", self.scan_tail_s),
            ("scrub", self.scrub_s),
            ("apply", self.apply_s),
            ("recover_old", self.recover_old_s),
            ("rebaseline", self.rebaseline_s),
        ]

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
            stripe = directory.stripes.get(sid)
            if stripe is None:
                stripe = DirStripe(stripe_id=sid,
                                   data=[None] * coding.k,
                                   parity=[(-1, -1)] * coding.m)
                directory.stripes[sid] = stripe
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
class _Rescan:
    """What the Index tier keeps of the blocks it rescans."""

    #: key -> (Slot Version, record, packed address, slot size) of the
    #: best KV pair per key homed on the lost node.
    best: Dict[bytes, tuple] = field(default_factory=dict)
    #: (owner, block id) -> {intra-block offset: record}, homed records
    #: only, one entry per rescanned block (the scrub tells "rescanned,
    #: nothing homed there" from "not rescanned" by it).
    records: Dict[Tuple[int, int], Dict[int, object]] = \
        field(default_factory=dict)
    #: Completion of the scan CPU time submitted so far.
    cpu_done: Optional[object] = None


@dataclass
class _Run:
    """One attempt at recovering one MN: what its jobs charge and leave
    running."""

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
    #: and the (resolver, delivered event) of each posted one not yet
    #: installed.
    twins: list = field(default_factory=list)
    twin_reads: list = field(default_factory=list)
    #: Set when the attempt lost a dependency: its jobs still in flight
    #: change nothing from then on.
    over: bool = False


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
        #: The current attempt of each recovering MN.
        self._runs: Dict[int, _Run] = {}

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

    def _read_remote(self, run: _Run, node: int, size: int):
        """Bulk-read *size* bytes from *node* into the recovering server."""
        if size > 0:
            yield self.env.all_of(self._post_reads(run, run.node, node, size))

    def _pipelined(self, server, jobs, start, finish):
        """The pipeline of §3.4.1 (remark 1), for any stage of jobs that
        gather blocks and compute on them.  ``start(job)`` posts one job
        and returns ``(state, delivered event)``, or None for a job with
        nothing to do; ``finish(state)`` consumes what was delivered.
        Two jobs are in flight per surviving MN of the coding group: a
        job loads its aggregator's NIC with about k blocks and each other
        holder's with one, so one job per survivor keeps every survivor's
        NIC busy only while its blocks are on the wire; the second job
        gathers while the first is decoded and handed back (double
        buffering).  The next job starts as soon as any one is delivered
        — the oldest may sit behind a later job's blocks in its
        aggregator's NIC queue."""
        cluster = self.cluster
        window = 2 * max(1, sum(1 for node in cluster.layout.members
                                if node != server.node_id
                                and self._is_source(node)))
        pending: List[tuple] = []

        def finish_one():
            index, _value = yield self.env.any_of(
                [delivered for _state, delivered in pending])
            finish(pending.pop(index)[0])

        for job in jobs:
            started = start(job)
            if started is None:
                continue
            pending.append(started)
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
            try:
                yield from self._recover_once(node_id, report)
                break
            except NodeFailedError:
                self._runs[node_id].over = True
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

    def _recover_once(self, node_id: int, report: RecoveryReport):
        cluster = self.cluster
        mn = cluster.mns[node_id]
        server = cluster.servers[node_id]
        run = self._runs[node_id] = _Run(node_id, report)

        mn.reset_for_recovery()
        server.reset_after_crash()
        server.start_rpc()

        # Leadership repair: if the directory died with this node (or was
        # never placed on the current leader), rebuild it from parity
        # records.
        leader = cluster.leader_server()
        if leader.directory is None:
            leader.directory = rebuild_directory(cluster)

        yield from self._recover_meta(server, run)
        cluster.master.reach_milestone(node_id, MnState.META_RECOVERED)
        report.meta_done_at = self.env.now

        yield from self._recover_index(server, run)
        cluster.master.reach_milestone(node_id, MnState.INDEX_RECOVERED)
        report.index_done_at = self.env.now
        # Until a twin is installed its DELTA block is the only live copy
        # of the block: every one left goes on the wire ahead of the
        # Block tier, whose old blocks still have a second parity.
        while run.twins:
            self._post_twin(server, run)

        if self.hold_block_phase is not None \
                and not self.hold_block_phase.triggered:
            yield self.hold_block_phase

        yield from self._recover_blocks(server, run)
        cluster.master.reach_milestone(node_id, MnState.RECOVERED)
        report.blocks_done_at = self.env.now

        self._trace_recovery(report)
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
        obs.tracer.instant("meta_recovered", cat="recovery", track=track,
                           at=report.meta_done_at)
        obs.tracer.instant("index_recovered", cat="recovery", track=track,
                           at=report.index_done_at)
        obs.tracer.instant("recovered", cat="recovery", track=track,
                           at=report.blocks_done_at,
                           total_ms=round(report.total_time * 1e3, 4))

    # -- tier 1: Meta Area -------------------------------------------------------

    def _recover_meta(self, server, run: _Run):
        cluster = self.cluster
        node_id = server.node_id
        report = run.report
        holder = None
        for other in self._sources(excluding=node_id):
            if node_id in other.mn.meta_replicas:
                holder = other
                break
        t0 = self.env.now
        if holder is not None:
            replicas = holder.mn.meta_replicas[node_id]
            total = len(replicas) * server.mn.meta_record_size
            yield from self._read_remote(run, holder.node_id, total)
            blocks = server.mn.blocks
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
        blocks = server.mn.blocks
        blocks._free = []
        for meta in blocks.meta:
            if meta.role is Role.FREE:
                meta.valid = True  # nothing of it is lost
                blocks._free.append(meta.block_id)
        blocks._free.reverse()
        report.read_meta_s = self.env.now - t0
        report.lost_bytes = sum(
            cluster.config.cluster.block_size
            for m in server.mn.blocks.meta if m.role is not Role.FREE
        )

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
        seen = set()
        for other in self._sources(excluding=node_id):
            for sid, record in other.stripes.items():
                for pos, loc in enumerate(record.data):
                    if loc is None or loc[0] != node_id:
                        continue
                    block_id = loc[1]
                    if block_id in seen:
                        continue
                    seen.add(block_id)
                    meta = blocks.meta[block_id]
                    if meta.role is not Role.FREE:
                        continue  # already restored from the replica
                    meta.role = Role.DATA
                    meta.valid = False
                    meta.stripe_id = sid
                    meta.xor_id = pos
                    meta.index_version = 0  # unknown: scan it
                    meta.slot_size = 0      # unknown: generic scan
                    meta.slots = 0
        # Parity blocks this node held, from the rebuilt directory.
        directory = self.cluster.leader_server().directory
        k = self.cluster.codec.k
        if directory is not None:
            for sid, stripe in directory.stripes.items():
                for parity_index, loc in enumerate(stripe.parity):
                    if loc is None or loc[0] != node_id or loc[1] < 0:
                        continue
                    meta = blocks.meta[loc[1]]
                    if meta.role is not Role.FREE:
                        continue  # already restored from the replica
                    meta.role = Role.PARITY
                    meta.valid = False
                    meta.stripe_id = sid
                    meta.xor_id = k + parity_index

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
                for j in range(k):
                    addr = (meta.delta_addrs[j]
                            if j < len(meta.delta_addrs) else 0)
                    if addr:
                        ga = GlobalAddress.unpack(addr)
                        block_id, _intra = server.mn.blocks.locate(ga.offset)
                        record.delta_blocks[j] = block_id
                        # Re-claim the DELTA block id: the replica that
                        # named it may predate the crash, and leaving it
                        # FREE would let the allocator re-grant space the
                        # fill cycle's clients still write deltas into.
                        dmeta = server.mn.blocks.meta[block_id]
                        if dmeta.role is Role.FREE:
                            dmeta.role = Role.DELTA
                            dmeta.valid = False
                            dmeta.stripe_id = sid
                            dmeta.xor_id = j
            server.stripes[sid] = record

    # -- tier 2: Index Area --------------------------------------------------------

    def _find_ckpt_image(self, node_id: int):
        for other in self._sources(excluding=node_id):
            image = other.mn.ckpt_images.get(node_id)
            if image is not None:
                return other, image
        return None, None

    def _recover_index(self, server, run: _Run):
        """The Index tier.  The checkpoint image's Index Version is known
        before its bytes arrive, and it alone decides which blocks are
        rescanned, so the image read and the holders' scans (Read RBlock,
        and the P holders' walks of the DELTA twins) start at once,
        beside the driver, and Recover LBlock decodes the other lost new
        blocks under them; the image is restored once both are done,
        before the scrub.  The stages end in that order:
        ``recover_lblock_s`` runs to the last decoded LBlock installed,
        ``read_rblock_s`` is the rest up to the last holder scan merged
        (and the blocks of other failed nodes rebuilt), ``read_ckpt_s``
        the rest up to the image landing.  The twins' bytes come after,
        by the twin stream (:meth:`_stream_twins`), which starts with the
        scrub."""
        cluster = self.cluster
        node_id = server.node_id
        report = run.report
        scan_rate = cluster.config.cluster.cpu.scan_rate
        ec_core = server.mn.ec_core
        t0 = self.env.now
        holder, image = self._find_ckpt_image(node_id)
        if image is not None:
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

        # Allocation generations of every DATA block when its node's
        # rescan set is built.  Recovery takes simulated time with
        # clients still running, so a block that is FREE now can be
        # re-granted as DATA (and look perfectly live) by the time the
        # scrub inspects it — the scrub compares against this snapshot to
        # catch that.
        data_gens: Dict[Tuple[int, int], int] = {}

        def inventory(mn_id: int) -> list:
            """*mn_id*'s DATA blocks into ``data_gens``; returns its new
            ones."""
            new = []
            for meta in cluster.mns[mn_id].blocks.meta:
                if meta.role is Role.DATA:
                    data_gens[(mn_id, meta.block_id)] = meta.alloc_gen
                    if is_new(meta):
                        new.append(meta)
            return new

        # Scan KV runs under the reads: every block image is walked the
        # moment it is at hand, and the walk's CPU time goes to the
        # walking node's EC core right then, so it is spent while later
        # blocks are still on the wire.
        rescan = _Rescan()
        report.kv_count = report.rblock_count = 0  # of this attempt
        report.twins_done_at = 0.0

        def scan(owner: int, meta, data: bytes) -> None:
            walked, homed = self._homed_records(node_id, data,
                                                meta.slot_size)
            self._merge(rescan, owner, meta.block_id, homed)
            report.kv_count += walked
            rescan.cpu_done = ec_core.submit(walked / scan_rate)

        def install_and_scan(resolver):
            content = self._install(server, resolver)
            if content is not None:
                scan(node_id, resolver["meta"], content)

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

        # Read RBlock: each source walks its own new, valid blocks at once,
        # and the DELTA twins it holds of this node's lost blocks, and
        # ships only the records homed on this node.  New blocks of a
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
                    self._scan_at_holder(run, rescan, other, entries),
                    f"rblock-scan@mn{other.node_id}"))
            return [meta for meta in new if not meta.valid]

        def start_rblock(job):
            owner, meta = job
            started = self._start_block_reads(server, meta)
            if started is None:
                return None
            return (owner, started[0]), started[1]

        def finish_rblock(state):
            owner, resolver = state  # rebuilt, not installed
            content = self._resolve_content(resolver)
            if content is not None:
                scan(owner, resolver["meta"], content)
                report.rblock_count += 1

        others = [srv for i, srv in cluster.servers.items() if i != node_id]
        rebuilds = {other.node_id: split(other) for other in others
                    if self._is_source(other.node_id)}

        # Recover LBlock: decode the new local blocks without a twin.
        yield from self._pipelined(
            server, decoded, partial(self._start_block_reads, server),
            install_and_scan)
        t1 = self.env.now
        report.recover_lblock_s = t1 - t0
        report.lblock_count = len(local_new)

        for other in others:
            other_id = other.node_id
            if other_id not in rebuilds:
                yield cluster.master.milestone(other_id,
                                               MnState.META_RECOVERED)
                rebuilds[other_id] = split(other)
            yield from self._pipelined(
                server, ((other_id, meta) for meta in rebuilds[other_id]),
                start_rblock, finish_rblock)
        yield self.env.all_of(scans)
        t2 = self.env.now
        report.read_rblock_s = t2 - t1

        # Read Checkpoint: whatever of the image read is left.
        if ckpt_read is not None:
            yield ckpt_read
            server.mn.index_region.restore(image.data)
        alive_ivs = [s.mn.index.index_version
                     for s in self._sources(excluding=node_id)]
        server.mn.index.index_version = max(alive_ivs + [ckpt_iv + 1])
        t3 = self.env.now
        report.read_ckpt_s = t3 - t2

        # Scan KV: whatever of the walks the reads did not hide.
        report.scan_kv_s = report.kv_count / scan_rate
        if rescan.cpu_done is not None:
            yield rescan.cpu_done
        t4 = self.env.now
        report.scan_tail_s = t4 - t3
        if run.twins:
            run.tails.append(self._aside(self._stream_twins(server, run),
                                         f"twins@mn{node_id}"))

        # Scrub restored entries dangling into rescanned blocks.
        yield from self._scrub_index(server, rescan, data_gens, report)
        t5 = self.env.now
        report.scrub_s = t5 - t4

        # Re-apply each slot to its highest-versioned KV pair.
        yield from self._apply_candidates(server, rescan, report)
        report.apply_s = self.env.now - t5

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

    def _merge(self, rescan: "_Rescan", owner: int, block_id: int,
               homed: list) -> None:
        """Take one rescanned block's homed records into *rescan*: by
        position for the scrub and the re-apply pass, and as the best
        (highest Slot Version) KV pair of their key."""
        base = self.cluster.mns[owner].blocks.offset_of(block_id)
        best = rescan.best
        records = rescan.records[(owner, block_id)] = {}
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

    def _scan_at_holder(self, run: _Run, rescan: "_Rescan", holder,
                        entries):
        """The Index tier's walk at one live *holder*, run beside the
        driver.  *entries* are (owner, block id, bytes, slot size): the
        holder's own new blocks (Read RBlock), and the DELTA twins it
        holds of the recovering node's lost blocks, whose records are
        merged under the lost block's own address (owner, block id).  The
        holder walks the bytes as they are now, on its EC core, and keeps
        the records homed on the recovering node; the recovering node
        reads those entries (per block its id and entry count, per record
        its offset, slot size, Slot Version and key), and only once they
        landed are they merged into *rescan*.  Fails with
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
            self._merge(rescan, owner, block_id, homed)
        run.report.kv_count += walked
        run.report.rblock_count += sum(owner != run.node
                                       for owner, _block, _homed in scanned)

    def _scrub_index(self, server, rescan: "_Rescan", data_gens,
                     report: RecoveryReport):
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
        nobody has written it since.  A
        restored pointer into such a block is stale, and if left in
        place it would silently go corrupt the moment the allocator
        hands the space to a new writer — so those slots are cleared
        here too, from block metadata alone.  The block's *current* role
        is not enough to detect this: recovery takes simulated time with
        clients still running, so a freed block can already have been
        re-granted as DATA (but not rewritten) by the time this check
        runs.  The staleness test therefore also compares the block's
        allocation generation against the ``data_gens`` snapshot taken
        when the rescan set was built — any grant since then (fresh or
        reuse) makes every restored pointer into the block stale.
        """
        index = server.mn.index
        checked = 0
        for bucket, slot, word in index.iter_slots():
            atomic = AtomicField.unpack(word)
            if atomic.empty:
                continue
            checked += 1
            ga = GlobalAddress.unpack(atomic.addr)
            owner_mn = self.cluster.mns.get(ga.node_id)
            if owner_mn is None:
                continue
            try:
                block_id, intra = owner_mn.blocks.locate(ga.offset)
            except IndexError:
                block_id = None  # outside any block area
            stale = False
            if self._is_source(ga.node_id):
                bmeta = None if block_id is None \
                    else owner_mn.blocks.meta[block_id]
                stale = (bmeta is None or bmeta.role is not Role.DATA
                         or data_gens.get((ga.node_id, block_id))
                         != bmeta.alloc_gen)
            if not stale:
                records = rescan.records.get((ga.node_id, block_id))
                if records is None:
                    continue  # not rescanned: as restored
                record = records.get(intra)
                stale = (record is None or record.invalidated
                         or fingerprint8(record.key) != atomic.fp)
            if stale:
                index.write_atomic(bucket, slot,
                                   AtomicField(fp=0, ver=0, addr=0))
                index.write_meta(bucket, slot, MetaField(0, 0))
                report.scrubbed_slots += 1
        if checked:
            yield server.mn.ec_core.submit(
                checked / self.cluster.config.cluster.cpu.scan_rate)

    def _apply_candidates(self, server, rescan: "_Rescan",
                          report: RecoveryReport):
        """Point each index slot at the KV pair with the highest version.

        Fingerprints collide, so before a candidate takes a slot of its
        fingerprint over, the key that slot stands for is compared.  All
        those keys are resolved up front (:meth:`_slot_keys`); slots this
        pass writes are added as it goes, so a later candidate of the
        same fingerprint and bucket pair sees the earlier one."""
        index = server.mn.index
        candidates = rescan.best
        slot_keys = yield from self._slot_keys(server, rescan)
        for key, (version, record, addr, slot_size) in candidates.items():
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
            report.applied_slots += 1

    def _slot_keys(self, server, rescan: "_Rescan"):
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
        cluster = self.cluster
        index = server.mn.index
        keys: Dict[Tuple[int, int], Optional[bytes]] = {}
        remote = []  # (bucket, slot), target MN, offset, length
        lost = []    # (bucket, slot), own block's meta, intra offset, length
        for key in rescan.best:
            fp = fingerprint8(key)
            for bucket in index.candidate_buckets(key):
                for slot in range(index.bucket_slots):
                    atomic = index.read_atomic(bucket, slot)
                    if atomic.empty or atomic.fp != fp \
                            or (bucket, slot) in keys:
                        continue
                    keys[(bucket, slot)] = None
                    ga = GlobalAddress.unpack(atomic.addr)
                    target = cluster.mns.get(ga.node_id)
                    if target is None:
                        continue
                    try:
                        block_id, intra = target.blocks.locate(ga.offset)
                    except IndexError:
                        continue
                    held = rescan.records.get((ga.node_id, block_id))
                    if held is not None:
                        record = held.get(intra)
                        keys[(bucket, slot)] = record.key if record else None
                        continue
                    length = max(index.read_meta(bucket, slot).len_units,
                                 1) * 64
                    if target is not server.mn:
                        remote.append(((bucket, slot), target, ga.offset,
                                       length))
                    elif target.blocks.meta[block_id].valid:
                        keys[(bucket, slot)] = self._key_at(
                            target, ga.offset, length)
                    else:
                        lost.append(((bucket, slot),
                                     target.blocks.meta[block_id], intra,
                                     length))
        keys.update((yield from self._fetch_slot_keys(server, remote, lost)))
        return keys

    def _fetch_slot_keys(self, server, remote, lost):
        """The slot keys that cost verbs: *remote* records are one READ
        each, slots of *lost* blocks of the node's own a degraded read
        each.  Every plan is asked for before the first is waited for,
        and likewise every read.  A read that fails leaves its slot
        out."""
        cluster = self.cluster
        run = self._runs[server.node_id]
        nic = server.mn.nic
        asked = [
            (where, self._aside(self._call(
                nic, psrv, "degraded_plan", meta.stripe_id, meta.xor_id,
                intra, length, response_size=256),
                f"slot-plan(s{meta.stripe_id}@mn{psrv.node_id})"))
            for where, meta, intra, length in lost
            for psrv, prec in [self._p_record(meta.stripe_id)]
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
        stay busy across the seam.  ``recover_old_s`` ends when the last
        old block was installed; ``rebaseline_s`` is the rest — the
        re-baselines still in flight then and the grace periods and Q
        pushes they left running beside the driver, and the twins still
        on the wire (:meth:`_stream_twins`), which are no old blocks."""
        report = run.report
        t0 = self.env.now
        streamed = {resolver["meta"].block_id
                    for resolver, _delivered in run.twin_reads}
        old = [m for m in server.mn.blocks.meta
               if m.role is Role.DATA and not m.valid
               and m.block_id not in streamed]
        report.old_count = len(old)
        report.recover_old_s = 0.0

        def jobs():
            for meta in old:
                yield self._start_block_reads, meta
            for stripe in list(server.stripes.items()):
                yield self._start_rebaseline, stripe

        def finish(resolver):
            if resolver is None:  # a re-baseline installed at its capture
                return
            self._install(server, resolver)
            report.recover_old_s = self.env.now - t0

        yield from self._pipelined(server, jobs(),
                                   lambda job: job[0](server, job[1]),
                                   finish)
        yield self.env.all_of(run.tails)
        report.rebaseline_s = self.env.now - t0 - report.recover_old_s

    def _install(self, server, resolver) -> Optional[bytes]:
        """Decode one gathered lost DATA block into the recovering node's
        Block Area; returns its contents, or None when the survivors'
        shards could not rebuild it."""
        content = self._resolve_content(resolver)
        if content is not None:
            meta = resolver["meta"]
            server.mn.blocks.set_block(meta.block_id, content)
            meta.valid = True
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

    def _start_block_reads(self, server, meta):
        """Start the rebuild of one lost block; returns (resolver,
        delivered event) or None when unrecoverable.

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
        cluster = self.cluster
        codec = cluster.codec
        run = self._runs[server.node_id]
        sid, pos = meta.stripe_id, meta.xor_id
        if sid < 0:
            return None
        twin = self._twin_of(meta)
        if twin is not None:
            return self._start_twin(run, meta, *twin)
        psrv = self._p_record(sid)[0]
        # Prefer the P holder's record; fall back to Q's for 2-MN failures.
        # A holder that is itself mid-recovery knows the stripe again but
        # has not re-derived its parity block yet: as good as dead.
        p_node = cluster.layout.node_of(sid, codec.k)
        records = []
        for j in range(codec.m):
            srv = cluster.servers.get(cluster.layout.node_of(sid, codec.k + j))
            record = None
            if srv is not None and self._is_source(srv.node_id):
                record = srv.stripes.get(sid)
                if record is not None and not \
                        srv.mn.blocks.meta[record.parity_block].valid:
                    record = None
            records.append(record)
        primary = records[0]
        reference = primary or (records[1] if len(records) > 1 else None)
        if reference is None:
            return None
        shards: List[Optional[bytes]] = [None] * (codec.k + codec.m)
        deltas: Dict[int, bytes] = {}
        holders = []  # the server of each block to gather, one per block
        for j in range(codec.k):
            loc = reference.data[j]
            if j == pos or loc is None:
                continue
            srv = self._data_source(loc)
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
                srv = cluster.servers[
                    cluster.layout.node_of(sid, codec.k + parity_index)]
                shards[codec.k + parity_index] = bytes(
                    srv.mn.blocks.buffer(record.parity_block))
                holders.append(srv)
            if primary is not None:
                for j, dblk in enumerate(primary.delta_blocks):
                    if dblk is not None:
                        deltas[j] = bytes(psrv.mn.blocks.buffer(dblk))
                        holders.append(psrv)
        agg = self._aggregator(run, holders + [psrv] * fold)
        block_size = cluster.config.cluster.block_size
        gathered = [self._aside(self._fold_parity(run, agg, psrv, sid),
                                f"fold-parity(s{sid}@mn{p_node})")] \
            if fold else []
        for srv in holders:
            if srv is not agg:
                gathered += self._post_reads(run, agg.node_id, srv.node_id,
                                             block_size)
        resolver = {"meta": meta, "sid": sid, "pos": pos, "agg": agg.node_id,
                    "reference": reference, "shards": shards,
                    "deltas": deltas}
        return resolver, self._aside(
            self._deliver(run, agg, gathered,
                          sum(s is not None for s in shards)),
            f"rebuild(s{sid}.{pos}@mn{agg.node_id})")

    def _twin_of(self, meta):
        """(P holder's server, its record) when lost DATA block *meta* is
        its DELTA block's twin — its P holder is a source, says the
        position was granted fresh (:attr:`StripeRecord.fresh`) and has a
        live DELTA block for it — else None."""
        if meta.stripe_id < 0:
            return None
        psrv, prec = self._p_record(meta.stripe_id)
        pos = meta.xor_id
        if prec is None or not prec.fresh[pos] \
                or prec.delta_blocks[pos] is None:
            return None
        return psrv, prec

    def _post_twin(self, server, run: _Run) -> None:
        """Post the next twin of ``run.twins`` onto ``run.twin_reads``.
        It goes through :meth:`_start_block_reads`, which re-checks the
        twin rule now: a block no longer fresh is decoded instead."""
        self._needs(run)
        started = self._start_block_reads(server, run.twins.pop(0))
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
        report = run.report
        reads = run.twin_reads
        while run.twins or reads:
            if not reads:
                self._post_twin(server, run)
                continue
            index, _value = yield env.any_of(
                [delivered for _resolver, delivered in reads])
            self._install(server, reads.pop(index)[0])
            report.twins_done_at = env.now

    def _start_twin(self, run: _Run, meta, psrv, prec):
        """Rebuild lost DATA block *meta* from its DELTA twin: with P's
        baseline zero for the position, the DELTA block holds the data
        block's current bytes, so one block-sized read from the P holder
        into the recovering node rebuilds it — no shard gathered, no fold,
        no decode.  Contents are captured now, like a decode's shards;
        returns (resolver, delivered event), the resolver keyed as a
        decode's with nothing gathered."""
        codec = self.cluster.codec
        sid, pos = meta.stripe_id, meta.xor_id
        content = bytes(psrv.mn.blocks.buffer(prec.delta_blocks[pos]))
        reads = self._post_reads(run, run.node, psrv.node_id,
                                 self.cluster.config.cluster.block_size)
        resolver = {"meta": meta, "sid": sid, "pos": pos,
                    "agg": psrv.node_id, "reference": prec,
                    "shards": [None] * (codec.k + codec.m), "deltas": {},
                    "twin": content}
        return resolver, self._aside(self._await_reads(run, psrv, reads),
                                     f"twin(s{sid}.{pos}@mn{psrv.node_id})")

    def _await_reads(self, run: _Run, srv, reads):
        """Wait for *reads* from *srv*, then check the job still counts."""
        yield self.env.all_of(reads)
        self._needs(run, srv)

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
        yield self.env.all_of(self._post_reads(
            run, agg.node_id, psrv.node_id,
            self.cluster.config.cluster.block_size))

    def _resolve_content(self, resolver):
        """Pure decode: reconstruct a lost block's current contents from
        the gathered shard/delta bytes (no simulated time); a twin's
        contents are its DELTA block's."""
        if "twin" in resolver:
            return resolver["twin"]
        codec = self.cluster.codec
        pos = resolver["pos"]
        shards = resolver["shards"]
        deltas = resolver["deltas"]
        block_size = self.cluster.config.cluster.block_size
        # Fold unsealed shards to their last-encoded state.
        folded = list(shards)
        for j in range(codec.k):
            if j == pos or folded[j] is None:
                continue
            if j in deltas:
                folded[j] = xor_bytes(folded[j], deltas[j])
        # Positions never allocated contribute zero blocks.
        reference = resolver["reference"]
        for j in range(codec.k):
            if j != pos and folded[j] is None and reference.data[j] is None:
                folded[j] = bytes(block_size)
        try:
            recon = codec.reconstruct(folded)
        except Exception:
            return None  # unrecoverable with surviving shards
        content = recon[pos]
        if pos in deltas:
            content = xor_bytes(content, deltas[pos])
        return content

    def _start_rebaseline(self, server, stripe):
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
        instant (:meth:`_rebaseline_p`, :meth:`_rebaseline_q`).  Grace
        periods and Q pushes run beside the driver, on ``run.tails``."""
        cluster = self.cluster
        run = self._runs[server.node_id]
        sid, record = stripe
        sources = []  # (position, data owner, block id)
        for j, loc in enumerate(record.data):
            srv = self._data_source(loc)
            if srv is not None:
                sources.append((j, srv, loc[1]))
        holders = [srv for _j, srv, _block_id in sources]
        if record.parity_index == 0:
            capture = self._rebaseline_p
            qsrv = self._q_holder(sid)
            candidates = holders + ([qsrv] if qsrv else [])
        else:
            capture = self._rebaseline_q
            psrv, prec = self._p_record(sid)
            holders += [psrv for j, _srv, _block_id in sources
                        if prec is not None
                        and prec.delta_blocks[j] is not None]
            candidates = holders
        agg = self._aggregator(run, candidates) if candidates else server
        block_size = cluster.config.cluster.block_size
        gathered = [read for srv in holders if srv is not agg
                    for read in self._post_reads(
                        run, agg.node_id, srv.node_id, block_size)]
        return None, self._aside(
            self._deliver(run, agg, gathered, cluster.codec.k,
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

    def _p_record(self, sid: int):
        """(P holder's server, its record of stripe *sid*); the record is
        None when the holder is no source or does not know the stripe."""
        psrv = self.cluster.servers.get(
            self.cluster.layout.node_of(sid, self.cluster.codec.k))
        if psrv is None or not self._is_source(psrv.node_id):
            return psrv, None
        return psrv, psrv.stripes.get(sid)

    def _q_holder(self, sid: int):
        """The server a re-baselined P stripe's Q goes to: its Q holder
        when alive and knowing the stripe, else None."""
        cluster = self.cluster
        if cluster.codec.m < 2:
            return None
        qsrv = cluster.servers.get(
            cluster.layout.node_of(sid, cluster.codec.k + 1))
        if qsrv is None or not self._is_source(qsrv.node_id) \
                or sid not in qsrv.stripes:
            return None
        return qsrv

    #: Grace period for fabric writes already in flight when a parity
    #: re-baseline captures its data blocks (one write latency, padded).
    _REBASE_GRACE = 10e-6

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
        self._needs(run, agg, *(srv for _j, srv, _block_id in sources))
        # ---- single-instant capture: datas, parity, delta reset -------
        datas = [bytes(block_size)] * codec.k
        rezero: List[Tuple[object, int, int]] = []  # (delta buf, off, size)
        for j, srv, block_id in sources:
            data_now = bytes(srv.mn.blocks.buffer(block_id))
            datas[j] = data_now
            dblk = record.delta_blocks[j]
            if dblk is None:
                continue
            dbuf = server.mn.blocks.buffer(dblk)
            # Re-claimed by _rebuild_parity_records with valid = False;
            # its bytes become defined here, so readers may use it again.
            server.mn.blocks.meta[dblk].valid = True
            slot_size = srv.mn.blocks.meta[block_id].slot_size
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
        qsrv = self._q_holder(sid)
        if qsrv is None:
            return False
        qsealed = qsrv.stripes[sid].sealed
        return all(sealed[j] and qsealed[j]
                   for j, loc in enumerate(record.data) if loc is not None)

    def _push_q(self, run: _Run, agg, sid: int, q: bytes, record):
        """Install the Q matching a re-baselined P at its holder: pushed
        from the aggregator, or a local copy when that is the holder.  A
        push whose aggregator died on the way installs nothing.  A Q that
        is already current is not pushed at all (:meth:`_q_is_current`)."""
        qsrv = self._q_holder(sid)
        if qsrv is None:
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
        cluster = self.cluster
        codec = cluster.codec
        block_size = cluster.config.cluster.block_size
        psrv, prec = self._p_record(sid)
        self._needs(run, agg, *(srv for _j, srv, _block_id in sources))
        # ---- single-instant capture of shards and deltas --------------
        datas = [bytes(block_size)] * codec.k
        shards: Dict[int, bytes] = {}
        deltas: Dict[int, Tuple[object, bytes, int]] = {}
        for j, srv, block_id in sources:
            shard = bytes(srv.mn.blocks.buffer(block_id))
            shards[j] = shard
            datas[j] = shard
            if prec is None:
                continue
            dblk = prec.delta_blocks[j]
            if dblk is None:
                continue
            dbytes = bytes(psrv.mn.blocks.buffer(dblk))
            slot_size = srv.mn.blocks.meta[block_id].slot_size
            deltas[j] = (psrv.mn.blocks.buffer(dblk), dbytes, slot_size)
            datas[j] = xor_bytes(shard, dbytes)

        def settle():
            # ---- grace: re-fold slots whose delta arrived late --------
            if deltas:
                yield self.env.timeout(self._REBASE_GRACE)
                self._needs(run)
            for j, (dbuf, dbytes, slot_size) in deltas.items():
                if not slot_size:
                    continue
                now = bytes(dbuf)
                if now == dbytes:
                    continue
                shard = shards[j]
                srv_blk = next(((s, b) for p, s, b in sources if p == j),
                               None)
                folded = bytearray(datas[j])
                for off in range(0, len(now), slot_size):
                    if now[off:off + slot_size] == dbytes[off:off + slot_size]:
                        continue
                    if srv_blk is not None:
                        cur_shard = bytes(
                            srv_blk[0].mn.blocks.buffer(srv_blk[1])
                        )[off:off + slot_size]
                        if cur_shard != shard[off:off + slot_size]:
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
