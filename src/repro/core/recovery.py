"""Failure recovery (§3.4).

Memory-node recovery is *tiered* (§3.4.1): Meta Area (read the replica),
then Index Area (read the latest checkpoint, decode the recent blocks,
scan their KV pairs and re-apply each index slot to the KV pair with the
highest Slot Version), then Block Area (decode the remaining lost blocks,
finally re-derive parity state in the background).  Functionality returns
after the Index milestone — writes at full speed, reads degraded — which
is what minimises user disruption.

A single driver pulls every byte through the recovering node's NIC, so
that NIC is the floor: k block reads per lost or re-encoded block.  The
data flow is arranged so the NIC neither waits for a core nor carries a
byte twice — live deltas are folded into P by their holder, each block
image is walked once as it arrives, slot keys come from images already
held, and every stage keeps the next job's reads on the wire while it
finishes the current one.  DESIGN.md §5 has the byte table.

Compute-node recovery (§3.4.2) restarts a client, re-finds its unfilled
blocks via the ``CLI ID`` metadata field, checks every KV/delta pair's
write versions, rolls torn writes back (using the reclamation backup for
reused blocks) and seals the blocks so nothing leaks.
"""

from __future__ import annotations

import struct
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


@dataclass
class RecoveryReport:
    """Timing breakdown of one MN recovery (Table 2 / Figs. 16, 18, 20).

    The ``*_s`` stage fields are wall-clock and, for a recovery that ran
    its tiers once and was not held between them, partition
    ``total_time`` (:meth:`stages`); after a tier restart they describe
    the last attempt.  ``scan_kv_s`` is CPU, not wall-clock: with the
    scan running under the block reads only ``scan_tail_s`` is exposed.
    """

    node_id: int = -1
    started_at: float = 0.0
    # tier completion (absolute sim times)
    meta_done_at: float = 0.0
    index_done_at: float = 0.0
    blocks_done_at: float = 0.0
    # per-stage durations (Table 2's columns)
    read_meta_s: float = 0.0
    read_ckpt_s: float = 0.0
    recover_lblock_s: float = 0.0
    lblock_count: int = 0
    read_rblock_s: float = 0.0
    rblock_count: int = 0
    #: Scan KV: seconds of EC-core time walking ``kv_count`` records.
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
    #: Recovery-class bytes on the fabric while this recovery ran.
    recovery_bytes: int = 0
    #: Seconds the recovering node's NIC was busy while it ran.
    nic_busy_s: float = 0.0
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
        """Wall-clock stages in the order they run."""
        return [
            ("read_meta", self.read_meta_s),
            ("read_ckpt", self.read_ckpt_s),
            ("recover_lblock", self.recover_lblock_s),
            ("read_rblock", self.read_rblock_s),
            ("scan_tail", self.scan_tail_s),
            ("scrub", self.scrub_s),
            ("apply", self.apply_s),
            ("recover_old", self.recover_old_s),
            ("rebaseline", self.rebaseline_s),
        ]

    def row(self) -> Dict[str, float]:
        """Table 2's row for this recovery: its columns, then the stages
        Table 2 leaves out, then what the recovering NIC carried."""
        row = {f"{stage}_ms": seconds * 1e3
               for stage, seconds in self.stages()}
        row.update(
            lblock_count=self.lblock_count, rblock_count=self.rblock_count,
            scan_kv_ms=self.scan_kv_s * 1e3, kv_count=self.kv_count,
            old_count=self.old_count, total_ms=self.total_time * 1e3,
            recovery_bytes=self.recovery_bytes,
            nic_busy_ms=self.nic_busy_s * 1e3,
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
    """What the Index tier keeps of the block images it reads."""

    #: key -> (Slot Version, record, packed address, slot size) of the
    #: best KV pair per key homed on the lost node.
    best: Dict[bytes, tuple] = field(default_factory=dict)
    #: (owner, block id) -> {intra-block offset: record}, one entry per
    #: rescanned block (the scrub tells "rescanned, nothing there" from
    #: "not rescanned" by it).
    records: Dict[Tuple[int, int], Dict[int, object]] = \
        field(default_factory=dict)
    #: Completion of the scan CPU time submitted so far.
    cpu_done: Optional[object] = None


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

    def _alive_servers(self, excluding: int = -1):
        return [s for i, s in self.cluster.servers.items()
                if s.mn.alive and i != excluding]

    def _post_reads(self, src_nic, node: int, size: int) -> list:
        """Post a bulk READ of *size* bytes from *node* in chunks other
        traffic can interleave with; returns the chunks' events.  Only
        fabric time is charged — contents are handled at object level."""
        fabric = self.cluster.fabric
        dst = self.cluster.mns[node].nic
        return [fabric.read(src_nic, dst, min(_READ_CHUNK, size - done),
                            traffic_class="recovery")
                for done in range(0, size, _READ_CHUNK)]

    def _read_remote(self, me, node: int, size: int):
        """Bulk-read *size* bytes from *node* into the recovering server."""
        if size > 0:
            yield self.env.all_of(self._post_reads(me.mn.nic, node, size))

    def _pipelined(self, jobs, start, finish):
        """The two-stage pipeline of §3.4.1 (remark 1), for any stage that
        reads blocks and then computes on them.  ``start(job)`` posts one
        job's reads and returns ``(state, all-read event)``, or None for
        a job with nothing to do; ``finish(state)`` is the generator that
        consumes them.  The next job's reads are posted before the
        current job is waited for and finished, so the NIC always has a
        job queued."""
        pending = None
        for job in jobs:
            started = start(job)
            if started is None:
                continue
            if pending is not None:
                yield pending[1]
                yield from finish(pending[0])
            pending = started
        if pending is not None:
            yield pending[1]
            yield from finish(pending[0])

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
        busy0 = mn.nic.busy_time
        while True:
            try:
                yield from self._recover_once(node_id, report)
                break
            except NodeFailedError:
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
        report.nic_busy_s = mn.nic.busy_time - busy0
        return report

    def _recover_once(self, node_id: int, report: RecoveryReport):
        cluster = self.cluster
        mn = cluster.mns[node_id]
        server = cluster.servers[node_id]

        mn.reset_for_recovery()
        server.reset_after_crash()
        server.start_rpc()

        # Leadership repair: if the directory died with this node (or was
        # never placed on the current leader), rebuild it from parity
        # records.
        leader = cluster.leader_server()
        if leader.directory is None:
            leader.directory = rebuild_directory(cluster)

        yield from self._recover_meta(server, report)
        cluster.master.reach_milestone(node_id, MnState.META_RECOVERED)
        report.meta_done_at = self.env.now

        ckpt_iv = yield from self._recover_index(server, report)
        cluster.master.reach_milestone(node_id, MnState.INDEX_RECOVERED)
        report.index_done_at = self.env.now

        if self.hold_block_phase is not None \
                and not self.hold_block_phase.triggered:
            yield self.hold_block_phase

        yield from self._recover_blocks(server, report, ckpt_iv)
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

    def _recover_meta(self, server, report: RecoveryReport):
        cluster = self.cluster
        node_id = server.node_id
        holder = None
        for other in self._alive_servers(excluding=node_id):
            if node_id in other.mn.meta_replicas:
                holder = other
                break
        t0 = self.env.now
        if holder is not None:
            replicas = holder.mn.meta_replicas[node_id]
            total = len(replicas) * server.mn.meta_record_size
            yield from self._read_remote(server, holder.node_id, total)
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
        blocks._free = [m.block_id for m in blocks.meta
                        if m.role is Role.FREE]
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
        for other in self._alive_servers(excluding=node_id):
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
        for other in self._alive_servers(excluding=node_id):
            image = other.mn.ckpt_images.get(node_id)
            if image is not None:
                return other, image
        return None, None

    def _recover_index(self, server, report: RecoveryReport):
        cluster = self.cluster
        node_id = server.node_id
        scan_rate = cluster.config.cluster.cpu.scan_rate
        ec_core = server.mn.ec_core
        t0 = self.env.now
        holder, image = self._find_ckpt_image(node_id)
        if image is not None:
            yield from self._read_remote(server, holder.node_id,
                                         len(image.data))
            server.mn.index_region.restore(image.data)
            ckpt_iv = image.index_version
        else:
            ckpt_iv = 0  # no checkpoint: full rebuild from all blocks
        report.read_ckpt_s = self.env.now - t0

        alive_ivs = [s.mn.index.index_version
                     for s in self._alive_servers(excluding=node_id)]
        server.mn.index.index_version = max(alive_ivs + [ckpt_iv + 1])

        # Blocks whose KV pairs may postdate the checkpoint: Index Version
        # 0 (unfilled) or >= ckpt_iv - 1 (one round of cross-MN skew slack,
        # §3.2.3).
        threshold = max(ckpt_iv - 1, 1)

        def is_new(meta) -> bool:
            return meta.role is Role.DATA and (
                meta.index_version == 0 or meta.index_version >= threshold
            )

        # Allocation generations of every DATA block at rescan-set build
        # time.  Recovery takes simulated time with clients still
        # running, so a block that is FREE now can be re-granted as DATA
        # (and look perfectly live) by the time the scrub inspects it —
        # the scrub compares against this snapshot to catch that.
        data_gens: Dict[Tuple[int, int], int] = {}
        for mn_id, mn in self.cluster.mns.items():
            if mn_id != node_id and not mn.alive:
                continue
            for meta in mn.blocks.meta:
                if meta.role is Role.DATA:
                    data_gens[(mn_id, meta.block_id)] = meta.alloc_gen

        # 2c runs under 2a and 2b: every block image is walked the moment
        # it arrives (Scan KV), and the walk's CPU time goes to the EC
        # core right then, so it is spent while later blocks are still
        # on the wire.
        rescan = _Rescan()
        report.kv_count = report.rblock_count = 0  # of this attempt

        def scan(owner: int, meta, data: bytes) -> None:
            walked = self._scan_image(node_id, rescan, owner, meta, data)
            report.kv_count += walked
            rescan.cpu_done = ec_core.submit(walked / scan_rate)

        # 2a. recover new local blocks by erasure decoding (Recover LBlock).
        t1 = self.env.now
        local_new = [m for m in server.mn.blocks.meta if is_new(m)]
        yield from self._decode_and_install(server, local_new,
                                            on_block=partial(scan, node_id))
        report.recover_lblock_s = self.env.now - t1
        report.lblock_count = len(local_new)

        # 2b. read new remote blocks (Read RBlock).  Blocks on *other*
        # failed nodes (a concurrent two-MN recovery) are reconstructed
        # transiently from their stripes instead; wait for those nodes'
        # Meta milestone first so their block inventory is known.
        t2 = self.env.now

        def start_rblock(job):
            other, meta = job
            if other.mn.alive and meta.valid:
                reads = self._post_reads(server.mn.nic, other.node_id,
                                         other.mn.blocks.block_size)
                return (other, meta, None), self.env.all_of(reads)
            started = self._start_block_reads(server, meta)
            if started is None:
                return None
            return (other, meta, started[0]), started[1]

        def finish_rblock(state):
            other, meta, resolver = state
            if resolver is None:
                content = bytes(other.mn.blocks.buffer(meta.block_id))
            else:
                content = yield from self._finish_block(server, resolver,
                                                        install=False)
                if content is None:
                    return
            scan(other.node_id, meta, content)
            report.rblock_count += 1

        for other_id, other in list(cluster.servers.items()):
            if other_id == node_id:
                continue
            if not other.mn.alive and \
                    cluster.master.mn_state(other_id) == MnState.FAILED:
                yield cluster.master.milestone(other_id,
                                               MnState.META_RECOVERED)
            yield from self._pipelined(
                ((other, meta) for meta in other.mn.blocks.meta
                 if is_new(meta)),
                start_rblock, finish_rblock)
        report.read_rblock_s = self.env.now - t2

        # 2c. whatever of the scan the reads did not hide.
        t3 = self.env.now
        report.scan_kv_s = report.kv_count / scan_rate
        if rescan.cpu_done is not None:
            yield rescan.cpu_done
        report.scan_tail_s = self.env.now - t3

        # 2d. scrub restored entries dangling into rescanned blocks.
        t4 = self.env.now
        yield from self._scrub_index(server, rescan, data_gens, report)
        report.scrub_s = self.env.now - t4

        # 2e. re-apply each slot to its highest-versioned KV pair.
        t5 = self.env.now
        yield from self._apply_candidates(server, rescan, report)
        report.apply_s = self.env.now - t5
        return ckpt_iv

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

    def _scan_image(self, node_id: int, rescan: "_Rescan", owner: int,
                    meta, data: bytes) -> int:
        """Walk one rescanned block image, once, for all three of its
        users: the best (highest Slot Version) KV per key homed on the
        lost node, and every record by position for the scrub and the
        re-apply pass.  Returns the number of records walked."""
        base = self.cluster.mns[owner].blocks.offset_of(meta.block_id)
        num_mns = self.cluster.config.cluster.num_mns
        best = rescan.best
        records = rescan.records[(owner, meta.block_id)] = {}
        for off, slot_size, record in self._walk_records(data,
                                                         meta.slot_size):
            records[off] = record
            if record.invalidated:
                continue
            epoch, _ver = split_slot_version(record.slot_version)
            if epoch > _EPOCH_SANITY_BOUND:
                continue  # corrupted reconstruction survivor
            if home_of(record.key, num_mns) != node_id:
                continue
            current = best.get(record.key)
            if current is None or record.slot_version > current[0]:
                addr = GlobalAddress(owner, base + off).pack()
                best[record.key] = (record.slot_version, record, addr,
                                    slot_size)
        return len(records)

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
        block can be checked against the freshly read bytes and cleared
        when the record there no longer matches the slot's fingerprint
        and home.  Pointers into blocks outside the rescan set are
        untouched since the checkpoint and stay as restored — with one
        exception: a block that was freed (or repurposed as parity/delta
        space) holds no live record by definition, yet it escapes the
        rescan set precisely because nobody has written it since.  A
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
        node_id = server.node_id
        num_mns = self.cluster.config.cluster.num_mns
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
            if owner_mn.alive:
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
                         or fingerprint8(record.key) != atomic.fp
                         or home_of(record.key, num_mns) != node_id)
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

        Nearly all of those slots point into a block image recovery has
        just read (the bytes the scrub already trusted), and a pointer
        into a rebuilt block of the node's own is a local memory access:
        neither costs a verb.  What is left is fetched, all of it
        together: a pointer into a block of another node that was not
        rescanned is one READ; a pointer into a block of the node's own
        that the Block tier has yet to rebuild is a degraded read of that
        one slot, as a client would do it (§3.4.1: the P holder's plan,
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
        fabric = cluster.fabric
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
            (where, [fabric.read(nic, target.nic,
                                 min(length, HEADER_SIZE + 256),
                                 traffic_class="recovery")],
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
            lookups.append((where, [fabric.read(nic, mn.nic, plan.length,
                                                traffic_class="recovery")
                                    for mn, _offset in regions],
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

    def _recover_blocks(self, server, report: RecoveryReport, ckpt_iv: int):
        t0 = self.env.now
        old = [m for m in server.mn.blocks.meta
               if m.role is Role.DATA and not m.valid]
        yield from self._decode_and_install(server, old)
        report.old_count = len(old)
        report.recover_old_s = self.env.now - t0
        # Background: re-derive parity held on this node (not critical,
        # §3.4.1 — PARITY blocks recover after functionality returns).
        t1 = self.env.now
        yield from self._rebaseline_parity(server)
        report.rebaseline_s = self.env.now - t1

    def _decode_and_install(self, server, metas, on_block=None):
        """Erasure-decode lost DATA blocks; ``on_block(meta, content)``
        sees each one as it is installed.  One recovery driver, two-stage
        pipelined: the next stripe's reads are issued while the current
        one is decoded."""

        def finish(resolver):
            content = yield from self._finish_block(server, resolver)
            if content is not None and on_block is not None:
                on_block(resolver["meta"], content)

        yield from self._pipelined(
            metas, lambda meta: self._start_block_reads(server, meta),
            finish)

    def _start_block_reads(self, server, meta):
        """Issue the reads needed to rebuild one lost block — the other
        data shards and the parity a decode of what is missing needs;
        returns (resolver, all-read-event) or None when unrecoverable.

        A single erasure whose P holder is alive costs one parity read
        whatever the stripe's state: the holder folds its live DELTA
        blocks into a scratch copy of P (:meth:`_read_folded_parity`),
        which is the parity of the shards as they are *now*, so nothing
        is left to fold here.  A dead P holder or a second lost shard
        reads P and/or Q plus every live DELTA block instead."""
        cluster = self.cluster
        codec = cluster.codec
        nic = server.mn.nic
        sid, pos = meta.stripe_id, meta.xor_id
        if sid < 0:
            return None
        # Prefer the P holder's record; fall back to Q's for 2-MN failures.
        # A holder that is itself mid-recovery knows the stripe again but
        # has not re-derived its parity block yet: as good as dead.
        p_node = cluster.layout.node_of(sid, codec.k)
        records = []
        for j in range(codec.m):
            srv = cluster.servers.get(cluster.layout.node_of(sid, codec.k + j))
            record = None
            if srv is not None and srv.mn.alive:
                record = srv.stripes.get(sid)
                if record is not None and not \
                        srv.mn.blocks.meta[record.parity_block].valid:
                    record = None
            records.append(record)
        primary = records[0]
        reference = primary or (records[1] if len(records) > 1 else None)
        if reference is None:
            return None
        block_size = cluster.config.cluster.block_size
        events = []
        shards: List[Optional[bytes]] = [None] * (codec.k + codec.m)
        deltas: Dict[int, bytes] = {}
        resolver = {"meta": meta, "sid": sid, "pos": pos,
                    "reference": reference, "records": records,
                    "shards": shards, "deltas": deltas, "p_node": p_node}
        sources = []  # (position, owner, block id) of readable data shards
        for j in range(codec.k):
            loc = reference.data[j]
            if j == pos or loc is None:
                continue
            srv = cluster.servers.get(loc[0])
            if srv is not None and srv.mn.alive \
                    and srv.mn.blocks.meta[loc[1]].valid:
                sources.append((j, srv, loc[1]))
        # A single erasure decodes from P alone: with the P record and
        # every other allocated data shard at hand, Q is neither fetched
        # nor charged (`codec.reconstruct` fills it in as a second
        # erasure).  Q stays for a dead P holder or a second lost shard.
        single = primary is not None and len(sources) == sum(
            1 for j in range(codec.k)
            if j != pos and reference.data[j] is not None)
        fold = single and any(d is not None for d in primary.delta_blocks)
        if fold:
            # Asked for first, so the holder folds while the data shards
            # below are on the wire.
            psrv = cluster.servers[p_node]
            shards[codec.k] = psrv.folded_parity(sid)
            events.append(self._read_folded_parity(server, psrv, sid))
        for j, srv, block_id in sources:
            events += self._post_reads(nic, srv.node_id, block_size)
            shards[j] = bytes(srv.mn.blocks.buffer(block_id))
        if not fold:
            for parity_index, record in enumerate(records):
                if record is None or (single and parity_index > 0):
                    continue
                node = cluster.layout.node_of(sid, codec.k + parity_index)
                events += self._post_reads(nic, node, block_size)
                shards[codec.k + parity_index] = bytes(
                    cluster.servers[node].mn.blocks.buffer(
                        record.parity_block))
            if primary is not None:
                psrv = cluster.servers[p_node]
                for j, dblk in enumerate(primary.delta_blocks):
                    if dblk is not None:
                        events += self._post_reads(nic, p_node, block_size)
                        deltas[j] = bytes(psrv.mn.blocks.buffer(dblk))
        return resolver, self.env.all_of(events)

    def _read_folded_parity(self, server, psrv, sid: int):
        """Event: the P holder of stripe *sid* folded the stripe's live
        deltas into a scratch copy of P (one small RPC; its EC core pays
        the XOR passes) and that one block was read into *server*.  Fails
        with :class:`NodeFailedError` when the holder dies on the way."""
        nic = server.mn.nic

        def fold_then_read():
            yield from self._call(nic, psrv, "fold_parity", sid)
            yield self.env.all_of(self._post_reads(
                nic, psrv.node_id,
                self.cluster.config.cluster.block_size))

        return self._aside(fold_then_read(),
                           f"fold-parity(s{sid}@mn{psrv.node_id})")

    def _resolve_content(self, resolver):
        """Pure decode: reconstruct a lost block's current contents from
        the gathered shard/delta bytes (no simulated time)."""
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

    def _finish_block(self, server, resolver, install: bool = True):
        """Decode one block after its reads landed, charge CPU, and
        (optionally) install it into the recovering node's Block Area.

        With ``install=False`` the reconstructed bytes are returned only —
        used to scan blocks that live on a *different* crashed node during
        a two-MN recovery."""
        meta = resolver["meta"]
        block_size = self.cluster.config.cluster.block_size
        read_blocks = sum(1 for s in resolver["shards"] if s is not None)
        yield server.mn.ec_core.submit(
            read_blocks * block_size / server._ec_rate())
        content = self._resolve_content(resolver)
        if content is None:
            return None
        if install:
            server.mn.blocks.set_block(meta.block_id, content)
            meta.valid = True
        return content

    def _rebaseline_parity(self, server):
        """Rebuild parity blocks held on the recovered node.

        A recovered P holder lost the DELTA blocks too, so the stripe is
        re-baselined: both parities are re-encoded from the data blocks'
        *current* contents and all deltas restart from zero.  A recovered
        Q holder re-encodes from the folded states (P's baseline), which
        the surviving P holder still knows.

        Clients keep writing while parity is re-derived, so the capture
        must not straddle them: a stripe's reads (every surviving data
        block and, for a Q holder, the P holder's delta blocks) are only
        charged, and once they landed the blocks are copied at a single
        simulation instant (:meth:`_rebaseline_p`, :meth:`_rebaseline_q`).
        """
        cluster = self.cluster
        block_size = cluster.config.cluster.block_size
        nic = server.mn.nic

        def start(job):
            sid, record = job
            sources = []  # (position, data owner, block id)
            events = []
            for j, loc in enumerate(record.data):
                if loc is None:
                    continue
                srv = cluster.servers.get(loc[0])
                if srv is None or not srv.mn.alive \
                        or not srv.mn.blocks.meta[loc[1]].valid:
                    continue
                events += self._post_reads(nic, loc[0], block_size)
                sources.append((j, srv, loc[1]))
            if record.parity_index != 0:
                psrv, prec = self._p_record(sid)
                for j, _srv, _block_id in sources:
                    if prec is not None and prec.delta_blocks[j] is not None:
                        events += self._post_reads(nic, psrv.node_id,
                                                   block_size)
            return (sid, record, sources), self.env.all_of(events)

        def finish(state):
            sid, record, sources = state
            if record.parity_index == 0:
                yield from self._rebaseline_p(server, sid, record, sources)
            else:
                yield from self._rebaseline_q(server, sid, record, sources)

        yield from self._pipelined(list(server.stripes.items()), start,
                                   finish)

    def _p_record(self, sid: int):
        """(P holder's server, its record of stripe *sid*); the record is
        None when the holder is dead or does not know the stripe."""
        psrv = self.cluster.servers.get(
            self.cluster.layout.node_of(sid, self.cluster.codec.k))
        if psrv is None or not psrv.mn.alive:
            return psrv, None
        return psrv, psrv.stripes.get(sid)

    #: Grace period for fabric writes already in flight when a parity
    #: re-baseline captures its data blocks (one write latency, padded).
    _REBASE_GRACE = 10e-6

    def _rebaseline_p(self, server, sid, record, sources):
        """Recovered P holder: folded := current, deltas restart at zero.

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
        yield server.mn.ec_core.submit(
            codec.k * block_size / server._ec_rate())
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
        parity = codec.encode(datas)
        server.mn.blocks.set_block(record.parity_block, parity[0])
        server.mn.blocks.meta[record.parity_block].valid = True
        # ---- grace: drop deltas that were racing the capture ----------
        if rezero:
            yield self.env.timeout(self._REBASE_GRACE)
            for dbuf, off, slot_size in rezero:
                if any(dbuf[off:off + slot_size]):
                    dbuf[off:off + slot_size] = bytes(slot_size)
        # ---- push the matching Q to its (alive) holder ----------------
        qnode = cluster.layout.node_of(sid, codec.k + 1)
        qsrv = cluster.servers.get(qnode)
        if codec.m > 1 and qsrv is not None and qsrv.mn.alive:
            qrec = qsrv.stripes.get(sid)
            if qrec is not None:
                yield cluster.fabric.transfer(
                    server.mn.nic, qsrv.mn.nic, block_size,
                    traffic_class="recovery",
                )
                qsrv.mn.blocks.set_block(qrec.parity_block, parity[1])
                qrec.sealed = list(record.sealed)

    def _rebaseline_q(self, server, sid, record, sources):
        """Recovered Q holder: re-encode from the folded states, which the
        surviving P holder still covers (shard XOR its delta).

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
        yield server.mn.ec_core.submit(
            codec.k * block_size / server._ec_rate())
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
        # ---- grace: re-fold slots whose delta arrived late ------------
        if deltas:
            yield self.env.timeout(self._REBASE_GRACE)
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
