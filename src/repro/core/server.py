"""Memory-node servers: coarse-grained management (§3.1).

Each MN runs a server responsible for space allocation, index
checkpointing, and erasure coding.  One server (the *leader*, lowest
alive MN id — the paper's "leading server") additionally owns the stripe
directory and serves block-allocation RPCs; it coordinates the other
servers through server-to-server RPCs on the same fabric.

Responsibilities implemented here:

* **Allocation** — create coding stripes (parity blocks on their layout
  nodes), hand out DATA blocks plus a DELTA block on the stripe's P-parity
  MN (Fig. 6), and prefer *reused* blocks when reclamation thresholds are
  met (§3.3.3).
* **Offline erasure coding** — at seal time, fold the DELTA block into the
  P parity on the EC core, update XOR Map / Delta Addr, free the DELTA
  block, and forward the Q-parity contribution server-to-server in the
  background (§3.3.2).
* **Differential checkpointing** — the periodic snapshot → XOR → compress
  → ship → apply pipeline of §3.2.1, on real index bytes, bumping the
  Index Version each round (§3.2.3).
* **Degraded-read plans** — the P server tells clients which regions to
  read so a lost KV slot can be rebuilt with one element-wise solve
  (§3.4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..checkpoint.compress import make_compressor
from ..checkpoint.differential import (CheckpointImage,
                                       DifferentialCheckpointer, xor_bytes)
from ..cluster.master import Master
from ..cluster.node import MemoryNode
from ..config import SystemConfig
from ..ec.stripe import StripeCodec, StripeLayout
from ..errors import AllocationError, NodeFailedError
from ..memory.blocks import Role
from ..obs.trace import NULL_SPAN
from ..rdma.network import Fabric
from ..rdma.qp import rpc_call
from ..sim import Environment, Interrupt
from .blockmgr import BlockGrant

__all__ = ["AcesoServer", "StripeDirectory", "DirStripe", "StripeRecord",
           "DegradedPlan", "CONTROL_RPC_TIMEOUT"]

_CKPT_CHUNK = 16 * 1024  # checkpoint transfer chunking (NIC interleaving)
#: Server-to-server control RPCs (allocation chains, registration) queue
#: behind data-plane work under churn; give them real headroom so a grant
#: is never half-applied because its sub-RPC reply arrived late.
CONTROL_RPC_TIMEOUT = 10e-3


@dataclass
class DirStripe:
    """Leader-side view of one coding stripe."""

    stripe_id: int
    data: List[Optional[Tuple[int, int]]]      # position -> (node, block) | None
    parity: List[Tuple[int, int]]              # parity index -> (node, block)


class StripeDirectory:
    """Leader-owned stripe bookkeeping (conceptually in the leader's Meta
    Area; reconstructable from parity metadata replicas on failure)."""

    def __init__(self, k: int, m: int):
        self.k = k
        self.m = m
        self.next_stripe_id = 0
        self.stripes: Dict[int, DirStripe] = {}
        self.open_positions: List[Tuple[int, int]] = []  # (stripe, pos)
        self.block_pos: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self.reclaim_candidates: Dict[int, List[Tuple[int, int]]] = {}

    def register_stripe(self, stripe: DirStripe) -> None:
        self.stripes[stripe.stripe_id] = stripe
        for pos in range(self.k):
            self.open_positions.append((stripe.stripe_id, pos))

    def offer_reclaim(self, slot_size: int, node: int, block_id: int) -> None:
        queue = self.reclaim_candidates.setdefault(slot_size, [])
        if (node, block_id) not in queue:
            queue.append((node, block_id))

    def pop_reclaim(self, slot_size: int, node_ok) -> Optional[Tuple[int, int]]:
        queue = self.reclaim_candidates.get(slot_size, [])
        for i, (node, block_id) in enumerate(queue):
            if node_ok(node):
                queue.pop(i)
                return node, block_id
        return None


@dataclass
class StripeRecord:
    """Parity-holder-side view of a stripe (P and Q servers keep one).

    Mirrors what the paper stores in the PARITY block's metadata record:
    XOR Map (here ``sealed``), Delta Addr (here ``delta_blocks``), plus the
    data block locations recovery needs.

    ``baselined`` (P only) holds, per position, the slot offsets whose KV
    pair a parity re-baseline found landed and folded into P: their delta
    restarts at zero, so a zero delta there is not a torn write.
    """

    stripe_id: int
    parity_index: int                          # 0 = P, 1 = Q
    parity_block: int                          # local block id
    data: List[Optional[Tuple[int, int]]]
    sealed: List[bool]
    delta_blocks: List[Optional[int]] = field(default=None)  # P only
    baselined: List[FrozenSet[int]] = field(default=None)    # P only

    def __post_init__(self):
        if self.delta_blocks is None:
            self.delta_blocks = [None] * len(self.data)
        if self.baselined is None:
            self.baselined = [frozenset()] * len(self.data)


@dataclass
class DegradedPlan:
    """Read plan for rebuilding one slot region of a lost DATA block.

    All regions share the same intra-block offset/length.  The client reads
    them in parallel, folds each unsealed data region with its delta, and
    solves element-wise against parity 0.
    """

    stripe_id: int
    position: int
    length: int
    parity_region: Tuple[int, int]                       # (node, offset)
    target_delta: Optional[Tuple[int, int]]              # unsealed target
    data_regions: Dict[int, Tuple[int, int]]             # pos -> (node, off)
    delta_regions: Dict[int, Tuple[int, int]]            # unsealed others

    def regions(self) -> List[Tuple[int, int]]:
        """Every (node, offset) to read, in the order :meth:`solve` takes
        their bytes."""
        regions = [*self.data_regions.values(),
                   *self.delta_regions.values(), self.parity_region]
        if self.target_delta is not None:
            regions.append(self.target_delta)
        return regions

    def solve(self, codec: StripeCodec, raws) -> bytes:
        """The lost region's current bytes, from those of :meth:`regions`."""
        raws = iter(raws)
        data = {j: next(raws) for j in self.data_regions}
        deltas = {j: next(raws) for j in self.delta_regions}
        known = {}
        for j in range(codec.k):
            if j == self.position:
                continue
            folded = data.get(j, bytes(self.length))
            if j in deltas:
                folded = xor_bytes(folded, deltas[j])
            known[j] = folded
        target = codec.solve_one(self.position, known, next(raws))
        if self.target_delta is not None:
            target = xor_bytes(target, next(raws))
        return target


class AcesoServer:
    """The server process set of one MN."""

    def __init__(self, env: Environment, fabric: Fabric, mn: MemoryNode,
                 config: SystemConfig, layout: StripeLayout,
                 codec: StripeCodec, master: Master):
        self.env = env
        self.fabric = fabric
        self.mn = mn
        self.config = config
        self.layout = layout
        self.codec = codec
        self.master = master
        self.node_id = mn.node_id
        self.servers: Dict[int, "AcesoServer"] = {}   # filled by the store
        self.directory: Optional[StripeDirectory] = None
        self.stripes: Dict[int, StripeRecord] = {}    # parity-holder registry
        self._offered_reclaim: set = set()
        self._procs: List = []

        self.checkpointer = DifferentialCheckpointer(
            make_compressor(config.checkpoint.compression),
            mn.index_region.size
        )
        self.ckpt_rounds = 0
        self.last_delta_size = 0
        #: Untriggered Event handed out by :meth:`next_ckpt_round`; fires
        #: at the start of the next checkpoint round (chaos/test hook for
        #: deterministic crash-during-checkpoint timing).
        self._round_watch = None
        #: Observability bundle (set by the cluster); None or disabled
        #: keeps the checkpoint loop uninstrumented.
        self.obs = None

        self._register_handlers()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def leader(self) -> "AcesoServer":
        alive = sorted(i for i, s in self.servers.items() if s.mn.alive)
        if not alive:
            raise NodeFailedError(-1, "no alive MN servers")
        return self.servers[alive[0]]

    def _register_handlers(self) -> None:
        rpc = self.mn.rpc
        rpc.register("alloc_block", self.h_alloc_block)
        rpc.register("seal_block", self.h_seal_block)
        rpc.register("fold_delta", self.h_fold_delta)
        rpc.register("fold_parity", self.h_fold_parity)
        rpc.register("update_bitmaps", self.h_update_bitmaps)
        rpc.register("offer_reclaim", self.h_offer_reclaim)
        rpc.register("degraded_plan", self.h_degraded_plan)
        rpc.register("client_blocks", self.h_client_blocks)
        rpc.register("block_info", self.h_block_info)
        rpc.register("stripe_status", self.h_stripe_status)
        rpc.register("read_backup", self.h_read_backup)
        # server-to-server:
        rpc.register("_srv_alloc_parity", self.h_srv_alloc_parity)
        rpc.register("_srv_alloc_data", self.h_srv_alloc_data)
        rpc.register("_srv_register_data", self.h_srv_register_data)
        rpc.register("_srv_prepare_reuse", self.h_srv_prepare_reuse)

    def start(self) -> None:
        self.start_rpc()
        proc = self.env.process(self._checkpoint_loop(),
                                name=f"ckpt@mn{self.node_id}")
        self._procs.append(proc)

    def start_rpc(self) -> None:
        if self.mn.rpc._process is None or not self.mn.rpc._process.is_alive:
            self.mn.rpc.start()

    def stop(self) -> None:
        for proc in self._procs:
            if proc.is_alive:
                proc.interrupt("server stopped")
        self._procs.clear()

    def reset_after_crash(self) -> None:
        """Forget all volatile server state (the machine rebooted)."""
        self.stripes.clear()
        self._offered_reclaim.clear()
        self.directory = None
        self._procs.clear()
        self.checkpointer = DifferentialCheckpointer(
            self.checkpointer.compressor, self.mn.index_region.size
        )

    def _spawn(self, gen, name: str) -> None:
        """Track a background process so crash() can kill it."""
        self._procs.append(self.env.process(gen, name=name))

    def _srv_call(self, target: "AcesoServer", method: str, *args,
                  response_size: int = 64):
        """Server-to-server RPC (direct dispatch when calling self)."""
        if target is self:
            handler = self.mn.rpc.handler(method)
            outcome = handler(*args)
            if hasattr(outcome, "send"):
                outcome = yield from outcome
            return outcome
        result = yield from rpc_call(
            self.env, self.fabric, self.mn.nic, target.rpc_server,
            method, *args, response_size=response_size,
            timeout=CONTROL_RPC_TIMEOUT,
        )
        return result

    @property
    def rpc_server(self):
        return self.mn.rpc

    # ------------------------------------------------------------------
    # allocation (leader)
    # ------------------------------------------------------------------

    def h_alloc_block(self, cli_id: int, slot_size: int):
        """Leader RPC: hand a (possibly reused) DATA block to a client."""
        directory = self.directory
        if directory is None:
            raise NodeFailedError(self.node_id, "not the leader")
        slots = self.config.cluster.block_size // slot_size

        reuse = directory.pop_reclaim(slot_size, self._node_alive)
        if reuse is not None:
            grant = yield from self._grant_reused(reuse, cli_id, slot_size)
            if grant is not None:
                return grant

        position = self._find_open_position()
        if position is None:
            yield from self._create_stripe()
            position = self._find_open_position()
            if position is None:
                raise AllocationError("no placeable stripe position")
        sid, pos = position
        grant = yield from self._assign_position(sid, pos, cli_id,
                                                 slot_size, slots)
        return grant

    def _node_alive(self, node_id: int) -> bool:
        return self.fabric.is_alive(node_id) and self.servers[node_id].mn.alive

    def _find_open_position(self) -> Optional[Tuple[int, int]]:
        directory = self.directory
        for i, (sid, pos) in enumerate(directory.open_positions):
            node = self.layout.node_of(sid, pos)
            server = self.servers[node]
            if self._node_alive(node) and server.mn.blocks.free_fraction() > 0:
                directory.open_positions.pop(i)
                return sid, pos
        return None

    def _create_stripe(self):
        directory = self.directory
        sid = directory.next_stripe_id
        directory.next_stripe_id += 1
        parity: List[Tuple[int, int]] = []
        for j in range(self.codec.m):
            node = self.layout.node_of(sid, self.codec.k + j)
            if not self._node_alive(node):
                parity.append((node, -1))  # degraded: parity missing for now
                continue
            block_id = yield from self._srv_call(
                self.servers[node], "_srv_alloc_parity", sid, j
            )
            parity.append((node, block_id))
        stripe = DirStripe(stripe_id=sid, data=[None] * self.codec.k,
                           parity=parity)
        directory.register_stripe(stripe)

    def _assign_position(self, sid: int, pos: int, cli_id: int,
                         slot_size: int, slots: int):
        directory = self.directory
        node = self.layout.node_of(sid, pos)
        owner = self.servers[node]
        data_block, data_offset = yield from self._srv_call(
            owner, "_srv_alloc_data", sid, pos, cli_id, slot_size, slots
        )
        directory.stripes[sid].data[pos] = (node, data_block)
        directory.block_pos[(node, data_block)] = (sid, pos)

        grant = BlockGrant(data_node=node, data_block=data_block,
                           data_offset=data_offset, stripe_id=sid,
                           stripe_pos=pos)
        # Register the data block with both parity holders; the P holder
        # also allocates the DELTA block (Fig. 6).
        for j in range(self.codec.m):
            pnode = self.layout.node_of(sid, self.codec.k + j)
            if not self._node_alive(pnode):
                continue
            try:
                delta = yield from self._srv_call(
                    self.servers[pnode], "_srv_register_data",
                    sid, pos, node, data_block, j == 0,
                )
            except NodeFailedError:
                continue
            if j == 0 and delta is not None:
                grant.delta_node = pnode
                grant.delta_block, grant.delta_offset = delta
        return grant

    def _grant_reused(self, candidate: Tuple[int, int], cli_id: int,
                      slot_size: int):
        """Reuse path of §3.3.3: hand back a mostly-obsolete block."""
        node, block_id = candidate
        directory = self.directory
        key = (node, block_id)
        sid, pos = directory.block_pos[key]
        owner = self.servers[node]
        try:
            prep = yield from self._srv_call(
                owner, "_srv_prepare_reuse", block_id, cli_id,
                response_size=128,
            )
        except NodeFailedError:
            return None
        if prep is None:
            return None
        old_bitmap, data_offset = prep
        grant = BlockGrant(data_node=node, data_block=block_id,
                           data_offset=data_offset, stripe_id=sid,
                           stripe_pos=pos, reused=True, old_bitmap=old_bitmap)
        pnode = self.layout.node_of(sid, self.codec.k)
        if self._node_alive(pnode):
            try:
                delta = yield from self._srv_call(
                    self.servers[pnode], "_srv_register_data",
                    sid, pos, node, block_id, True,
                )
                if delta is not None:
                    grant.delta_node = pnode
                    grant.delta_block, grant.delta_offset = delta
            except NodeFailedError:
                pass
        owner._offered_reclaim.discard(block_id)
        return grant

    # ------------------------------------------------------------------
    # per-MN handlers
    # ------------------------------------------------------------------

    def h_srv_alloc_parity(self, stripe_id: int, parity_index: int):
        meta = self.mn.blocks.allocate(Role.PARITY)
        meta.stripe_id = stripe_id
        meta.xor_id = self.codec.k + parity_index
        self.stripes[stripe_id] = StripeRecord(
            stripe_id=stripe_id, parity_index=parity_index,
            parity_block=meta.block_id, data=[None] * self.codec.k,
            sealed=[False] * self.codec.k,
        )
        yield from self._replicate_meta(meta.block_id)
        return meta.block_id

    def h_srv_alloc_data(self, stripe_id: int, pos: int, cli_id: int,
                         slot_size: int, slots: int):
        meta = self.mn.blocks.allocate(Role.DATA, cli_id=cli_id,
                                       slot_size=slot_size, slots=slots)
        meta.stripe_id = stripe_id
        meta.xor_id = pos
        # Every allocation starts a new content generation: bitmap marks
        # created against any previous life of this block id must not
        # apply (same fence as reuse grants).
        meta.reuse_time = self.env.now
        yield from self._replicate_meta(meta.block_id)
        return meta.block_id, self.mn.blocks.offset_of(meta.block_id)

    def h_srv_register_data(self, stripe_id: int, pos: int, data_node: int,
                            data_block: int, is_primary: bool):
        """Record a stripe member on a parity holder; P allocates the DELTA
        block and tracks its address (Fig. 5's Delta Addr)."""
        record = self.stripes.get(stripe_id)
        if record is None:
            raise NodeFailedError(self.node_id,
                                  f"unknown stripe {stripe_id}")
        record.data[pos] = (data_node, data_block)
        record.sealed[pos] = False
        if not is_primary:
            return None
        delta_meta = self.mn.blocks.allocate(Role.DELTA)
        delta_meta.stripe_id = stripe_id
        delta_meta.xor_id = pos
        record.delta_blocks[pos] = delta_meta.block_id
        record.baselined[pos] = frozenset()
        pmeta = self.mn.blocks.meta[record.parity_block]
        while len(pmeta.delta_addrs) < self.codec.k:
            pmeta.delta_addrs.append(0)
        pmeta.delta_addrs[pos] = self.mn.blocks.address_of(
            delta_meta.block_id).pack()
        pmeta.xor_map &= ~(1 << pos)
        yield from self._replicate_meta(record.parity_block)
        return delta_meta.block_id, self.mn.blocks.offset_of(delta_meta.block_id)

    def h_srv_prepare_reuse(self, block_id: int, cli_id: int):
        """Owner-side reuse prep: back up old contents, reset bitmap & IV."""
        meta = self.mn.blocks.meta[block_id]
        if meta.role is not Role.DATA or meta.free_bitmap is None:
            return None
        old_bitmap = meta.free_bitmap.to_bytes()
        self.mn.reclaim_backups[block_id] = bytes(
            self.mn.blocks.buffer(block_id)
        )
        meta.free_bitmap.reset()
        meta.index_version = 0
        meta.alloc_gen += 1  # a reuse grant is a new write generation
        meta.cli_id = cli_id
        meta.reuse_time = self.env.now  # fences stale bitmap marks
        yield from self._replicate_meta(block_id)
        return old_bitmap, self.mn.blocks.offset_of(block_id)

    def h_seal_block(self, block_id: int):
        """Data owner: stamp the current Index Version on a filled block."""
        meta = self.mn.blocks.meta[block_id]
        if meta.role is not Role.DATA:
            raise NodeFailedError(self.node_id, f"block {block_id} not DATA")
        meta.index_version = self.mn.index.index_version
        self.mn.reclaim_backups.pop(block_id, None)
        yield from self._replicate_meta(block_id)
        return meta.index_version

    def h_fold_delta(self, stripe_id: int, pos: int,
                     expected_delta: int = -1):
        """P holder: fold the DELTA block into P, free it, forward to Q.

        ``expected_delta`` guards against a stale fold racing a reuse
        grant: a client's fold request names the DELTA block of *its*
        fill cycle; if the position has since been re-granted (a new
        DELTA block), the stale fold is a no-op and the new cycle folds
        itself later.
        """
        record = self.stripes.get(stripe_id)
        if record is None or record.parity_index != 0:
            raise NodeFailedError(self.node_id, f"not P for {stripe_id}")
        delta_block = record.delta_blocks[pos]
        if delta_block is None:
            return False  # already folded (duplicate seal RPC)
        if expected_delta >= 0 and delta_block != expected_delta:
            return False  # stale fold from a previous fill cycle
        dmeta = self.mn.blocks.meta[delta_block]
        if dmeta.role is not Role.DELTA or dmeta.stripe_id != stripe_id \
                or dmeta.xor_id != pos:
            # Stale reference (freed and re-purposed across a recovery):
            # nothing to fold.
            record.delta_blocks[pos] = None
            return False
        delta_bytes = bytes(self.mn.blocks.buffer(delta_block))
        rate = self._ec_rate()
        yield self.mn.ec_core.submit(len(delta_bytes) / rate)
        parity_buf = self.mn.blocks.buffer(record.parity_block)
        self.codec.apply_delta(parity_buf, 0, pos, delta_bytes)
        record.sealed[pos] = True
        record.delta_blocks[pos] = None
        record.baselined[pos] = frozenset()
        pmeta = self.mn.blocks.meta[record.parity_block]
        pmeta.xor_map |= 1 << pos
        if pos < len(pmeta.delta_addrs):
            pmeta.delta_addrs[pos] = 0
        self.mn.blocks.free(delta_block)
        yield from self._replicate_meta(record.parity_block)
        if self.codec.m > 1:
            self._spawn(self._forward_q(stripe_id, pos, delta_bytes),
                        name=f"qfwd@mn{self.node_id}.s{stripe_id}.{pos}")
        return True

    def folded_parity(self, stripe_id: int) -> bytes:
        """P of *stripe_id* as it would read with every live DELTA block
        folded in: a scratch copy, so P, the deltas and the XOR Map stay
        as they are and the positions stay unsealed.  It is the parity
        of the stripe's *current* data blocks, which lets a recovering
        MN decode a lost block from one parity read instead of P plus up
        to k DELTA blocks (§3.4.1)."""
        record = self.stripes[stripe_id]
        blocks = self.mn.blocks
        scratch = bytearray(blocks.buffer(record.parity_block))
        for pos, delta_block in enumerate(record.delta_blocks):
            if delta_block is not None:
                self.codec.apply_delta(scratch, 0, pos,
                                       bytes(blocks.buffer(delta_block)))
        return bytes(scratch)

    def h_fold_parity(self, stripe_id: int):
        """P holder: what :meth:`folded_parity` costs this node — one
        pass over each live DELTA block on the EC core.  Returns how many
        were folded.  Block contents travel at object level, as in every
        recovery read: the recovering MN takes the folded bytes at the
        instant it captures the data shards it decodes them against, and
        reads the scratch block once this call returns."""
        record = self.stripes.get(stripe_id)
        if record is None or record.parity_index != 0:
            raise NodeFailedError(self.node_id, f"not P for {stripe_id}")
        live = sum(1 for d in record.delta_blocks if d is not None)
        yield self.mn.ec_core.submit(
            live * self.config.cluster.block_size / self._ec_rate())
        return live

    def _forward_q(self, stripe_id: int, pos: int, delta_bytes: bytes):
        """Background: ship the Q contribution of a folded delta (§3.3.2)."""
        rate = self._ec_rate()
        yield self.mn.ec_core.submit(len(delta_bytes) / rate)
        q_delta = self.codec.parity_delta(pos, delta_bytes)[1]
        qnode = self.layout.node_of(stripe_id, self.codec.k + 1)
        if not self._node_alive(qnode):
            return
        qsrv = self.servers[qnode]

        def apply_q():
            record = qsrv.stripes.get(stripe_id)
            if record is None:
                return None
            buf = qsrv.mn.blocks.buffer(record.parity_block)
            arr = np.frombuffer(memoryview(buf), dtype=np.uint8)
            np.bitwise_xor(arr, np.frombuffer(q_delta, dtype=np.uint8),
                           out=arr)
            record.sealed[pos] = True
            return None

        try:
            # Rate-limited: offline coding is background work and must not
            # contend with client verbs for the wire (§3.3.2).
            yield self.fabric.transfer(self.mn.nic, qsrv.mn.nic,
                                       len(q_delta), execute=apply_q,
                                       duty=0.25, traffic_class="ec")
            yield qsrv.mn.ec_core.submit(len(q_delta) / rate)
        except NodeFailedError:
            return

    def _ec_rate(self) -> float:
        cpu = self.config.cluster.cpu
        return cpu.xor_rate if self.codec.name == "xor" else cpu.rs_rate

    def h_update_bitmaps(self, entries):
        """Bulk free-bitmap update from a client (§3.3.3 step 1).

        Each mark carries its creation time: marks older than the block's
        last reuse refer to the previous generation of contents and are
        dropped (their space leaks harmlessly instead of corrupting live
        slots of the new generation)."""
        touched = []
        for block_id, marks in entries:
            meta = self.mn.blocks.meta[block_id]
            if meta.role is not Role.DATA or meta.free_bitmap is None \
                    or meta.slot_size <= 0:
                continue
            for intra, marked_at in marks:
                if marked_at <= meta.reuse_time:
                    continue  # previous-generation mark
                slot = intra // meta.slot_size
                if intra % meta.slot_size:
                    continue  # not slot-aligned for this class: stale
                if 0 <= slot < meta.free_bitmap.nbits:
                    meta.free_bitmap.set(slot)
            touched.append(block_id)
        for block_id in touched:
            yield from self._replicate_meta(block_id)
        self._maybe_offer_reclaim(touched)
        return len(touched)

    def _maybe_offer_reclaim(self, block_ids) -> None:
        rec_cfg = self.config.reclamation
        free = self.mn.blocks.free_fraction()
        if free >= rec_cfg.free_space_ratio:
            return
        # Under hard pressure the obsolescence bar drops so the pool can
        # keep serving allocations (scaled-down pools hit this sooner than
        # the paper's 240 GB testbed would).
        threshold = rec_cfg.block_obsolete_ratio
        if free < 0.05:
            threshold = min(threshold, 0.25)
        for block_id in block_ids:
            meta = self.mn.blocks.meta[block_id]
            if (meta.role is Role.DATA and meta.index_version != 0
                    and block_id not in self._offered_reclaim
                    and meta.free_bitmap is not None
                    and meta.free_bitmap.obsolete_ratio() >= threshold):
                self._offered_reclaim.add(block_id)
                self._spawn(self._offer_to_leader(block_id, meta.slot_size),
                            name=f"offer@mn{self.node_id}.b{block_id}")

    def _offer_to_leader(self, block_id: int, slot_size: int):
        leader = self.leader()
        try:
            yield from self._srv_call(leader, "offer_reclaim",
                                      slot_size, self.node_id, block_id)
        except NodeFailedError:
            self._offered_reclaim.discard(block_id)

    def h_offer_reclaim(self, slot_size: int, node: int, block_id: int):
        if self.directory is not None:
            self.directory.offer_reclaim(slot_size, node, block_id)
        return True

    # ------------------------------------------------------------------
    # degraded reads & recovery queries
    # ------------------------------------------------------------------

    def h_degraded_plan(self, stripe_id: int, pos: int, intra_offset: int,
                        length: int):
        """P holder: regions needed to rebuild one slot of a lost block."""
        record = self.stripes.get(stripe_id)
        if record is None or record.parity_index != 0:
            raise NodeFailedError(self.node_id, f"no plan for {stripe_id}")
        blocks = self.mn.blocks
        parity_off = blocks.offset_of(record.parity_block) + intra_offset

        def delta_region(position: int) -> Optional[Tuple[int, int]]:
            dblk = record.delta_blocks[position]
            if dblk is None:
                return None
            return (self.node_id, blocks.offset_of(dblk) + intra_offset)

        data_regions: Dict[int, Tuple[int, int]] = {}
        delta_regions: Dict[int, Tuple[int, int]] = {}
        for j in range(self.codec.k):
            if j == pos:
                continue
            loc = record.data[j]
            if loc is not None:
                node, blk = loc
                offset = (self.servers[node].mn.blocks.offset_of(blk)
                          + intra_offset)
                data_regions[j] = (node, offset)
                if not record.sealed[j]:
                    dr = delta_region(j)
                    if dr is not None:
                        delta_regions[j] = dr
        return DegradedPlan(
            stripe_id=stripe_id, position=pos, length=length,
            parity_region=(self.node_id, parity_off),
            target_delta=None if record.sealed[pos] else delta_region(pos),
            data_regions=data_regions, delta_regions=delta_regions,
        )

    def h_block_info(self, block_id: int):
        """Stripe membership of a local block (clients use this to plan
        degraded reads after this node's meta recovery)."""
        meta = self.mn.blocks.meta[block_id]
        return {"role": int(meta.role), "stripe_id": meta.stripe_id,
                "position": meta.xor_id, "valid": meta.valid,
                "index_version": meta.index_version}

    def h_stripe_status(self, stripe_id: int):
        """Parity-holder view of one stripe (used by CN recovery and
        degraded readers to locate DELTA blocks)."""
        record = self.stripes.get(stripe_id)
        if record is None:
            return None
        blocks = self.mn.blocks
        delta_addrs = [
            None if b is None else (self.node_id, blocks.offset_of(b))
            for b in record.delta_blocks
        ]
        return {"parity_index": record.parity_index,
                "sealed": list(record.sealed),
                "data": list(record.data),
                "delta_addrs": delta_addrs,
                "baselined": list(record.baselined)}

    def h_read_backup(self, block_id: int, intra_offset: int, length: int):
        """Reclamation backup bytes (CN crash rollback, §3.4.2)."""
        backup = self.mn.reclaim_backups.get(block_id)
        if backup is None:
            return None
        return backup[intra_offset:intra_offset + length]

    def h_client_blocks(self, cli_id: int):
        """Blocks owned by a (recovering) client on this MN (§3.4.2)."""
        out = []
        for meta in self.mn.blocks.meta:
            if meta.role is Role.DATA and meta.cli_id == cli_id \
                    and meta.index_version == 0:
                out.append({
                    "block_id": meta.block_id,
                    "offset": self.mn.blocks.offset_of(meta.block_id),
                    "stripe_id": meta.stripe_id,
                    "position": meta.xor_id,
                    "slot_size": meta.slot_size,
                    "slots": meta.slots,
                    "has_backup": meta.block_id in self.mn.reclaim_backups,
                })
        return out

    # ------------------------------------------------------------------
    # meta replication
    # ------------------------------------------------------------------

    def _meta_neighbor(self) -> Optional["AcesoServer"]:
        n = len(self.servers)
        for step in range(1, n):
            node = (self.node_id + step) % n
            if node in self.servers and self._node_alive(node):
                return self.servers[node]
        return None

    def _replicate_meta(self, block_id: int):
        """Ship one metadata record to the neighbour (simple replication,
        §3.1: the Meta Area is small and infrequently modified)."""
        neighbor = self._meta_neighbor()
        if neighbor is None or neighbor is self:
            return
        meta = self.mn.blocks.meta[block_id]
        record = meta.copy()
        src = self.node_id

        def stash():
            neighbor.mn.meta_replicas.setdefault(src, {})[block_id] = record
            return None

        try:
            yield self.fabric.write(self.mn.nic, neighbor.mn.nic,
                                    self.mn.meta_record_size, execute=stash,
                                    traffic_class="meta")
        except NodeFailedError:
            pass

    # ------------------------------------------------------------------
    # differential checkpointing (§3.2.1)
    # ------------------------------------------------------------------

    def _ckpt_neighbor(self) -> Optional["AcesoServer"]:
        return self._meta_neighbor()

    def _checkpoint_loop(self):
        interval = self.config.checkpoint.interval
        while True:
            started = self.env.now
            try:
                yield from self._checkpoint_round()
            except NodeFailedError:
                pass  # neighbour died mid-round; next round picks a new one
            except Interrupt:
                raise
            elapsed = self.env.now - started
            # Intervals stretch when a round overruns (§4.5, Fig. 19).
            yield self.env.timeout(max(interval - elapsed, interval * 0.05))

    def next_ckpt_round(self):
        """Event that fires when this server's next checkpoint round
        starts shipping work (after the neighbour check, so waiters see a
        round that actually runs)."""
        if self._round_watch is None or self._round_watch.triggered:
            self._round_watch = self.env.event()
        return self._round_watch

    def _checkpoint_round(self):
        cluster = self.config.cluster
        cpu = cluster.cpu
        neighbor = self._ckpt_neighbor()
        if neighbor is None:
            return
        watch = self._round_watch
        if watch is not None and not watch.triggered:
            watch.succeed(self.env.now)
        index_size = self.mn.index_region.size
        obs = self.obs
        traced = obs is not None and obs.enabled
        sp = (obs.tracer.span("round", cat="checkpoint",
                              track=f"ckpt.mn{self.node_id}")
              if traced else NULL_SPAN)
        with sp as span:
            # 1. snapshot + 2. XOR & compress (real bytes, modelled CPU
            # time).
            yield self.mn.ckpt_send_core.submit(index_size / cpu.memcpy_rate)
            snapshot = self.mn.index_region.snapshot()
            iv = self.mn.index.index_version
            if (self.node_id not in neighbor.mn.ckpt_images
                    or self.checkpointer.rounds == 0):
                # Restart the delta chain from zero so the delta is the
                # full snapshot: either the neighbour has no image (first
                # round or it was rebuilt), or this server just restarted
                # after a crash — its fresh chain must not XOR onto a
                # stale image a surviving neighbour still holds.
                neighbor.mn.ckpt_images.pop(self.node_id, None)
                self.checkpointer = DifferentialCheckpointer(
                    self.checkpointer.compressor, index_size
                )
            delta = self.checkpointer.make_delta(snapshot, iv)
            yield self.mn.ckpt_send_core.submit(
                index_size / cpu.xor_rate + index_size / cpu.compress_rate
            )

            # 3. ship the compressed delta (+ any configured padding, used
            # by the Fig. 1b interference experiment).
            extra = getattr(self.config.checkpoint, "extra_bytes", 0)
            payload = delta.compressed_size + extra
            self.last_delta_size = delta.compressed_size
            ship_started = self.env.now
            offset = 0
            while offset < payload:
                chunk = min(_CKPT_CHUNK, payload - offset)
                yield self.fabric.write(self.mn.nic, neighbor.mn.nic, chunk,
                                        traffic_class="checkpoint")
                offset += chunk
            if traced:
                span.set(
                    raw_bytes=delta.raw_size,
                    compressed_bytes=delta.compressed_size,
                    ratio=round(delta.compression_ratio, 3),
                    ship_ms=round((self.env.now - ship_started) * 1e3, 4),
                )

            # 4. neighbour decompresses and applies.
            yield neighbor.mn.ckpt_recv_core.submit(
                delta.raw_size / cpu.decompress_rate
                + index_size / cpu.xor_rate
            )
            if not neighbor.mn.alive:
                # The neighbour died after the ship landed but before the
                # apply.  Abort the round: XOR-applying a mid-chain delta
                # onto the crashed node's (now empty) image store would
                # plant a garbage base image that a later recovery of
                # *this* node would trust.
                return
            prev = neighbor.mn.ckpt_images.get(self.node_id)
            image = self.checkpointer.apply_delta(prev, delta)
            neighbor.mn.ckpt_images[self.node_id] = image

            # 5. bump the Index Version (§3.2.3).
            self.mn.index.index_version = iv + 1
            self.ckpt_rounds += 1
