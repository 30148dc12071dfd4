"""Node containers: memory nodes (MNs) and compute nodes (CNs).

A :class:`MemoryNode` owns real memory — the Index Area (a RACE index in a
byte region with the Index Version at its tail), the Meta Area (block
metadata records, replicated to the neighbour), and the Block Area (lazily
materialised blocks) — plus the four server CPU cores the paper assigns
(§4.1: RPC serving, erasure coding, checkpoint sending, checkpoint
receiving) and an RPC server.

Address layout within one MN (one 40-bit offset space):

    [0, index_total)            Index Area
    [meta_base, block_base)     Meta Area
    [block_base, ...)           Block Area

Crashing an MN wipes all of it, including backup state it held for
neighbours (their checkpoint images and meta replicas), exactly like
losing a physical machine.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..config import SystemConfig
from ..index.race import RaceIndex
from ..memory.blocks import BlockMeta, BlockStore
from ..memory.region import MemoryRegion
from ..rdma.network import Fabric
from ..rdma.nic import RNIC
from ..rdma.qp import RpcServer
from ..sim import Environment, ThroughputServer

__all__ = ["MemoryNode", "ComputeNode", "estimate_meta_record_size"]

_PAGE = 4096


def estimate_meta_record_size(slots_per_block: int, stripe_width: int) -> int:
    """Size of one packed metadata record (for Meta-Area sizing/timing)."""
    bitmap = (slots_per_block + 7) // 8
    return 32 + bitmap + 9 + 8 * stripe_width


class MemoryNode:
    """One memory node of the pool."""

    def __init__(self, env: Environment, fabric: Fabric, node_id: int,
                 config: SystemConfig):
        self.env = env
        self.fabric = fabric
        self.node_id = node_id
        self.config = config
        cluster = config.cluster
        self.nic = fabric.register(
            RNIC(env, cluster.nic, node_id, name=f"mn{node_id}")
        )

        wide = config.ft.slot_format == "wide16"
        slot_size = 16 if wide else 8
        sub_index = cluster.index_buckets * cluster.bucket_slots * slot_size + 8
        # With a replicated index (FUSEE), each MN hosts its own primary
        # sub-index plus one backup sub-index per additional replica —
        # separate regions, as in FUSEE's layout (a key's backup slot on
        # MN h+i must not collide with MN h+i's own primary slots).
        self.num_index_views = (config.ft.replication_factor
                                if config.ft.index_mode == "replication"
                                else 1)
        index_total = sub_index * self.num_index_views
        self.index_region = MemoryRegion(index_total, name=f"mn{node_id}.index")
        self.index_views = [
            RaceIndex(self.index_region, cluster.index_buckets,
                      cluster.bucket_slots, wide=wide, base=i * sub_index)
            for i in range(self.num_index_views)
        ]
        #: The primary sub-index (the only one in Aceso mode).
        self.index = self.index_views[0]

        # Meta Area geometry (sized analytically; records live as objects
        # in the BlockStore, replicated to the neighbour on update).
        slots_per_block = cluster.block_size // cluster.kv_size
        self.meta_record_size = estimate_meta_record_size(
            slots_per_block, config.coding.k + config.coding.m
        )
        self.meta_base = _align(index_total, _PAGE)
        meta_size = _align(self.meta_record_size * cluster.blocks_per_mn, _PAGE)
        self.block_base = self.meta_base + meta_size

        self.blocks = BlockStore(cluster.blocks_per_mn, cluster.block_size,
                                 node_id, base_offset=self.block_base)

        # The four server cores of §4.1.
        self.rpc_core = ThroughputServer(env, name=f"mn{node_id}.cpu.rpc")
        self.ec_core = ThroughputServer(env, name=f"mn{node_id}.cpu.ec")
        self.ckpt_send_core = ThroughputServer(env, name=f"mn{node_id}.cpu.cksend")
        self.ckpt_recv_core = ThroughputServer(env, name=f"mn{node_id}.cpu.ckrecv")

        self.rpc = RpcServer(env, fabric, self.nic, self.rpc_core,
                             cluster.cpu.rpc_handle_time)

        # Backup state held *for neighbours* (lost if this node crashes):
        #: checkpoint images of other MNs' indexes, keyed by source node.
        self.ckpt_images: Dict[int, object] = {}
        #: replicas of other MNs' meta records: src node -> block id -> BlockMeta
        self.meta_replicas: Dict[int, Dict[int, BlockMeta]] = {}
        #: reclamation backups of data blocks handed to clients for reuse:
        #: (local) block id -> old content bytes (§3.3.3 / §3.4.2).
        self.reclaim_backups: Dict[int, bytes] = {}

        self.alive = True

    # -- liveness ----------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: lose memory, NIC, server state."""
        if not self.alive:
            return
        self.alive = False
        self.fabric.kill(self.node_id)
        self.rpc.stop()
        self.index_region.clear()
        self.blocks.crash()
        self.ckpt_images.clear()
        self.meta_replicas.clear()
        self.reclaim_backups.clear()

    def reset_for_recovery(self) -> None:
        """Bring the node back empty (a fresh server on an idle machine,
        reusing the crashed node's identity so addresses stay stable)."""
        if self.alive:
            raise RuntimeError("node is alive; nothing to recover")
        self.alive = True
        self.fabric.revive(self.node_id)

    # -- one-sided access (the execute closures of fabric verbs) -----------

    def read_bytes(self, offset: int, length: int) -> bytes:
        """Read MN memory at a node-local offset (Index or Block area).

        Reads of a block whose contents are still lost (crashed and not yet
        recovered) raise :class:`NodeFailedError`, which sends the client
        down the degraded-read path (§3.4.1).
        """
        if offset + length <= self.index_region.size:
            return self.index_region.read(offset, length)
        return self.blocks.read(offset, length)

    def write_bytes(self, offset: int, data: bytes) -> None:
        if offset + len(data) <= self.index_region.size:
            self.index_region.write(offset, data)
            return
        self.blocks.write(offset, data)

    def cas_u64(self, offset: int, expected: int, new: int):
        if offset + 8 > self.index_region.size:
            raise IndexError("CAS outside the Index Area")
        return self.index_region.cas_u64(offset, expected, new)

    def faa_u64(self, offset: int, delta: int) -> int:
        if offset + 8 > self.index_region.size:
            raise IndexError("FAA outside the Index Area")
        return self.index_region.faa_u64(offset, delta)

    # -- convenience --------------------------------------------------------

    @property
    def index_version(self) -> int:
        return self.index.index_version

    def cpu_utilisation(self, window: float) -> Dict[str, float]:
        """Per-core utilisation over *window* seconds (Table 3)."""
        return {
            "rpc": self.rpc_core.utilisation(window),
            "ec": self.ec_core.utilisation(window),
            "ckpt_send": self.ckpt_send_core.utilisation(window),
            "ckpt_recv": self.ckpt_recv_core.utilisation(window),
        }


class ComputeNode:
    """One compute node; clients on it share its NIC."""

    def __init__(self, env: Environment, fabric: Fabric, node_id: int,
                 config: SystemConfig):
        self.env = env
        self.node_id = node_id
        self.nic = fabric.register(
            RNIC(env, config.cluster.nic, node_id, name=f"cn{node_id}")
        )
        self.alive = True
        self.fabric = fabric

    def crash(self) -> None:
        if not self.alive:
            return
        self.alive = False
        self.fabric.kill(self.node_id)

    def restart(self) -> None:
        self.alive = True
        self.fabric.revive(self.node_id)


def _align(value: int, granule: int) -> int:
    return (value + granule - 1) // granule * granule
