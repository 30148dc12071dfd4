"""Top-level cluster objects.

:class:`ClusterBase` builds the common substrate — simulation environment,
fabric, memory/compute nodes, master — and :class:`AcesoCluster` wires the
full Aceso system on top of it: one server per MN (checkpointing, erasure
coding, reclamation), the stripe directory on the leader, and one client
per (CN, slot).  The FUSEE baseline subclasses the same substrate in
:mod:`repro.baselines.fusee`.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional

from ..cluster.master import Master, MnState
from ..cluster.node import ComputeNode, MemoryNode
from ..config import SystemConfig
from ..ec.stripe import StripeLayout, make_codec
from ..errors import ConfigError
from ..memory.blocks import Role
from ..obs import Observability
from ..obs import flight
from ..rdma.network import Fabric
from ..sim import Environment, StatsRegistry
from .api import AcesoClient
from .server import AcesoServer, StripeDirectory

__all__ = ["ClusterBase", "AcesoCluster", "MemoryDistribution"]


class MemoryDistribution:
    """Fig. 12's accounting: where the Block-Area bytes went."""

    def __init__(self, valid: int, obsolete: int, redundancy: int,
                 delta: int, unused_in_open_blocks: int):
        self.valid = valid
        self.obsolete = obsolete
        self.redundancy = redundancy
        self.delta = delta
        self.unused_in_open_blocks = unused_in_open_blocks

    @property
    def total(self) -> int:
        return (self.valid + self.obsolete + self.redundancy + self.delta
                + self.unused_in_open_blocks)

    def as_dict(self) -> Dict[str, int]:
        return {
            "valid": self.valid,
            "obsolete": self.obsolete,
            "redundancy": self.redundancy,
            "delta": self.delta,
            "unused": self.unused_in_open_blocks,
            "total": self.total,
        }


class ClusterBase:
    """Substrate shared by Aceso and the baselines."""

    def __init__(self, config: SystemConfig, env: Optional[Environment] = None,
                 obs: Optional[Observability] = None):
        config.validate()
        self.config = config
        self.env = env if env is not None else Environment()
        self.fabric = Fabric(self.env)
        self.master = Master(self.env)
        self.stats = StatsRegistry()
        self.stats.bind_clock(self.env)
        #: Observability bundle; a disabled default keeps every
        #: instrumented hot path at one attribute check.
        self.obs = obs if obs is not None else Observability()
        cluster = config.cluster

        self.mns: Dict[int, MemoryNode] = {}
        for i in range(cluster.num_mns):
            self.mns[i] = MemoryNode(self.env, self.fabric, i, config)
            self.master.register_mn(i)

        self.cns: Dict[int, ComputeNode] = {}
        for j in range(cluster.num_cns):
            node_id = cluster.num_mns + j
            self.cns[node_id] = ComputeNode(self.env, self.fabric, node_id,
                                            config)

        self.clients: List = []
        self._started = False
        self.obs.attach_cluster(self)

    # -- running -----------------------------------------------------------

    def run(self, until: float) -> None:
        self.env.run(until=until)
        failures = self.env.unexpected_failures()
        if failures:
            proc = failures[0]
            flight.dump_on_failure("engine-failure", context={
                "first": proc.name, "error": repr(proc.value),
                "failed": len(failures),
            })
            raise AssertionError(
                f"{len(failures)} simulation process(es) failed; first: "
                f"{proc.name}: {proc.value!r}"
            ) from proc.value

    def run_op(self, generator) -> object:
        """Drive one client operation to completion (test convenience).

        Exceptions propagate to the caller and are *not* recorded as
        unexpected process failures — the caller observed them.
        """
        proc = self.env.process(generator)
        try:
            return self.env.run_until_event(proc)
        finally:
            if proc in self.env.failed:
                self.env.failed.remove(proc)

    # -- failure injection hooks --------------------------------------------

    def _mark_fault(self, kind: str, node_id: int) -> None:
        flight.note(self.env.now, f"fault.{kind}{node_id}")
        obs = self.obs
        if obs is not None and obs.enabled:
            obs.tracer.instant(f"crash.{kind}{node_id}", cat="fault",
                               track="faults", kind=kind, node=node_id)

    def crash_cn(self, node_id: int) -> None:
        self._mark_fault("cn", node_id)
        cn = self.cns[node_id]
        cn.crash()
        for client in self.clients:
            if client.cn is cn:
                client.stop()
        self.master.report_cn_failure(node_id)

    def rejoin_cn(self, node_id: int):
        """Bring a crashed CN back and restart its dead clients on it
        (delayed rejoin of a transient failure).  Returns the list of
        ``(new_client, recovery_proc)`` pairs."""
        cn = self.cns[node_id]
        if not cn.alive:
            cn.restart()
        alive_ids = {c.cli_id for c in self.clients if c.alive}
        out = []
        for client in list(self.clients):
            if client.cn is cn and not client.alive \
                    and client.cli_id not in alive_ids:
                out.append(self.restart_client(client, cn=cn))
                alive_ids.add(client.cli_id)
        return out


class AcesoCluster(ClusterBase):
    """The full Aceso system on simulated disaggregated memory."""

    def __init__(self, config: Optional[SystemConfig] = None,
                 env: Optional[Environment] = None,
                 obs: Optional[Observability] = None):
        if config is None:
            from ..config import aceso_config
            config = aceso_config()
        if config.ft.kv_scheme != "ec" or config.ft.index_mode != "checkpoint":
            raise ConfigError(
                "AcesoCluster requires kv_scheme='ec' and "
                "index_mode='checkpoint'; use FuseeCluster for replication"
            )
        super().__init__(config, env, obs)
        coding = config.coding
        if config.cluster.num_mns != coding.group_size:
            raise ConfigError(
                "this reproduction models a single coding group: "
                "num_mns must equal coding.group_size"
            )
        self.layout = StripeLayout(list(range(coding.group_size)),
                                   coding.k, coding.m)
        self.codec = make_codec(coding.codec, coding.k,
                                config.cluster.block_size, coding.m)

        self.servers: Dict[int, AcesoServer] = {}
        for i, mn in self.mns.items():
            self.servers[i] = AcesoServer(self.env, self.fabric, mn, config,
                                          self.layout, self.codec, self.master)
            self.servers[i].obs = self.obs
        for server in self.servers.values():
            server.servers = self.servers
        self.servers[0].directory = StripeDirectory(coding.k, coding.m)

        cluster = config.cluster
        cli_id = 0
        for cn in self.cns.values():
            for _slot in range(cluster.clients_per_cn):
                client = AcesoClient(self.env, self.fabric, config, cli_id,
                                     cn, self.mns, self.servers, self.master,
                                     self.layout, self.codec, self.stats,
                                     obs=self.obs)
                self.clients.append(client)
                cli_id += 1

        from .recovery import MemoryNodeRecovery
        self._recovery = MemoryNodeRecovery(self)
        self.master.set_recovery_callback(self._start_mn_recovery)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for mn in self.mns.values():
            mn.index.index_version = 1  # 0 is reserved for unsealed blocks
        for server in self.servers.values():
            server.start()
        for client in self.clients:
            client.start_background()

    # -- failures --------------------------------------------------------------

    def crash_mn(self, node_id: int) -> None:
        self._mark_fault("mn", node_id)
        mn = self.mns[node_id]
        server = self.servers[node_id]
        server.stop()
        mn.crash()
        self.master.report_mn_failure(node_id)

    def _start_mn_recovery(self, node_id: int) -> None:
        self.env.process(self._recovery.recover(node_id),
                         name=f"recover(mn{node_id})")

    def restart_client(self, client: AcesoClient, cn=None) -> "AcesoClient":
        """CN crash recovery entry point: restart one client's state on a
        functional CN (§3.4.2) — returns the replacement client.  Pass
        *cn* to pin the replacement to a specific (alive) compute node,
        e.g. the original one after a rejoin."""
        from .recovery import restart_client
        return restart_client(self, client, cn=cn)

    # -- reporting ----------------------------------------------------------------

    def memory_distribution(self) -> MemoryDistribution:
        """Block-Area byte accounting for Fig. 12."""
        block_size = self.config.cluster.block_size
        valid = obsolete = redundancy = delta = unused = 0
        open_blocks = set()
        for client in self.clients:
            for block in client.blocks.all_open():
                open_blocks.add((block.grant.data_node,
                                 block.grant.data_block))
            for block in client._prefetched.values():
                open_blocks.add((block.grant.data_node,
                                 block.grant.data_block))
        for i, mn in self.mns.items():
            for meta in mn.blocks.meta:
                if meta.role is Role.PARITY:
                    redundancy += block_size
                elif meta.role is Role.DELTA:
                    delta += block_size
                elif meta.role is Role.DATA:
                    if meta.free_bitmap is None or meta.slots == 0:
                        continue
                    dead = meta.free_bitmap.popcount()
                    if (i, meta.block_id) in open_blocks:
                        # Unfilled tail of a currently-open block.
                        written = self._written_slots(i, meta.block_id)
                        unused += (meta.slots - written) * meta.slot_size
                        valid += (written - dead) * meta.slot_size
                    else:
                        valid += (meta.slots - dead) * meta.slot_size
                    obsolete += dead * meta.slot_size
                    unused += block_size - meta.slots * meta.slot_size
        return MemoryDistribution(valid, obsolete, redundancy, delta, unused)

    def _written_slots(self, node: int, block_id: int) -> int:
        for client in self.clients:
            for block in (list(client.blocks.all_open())
                          + list(client._prefetched.values())):
                if (block.grant.data_node, block.grant.data_block) \
                        == (node, block_id):
                    return block.writes_done
        return 0

    def leader_server(self) -> AcesoServer:
        alive = sorted(i for i in self.servers if self.mns[i].alive)
        return self.servers[alive[0]]

    def checkpoint_rounds(self) -> int:
        return sum(s.ckpt_rounds for s in self.servers.values())
