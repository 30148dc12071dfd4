"""RNIC model: a FIFO pipeline with IOPS and bandwidth bounds.

The paper's motivation (§2.4) rests on one hardware fact: RNICs have a
message-rate (IOPS) bound *and* a bandwidth bound, and small verbs exhaust
the former long before the latter.  We model each NIC as a single FIFO
pipeline where a message of ``b`` wire bytes occupies the NIC for

    max(1 / iops,  b / bandwidth)

seconds.  Index CASes (8 B) are IOPS-bound; 1 KB KV reads and checkpoint
transfers are bandwidth-bound.  Queueing delay emerges from the FIFO.

Service times are memoized per NIC: a workload issues millions of verbs
drawn from a handful of ``(bytes, doorbells, atomics)`` shapes, so the
max/multiply arithmetic collapses to one dict subscript on the hot path.
"""

from __future__ import annotations

from ..config import NICConfig
from ..sim import Environment, Event, ThroughputServer

__all__ = ["RNIC"]


class _ServiceTimes(dict):
    """``(wire_bytes, doorbells, atomics) -> seconds`` for one NIC, each
    shape computed on first use.  Cleared when the NIC's costs change
    (``FailureInjector._scale_nic``)."""

    __slots__ = ("_nic",)

    def __init__(self, nic: "RNIC"):
        self._nic = nic

    def __missing__(self, key):
        wire_bytes, doorbells, atomics = key
        nic = self._nic
        seconds = self[key] = max(
            doorbells * nic._op_cost + atomics * nic._atomic_cost,
            wire_bytes * nic._byte_cost)
        return seconds


class RNIC:
    """One NIC attached to one node."""

    __slots__ = ("env", "config", "node_id", "name", "_pipe", "_op_cost",
                 "_atomic_cost", "_byte_cost", "_svc_cache", "obs_label")

    def __init__(self, env: Environment, config: NICConfig, node_id: int,
                 name: str = ""):
        self.env = env
        self.config = config
        self.node_id = node_id
        self.name = name or f"nic{node_id}"
        self._pipe = ThroughputServer(env, name=self.name)
        self._op_cost = 1.0 / config.iops
        self._atomic_cost = 1.0 / config.atomic_iops
        self._byte_cost = 1.0 / config.bandwidth
        #: Memoized ``(wire_bytes, doorbells, atomics) -> seconds``; the
        #: Fabric's post path subscripts it directly.
        self._svc_cache = _ServiceTimes(self)
        #: Label of this NIC's metric series and trace track, set by the
        #: cluster (``Observability.attach_cluster``).
        self.obs_label = self.name

    def service_time(self, wire_bytes: int, *, doorbells: int = 1,
                     atomics: int = 0) -> float:
        """Occupancy for one message (or a doorbell-batched group).

        ``doorbells`` < number of messages models doorbell batching: the
        per-message overhead is paid once per doorbell ring.  ``atomics``
        counts CAS/FAA messages in the group, each costing a PCIe
        read-modify-write at the destination.
        """
        return self._svc_cache[(wire_bytes, doorbells, atomics)]

    def submit(self, wire_bytes: int, *, doorbells: int = 1) -> Event:
        """Occupy the NIC for one message; returns its drain event.  (The
        Fabric folds both NICs' drains into one completion event instead,
        see ``Fabric._submit``.)"""
        return self._pipe.submit(
            self.service_time(wire_bytes, doorbells=doorbells))

    def record_submit(self, metrics, service_time: float) -> None:
        """This NIC's series of one submission (tracing on), taken before
        it enters the FIFO: the backlog is what the submission found."""
        label = self.obs_label
        metrics.add(f"nic.{label}.busy", service_time)
        metrics.add(f"nic.{label}.msgs", 1)
        metrics.peak(f"nic.{label}.backlog", self._pipe.backlog())

    # -- introspection (benchmarks) ---------------------------------------

    @property
    def busy_time(self) -> float:
        return self._pipe.busy_time

    @property
    def messages(self) -> int:
        return self._pipe.jobs

    def utilisation(self, window: float) -> float:
        return self._pipe.utilisation(window)

    def backlog(self) -> float:
        return self._pipe.backlog()

    def reset_accounting(self) -> None:
        self._pipe.reset_accounting()
