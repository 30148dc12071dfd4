"""Failure injection schedules for experiments, tests, and chaos runs.

An injector arms events against a running cluster object that exposes
``crash_mn(node_id)`` / ``crash_cn(node_id)`` (both Aceso's and FUSEE's
top-level stores do).  Used by the recovery benchmarks (Figs. 14, 16, 18,
20), the fault-tolerance test suite, and the chaos scenario engine
(:mod:`repro.chaos`).

Beyond fail-stop crashes the injector can schedule the *other half* of a
transient failure — a delayed MN recovery (``recover_mn``, for clusters
running with ``master.auto_recover`` off) and a CN rejoin that restarts
the node's clients in place (``rejoin_cn``) — plus gray failures: a NIC
degradation that multiplies one node's message and byte costs by a
slowdown factor until a matching ``nic_restore`` event.

Every event is recorded into :attr:`FailureInjector.injected` at fire
time (before the action runs) and emitted as an ``inject.*`` instant on
the obs ``faults`` track, so scenario traces and the injector log always
agree even when the action itself raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..sim import Environment

__all__ = ["FailureEvent", "FailureInjector"]

#: Event kinds the injector understands.
_KINDS = ("mn", "cn", "recover_mn", "rejoin_cn", "nic_degrade",
          "nic_restore")


@dataclass(frozen=True)
class FailureEvent:
    at: float                 # simulated time of the event
    kind: str                 # one of _KINDS
    node_id: int
    factor: float = 1.0       # nic_degrade only: cost multiplier (>1 = slower)


class FailureInjector:
    """Schedules fail-stop crashes, rejoins, and gray failures."""

    def __init__(self, env: Environment, cluster):
        self.env = env
        self.cluster = cluster
        self.injected: List[FailureEvent] = []

    def schedule(self, event: FailureEvent) -> None:
        if event.kind not in _KINDS:
            raise ValueError(f"unknown failure kind {event.kind!r}")
        self.env.process(self._fire(event), name=f"inject.{event.kind}{event.node_id}")

    def schedule_mn_crash(self, at: float, node_id: int) -> None:
        self.schedule(FailureEvent(at=at, kind="mn", node_id=node_id))

    def _fire(self, event: FailureEvent):
        delay = event.at - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
        self.fire_now(event)

    def fire_now(self, event: FailureEvent) -> None:
        """Apply *event* immediately (no scheduling) — the chaos engine's
        entry point for actions behind runtime trigger gates.

        Records and marks *before* acting: the injector log and scenario
        traces must agree even if the action below raises part-way."""
        if event.kind not in _KINDS:
            raise ValueError(f"unknown failure kind {event.kind!r}")
        self.injected.append(event)
        self._mark(event)
        if event.kind == "mn":
            self.cluster.crash_mn(event.node_id)
        elif event.kind == "cn":
            self.cluster.crash_cn(event.node_id)
        elif event.kind == "recover_mn":
            self.cluster.master.trigger_recovery(event.node_id)
        elif event.kind == "rejoin_cn":
            self.cluster.rejoin_cn(event.node_id)
        elif event.kind == "nic_degrade":
            self._scale_nic(event.node_id, event.factor)
        else:  # nic_restore
            self._scale_nic(event.node_id, 1.0)

    def _mark(self, event: FailureEvent) -> None:
        obs = getattr(self.cluster, "obs", None)
        if obs is not None and obs.enabled:
            obs.tracer.instant(f"inject.{event.kind}{event.node_id}",
                               cat="fault", track="faults",
                               kind=event.kind, node=event.node_id)

    def _node(self, node_id: int):
        node = self.cluster.mns.get(node_id)
        if node is None:
            node = self.cluster.cns[node_id]
        return node

    def _scale_nic(self, node_id: int, slowdown: float) -> None:
        """Set one NIC's costs to *slowdown* times the configured rates.

        The factor is absolute (relative to the config), so a restore is
        just slowdown 1.0.  The service-time memo must be cleared: the
        Fabric's fast path reads it directly and would otherwise keep
        serving pre-degradation timings.
        """
        nic = self._node(node_id).nic
        cfg = nic.config
        nic._op_cost = slowdown / cfg.iops
        nic._atomic_cost = slowdown / cfg.atomic_iops
        nic._byte_cost = slowdown / cfg.bandwidth
        nic._svc_cache.clear()
