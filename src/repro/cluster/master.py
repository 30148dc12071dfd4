"""The reliable master: lease-based membership and failure dissemination.

Per §2.1/§3.4, a reliable master runs a membership service (as in uKharon /
FUSEE) that detects node failures within a lease period and notifies
clients; its own fault tolerance is out of scope.  Here the master is an
oracle object off the fabric: failure *detection* costs ``detection_delay``
of simulated time, after which client-visible state flips and registered
recovery callbacks run.

The master also exposes per-MN recovery milestones as events (Meta / Index
/ Block areas), which is how the tiered-recovery scheme (§3.4.1) gates
client behaviour: writes resume after the index milestone, reads run
degraded until the block milestone.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from ..sim import Environment, Event

__all__ = ["Master", "MnState"]


class MnState:
    ALIVE = "alive"
    FAILED = "failed"
    META_RECOVERED = "meta_recovered"
    INDEX_RECOVERED = "index_recovered"   # writes OK, reads degraded
    RECOVERED = "recovered"               # fully back


class Master:
    """Cluster oracle: membership, failure notification, recovery gating."""

    def __init__(self, env: Environment, detection_delay: float = 100e-6):
        self.env = env
        self.detection_delay = detection_delay
        self._mn_state: Dict[int, str] = {}
        self._mn_incarnation: Dict[int, int] = {}
        #: Bumped by every change of an MN's state or incarnation: a
        #: client that found something writable at one version knows it
        #: still is while the version reads the same.
        self.version = 0
        self._milestones: Dict[int, Dict[str, Event]] = {}
        self._recovery_callback: Optional[Callable[[int], None]] = None
        self.failed_cns: Set[int] = set()
        self.failure_log: List[tuple] = []
        #: Observers called synchronously with ("mn"|"cn", node_id) at
        #: failure-report time (before detection delay) — the serving
        #: front-end uses this to invalidate caches and reroute queues.
        self._failure_listeners: List[Callable[[str, int], None]] = []
        #: Called with an MN's id when its failure is declared, a
        #: ``detection_delay`` after the report (before recovery starts).
        self._detection_listeners: List[Callable[[int], None]] = []
        #: When False, detection still flips client-visible state but
        #: recovery waits for an explicit :meth:`trigger_recovery` —
        #: transient-failure experiments use this to model a delayed
        #: operator-driven rejoin.
        self.auto_recover = True

    # -- registration -------------------------------------------------------

    def register_mn(self, node_id: int) -> None:
        self._mn_state[node_id] = MnState.ALIVE
        self._mn_incarnation.setdefault(node_id, 0)
        self.version += 1
        self._milestones[node_id] = {}

    def set_recovery_callback(self, callback: Callable[[int], None]) -> None:
        """Called (once per failure, after detection) to start MN recovery."""
        self._recovery_callback = callback

    def add_failure_listener(self,
                             listener: Callable[[str, int], None]) -> None:
        """Register an observer for failure reports (kind, node_id)."""
        self._failure_listeners.append(listener)

    def add_detection_listener(self,
                               listener: Callable[[int], None]) -> None:
        """Register an observer of declared MN failures (node_id)."""
        self._detection_listeners.append(listener)

    def _notify_failure(self, kind: str, node_id: int) -> None:
        for listener in self._failure_listeners:
            listener(kind, node_id)

    # -- state queries (what clients consult) --------------------------------

    def mn_state(self, node_id: int) -> str:
        return self._mn_state[node_id]

    def mn_writable(self, node_id: int) -> bool:
        return self._mn_state[node_id] in (
            MnState.ALIVE, MnState.INDEX_RECOVERED, MnState.RECOVERED
        )

    def mn_block_writable(self, node_id: int) -> bool:
        """Whether *node_id*'s Block Area accepts new KV writes.

        Stricter than :meth:`mn_writable`: while a node's blocks are
        being rebuilt (tiers 2-3), a KV pair landing in a block buffer
        would be silently overwritten by the decode pass.
        """
        return self._mn_state[node_id] in (MnState.ALIVE, MnState.RECOVERED)

    def mn_incarnation(self, node_id: int) -> int:
        """Crash counter for *node_id*.  Block grants fetched under an
        older incarnation reference addresses the crash may have
        invalidated (the recovered free list can re-hand out that space)
        and must be abandoned, not written through."""
        return self._mn_incarnation.get(node_id, 0)

    def mn_degraded(self, node_id: int) -> bool:
        """Index back but Block Area still missing: reads are degraded."""
        return self._mn_state[node_id] == MnState.INDEX_RECOVERED

    def milestone(self, node_id: int, name: str) -> Event:
        """Event that triggers when *node_id* reaches recovery stage *name*
        (one of MnState.META_RECOVERED / INDEX_RECOVERED / RECOVERED)."""
        events = self._milestones[node_id]
        ev = events.get(name)
        if ev is None or (ev.triggered and
                          self._mn_state[node_id] == MnState.FAILED):
            ev = self.env.event()
            events[name] = ev
        return ev

    # -- failure flow ---------------------------------------------------------

    def report_mn_failure(self, node_id: int) -> None:
        """Called right after an MN crash; detection takes a lease period."""
        if self._mn_state[node_id] == MnState.FAILED:
            return
        self._mn_state[node_id] = MnState.FAILED
        self._mn_incarnation[node_id] = \
            self._mn_incarnation.get(node_id, 0) + 1
        self.version += 1
        self.failure_log.append((self.env.now, "mn", node_id))
        self._notify_failure("mn", node_id)
        self._reset_milestones(node_id)
        self.env.process(self._detect_and_recover(node_id),
                         name=f"master.detect(mn{node_id})")

    def _reset_milestones(self, node_id: int) -> None:
        """Drop *triggered* milestone events so future waiters block until
        the new recovery completes, but keep untriggered ones: processes
        already parked on them stay registered and wake when the fresh
        recovery reaches that stage (dropping them would orphan waiters
        forever)."""
        events = self._milestones[node_id]
        self._milestones[node_id] = {
            name: ev for name, ev in events.items() if not ev.triggered
        }

    def reset_to_failed(self, node_id: int) -> None:
        """A node that was mid-recovery lost a dependency and must restart
        its tiers from scratch: client-visible state drops back to FAILED
        (no new detection process — the running recovery retries in place)."""
        self._mn_state[node_id] = MnState.FAILED
        self.version += 1
        self._reset_milestones(node_id)

    def _detect_and_recover(self, node_id: int):
        yield self.env.timeout(self.detection_delay)
        for listener in self._detection_listeners:
            listener(node_id)
        if self.auto_recover and self._recovery_callback is not None:
            self._recovery_callback(node_id)

    def trigger_recovery(self, node_id: int) -> bool:
        """Manually start recovery of a FAILED MN (the delayed-rejoin half
        of a transient failure when :attr:`auto_recover` is off).  Returns
        False when the node is not FAILED or no callback is registered."""
        if self._mn_state.get(node_id) != MnState.FAILED:
            return False
        if self._recovery_callback is None:
            return False
        self._recovery_callback(node_id)
        return True

    def reach_milestone(self, node_id: int, state: str) -> None:
        """Recovery code reports progress; wakes every waiter."""
        self._mn_state[node_id] = state
        self.version += 1
        ev = self._milestones[node_id].get(state)
        if ev is None:
            ev = self.env.event()
            self._milestones[node_id][state] = ev
        if not ev.triggered:
            ev.succeed(self.env.now)

    # -- CN failures -----------------------------------------------------------

    def report_cn_failure(self, node_id: int) -> None:
        self.failed_cns.add(node_id)
        self.failure_log.append((self.env.now, "cn", node_id))
        self._notify_failure("cn", node_id)

    def report_cn_recovered(self, node_id: int) -> None:
        self.failed_cns.discard(node_id)
