"""Shared-resource primitives for the simulation.

Two building blocks cover everything the Aceso model needs:

* :class:`ThroughputServer` — a single FIFO server that serializes *service
  times*; models an RNIC processing pipeline or an MN CPU core.  It keeps a
  running total of busy time so utilisation (Table 3 of the paper) can be
  reported.
* :class:`Store` — an unbounded FIFO of items with blocking ``get`` (used as
  the RPC request mailbox of memory-node servers).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from .engine import Environment, Event

__all__ = ["ThroughputServer", "Store"]


class ThroughputServer:
    """A single FIFO server with explicit service times.

    ``submit(service_time)`` returns an event that triggers when the work
    unit finishes service: after all previously submitted work, plus its own
    service time.  Because completion times are computed directly (instead of
    queueing waiters), each submission costs O(log n) heap work only — this
    keeps the hot RDMA path cheap.

    ``parallelism`` > 1 approximates a multi-unit pipeline by dividing
    service times (fluid approximation), which is adequate for the paper's
    throughput/latency shapes.
    """

    __slots__ = ("env", "name", "parallelism", "_free_at", "_busy_time",
                 "_jobs")

    def __init__(self, env: Environment, name: str = "", parallelism: int = 1):
        self.env = env
        self.name = name
        self.parallelism = parallelism
        self._free_at = 0.0  # when the server finishes everything queued
        self._busy_time = 0.0
        self._jobs = 0

    @property
    def busy_time(self) -> float:
        return self._busy_time

    @property
    def jobs(self) -> int:
        return self._jobs

    def utilisation(self, window: float) -> float:
        """Fraction of *window* spent serving (clamped to [0, 1])."""
        if window <= 0:
            return 0.0
        return min(1.0, self._busy_time / window)

    def backlog(self) -> float:
        """Seconds of work currently queued ahead of a new arrival."""
        return max(0.0, self._free_at - self.env.now)

    def submit(self, service_time: float) -> Event:
        """Enqueue a work unit; returns its completion event."""
        if service_time < 0:
            raise ValueError("negative service time")
        return self.env.timeout(self.submit_at(service_time) - self.env.now)

    def submit_at(self, service_time: float) -> float:
        """Enqueue a work unit; returns its completion *time* only.

        The fast path for callers (the Fabric) that fold several FIFO
        completions into one scheduled event instead of waiting on each —
        because completion times are computed directly at submit, no event
        needs to exist per work unit.
        """
        service_time /= self.parallelism
        now = self.env.now
        start = now if now > self._free_at else self._free_at
        done = start + service_time
        self._free_at = done
        self._busy_time += service_time
        self._jobs += 1
        return done

    def reset_accounting(self) -> None:
        self._busy_time = 0.0
        self._jobs = 0


class Store:
    """Unbounded FIFO of items with blocking ``get``."""

    def __init__(self, env: Environment):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = self.env.event()
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event
