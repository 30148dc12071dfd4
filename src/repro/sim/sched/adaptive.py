"""Adaptive scheduler: heapq at small populations, migrate when big.

The ``heapq`` reference is unbeatable below a few thousand pending
entries (C-implemented sift, zero per-entry overhead beyond the tuple),
but its O(log n) factor loses to the calendar queue — and to the
compiled flat-heap core when one is built — once the live population
reaches tens of thousands.  This backend starts as an *inlined* heapq
(the hot paths below are copies of
:class:`~repro.sim.sched.heapq_backend.HeapqScheduler`, not a wrapper,
so the small-population regime pays only one extra ``is None`` check
per op) and migrates wholesale to the large-population backend the
first time the live count reaches :data:`~AdaptiveScheduler.THRESHOLD`.

Migration preserves every pending entry *with its original seq* (via
each backend's ``adopt``), and new pushes continue the same seq
counter, so the dispatch order of the whole run is bit-identical to
any single backend — the differential suites hold it to the heapq
reference like everything else.  Migration is one-way: populations
that shrink back stay on the large backend (re-migrating would buy
nothing and cost a rebuild).

The large backend is the compiled flat-heap core when
``tools/build_sched.py`` has produced one, else the calendar queue —
recorded per-run in BENCH meta by
:func:`repro.sim.sched.sched_provenance`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional, Tuple

from .calendar import CalendarScheduler
from .flatheap import COMPILED_CLASS, FlatHeapScheduler

__all__ = ["AdaptiveScheduler", "MIGRATION_TARGET"]

#: Class adopted once the pending population crosses the threshold.
MIGRATION_TARGET = FlatHeapScheduler if COMPILED_CLASS else CalendarScheduler


class AdaptiveScheduler:
    """Inlined heapq that migrates to ``MIGRATION_TARGET`` at scale."""

    name = "adaptive"

    #: Live-entry count that triggers migration.  Calibrated from the
    #: sim_perf hold model: heapq and calendar cross between 8 Ki and
    #: 32 Ki pending on this workload's clustered timestamps.
    THRESHOLD = 16384

    __slots__ = ("_heap", "_n", "_cancelled", "_run_items", "_run_seqs",
                 "_threshold", "_inner", "_inner_loop")

    def __init__(self, threshold: Optional[int] = None):
        self._heap: list = []
        self._n = 0
        self._cancelled: set = set()
        self._run_items: list = []
        self._run_seqs: list = ()
        self._threshold = self.THRESHOLD if threshold is None else threshold
        self._inner = None          # large backend once migrated
        self._inner_loop = None     # its run_loop, if it has one

    # -- migration -------------------------------------------------------

    def _migrate(self) -> None:
        cancelled = self._cancelled
        if cancelled:
            entries = sorted(e for e in self._heap if e[1] not in cancelled)
        else:
            entries = sorted(self._heap)
        inner = MIGRATION_TARGET()
        inner.adopt(entries, self._n)
        self._inner = inner
        self._inner_loop = getattr(inner, "run_loop", None)
        self._heap = []
        self._cancelled = set()

    @property
    def migrated(self) -> bool:
        """Whether the large-population backend has taken over."""
        return self._inner is not None

    @property
    def active_backend(self) -> str:
        """Name of the backend currently serving operations."""
        inner = self._inner
        return inner.name if inner is not None else "heapq"

    # -- hot paths (inlined heapq until migration) -----------------------

    def push(self, when: float, item) -> int:
        inner = self._inner
        if inner is not None:
            return inner.push(when, item)
        seq = self._n
        self._n = seq + 1
        heap = self._heap
        heappush(heap, (when, seq, item))
        if len(heap) - len(self._cancelled) >= self._threshold:
            self._migrate()
        return seq

    def pop(self, limit: Optional[float] = None) -> Optional[Tuple]:
        inner = self._inner
        if inner is not None:
            return inner.pop(limit)
        heap = self._heap
        cancelled = self._cancelled
        while heap:
            if limit is not None and heap[0][0] > limit:
                return None
            entry = heappop(heap)
            if cancelled and entry[1] in cancelled:
                cancelled.discard(entry[1])
                continue
            return entry
        return None

    def pop_run(self, limit: Optional[float] = None) -> Optional[Tuple]:
        """Drain all minimum-timestamp entries; see
        :meth:`HeapqScheduler.pop_run
        <repro.sim.sched.heapq_backend.HeapqScheduler.pop_run>`."""
        inner = self._inner
        if inner is not None:
            if self._run_seqs:
                # Drop the stale pre-migration batch registration so it
                # can never shadow the inner backend's cancel path.
                self._run_items = []
                self._run_seqs = ()
            return inner.pop_run(limit)
        heap = self._heap
        cancelled = self._cancelled
        while heap:
            if limit is not None and heap[0][0] > limit:
                return None
            when, seq, item = heappop(heap)
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            items = [item]
            seqs = [seq]
            while heap and heap[0][0] == when:
                _, seq, item = heappop(heap)
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)
                    continue
                items.append(item)
                seqs.append(seq)
            self._run_items = items
            self._run_seqs = seqs
            return (when, items)
        return None

    def cancel(self, seq: int) -> bool:
        # A batch handed out *before* migration can still be mid-dispatch
        # when a callback cancels a sibling, so check our own batch first
        # (seqs are globally unique across the migration, so a hit here
        # is always the right entry).
        seqs = self._run_seqs
        if seqs:
            try:
                i = seqs.index(seq)
            except ValueError:
                pass
            else:
                items = self._run_items
                if items[i] is not None:
                    items[i] = None
                    return True
                return False
        inner = self._inner
        if inner is not None:
            return inner.cancel(seq)
        self._cancelled.add(seq)
        return True

    def run_loop(self, env, until: Optional[float] = None) -> None:
        """The default dispatch loop.

        Until migration it pops one heap entry per turn: at the
        populations this regime serves, a same-timestamp run is barely
        longer than one entry (1.24 on the read-heavy perfbench
        workload), so batching through :meth:`pop_run` built two lists
        and a tuple per event for nothing.  An entry cancelled by an
        earlier callback is skipped through its tombstone, exactly as
        :meth:`pop` does.  After migration the rest of the run goes to
        the inner backend's compiled ``run_loop`` when it has one, else
        through its ``pop_run`` batches (what the engine's generic path
        would do).
        """
        heap = self._heap
        cancelled = self._cancelled
        while self._inner is None:
            if not heap or (until is not None and heap[0][0] > until):
                return
            when, seq, item = heappop(heap)
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            env.now = when
            item._run_callbacks()
        loop = self._inner_loop
        if loop is not None:
            loop(env, until)
            return
        pop_run = self._inner.pop_run
        while True:
            run = pop_run(until)
            if run is None:
                return
            env.now = run[0]
            for item in run[1]:
                if item is not None:
                    item._run_callbacks()

    # -- bookkeeping -----------------------------------------------------

    def __len__(self) -> int:
        inner = self._inner
        if inner is not None:
            return len(inner)
        return len(self._heap) - len(self._cancelled)

    def __bool__(self) -> bool:
        inner = self._inner
        if inner is not None:
            return bool(inner)
        return len(self._heap) > len(self._cancelled)

    @property
    def pushes(self) -> int:
        """Total entries ever pushed (the simulator's event counter)."""
        inner = self._inner
        return inner.pushes if inner is not None else self._n
