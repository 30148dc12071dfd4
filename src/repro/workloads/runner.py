"""Multi-client workload driver.

Runs one closed-loop process per client against a cluster (Aceso or
FUSEE), with a load phase, a warm-up, and a measurement window; results
come from the cluster's shared :class:`~repro.sim.stats.StatsRegistry`.

DELETE streams that re-insert, MN crashes mid-run, and degraded phases
all work: errors a workload expects (key-not-found after a racy delete)
are tolerated and counted, anything else fails the run loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from ..errors import KeyNotFoundError, RetryBudgetExceeded
from .micro import Op

__all__ = ["RunResult", "WorkloadRunner"]


@dataclass
class RunResult:
    """Summary of one measurement window."""

    duration: float
    per_op: Dict[str, Dict[str, float]]
    counters: Dict[str, float]
    total_ops: int

    @property
    def total_mops(self) -> float:
        return self.total_ops / self.duration / 1e6

    def throughput(self, op: str) -> float:
        entry = self.per_op.get(op)
        return entry["throughput"] if entry else 0.0

    def p50(self, op: str) -> float:
        entry = self.per_op.get(op)
        return entry["p50_us"] if entry else float("nan")

    def p99(self, op: str) -> float:
        entry = self.per_op.get(op)
        return entry["p99_us"] if entry else float("nan")

    def mean_cas(self, op: str) -> float:
        entry = self.per_op.get(op)
        return entry["mean_cas"] if entry else 0.0


class WorkloadRunner:
    """Drives clients of one cluster through load + measured phases."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.env = cluster.env
        #: Measurement-phase generation.  Each ``measure`` call gets its
        #: own token and bumps it again at close, so a client loop from
        #: a previous phase that outlives the drain window can never be
        #: resurrected by the next phase (it exits at its next op
        #: boundary instead of competing with the new phase's streams —
        #: at saturated scales a resurrected closed loop re-arms at the
        #: same timestamp with an earlier seq and starves the new
        #: phase's ops off the per-client serial path entirely).
        self._gen = 0

    # -- load phase ----------------------------------------------------------

    def load(self, ops_per_client: List[List[Op]],
             deadline: float = 1e6) -> None:
        """Run fixed op lists to completion (not measured)."""
        self.cluster.start()
        procs = []
        for client, ops in zip(self.cluster.clients, ops_per_client):
            procs.append(self.env.process(
                self._run_fixed(client, ops), name=f"load@{client.cli_id}"
            ))
        done = self.env.all_of(procs)
        self.env.run_until_event(done, limit=self.env.now + deadline)
        self._raise_failures()

    def _run_fixed(self, client, ops: Iterable[Op]):
        for verb, key, value in ops:
            try:
                yield from _start(client, verb, key, value)
            except KeyNotFoundError:
                pass  # expected under racy delete/search mixes
            except RetryBudgetExceeded:
                self.cluster.stats.bump("retry_budget_exceeded")

    # -- measured phase ----------------------------------------------------------

    def measure(self, streams: List[Iterator[Op]], duration: float,
                warmup: float = 0.0) -> RunResult:
        """Closed-loop run: warm up, then measure for *duration* sim
        seconds; returns the aggregate result."""
        self.cluster.start()
        self._gen += 1
        gen = self._gen
        procs = []
        for client, stream in zip(self.cluster.clients, streams):
            procs.append(self.env.process(
                self._run_stream(client, stream, gen),
                name=f"loop@{client.cli_id}",
            ))
        if warmup > 0:
            self.env.run(until=self.env.now + warmup)
        stats = self.cluster.stats
        obs = getattr(self.cluster, "obs", None)
        stats.open_window(self.env.now)
        if obs is not None and obs.enabled:
            obs.tracer.instant("measure.open", cat="harness",
                               track="harness")
        self.env.run(until=self.env.now + duration)
        stats.close_window(self.env.now)
        if obs is not None and obs.enabled:
            obs.tracer.instant("measure.close", cat="harness",
                               track="harness")
        self._gen += 1
        # Let every loop retire (each exits at its next op boundary) so
        # no generator leaks into a later measurement phase.  Waiting on
        # the processes — not a fixed time slice — matters at saturated
        # scales, where an in-flight op can outlive any fixed drain.
        # The limit stays well below the allocation retry budget
        # (64 x bitmap_flush_interval): a client mid-retry under pool
        # pressure cannot make progress in a quiesced system (retired
        # peers no longer flush the bitmaps that surface reclamation
        # candidates), so it must survive the drain and be rescued by
        # the next phase's traffic.  The generation token already keeps
        # it from issuing new ops, so a straggler is harmless.
        done = self.env.all_of(procs)
        self.env.run_until_event(done, limit=self.env.now + 0.05,
                                 strict=False)
        self._raise_failures()
        return RunResult(
            duration=stats.window,
            per_op=stats.summary(),
            counters=dict(stats.counters),
            total_ops=stats.total_ops(),
        )

    def _run_stream(self, client, stream: Iterator[Op], gen: int):
        for verb, key, value in stream:
            if self._gen != gen or not client.alive:
                return
            try:
                yield from _start(client, verb, key, value)
            except KeyNotFoundError:
                pass  # expected under racy delete/search mixes
            except RetryBudgetExceeded:
                self.cluster.stats.bump("retry_budget_exceeded")

    def _raise_failures(self) -> None:
        failures = self.env.unexpected_failures()
        if failures:
            proc = failures[0]
            from ..obs import flight
            flight.dump_on_failure("workload-failure", context={
                "first": proc.name, "error": repr(proc.value),
                "failed": len(failures),
            })
            raise AssertionError(
                f"workload process failed: {proc.name}: {proc.value!r}"
            ) from proc.value


def _start(client, verb: str, key: bytes, value: bytes):
    """The client op's generator for one stream entry.  Not a generator
    itself: the loops above drive the op directly, one frame less on
    every resume of every op."""
    if verb == "SEARCH":
        return client.search(key)
    if verb == "UPDATE":
        return client.update(key, value)
    if verb == "INSERT":
        return client.insert(key, value)
    if verb == "DELETE":
        return client.delete(key)
    raise ValueError(f"unknown verb {verb!r}")
