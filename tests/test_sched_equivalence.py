"""Whole-artifact identity of harness runs (a fig-runner cell, chaos
scenarios, a YCSB window) on the one event queue:

* BENCH meta records which queue produced a result;
* a run repeated in the same process, after a different run in between,
  reproduces its artifact exactly (no state leaks from one simulation
  into the next);
* tracing stays a pure observer across several chaos scenarios, not
  just the one ``test_determinism`` covers.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.common import SCALES, build_cluster, set_seed, ycsb_result
from repro.bench.parallel import run_targets
from repro.chaos import run_scenario
from repro.obs import Observability

#: Cells measured with the host clock (see test_determinism).
_HOST_CLOCK_CELLS = {"test_gbps"}

#: Chaos scenarios run traced and untraced: one CN crash mid-operation,
#: an MN crash during recovery, a gray failure and a double MN failure.
_TRACED_SCENARIOS = ("cn_mid_op", "mn_crash_during_recovery",
                     "gray_slow_nic", "mn_double_flushed")


def _strip_rows(result):
    return [{k: v for k, v in row.items() if k not in _HOST_CLOCK_CELLS}
            for row in result.rows]


def _verdict_outcomes(result):
    # Detail strings may embed host-clock numbers (e.g. tab02's codec
    # GB/s); the checks and their outcomes must still match exactly.
    return [(v["check"], v["ok"]) for v in result.verdicts]


# ------------------------------------------------------------ provenance

def test_bench_meta_records_backend():
    """Every BENCH json says which queue produced it."""
    run = run_targets(["tab02"], "smoke", seed=2)[0]
    assert run.result.meta["scheduler"] == "heapq"
    assert run.result.meta["sched_compiled"] is False


# ---------------------------------------------------- fig-runner cell

@pytest.mark.slow
def test_fig_runner_cell_repeats_after_another_cell():
    """One tab02 smoke cell, run again after a different-seed cell: the
    same rows, verdicts and meta."""
    first = run_targets(["tab02"], "smoke", seed=5)[0].result
    run_targets(["tab02"], "smoke", seed=6)
    again = run_targets(["tab02"], "smoke", seed=5)[0].result
    assert _strip_rows(again) == _strip_rows(first)
    assert _verdict_outcomes(again) == _verdict_outcomes(first)
    assert again.meta == first.meta


# ------------------------------------------------------------ chaos

def _chaos_bytes(name: str, seed: int, obs=None) -> bytes:
    report = run_scenario(name, seed=seed, obs=obs)
    return json.dumps(report, sort_keys=True).encode()


def test_chaos_report_repeats_after_another_scenario():
    """Fault injection, recovery timelines, invariant verdicts: the whole
    report serialises to the same bytes when the scenario is run again
    after a different one."""
    first = _chaos_bytes("mn_single_hot", seed=3)
    _chaos_bytes("cn_leaked_lock", seed=4)
    assert _chaos_bytes("mn_single_hot", seed=3) == first


@pytest.mark.parametrize("scenario", _TRACED_SCENARIOS)
def test_tracing_neutral_in_each_failure_kind(scenario):
    """Observability stays a pure observer in every kind of failure."""
    plain = _chaos_bytes(scenario, seed=3)
    traced = _chaos_bytes(scenario, seed=3, obs=Observability(enabled=True))
    assert plain == traced


# ------------------------------------------------------------ YCSB

def _ycsb_window(seed: int):
    set_seed(seed)
    try:
        scale = SCALES["smoke"]
        cluster = build_cluster("aceso", scale)
        res = ycsb_result(cluster, scale, "A")
        return {"per_op": res.per_op, "counters": res.counters,
                "total_ops": res.total_ops, "duration": res.duration}
    finally:
        set_seed(0)


@pytest.mark.slow
def test_ycsb_window_repeats_after_another_window():
    """Full measurement window (per-op latencies, counters, durations),
    run again after a different-seed window."""
    first = _ycsb_window(11)
    assert _ycsb_window(12) != first
    assert _ycsb_window(11) == first
