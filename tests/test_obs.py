"""Observability layer: tracer, metrics, exporters, bench JSON (ISSUE 4)."""

import json
import math

import pytest

from repro.bench.common import FigureResult
from repro.cluster.master import MnState
from repro.config import aceso_config
from repro.core.store import AcesoCluster
from repro.obs import NULL_SPAN, Observability
from repro.obs.export import chrome_trace, flat_summary, timeline_rows
from repro.obs.metrics import MetricsCollector
from repro.obs.trace import Tracer
from repro.sim import Environment, LatencyRecorder, StatsRegistry
from repro.workloads import WorkloadRunner, load_ops, micro_stream

from tests.conftest import small_cluster_kwargs


# ---------------------------------------------------------------- helpers

class FakeClock:
    def __init__(self):
        self.now = 0.0


def traced_cluster(**overrides):
    obs = Observability(enabled=True)
    cluster = AcesoCluster(aceso_config(**small_cluster_kwargs(**overrides)),
                           obs=obs)
    cluster.start()
    return cluster, obs


# ---------------------------------------------------------------- stats

def test_latency_recorder_high_percentiles():
    rec = LatencyRecorder()
    for v in range(1, 1001):
        rec.record(float(v))
    assert rec.p95() == pytest.approx(950.05, rel=1e-3)
    assert rec.p999() == pytest.approx(999.001, rel=1e-3)


def test_registry_summary_includes_tail_percentiles():
    reg = StatsRegistry()
    reg.open_window(0.0)
    for v in (1e-6, 2e-6, 3e-6):
        reg.record_op("SEARCH", v)
    reg.close_window(1.0)
    summary = reg.summary()["SEARCH"]
    assert summary["p95_us"] == pytest.approx(2.9, rel=1e-2)
    assert summary["p999_us"] == pytest.approx(2.999, rel=1e-2)


def test_registry_unclosed_window_degrades_to_zero_throughput():
    reg = StatsRegistry()
    reg.open_window(0.0)
    reg.record_op("SEARCH", 1e-6)
    # window property still raises; summary paths degrade gracefully.
    with pytest.raises(RuntimeError):
        _ = reg.window
    assert reg.summary()["SEARCH"]["throughput"] == 0.0


def test_registry_zero_length_window():
    reg = StatsRegistry()
    reg.open_window(1.0)
    reg.record_op("SEARCH", 1e-6)
    reg.close_window(1.0)
    assert reg.summary()["SEARCH"]["throughput"] == 0.0


# ---------------------------------------------------------------- tracer

def test_disabled_tracer_returns_shared_null_span():
    tracer = Tracer(FakeClock(), enabled=False)
    span = tracer.span("op")
    assert span is NULL_SPAN
    with span as s:
        s.set(anything=1)  # no-op, no error
    assert tracer.spans == []
    assert tracer.instant("x") is None
    assert tracer.complete("x", "cat", "t", 0.0, 1.0) is None


def test_span_records_simulated_interval():
    clock = FakeClock()
    tracer = Tracer(clock, enabled=True)
    with tracer.span("op", cat="op", track="cli0") as span:
        clock.now = 2.5
        span.set(retries=3)
    [recorded] = tracer.spans
    assert recorded.start == 0.0
    assert recorded.end == 2.5
    assert recorded.duration == 2.5
    assert recorded.args == {"retries": 3}


def test_span_nesting_preserves_order_and_track():
    clock = FakeClock()
    tracer = Tracer(clock, enabled=True)
    with tracer.span("outer", track="cli0"):
        clock.now = 1.0
        with tracer.span("inner", track="cli0"):
            clock.now = 2.0
        clock.now = 3.0
    inner, outer = tracer.spans  # inner closes (and records) first
    assert inner.name == "inner"
    assert outer.start <= inner.start and inner.end <= outer.end
    assert tracer.tracks() == ["cli0"]


def test_span_error_annotation():
    tracer = Tracer(FakeClock(), enabled=True)
    with pytest.raises(ValueError):
        with tracer.span("op"):
            raise ValueError("boom")
    assert tracer.spans[0].args["error"] == "ValueError"


def test_instant_retroactive_timestamp():
    clock = FakeClock()
    clock.now = 5.0
    tracer = Tracer(clock, enabled=True)
    tracer.instant("now")
    tracer.instant("then", at=1.25)
    assert [i.at for i in tracer.instants] == [5.0, 1.25]


# ---------------------------------------------------------------- metrics

def test_metrics_bucketing():
    clock = FakeClock()
    metrics = MetricsCollector(clock, enabled=True)
    metrics.add("nic.mn0.busy", 2e-4)           # bucket 0
    clock.now = 0.5e-3
    metrics.add("nic.mn0.busy", 3e-4)           # still bucket 0
    clock.now = 2.1e-3
    metrics.add("nic.mn0.busy", 4e-4)           # bucket 2
    series = metrics.get("nic.mn0.busy")
    assert series.items() == [(0, pytest.approx(5e-4)),
                              (2, pytest.approx(4e-4))]
    util = metrics.utilisation("nic.mn0.busy")
    assert util[0] == pytest.approx(0.5)
    assert util[2] == pytest.approx(0.4)
    # mean counts the empty bucket 1 as idle.
    assert metrics.mean_utilisation("nic.mn0.busy") == pytest.approx(0.3)


def test_metrics_disabled_records_nothing():
    metrics = MetricsCollector(FakeClock(), enabled=False)
    metrics.add("x", 1.0)
    metrics.peak("y", 2.0)
    assert metrics.names() == []
    assert metrics.mean_utilisation("x") == 0.0


def test_metrics_peak_series():
    clock = FakeClock()
    metrics = MetricsCollector(clock, enabled=True)
    metrics.peak("backlog", 3.0)
    metrics.peak("backlog", 1.0)
    assert metrics.get("backlog").peak() == 3.0


# ----------------------------------------------------------- cluster runs

def test_traced_run_produces_op_and_verb_spans():
    cluster, obs = traced_cluster()
    runner = WorkloadRunner(cluster)
    runner.load([load_ops(c.cli_id, 20, 128) for c in cluster.clients])
    runner.measure(
        [micro_stream("UPDATE", c.cli_id, 20, 128)
         for c in cluster.clients],
        duration=0.002, warmup=0.0005,
    )
    ops = obs.tracer.spans_by(cat="op")
    assert {s.name for s in ops} >= {"INSERT", "UPDATE"}
    assert all(s.track.startswith("cli") for s in ops)
    verbs = obs.tracer.spans_by(cat="verb")
    assert {s.name for s in verbs} & {"CAS", "WRITE", "READ"}
    # per-NIC utilization series exist for both sides
    assert obs.nic_labels("mn") and obs.nic_labels("cn")
    assert obs.mean_nic_utilisation("mn") > 0.0
    # write path loads the MN side harder than the CN side in aggregate
    # (§2.4: atomics cost a PCIe RMW at the destination); the per-NIC
    # ratio needs bench geometry (many CNs), not this toy cluster.
    wmn = sum(obs.metrics.total(f"nic.{lb}.wbusy")
              for lb in obs.nic_labels("mn"))
    wcn = sum(obs.metrics.total(f"nic.{lb}.wbusy")
              for lb in obs.nic_labels("cn"))
    assert wmn > wcn


def test_disabled_cluster_records_nothing():
    cluster = AcesoCluster(aceso_config(**small_cluster_kwargs()))
    cluster.start()
    runner = WorkloadRunner(cluster)
    runner.load([load_ops(c.cli_id, 10, 128) for c in cluster.clients])
    assert cluster.obs.tracer.spans == []
    assert cluster.obs.metrics.names() == []


def test_recovery_timeline_tiers_sum_to_total():
    cluster, obs = traced_cluster()
    runner = WorkloadRunner(cluster)
    runner.load([load_ops(c.cli_id, 60, 128) for c in cluster.clients])
    cluster.run(cluster.env.now + 0.05)
    cluster.crash_mn(1)
    done = cluster.master.milestone(1, MnState.RECOVERED)
    cluster.env.run_until_event(done, limit=cluster.env.now + 120)
    report = cluster._recovery.reports[-1]

    rows = timeline_rows(obs, cat="recovery")
    rows = [r for r in rows if r["track"] == "recover.mn1"]
    assert [r["phase"] for r in rows] == ["tier.meta", "tier.index",
                                          "tier.block"]
    assert all(rows[i]["end_ms"] == rows[i + 1]["start_ms"]
               for i in range(len(rows) - 1))
    total = sum(r["dur_ms"] for r in rows)
    assert total == pytest.approx(report.total_time * 1e3, rel=1e-9)
    marks = [i.name for i in obs.tracer.instants]
    assert "crash.mn1" in marks and "recovered" in marks


# ---------------------------------------------------------------- export

def test_chrome_trace_schema():
    cluster, obs = traced_cluster()
    runner = WorkloadRunner(cluster)
    runner.load([load_ops(c.cli_id, 15, 128) for c in cluster.clients])
    doc = chrome_trace(obs)
    json.dumps(doc)  # must be serialisable
    events = doc["traceEvents"]
    assert doc["displayTimeUnit"] == "ms"
    spans = [e for e in events if e["ph"] == "X"]
    assert spans
    for e in spans:
        assert e["ts"] >= 0.0 and e["dur"] >= 0.0
        assert isinstance(e["tid"], int)
    meta = [e for e in events if e["ph"] == "M"
            and e["name"] == "thread_name"]
    named = {e["args"]["name"] for e in meta}
    assert any(t.startswith("cli") for t in named)
    assert any(t.startswith("nic.mn") for t in named)
    counters = [e for e in events if e["ph"] == "C"]
    assert counters and all("value" in e["args"] for e in counters)


def test_flat_summary_shapes():
    cluster, obs = traced_cluster()
    runner = WorkloadRunner(cluster)
    runner.load([load_ops(c.cli_id, 15, 128) for c in cluster.clients])
    summary = flat_summary(obs)
    json.dumps(summary)
    assert {r["name"] for r in summary["spans"]} >= {"INSERT"}
    assert summary["mean_mn_utilization"] > 0.0
    assert "client" in summary["traffic_bytes"]
    assert "mean_mn_write_utilization" in summary
    assert "mean_cn_write_utilization" in summary


def test_tracing_overhead_when_disabled_is_attribute_checks():
    # Not a timing test: assert the disabled paths short-circuit before
    # doing any work (the <5% wall-clock criterion rests on this).
    obs = Observability(enabled=False)
    assert obs.tracer.span("x") is NULL_SPAN
    obs.metrics.add("x", 1.0)
    assert obs.metrics.names() == []


# ---------------------------------------------------------- bench JSON

def test_figure_result_json_roundtrip(tmp_path):
    result = FigureResult(figure="figX", title="t", columns=["a", "b"])
    result.add(a=1, b=2.0)
    result.add(a=2, b=float("nan"))
    result.add_verdict("shape holds", True, "detail")
    path = result.write_json(str(tmp_path))
    assert path.endswith("BENCH_figX.json")
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["figure"] == "figX"
    assert doc["rows"][0] == {"a": 1, "b": 2.0}
    assert doc["rows"][1]["b"] is None  # NaN scrubbed to null
    assert doc["verdicts"] == [{"check": "shape holds", "ok": True,
                                "detail": "detail"}]
    assert doc["shape_ok"] is True


def test_figure_result_verdicts_render_and_aggregate():
    result = FigureResult(figure="figY", title="t", columns=["a"],
                          notes="Expected: something.")
    result.add(a=1)
    result.add_verdict("good", True)
    result.add_verdict("bad", False, "why")
    text = result.render()
    assert "[PASS] good" in text
    assert "[FAIL] bad — why" in text
    assert result.to_json_dict()["shape_ok"] is False


def test_figure_result_no_verdicts_shape_is_null():
    result = FigureResult(figure="figZ", title="t", columns=["a"])
    result.add(a=1)
    assert result.to_json_dict()["shape_ok"] is None
