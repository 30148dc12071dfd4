"""Tests for statistics helpers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import LatencyRecorder, StatsRegistry, percentile


def test_percentile_empty_is_nan():
    assert math.isnan(percentile([], 50))


def test_percentile_single():
    assert percentile([3.0], 99) == 3.0


def test_percentile_median():
    assert percentile([1, 2, 3, 4, 5], 50) == 3


def test_percentile_interpolates():
    assert percentile([0.0, 1.0], 50) == pytest.approx(0.5)


def test_percentile_extremes():
    data = list(range(100))
    assert percentile(data, 0) == 0
    assert percentile(data, 100) == 99


def test_percentile_out_of_range():
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                max_size=50),
       st.floats(min_value=0, max_value=100))
def test_percentile_within_bounds(samples, p):
    result = percentile(samples, p)
    assert min(samples) <= result <= max(samples)


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=2,
                max_size=50))
def test_percentile_monotone(samples):
    assert percentile(samples, 10) <= percentile(samples, 90)


def test_latency_recorder():
    rec = LatencyRecorder()
    for v in (1.0, 2.0, 3.0):
        rec.record(v)
    assert rec.count == 3
    assert rec.p50() == 2.0


def test_latency_recorder_empty():
    rec = LatencyRecorder()
    assert math.isnan(rec.p50())


def test_registry_records_ops():
    reg = StatsRegistry()
    reg.open_window(0.0)
    reg.record_op("SEARCH", 0.001)
    reg.record_op("SEARCH", 0.002, cas=1, retries=2)
    reg.close_window(2.0)
    stats = reg.per_op["SEARCH"]
    assert stats.ops == 2
    assert stats.cas_issued == 1
    assert stats.retries == 2
    assert reg.summary()["SEARCH"]["throughput"] == pytest.approx(1.0)


def test_registry_window_required():
    reg = StatsRegistry()
    with pytest.raises(RuntimeError):
        _ = reg.window


def test_registry_open_window_resets():
    reg = StatsRegistry()
    reg.record_op("UPDATE", 0.001)
    reg.bump("conflicts", 5)
    reg.open_window(1.0)
    assert reg.per_op["UPDATE"].ops == 0
    assert reg.counters["conflicts"] == 0


def test_registry_ignores_after_close():
    reg = StatsRegistry()
    reg.open_window(0.0)
    reg.close_window(1.0)
    reg.record_op("SEARCH", 0.001)
    reg.bump("x")
    assert reg.per_op["SEARCH"].ops == 0
    assert reg.counters["x"] == 0


def test_registry_summary_shape():
    reg = StatsRegistry()
    reg.open_window(0.0)
    reg.record_op("INSERT", 0.001, cas=2)
    reg.close_window(1.0)
    summary = reg.summary()
    assert summary["INSERT"]["ops"] == 1
    assert summary["INSERT"]["mean_cas"] == 2
    assert summary["INSERT"]["throughput"] == pytest.approx(1.0)


def test_registry_total_throughput():
    reg = StatsRegistry()
    reg.open_window(0.0)
    reg.record_op("A", 0.001)
    reg.record_op("B", 0.001)
    reg.close_window(0.5)
    assert reg.total_ops() == 2
    assert sum(row["throughput"] for row in reg.summary().values()) \
        == pytest.approx(4.0)


def test_registry_errors():
    reg = StatsRegistry()
    reg.open_window(0.0)
    reg.record_error("DELETE")
    assert reg.per_op["DELETE"].errors == 1
