"""Simulation-native observability: tracing, metrics, exporters.

One :class:`Observability` object bundles a span :class:`~.trace.Tracer`
and a windowed :class:`~.metrics.MetricsCollector`, both stamped with
*simulated* time.  Cluster constructors accept one (``AcesoCluster(cfg,
obs=Observability(enabled=True))``); a disabled instance is created by
default so instrumented hot paths cost a single attribute check.

Two always-on stores ride alongside the opt-in tracer:

* :class:`~repro.sim.stats.StatsRegistry` — per-op latencies and named
  counters of the current measurement window, which every BENCH row is
  computed from;
* the process-wide :mod:`flight <repro.obs.flight>` recorder — a
  bounded ring of cheap events dumped to ``FLIGHT_*.json`` when an
  oracle/SLO check fails or an exception escapes the engine.

Typical use::

    from repro.obs import Observability
    from repro.obs.export import write_chrome_trace, render_report

    obs = Observability(enabled=True)
    cluster = build_cluster("aceso", scale, obs=obs)
    ... run a workload ...
    print(render_report(obs))             # utilization/timeline tables
    write_chrome_trace(obs, "trace.json") # open in Perfetto / chrome://tracing

The metrics series use fixed 1 ms windows of simulated time
(:data:`METRICS_WINDOW`).
"""

from __future__ import annotations

from typing import Dict, Optional

from .metrics import METRICS_WINDOW, MetricsCollector, TimeSeries
from .trace import NULL_SPAN, Instant, Span, Tracer

__all__ = [
    "Observability",
    "Tracer",
    "Span",
    "Instant",
    "NULL_SPAN",
    "MetricsCollector",
    "TimeSeries",
    "METRICS_WINDOW",
    "obs_provenance",
]


def obs_provenance() -> Dict[str, object]:
    """Provenance block for BENCH json meta: the metrics window and
    whether the flight recorder was live."""
    from .flight import RECORDER
    return {
        "metrics_window_s": METRICS_WINDOW,
        "flight_recorder": RECORDER.enabled,
    }


class Observability:
    """Tracer + metrics bundle shared by one cluster's components."""

    def __init__(self, env=None, enabled: bool = False):
        self.enabled = enabled
        self.tracer = Tracer(env, enabled=enabled)
        self.metrics = MetricsCollector(env, enabled=enabled)

    # -- lifecycle -------------------------------------------------------

    def bind(self, env) -> "Observability":
        """Attach the simulation environment driving the clock."""
        self.tracer.bind(env)
        self.metrics.bind(env)
        return self

    # -- cluster wiring --------------------------------------------------

    def attach_cluster(self, cluster) -> "Observability":
        """Wire this bundle into a cluster's fabric and NICs.

        Called by :class:`~repro.core.store.ClusterBase`; labels MN NICs
        ``mn<i>`` and CN NICs ``cn<j>`` so utilization series separate
        the two sides of the paper's asymmetry arguments.
        """
        self.bind(cluster.env)
        cluster.fabric.obs = self
        for node_id, mn in cluster.mns.items():
            mn.nic.obs_label = f"mn{node_id}"
        for node_id, cn in cluster.cns.items():
            cn.nic.obs_label = f"cn{node_id}"
        return self

    # -- convenience -----------------------------------------------------

    def nic_labels(self, prefix: str) -> list:
        """NIC labels of one side ("mn" or "cn") seen by the metrics."""
        labels = set()
        for name in self.metrics.names():
            if name.startswith("nic."):
                label = name.split(".")[1]
                if label.startswith(prefix):
                    labels.add(label)
        return sorted(labels)

    def mean_nic_utilisation(self, prefix: str,
                             start: Optional[float] = None,
                             end: Optional[float] = None,
                             series: str = "busy") -> float:
        """Mean utilization across all NICs of one side over [start, end).

        ``series`` selects the occupancy series: ``"busy"`` (all traffic)
        or ``"wbusy"`` (write-path verbs only).
        """
        labels = self.nic_labels(prefix)
        if not labels:
            return 0.0
        total = sum(
            self.metrics.mean_utilisation(f"nic.{label}.{series}",
                                          start, end)
            for label in labels
        )
        return total / len(labels)
