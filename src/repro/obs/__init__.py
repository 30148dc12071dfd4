"""Simulation-native observability: tracing, metrics, exporters.

One :class:`Observability` object bundles a span :class:`~.trace.Tracer`
and a windowed :class:`~.metrics.MetricsCollector`, both stamped with
*simulated* time.  Cluster constructors accept one (``AcesoCluster(cfg,
obs=Observability(enabled=True))``); a disabled instance is created by
default so instrumented hot paths cost a single attribute check.

Two always-on companions ride alongside the opt-in tracer:

* the process-wide :mod:`flight <repro.obs.flight>` recorder — a
  bounded ring of cheap events dumped to ``FLIGHT_*.json`` when an
  oracle/SLO check fails or an exception escapes the engine;
* an optional :class:`~.registry.MetricsRegistry` of counters / gauges
  / histograms with Prometheus-style text exposition.

Typical use::

    from repro.obs import Observability
    from repro.obs.export import write_chrome_trace, render_report

    obs = Observability(enabled=True)
    cluster = build_cluster("aceso", scale, obs=obs)
    ... run a workload ...
    print(render_report(obs))             # utilization/timeline tables
    write_chrome_trace(obs, "trace.json") # open in Perfetto / chrome://tracing

The metrics window width is a config knob:
``SimConfig.metrics_window`` <- ``$REPRO_METRICS_WINDOW`` <-
``--metrics-window`` on the CLI entry points, resolved here by
:func:`resolve_metrics_window`.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Union

from .metrics import MetricsCollector, TimeSeries
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .trace import NULL_SPAN, Instant, Span, Tracer, traced

__all__ = [
    "Observability",
    "Tracer",
    "Span",
    "Instant",
    "NULL_SPAN",
    "traced",
    "MetricsCollector",
    "TimeSeries",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "METRICS_WINDOW_ENV",
    "DEFAULT_METRICS_WINDOW",
    "resolve_metrics_window",
    "use_metrics_window",
    "obs_provenance",
]

#: Environment variable consulted by the "auto" metrics-window
#: resolution (seconds, e.g. "0.0005"); set by ``--metrics-window``.
METRICS_WINDOW_ENV = "REPRO_METRICS_WINDOW"
DEFAULT_METRICS_WINDOW = 1e-3


def resolve_metrics_window(
        value: Union[None, str, float] = None) -> float:
    """Resolve a metrics-window request to a width in seconds.

    ``None``/""/"auto" reads ``$REPRO_METRICS_WINDOW`` and falls back
    to the 1 ms default; a number (or numeric string) is validated and
    used as-is.
    """
    if value is None or value == "" or value == "auto":
        value = os.environ.get(METRICS_WINDOW_ENV, "") \
            or DEFAULT_METRICS_WINDOW
    try:
        window = float(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"metrics window must be a number of seconds or 'auto', "
            f"got {value!r}") from None
    if not window > 0:
        raise ValueError(f"metrics window must be positive: {window}")
    return window


def use_metrics_window(value: Union[str, float]) -> float:
    """Select *value* for every bundle built after this call (exported
    via the environment so forked bench workers inherit it)."""
    resolved = resolve_metrics_window(value)
    os.environ[METRICS_WINDOW_ENV] = repr(resolved)
    return resolved


def obs_provenance() -> Dict[str, object]:
    """Provenance block for BENCH json meta: the resolved metrics
    window and whether the flight recorder was live."""
    from .flight import RECORDER
    return {
        "metrics_window_s": resolve_metrics_window(),
        "flight_recorder": RECORDER.enabled,
    }


class Observability:
    """Tracer + metrics bundle shared by one cluster's components."""

    def __init__(self, env=None, enabled: bool = False,
                 window: Union[None, str, float] = None):
        self.enabled = enabled
        self.tracer = Tracer(env, enabled=enabled)
        self.metrics = MetricsCollector(env,
                                        window=resolve_metrics_window(window),
                                        enabled=enabled)
        #: Counter/gauge/histogram registry (text exposition export).
        self.registry = MetricsRegistry()
        self._env = env

    # -- lifecycle -------------------------------------------------------

    def enable(self) -> "Observability":
        self.enabled = True
        self.tracer.enabled = True
        self.metrics.enabled = True
        return self

    def disable(self) -> "Observability":
        self.enabled = False
        self.tracer.enabled = False
        self.metrics.enabled = False
        return self

    def bind(self, env) -> "Observability":
        """Attach the simulation environment driving the clock."""
        self._env = env
        self.tracer.bind(env)
        self.metrics.bind(env)
        return self

    def clear(self) -> "Observability":
        self.tracer.clear()
        self.metrics.clear()
        self.registry.clear()
        return self

    # -- cluster wiring --------------------------------------------------

    def attach_cluster(self, cluster) -> "Observability":
        """Wire this bundle into a cluster's fabric and NICs.

        Called by :class:`~repro.core.store.ClusterBase`; labels MN NICs
        ``mn<i>`` and CN NICs ``cn<j>`` so utilization series separate
        the two sides of the paper's asymmetry arguments.  The cluster's
        ``SimConfig.metrics_window`` takes effect here when it asks for
        a specific width (the bundle predates the config).
        """
        self.bind(cluster.env)
        window = cluster.config.sim.metrics_window
        if window not in (None, "", "auto"):
            self.metrics.window = resolve_metrics_window(window)
        cluster.fabric.obs = self
        for node_id, mn in cluster.mns.items():
            mn.nic.obs_label = f"mn{node_id}"
        for node_id, cn in cluster.cns.items():
            cn.nic.obs_label = f"cn{node_id}"
        return self

    # -- convenience -----------------------------------------------------

    def span(self, name: str, cat: str = "", track: str = "main", **args):
        return self.tracer.span(name, cat=cat, track=track, **args)

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
