"""Time-series metrics on fixed-width windows of simulated time.

The tracer answers "what happened when"; this layer answers "how busy
was each resource over time".  Values are accumulated into fixed 1 ms
buckets (:data:`METRICS_WINDOW`) keyed by ``int(now // window)``:

* ``add``  — sum series (NIC busy seconds, bytes shipped);
* ``peak`` — max series (queue depths / backlogs).

Utilization falls out directly: a NIC that accumulated 0.8 ms of busy
time into a 1 ms window was 80% utilized in that window — the per-NIC
view behind the paper's Table 3 and the write-path IOPS argument
(§2.4).  Everything is plain dict arithmetic; a disabled collector costs
one attribute check at each instrumentation point.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["METRICS_WINDOW", "TimeSeries", "MetricsCollector"]

#: Width of one bucket, in simulated seconds.
METRICS_WINDOW = 1e-3


class TimeSeries:
    """One named series of per-window values."""

    __slots__ = ("name", "kind", "buckets")

    def __init__(self, name: str, kind: str = "sum"):
        if kind not in ("sum", "max"):
            raise ValueError(f"unknown series kind {kind!r}")
        self.name = name
        self.kind = kind
        self.buckets: Dict[int, float] = {}

    def record(self, bucket: int, value: float) -> None:
        if self.kind == "sum":
            self.buckets[bucket] = self.buckets.get(bucket, 0.0) + value
        else:
            current = self.buckets.get(bucket)
            if current is None or value > current:
                self.buckets[bucket] = value

    def total(self) -> float:
        return sum(self.buckets.values())

    def peak(self) -> float:
        return max(self.buckets.values()) if self.buckets else 0.0

    def items(self) -> List[Tuple[int, float]]:
        return sorted(self.buckets.items())


class MetricsCollector:
    """Windowed accumulator for all series of one simulation."""

    def __init__(self, env=None, enabled: bool = False):
        self._env = env
        self.window = METRICS_WINDOW
        self.enabled = enabled
        self.series: Dict[str, TimeSeries] = {}

    # -- wiring ----------------------------------------------------------

    def bind(self, env) -> None:
        self._env = env

    def now(self) -> float:
        return self._env.now if self._env is not None else 0.0

    def bucket_of(self, now: Optional[float] = None) -> int:
        if now is None:
            now = self.now()
        return int(now // self.window)

    # -- recording -------------------------------------------------------

    def _series(self, name: str, kind: str) -> TimeSeries:
        ts = self.series.get(name)
        if ts is None:
            ts = self.series[name] = TimeSeries(name, kind)
        elif ts.kind != kind:
            raise ValueError(
                f"series {name!r} is {ts.kind!r}, not {kind!r}")
        return ts

    def add(self, name: str, value: float = 1.0,
            now: Optional[float] = None) -> None:
        """Sum *value* into the window covering *now* (default: current)."""
        if not self.enabled:
            return
        self._series(name, "sum").record(self.bucket_of(now), value)

    def peak(self, name: str, value: float,
             now: Optional[float] = None) -> None:
        """Track the per-window maximum of a gauge (e.g. queue depth)."""
        if not self.enabled:
            return
        self._series(name, "max").record(self.bucket_of(now), value)

    # -- querying --------------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self.series)

    def get(self, name: str) -> Optional[TimeSeries]:
        return self.series.get(name)

    def total(self, name: str) -> float:
        ts = self.series.get(name)
        return ts.total() if ts is not None else 0.0

    def utilisation(self, name: str) -> Dict[int, float]:
        """Per-window utilization of a busy-seconds series (clamped)."""
        ts = self.series.get(name)
        if ts is None:
            return {}
        return {b: min(1.0, v / self.window) for b, v in ts.items()}

    def mean_utilisation(self, name: str, start: Optional[float] = None,
                         end: Optional[float] = None) -> float:
        """Mean utilization of a busy-seconds series over [start, end).

        Windows with no recorded activity inside the span count as idle,
        so the mean is not biased toward busy windows.
        """
        ts = self.series.get(name)
        if ts is None or not ts.buckets:
            return 0.0
        buckets = ts.buckets
        lo = self.bucket_of(start) if start is not None \
            else min(buckets)
        hi = self.bucket_of(end) if end is not None else max(buckets) + 1
        if hi <= lo:
            return 0.0
        busy = sum(min(self.window, buckets.get(b, 0.0))
                   for b in range(lo, hi))
        return busy / ((hi - lo) * self.window)

    def to_dict(self) -> Dict:
        """JSON-friendly snapshot of every series."""
        return {
            "window_s": self.window,
            "series": {
                name: {"kind": ts.kind,
                       "buckets": {str(b): v for b, v in ts.items()},
                       "total": ts.total(),
                       "peak": ts.peak()}
                for name, ts in sorted(self.series.items())
            },
        }
