"""Per-tenant SLO accounting on the sim's percentile machinery."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional

from ..sim.stats import LatencyRecorder
from .request import TenantSpec

__all__ = ["SLOBook"]


class _TenantStats:
    __slots__ = ("latency", "counters")

    def __init__(self):
        self.latency = LatencyRecorder()
        self.counters: Dict[str, int] = defaultdict(int)


class SLOBook:
    """Windowed per-tenant latency recorders and outcome counters.

    Mirrors :class:`~repro.sim.stats.StatsRegistry`'s open/close-window
    protocol: nothing records outside the measurement window, so warm-up
    and drain phases never pollute the percentiles.
    """

    def __init__(self):
        self._tenants: Dict[str, _TenantStats] = defaultdict(_TenantStats)
        self.recording = False
        self.window_start = 0.0
        self.window_end: Optional[float] = None

    # -- windowing -----------------------------------------------------

    def open_window(self, now: float) -> None:
        self._tenants = defaultdict(_TenantStats)
        self.window_start = now
        self.window_end = None
        self.recording = True

    def close_window(self, now: float) -> None:
        self.window_end = now
        self.recording = False

    @property
    def window(self) -> float:
        if self.window_end is None:
            return 0.0
        return max(self.window_end - self.window_start, 0.0)

    # -- recording -----------------------------------------------------

    def record(self, tenant: str, latency: float, kind: str) -> None:
        """One settled request: *kind* is "ok", "miss", or "hit"."""
        if not self.recording:
            return
        stats = self._tenants[tenant]
        stats.latency.record(latency)
        stats.counters["served"] += 1
        if kind == "miss":
            stats.counters["misses"] += 1
        elif kind == "hit":
            stats.counters["hits"] += 1

    def bump(self, tenant: str, counter: str, amount: int = 1) -> None:
        if self.recording:
            self._tenants[tenant].counters[counter] += amount

    # -- reporting -----------------------------------------------------

    def row(self, spec: TenantSpec) -> Dict[str, float]:
        """Headline numbers plus the SLO verdict for one tenant."""
        stats = self._tenants[spec.name]
        lat = stats.latency
        window = self.window
        served = stats.counters.get("served", 0)
        p50 = lat.p50() * 1e6
        p99 = lat.p99() * 1e6
        p999 = lat.p999() * 1e6
        return {
            "tenant": spec.name,
            "trace": spec.trace,
            "rate_kops": spec.rate / 1e3,
            "submitted": stats.counters.get("submitted", 0),
            "served": served,
            "served_kops": (served / window / 1e3) if window > 0 else 0.0,
            "hits": stats.counters.get("hits", 0),
            "misses": stats.counters.get("misses", 0),
            "shed": stats.counters.get("shed", 0),
            "errors": stats.counters.get("errors", 0),
            "p50_us": p50,
            "p99_us": p99,
            "p999_us": p999,
            "slo": self.slo_ok(spec),
        }

    def slo_ok(self, spec: TenantSpec) -> bool:
        lat = self._tenants[spec.name].latency
        if lat.count == 0:
            return False
        return (lat.p50() * 1e6 <= spec.slo_p50_us
                and lat.p99() * 1e6 <= spec.slo_p99_us
                and lat.p999() * 1e6 <= spec.slo_p999_us)

    def slo_detail(self, spec: TenantSpec) -> str:
        lat = self._tenants[spec.name].latency
        return (f"p50 {lat.p50() * 1e6:.1f}/{spec.slo_p50_us:.0f}us, "
                f"p99 {lat.p99() * 1e6:.1f}/{spec.slo_p99_us:.0f}us, "
                f"p999 {lat.p999() * 1e6:.1f}/{spec.slo_p999_us:.0f}us")
