"""Discrete-event simulation substrate (engine, resources, statistics)."""

from .engine import (
    AllOf,
    AnyOf,
    Deferred,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .resources import Store, ThroughputServer
from .sched import sched_provenance
from .stats import LatencyRecorder, OpStats, StatsRegistry, percentile

__all__ = [
    "AllOf",
    "AnyOf",
    "Deferred",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "Store",
    "ThroughputServer",
    "LatencyRecorder",
    "OpStats",
    "StatsRegistry",
    "percentile",
    "sched_provenance",
]
