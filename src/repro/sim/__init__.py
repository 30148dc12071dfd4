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
from .resources import Resource, Store, ThroughputServer
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
    "Resource",
    "Store",
    "ThroughputServer",
    "LatencyRecorder",
    "OpStats",
    "StatsRegistry",
    "percentile",
    "sched_provenance",
]
