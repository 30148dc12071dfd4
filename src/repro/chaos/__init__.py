"""Chaos scenario engine + invariant harness (``python -m repro.chaos``).

Declarative fault scenarios (correlated MN crashes, CN crashes mid-op,
crash-during-recovery/-checkpoint, gray NIC failures, delayed rejoins)
compiled into scheduled injection plans, paired with a post-scenario
oracle that replays the client-visible history against surviving state:
zero acknowledged-write loss, no duplicate slot ownership, no leaked
locks, monotonic version chains.
"""

from .engine import DEFAULT_GEOMETRY, ChaosEngine, run_scenario
from .oracle import History, evaluate, replay, walk_index
from .scenarios import SCENARIOS, ChaosAction, ScenarioSpec, fast_scenarios

__all__ = [
    "ChaosAction",
    "ChaosEngine",
    "DEFAULT_GEOMETRY",
    "History",
    "SCENARIOS",
    "ScenarioSpec",
    "evaluate",
    "fast_scenarios",
    "replay",
    "run_scenario",
    "walk_index",
]
