"""Event-queue provenance for benchmark metadata.

The engine has one event queue — a :mod:`heapq` of ``(when, seq, event)``
entries inside :class:`repro.sim.engine.Environment` — so there is
nothing to select.  BENCH json meta blocks and ``perfbench/run.py`` still
record which queue produced a result, through this function.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["sched_provenance"]


def sched_provenance() -> Dict[str, object]:
    """Provenance block for BENCH json meta: the event queue every
    simulation uses, and that no compiled code is involved."""
    return {"scheduler": "heapq", "sched_compiled": False}
