"""Always-on flight recorder: a bounded ring of cheap structured events.

Tracing (``--trace``) is opt-in because full span capture costs memory
proportional to the run; postmortems need the opposite trade — a tiny,
constant-cost record that is *always* there when something trips.  The
flight recorder is that record: a ``deque(maxlen=N)`` of
``(sim_time, kind, detail)`` tuples fed from the hot paths that already
aggregate (op completions, notable counters, fault markers), running in
every run — bench, chaos, frontend, tests — whether or not an
:class:`~repro.obs.Observability` bundle is enabled.

It is dumped to a ``FLIGHT_<reason>.json`` artifact when one of three
triggers fires:

* the chaos oracle fails a scenario (``repro.chaos``),
* a per-tenant SLO verdict flips to FAIL (``repro.frontend``),
* an unhandled exception escapes the engine (the harness failure
  checks in ``ClusterBase.run``, the workload runner, and the chaos
  drain).

Recording never affects results: events are append-only side records
with no RNG, no timing feedback, and no allocation beyond the tuple —
``tests/test_obs_v2.py`` pins recorder-on/off result neutrality, and
``tests/test_host_cost.py`` pins how many events a cached SEARCH and an
uncontended UPDATE append.

The ring holds the last 4096 events.  ``REPRO_FLIGHT_DIR`` redirects
dumps (default: current directory; the CLIs point it at their
``--json-dir``).
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Dict, List, Optional

__all__ = ["FlightRecorder", "RECORDER", "note", "dump", "dump_on_failure"]

ENV_DIR = "REPRO_FLIGHT_DIR"
DEFAULT_CAP = 4096


class FlightRecorder:
    """Bounded ring buffer of (sim_time, kind, detail) events."""

    __slots__ = ("events", "enabled", "dumped", "_dump_seq")

    def __init__(self, cap: int = DEFAULT_CAP, enabled: bool = True):
        self.events: deque = deque(maxlen=cap)
        self.enabled = enabled
        #: Paths written by :meth:`dump` (newest last), for reporting.
        self.dumped: List[str] = []
        self._dump_seq = 0

    # -- recording (hot path: one truth test + one append) ---------------

    def note(self, t: float, kind: str, detail=None) -> None:
        if self.enabled:
            self.events.append((t, kind, detail))

    def disable(self) -> None:
        self.enabled = False

    def enable(self) -> None:
        self.enabled = True

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    # -- dumping ----------------------------------------------------------

    def snapshot(self) -> List[Dict]:
        """JSON-safe view of the ring, oldest first."""
        out = []
        for t, kind, detail in self.events:
            ev: Dict = {"t": t, "kind": kind}
            if detail is not None:
                ev["detail"] = detail
            out.append(ev)
        return out

    def dump(self, reason: str, directory: Optional[str] = None,
             context: Optional[Dict] = None) -> str:
        """Write ``FLIGHT_<reason>[_<n>].json`` and return its path.

        ``reason`` is slugified into the filename; repeated dumps for
        the same reason in one process get ``_1``, ``_2``, ... suffixes
        so earlier postmortems are never overwritten.
        """
        if directory is None:
            directory = os.environ.get(ENV_DIR, ".")
        slug = "".join(c if c.isalnum() or c in "-_" else "-"
                       for c in reason) or "event"
        suffix = f"_{self._dump_seq}" if self._dump_seq else ""
        self._dump_seq += 1
        path = os.path.join(directory, f"FLIGHT_{slug}{suffix}.json")
        payload = {
            "reason": reason,
            "capacity": self.events.maxlen,
            "recorded": len(self.events),
            "events": self.snapshot(),
        }
        if context:
            payload["context"] = context
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        self.dumped.append(path)
        return path


#: The process-wide recorder every subsystem feeds.  A singleton (not
#: per-cluster) on purpose: a postmortem wants the interleaved history
#: of *everything* the process simulated, and the frontend/chaos
#: harnesses build several clusters per run.
RECORDER = FlightRecorder()


def note(t: float, kind: str, detail=None) -> None:
    """Module-level convenience for the process-wide recorder."""
    RECORDER.note(t, kind, detail)


def dump(reason: str, directory: Optional[str] = None,
         context: Optional[Dict] = None) -> str:
    return RECORDER.dump(reason, directory=directory, context=context)


def dump_on_failure(reason: str, context: Optional[Dict] = None,
                    directory: Optional[str] = None) -> Optional[str]:
    """Best-effort dump used by failure paths already mid-raise: never
    let the postmortem write mask the original exception."""
    if not RECORDER.enabled and not RECORDER.events:
        return None
    try:
        return RECORDER.dump(reason, directory=directory, context=context)
    except OSError:
        return None
