"""Bucket a ``cProfile`` table into the repo's layers.

A layer is a module (or package) of ``src/repro``; every file under
``src/repro`` belongs to exactly one.  C builtins go to ``builtins``;
the standard library, numpy and perfbench's own input taps go to
``other``.
"""

from __future__ import annotations

from typing import Dict, Tuple

LAYERS = (
    "core.api", "core.kvpair", "core.blockmgr", "core.server",
    "core.recovery", "sim.engine", "sim.sched", "rdma", "index", "memory",
    "ec", "checkpoint", "cluster", "workloads", "obs", "builtins", "other",
)

#: Path below ``repro/`` -> layer; the longest matching prefix wins.
_PREFIXES = {
    "core/api.py": "core.api",
    "core/multiget.py": "core.api",
    "core/kvpair.py": "core.kvpair",
    "core/blockmgr.py": "core.blockmgr",
    "core/server.py": "core.server",
    "core/recovery.py": "core.recovery",
    "core/store.py": "cluster",
    "core/__init__.py": "core.api",
    "sim/sched/": "sim.sched",
    "sim/stats.py": "obs",
    "sim/": "sim.engine",
    "rdma/": "rdma",
    "index/": "index",
    "memory/": "memory",
    "ec/": "ec",
    "checkpoint/": "checkpoint",
    "cluster/": "cluster",
    "workloads/": "workloads",
    "obs/": "obs",
}
_ORDERED = sorted(_PREFIXES, key=len, reverse=True)


def layer_of(filename: str) -> str:
    """The layer that owns a profiler row's source file."""
    if filename == "~":                      # cProfile's marker for C code
        return "builtins"
    path = filename.replace("\\", "/")
    _, sep, below = path.rpartition("/repro/")
    if sep:
        for prefix in _ORDERED:
            if below.startswith(prefix):
                return _PREFIXES[prefix]
    return "other"


def bucket(stats: Dict[Tuple[str, int, str], tuple]
           ) -> Dict[str, Tuple[float, int]]:
    """``pstats.Stats(...).stats`` -> ``{layer: (self seconds, calls)}``."""
    out = {layer: [0.0, 0] for layer in LAYERS}
    for (filename, _line, _func), row in stats.items():
        _cc, ncalls, tottime = row[0], row[1], row[2]
        cell = out[layer_of(filename)]
        cell[0] += tottime
        cell[1] += ncalls
    return {layer: (cell[0], cell[1]) for layer, cell in out.items()}
