"""The benchmark's contract, read from ``BENCHMARK.json``.

``BENCHMARK.json`` is the single place that names the workloads and the
metrics, with their units, directions and bounds; the runner refuses to
print a metric that is not declared there.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


class Spec:
    def __init__(self, path: Path = BENCHMARK_JSON):
        with open(path) as fh:
            self.raw = json.load(fh)
        self.run_seconds: int = self.raw["run_seconds"]
        self.workloads: List[str] = [w["name"] for w in self.raw["workloads"]]
        self.end_to_end: Dict[str, dict] = {
            m["name"]: m for m in self.raw["end_to_end"]}
        self.per_layer: Dict[str, dict] = {
            m["name"]: m for m in self.raw["per_layer"]}

    def with_units(self, values: Dict[str, float], group: str) -> Dict:
        """``{name: {"value", "unit"}}`` for every metric *group*
        ("end_to_end" or "per_layer") declares; a declared metric the
        runner did not produce is a bug and raises."""
        declared = getattr(self, group)
        missing = sorted(set(declared) - set(values))
        if missing:
            raise KeyError(f"{group} metrics declared in BENCHMARK.json but "
                           f"not measured: {missing}")
        return {name: {"value": values[name], "unit": declared[name]["unit"]}
                for name in declared}
