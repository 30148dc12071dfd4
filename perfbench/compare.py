"""``--compare A.json B.json``: B against A, judged by BENCHMARK.json.

For every workload and end-to-end metric both reports hold, print both
values, B / A with A as the base, and a verdict: ``worse`` when B is
worse than A by more than the metric's bound, ``better`` when it is
better by more than the bound, ``same`` otherwise.
"""

from __future__ import annotations

import json

from .spec import Spec


def verdict(a: float, b: float, better: str, bound: float) -> str:
    """How *b* stands against the base *a* for a metric that is *better*
    ("lower" or "higher") and may worsen by the share *bound* of *a*."""
    change = (b - a) / abs(a) if a else 0.0
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(spec: Spec, path_a: str, path_b: str) -> int:
    """Prints the table; returns 1 if any pairing is ``worse``."""
    with open(path_a) as fh:
        report_a = json.load(fh)["workloads"]
    with open(path_b) as fh:
        report_b = json.load(fh)["workloads"]
    worse = 0
    print(f"base A = {path_a}\n     B = {path_b}")
    print(f"{'workload':<11} {'metric':<26} {'A':>13} {'B':>13} "
          f"{'B/A':>8} {'bound':>6}  verdict")
    for workload in spec.workloads:
        if workload not in report_a or workload not in report_b:
            continue
        for name, metric in spec.end_to_end.items():
            a = report_a[workload]["end_to_end"][name]["value"]
            b = report_b[workload]["end_to_end"][name]["value"]
            word = verdict(a, b, metric["better"], metric["bound"])
            worse += word == "worse"
            ratio = b / a if a else float("nan")
            print(f"{workload:<11} {name:<26} {a:>13.6g} {b:>13.6g} "
                  f"{ratio:>8.4f} {metric['bound']:>6.2f}  {word}"
                  f"{'' if a != b else ' (identical)'}")
        for side, report in (("A", report_a), ("B", report_b)):
            r = report[workload]
            print(f"{workload:<11} {side}: {r['attempted']} ops attempted, "
                  f"{r['failed']} failed")
    return 1 if worse else 0
