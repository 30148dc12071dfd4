"""perfbench command line.

    python3 perfbench/run.py [--workload W] [--seed N] [--seconds S]
                             [--repeat R] [--trace [0|1]] [--json FILE]
    python3 perfbench/run.py --compare A.json B.json

(``PYTHONPATH=src python -m perfbench`` is the same program.)  Every run
of a workload happens in a fresh subprocess.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics, or with ``--trace 1`` the
per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench.layers import LAYERS  # noqa: E402
from perfbench.spec import Spec  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"


class BenchmarkAbort(Exception):
    """The run cannot produce a trustworthy result (exit code 1)."""


# ----------------------------------------------------------------------
# one run = one subprocess
# ----------------------------------------------------------------------

def child_main(request: str) -> int:
    from perfbench.worker import run_workload
    args = json.loads(request)
    result = run_workload(args["workload"], args["seed"], args["scale"],
                          args.get("profile_path"))
    print(json.dumps(result))
    return 0


def run_child(workload: str, seed: int, scale: float,
              profile_path: Optional[Path] = None) -> dict:
    request = {"workload": workload, "seed": seed, "scale": scale,
               "profile_path": str(profile_path) if profile_path else None}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         json.dumps(request)],
        stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
    if proc.returncode != 0:
        raise BenchmarkAbort(f"{workload}: run exited with code "
                             f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def first_difference(a: Dict[str, float], b: Dict[str, float]) -> Optional[str]:
    for name in sorted(set(a) | set(b)):
        if a.get(name) != b.get(name):
            return f"{name}: {a.get(name)!r} != {b.get(name)!r}"
    return None


# ----------------------------------------------------------------------
# one workload = R untraced runs (+ one traced run)
# ----------------------------------------------------------------------

def run_workload(spec: Spec, name: str, seed: int, scale: float,
                 repeat: int, trace: bool) -> dict:
    """The report entry of one workload; ``values`` holds every number
    measured, by metric name, whether or not this run prints it."""
    runs = [run_child(name, seed, scale) for _ in range(repeat)]
    first = runs[0]
    for other in runs[1:]:
        diff = first_difference(first["sim"], other["sim"])
        if diff:
            raise BenchmarkAbort(f"{name}: simulated metrics differ between "
                                 f"repeats of seed {seed} — {diff}")
    values = dict(first["sim"])
    for metric in first["host"]:
        values[metric] = statistics.median(r["host"][metric] for r in runs)
    host_metrics = set(first["host"]) | {"harness.trace_overhead_ratio"}
    checks = list(first["checks"])

    if trace:
        path = OUT_DIR / f"{name}_s{seed}.pstats"
        traced = run_child(name, seed, scale, profile_path=path)
        diff = first_difference(first["sim"], traced["sim"])
        if diff:
            raise BenchmarkAbort(f"{name}: tracing changed a simulated "
                                 f"metric — {diff}")
        # The profile gives each layer's share; the untraced window gives
        # the time to share out, free of the profiler's own cost.
        ops = first["sim"]["harness.ops_in_window"]
        profiled = sum(self_s for self_s, _ in traced["layers"].values())
        us_per_op = values["harness.window_host_s"] / ops * 1e6
        for layer in LAYERS:
            self_s, calls = traced["layers"][layer]
            values[f"{layer}.host_self_us_per_op"] = \
                self_s / profiled * us_per_op
            values[f"{layer}.host_calls_per_op"] = calls / ops
            host_metrics |= {f"{layer}.host_self_us_per_op",
                             f"{layer}.host_calls_per_op"}
        values["harness.trace_overhead_ratio"] = \
            traced["host"]["harness.window_host_s"] \
            / values["harness.window_host_s"]
        # The profiler's own bookkeeping is in no row; it stays under 2 %
        # of a full-size window but not of a --quick one.
        traced_wall = traced["host"]["harness.window_wall_s"]
        checks.append({
            "check": "layer self times sum to the profiled window (2 %)",
            "ok": abs(profiled - traced_wall) <= 0.02 * traced_wall
            or scale < 1,
            "detail": f"{profiled:.3f} s of {traced_wall:.3f} s; raw table "
                      f"in {path.relative_to(ROOT)}"})

    out = {
        "correct": all(c["ok"] for c in checks),
        "attempted": first["counts"]["attempted"],
        "failed": first["counts"]["failed"],
        "end_to_end": spec.with_units(values, "end_to_end"),
        "counts": first["counts"],
        "samples": first["samples"],
        "walk_problems": first["walk_problems"],
        "checks": checks,
        "window_sim_s": first["window_sim_s"],
        "values": values,
        "host_metrics": sorted(host_metrics),
        "repeats": [r["host"] for r in runs],
    }
    if trace:
        out["per_layer"] = spec.with_units(values, "per_layer")
    return out


def render(name: str, result: dict) -> str:
    lines = [f"== {name}: window {result['window_sim_s'] * 1e3:.1f} sim-ms, "
             f"{result['attempted']} ops attempted, {result['failed']} failed"
             f" ({result['counts']}), samples {result['samples']}"]
    for group in ("end_to_end", "per_layer"):
        for metric, cell in result.get(group, {}).items():
            clock = "host" if metric in result["host_metrics"] else "sim "
            lines.append(f"  {clock}  {metric:<42} {cell['value']:>16.6g} "
                         f"{cell['unit']}")
    for c in result["checks"]:
        lines.append(f"  [{'ok' if c['ok'] else 'FAILED'}] {c['check']}"
                     f" — {c['detail']}")
    return "\n".join(lines)


def contract_line(result: dict, trace: bool) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["per_layer" if trace else "end_to_end"],
    })


# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return child_main(argv[1])
    spec = Spec()
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=spec.workloads,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.run_seconds,
                        help="host seconds the measured window is sized for; "
                             "the simulated window scales with it "
                             f"(default {spec.run_seconds})")
    parser.add_argument("--quick", action="store_true",
                        help="windows / 10 (smoke test; sizing checks off)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload; host metrics are "
                             "their median, simulated ones must agree")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add one profiled run and the per-layer metrics")
    parser.add_argument("--json", metavar="FILE",
                        help="write the full report here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two reports by the bounds of "
                             "BENCHMARK.json")
    args = parser.parse_args(argv)

    if args.compare:
        from perfbench.compare import compare
        return compare(spec, *args.compare)

    try:
        from repro.sim.sched import sched_provenance
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    scale = (0.1 if args.quick else 1.0) * args.seconds / spec.run_seconds
    report = {
        "meta": {**sched_provenance(), "python": platform.python_version(),
                 "nproc": os.cpu_count(), "seed": args.seed,
                 "seconds": args.seconds, "window_scale": scale,
                 "repeat": args.repeat},
        "workloads": {},
    }
    names = [args.workload] if args.workload else spec.workloads
    print("meta", json.dumps(report["meta"]), flush=True)
    try:
        for name in names:
            result = run_workload(spec, name, args.seed, scale, args.repeat,
                                  bool(args.trace))
            report["workloads"][name] = result
            print(render(name, result), flush=True)
            print(contract_line(result, bool(args.trace)), flush=True)
    except BenchmarkAbort as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if all(r["correct"] for r in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
