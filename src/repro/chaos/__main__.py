"""CLI entry point: ``python -m repro.chaos`` — run the chaos matrix.

Runs every requested scenario under several seeds, prints a per-run
table plus per-scenario PASS/FAIL verdicts, and writes the machine-
readable ``BENCH_chaos.json`` (same schema as the benchmark figures,
with each run's recovery timeline nested in its row).  Exits 1 if any
scenario's verdict failed (``shape_ok``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

from ..bench.common import FigureResult
from ..obs import Observability, obs_provenance
from ..obs import flight
from ..sim import sched_provenance
from .engine import run_scenario
from .scenarios import SCENARIOS, fast_scenarios

__all__ = ["run_matrix", "main"]

_COLUMNS = ["scenario", "seed", "verdict", "failed_checks", "ops_acked",
            "keys_replayed", "keys_lost", "recoveries", "sim_time_ms"]


def run_matrix(names: Sequence[str], seeds: Sequence[int],
               trace: bool = False) -> FigureResult:
    """Run ``names x seeds`` scenario instances into one FigureResult."""
    result = FigureResult(
        figure="chaos",
        title="Chaos matrix — invariant harness verdicts",
        columns=list(_COLUMNS),
        notes="Oracle: zero acked-write loss (or bounded unsealed loss "
              "where marked), no duplicate slot ownership, no leaked "
              "locks, monotonic version chains.",
        meta={"seeds": list(seeds), "scenarios": list(names),
              **sched_provenance(), **obs_provenance()},
    )
    per_scenario: Dict[str, List[dict]] = {}
    for name in names:
        for seed in seeds:
            obs = Observability(enabled=True) if trace else None
            report = run_scenario(name, seed=seed, obs=obs)
            failed = [c["invariant"] for c in report["checks"]
                      if not c["ok"]]
            if not report["ok"]:
                # Oracle failure: persist the flight ring alongside the
                # verdict so the postmortem has the last N events.
                path = flight.dump_on_failure(
                    f"chaos-{name}-s{seed}",
                    context={"scenario": name, "seed": seed,
                             "failed_checks": failed})
                if path:
                    print(f"[flight recorder dumped to {path}]",
                          file=sys.stderr)
            result.add(
                scenario=name,
                seed=seed,
                verdict="PASS" if report["ok"] else "FAIL",
                failed_checks=",".join(failed) or "-",
                ops_acked=report["counters"]["ops_acked"],
                keys_replayed=report["counters"]["keys_replayed"],
                keys_lost=report["counters"]["keys_lost"],
                recoveries=len(report["recoveries"]),
                sim_time_ms=round(report["sim_time"] * 1e3, 3),
                checks=report["checks"],
                timeline=report["timeline"],
            )
            per_scenario.setdefault(name, []).append(report)
    for name in names:
        reports = per_scenario[name]
        bad = [r for r in reports if not r["ok"]]
        detail = f"{len(reports) - len(bad)}/{len(reports)} seeds pass"
        if bad:
            failed = sorted({c["invariant"] for r in bad
                             for c in r["checks"] if not c["ok"]})
            detail += f"; failing: {', '.join(failed)}"
        result.add_verdict(name, not bad, detail)
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Run chaos scenarios against the simulated Aceso "
                    "cluster and check the zero-data-loss invariants.",
    )
    parser.add_argument("--scenario", "-s", action="append", default=[],
                        help="scenario name (repeatable; default: all)")
    parser.add_argument("--quick", action="store_true",
                        help="run only the fast subset")
    parser.add_argument("--seeds", type=int, default=3,
                        help="number of seeds per scenario (default: 3)")
    parser.add_argument("--seed", type=int, default=1,
                        help="base seed (default: 1); runs use seed, "
                             "seed+1, ...")
    parser.add_argument("--json-dir", default=".",
                        help="directory for BENCH_chaos.json "
                             "(default: current directory)")
    parser.add_argument("--no-json", action="store_true",
                        help="skip writing BENCH_chaos.json")
    parser.add_argument("--trace", action="store_true",
                        help="run with the observability layer enabled "
                             "(reports are identical either way)")
    parser.add_argument("--list", action="store_true",
                        help="list scenarios and exit")
    args = parser.parse_args(argv)

    # Flight-recorder dumps land next to BENCH_chaos.json.
    os.environ.setdefault(flight.ENV_DIR, args.json_dir)

    if args.list:
        width = max(len(n) for n in SCENARIOS)
        for name, spec in SCENARIOS.items():
            tag = " [fast]" if spec.fast else ""
            print(f"  {name:<{width}}{tag}  {spec.description}")
        return 0

    if args.scenario:
        unknown = [n for n in args.scenario if n not in SCENARIOS]
        if unknown:
            print(f"unknown scenario(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
        names = list(args.scenario)
    elif args.quick:
        names = list(fast_scenarios())
    else:
        names = list(SCENARIOS)
    seeds = [args.seed + i for i in range(max(1, args.seeds))]
    os.makedirs(args.json_dir, exist_ok=True)

    start = time.perf_counter()
    result = run_matrix(names, seeds, trace=args.trace)
    elapsed = time.perf_counter() - start
    print(result.render())
    print(f"[{len(names)} scenario(s) x {len(seeds)} seed(s) "
          f"in {elapsed:.1f}s]")
    if not args.no_json:
        path = result.write_json(args.json_dir)
        print(f"wrote {path}")
    return 0 if result.shape_ok else 1


if __name__ == "__main__":
    sys.exit(main())
