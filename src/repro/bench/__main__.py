"""CLI entry point: ``python -m repro.bench <figure|all|list>``."""

from __future__ import annotations

import argparse
import sys
import time

from ..obs import use_metrics_window
from . import REGISTRY, SCALES
from .parallel import run_targets


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the Aceso paper's tables and figures "
                    "on the simulated cluster.",
    )
    parser.add_argument("targets", nargs="*", default=["list"],
                        metavar="target",
                        help="figure ids (e.g. fig8 fig9 tab02), 'all', "
                             "or 'list'")
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke",
                        help="benchmark geometry tier (default: smoke)")
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes; (figure, seed) cells fan "
                             "out across them (default: 1 = serial; same "
                             "results either way)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base workload seed (default: 0); repeats "
                             "use seed, seed+1, ...")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run each figure N times at consecutive "
                             "seeds and average numeric cells "
                             "(default: 1)")
    parser.add_argument("--json-dir", default=".",
                        help="directory for BENCH_<figure>.json outputs "
                             "(default: current directory)")
    parser.add_argument("--no-json", action="store_true",
                        help="skip writing BENCH_<figure>.json files")
    parser.add_argument("--trace", action="store_true",
                        help="enable simulation tracing: print the "
                             "utilization/timeline report and export "
                             "TRACE_<figure>_s<seed>_<n>.json "
                             "(Chrome-trace format) per cluster built")
    parser.add_argument("--metrics-window", default=None,
                        help="metrics bucket width in seconds for traced "
                             "runs (default: $REPRO_METRICS_WINDOW or "
                             "0.001; results are identical either way)")
    args = parser.parse_args(argv)

    if args.metrics_window:
        use_metrics_window(args.metrics_window)

    if "list" in args.targets:
        print("Available targets:")
        for name in sorted(REGISTRY):
            print(f"  {name}")
        return 0

    targets = sorted(REGISTRY) if "all" in args.targets else args.targets
    start = time.perf_counter()
    runs = run_targets(targets, args.scale, seed=args.seed,
                       repeat=args.repeat, jobs=args.jobs,
                       trace=args.trace, trace_dir=args.json_dir)
    total = time.perf_counter() - start
    for run in runs:
        print(run.result.render())
        if not args.no_json:
            path = run.result.write_json(args.json_dir)
            print(f"[wrote {path}]")
        for report in run.trace_reports:
            print()
            print(report)
        print(f"[{run.name}: {run.cpu_seconds:.1f}s worker wall at "
              f"scale={args.scale}]")
        print()
    if len(runs) > 1 or args.jobs > 1:
        print(f"[total: {total:.1f}s wall, jobs={args.jobs}, "
              f"seed={args.seed}, repeat={args.repeat}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
