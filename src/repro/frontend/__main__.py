"""CLI: ``python -m repro.frontend`` — multi-tenant serving replay.

Replays the stock three-tenant Twitter mix through the serving front-end,
prints the per-tenant SLO table, and writes ``BENCH_frontend.json``.
Exits non-zero if any non-noisy shape verdict failed.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..bench.common import SCALES
from ..obs import flight
from .bench import run_frontend


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.frontend",
        description="Multi-tenant Twitter-trace replay through the "
                    "serving front-end, with per-tenant SLO verdicts.",
    )
    parser.add_argument("--scale", default="smoke", choices=sorted(SCALES),
                        help="benchmark geometry (default: smoke)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload RNG seed (default: 0)")
    parser.add_argument("--json-dir", default=".",
                        help="directory for BENCH_frontend.json "
                             "(default: .)")
    parser.add_argument("--no-json", action="store_true",
                        help="skip writing BENCH_frontend.json")
    parser.add_argument("--trace", action="store_true",
                        help="run with the observability layer enabled "
                             "(results are identical either way)")
    parser.add_argument("--no-chaos", action="store_true",
                        help="skip the chaos-through-frontend check")
    args = parser.parse_args(argv)

    # Flight-recorder dumps land next to BENCH_frontend.json.
    os.environ.setdefault(flight.ENV_DIR, args.json_dir)
    os.makedirs(args.json_dir, exist_ok=True)

    result = run_frontend(scale_name=args.scale, seed=args.seed,
                          trace=args.trace, chaos=not args.no_chaos)
    print(result.render())
    if not args.no_json:
        path = result.write_json(args.json_dir)
        print(f"\nwrote {path}")
    return 0 if result.shape_ok else 1


if __name__ == "__main__":
    sys.exit(main())
