"""CLI: traced demo runs and latency-attribution reports.

Two subcommands (``demo`` is the default when none is given):

``python -m repro.obs [demo]``
    Runs a YCSB workload on a traced cluster, then a serving front-end
    lane and a chaos scenario through the same observability stack,
    prints the utilization/timeline report, and exports a Chrome-trace
    JSON (open it in https://ui.perfetto.dev or ``chrome://tracing``).
    ``--kill-mn N`` additionally crashes one memory node after the
    measured window so the export shows the tiered Meta -> Index ->
    Block recovery timeline.

``python -m repro.obs attr``
    Runs a traced workload and prints the critical-path latency
    attribution: each op's mean decomposed into queue / fabric service
    / rtt / lock-wait / CAS-retry / degraded-read / other, plus
    ``p99+``-tail rows — the "why is INSERT p99 high" view.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..bench.common import SCALES, build_cluster, run_mix
from ..workloads import ycsb_stream
from . import Observability
from .attr import attribution_tables, op_breakdowns, render_attribution
from .export import flat_summary, render_report, write_chrome_trace


def _measure_window(obs):
    """(start, end) of the last harness measurement window, if any."""
    opens = [i.at for i in obs.tracer.instants if i.name == "measure.open"]
    closes = [i.at for i in obs.tracer.instants
              if i.name == "measure.close"]
    return (opens[-1] if opens else None, closes[-1] if closes else None)


def _run_traced_ycsb(system: str, scale_name: str, workload: str):
    scale = SCALES[scale_name]
    obs = Observability(enabled=True)
    cluster = build_cluster(system, scale, obs=obs)
    res = run_mix(
        cluster, scale,
        lambda cli_id: ycsb_stream(workload, cli_id, scale.total_keys,
                                   scale.kv_size - 64),
    )
    print(f"[YCSB-{workload} on {system}: {res.total_ops} ops, "
          f"{res.total_ops / res.duration / 1e6:.3f} Mops over "
          f"{res.duration * 1e3:g} ms simulated]")
    return obs, cluster


def _frontend_stage(scale_name: str) -> str:
    """The demo's serving-lane stage: one replay of the stock tenants
    through the front-end, traced into its own bundle.  Returns the lines
    to print; the served count is the SLO book's, so it covers the
    measured window only."""
    from ..frontend.bench import _replay, default_tenants
    fe_obs = Observability(enabled=True)
    fe = _replay(SCALES[scale_name], 0, default_tenants(), fe_obs)
    served = sum(fe.slo.row(spec)["served"] for spec in fe.tenants.values())
    ops = fe_obs.tracer.spans_by(cat="op")
    return (f"[front-end lane: counters "
            f"{json.dumps(fe.lane_counters(), sort_keys=True)}]\n"
            f"[front-end traced {len(ops)} client op spans; "
            f"{served} requests served in the measured window]")


def demo_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs demo",
        description="Run traced demo stages (YCSB, front-end lane, "
                    "chaos scenario) and export the simulation trace.",
    )
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke",
                        help="cluster geometry tier (default: smoke)")
    parser.add_argument("--system", choices=("aceso", "fusee"),
                        default="aceso")
    parser.add_argument("--workload", default="A",
                        help="YCSB workload letter (default: A)")
    parser.add_argument("--kill-mn", type=int, default=None, metavar="NODE",
                        help="crash this MN after the measured window and "
                             "trace its tiered recovery (aceso only)")
    parser.add_argument("--no-frontend", action="store_true",
                        help="skip the serving front-end stage")
    parser.add_argument("--no-chaos", action="store_true",
                        help="skip the chaos-scenario stage")
    parser.add_argument("-o", "--output", default="trace.json",
                        help="Chrome-trace output path (default: "
                             "trace.json)")
    parser.add_argument("--summary", default=None, metavar="PATH",
                        help="also write the flat JSON summary here")
    args = parser.parse_args(argv)

    if args.kill_mn is not None and args.system != "aceso":
        parser.error("--kill-mn requires --system aceso (tiered recovery)")

    obs, cluster = _run_traced_ycsb(args.system, args.scale, args.workload)
    if args.kill_mn is not None and args.kill_mn not in cluster.mns:
        parser.error(f"--kill-mn {args.kill_mn}: this cluster has MNs "
                     f"{sorted(cluster.mns)}")

    if args.kill_mn is not None:
        from ..cluster.master import MnState
        victim = args.kill_mn
        cluster.run(cluster.env.now + 0.05)  # settle seals + checkpoints
        cluster.crash_mn(victim)
        done = cluster.master.milestone(victim, MnState.RECOVERED)
        cluster.env.run_until_event(done, limit=cluster.env.now + 600)
        report = cluster._recovery.reports[-1]
        print(f"[mn{victim} recovered in {report.total_time * 1e3:.2f} ms "
              f"simulated]")

    # Scope utilization to the measured window (load/settle phases would
    # dilute the means); spans and timelines still cover the whole run.
    start, end = _measure_window(obs)
    print()
    print(render_report(obs, start, end))
    tables = attribution_tables(obs)
    if tables:
        print()
        print(render_attribution(tables))

    if not args.no_frontend and args.system == "aceso":
        print()
        print(_frontend_stage(args.scale))

    if not args.no_chaos and args.system == "aceso":
        # A chaos stage through the same observability stack: the
        # invariant oracle runs with tracing on, proving the chaos
        # engine's reports don't depend on it.
        from ..chaos.engine import run_scenario
        from ..chaos.scenarios import fast_scenarios
        name = sorted(fast_scenarios())[0]
        ch_obs = Observability(enabled=True)
        report = run_scenario(name, seed=1, obs=ch_obs)
        print(f"\n[chaos scenario {name!r}: "
              f"{'PASS' if report['ok'] else 'FAIL'}, "
              f"{report['counters']['ops_acked']} acked ops, "
              f"{len(ch_obs.tracer.spans)} spans traced]")

    path = write_chrome_trace(obs, args.output)
    print(f"\n[wrote {path} — open in https://ui.perfetto.dev]")
    if args.summary:
        with open(args.summary, "w") as fh:
            json.dump(flat_summary(obs), fh, indent=2)
            fh.write("\n")
        print(f"[wrote {args.summary}]")
    return 0


def attr_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs attr",
        description="Run a traced workload and print the critical-path "
                    "latency attribution per op type.",
    )
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke",
                        help="cluster geometry tier (default: smoke)")
    parser.add_argument("--system", choices=("aceso", "fusee"),
                        default="aceso")
    parser.add_argument("--workload", default="A",
                        help="YCSB workload letter (default: A)")
    parser.add_argument("--op", default=None,
                        help="restrict to one op name (e.g. INSERT)")
    parser.add_argument("--all-ops", action="store_true",
                        help="include ops outside the measured window")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the aggregate tables as JSON")
    args = parser.parse_args(argv)

    obs, _cluster = _run_traced_ycsb(args.system, args.scale,
                                     args.workload)
    start, end = (None, None) if args.all_ops else _measure_window(obs)
    rows = op_breakdowns(obs,
                         ops=(args.op,) if args.op else None,
                         start=start, end=end)
    if not rows:
        print("no op spans matched — nothing to attribute",
              file=sys.stderr)
        return 1
    tables = attribution_tables(obs, measured_only=not args.all_ops)
    if args.op:
        tables = [t for t in tables if t["op"].split()[0] == args.op]
    print()
    print(render_attribution(tables))
    print(f"\n({len(rows)} ops decomposed; components sum to each op's "
          "measured latency by construction — 'p99+' rows aggregate "
          "only that op's slowest percentile)")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(tables, fh, indent=2)
            fh.write("\n")
        print(f"[wrote {args.json}]")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "attr":
        return attr_main(argv[1:])
    if argv and argv[0] == "demo":
        return demo_main(argv[1:])
    return demo_main(argv)


if __name__ == "__main__":
    sys.exit(main())
