"""Multi-tenant Twitter-trace replay through the serving front-end.

Three tenants with distinct Twitter cluster mixes (§4.1) submit open-loop
Poisson traffic to one Aceso cluster behind the :class:`FrontEnd`, which
acknowledges each write at Aceso's commit CAS.  Per-tenant p50/p99/p999
are judged against each tenant's SLO contract, and a chaos scenario
driven *through* the front-end re-checks the oracle's zero-loss
invariants.

Everything derives from the seed and the virtual clock: the emitted
``BENCH_frontend.json`` is byte-identical across runs with the same seed,
tracing on or off.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..bench.common import SCALES, FigureResult, Scale, build_cluster
from ..obs import flight, obs_provenance
from ..sim import sched_provenance
from ..workloads import WorkloadRunner, twitter_stream, ycsb_load_ops
from .chaos import run_frontend_chaos
from .request import TenantSpec
from .serving import FrontEnd

__all__ = ["default_tenants", "run_frontend"]

#: Per-tenant driver ids: salted away from the per-client streams the
#: plain bench uses, so fresh INSERT keys never collide with loaded keys.
_TENANT_CLI_BASE = 900
_TENANT_RNG_BASE = 1000


def default_tenants() -> List[TenantSpec]:
    """The stock three-tenant contract set (one per Twitter cluster).

    Rates put the cluster well inside saturation at both scales (the SLO
    replay measures serving latency, not peak throughput — Fig. 8/11
    cover that); targets were calibrated on the smoke scale at seed 0
    with ~2x headroom so neighbouring seeds stay on the same side.
    """
    return [
        TenantSpec("storage", "STORAGE", rate=200e3,
                   slo_p50_us=10.0, slo_p99_us=60.0, slo_p999_us=120.0),
        TenantSpec("compute", "COMPUTE", rate=120e3,
                   slo_p50_us=25.0, slo_p99_us=90.0, slo_p999_us=180.0),
        TenantSpec("transient", "TRANSIENT", rate=80e3,
                   slo_p50_us=30.0, slo_p99_us=110.0, slo_p999_us=220.0),
    ]


def _tenant_driver(env, fe: FrontEnd, spec: TenantSpec, stream, rng, stop):
    """Open-loop Poisson submitter: arrivals don't wait for completions
    (completions settle through the request's ``done`` event; shed and
    failed requests fail that event with no waiter, which is benign)."""
    for verb, key, value in stream:
        yield env.timeout(rng.expovariate(spec.rate))
        if stop["flag"]:
            return
        fe.submit(spec.name, verb, key, value)


def _replay(scale: Scale, seed: int, tenants: Sequence[TenantSpec],
            obs) -> FrontEnd:
    """One full replay of every tenant through a fresh cluster."""
    cluster = build_cluster("aceso", scale, obs=obs)
    runner = WorkloadRunner(cluster)
    runner.load([
        ycsb_load_ops(c.cli_id, len(cluster.clients), scale.total_keys,
                      scale.kv_size - 64, seed=seed)
        for c in cluster.clients
    ])
    fe = FrontEnd(cluster)
    for spec in tenants:
        fe.add_tenant(spec)
    fe.start()
    env = cluster.env
    stop = {"flag": False}
    procs = []
    for idx, spec in enumerate(tenants):
        rng = random.Random((seed << 16) ^ (_TENANT_RNG_BASE + idx))
        stream = twitter_stream(spec.trace, _TENANT_CLI_BASE + idx,
                                scale.total_keys, scale.kv_size - 64,
                                seed=seed)
        procs.append(env.process(
            _tenant_driver(env, fe, spec, stream, rng, stop),
            name=f"fe.tenant.{spec.name}",
        ))
    env.run(until=env.now + scale.warmup)
    cluster.stats.open_window(env.now)
    fe.slo.open_window(env.now)
    env.run(until=env.now + scale.duration)
    cluster.stats.close_window(env.now)
    fe.slo.close_window(env.now)
    stop["flag"] = True
    # Let in-flight requests settle so no generator is left suspended.
    env.run(until=env.now + min(scale.duration, 0.05))
    failures = env.unexpected_failures()
    if failures:
        proc = failures[0]
        flight.dump_on_failure("frontend-engine-failure", context={
            "seed": seed,
            "first": proc.name, "error": repr(proc.value),
        })
        raise AssertionError(
            f"front-end process failed: {proc.name}: {proc.value!r}"
        ) from proc.value
    return fe


def run_frontend(scale_name: str = "smoke", seed: int = 0,
                 trace: bool = False, chaos: bool = True,
                 tenants: Optional[Sequence[TenantSpec]] = None,
                 ) -> FigureResult:
    """The ``python -m repro.frontend`` entry point's workhorse."""
    scale = SCALES[scale_name]
    specs = list(tenants) if tenants is not None else default_tenants()
    result = FigureResult(
        figure="frontend",
        title="Serving front-end: multi-tenant Twitter replay",
        columns=["tenant", "trace", "rate_kops", "submitted", "served",
                 "served_kops", "hits", "shed", "errors", "p50_us",
                 "p99_us", "p999_us", "slo"],
        notes="SLO columns judge each tenant's p50/p99/p999 contract; "
              "writes are acknowledged at Aceso's commit CAS.",
    )
    obs = None
    if trace:
        from ..obs import Observability
        obs = Observability(enabled=True)
    fe = _replay(scale, seed, specs, obs)
    for spec in specs:
        row = fe.slo.row(spec)
        row["slo"] = "PASS" if row.pop("slo") else "FAIL"
        result.add(**row)
    for spec in specs:
        ok = fe.slo.slo_ok(spec)
        result.add_verdict(f"slo:{spec.name}", ok, fe.slo.slo_detail(spec))
        if not ok:
            # SLO flipped to FAIL: keep the flight ring for the
            # postmortem ("what was the cluster doing?").
            flight.dump_on_failure(
                f"slo-{spec.name}-s{seed}",
                context={"tenant": spec.name, "seed": seed,
                         "detail": fe.slo.slo_detail(spec)})
    lanes = fe.lane_counters()
    result.add_verdict(
        "client cache serves hits",
        lanes["cache_hits"] > 0,
        f"{lanes['cache_hits']} hits / {lanes['cache_misses']} misses",
    )
    result.add_verdict(
        "adaptive batching engages under load",
        lanes["max_batch"] > 1,
        f"max batch {lanes['max_batch']}, {lanes['batches']} batches for "
        f"{lanes['batched_requests']} requests",
    )
    if chaos:
        report = run_frontend_chaos(seed=seed + 1)
        failed = sorted(c["invariant"] for c in report["checks"]
                        if not c["ok"])
        if not report["ok"]:
            flight.dump_on_failure(
                "frontend-chaos-oracle",
                context={"seed": report["seed"], "failed_checks": failed})
        result.add_verdict(
            "chaos through front-end keeps zero-loss invariants",
            report["ok"],
            ("all invariants hold" if report["ok"]
             else "failed: " + ", ".join(failed))
            + f" ({report['counters']['ops_acked']} acked ops replayed)",
        )
        result.meta["chaos"] = {
            "seed": report["seed"],
            "counters": report["counters"],
        }
    result.meta.update({
        "seed": seed,
        "scale": scale_name,
        "tenants": [spec.name for spec in specs],
        "counters": lanes,
        **sched_provenance(),
        **obs_provenance(),
    })
    return result
