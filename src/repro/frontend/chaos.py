"""A chaos scenario driven *through* the serving front-end.

The chaos engine's invariants are only as strong as the path they cover:
the front-end adds queueing, batching, rerouting, and a value cache
between the workload and the core protocol, and each of those is a fresh
place to lose or resurrect an acknowledged write.  This module replays
the engine's core scenario — an MN crash and a CN crash under write
traffic — with every op submitted via :meth:`FrontEnd.submit` and every
acknowledgement taken from the *front-end's* completion event, then runs
the standard oracle (structural walk + history replay) over the result.

A single-MN crash is fully recoverable in Aceso, so the oracle runs in
strict mode: zero acknowledged-write loss, no corruption, no regressed
versions — now with the front-end in the loop.
"""

from __future__ import annotations

import random
from typing import List

from ..chaos import oracle
from ..cluster.master import MnState
from ..config import aceso_config
from ..core.store import AcesoCluster
from ..errors import (
    AdmissionError,
    AllocationError,
    IndexFullError,
    NodeFailedError,
    RetryBudgetExceeded,
)
from ..workloads.micro import micro_key
from .request import FrontEndConfig, TenantSpec
from .serving import FrontEnd

__all__ = ["run_frontend_chaos"]

#: Small-cluster geometry (mirrors the chaos engine's default).
_GEOMETRY = dict(num_cns=2, clients_per_cn=1, index_buckets=256,
                 blocks_per_mn=64, kv_size=256, block_size=8 * 1024)
_VALUE_SIZE = 180
_KEYS_PER_WRITER = 40
_OPS_PER_WRITER = 120
#: Writer ids embedded in keys; disjoint from any client id.
_WRITER_BASE = 1000

_MIX = (("UPDATE", 45), ("SEARCH", 25), ("INSERT", 15), ("DELETE", 15))


def _writer_ops(writer: int, seed: int) -> List[tuple]:
    """A fixed, seeded single-writer op list (keys embed the writer id,
    so per-key acknowledgement order is the serialisation order)."""
    rng = random.Random((seed << 20) ^ (writer << 4))
    verbs = [v for v, _w in _MIX]
    weights = [w for _v, w in _MIX]
    next_fresh = _KEYS_PER_WRITER
    ops = []
    for _ in range(_OPS_PER_WRITER):
        verb = rng.choices(verbs, weights=weights)[0]
        if verb == "INSERT":
            key = micro_key(writer, next_fresh)
            next_fresh += 1
            ops.append(("INSERT", key, rng.randbytes(_VALUE_SIZE)))
        elif verb == "UPDATE":
            ops.append(("UPDATE",
                        micro_key(writer, rng.randrange(_KEYS_PER_WRITER)),
                        rng.randbytes(_VALUE_SIZE)))
        elif verb == "DELETE":
            ops.append(("DELETE",
                        micro_key(writer, rng.randrange(_KEYS_PER_WRITER)),
                        b""))
        else:
            ops.append(("SEARCH",
                        micro_key(writer, rng.randrange(_KEYS_PER_WRITER)),
                        b""))
    return ops


def _drive(env, fe: FrontEnd, tenant: str, ops, history: oracle.History):
    """Closed-loop driver: submit, await the front-end ack, classify.

    The driver lives outside any compute node on purpose — the front-end
    decouples submitters from CNs, so a CN crash surfaces as a failed
    completion (indeterminate), never as a dead driver.
    """
    for verb, key, value in ops:
        req = fe.submit(tenant, verb, key, value)
        try:
            yield req.done
        except AdmissionError:
            if verb != "SEARCH":
                history.reject(key)  # shed before dispatch: a no-op
            continue
        except (NodeFailedError, RetryBudgetExceeded, AllocationError,
                IndexFullError):
            if verb != "SEARCH":
                history.indeterminate(key,
                                      None if verb == "DELETE" else value)
            continue
        if verb == "SEARCH":
            continue
        if req.outcome == "ok":
            history.ack(key, None if verb == "DELETE" else value)
        else:  # "miss": the key wasn't there — a no-op
            history.reject(key)


def _crash_later(env, delay: float, fn):
    yield env.timeout(delay)
    fn()


def run_frontend_chaos(seed: int = 1, obs=None) -> dict:
    """MN-crash + CN-crash under front-end write traffic; strict oracle."""
    cfg = aceso_config(**_GEOMETRY)
    cluster = AcesoCluster(cfg, obs=obs)
    env = cluster.env
    fe = FrontEnd(cluster, FrontEndConfig(cache_capacity=256))
    writers = []
    for idx in range(2):
        spec = fe.add_tenant(TenantSpec(
            name=f"writer{idx}", trace="CHAOS", rate=0.0,
            max_in_flight=8,
        ))
        writers.append((spec, _WRITER_BASE + idx))
    history = oracle.History()
    fe.start()

    def drain(procs, limit=240.0):
        done = env.all_of(procs)
        env.run_until_event(done, limit=env.now + limit)
        failures = env.unexpected_failures()
        if failures:
            proc = failures[0]
            raise AssertionError(
                f"front-end chaos process failed: {proc.name}: "
                f"{proc.value!r}"
            ) from proc.value

    # Load phase — through the front-end, acked into the history.
    load_procs = []
    for spec, writer in writers:
        rng = random.Random((seed << 12) ^ writer)
        ops = [("INSERT", micro_key(writer, i), rng.randbytes(_VALUE_SIZE))
               for i in range(_KEYS_PER_WRITER)]
        load_procs.append(env.process(
            _drive(env, fe, spec.name, ops, history),
            name=f"fe.chaos.load.{spec.name}",
        ))
    drain(load_procs)
    pre_versions, _ = oracle.walk_index(cluster)

    # Faults: one MN crash and one CN crash under traffic.
    num_mns = cfg.cluster.num_mns
    env.process(_crash_later(env, 0.004, lambda: cluster.crash_mn(1)),
                name="fe.chaos.crash_mn1")
    env.process(_crash_later(env, 0.008,
                             lambda: cluster.crash_cn(num_mns)),
                name=f"fe.chaos.crash_cn{num_mns}")

    procs = [
        env.process(_drive(env, fe, spec.name, _writer_ops(writer, seed),
                           history),
                    name=f"fe.chaos.{spec.name}")
        for spec, writer in writers
    ]
    # Quiesce: drivers done and every MN back to ALIVE/RECOVERED.
    deadline = env.now + 240.0
    master = cluster.master
    while env.now < deadline:
        mn_ok = all(
            master.mn_state(i) in (MnState.ALIVE, MnState.RECOVERED)
            for i in cluster.mns
        )
        if mn_ok and all(not p.is_alive for p in procs):
            break
        cluster.run(env.now + 0.005)
    else:
        raise AssertionError("front-end chaos run failed to quiesce")
    drain(procs)
    cluster.run(env.now + 0.1)

    checks, counters = oracle.evaluate(cluster, history, pre_versions,
                                       tolerate_unsealed_loss=False,
                                       loss_bound=0)
    counters = dict(counters)
    counters.update({f"fe_{k}": v
                     for k, v in sorted(fe.lane_counters().items())})
    return {
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
        "counters": counters,
        "seed": seed,
        "sim_time": env.now,
    }
