"""One run of one workload, in a process of its own.

Shape (identical for every workload): build -> load -> settle -> warm-up
-> **measured window** -> settle -> memory accounting -> epilogue (crash
MN 1 with no foreground traffic, run to ``RECOVERED``) -> read-back of
every loaded key the input never deletes, plus a structural index walk.

Returns plain dicts: ``sim`` holds every simulated-side number (exact per
seed, compared digit for digit across runs), ``host`` every host-side
one, ``layers`` the profiled self time and call count per layer.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import resource
import statistics
import time
from typing import Dict, List, Optional

from repro.bench.fig_recovery import crash_recover_report
from repro.chaos.oracle import walk_index
from repro.cluster.failures import FailureInjector
from repro.cluster.master import MnState
from repro.errors import KeyNotFoundError, RetryBudgetExceeded
from repro.sim.stats import percentile

from .hostclock import HostClock
from .layers import bucket
from .workloads import SETTLE, WORKLOADS, Bench, InputLog

#: Set-ups per run; ``setup_s`` is their median (the last one is measured).
SETUPS = 3
#: Traffic classes reported one by one (``net_bytes_per_op`` sums all).
TRAFFIC_CLASSES = ("client", "ec", "checkpoint", "meta", "rpc", "reclaim",
                   "recovery")
MB = float(1 << 20)
EPILOGUE_VICTIM = 1


def snapshot(cluster) -> dict:
    """Cumulative counters of every layer, read through public attributes."""
    mns = cluster.mns.values()
    return {
        "now": cluster.env.now,
        "events": cluster.env.scheduled_count,
        "bytes": dict(cluster.fabric.bytes_by_class),
        "cn_verbs": sum(cn.nic.messages for cn in cluster.cns.values()),
        "cn_busy": sum(cn.nic.busy_time for cn in cluster.cns.values()),
        "mn_busy": sum(mn.nic.busy_time for mn in mns),
        "rpc_busy": sum(mn.rpc_core.busy_time for mn in mns),
        "ec_busy": sum(mn.ec_core.busy_time for mn in mns),
        "cksend_busy": sum(mn.ckpt_send_core.busy_time for mn in mns),
        "ckrecv_busy": sum(mn.ckpt_recv_core.busy_time for mn in mns),
        "cache_hits": sum(c.cache.hits for c in cluster.clients),
        "cache_misses": sum(c.cache.misses for c in cluster.clients),
        "ckpt_rounds": {i: s.ckpt_rounds for i, s in cluster.servers.items()},
    }


def midmean(ordered: List[float]) -> float:
    """Mean of the middle half of sorted samples.  Simulated latencies
    come in discrete steps, so a plain median jumps a whole step (4-6 %)
    between seeds, or does not move at all; this moves smoothly."""
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter:len(ordered) - quarter])


def read_back(cluster, log: InputLog) -> Dict[str, int]:
    """SEARCH every readable key through a surviving client."""
    client = next(c for c in cluster.clients if c.alive)
    out = {"keys": 0, "lost": 0, "budget": 0, "alien": 0}

    def reader():
        for key in log.readable_keys():
            out["keys"] += 1
            try:
                value = yield from client.search(key)
            except KeyNotFoundError:
                out["lost"] += 1
            except RetryBudgetExceeded:
                out["budget"] += 1
            else:
                if hash(value) not in log.written[key]:
                    out["alien"] += 1      # a value nobody ever wrote

    cluster.env.run_until_event(cluster.env.process(reader(),
                                                    name="perfbench.readback"))
    return out


def account(window_ops: int, per_op: Dict[str, dict],
            counters: Dict[str, float], readback: Dict[str, int]) -> dict:
    """Attempted / failed operations of one run.

    Failed: ops ended by ``RetryBudgetExceeded``, in-window ops that
    missed a key (no workload addresses a key its input deleted, so each
    is a lost key), and read-back keys not found.  Keys the input
    deleted are not read back, so their absence is never a failure.
    """
    budget = int(counters.get("retry_budget_exceeded", 0))
    write_misses = sum(int(entry["errors"]) for entry in per_op.values())
    search_misses = int(counters.get("search_miss", 0))
    failed_readback = readback["lost"] + readback["budget"]
    return {
        # A SEARCH that misses is already in ``window_ops``; an op that
        # ran out of budget and a write that missed its key are not.
        "attempted": window_ops + budget + write_misses + readback["keys"],
        "failed": budget + write_misses + search_misses + failed_readback,
        "window_budget_exceeded": budget,
        "window_missed_keys": write_misses + search_misses,
        "readback_keys": readback["keys"],
        "readback_lost": failed_readback,
    }


def window_metrics(cluster, result, before: dict, after: dict) -> Dict[str, float]:
    """Simulated-side metrics of the measured window, from the counter
    snapshots on either side of it and the window's own statistics."""
    ops = result.total_ops
    per_op, counters = result.per_op, result.counters
    elapsed = after["now"] - before["now"]
    num_mns, num_cns = len(cluster.mns), len(cluster.cns)

    def delta(key: str) -> float:
        return after[key] - before[key]

    def class_bytes(cls: str) -> int:
        return after["bytes"].get(cls, 0) - before["bytes"].get(cls, 0)

    def latency(op: str, field: str) -> float:
        return per_op[op][field] if op in per_op else 0.0

    sim = {"harness.ops_in_window": ops, "sim_mops": result.total_mops}
    for side, op in (("read", "SEARCH"), ("write", "UPDATE")):
        samples = sorted(cluster.stats.per_op[op].latency.samples)
        sim[f"sim_{side}_mid_us"] = midmean(samples) * 1e6
        sim[f"sim_{side}_p95_us"] = percentile(samples, 95.0) * 1e6
    sim["net_bytes_per_op"] = sum(map(class_bytes, after["bytes"])) / ops

    sim["sim.engine.events_per_op"] = delta("events") / ops
    sim["rdma.cn_verbs_per_op"] = delta("cn_verbs") / ops
    for cls in TRAFFIC_CLASSES:
        sim[f"rdma.{cls}_bytes_per_op"] = class_bytes(cls) / ops
    sim["rdma.mn_nic_util"] = delta("mn_busy") / elapsed / num_mns
    sim["rdma.cn_nic_util"] = delta("cn_busy") / elapsed / num_cns
    for op in ("search", "update", "insert", "delete"):
        sim[f"core.api.{op}_p50_us"] = latency(op.upper(), "p50_us")
        sim[f"core.api.{op}_p99_us"] = latency(op.upper(), "p99_us")
    updates, searches = per_op["UPDATE"]["ops"], per_op["SEARCH"]["ops"]
    sim["core.api.cas_per_update"] = per_op["UPDATE"]["mean_cas"]
    sim["core.api.retries_per_update"] = per_op["UPDATE"]["retries"] / updates
    sim["core.api.commit_conflicts_per_update"] = \
        counters.get("commit_conflicts", 0) / updates
    for counter in ("retry_budget_exceeded", "lock_takeovers",
                    "search_interrupted", "degraded_reads"):
        sim[f"core.api.{counter}"] = counters.get(counter, 0)
    sim["index.cache_hit_ratio"] = delta("cache_hits") / (
        delta("cache_hits") + delta("cache_misses"))
    sim["index.cache_slot_changed_per_read"] = \
        counters.get("cache_slot_changed", 0) / searches
    sim["memory.reused_blocks"] = counters.get("reused_blocks", 0)
    sim["core.server.rpc_core_util"] = delta("rpc_busy") / elapsed / num_mns
    sim["ec.core_util"] = delta("ec_busy") / elapsed / num_mns
    sim["checkpoint.send_core_util"] = delta("cksend_busy") / elapsed / num_mns
    sim["checkpoint.recv_core_util"] = delta("ckrecv_busy") / elapsed / num_mns
    rounds = sum(after["ckpt_rounds"].values()) \
        - sum(before["ckpt_rounds"].values())
    sim["checkpoint.rounds"] = rounds
    sim["checkpoint.bytes_per_round"] = class_bytes("checkpoint") / max(rounds, 1)
    return sim


def aftermath_metrics(memory, report) -> Dict[str, float]:
    """Simulated-side metrics of the memory accounting and the epilogue."""
    return {
        "block_bytes_per_live_byte": memory.total / memory.valid,
        "memory.valid_mb": memory.valid / MB,
        "memory.obsolete_mb": memory.obsolete / MB,
        "memory.redundancy_mb": memory.redundancy / MB,
        "memory.delta_mb": memory.delta / MB,
        "memory.unused_mb": memory.unused_in_open_blocks / MB,
        "sim_recover_ms": report.total_time * 1e3,
        "core.recovery.meta_ms": report.meta_time * 1e3,
        "core.recovery.index_ms": report.index_time * 1e3,
        "core.recovery.block_ms": report.block_time * 1e3,
        "core.recovery.lost_mb": report.lost_bytes / MB,
        "core.recovery.kv_scanned": report.kv_count,
        "core.recovery.lblocks": report.lblock_count,
        "core.recovery.old_blocks": report.old_count,
    }


def run_workload(name: str, seed: int, scale: float,
                 profile_path: Optional[str] = None) -> dict:
    workload = WORKLOADS[name]
    window = workload.window * scale
    checks: List[dict] = []

    def check(what: str, ok: bool, detail: str, sizing: bool = False) -> None:
        # Sizing checks only bind at the nominal (or a longer) window.
        if not sizing or scale >= 1.0:
            checks.append({"check": what, "ok": bool(ok), "detail": detail})

    # -- set-up, several times; the last one is the one measured (a
    # -- profiled run sets up once: its ``setup_s`` is not used) -------------
    setup_times = []
    bench = None
    for _ in range(1 if profile_path else SETUPS):
        bench = None
        gc.collect()
        clock = HostClock()
        bench = Bench(workload, seed, window, on_cluster=clock.attach)
        setup_times.append(clock.stop().seconds)
    cluster, env, master = bench.cluster, bench.cluster.env, bench.cluster.master

    # -- the measured window --------------------------------------------------
    if workload.crash_mn is not None:
        FailureInjector(env, cluster).schedule_mn_crash(
            env.now + workload.crash_at * window, workload.crash_mn)
    profiler = cProfile.Profile() if profile_path else None
    before = snapshot(cluster)
    cpu0 = time.process_time()
    clock = HostClock(ops=cluster.stats.total_ops, interior=not profiler)
    clock.attach(cluster)
    if profiler:
        profiler.enable()
    result = bench.runner.measure(bench.streams, duration=window)
    if profiler:
        profiler.disable()
    clock.stop()
    cpu1 = time.process_time()
    after = snapshot(cluster)
    after["events"] -= clock.wakeups
    sim = window_metrics(cluster, result, before, after)
    per_op = result.per_op

    # -- in-window crash: the recovery must finish under load ------------------
    inload_total = inload_index = 0.0
    if workload.crash_mn is not None:
        victim = workload.crash_mn
        in_window = master.mn_state(victim) == MnState.RECOVERED
        done = master.milestone(victim, MnState.RECOVERED)
        if not in_window:
            env.run_until_event(done, limit=env.now + 600)
        crashed_at = next(t for t, kind, node in master.failure_log
                          if kind == "mn" and node == victim)
        inload_total = done.value - crashed_at
        inload_index = (master.milestone(victim, MnState.INDEX_RECOVERED).value
                        - crashed_at)
        check("in-window recovery reached RECOVERED before the window closed",
              in_window, f"{inload_total * 1e3:.2f} sim-ms after the crash",
              sizing=True)
    sim["core.recovery.inload_total_ms"] = inload_total * 1e3
    sim["core.recovery.inload_index_ms"] = inload_index * 1e3

    # -- memory accounting after the post-window settle, then the epilogue:
    # -- one MN failure with no foreground traffic ------------------------------
    cluster.run(env.now + SETTLE)
    memory = cluster.memory_distribution()
    epilogue_clock = HostClock()
    report = crash_recover_report(cluster, EPILOGUE_VICTIM)
    epilogue_clock.stop()
    sim.update(aftermath_metrics(memory, report))

    # -- read-back ----------------------------------------------------------------
    readback = read_back(cluster, bench.log)
    _versions, problems = walk_index(cluster)
    counts = account(result.total_ops, per_op, result.counters, readback)
    check("every value read back was written by the input",
          readback["alien"] == 0, f"{readback['alien']} alien values")
    sim["core.recovery.readback_lost_keys"] = counts["readback_lost"]
    sim["core.recovery.walk_problems"] = sum(len(v) for v in problems.values())

    # -- host side, in reference-host seconds (see hostclock.py) -------------
    window_speed = clock.seconds / clock.wall
    host = {
        "setup_s": statistics.median(setup_times),
        "host_ops_per_s": clock.midrate(),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim.engine.host_us_per_event":
            clock.seconds / (after["events"] - before["events"]) * 1e6,
        "core.recovery.host_s": epilogue_clock.seconds,
        "harness.window_wall_s": clock.wall,                # as measured
        "harness.window_host_s": clock.seconds,
        "harness.host_speed": window_speed,
        "harness.cpu_over_wall": (cpu1 - cpu0) / clock.span,
    }

    # -- sizing: is there enough in the window to trust the numbers? ----------
    for op in workload.ops:
        n = per_op[op]["ops"] if op in per_op else 0
        check(f"{op} has >= 10 samples beyond its p99", n >= 1000,
              f"{n} samples", sizing=True)
        check(f"{op} ran in the window", n > 0, f"{n} ops")
    if workload.needs_ckpt_rounds:
        rounds = {i: after["ckpt_rounds"][i] - before["ckpt_rounds"][i]
                  for i in after["ckpt_rounds"] if i != workload.crash_mn}
        check(">= 2 checkpoint rounds per surviving MN inside the window",
              min(rounds.values()) >= 2, f"rounds per MN {rounds}",
              sizing=True)

    layers = None
    if profiler:
        os.makedirs(os.path.dirname(profile_path), exist_ok=True)
        profiler.dump_stats(profile_path)
        layers = bucket(pstats.Stats(profiler).stats)

    return {
        "workload": name, "seed": seed, "window_sim_s": window,
        "sim": sim, "host": host, "layers": layers, "counts": counts,
        "samples": {op: per_op[op]["ops"] for op in sorted(per_op)},
        "walk_problems": {k: len(v) for k, v in problems.items()},
        "checks": checks,
    }
