"""Tests for the serving front-end: batching, caching, admission,
multiget, and determinism."""

from __future__ import annotations

import random

import pytest

from repro import aceso_config
from repro.core.store import AcesoCluster
from repro.errors import AdmissionError
from repro.frontend import (
    FrontEnd,
    FrontEndConfig,
    TenantSpec,
    ValueCache,
    run_frontend_chaos,
)
from repro.index.hashing import home_of
from repro.workloads.micro import micro_key
from tests.conftest import small_cluster_kwargs

_VALUE = b"v" * 120


def make_frontend(cache_capacity=1024, obs=None, tenant_kwargs=None,
                  **overrides):
    cluster = AcesoCluster(aceso_config(**small_cluster_kwargs(**overrides)),
                           obs=obs)
    fe = FrontEnd(cluster, FrontEndConfig(cache_capacity=cache_capacity))
    fe.add_tenant(TenantSpec(name="t0", trace="TEST", rate=100e3,
                             **(tenant_kwargs or {})))
    fe.start()
    return cluster, fe


def fe_call(cluster, fe, verb, key, value=b"", tenant="t0"):
    """Submit one request and drive it to completion synchronously."""

    def go():
        req = fe.submit(tenant, verb, key, value)
        out = yield req.done
        return out

    return cluster.run_op(go())


def load_core_keys(cluster, keys, value=_VALUE):
    """Populate keys through a raw client, bypassing the front-end (so
    the front-end's value caches stay cold)."""
    client = cluster.clients[0]
    for key in keys:
        cluster.run_op(client.insert(key, value))


# ------------------------------------------------------------ basic path

def test_write_then_read_roundtrip():
    cluster, fe = make_frontend()
    key = micro_key(7, 0)
    assert fe_call(cluster, fe, "INSERT", key, _VALUE) == _VALUE
    assert fe_call(cluster, fe, "SEARCH", key) == _VALUE
    assert fe_call(cluster, fe, "SEARCH", micro_key(7, 999)) is None


def test_cache_hit_serves_locally():
    cluster, fe = make_frontend()
    key = micro_key(7, 1)
    fe_call(cluster, fe, "INSERT", key, _VALUE)
    t0 = cluster.env.now

    def go():
        req = fe.submit("t0", "SEARCH", key)
        out = yield req.done
        return req, out

    req, out = cluster.run_op(go())
    assert out == _VALUE
    assert req.outcome == "hit"
    # A hit never touches the fabric: it completes in the local hit time.
    assert cluster.env.now - t0 == pytest.approx(fe.config.cache_hit_time)
    assert sum(lane.cache.hits for lane in fe.lanes) >= 1


def test_cache_invalidation_on_update_and_delete():
    cluster, fe = make_frontend()
    key = micro_key(7, 2)
    fe_call(cluster, fe, "INSERT", key, b"a" * 100)
    assert fe_call(cluster, fe, "SEARCH", key) == b"a" * 100
    fe_call(cluster, fe, "UPDATE", key, b"b" * 100)
    assert fe_call(cluster, fe, "SEARCH", key) == b"b" * 100
    fe_call(cluster, fe, "DELETE", key)
    assert not any(key in lane.cache._entries for lane in fe.lanes)
    assert fe_call(cluster, fe, "SEARCH", key) is None


def test_cache_dropped_after_mn_failure():
    cluster, fe = make_frontend()
    num_mns = cluster.config.cluster.num_mns
    keys = [micro_key(7, i) for i in range(30)]
    for key in keys:
        fe_call(cluster, fe, "INSERT", key, _VALUE)
    doomed = [k for k in keys if home_of(k, num_mns) == 1]
    assert doomed, "expected at least one key homed on mn1"
    assert any(k in lane.cache._entries for lane in fe.lanes for k in doomed)
    cluster.crash_mn(1)
    # Recovery may restore older committed state for keys homed there:
    # the failure listener must have dropped every such entry.
    assert not any(k in lane.cache._entries for lane in fe.lanes for k in doomed)
    survivors = [k for k in keys if home_of(k, num_mns) != 1]
    assert any(k in lane.cache._entries for lane in fe.lanes for k in survivors)


# ------------------------------------------------------------ admission

def test_admission_sheds_over_budget():
    cluster, fe = make_frontend(tenant_kwargs=dict(max_in_flight=1))
    r1 = fe.submit("t0", "INSERT", micro_key(7, 3), _VALUE)
    r2 = fe.submit("t0", "INSERT", micro_key(7, 4), _VALUE)
    assert not r1.shed
    assert r2.shed and r2.outcome == "shed"
    cluster.run(cluster.env.now + 0.01)
    assert r1.outcome == "ok"
    # Budget freed: the next submission is admitted again.
    assert fe_call(cluster, fe, "INSERT", micro_key(7, 5), _VALUE) == _VALUE


def test_shed_request_raises_admission_error():
    cluster, fe = make_frontend(tenant_kwargs=dict(max_in_flight=1))

    def go():
        fe.submit("t0", "INSERT", micro_key(7, 6), _VALUE)
        req = fe.submit("t0", "INSERT", micro_key(7, 7), _VALUE)
        yield req.done

    with pytest.raises(AdmissionError):
        cluster.run_op(go())


# ------------------------------------------------------------ batching

def test_batches_form_under_load():
    cluster, fe = make_frontend()
    keys = [micro_key(7, i) for i in range(16)]
    load_core_keys(cluster, keys)
    reqs = [fe.submit("t0", "SEARCH", key) for key in keys]
    done = cluster.env.all_of([r.done for r in reqs])
    cluster.env.run_until_event(done)
    assert all(r.outcome == "ok" for r in reqs)
    assert max(lane.max_batch_seen for lane in fe.lanes) > 1
    assert sum(lane.batched_requests for lane in fe.lanes) == 16


def test_single_request_drains_at_latency_target():
    cluster, fe = make_frontend()
    key = micro_key(7, 20)
    load_core_keys(cluster, [key])
    t0 = cluster.env.now
    assert fe_call(cluster, fe, "SEARCH", key) == _VALUE
    # An idle lane must not linger on a lone request: one core search
    # plus dispatch, well inside the latency target.
    assert cluster.env.now - t0 < fe.config.latency_target


# ------------------------------------------------------------ rerouting

def test_cn_crash_reroutes_queued_requests():
    cluster, fe = make_frontend()
    keys = [micro_key(7, i) for i in range(12)]
    load_core_keys(cluster, keys)
    lane0 = fe.lanes[0]
    mine = [k for k in keys if fe._lane_for(k) is lane0]
    assert mine, "expected keys routed to lane 0"
    reqs = [fe.submit("t0", "SEARCH", k) for k in mine]
    cluster.crash_cn(lane0.cn_id)  # before the dispatcher ever ran
    assert not lane0.alive
    done = cluster.env.all_of([r.done for r in reqs])
    cluster.env.run_until_event(done)
    assert all(r.outcome == "ok" for r in reqs)
    assert all(r.rerouted for r in reqs)


def test_routing_stable_across_cn_failure():
    """Rendezvous routing: a CN failure remaps only the dead lane's
    keys; every other key keeps its lane (whose cache stays valid)."""
    cluster, fe = make_frontend(num_cns=3)
    keys = [micro_key(7, i) for i in range(64)]
    before = {k: fe._lane_for(k) for k in keys}
    assert len({lane.cn_id for lane in before.values()}) == 3
    victim = fe.lanes[0]
    cluster.crash_cn(victim.cn_id)
    for k in keys:
        if before[k] is victim:
            assert fe._lane_for(k) is not victim
        else:
            assert fe._lane_for(k) is before[k]


def test_second_cn_failure_never_serves_stale_cache():
    """Reviewer scenario: after two CN failures a key must never route
    to a lane that cached its value before an earlier failure while the
    interim writes flowed through a different lane."""
    cluster, fe = make_frontend(num_cns=3)
    keys = [micro_key(7, i) for i in range(40)]
    old, new = b"a" * 100, b"b" * 100
    for k in keys:
        fe_call(cluster, fe, "INSERT", k, old)
    cluster.crash_cn(fe.lanes[0].cn_id)
    for k in keys:
        fe_call(cluster, fe, "UPDATE", k, new)
    cluster.crash_cn(next(ln for ln in fe.lanes if ln.alive).cn_id)
    for k in keys:
        assert fe_call(cluster, fe, "SEARCH", k) == new


# ------------------------------------------------------------ multiget

def test_multiget_matches_single_search():
    cluster = AcesoCluster(aceso_config(**small_cluster_kwargs()))
    cluster.start()
    client = cluster.clients[0]
    keys = [micro_key(7, 50 + i) for i in range(8)]
    values = {k: bytes([i]) * 100 for i, k in enumerate(keys)}
    for k in keys:
        cluster.run_op(client.insert(k, values[k]))
    absent = micro_key(7, 999)
    out = cluster.run_op(client.search_many(keys + [absent]))
    for k in keys:
        assert out[k] == ("ok", cluster.run_op(client.search(k)))
        assert out[k] == ("ok", values[k])
    assert out[absent] == ("miss", None)


# ------------------------------------------------------------ value cache

def test_value_cache_fill_tokens():
    """Read fills are conditional: any write-path mutation (or failure
    invalidation) between token capture and fill drops the fill."""
    cache = ValueCache(capacity=8)
    key = micro_key(1, 10)
    token = cache.gen(key)
    assert cache.fill(key, b"v1", token)      # no intervening write
    assert cache.get(key) == b"v1"
    token = cache.gen(key)
    cache.put(key, b"v2")                     # a write completed
    assert not cache.fill(key, b"v1", token)  # stale read result dropped
    assert cache.get(key) == b"v2"
    token = cache.gen(key)
    cache.invalidate(key)                     # delete also staleness
    assert not cache.fill(key, b"v2", token)
    assert key not in cache._entries
    token = cache.gen(key)
    cache.clear()                             # failure epoch bump
    assert not cache.fill(key, b"v2", token)
    assert cache.stale_fills == 3


def test_read_fill_cannot_overwrite_concurrent_write():
    """A lane runs one dispatcher per client, so a slow fabric read can
    complete after a concurrent write to the same key was acknowledged;
    the read's value must not clobber the newer cached value."""
    cluster, fe = make_frontend()
    key = micro_key(7, 60)
    old, new = b"a" * 100, b"b" * 100
    load_core_keys(cluster, [key], value=old)
    lane = fe._lane_for(key)
    req = fe.submit("t0", "SEARCH", key)
    # Let the dispatcher pop the request and issue its fabric read...
    cluster.run(cluster.env.now + 2e-6)
    assert not req.done.triggered, "search finished before the write"
    # ...then a concurrent dispatcher commits a newer value and acks.
    lane.cache.put(key, new)
    cluster.env.run_until_event(req.done)
    # The in-flight read returned the old value to its caller (the ops
    # overlapped, so that is linearizable) but must not cache it.
    assert lane.cache.get(key) == new
    assert lane.cache.stale_fills >= 1


def test_racing_updates_leave_the_lane_cache_coherent():
    """Two dispatchers of one lane race UPDATEs on one key.  A write that
    returned overwritten was linearized before the commit that beat it,
    so the lane must not cache its value: afterwards the cached value,
    if any, is what a SEARCH through the core reads."""
    cluster, fe = make_frontend(clients_per_cn=2)
    key = micro_key(7, 61)
    load_core_keys(cluster, [key])
    lane = fe._lane_for(key)
    assert len(lane.clients) == 2
    env, core = cluster.env, cluster.clients[0]

    def race(rnd):
        first = fe.submit("t0", "UPDATE", key, b"a%03d" % rnd * 25)
        yield env.timeout(1e-7)         # the other dispatcher takes this
        second = fe.submit("t0", "UPDATE", key, b"b%03d" % rnd * 25)
        yield env.all_of([first.done, second.done])

    for rnd in range(20):
        cluster.run_op(race(rnd))
        direct = cluster.run_op(core.search(key))
        assert lane.cache._entries.get(key, direct) == direct, rnd
        assert fe_call(cluster, fe, "SEARCH", key) == direct
    assert cluster.stats.counters["overwritten"] > 0


def test_value_cache_lru_and_home_invalidation():
    cache = ValueCache(capacity=2)
    k0, k1, k2 = micro_key(1, 0), micro_key(1, 1), micro_key(1, 2)
    cache.put(k0, b"0")
    cache.put(k1, b"1")
    assert cache.get(k0) == b"0"   # refresh k0
    cache.put(k2, b"2")            # evicts k1 (LRU)
    assert k1 not in cache._entries
    assert k0 in cache._entries and k2 in cache._entries
    num_mns = 5
    dropped = cache.invalidate_home(home_of(k0, num_mns), num_mns)
    assert dropped >= 1 and k0 not in cache._entries


# ------------------------------------------------------------ determinism

def _mini_replay(obs=None, seed=5):
    cluster = AcesoCluster(aceso_config(**small_cluster_kwargs()), obs=obs)
    fe = FrontEnd(cluster, FrontEndConfig())
    specs = [fe.add_tenant(TenantSpec(name=f"t{i}", trace="TEST",
                                      rate=100e3)) for i in range(2)]
    fe.start()
    env = cluster.env

    def ops_for(idx):
        rng = random.Random((seed << 8) ^ idx)
        writer = 100 + idx
        ops = [("INSERT", micro_key(writer, i), rng.randbytes(100))
               for i in range(10)]
        for _ in range(30):
            verb = rng.choice(("SEARCH", "UPDATE", "SEARCH", "DELETE"))
            key = micro_key(writer, rng.randrange(10))
            ops.append((verb, key,
                        rng.randbytes(100) if verb == "UPDATE" else b""))
        return ops

    def driver(idx):
        for verb, key, value in ops_for(idx):
            req = fe.submit(f"t{idx}", verb, key, value)
            try:
                yield req.done
            except Exception:
                pass

    fe.slo.open_window(env.now)
    procs = [env.process(driver(i)) for i in range(2)]
    env.run_until_event(env.all_of(procs), limit=env.now + 10.0)
    fe.slo.close_window(env.now)
    assert not env.unexpected_failures()
    return env.now, tuple(sorted(fe.slo.row(s).items()) for s in specs)


def test_replay_deterministic_across_runs_and_tracing():
    base = _mini_replay()
    assert _mini_replay() == base
    from repro.obs import Observability
    assert _mini_replay(obs=Observability(enabled=True)) == base


# ------------------------------------------------------------ chaos

def test_chaos_through_frontend_keeps_invariants():
    report = run_frontend_chaos(seed=1)
    failing = [c for c in report["checks"] if not c["ok"]]
    assert report["ok"], "; ".join(
        f"{c['invariant']}: {c['detail']}" for c in failing)
    assert report["counters"]["ops_acked"] > 0
    assert report["counters"]["keys_lost"] == 0


# ------------------------------------------------------------ obs demo

def test_obs_demo_counts_requests_served_in_the_window():
    """The demo's front-end stage reports the SLO book's served count
    (1954 + 1221 + 798 over the three tenants), not the lanes' cache
    hits, which also count warm-up and drain."""
    from repro.obs.__main__ import _frontend_stage

    text = _frontend_stage("smoke")
    assert "; 3973 requests served in the measured window]" in text
    assert '"cache_hits": 1995,' in text
