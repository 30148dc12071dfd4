"""Cluster substrate tests: nodes, master, failure injection."""

import pytest

from repro.cluster import (
    FailureEvent,
    FailureInjector,
    Master,
    MnState,
    estimate_meta_record_size,
)
from repro.errors import NodeFailedError
from repro.sim import Environment

from tests.conftest import make_aceso


#: The engine once had four interchangeable event-queue backends and this
#: fixture ran every case once per backend; the queue is now a single heapq
#: inside Environment.  The ids are kept so every case keeps its name until
#: this file's identical cases are folded, and each builds the same
#: Environment.
@pytest.fixture(params=["adaptive", "calendar", "flatheap", "heapq"])
def env(request) -> Environment:
    return Environment()


# ---------------------------------------------------------------- nodes

def test_mn_memory_layout_disjoint(aceso):
    mn = aceso.mns[0]
    assert mn.index_region.size <= mn.meta_base
    assert mn.meta_base < mn.block_base
    assert mn.blocks.base_offset == mn.block_base


def test_mn_read_write_dispatch(aceso):
    mn = aceso.mns[0]
    # index area
    mn.write_bytes(0, b"\x01" * 8)
    assert mn.read_bytes(0, 8) == b"\x01" * 8
    # block area
    meta = mn.blocks.allocate_specific(0, role=mn.blocks.meta[0].role.DATA,
                                       slot_size=64, slots=4)
    offset = mn.blocks.offset_of(0)
    mn.write_bytes(offset, b"block-bytes")
    assert mn.read_bytes(offset, 11) == b"block-bytes"


def test_mn_read_lost_block_fails(aceso):
    mn = aceso.mns[1]
    meta = mn.blocks.allocate(role=mn.blocks.meta[0].role.DATA,
                              slot_size=64, slots=4)
    meta.valid = False
    with pytest.raises(NodeFailedError):
        mn.read_bytes(mn.blocks.offset_of(meta.block_id), 8)


def test_mn_cas_restricted_to_index(aceso):
    mn = aceso.mns[0]
    with pytest.raises(IndexError):
        mn.cas_u64(mn.block_base, 0, 1)


def test_mn_crash_wipes_backups(aceso):
    mn = aceso.mns[2]
    mn.ckpt_images[0] = object()
    mn.meta_replicas[0] = {}
    mn.crash()
    assert not mn.alive
    assert mn.ckpt_images == {}
    assert mn.meta_replicas == {}
    assert not aceso.fabric.is_alive(2)


def test_mn_reset_requires_crash(aceso):
    with pytest.raises(RuntimeError):
        aceso.mns[0].reset_for_recovery()


def test_cpu_utilisation_report(aceso):
    util = aceso.mns[0].cpu_utilisation(1.0)
    assert set(util) == {"rpc", "ec", "ckpt_send", "ckpt_recv"}
    assert all(0.0 <= v <= 1.0 for v in util.values())


def test_meta_record_size_estimate():
    small = estimate_meta_record_size(slots_per_block=8, stripe_width=5)
    big = estimate_meta_record_size(slots_per_block=1024, stripe_width=5)
    assert big > small
    assert small > 40


# ---------------------------------------------------------------- master

def test_master_detection_delay(env):
    master = Master(env, detection_delay=0.01)
    master.register_mn(0)
    recovered = []
    master.set_recovery_callback(lambda n: recovered.append((n, env.now)))
    master.report_mn_failure(0)
    env.run()
    assert recovered == [(0, pytest.approx(0.01))]


def test_master_duplicate_failure_ignored(env):
    master = Master(env, detection_delay=0.01)
    master.register_mn(0)
    calls = []
    master.set_recovery_callback(calls.append)
    master.report_mn_failure(0)
    master.report_mn_failure(0)
    env.run()
    assert calls == [0]


def test_master_milestone_wakes_waiters(env):
    master = Master(env)
    master.register_mn(1)
    master.report_mn_failure(1)
    log = []

    def waiter():
        yield master.milestone(1, MnState.INDEX_RECOVERED)
        log.append(env.now)

    env.process(waiter())
    env.run(until=0.5)
    assert log == []
    master.reach_milestone(1, MnState.INDEX_RECOVERED)
    env.run(until=1.0)
    assert log == [0.5]
    assert master.mn_writable(1)
    assert master.mn_degraded(1)


def test_master_cn_bookkeeping(env):
    master = Master(env)
    master.report_cn_failure(7)
    assert 7 in master.failed_cns
    master.report_cn_recovered(7)
    assert 7 not in master.failed_cns


# ---------------------------------------------------------------- injector

def test_injector_fires_at_time():
    cluster = make_aceso()
    injector = FailureInjector(cluster.env, cluster)
    injector.schedule_mn_crash(0.02, 3)
    cluster.env.run(until=0.01)
    assert cluster.mns[3].alive
    assert not injector.injected
    cluster.env.run(until=0.0201)
    # the crash fired (recovery may already be under way on an empty node)
    assert injector.injected == [FailureEvent(0.02, "mn", 3)]
    assert cluster.master.failure_log[0][1:] == ("mn", 3)


def test_injector_cn_crash():
    cluster = make_aceso()
    injector = FailureInjector(cluster.env, cluster)
    cn_id = cluster.clients[0].cn.node_id
    injector.schedule(FailureEvent(0.01, "cn", cn_id))
    cluster.env.run(until=0.02)
    assert not cluster.cns[cn_id].alive
    assert not cluster.clients[0].alive


def test_injector_rejects_unknown_kind():
    cluster = make_aceso()
    injector = FailureInjector(cluster.env, cluster)
    with pytest.raises(ValueError):
        injector.schedule(FailureEvent(0.1, "switch", 0))


def test_injector_delayed_mn_recover():
    """With auto_recover off, a crashed MN stays FAILED until the armed
    recover_mn event fires; recovery then runs to the full milestone."""
    cluster = make_aceso()
    cluster.master.auto_recover = False
    injector = FailureInjector(cluster.env, cluster)
    injector.schedule_mn_crash(0.005, 2)
    injector.schedule(FailureEvent(0.02, "recover_mn", 2))
    cluster.env.run(until=0.015)
    # well past the detection delay, but nobody triggered recovery
    assert cluster.master.mn_state(2) == MnState.FAILED
    cluster.env.run_until_event(cluster.master.milestone(2, MnState.RECOVERED))
    assert cluster.master.mn_state(2) == MnState.RECOVERED
    kinds = [(ev.kind, ev.node_id) for ev in injector.injected]
    assert kinds == [("mn", 2), ("recover_mn", 2)]


def test_injector_cn_rejoin_restarts_clients():
    cluster = make_aceso()
    injector = FailureInjector(cluster.env, cluster)
    cn_id = cluster.clients[0].cn.node_id
    cli_id = cluster.clients[0].cli_id
    injector.schedule(FailureEvent(0.005, "cn", cn_id))
    injector.schedule(FailureEvent(0.02, "rejoin_cn", cn_id))
    cluster.env.run(until=0.01)
    assert not cluster.cns[cn_id].alive
    assert cn_id in cluster.master.failed_cns
    cluster.env.run(until=0.05)
    assert cluster.cns[cn_id].alive
    revived = [c for c in cluster.clients
               if c.cli_id == cli_id and c.alive]
    assert revived, "rejoin did not restart the CN's dead client"
    assert cn_id not in cluster.master.failed_cns


def test_injector_trigger_recovery_guards():
    """trigger_recovery is a no-op for nodes that are not FAILED."""
    cluster = make_aceso()
    assert not cluster.master.trigger_recovery(0)   # alive node
    cluster.master.auto_recover = False
    cluster.crash_mn(0)
    assert cluster.master.trigger_recovery(0)       # failed node: starts
    cluster.env.run_until_event(
        cluster.master.milestone(0, MnState.META_RECOVERED))
    # past the first tier the node is no longer FAILED: re-triggering
    # must refuse rather than race a second recovery
    assert not cluster.master.trigger_recovery(0)
