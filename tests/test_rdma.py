"""Tests for the RDMA model: verbs, NICs, fabric, RPC."""

import pytest

from repro.config import NICConfig
from repro.errors import NodeFailedError
from repro.rdma import (
    ATOMIC_SIZE,
    WIRE_HEADER,
    Fabric,
    Opcode,
    RNIC,
    RpcServer,
    Verb,
    rpc_call,
)
from repro.sim import Environment, ThroughputServer


# ------------------------------------------------------------------ verbs

def test_atomic_verbs_require_8_bytes():
    with pytest.raises(ValueError):
        Verb(Opcode.CAS, 16)
    Verb(Opcode.CAS, ATOMIC_SIZE)  # ok


def test_negative_payload_rejected():
    with pytest.raises(ValueError):
        Verb(Opcode.READ, -1)


def test_wire_size_includes_header():
    """A READ's data crosses the wire with one header; the source NIC,
    which receives it, is charged exactly that."""
    assert Verb(Opcode.READ, 100).src_size(inline_max=256) == \
        100 + WIRE_HEADER


def test_read_request_is_small():
    """The source is charged a READ's response (its data), which the
    inline threshold, a request-side rule, does not change."""
    verb = Verb(Opcode.READ, 4096)
    assert verb.src_size(inline_max=256) == 4096 + WIRE_HEADER
    assert verb.src_size(inline_max=1 << 20) == 4096 + WIRE_HEADER


def test_inline_write_skips_source_payload():
    small = Verb(Opcode.WRITE, 64)
    big = Verb(Opcode.WRITE, 4096)
    assert small.src_size(inline_max=256) == WIRE_HEADER
    assert big.src_size(inline_max=256) == 4096 + WIRE_HEADER


def test_write_response_is_ack():
    """An inlined WRITE costs its source one header: the request skips
    the payload and the response is a header-only ACK."""
    assert Verb(Opcode.WRITE, 4096).src_size(inline_max=4096) == \
        WIRE_HEADER


def test_atomic_response_carries_old_value():
    assert Verb(Opcode.CAS, 8).src_size(inline_max=256) == 8 + WIRE_HEADER


# ------------------------------------------------------------------ NIC

def _nic(env, node_id=0, **overrides):
    cfg = NICConfig(**overrides) if overrides else NICConfig()
    return RNIC(env, cfg, node_id)


def _completion_times(env, verbs, **nic_overrides):
    """When each verb, all posted at time 0 from NIC 0 to NIC 1 of a
    fabric with no propagation delay, completes."""
    fabric = Fabric(env)
    cfg = NICConfig(rtt=0.0, **nic_overrides)
    a, b = (fabric.register(RNIC(env, cfg, i)) for i in range(2))
    done = []
    for verb in verbs:
        fabric.post(a, b, verb).add_callback(
            lambda _ev: done.append(env.now))
    env.run()
    return done


def test_small_message_iops_bound(env):
    done = _completion_times(env, [Verb(Opcode.READ, 8)],
                             iops=1e6, bandwidth=1e12)
    assert done == [pytest.approx(1e-6)]


def test_large_message_bandwidth_bound(env):
    done = _completion_times(env, [Verb(Opcode.READ, 1_000_000)],
                             iops=1e12, bandwidth=1e9)
    assert done == [pytest.approx((1_000_000 + WIRE_HEADER) / 1e9)]


def test_doorbell_batching_amortises_op_cost(env):
    """The service-time shapes the Fabric charges: one message per
    doorbell pays the per-message cost once per ring."""
    nic = _nic(env, iops=1e6, bandwidth=1e12)
    batched = nic._svc_cache[(120, 1, 0)]
    unbatched = nic._svc_cache[(120, 3, 0)]
    assert unbatched == pytest.approx(3 * batched)


def test_nic_fifo_queueing(env):
    done = _completion_times(env, [Verb(Opcode.READ, 8)] * 2,
                             iops=1e6, bandwidth=1e12)
    assert done == [pytest.approx(1e-6), pytest.approx(2e-6)]


# ------------------------------------------------------------------ fabric

def make_fabric(env, nodes=2, **nic_overrides):
    fabric = Fabric(env)
    cfg = NICConfig(**nic_overrides) if nic_overrides else NICConfig()
    nics = [fabric.register(RNIC(env, cfg, i)) for i in range(nodes)]
    return fabric, nics


def test_fabric_read_executes_side_effect(env):
    fabric, (a, b) = make_fabric(env)

    def proc():
        value = yield fabric.read(a, b, 64, execute=lambda: "payload")
        return (value, env.now)

    p = env.process(proc())
    env.run()
    value, when = p.value
    assert value == "payload"
    assert when >= a.config.rtt  # at least the propagation delay


def test_fabric_duplicate_registration_rejected(env):
    fabric, (a, b) = make_fabric(env)
    with pytest.raises(ValueError):
        fabric.register(RNIC(env, NICConfig(), 0))


def test_fabric_post_to_dead_node_fails(env):
    fabric, (a, b) = make_fabric(env)
    fabric.kill(1)

    def proc():
        try:
            yield fabric.read(a, b, 64)
        except NodeFailedError as exc:
            return exc.node_id

    p = env.process(proc())
    env.run()
    assert p.value == 1


def test_fabric_inflight_verbs_lost_on_crash(env):
    fabric, (a, b) = make_fabric(env)

    def crasher():
        yield env.timeout(1e-6)
        fabric.kill(1)

    def proc():
        try:
            yield fabric.write(a, b, 10_000_000)  # slow transfer
        except NodeFailedError:
            return "lost"

    env.process(crasher())
    p = env.process(proc())
    env.run()
    assert p.value == "lost"


def test_fabric_batch_returns_results_in_order(env):
    fabric, (a, b) = make_fabric(env)
    verbs = [Verb(Opcode.READ, 8, execute=lambda i=i: i) for i in range(3)]

    def proc():
        values = yield fabric.post_batch(a, b, verbs)
        return values

    p = env.process(proc())
    env.run()
    assert p.value == [0, 1, 2]


def test_fabric_empty_batch_rejected(env):
    fabric, (a, b) = make_fabric(env)
    with pytest.raises(ValueError):
        fabric.post_batch(a, b, [])


def test_fabric_cas_serialises_conflicts(env):
    """Two concurrent CASes on one word: exactly one wins."""
    fabric, (a, b) = make_fabric(env)
    word = [0]

    def cas(expected, new):
        def execute():
            if word[0] == expected:
                word[0] = new
                return True
            return False
        return execute

    results = []

    def client(new):
        ok = yield fabric.cas(a, b, cas(0, new))
        results.append(ok)

    env.process(client(1))
    env.process(client(2))
    env.run()
    assert sorted(results) == [False, True]
    assert word[0] in (1, 2)


def test_fabric_tracks_traffic_classes(env):
    fabric, (a, b) = make_fabric(env)

    def proc():
        yield fabric.write(a, b, 1000, traffic_class="checkpoint")

    env.process(proc())
    env.run()
    assert fabric.bytes_by_class["checkpoint"] == 1000 + WIRE_HEADER


def test_fabric_execute_exception_fails_event(env):
    fabric, (a, b) = make_fabric(env)

    def boom():
        raise IndexError("bad offset")

    def proc():
        try:
            yield fabric.read(a, b, 8, execute=boom)
        except IndexError:
            return "caught"

    p = env.process(proc())
    env.run()
    assert p.value == "caught"


def test_checkpoint_traffic_delays_client_reads(env):
    """Bandwidth interference: a bulk transfer inflates read latency on
    the shared destination NIC (the Fig. 1b effect)."""
    fabric, nics = make_fabric(env, nodes=3, iops=1e7, bandwidth=1e9)
    client, mn, other = nics

    def bulk():
        yield fabric.write(other, mn, 1_000_000, traffic_class="checkpoint")

    def read_after(delay):
        yield env.timeout(delay)
        t0 = env.now
        yield fabric.read(client, mn, 1024)
        return env.now - t0

    baseline = env.process(read_after(0.0))
    env.run()
    quiet_latency = baseline.value

    env2 = Environment()
    fabric2, nics2 = make_fabric(env2, nodes=3, iops=1e7, bandwidth=1e9)
    client2, mn2, other2 = nics2

    def bulk2():
        yield fabric2.write(other2, mn2, 1_000_000)

    def read2():
        yield env2.timeout(1e-5)  # bulk transfer still in flight
        t0 = env2.now
        yield fabric2.read(client2, mn2, 1024)
        return env2.now - t0

    env2.process(bulk2())
    p = env2.process(read2())
    env2.run()
    assert p.value > quiet_latency * 5


# ------------------------------------------------------------------ RPC

def make_rpc_pair(env):
    fabric, (cli, srv_nic) = make_fabric(env)
    core = ThroughputServer(env)
    server = RpcServer(env, fabric, srv_nic, core, handle_time=2e-6)
    return fabric, cli, server


def test_rpc_roundtrip(env):
    fabric, cli, server = make_rpc_pair(env)
    server.register("echo", lambda x: x * 2)
    server.start()

    def proc():
        value = yield from rpc_call(env, fabric, cli, server, "echo", 21)
        return value

    p = env.process(proc())
    env.run()
    assert p.value == 42
    assert server.requests_served == 1


def test_rpc_generator_handler(env):
    fabric, cli, server = make_rpc_pair(env)

    def handler(x):
        yield env.timeout(1e-6)
        return x + 1

    server.register("slow", handler)
    server.start()

    def proc():
        value = yield from rpc_call(env, fabric, cli, server, "slow", 1)
        return value

    p = env.process(proc())
    env.run()
    assert p.value == 2


def test_rpc_unknown_method_raises(env):
    fabric, cli, server = make_rpc_pair(env)
    server.start()

    def proc():
        try:
            yield from rpc_call(env, fabric, cli, server, "nope")
        except NodeFailedError:
            return "error"

    p = env.process(proc())
    env.run()
    assert p.value == "error"


def test_rpc_handler_exception_propagates_to_caller(env):
    fabric, cli, server = make_rpc_pair(env)

    def bad():
        raise ValueError("handler blew up")

    server.register("bad", bad)
    server.start()

    def proc():
        try:
            yield from rpc_call(env, fabric, cli, server, "bad")
        except ValueError as exc:
            return str(exc)

    p = env.process(proc())
    env.run()
    assert p.value == "handler blew up"
    # crucially, the serving loop survived:
    server.register("ok", lambda: 1)

    def proc2():
        return (yield from rpc_call(env, fabric, cli, server, "ok"))

    p2 = env.process(proc2())
    env.run()
    assert p2.value == 1


def test_rpc_times_out_on_dead_server(env):
    fabric, cli, server = make_rpc_pair(env)
    server.start()

    def killer():
        yield env.timeout(1e-6)
        fabric.kill(1)

    def proc():
        try:
            yield from rpc_call(env, fabric, cli, server, "anything",
                                timeout=1e-4)
        except NodeFailedError:
            return env.now

    env.process(killer())
    p = env.process(proc())
    env.run()
    assert p.value is not None


def test_rpc_stop_mid_handler_serves_nothing_more(env):
    """stop() while a generator handler is suspended (the node crashed)
    ends the serving loop: requests already queued must not run against
    the crashed node's wiped state."""
    fabric, cli, server = make_rpc_pair(env)
    served = []

    def handler(i):
        yield env.timeout(10e-6)
        served.append(i)

    server.register("slow", handler)
    loop = server.start()

    def proc(i):
        try:
            yield from rpc_call(env, fabric, cli, server, "slow", i,
                                timeout=1e-4)
        except NodeFailedError:
            pass

    def crash():
        yield env.timeout(8e-6)     # first handler running, second queued
        server.stop()

    for i in range(2):
        env.process(proc(i))
    env.process(crash())
    env.run()
    assert served == []
    assert not loop.is_alive


def test_rpc_duplicate_handler_rejected(env):
    fabric, cli, server = make_rpc_pair(env)
    server.register("m", lambda: 1)
    with pytest.raises(ValueError):
        server.register("m", lambda: 2)


def test_rpc_serves_requests_in_order(env):
    fabric, cli, server = make_rpc_pair(env)
    log = []
    server.register("tag", lambda i: log.append(i))
    server.start()

    def proc(i):
        yield from rpc_call(env, fabric, cli, server, "tag", i)

    for i in range(4):
        env.process(proc(i))
    env.run()
    assert log == [0, 1, 2, 3]


def test_rpc_occupies_serving_core(env):
    fabric, cli, server = make_rpc_pair(env)
    server.register("noop", lambda: None)
    server.start()

    def proc():
        for _ in range(5):
            yield from rpc_call(env, fabric, cli, server, "noop")

    env.process(proc())
    env.run()
    assert server.serving_core.busy_time == pytest.approx(5 * 2e-6)


def test_batch_group_pays_one_doorbell_per_side():
    """A posted group costs one op overhead per side (plus wire bytes)
    instead of one per verb — so a 4-verb batch finishes far sooner than
    the same 4 verbs posted one by one."""

    def elapsed(batched):
        e = Environment()
        fabric = Fabric(e)
        cfg = NICConfig(iops=1e6, bandwidth=1e12)
        a = fabric.register(RNIC(e, cfg, 0))
        b = fabric.register(RNIC(e, cfg, 1))
        verbs = [Verb(Opcode.READ, 64) for _ in range(4)]

        def proc():
            if batched:
                yield fabric.post_batch(a, b, verbs)
            else:
                yield e.all_of([fabric.post(a, b, v) for v in verbs])

        e.process(proc())
        e.run()
        return e.now

    batched = elapsed(True)
    unbatched = elapsed(False)
    # The unbatched verbs pay at least 3 extra doorbells (1 us each at
    # 1 Mops) on the posting side alone; wire/propagation is shared.
    assert unbatched > 2 * batched
    assert unbatched - batched >= 2.9e-6


# ------------------------------------------------------------------ one post path

CFG = NICConfig()
BACKLOG = 100_000                # bytes of the WRITE that fills both FIFOs


def service(wire, doorbells=1, atomics=0):
    """NIC occupancy of one message group, from the config alone."""
    return max(doorbells / CFG.iops + atomics / CFG.atomic_iops,
               wire / CFG.bandwidth)


def post_read(fabric, a, b):
    wire = 1024 + WIRE_HEADER
    return fabric.read(a, b, 1024), service(wire), service(wire)


def post_inline_write(fabric, a, b):
    # The source moves the header only: no DMA fetch of the payload.
    return (fabric.write(a, b, 256), service(WIRE_HEADER),
            service(256 + WIRE_HEADER))


def post_dma_write(fabric, a, b):
    wire = 257 + WIRE_HEADER
    return fabric.write(a, b, 257), service(wire), service(wire)


def post_cas(fabric, a, b):
    wire = ATOMIC_SIZE + WIRE_HEADER
    return (fabric.cas(a, b, lambda: (True, 0)), service(wire),
            service(wire, doorbells=0, atomics=1))


def post_doorbell_batch(fabric, a, b):
    # One doorbell for the group on both sides, every byte on the wire.
    wire = 2 * (128 + WIRE_HEADER)
    verbs = [Verb(Opcode.READ, 128), Verb(Opcode.READ, 128)]
    return fabric.post_batch(a, b, verbs), service(wire), service(wire)


POSTS = [post_read, post_inline_write, post_dma_write, post_cas,
         post_doorbell_batch]


def completion_instant(post, backlogged, traced):
    """(measured, hand-computed) completion instant of one post at
    t = 1 us, into idle NICs or behind a 100 kB WRITE posted at t = 0."""
    from repro.obs import Observability
    env = Environment()
    fabric, (a, b) = make_fabric(env)
    if traced:
        fabric.obs = Observability(env, enabled=True)
    free_at = 0.0
    if backlogged:
        fabric.write(a, b, BACKLOG)
        free_at = service(BACKLOG + WIRE_HEADER)     # both FIFOs, from t = 0
    now = 1e-6
    env.run(until=now)
    assert (a.backlog() > 0) == backlogged
    event, src_service, dst_service = post(fabric, a, b)
    done_at = []
    event.add_callback(lambda ev: done_at.append(env.now))
    env.run()
    # Each side drains after what was queued before it; the two drain
    # instants are re-based through ``now``, the later one plus one RTT
    # is the completion.
    start = max(now, free_at)
    t_src = now + (start + src_service - now)
    t_dst = now + (start + dst_service - now)
    return done_at[0], max(t_src, t_dst) + CFG.rtt, fabric


@pytest.mark.parametrize("backlogged", [False, True],
                         ids=["idle", "backlogged"])
@pytest.mark.parametrize("post", POSTS, ids=lambda f: f.__name__[5:])
def test_post_path_completion_instant(post, backlogged):
    """Every kind of post completes at the hand-computed FIFO instant,
    exactly (``==``, not approx), with tracing on and off."""
    plain, expected, _ = completion_instant(post, backlogged, traced=False)
    traced, _, fabric = completion_instant(post, backlogged, traced=True)
    assert plain == expected
    assert traced == expected
    spans = [s for s in fabric.obs.tracer.spans if s.cat == "verb"]
    assert len(spans) == 1 + backlogged          # one span per group
    assert spans[-1].end == expected
    if backlogged:
        assert spans[-1].args["queue_us"] > 0


def test_post_path_counts_one_submission_per_side():
    """``messages`` and ``busy_time`` count one submission per group per
    side, doorbell batches included (perfbench reads both)."""
    env = Environment()
    fabric, (a, b) = make_fabric(env)
    posted = [post(fabric, a, b) for post in POSTS]
    env.run()
    assert a.messages == b.messages == len(POSTS)
    assert a.busy_time == pytest.approx(sum(src for _, src, _ in posted))
    assert b.busy_time == pytest.approx(sum(dst for _, _, dst in posted))


def test_verb_in_flight_when_destination_dies_never_executes():
    env = Environment()
    fabric, (a, b) = make_fabric(env)
    ran = []
    outcomes = []
    events = [
        fabric.read(a, b, 64, ran.append, ("read",)),
        fabric.write(a, b, 64, ran.append, ("write",)),
        fabric.cas(a, b, ran.append, ("cas",)),
        fabric.post_batch(a, b, [Verb(Opcode.READ, 8, lambda: ran.append(0)),
                                 Verb(Opcode.READ, 8, lambda: ran.append(1))]),
    ]
    for ev in events:
        ev.add_callback(lambda ev: outcomes.append((ev.ok, ev.value)))
    env.run(until=CFG.rtt / 2)
    fabric.kill(1)
    env.run()
    assert ran == []
    assert len(outcomes) == len(events)
    for ok, value in outcomes:
        assert not ok
        assert isinstance(value, NodeFailedError) and value.node_id == 1


def test_post_to_dead_node_fails_one_rtt_later():
    env = Environment()
    fabric, (a, b) = make_fabric(env)
    fabric.kill(1)
    env.run(until=3e-6)
    ran = []
    failed_at = []
    for event in (fabric.read(a, b, 64, ran.append, ("read",)),
                  fabric.post_batch(a, b, [Verb(Opcode.READ, 8),
                                           Verb(Opcode.READ, 8)])):
        event.add_callback(lambda ev: failed_at.append((env.now, ev.ok)))
    env.run()
    assert failed_at == [(3e-6 + CFG.rtt, False)] * 2
    assert ran == []
    # nothing was charged: the post never reached a NIC
    assert a.messages == b.messages == 0
    assert fabric.bytes_by_class == {}


def test_gray_nic_scaling_reaches_the_next_verb():
    """``FailureInjector`` scales a NIC's costs and drops its memoized
    service times: the very next verb pays the scaled time, and a
    restore brings the configured one back."""
    from repro.cluster.failures import FailureEvent, FailureInjector
    from tests.conftest import make_aceso
    cluster = make_aceso()
    env, fabric = cluster.env, cluster.fabric
    cfg = cluster.config.cluster.nic
    cn, mn = cluster.cns[min(cluster.cns)], cluster.mns[0]
    injector = FailureInjector(env, cluster)

    def read_latency():
        assert cn.nic.backlog() == mn.nic.backlog() == 0
        t0 = env.now
        env.run_until_event(fabric.read(cn.nic, mn.nic, 64))
        return env.now - t0

    # A 64 B READ is IOPS-bound: one op cost at the slower side, one RTT.
    assert read_latency() == pytest.approx(1 / cfg.iops + cfg.rtt)
    injector.fire_now(FailureEvent(at=env.now, kind="nic_degrade",
                                   node_id=0, factor=8.0))
    assert read_latency() == pytest.approx(8 / cfg.iops + cfg.rtt)
    injector.fire_now(FailureEvent(at=env.now, kind="nic_restore", node_id=0))
    assert read_latency() == pytest.approx(1 / cfg.iops + cfg.rtt)
