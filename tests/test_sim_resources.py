"""Tests for ThroughputServer and Store."""

import pytest

from repro.sim import Store, ThroughputServer


# ---------------------------------------------------------- ThroughputServer

def test_server_service_time(env):
    srv = ThroughputServer(env)

    def proc():
        yield srv.submit(2.0)
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == 2.0


def test_server_fifo_backlog(env):
    srv = ThroughputServer(env)
    done = []

    def proc(name, service):
        yield srv.submit(service)
        done.append((name, env.now))

    env.process(proc("a", 1.0))
    env.process(proc("b", 2.0))
    env.run()
    assert done == [("a", 1.0), ("b", 3.0)]


def test_server_idles_between_jobs(env):
    srv = ThroughputServer(env)

    def first():
        yield srv.submit(1.0)

    def second():
        yield env.timeout(10.0)
        yield srv.submit(1.0)
        return env.now

    env.process(first())
    p = env.process(second())
    env.run()
    assert p.value == 11.0  # no phantom backlog carried across idle time


def test_server_busy_time_accounting(env):
    srv = ThroughputServer(env)

    def proc():
        yield srv.submit(1.0)
        yield srv.submit(0.5)

    env.process(proc())
    env.run()
    assert srv.busy_time == pytest.approx(1.5)
    assert srv.jobs == 2
    assert srv.utilisation(3.0) == pytest.approx(0.5)


def test_server_utilisation_clamped(env):
    srv = ThroughputServer(env)
    env.process(iter_submit(env, srv, 10.0))
    env.run()
    assert srv.utilisation(1.0) == 1.0
    assert srv.utilisation(0.0) == 0.0


def iter_submit(env, srv, t):
    yield srv.submit(t)


def test_server_parallelism_divides_service(env):
    srv = ThroughputServer(env, parallelism=2)

    def proc():
        yield srv.submit(4.0)
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == 2.0


def test_server_negative_service_rejected(env):
    srv = ThroughputServer(env)
    with pytest.raises(ValueError):
        srv.submit(-1.0)


def test_server_backlog(env):
    srv = ThroughputServer(env)
    env.process(iter_submit(env, srv, 5.0))
    env.run(until=1.0)
    assert srv.backlog() == pytest.approx(4.0)


def test_server_reset_accounting(env):
    srv = ThroughputServer(env)
    env.process(iter_submit(env, srv, 1.0))
    env.run()
    srv.reset_accounting()
    assert srv.busy_time == 0.0
    assert srv.jobs == 0


# ------------------------------------------------------------------ Store

def test_store_put_then_get(env):
    store = Store(env)
    store.put("item")

    def proc():
        value = yield store.get()
        return value

    p = env.process(proc())
    env.run()
    assert p.value == "item"


def test_store_get_blocks_until_put(env):
    store = Store(env)

    def getter():
        value = yield store.get()
        return (env.now, value)

    def putter():
        yield env.timeout(3.0)
        store.put("late")

    p = env.process(getter())
    env.process(putter())
    env.run()
    assert p.value == (3.0, "late")


def test_store_fifo_order(env):
    store = Store(env)
    for i in range(3):
        store.put(i)
    got = []

    def getter():
        for _ in range(3):
            value = yield store.get()
            got.append(value)

    env.process(getter())
    env.run()
    assert got == [0, 1, 2]


def test_store_multiple_getters_fifo(env):
    store = Store(env)
    got = []

    def getter(name):
        value = yield store.get()
        got.append((name, value))

    env.process(getter("g1"))
    env.process(getter("g2"))
    env.run(until=1.0)
    store.put("x")
    store.put("y")
    env.run()
    assert got == [("g1", "x"), ("g2", "y")]
