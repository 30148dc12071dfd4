"""Tests for the discrete-event engine."""

import random

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Deferred,
    Environment,
    Event,
    Interrupt,
    SimulationError,
)


#: The engine once had four interchangeable event-queue backends and this
#: fixture ran every case once per backend; the queue is now a single heapq
#: inside Environment.  The ids are kept so every case keeps its name until
#: this file's identical cases are folded, and each builds the same
#: Environment.
@pytest.fixture(params=["adaptive", "calendar", "flatheap", "heapq"])
def env(request) -> Environment:
    return Environment()


def test_time_starts_at_zero(env):
    assert env.now == 0.0


def test_timeout_advances_time(env):
    log = []

    def proc():
        yield env.timeout(1.5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [1.5]


def test_timeout_value(env):
    def proc():
        value = yield env.timeout(0.1, value="hello")
        return value

    p = env.process(proc())
    env.run()
    assert p.value == "hello"


def test_negative_timeout_rejected(env):
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_sequential_timeouts_accumulate(env):
    def proc():
        yield env.timeout(1.0)
        yield env.timeout(2.0)
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == 3.0


def test_processes_interleave_by_time(env):
    log = []

    def proc(name, delay):
        yield env.timeout(delay)
        log.append(name)

    env.process(proc("late", 2.0))
    env.process(proc("early", 1.0))
    env.run()
    assert log == ["early", "late"]


def test_same_time_fifo_order(env):
    log = []

    def proc(name):
        yield env.timeout(1.0)
        log.append(name)

    for name in ("a", "b", "c"):
        env.process(proc(name))
    env.run()
    assert log == ["a", "b", "c"]


def test_process_return_value(env):
    def proc():
        yield env.timeout(0.0)
        return 42

    p = env.process(proc())
    env.run()
    assert p.value == 42


def test_process_is_event(env):
    def inner():
        yield env.timeout(1.0)
        return "inner-result"

    def outer():
        result = yield env.process(inner())
        return result

    p = env.process(outer())
    env.run()
    assert p.value == "inner-result"


def test_run_until(env):
    log = []

    def proc():
        while True:
            yield env.timeout(1.0)
            log.append(env.now)

    env.process(proc())
    env.run(until=3.5)
    assert log == [1.0, 2.0, 3.0]
    assert env.now == 3.5


def test_run_until_advances_time_past_drain(env):
    env.run(until=10.0)
    assert env.now == 10.0


def test_event_succeed_wakes_waiter(env):
    gate = env.event()
    log = []

    def waiter():
        value = yield gate
        log.append((env.now, value))

    def opener():
        yield env.timeout(2.0)
        gate.succeed("opened")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert log == [(2.0, "opened")]


def test_event_double_trigger_rejected(env):
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_process(env):
    gate = env.event()

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            return f"caught {exc}"

    p = env.process(waiter())
    gate.fail(ValueError("boom"))
    env.run()
    assert p.value == "caught boom"


def test_fail_requires_exception(env):
    ev = env.event()
    with pytest.raises(SimulationError):
        ev.fail("not an exception")


def test_uncaught_failure_recorded(env):
    def proc():
        yield env.timeout(0.1)
        raise RuntimeError("oops")

    env.process(proc())
    env.run()
    assert len(env.unexpected_failures()) == 1


def test_yield_non_event_fails_process(env):
    def proc():
        yield 42

    env.process(proc())
    env.run()
    failures = env.unexpected_failures()
    assert len(failures) == 1
    assert isinstance(failures[0].value, SimulationError)


def test_all_of_collects_values(env):
    def proc():
        values = yield env.all_of([env.timeout(1.0, "a"),
                                   env.timeout(2.0, "b")])
        return (env.now, values)

    p = env.process(proc())
    env.run()
    assert p.value == (2.0, ["a", "b"])


def test_all_of_empty(env):
    def proc():
        values = yield env.all_of([])
        return values

    p = env.process(proc())
    env.run()
    assert p.value == []


def test_all_of_fails_fast(env):
    bad = env.event()

    def proc():
        try:
            yield env.all_of([env.timeout(5.0), bad])
        except ValueError:
            return env.now

    p = env.process(proc())
    bad.fail(ValueError("x"))
    env.run()
    assert p.value == 0.0  # did not wait for the 5s timeout


def test_any_of_returns_first(env):
    def proc():
        index, value = yield env.any_of([env.timeout(5.0, "slow"),
                                         env.timeout(1.0, "fast")])
        return (index, value, env.now)

    p = env.process(proc())
    env.run()
    assert p.value == (1, "fast", 1.0)


def test_any_of_empty_rejected(env):
    with pytest.raises(SimulationError):
        env.any_of([])


def test_interrupt_terminates_waiting_process(env):
    def proc():
        yield env.timeout(100.0)

    p = env.process(proc())
    env.run(until=1.0)
    p.interrupt("killed")
    env.run(until=2.0)
    assert not p.is_alive
    assert isinstance(p.value, Interrupt)


def test_interrupt_is_catchable(env):
    def proc():
        try:
            yield env.timeout(100.0)
        except Interrupt as exc:
            return f"interrupted: {exc.cause}"

    p = env.process(proc())
    env.run(until=1.0)
    p.interrupt("node crash")
    env.run(until=2.0)
    assert p.value == "interrupted: node crash"


def test_interrupted_process_not_unexpected_failure(env):
    def proc():
        yield env.timeout(100.0)

    p = env.process(proc())
    env.run(until=1.0)
    p.interrupt()
    env.run(until=2.0)
    assert env.unexpected_failures() == []
    assert p in env.failed


def test_interrupt_after_completion_is_noop(env):
    def proc():
        yield env.timeout(1.0)
        return "done"

    p = env.process(proc())
    env.run()
    p.interrupt()
    env.run()
    assert p.value == "done"


def test_stale_wakeup_after_interrupt_ignored(env):
    """The event a process was waiting on triggers after interruption;
    the process must not be resumed twice."""
    gate = env.event()

    def proc():
        try:
            yield gate
        except Interrupt:
            yield env.timeout(5.0)
            return "recovered"

    p = env.process(proc())
    env.run(until=1.0)
    p.interrupt()
    gate.succeed("late")
    env.run()
    assert p.value == "recovered"


def test_run_until_event(env):
    def proc():
        yield env.timeout(3.0)
        return "x"

    p = env.process(proc())
    assert env.run_until_event(p) == "x"
    assert env.now == 3.0


def test_run_until_event_failure_raises(env):
    def proc():
        yield env.timeout(1.0)
        raise KeyError("nope")

    p = env.process(proc())
    with pytest.raises(KeyError):
        env.run_until_event(p)


def test_run_until_event_time_limit(env):
    def proc():
        yield env.timeout(100.0)

    p = env.process(proc())
    with pytest.raises(SimulationError):
        env.run_until_event(p, limit=1.0)


def test_run_until_event_drained_queue(env):
    ev = env.event()
    with pytest.raises(SimulationError):
        env.run_until_event(ev)


def test_run_until_event_tolerant_keeps_future_events(env):
    fired = []

    def proc():
        yield env.timeout(100.0)
        fired.append("late")

    p = env.process(proc())
    assert env.run_until_event(p, limit=1.0, strict=False) is None
    assert env.now == 1.0
    assert fired == []
    # The over-limit entry must stay queued, not be dropped.
    env.run()
    assert fired == ["late"]
    assert env.now == 100.0


def test_run_until_event_tolerant_completes_before_limit(env):
    def proc():
        yield env.timeout(2.0)
        return "done"

    p = env.process(proc())
    assert env.run_until_event(p, limit=50.0, strict=False) == "done"
    assert env.now == 2.0


def test_callback_after_trigger_runs_immediately(env):
    ev = env.event()
    ev.succeed("v")
    env.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["v"]


def test_value_of_untriggered_event_rejected(env):
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_nested_all_any(env):
    def proc():
        inner = env.all_of([env.timeout(1.0, 1), env.timeout(2.0, 2)])
        index, value = yield env.any_of([inner, env.timeout(10.0)])
        return (index, value, env.now)

    p = env.process(proc())
    env.run()
    assert p.value == (0, [1, 2], 2.0)


def test_many_processes_scale(env):
    counter = []

    def proc(i):
        yield env.timeout(i * 0.001)
        counter.append(i)

    for i in range(500):
        env.process(proc(i))
    env.run()
    assert len(counter) == 500
    assert counter == sorted(counter)


# ------------------------------------------------- same-instant ordering

def test_callback_scheduling_same_instant_joins_dispatch(env):
    """New work pushed at the current timestamp from a callback still
    dispatches at that timestamp, after the peers already queued there."""
    order = []
    def chain(e):
        order.append("first")
        env.defer(0.0, lambda e2: order.append("second"))
    env.defer(1.0, chain)
    env.defer(1.0, lambda e: order.append("peer"))
    env.run()
    assert order == ["first", "peer", "second"]
    assert env.now == 1.0


# ------------------------------------------------- zero-delay ordering

def test_zero_delay_self_requeue_is_fifo(env):
    """A process re-queueing itself at the current instant goes to the
    back of the tie class — two such processes interleave strictly."""
    order = []

    def spinner(tag, n):
        for i in range(n):
            order.append((tag, i))
            yield env.timeout(0.0)

    env.process(spinner("a", 3))
    env.process(spinner("b", 3))
    env.run()
    assert order == [("a", 0), ("b", 0), ("a", 1), ("b", 1),
                     ("a", 2), ("b", 2)]
    assert env.now == 0.0


def test_empty_queue_run_terminates(env):
    env.run()
    assert env.now == 0.0
    env.run(until=4.0)
    assert env.now == 4.0
    env.run()                      # still nothing pending: no-op
    assert env.now == 4.0


# ------------------------------------------------- seeded tie ordering

def _tie_storm(seed=7, n=300):
    """*n* Timeouts and Deferreds on a grid of 20 instants, so ties are
    the norm; a third of them, when they fire, schedule a follow-up at
    the instant they fire or one grid step later.  Returns the env, the
    ``(when, creation index)`` of every event created so far (the list
    grows as the run goes) and the dispatch log in the same form."""
    rng = random.Random(seed)
    env = Environment()
    created, log = [], []

    def make(delay):
        idx, when = len(created), env.now + delay
        if rng.random() < 0.5:
            ev = env.timeout(delay)
        else:
            ev = Deferred(env, when, lambda: None)
        created.append((when, idx))
        ev.add_callback(lambda _e: fire(when, idx))

    def fire(when, idx):
        assert env.now == when
        log.append((when, idx))
        if rng.random() < 0.3:
            make(rng.choice((0.0, 0.0, 0.5)))

    for _ in range(n):
        make(0.5 * rng.randrange(20))
    return env, created, log


def test_seeded_ties_dispatch_in_time_then_creation_order():
    # run(): every event, in (time, creation order)
    env, created, log = _tie_storm()
    env.run()
    assert len(created) > 300                    # follow-ups were made
    assert len(log) - len({when for when, _ in log}) > 250   # ties
    assert log == sorted(created)
    assert env.scheduled_count == len(created)
    assert len(log) == env.scheduled_count       # each dispatched once

    # run(until): events at exactly `until` run, later ones wait
    env, created, log = _tie_storm()
    for until in (0.0, 2.5, 2.75, 6.0):
        env.run(until=until)
        assert env.now == until
        assert log == sorted(c for c in created if c[0] <= until)
    env.run()
    assert log == sorted(created)

    # run_until_event(limit): a tolerant stop at the limit, then a strict
    # run up to a target that ties with earlier-created peers
    env, created, log = _tie_storm()
    assert env.run_until_event(env.event(), limit=3.0, strict=False) is None
    assert env.now == 3.0
    assert log == sorted(c for c in created if c[0] <= 3.0)
    older = len(created)
    target = Deferred(env, 7.5, lambda: "target")
    assert env.run_until_event(target, limit=8.0) == "target"
    assert env.now == 7.5
    assert log == sorted(c for c in created
                         if c[0] < 7.5 or (c[0] == 7.5 and c[1] < older))
    env.run()
    assert log == sorted(created)
    assert env.scheduled_count == len(created) + 1
