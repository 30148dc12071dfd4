"""Seeded fuzz of the event queue's dispatch order.

Random scripts of :class:`Timeout` and :class:`Deferred` events at mixed
timescales (zero delays force same-instant ties) are run on an
:class:`Environment` next to a reference model: each event gets a
``(when, order)`` key when it is scheduled.  Callbacks schedule further
events at the instant they fire.  Every drain must dispatch exactly the
events with keys up to the stopping point, in key order, and a full
``run()`` must dispatch every event ever scheduled, each exactly once.

Each vector is drained by one of the Environment's three dispatch loops
(``run``, ``run(until)``, ``run_until_event``), named in :data:`LOOPS`;
each name is the case id.

Runs a property search too when :mod:`hypothesis` is importable (the
optional test extra).
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.sim import Deferred, Environment

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:            # optional dependency: degrade, don't skip
    HAVE_HYPOTHESIS = False

#: The dispatch loops a vector is drained by.
LOOPS = ("run", "run_until", "run_until_event")

#: Delay palette: zero (same-instant FIFO ties), ns/us clusters, ms
#: outliers and one delay that outlives every other.
_DELAYS = (0.0, 0.0, 1e-9, 1e-9, 2.5e-9, 1e-6, 1.1e-6, 2e-6, 1e-3, 10.0)


class _Vector:
    """An Environment plus the reference model of what it must dispatch."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.env = Environment()
        self.order = itertools.count()
        self.ids = itertools.count()
        #: idx -> (when, order) of every event, fired or pending.
        self.expected = {}
        #: idx -> event, for events not fired yet.
        self.pending = {}
        self.log = []          # (when, order) in dispatch order
        self.block_when = None  # instant of the tie block, if any
        self.checked = 0       # log entries already checked in order

    def schedule(self, delay: float, when=None) -> int:
        """Schedule a Timeout or (always, when *when* is given) a Deferred."""
        env = self.env
        idx = next(self.ids)
        if when is None and self.rng.random() < 0.5:
            ev = env.timeout(delay)
            when = env.now + delay
        else:
            when = env.now + delay if when is None else when
            ev = Deferred(env, when, lambda: None)
        self.expected[idx] = (when, next(self.order))
        self.pending[idx] = ev
        ev.add_callback(lambda _e: self._fire(idx))
        return idx

    def _fire(self, idx: int) -> None:
        key = self.expected[idx]
        assert self.env.now == key[0]
        self.pending.pop(idx)
        self.log.append(key)
        if self.rng.random() < 0.25:
            self.schedule(self.rng.choice(_DELAYS))

    def check_through(self, key) -> None:
        """Every event with a key up to *key* fired, in key order,
        and nothing after it did.

        Each event fires at most once (``_fire`` pops it from
        ``pending``), so a log in strictly increasing key order, ending
        at or before *key*, with no pending key at or before *key*, is
        exactly the sorted live keys up to *key*.  Checked
        incrementally: only the log entries since the last check."""
        log = self.log
        start = max(self.checked - 1, 0)
        assert all(a < b for a, b in zip(log[start:], log[start + 1:]))
        assert not log or log[-1] <= key
        assert all(self.expected[i] > key for i in self.pending)
        self.checked = len(log)

    def drain(self, loop: str) -> None:
        env, rng = self.env, self.rng
        if loop == "run":
            env.run()
            self.check_through((float("inf"), 0))
            assert len(self.log) == env.scheduled_count
        elif loop == "run_until":
            until = env.now + rng.choice(_DELAYS) * (1.0 + rng.random())
            env.run(until=until)
            assert env.now == until
            self.check_through((until, float("inf")))
        else:
            limit = env.now + rng.choice(_DELAYS) * (1.0 + rng.random())
            if rng.random() < 0.5:
                # Tolerant stop at the limit: nothing is waited on.
                assert env.run_until_event(env.event(), limit=limit,
                                           strict=False) is None
                assert env.now == limit
                self.check_through((limit, float("inf")))
            else:
                # Strict run up to a fresh Deferred at the limit, which
                # ties with any earlier-scheduled peers there.
                idx = self.schedule(0.0, when=limit)
                env.run_until_event(self.pending[idx])
                assert env.now == limit
                self.check_through(self.expected[idx])


def _drive(loop: str, rng: random.Random, nops: int, tie_block: int = 0):
    """Random script of *nops* operations, drained now and then (and at
    the end) by *loop*.  ``tie_block`` events are queued for one instant
    before the script starts."""
    vec = _Vector(rng)
    vec.block_when = rng.choice(_DELAYS)
    for _ in range(tie_block):
        vec.schedule(0.0, when=vec.block_when)
    for _ in range(nops):
        r = rng.random()
        if r < 0.80 or not vec.pending:
            vec.schedule(rng.choice(_DELAYS) * (1.0 + rng.random()))
        elif r < 0.90:
            vec.drain(loop)
        else:
            vec.drain("run_until")
    vec.env.run()
    vec.check_through((float("inf"), 0))
    assert vec.log == sorted(vec.expected.values())
    assert len(vec.log) == vec.env.scheduled_count == next(vec.order)
    return vec


# ------------------------------------------------- fixed-vector battery

@pytest.mark.parametrize("loop", LOOPS)
@pytest.mark.parametrize("seed", [0, 1, 2, 7, 42, 1234])
def test_fixed_vectors(loop, seed):
    vec = _drive(loop, random.Random(seed), nops=3000)
    assert len(vec.log) > 1000
    assert len(vec.log) > len(set(k[0] for k in vec.log))   # ties ran


@pytest.mark.parametrize("loop", LOOPS)
def test_deep_vector_crosses_rebuilds(loop):
    """A long vector: thousands of pending entries at once."""
    _drive(loop, random.Random(99), nops=20_000)


@pytest.mark.parametrize("threshold", [1, 8, 64])
@pytest.mark.parametrize("seed", [0, 42])
def test_tie_block_dispatches_first_at_its_instant(threshold, seed):
    """A tie block of *threshold* events queued for one instant before the
    vector starts: they dispatch first at that instant, in scheduling
    order, ahead of all the vector added there."""
    vec = _drive("run", random.Random(seed), nops=3000, tie_block=threshold)
    at_block = [k for k in vec.log if k[0] == vec.block_when]
    assert at_block[:threshold] == [(vec.block_when, i)
                                    for i in range(threshold)]


# --------------------------------------------------- hypothesis search

if HAVE_HYPOTHESIS:

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           nops=st.integers(min_value=1, max_value=800))
    def test_property_search(seed, nops):
        for loop in LOOPS:
            _drive(loop, random.Random(seed), nops=nops)
