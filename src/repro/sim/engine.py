"""Discrete-event simulation engine.

A small, dependency-free core in the style of SimPy: an :class:`Environment`
owns a priority queue of scheduled events; *processes* are Python generators
that yield :class:`Event` objects and are resumed when those events trigger.

The Aceso reproduction runs every node (client, memory-node server, master)
as a process on one shared environment.  Simulated time is a float in
seconds; the engine itself attaches no meaning to the unit.

The event queue is one :mod:`heapq` of ``(when, seq, event)`` tuples.
``seq`` is a counter assigned when an event is scheduled, so events run in
ascending ``(time, seq)`` order: two events scheduled for the same instant
dispatch in the order they were scheduled (FIFO).  That tie-break is
load-bearing for determinism.  Every scheduled event dispatches exactly
once: nothing is ever withdrawn from the queue, and a timeout its waiter
no longer wants simply fires unheeded (:meth:`Process._resume` drops a
stale wake-up, :class:`AnyOf` fires once).
An event scheduled *earlier* than the current time is unsupported
(simulated time never goes backwards; ``Timeout`` rejects negative
delays).
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import attrgetter
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Deferred",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for misuse of the engine (e.g. yielding a non-event)."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The ``cause`` attribute carries the value passed to ``interrupt()``
    (for Aceso: typically the failure notice of a crashed node).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


_VALUE_OF = attrgetter("_value")


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; it is *triggered* exactly once, either with a
    value (:meth:`succeed`) or an exception (:meth:`fail`).  Triggering runs
    all registered callbacks at the current simulation time.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok = True
        self._triggered = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        """Whether the event triggered successfully (valid once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("value of untriggered event")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        env = self.env
        env._push(env.now, self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exc
        env = self.env
        env._push(env.now, self)
        return self

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for cb in callbacks:
                cb(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register *cb* to run when this event triggers.

        If the event has already triggered and been dispatched, the callback
        runs immediately (same simulation time).
        """
        callbacks = self.callbacks
        if callbacks is None:
            cb(self)
        else:
            callbacks.append(cb)


class Timeout(Event):
    """An event that triggers after a fixed delay.

    The constructor is a hot path (hundreds of thousands per simulated
    second): it assigns every slot directly and pushes onto the queue
    rather than chaining through ``Event.__init__``.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self.delay = delay
        env._push(env.now + delay, self)


class Deferred(Event):
    """An event that *resolves* at a scheduled future time.

    Where a :class:`Timeout` carries a preset value, a Deferred calls
    ``resolver(*args)`` when dispatched: the return value succeeds the
    event, a raised exception fails it.  Callbacks then run in the same
    dispatch — one queue entry covers schedule + resolution + callback
    fan-out, which is what makes it the fast path for RDMA verb
    completions (the old shape was two NIC-drain timeouts, an RTT
    timeout, and a separate trigger push for the result event).

    Unlike a Timeout, a Deferred stays untriggered until dispatch, so
    ``triggered``/``value`` behave like a plain :class:`Event`.  Like
    every scheduled event it dispatches exactly once, at the instant it
    was created for: it cannot be withdrawn or moved.
    """

    __slots__ = ("_resolver", "_args")

    def __init__(self, env: "Environment", at: float,
                 resolver: Callable[..., Any], args: tuple = ()):
        """Schedule resolution at *absolute* simulated time ``at`` (callers
        computing FIFO completion times already hold the absolute instant;
        round-tripping through a delay would perturb the float)."""
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._resolver = resolver
        self._args = args
        env._push(at, self)

    def _run_callbacks(self) -> None:
        try:
            value = self._resolver(*self._args)
            ok = True
        except BaseException as exc:
            value = exc
            ok = False
        self._triggered = True
        self._ok = ok
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for cb in callbacks:
                cb(self)


class Process(Event):
    """A running generator.  The process *is* an event: it triggers when the
    generator returns (value = the ``return`` value) or raises.
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError("process target must be a generator")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off at the current time.
        init = Event(env)
        init.succeed()
        init.add_callback(self._resume)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            return
        interrupt_ev = Event(self.env)
        interrupt_ev.fail(Interrupt(cause))
        # Detach from whatever we were waiting on; the stale event may still
        # trigger later but _resume ignores events we no longer wait on.
        interrupt_ev.add_callback(self._resume_interrupt)

    def _resume_interrupt(self, event: Event) -> None:
        self._waiting_on = None
        self._resume(event)

    def _resume(self, event: Event) -> None:
        """Send *event*'s outcome into the generator and wait on what it
        yields next.  One frame per wake-up: this runs once per yield of
        every process, so it reads the event's slots (the callers hand
        it triggered events only) and registers itself inline."""
        if self._triggered:
            return
        waiting = self._waiting_on
        if waiting is not None and event is not waiting:
            return  # stale wakeup (we were interrupted while waiting)
        self._waiting_on = None
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._crash(exc)
            return
        if not isinstance(target, Event):
            self._crash(SimulationError(
                f"process {self.name!r} yielded non-event: {target!r}"
            ))
            return
        self._waiting_on = target
        # Event.add_callback, inlined.
        callbacks = target.callbacks
        if callbacks is None:
            self._resume(target)
        else:
            callbacks.append(self._resume)

    def _crash(self, exc: BaseException) -> None:
        self._triggered = True
        self._ok = False
        self._value = exc
        env = self.env
        env.failed.append(self)
        env._push(env.now, self)


class AllOf(Event):
    """Triggers when all child events have triggered.

    Value is the list of child values (in input order).  Fails fast if any
    child fails.
    """

    __slots__ = ("_pending", "_events")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._pending = len(self._events)
        if self._pending == 0:
            self.succeed([])
            return
        for ev in self._events:
            ev.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            # Event.succeed, inlined (one fan-in per doorbell group).
            self._triggered = True
            self._value = list(map(_VALUE_OF, self._events))
            env = self.env
            env._push(env.now, self)


class AnyOf(Event):
    """Triggers when the first child event triggers; value = (index, value)."""

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        if not self._events:
            raise SimulationError("AnyOf requires at least one event")
        for i, ev in enumerate(self._events):
            ev.add_callback(lambda event, i=i: self._on_child(i, event))

    def _on_child(self, index: int, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self.succeed((index, event.value))


class Environment:
    """Owns simulated time and the event queue: a :mod:`heapq` of
    ``(when, seq, event)`` tuples, dispatched in ``(when, seq)`` order."""

    def __init__(self):
        self.now: float = 0.0
        self._queue: List[tuple] = []
        #: Events scheduled so far; the next one's tie-break ``seq``.
        self._seq = 0
        #: Processes that terminated with an uncaught exception.  Harness
        #: code asserts this stays empty so failures never pass silently
        #: (intentional interrupts of crashed-node processes are exempt:
        #: they are recorded but filtered by ``unexpected_failures``).
        self.failed: List["Process"] = []

    def unexpected_failures(self) -> List["Process"]:
        """Failed processes whose exception is not an :class:`Interrupt`."""
        return [p for p in self.failed if not isinstance(p.value, Interrupt)]

    @property
    def scheduled_count(self) -> int:
        """Total events ever scheduled (the engine's work counter)."""
        return self._seq

    def _push(self, when: float, event: Event) -> None:
        """Queue *event* to dispatch at *when*, after every event already
        queued for the same instant."""
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (when, seq, event))

    # -- public API ------------------------------------------------------

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def defer(self, delay: float, fn: Callable[[Event], None],
              value: Any = None) -> Timeout:
        """Schedule *fn* to run after *delay* (fast path for the common
        "timeout + single callback" pattern: the callback is seeded at
        construction, skipping the ``add_callback`` round-trip)."""
        ev = Timeout(self, delay, value)
        ev.callbacks.append(fn)
        return ev

    def event(self) -> Event:
        return Event(self)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def run(self, until: Optional[float] = None) -> None:
        """Dispatch events until the queue drains or *until* is reached.

        Events scheduled for exactly *until* still run.  When *until* is
        given, ``now`` is advanced to exactly ``until`` even if the queue
        drains earlier (so throughput windows are well-defined).
        """
        queue = self._queue
        if until is None:
            while queue:
                when, _, event = heappop(queue)
                self.now = when
                event._run_callbacks()
            return
        while queue and queue[0][0] <= until:
            when, _, event = heappop(queue)
            self.now = when
            event._run_callbacks()
        if until > self.now:
            self.now = until

    def run_until_event(self, event: Event, limit: float = float("inf"),
                        strict: bool = True) -> Any:
        """Run until *event* triggers; returns its value (raises on failure).

        Entries past *limit* are never popped (they stay queued for a
        later ``run``).  Reaching the limit — or draining the queue —
        before the event triggers raises :class:`SimulationError` when
        *strict* (the default), or advances ``now`` to the limit and
        returns ``None`` when tolerant (``strict=False``), for drains
        that cap how long they wait without failing the run.
        """
        queue = self._queue
        while not event._triggered:
            if not queue or queue[0][0] > limit:
                if not strict:
                    if limit != float("inf") and limit > self.now:
                        self.now = limit
                    return None
                if not queue:
                    raise SimulationError(
                        "queue drained before event triggered")
                raise SimulationError(f"time limit {limit} exceeded")
            when, _, ev = heappop(queue)
            self.now = when
            ev._run_callbacks()
        if not event._ok:
            raise event._value
        return event._value
