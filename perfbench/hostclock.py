"""Host time in reference-host seconds.

The sandbox this benchmark is graded on shares its cores: the same
interpreter-bound work takes 0.6x to 1.4x its median wall time from one
second to the next, and process CPU time follows wall time when it does
(contention, not descheduling), so neither a longer window nor CPU time
steadies a host-time metric.  What does is measuring the host's speed
right next to the work: a fixed stdlib-only loop is timed every ~0.15
host-seconds *inside* the stretch being measured, and each slice of wall
time is scaled by the speed seen at its two ends.  A host-time metric is
then "seconds on a host that runs the calibration loop in ``CAL_REF``
seconds"; the raw wall time and the speed are reported next to it.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List, Tuple

#: Size of the calibration loop, and its wall time on the reference host
#: (the author's sandbox runs it in 10-20 ms).
CAL_ITERATIONS = 20000
CAL_REF = 0.016
#: Calibrations per mark, the least host time between two marks, and the
#: simulated time between two looks at the host clock.
CAL_PER_MARK = 3
MIN_GAP = 0.15
TICK = 1e-4


def calibrate() -> float:
    """Wall seconds of a fixed loop shaped like the simulator's inner
    work: a heap of tuples, generator resumes, dict stores.  It touches
    no code of the program under test, so a change to the program cannot
    move it."""
    heap: list = []
    table: dict = {}
    push, pop = heapq.heappush, heapq.heappop

    def resumed():
        value = 0
        while True:
            value = (yield value) + 1

    gen = resumed()
    next(gen)
    now = 0.0
    t0 = time.perf_counter()
    for i in range(CAL_ITERATIONS):
        push(heap, (now + (i * 7919 % 13) * 1e-6, i, None))
        if i & 1:
            now, seq, _item = pop(heap)
            table[seq & 1023] = gen.send(seq)
    return time.perf_counter() - t0


class HostClock:
    """Times one stretch of work, calibrating as it goes.

    ``HostClock()`` takes the opening mark.  ``attach(cluster)`` starts a
    simulation process that wakes every ``TICK`` simulated seconds and
    takes a mark whenever ``MIN_GAP`` host seconds have passed since the
    last one (the wake-ups are unconditional, so the simulation does not
    depend on the host).  ``stop()`` takes the closing mark.  The clock
    is stopped while a mark calibrates.  With ``interior=False`` only
    the opening and closing marks are taken: a profiler cannot be paused
    mid-run without losing the frames already on the stack.
    """

    def __init__(self, ops=None, interior: bool = True):
        self._ops = ops                  # () -> ops completed so far
        self._interior = interior
        self._running = True
        self.wakeups = 0                 # simulation events of its own
        #: (clock stopped, ops so far, calibration, clock restarted)
        self.marks: List[Tuple[float, int, float, float]] = []
        self.mark()

    def mark(self) -> None:
        stopped = time.perf_counter()
        ops = self._ops() if self._ops and self.marks else 0
        # The median shrugs off one calibration hit by a collector pause.
        calibration = statistics.median(
            calibrate() for _ in range(CAL_PER_MARK))
        self.marks.append((stopped, ops, calibration, time.perf_counter()))

    def attach(self, cluster) -> None:
        def ticker():
            while self._running:
                yield cluster.env.timeout(TICK)
                self.wakeups += 1
                if self._running and self._interior and \
                        time.perf_counter() - self.marks[-1][3] >= MIN_GAP:
                    self.mark()
        cluster.env.process(ticker(), name="perfbench.hostclock")

    def stop(self) -> "HostClock":
        self._running = False
        self.mark()
        return self

    # -- readings ------------------------------------------------------------

    def slices(self) -> List[Tuple[float, int, float]]:
        """(wall seconds, ops, host speed) of each stretch between marks;
        speed 1.0 is the reference host."""
        return [(b[0] - a[3], b[1] - a[1], 2 * CAL_REF / (a[2] + b[2]))
                for a, b in zip(self.marks, self.marks[1:])]

    @property
    def wall(self) -> float:
        """Wall seconds as measured, calibrations excluded."""
        return sum(seconds for seconds, _ops, _speed in self.slices())

    @property
    def seconds(self) -> float:
        """Reference-host seconds."""
        return sum(seconds * speed for seconds, _ops, speed in self.slices())

    def midrate(self) -> float:
        """Ops per reference-host second over the middle half of the
        slices ranked by that rate: drops the slices an interference hit
        that the calibrations on either side did not see."""
        ranked = sorted((ops / (seconds * speed), seconds * speed, ops)
                        for seconds, ops, speed in self.slices())
        quarter = len(ranked) // 4
        middle = ranked[quarter:len(ranked) - quarter]
        return sum(m[2] for m in middle) / sum(m[1] for m in middle)

    @property
    def span(self) -> float:
        """Wall seconds from the first mark to the last, all included."""
        return self.marks[-1][3] - self.marks[0][0]
