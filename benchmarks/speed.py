"""A clock that runs at a reference CPU speed.

On a 2-core shared virtual machine, each virtual CPU switches between a
fast state and one about 1.8 times slower, independently of the other and
at times several times a second.  CPU time moves with wall time (the
slowdown is not stolen time), so neither clock, nor the fastest or the
median of a run's passes, was steady from one run to the next: the same
code and inputs measured 25% apart.

:class:`SpeedClock` therefore times a fixed pure-Python sample loop every
``PERIOD_S`` from a ``SIGALRM`` handler, on the CPU the measured code runs
on and between its bytecodes.  Between two samples the clock advances by
the wall time elapsed times ``REFERENCE_NS`` over the recent sample time,
so it reads the time the code would have taken on a CPU that runs the
loop in ``REFERENCE_NS``: about this machine's fast state.  The handler's
own time is left out.  Over 60 seconds in which the loop's time doubled
and halved again, the ratio of a ``compress`` call to the loop stayed
within 5% outside collector pauses.  The loop is the benchmark's own code
and calls nothing in ccz, so a change to ccz never changes the scale.
"""

import os
import signal
from contextlib import contextmanager
from time import perf_counter_ns

# The sample loop's time on the reference CPU.
REFERENCE_NS = 100_000
# Seconds between samples; a sample takes about 2% of that.
PERIOD_S = 0.005
_TABLE = list(range(256))
_BYTES = bytes(range(256)) * 4
_COUNTS: dict[int, int] = {}


def sample_loop() -> int:
    """Interpreter work like the codec's: indexing, dict updates, integer ops.

    It allocates no containers, so it never moves the cyclic collector on.
    """
    _COUNTS.clear()
    total = 0
    for i in range(700):
        k = _TABLE[i & 255]
        _COUNTS[k] = _COUNTS.get(k, 0) + 1
        total += k ^ _BYTES[i & 1023]
    return total


def sample() -> int:
    """Nanoseconds of one sample loop."""
    start = perf_counter_ns()
    sample_loop()
    return perf_counter_ns() - start


def calibrate() -> int:
    """Nanoseconds of the sample loop now: the median of nine, for code outside a clock."""
    return sorted(sample() for _ in range(9))[4]


def scale(before_ns: int, after_ns: int) -> float:
    """Factor from wall time between two calibrations to reference time."""
    return 2 * REFERENCE_NS / (before_ns + after_ns)


class SpeedClock:
    """Reference nanoseconds, advanced from a ``SIGALRM`` sampler.

    Use it as a context manager in the main thread; :meth:`now` reads it.
    The rate between samples is that of the median of the last three, so
    one sample slowed by an interrupt does not count.
    """

    def __init__(self):
        self._reference = 0.0
        self._rate = 1.0
        self._last = perf_counter_ns()
        self._recent = [REFERENCE_NS] * 3
        self._ticks = 0

    def _tick(self, signum, frame) -> None:
        entered = perf_counter_ns()
        self._recent = [*self._recent[1:], sample()]
        self._reference += (entered - self._last) * self._rate
        self._rate = REFERENCE_NS / sorted(self._recent)[1]
        self._ticks += 1
        self._last = perf_counter_ns()

    def now(self) -> float:
        while True:
            ticks = self._ticks
            value = self._reference + (perf_counter_ns() - self._last) * self._rate
            if ticks == self._ticks:  # no sample landed while reading
                return value

    def __enter__(self):
        self._recent = [calibrate()] * 3
        self._rate = REFERENCE_NS / self._recent[0]
        self._last = perf_counter_ns()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def move_to_fastest_cpu(allowed: list[int]) -> None:
    """Pin this process to whichever of ``allowed`` runs the sample loop fastest now.

    Runs then spend less time in the slow state, and a calibration and
    the code it scales run on the same CPU.
    """
    if len(allowed) < 2:
        return
    speed = {}
    for cpu in allowed:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = calibrate()
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


@contextmanager
def pinned_to_fastest_cpu():
    """Pin this process, and the children it starts, for the ``with`` block."""
    allowed = cpus()
    move_to_fastest_cpu(allowed)
    try:
        yield
    finally:
        if allowed:
            os.sched_setaffinity(0, set(allowed))
