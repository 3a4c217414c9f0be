"""The host's speed gauge: a fixed piece of pure-Python work, timed next
to and during the measured code.

Each vCPU of a shared 2-vCPU host flips between a fast and a slow state
(the slow one runs identical work about 1.6 times as long) every few
seconds, sometimes within tens of milliseconds.  The gauge slows by the
same factor, so work measured in units of it barely changes with the
state.  An op of a few seconds meets both states, so the gauge is also
sampled during the op, every EVERY_S of wall time, from a SIGALRM
handler; the samples are uniform in time, and the op's work is its time
multiplied by the mean gauge speed (1 / gauge) over them.

This module imports only `signal` and `time`, so a fresh interpreter
can load it before timing the import of dilatorus.cli without loading
anything that import needs.
"""

import signal
import time

EVERY_S = 0.025
# Seconds the gauge takes on a 2-vCPU x86-64 host in its fast state;
# setup_s is the set-up time scaled to a host that runs the gauge so.
REFERENCE_S = 0.36e-3


def speed_gauge() -> float:
    """Seconds of the gauge's fixed work, about 0.4 ms."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(3000):
        acc += (i * 0.5) ** 0.5
        table[i & 255] = acc
    return time.perf_counter() - t0


def median_gauge(n: int = 3) -> float:
    return sorted(speed_gauge() for _ in range(n))[n // 2]


class Sampler:
    """While entered, takes a gauge sample every EVERY_S of wall time.

    `spent` is the time the samples took, which the caller takes off
    the time it measured around the block.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._old = None

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(speed_gauge())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
