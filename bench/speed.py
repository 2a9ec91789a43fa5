"""Clocks that run at a fixed speed of the host.

On a shared host the cores this process gets change speed by up to 4x
within seconds, in wall and CPU time alike, and medians over a few runs
cannot hide that.  While the probe runs, a SIGALRM handler times each
clock's small fixed kernel every ``PERIOD_S``; over the following
period, ``now(clock)`` advances by the wall time elapsed times that
kernel's nominal time over the median of its last three measured times
(one preempted kernel run would otherwise stall the clock for a period).
Intervals read from ``now()`` are therefore in seconds at nominal speed,
and the handler's own time is left out of them.

Two kinds of work respond differently to the host's speed, so there are
two clocks, each with a kernel of its kind:

- ``dense``: a Python loop and one 64x64 complex product.  It tracks the
  reductions, eigensolves and dense 1024x1024 applies of reduce and
  verify.  Over 130 ms windows its time and the time of one full-model
  trajectory correlated at 0.97.
- ``calls``: a chain of 8x8 complex products, bound by numpy's per-call
  overhead.  It tracks trajectory sampling.  Reduced-model trajectories
  (thousands of tiny products) swung about twice as much as the dense
  kernel with the host's speed.  Over twelve 4 s blocks, their median
  time spread 0.13 between blocks read on the dense clock and 0.04 on
  this one; full-model trajectories spread 0.06 and 0.05.  On this clock
  a single 8 s reduction spread 0.25 between runs, against 0.03 on the
  dense one.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.02

_RNG = np.random.default_rng(0)
_A = (_RNG.standard_normal((64, 64)) + 1j * _RNG.standard_normal((64, 64))) / 8
_B = (_RNG.standard_normal((8, 8)) + 1j * _RNG.standard_normal((8, 8))) / 3
_X0 = _B @ _B.conj().T   # positive, so every x below is positive with trace 1


def dense_kernel() -> None:
    """Fixed mix of interpreter work and a small dense product."""
    x = 0
    for i in range(2_000):
        x += i * i
    M = _A @ _A
    M = M / np.linalg.norm(M)


def calls_kernel() -> None:
    """A fixed chain of 8x8 complex products: about 160 small numpy calls."""
    x = _X0
    for _ in range(40):
        x = _B @ x @ _B.conj().T
        x = x / np.trace(x)


# clock: (kernel, its typical time in a tick on the 2-core x86-64 VM
# (numpy 2.4, OpenBLAS 0.3.31, one BLAS thread) on which the bounds were set)
CLOCKS = {
    "dense": (dense_kernel, 0.00038),
    "calls": (calls_kernel, 0.0006),
}


class SpeedProbe:
    def __init__(self):
        # speed relative to nominal, per clock and tick
        self.factors: dict[str, list[float]] = {c: [] for c in CLOCKS}
        self._kernel_s = {c: [] for c in CLOCKS}
        self._virtual = dict.fromkeys(CLOCKS, 0.0)
        self._factor = dict.fromkeys(CLOCKS, 1.0)
        self._since = time.perf_counter()
        self._ticks = 0
        self._in_tick = False

    def _tick(self, _signum=None, _frame=None) -> None:
        if self._in_tick:  # the host stalled a tick past the next alarm
            return
        self._in_tick = True
        try:
            t0 = time.perf_counter()
            for c in CLOCKS:
                self._virtual[c] += (t0 - self._since) * self._factor[c]
            for c, (kernel, nominal_s) in CLOCKS.items():
                t = time.perf_counter()
                kernel()
                self._kernel_s[c] = self._kernel_s[c][-2:] + [time.perf_counter() - t]
                self._factor[c] = nominal_s / statistics.median(self._kernel_s[c])
                self.factors[c].append(self._factor[c])
            self._since = time.perf_counter()
            self._ticks += 1
        finally:
            self._in_tick = False

    def now(self, clock: str = "dense") -> float:
        """Seconds at nominal host speed on ``clock`` since the probe was made."""
        while True:
            ticks = self._ticks
            virtual, since, factor = self._virtual[clock], self._since, self._factor[clock]
            t = time.perf_counter()
            if self._ticks == ticks:  # no tick in between
                return virtual + (t - since) * factor

    @contextmanager
    def running(self):
        old = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
