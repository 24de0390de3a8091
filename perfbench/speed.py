"""Host-speed probe: short slices of a fixed kernel, timed during an operation.

The host's speed drifts by tens of per cent over seconds (shared cores and
caches), and it slows this kernel about as much as it slows the program's
small-array stencil loops. A SpeedProbe runs one slice before an operation,
one every PERIOD_S seconds inside it (from a SIGALRM handler, so between two
bytecodes of the operation) and one after it. The operation's time minus
the slices inside it, over the mean slice time, is its cost in slice units:
what stays when the whole host runs faster or slower.

The kernel depends on numpy only, never on bfwave, so a change to the
program moves the operation's time and not the unit it is counted in.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
SLICE_STEPS = 400
NODES = 21


def kernel(steps: int) -> float:
    """A leapfrog wave update on NODES nodes, one fresh array per step."""
    prev = np.zeros(NODES)
    cur = np.zeros(NODES)
    cur[NODES // 2] = 1.0
    for _ in range(steps):
        nxt = np.empty_like(cur)
        nxt[1:-1] = 2.0 * cur[1:-1] - prev[1:-1] + 0.25 * (cur[2:] - 2.0 * cur[1:-1] + cur[:-2])
        nxt[0] = nxt[-1] = 0.0
        prev, cur = cur, nxt
    return float(cur.sum())


class SpeedProbe:
    """Context manager timing kernel slices around and inside a block.

    slices holds (start, seconds) of every slice, in perf_counter time.
    """

    def __init__(self):
        self.slices: list[tuple[float, float]] = []
        self._previous = None

    def _slice(self) -> None:
        t0 = time.perf_counter()
        kernel(SLICE_STEPS)
        self.slices.append((t0, time.perf_counter() - t0))

    def _tick(self, signum, frame) -> None:
        self._slice()
        # one-shot re-arm: slices never nest and stay PERIOD_S of work apart
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self) -> SpeedProbe:
        self._slice()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._slice()

    def inside(self, t0: float, t1: float) -> float:
        """Seconds of slices that started within [t0, t1]."""
        return sum(s for start, s in self.slices if t0 <= start <= t1)

    def mean_slice(self) -> float:
        return statistics.fmean(s for _, s in self.slices)
