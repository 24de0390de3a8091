"""The two-stage cascade route: the oscillator driven over a given trace series.

bfwave runs the cascade's wave and oscillator as one free recurrence
(observer.simulate_cascade). oscillator_drive runs the plant oscillator's
step alone, on the same forcing pair (observer._oscillator_forcing), so the
tests can check the step against closed forms and the cascade against the
free wave run (leapfrog.run_homogeneous) followed by the drive over its
trace, and scripts/extended_reference.py can measure that route.
"""

import numpy as np

from bfwave.leapfrog import _run_recurrence
from bfwave.observer import _oscillator_forcing


def oscillator_drive(z0, trace: np.ndarray, omega: float, dt: float) -> np.ndarray:
    """Uncoupled plant oscillator run over a given trace series, one row per node.

    The step of _oscillator_forcing, run by _run_recurrence. Row 0 is the
    start z0, any (z1, z2) pair.
    """
    E, B = _oscillator_forcing(omega, dt)
    z = np.empty((2, len(trace)))
    _run_recurrence(E, B, np.eye(2), np.asarray(z0, dtype=float), trace, z)
    return z.T
