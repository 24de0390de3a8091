"""The composed half-pass route: the observer swept one half-pass at a time.

bfwave.observer.run_back_and_forth runs every half-pass through the map
x <- R (S^n x + c). This route runs each half-pass as a sweep of its own:
the one-step recurrence x <- S x + B (Y_k, Y_k+1) of observer._linear_parts,
run by leapfrog._run_recurrence from the state the last half-pass left,
over the measurement replayed in order (forward) or reversed (backward),
then the turn observer._turned. The tests compare the map with it, and
scripts/extended_reference.py measures it against an extended-precision run.
"""

from dataclasses import dataclass

import numpy as np

from bfwave.leapfrog import _run_recurrence
from bfwave.observer import _linear_parts, _pinned, _readout_rows, _turned, pass_samples


@dataclass
class ObserverState:
    """Observer at a half-pass boundary, ready to run pass `half_pass`.

    x is the velocity-basis vector (u, v, z1, z2, w), v = (u - u_prev)/dt,
    that the one-step matrix S acts on. It is in the local time of that pass,
    so at an odd half_pass (before a backward pass) z2 holds the negated
    physical velocity. w is the integral of z1 - Y, each pass in its local time.
    """

    x: np.ndarray
    half_pass: int


def initial_observer_state(grid) -> ObserverState:
    return ObserverState(np.zeros(2 * grid.nx + 5), 0)


def sweep(state: ObserverState, y, gains, omega, grid, rec) -> tuple[ObserverState, np.ndarray]:
    """Advance the coupled wave/oscillator pair over half-pass state.half_pass.

    The pass replays the one-pass samples y, reversed on a backward
    half-pass. Returns the state turned around for the next half-pass and
    the velocity-basis state as the sweep left it (before the turn). The
    rows of rec, shape (4, n+1), receive the read-outs of _readout_rows at
    each node: z1, z2 (in the sweep's local time), the x=0 Dirichlet value
    and the left trace.
    """
    half = state.half_pass
    _, S, B = _linear_parts(gains, omega, grid)
    Yp = y if half % 2 == 0 else y[::-1]
    x = _run_recurrence(S, B, _readout_rows(grid), state.x, Yp, rec)
    return ObserverState(_turned(x, grid), half + 1), x


def observer_half_pass(state: ObserverState, measurement, gains, omega, grid) -> ObserverState:
    """Run one half-pass over the measurement and turn the state around for the next one.

    The returned state sits at the next half-pass boundary, already in the
    next pass's local time (wave re-seeded, oscillator velocity negated),
    so consecutive calls realize the back-and-forth sweep. The measurement
    must hold exactly one pass of samples.
    """
    y = pass_samples(measurement, grid)
    rec = np.empty((4, grid.n_steps_per_pass + 1))
    return sweep(state, y, gains, omega, grid, rec)[0]


def extract_estimate(state: ObserverState, grid) -> np.ndarray:
    """Observer displacement at a cycle boundary t = 2kT, endpoints pinned.

    The raw x=0 node carries the injection value, which vanishes only in
    the limit; the source is known to vanish at both walls, so pin them.
    """
    if state.half_pass % 2 != 0:
        raise ValueError("estimates exist at cycle boundaries (after a backward half-pass)")
    return _pinned(state.x[: grid.nx + 1])
