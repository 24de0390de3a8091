"""Cascade, periodized truth cycle, the observer step, the half-pass map, run_back_and_forth.

The unknown source becomes the initial displacement of a source-free
cascade wave whose left Neumann trace drives a boundary oscillator with
output Y. The observer is a copy of that cascade driven through its x=0
Dirichlet value by the output mismatch; forward and time-reversed sweeps
over the measurement window alternate, and after every backward sweep the
observer displacement at t = 2kT is the current source estimate.

Every sweep integrates in a local time that increases. Half-pass k runs
forward for even k and backward (the time-reversed dynamics) for odd k.
The time-reversed system is the forward one in the reversed time, so
every sweep takes the same step, and the state is stored in the local
time of the sweep it is ready for: the turn (_turned) re-seeds the wave
(leapfrog._turned_wave) and negates the oscillator velocity z2. Only
the replay order of the measurement, reversed on a backward sweep, comes
from the parity of the half-pass index. The oscillator is propagated with
the matrix exponential of its homogeneous part, a scaled and squared
Taylor series summed in long double (_expm), plus trapezoidal forcing.
The wave trace entering the oscillator is held at its left endpoint
within each step (explicit coupling); the measured output Y
enters with both endpoints. The observer state is one velocity-basis
vector (u, v, z1, z2, w), v = (u - u_prev)/dt, with one integral channel,
w = integral of z1 - Y; the step, the sweep, the map and the turn act on it.
The observer's wave block is the wave's one-step matrix (_wave_parts' S)
in every row but the x=0 node and its velocity.

Each loop is written once, and none in this module or in the wave runs it
calls advances one time node per Python iteration. A sweep and the truth
cascade are each a time-invariant linear recurrence
x_k+1 = S x_k + B (s_k, s_k+1) over a sample series, and
leapfrog._run_recurrence, the one evaluator of such recurrences, runs them
in blocks of steps. The cascade is one free system: the wave's one-step
matrix and trace row (leapfrog._wave_parts) coupled to the plant
oscillator's step (_oscillator_forcing, the one home of its trapezoid
forcing), run once from (q, 0) and a resting oscillator; no run drives
the oscillator on its own. That one run is the truth cycle
(simulate_cascade): the oscillator's (z1, z2) at every node, read out,
and the wave at the turn, from its end state. The backward half of the
cycle is the forward half time-reversed: its rows in reverse order, z2
negated.
_observer_step is the one coupled observer step: it advances the wave by
_wave_parts' S, as the cascade does, and it alone computes the injection
value that the x=0 node takes; _linear_parts applies it to the columns of
the identity for S and B.

run_back_and_forth takes one route; the tests' reference for it runs every
half-pass as a sweep of its own (tests/half_pass.py). A half-pass is linear
in the observer state and affine in the measurement, so every half-pass,
from the zero start on, is the map x <- S^n x + c followed by the turn R,
with S the one-step matrix (fixed by grid, gains and omega; Ramdani,
Tucsnak & Weiss 2010; Ito, Ramdani & Tucsnak 2011) and c the measurement's
share: the sweep's end from the zero state over the pass's samples in their
replay order. _linear_parts builds S, B and R once per grid, gains and
omega, and S^n is kept for the process by content (leapfrog._kept). The run
keeps its states as two arrays of velocity-basis rows, the start of every
half-pass and the end of every sweep, and calls nothing else inside the
loop. The truth monitor is a function of those arrays run after it
(_truth_history): five quadratic forms in a sweep's start state
(_sweep_forms, evaluated by _start_integrals), expanded around the two
sweeps from the zero state that give c, yield the integrals it would have
taken from that sweep's series; their quadratic part is the same for every
sweep, and it and the rows their linear parts are summed over are kept for
the process with the evaluator's set-up (leapfrog._kept), so a run on a
system seen before builds neither again.
It takes the arrays whole: the error fields of all boundaries are
one stack of rows, and the norms (grid.l2_norm, grid.h1_seminorm),
lyapunov_value and the trace-bound ratio each take a stack of rows and
return one value per row, so no Python loop runs per boundary. Each
formula is written once, and for one field they return a float. The result
keeps the estimates as one array of rows and the per-cycle results as one
array per iterations.csv column (CYCLE_COLUMNS).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .forward import MeasurementRecord
from .grid import Gains, Grid1D, _same_time, _slope_sq, _trapezoid_sq, h1_seminorm, l2_norm
from .leapfrog import (
    _from_velocity_basis,
    _kept,
    _run_recurrence,
    _to_velocity_basis,
    _turned_wave,
    _wave_parts,
    continuation_level,
    init_leapfrog,
    neumann_trace,
)

__all__ = [
    "CYCLE_COLUMNS",
    "RunHistory",
    "BackAndForthResult",
    "oscillator_propagator",
    "simulate_cascade",
    "hidden_regularity_ratio",
    "lyapunov_value",
    "pass_samples",
    "run_back_and_forth",
]


def _expm(M: np.ndarray) -> np.ndarray:
    """exp(M) of a small dense matrix, computed in long double, returned in float64.

    Scaling and squaring (Moler & Van Loan, SIAM Rev. 45, 2003): halve M
    until its 1-norm is at most 1/2, sum the Taylor series to 20 terms in
    Horner form (truncation below 1e-25), and square back. In long double
    the oscillator propagator's entries land within 0.51 ulp of a 50-digit
    exponential for omega <= 20, dt <= 0.5; the same series in float64
    takes the stepped route of scripts/extended_reference.py to 1.24e-11,
    past its 9e-12 gate. A non-finite M, whose halving would never end,
    raises ValueError, and so does an M whose squaring overflows (a finite
    omega far above any mode of the grid, such as 1e20), with no warning.
    """
    X = np.array(M, dtype=np.longdouble)
    if not np.isfinite(X).all():
        raise ValueError("matrix exponential of a non-finite matrix")
    squarings = 0
    while np.abs(X).sum(axis=0).max() > 0.5:
        X /= 2
        squarings += 1
    eye = np.eye(len(X), dtype=np.longdouble)
    E = eye
    for k in range(20, 0, -1):
        E = eye + X @ E / k
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            E = E @ E
        E = E.astype(np.float64)
    if not np.isfinite(E).all():
        raise ValueError("matrix exponential overflows")
    return E


@lru_cache(maxsize=64)
def oscillator_propagator(omega: float, gamma2: float, dt: float) -> np.ndarray:
    """exp(dt*A) for the augmented (z1, z2, w) system; the array is read-only.

    z1' = -gamma2*z1 + z2, z2' = -omega^2*z1 + trace forcing; the plant is
    gamma2 = 0 and runs the (z1, z2) block. w' = z1 gives the observer's
    integral channel the share of z1 that the rotation propagates exactly.
    The exponential is _expm's scaled and squared Taylor series, summed in
    long double, so importing the package needs no scipy. An omega whose
    square overflows, or whose exponential overflows on the way, raises
    ValueError.
    """
    A = np.array(
        [
            [-gamma2, 1.0, 0.0],
            [-omega * omega, 0.0, 0.0],
            [1.0, 0.0, 0.0],
        ]
    )
    E = _expm(dt * A)
    E.flags.writeable = False
    return E


def _oscillator_forcing(omega: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The plant oscillator's step z <- E z + B (trace_k, trace_k+1).

    Exact homogeneous propagation, trapezoidal forcing: E is the
    propagator's (z1, z2) block and the trace enters channel 2, so
    B = (dt/2) (E e2, e2).
    """
    E = oscillator_propagator(omega, 0.0, dt)[:2, :2]
    return E, 0.5 * dt * np.column_stack([E[:, 1], (0.0, 1.0)])


# ---------------------------------------------------------------------------
# truth-side systems


@dataclass
class PlantCycle:
    """One 2T cycle of the periodized truth system, from one cascade run.

    The backward half is the forward half time-reversed, so the cycle is
    exactly periodic and a single integration serves every iteration. z
    holds (z1, z2) at the n+1 nodes of the forward half, z1 the output Y;
    the backward half's (z1, z2), in its own local time, are z's rows in
    reverse order with z2 negated. field_T and vel_T are the wave at the
    turn t = T.
    """

    z: np.ndarray
    field_T: np.ndarray
    vel_T: np.ndarray

    @property
    def Y(self) -> np.ndarray:
        return self.z[:, 0]

    @property
    def sweep_z(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows (z1, z2) at the nodes of a forward and of a backward sweep, each in its local time."""
        z = self.z.T
        return z, z[:, ::-1] * np.array([[1.0], [-1.0]])


def simulate_cascade(q: np.ndarray, omega: float, grid: Grid1D) -> PlantCycle:
    """Source-free wave from (q, 0) feeding the boundary oscillator: the truth cycle.

    Returns the oscillator's (z1, z2), whose z1 is the output Y
    (output-equivalent to the forced plant's trace), and the wave at the
    turn. The oscillator here sees both trace endpoints of each step; there
    is no feedback, so nothing forces the explicit coupling used by the
    observer. Wave and oscillator are one free system on (x, z), x the
    wave's velocity-basis state: x <- S x, z <- E z + B (D x, D S x), with S
    and D of the wave run (_wave_parts) and E, B of the oscillator step
    (_oscillator_forcing). _run_recurrence runs it once, reading out z1 and
    z2.
    """
    q = np.asarray(q, dtype=float)
    if q[0] != 0.0 or q[-1] != 0.0:
        raise ValueError("cascade initial datum must vanish at both endpoints")
    S, D = _wave_parts(grid)
    E, B = _oscillator_forcing(omega, grid.dt)
    dim = len(S)
    Sc = np.zeros((dim + 2, dim + 2))
    Sc[:dim, :dim] = S
    Sc[dim:, :dim] = B @ np.vstack([D, D @ S])  # z takes (D x, D S x) through B
    Sc[dim:, dim:] = E
    Dc = np.eye(2, dim + 2, dim)  # reads z1, z2
    x0 = np.append(_to_velocity_basis(init_leapfrog(q, None, grid), grid), (0.0, 0.0))
    n = grid.n_steps_per_pass
    out = np.empty((2, n + 1))
    x = _run_recurrence(Sc, np.zeros((dim + 2, 0)), Dc, x0, np.zeros(n + 1), out)
    end = _from_velocity_basis(x[:dim], grid)
    vel_T = (continuation_level(end, grid) - end.u_prev) / (2.0 * grid.dt)
    return PlantCycle(z=out.T, field_T=end.u_curr.copy(), vel_T=vel_T)


# ---------------------------------------------------------------------------
# the measurement


def pass_samples(measurement: MeasurementRecord, grid: Grid1D) -> np.ndarray:
    """The measurement's samples, refused unless they fill exactly one pass.

    One pass is n_steps_per_pass + 1 samples at the grid's dt, matched by
    the one sample-time rule (grid._same_time). Forward
    half-passes replay them in order, backward ones reversed, so the
    periodized signal is continuous at every turn. Raises ValueError.
    """
    n = grid.n_steps_per_pass
    if len(measurement.y) != n + 1 or not _same_time(measurement.dt, grid.dt, grid.dt):
        raise ValueError(
            f"sampling mismatch: measurement has {len(measurement.y)} samples at "
            f"dt={measurement.dt}, a pass needs {n + 1} at dt={grid.dt}"
        )
    return measurement.y


# ---------------------------------------------------------------------------
# reporting containers

# the per-cycle results, in the order of their iterations.csv columns
CYCLE_COLUMNS = ("l2_err", "h1_err", "lyapunov", "energy_residual")


@dataclass
class RunHistory:
    """Error-system samples at half-pass boundaries (truth monitoring only).

    energy_lhs bundles the conserved quadratic form plus the dissipation
    integral; it should keep its t=0 value energy_lhs[0]. second_energy_lhs
    is the higher-order bundle whose boundedness is checked against
    initial_bundle. hidden_ratios holds one trace-bound ratio per sweep.
    """

    lyapunov: np.ndarray
    energy_lhs: np.ndarray
    second_energy_lhs: np.ndarray
    initial_bundle: float
    hidden_ratios: np.ndarray

    @property
    def energy_residuals(self) -> np.ndarray:
        """Defect of the energy balance at every boundary, relative to its t=0 value.

        |energy_lhs - energy_lhs[0]| over energy_lhs[0]; absolute when that
        value is zero (a zero truth), where no relative defect exists.
        """
        rhs = self.energy_lhs[0]
        gap = np.abs(self.energy_lhs - rhs)
        return gap / rhs if rhs > 0.0 else gap


@dataclass
class BackAndForthResult:
    """A run's estimates, its per-cycle results and, with a truth, its monitor history.

    estimates has one row per cycle k = 0..n_iterations, the source estimate
    after k cycles (row 0 the zero initial guess). per_cycle maps each name
    of CYCLE_COLUMNS to one value per cycle: the estimate's L2 and H1 errors,
    the Lyapunov value and the energy residual at its cycle boundary; None
    without a truth. final_state is the velocity-basis vector (u, v, z1, z2,
    w) after the last half-pass, turned for the forward pass that would
    come next.
    """

    estimates: np.ndarray
    per_cycle: dict[str, np.ndarray] | None
    history: RunHistory | None
    final_state: np.ndarray


# ---------------------------------------------------------------------------
# the observer step


def _observer_step(gains: Gains, omega: float, grid: Grid1D):
    """One coupled observer step, in the sweep's local time, on columns of states.

    step(x, z1, z2, w, Yn, Yn1) returns the advanced (x, z1, z2, w) for
    (2(nx+1), m) velocity-basis wave states and rows of m oscillator and
    integral values, Yn and Yn1 the measurement at the two ends of the step.
    The oscillator holds the left trace of u over the whole step (explicit
    coupling). w, the integral of z1 - Y, takes the z1 share of the
    propagator's third row and the trapezoid of Y. The wave advances by
    _wave_parts' S; then its x=0 node takes the injection value
    g1 (z1 - Y) + g1 g2 w, and the velocity there the node's change over dt.
    _linear_parts applies it to the columns of the identity, so it defines
    the one-step matrix S and input matrix B that every sweep runs.
    """
    E = oscillator_propagator(omega, gains.gamma2, grid.dt)
    (e11, e12, _), (e21, e22, _), (e31, e32, _) = E.tolist()
    Sw = _wave_parts(grid)[0]
    nx1, dt, dx = grid.nx + 1, grid.dt, grid.dx
    hdt = 0.5 * dt
    g1, g2 = gains.gamma1, gains.gamma2
    g1g2 = g1 * g2

    def step(x, z1, z2, w, Yn, Yn1):
        trc = neumann_trace(x[:nx1], dx)
        b1 = g2 * Yn
        z1n = e11 * z1 + e12 * z2 + hdt * (e11 * b1 + e12 * trc + g2 * Yn1)
        z2n = e21 * z1 + e22 * z2 + hdt * (e21 * b1 + e22 * trc + trc)
        wn = w + e31 * z1 + e32 * z2 + hdt * (e31 * b1 + e32 * trc - (Yn + Yn1))
        xn = Sw @ x
        xn[0] = g1 * (z1n - Yn1) + g1g2 * wn
        xn[nx1] = (xn[0] - x[0]) / dt
        return xn, z1n, z2n, wn

    return step


def _pinned(u: np.ndarray) -> np.ndarray:
    """A copy of the displacement u, or of every row of a stack, with both walls set to zero."""
    q_hat = u.copy()
    q_hat[..., [0, -1]] = 0.0
    return q_hat


# ---------------------------------------------------------------------------
# truth monitoring


def _second_x_derivative(f: np.ndarray, dx: float) -> np.ndarray:
    """Second x-derivative of a field, or of every row of a stack; one-sided at the walls."""
    d = np.empty_like(f)
    d[..., 1:-1] = (f[..., 2:] - 2.0 * f[..., 1:-1] + f[..., :-2]) / (dx * dx)
    d[..., 0] = (2.0 * f[..., 0] - 5.0 * f[..., 1] + 4.0 * f[..., 2] - f[..., 3]) / (dx * dx)
    d[..., -1] = (2.0 * f[..., -1] - 5.0 * f[..., -2] + 4.0 * f[..., -3] - f[..., -4]) / (dx * dx)
    return d


def _sweep_integrals(e: np.ndarray, dt: float) -> np.ndarray:
    """The five integrals the truth monitor takes from one sweep.

    e holds the sweep's series (z1 - z1_truth, z2 - z2_truth, f, trace), f
    the x=0 Dirichlet value; the result is the trapezoid integrals of their
    squares, then the integral of the squared slope of f.
    """
    return np.append(_trapezoid_sq(e, dt), _slope_sq(e[2], dt))


def _trace_bound_ratio(int_f, int_tr, int_fd, q0, q1, T: float, grid: Grid1D):
    """hidden_regularity_ratio from the integrals of f^2, trace^2 and the slope of f.

    Per row when the integrals are arrays and q0, q1 stacks of fields. A row
    whose bound's data vanish reads 0 when its trace energy is at most
    1e-300 (nothing moved, the bound holds trivially) and is refused
    otherwise.
    """
    den = 2.0 * (4.0 * T * T + 3.0) * (int_f + int_fd) + 2.0 * (2.0 + T) * (
        h1_seminorm(q0, grid) ** 2 + l2_norm(q1, grid) ** 2
    )
    vacuous = den <= 0.0
    if np.any(vacuous & np.logical_not(int_tr <= 1e-300)):
        raise ValueError("trace energy is nonzero but the bound's data vanish")
    return np.where(vacuous, 0.0, int_tr / np.where(vacuous, 1.0, den))


def hidden_regularity_ratio(
    f: np.ndarray,
    q0: np.ndarray,
    q1: np.ndarray,
    trace: np.ndarray,
    T: float,
    grid: Grid1D,
) -> float:
    """Boundary-trace energy over its a-priori bound; at most 1 is expected.

    ratio = ||trace||^2_{L2(0,T)} / [ 2(4T^2+3)||f||^2_{H1(0,T)}
             + 2(2+T)(||q0_x||^2 + ||q1||^2) ]
    where f is the x=0 Dirichlet data of the run and trace its x=0 Neumann
    trace. The H1 norm is the full one (values plus difference-quotient
    derivative), the conservative reading.
    """
    f = np.asarray(f, dtype=float)
    trace = np.asarray(trace, dtype=float)
    if f.shape != trace.shape:
        raise ValueError("boundary data and trace series must share sampling")
    dt = T / (len(f) - 1)
    return float(
        _trace_bound_ratio(
            _trapezoid_sq(f, dt), _trapezoid_sq(trace, dt), _slope_sq(f, dt), q0, q1, T, grid
        )
    )


def lyapunov_value(
    w1_err: np.ndarray,
    w2_err: np.ndarray,
    z1_err,
    z2_err,
    gains: Gains,
    omega: float,
    grid: Grid1D,
) -> float | np.ndarray:
    """Energy functional of the error state.

    V = (1/2)(|w1_x|^2 + |w2|^2 + gamma1*omega^2*z1^2 + gamma1*z2^2);
    positive definite in (w1_x, w2, z1, z2) and non-increasing along the
    monitored error dynamics. A float for one error state; for stacks of
    fields w1_err, w2_err and arrays z1_err, z2_err, one value per row.
    """
    g1, om2 = gains.gamma1, omega * omega
    return 0.5 * (
        h1_seminorm(w1_err, grid) ** 2
        + l2_norm(w2_err, grid) ** 2
        + g1 * om2 * z1_err * z1_err
        + g1 * z2_err * z2_err
    )


def _truth_history(
    q, plant: PlantCycle, starts, ends, integrals, gains: Gains, omega: float, grid: Grid1D
) -> RunHistory:
    """Observer-minus-truth samples of a run, against the exactly periodic truth cycle.

    starts[h] is the velocity-basis state before half-pass h (its last row
    the final state), ends[h] the state that sweep h leaves before the turn,
    and integrals[h] the five integrals (_sweep_integrals) of sweep h's
    read-outs minus the truth. Every boundary gets the Lyapunov value and the
    two energy bundles, every sweep its trace-bound ratio, each series as
    one expression over the rows.
    """
    nx1, dt = grid.nx + 1, grid.dt
    g1, om2 = gains.gamma1, omega * omega
    g1g2 = g1 * gains.gamma2
    u_prev, u, z1, z2, _ = (a.T for a in _state_parts(starts.T, grid))
    # the velocity at a boundary, in the local time of the sweep that ended
    # there (zero at the start): from the level before it, on both sides of the turn
    before_end = _state_parts(ends.T, grid)[0].T
    vel = np.vstack([np.zeros(nx1), (u_prev[1:] - before_end) / (2.0 * dt)])
    # integrals of (z1 - z1_truth)^2 and (z2 - z2_truth)^2 up to each boundary
    int_zt_sq = np.cumsum(np.vstack([np.zeros(2), integrals[:, :2]]), axis=0)
    # the truth at boundary h, by its parity: the field and velocity (q, 0) at
    # t = 0 and the turn state at t = T, and the oscillator at the first node
    # of the coming sweep
    parity = np.arange(len(starts)) % 2
    w1 = u - np.stack([q, plant.field_T])[parity]
    w2 = vel - np.stack([np.zeros(nx1), plant.vel_T])[parity]
    z_truth = np.stack([z[:, 0] for z in plant.sweep_z])[parity]
    zt1, zt2 = z1 - z_truth[:, 0], z2 - z_truth[:, 1]
    w2t = l2_norm(_second_x_derivative(w1, grid.dx), grid)
    tr_err = neumann_trace(w1.T, grid.dx)
    sweeps = len(integrals)
    return RunHistory(
        lyapunov=lyapunov_value(w1, w2, zt1, zt2, gains, omega, grid),
        energy_lhs=h1_seminorm(w1, grid) ** 2
        + l2_norm(w2, grid) ** 2
        + g1 * zt2 * zt2
        + g1 * om2 * zt1 * zt1
        + 2.0 * g1g2 * om2 * int_zt_sq[:, 0],
        second_energy_lhs=0.5
        * (w2t * w2t + h1_seminorm(w2, grid) ** 2 + g1 * om2 * om2 * zt1 * zt1)
        + 0.25 * g1 * tr_err * tr_err
        + 0.5 * g1g2 * om2 * int_zt_sq[:, 1]
        + g1 * om2 * zt2 * zt2,
        initial_bundle=l2_norm(q, grid) ** 2
        + h1_seminorm(q, grid) ** 2
        + l2_norm(_second_x_derivative(q, grid.dx), grid) ** 2,
        hidden_ratios=_trace_bound_ratio(
            *integrals[:, 2:].T, u[:sweeps], vel[:sweeps], grid.T, grid
        ),
    )


# ---------------------------------------------------------------------------
# the half-pass maps
#
# A half-pass is linear in the observer state and affine in the measurement:
# the sweep leaves S^n x + c from the start x, and the turn R re-seeds it, with
# S the one-step matrix over a zero measurement and c = sum_k S^(n-1-k) B
# (Y_k, Y_k+1) over the pass's samples in replay order. The state vector is
# (u_curr, (u_curr - u_prev)/dt, z1, z2, w), which the step advances as it
# stands, its wave part by _wave_parts' S, and _state_parts reads as levels.
# In this velocity basis the map keeps the 50-cycle reference estimates within
# 5.7e-12 (relative) of an extended-precision run of the same recurrence stepped
# node by node (a float64 stepped run: 1.3e-13; scripts/extended_reference.py);
# in the two-level basis (u_prev, u_curr), where the cycle map is about 400 in
# norm, they drift by up to 7.5e-7. One cycle is x <- M x + b with
# M = (R S^n)^2 (Ramdani, Tucsnak & Weiss 2010).


def _state_parts(x: np.ndarray, grid: Grid1D) -> tuple:
    """(u_prev, u_curr, z1, z2, w) of a velocity-basis vector or matrix."""
    nx1 = grid.nx + 1
    wave = _from_velocity_basis(x[: 2 * nx1], grid)
    return wave.u_prev, wave.u_curr, *x[2 * nx1 :]


def _turned(x: np.ndarray, grid: Grid1D) -> np.ndarray:
    """The turn of a velocity-basis vector, or of a matrix of one state per column.

    The wave part turns (leapfrog._turned_wave) and z2 is negated. The turn
    matrix R is this arithmetic on the columns of the identity.
    """
    dim = 2 * (grid.nx + 1)
    z1, z2, w = x[dim:]
    return np.concatenate([_turned_wave(x[:dim], grid), np.array([z1, -z2, w])])


@lru_cache(maxsize=8)
def _linear_parts(gains: Gains, omega: float, grid: Grid1D):
    """The turn R, the one-step matrix S and the step's input matrix B.

    A step takes the velocity-basis state x to S x + B (Y_k, Y_k+1), the
    measurement at its two ends. Each is the step's or the turn's own
    arithmetic applied to the columns of the identity, B to the zero state
    under unit measurement values. Built once per grid, gains and omega;
    the arrays are read-only.
    """
    eye = np.eye(2 * grid.nx + 5)
    zero = np.zeros((len(eye), 2))
    step = _observer_step(gains, omega, grid)
    parts = (
        _turned(eye, grid),
        np.vstack(step(eye[:-3], *eye[-3:], 0.0, 0.0)),
        np.vstack(step(zero[:-3], *zero[-3:], np.array([1.0, 0.0]), np.array([0.0, 1.0]))),
    )
    for a in parts:
        a.flags.writeable = False
    return parts


def _readout_rows(grid: Grid1D) -> np.ndarray:
    """The rows reading z1, z2, the x=0 value f and the left trace: _state_parts on the identity."""
    _, u, z1, z2, _ = _state_parts(np.eye(2 * grid.nx + 5), grid)
    return np.array([z1, z2, u[0], neumann_trace(u, grid.dx)])


_POWER_BLOCK = 128  # steps whose rows _power_rows holds at once


def _power_rows(S: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows S^j, j < b, stacked along a first axis, and S^b; b = _POWER_BLOCK.

    The rows are carried one step at a time.
    """
    b = _POWER_BLOCK
    block = np.empty((b, *rows.shape))
    block[0] = rows
    for j in range(1, b):
        block[j] = block[j - 1] @ S
    return block, np.linalg.matrix_power(S, b)


def _power_sum(powers: tuple[np.ndarray, np.ndarray], a: np.ndarray) -> np.ndarray:
    """sum_k a[:, k] * (rows S^k), one result row per row of rows; powers = _power_rows(S, rows).

    Each block of b terms is one matrix product with the rows S^j, j < b,
    and the blocks are joined by Horner's rule in S^b. That is about
    b + K/b small products for K terms, each sum as accurate as the rows.
    """
    block, Sb = powers
    b = len(block)
    full = a.shape[1] // b
    tail = a[:, full * b :]
    total = np.einsum("ck,kcd->cd", tail, block[: tail.shape[1]])
    sums = np.matmul(a[:, : full * b].reshape(len(a), full, b), block.transpose(1, 0, 2))
    for i in reversed(range(full)):
        total = total @ Sb + sums[:, i]
    return total


def _sweep_forms(S: np.ndarray, series: list[np.ndarray], grid: Grid1D):
    """Linear parts g, one per recorded series, and the quadratic part G of the sweep integrals.

    e is the series (of _sweep_integrals) of a sweep from the zero state. The
    same sweep from the state x records e + (D S^k x)_k, D the rows that read
    z1, z2, f and the trace off a state, and the differences of its f change
    by D_f (S - I) S^k x. So each of its integrals is h + 2 g.x + x.G.x, h
    that of e, with g = sum_k a_k D S^k and G = sum_k w_k S^k' D'D S^k over
    the sweep's steps (a_k the weighted series, w_k the weights). g is a
    _power_sum, redone on every run over the rows of _power_rows. Neither G
    nor those rows depend on e: _quadratic_part sums G once per S, D, n and
    dt, and the rows are built once per S and D, both kept by content
    (leapfrog._kept). G comes first, so that on a system's first run its
    doubling's temporaries do not stack on the rows.
    """
    dt, n = grid.dt, grid.n_steps_per_pass
    read = _readout_rows(grid)
    D = np.vstack([read, read[2] @ S - read[2]])
    G = _kept(_quadratic_part, S, D, n, dt)
    # The term k = 0 is summed apart: D[4] reads f_1 - f_0, which is not
    # small off the sweep's states, while D[4] S^k, k >= 1, are differences
    # of consecutive f, and carried from D S they keep their own scale.
    powers = _kept(_power_rows, S, D @ S)
    # the weighted series a of one direction at a time, refilled in place
    a = np.empty((5, n + 1))
    a[4, n] = 0.0
    gs = []
    for e in series:
        # trapezoid over k = 0..n for the four series; the slope of f over k = 0..n-1
        np.multiply(e, dt, out=a[:4])
        a[:4, [0, n]] *= 0.5
        a[4, :n] = np.diff(e[2]) / dt
        gs.append(a[:, :1] * D + _power_sum(powers, a[:, 1:]))
    return gs, G


def _quadratic_part(S: np.ndarray, D: np.ndarray, n: int, dt: float) -> np.ndarray:
    """G of _sweep_forms for the rows D over a sweep of n steps of dt.

    Summed by doubling, W(i + j) = W(i) + S^i' W(j) S^i with W(j) the sum
    over j steps.
    """
    DS = D @ S
    W = DS[:, :, None] * DS[:, None, :]
    P, A, total, bits = S, np.eye(len(S)), np.zeros_like(W), n - 1
    while True:
        if bits & 1:
            total += A.T @ W @ A
            A = A @ P
        bits >>= 1
        if not bits:
            break
        W = W + P.T @ W @ P
        P = P @ P
    # total sums k = 1 .. n-1 and A = S^(n-1); the trapezoid adds k = 0 and
    # k = n at half weight, the slope k = 0 at full weight
    first, last = D[:4], DS[:4] @ A
    G = np.empty_like(W)
    G[:4] = dt * total[:4] + 0.5 * dt * (
        first[:, :, None] * first[:, None, :] + last[:, :, None] * last[:, None, :]
    )
    G[4] = (total[4] + np.outer(D[4], D[4])) / dt
    return G


def _start_integrals(S: np.ndarray, records: list[np.ndarray], starts: np.ndarray, grid: Grid1D):
    """The five integrals (_sweep_integrals) of sweep h from its velocity-basis start starts[h].

    records holds the series of the sweeps from the zero state, forward then
    backward, and sweep h replays in the order of h's parity. Each integral
    is h + (2 g + G x).x, the forms of _sweep_forms expanded around them.
    """
    gs, G = _sweep_forms(S, records, grid)
    hs = [_sweep_integrals(e, grid.dt) for e in records]
    return np.array([hs[h % 2] + (2.0 * gs[h % 2] + G @ x) @ x for h, x in enumerate(starts)])


# ---------------------------------------------------------------------------
# iteration driver


def run_back_and_forth(
    measurement: MeasurementRecord,
    gains: Gains,
    omega: float,
    grid: Grid1D,
    n_iterations: int,
    q_true: np.ndarray | None = None,
) -> BackAndForthResult:
    """Alternate forward/backward observer sweeps over the measurement.

    Starts from the zero observer state. estimates[k] is the source
    estimate after k full cycles (estimates[0] is the zero initial guess);
    per_cycle holds each cycle's errors when q_true is given. Every half-pass
    is the map x <- R (S^n x + c), from the zero state on, with or without
    q_true. With q_true the exact periodized truth cycle is integrated once
    (simulate_cascade), and after the iteration the error fields
    observer-minus-truth are sampled at every half-pass boundary from the
    run's kept states.
    """
    if grid.T < 2.0:
        warnings.warn(
            f"pass length T={grid.T} is below the observability horizon 2; "
            "the sweep may not contract",
            stacklevel=2,
        )
    if n_iterations < 1:
        raise ValueError("n_iterations must be >= 1")
    y = pass_samples(measurement, grid)
    n, halves = grid.n_steps_per_pass, 2 * n_iterations
    history = per_cycle = None
    # a run that blows up (an unstable cfl, or gains so large that the step's
    # own matrices overflow) goes on to its end, where its non-finite result
    # is reported once, not as a warning per overflow
    with np.errstate(over="ignore", invalid="ignore"):
        turn, S, B = _linear_parts(gains, omega, grid)
        Sn = _kept(np.linalg.matrix_power, S, n)
        # velocity-basis states: starts[h] before half-pass h (the last row is
        # the final state), ends[h] as sweep h leaves it, before the turn
        starts = np.zeros((halves + 1, len(S)))
        ends = np.empty((halves, len(S)))
        # c = sum_k S^(n-1-k) B (Y_k, Y_k+1) over the pass's samples, which a
        # backward pass replays reversed: the sweep's end from the zero state, whose
        # read-outs the truth monitor expands its forms around; without a truth, read none
        read = _readout_rows(grid) if q_true is not None else np.empty((0, len(S)))
        records = [np.empty((len(read), n + 1)) for _ in range(2)]
        offsets = [
            _run_recurrence(S, B, read, starts[0], Yp, r) for Yp, r in zip((y, y[::-1]), records)
        ]
        for h in range(halves):
            ends[h] = Sn @ starts[h] + offsets[h % 2]
            starts[h + 1] = turn @ ends[h]
        estimates = _pinned(_state_parts(starts[::2].T, grid)[1].T)
        if q_true is not None:
            q = np.asarray(q_true, dtype=float)
            plant = simulate_cascade(q, omega, grid)
            for e, zt in zip(records, plant.sweep_z):
                e[:2] -= zt
            # the backward sweep's truth rows, a copy as long as the records,
            # would outlive the loop into the forms, where the run's memory peaks
            del zt
            integrals = _start_integrals(S, records, starts[:-1], grid)
            history = _truth_history(q, plant, starts, ends, integrals, gains, omega, grid)
            err = estimates - q
            cycle = (l2_norm(err, grid), h1_seminorm(err, grid))
            cycle += (history.lyapunov[::2], history.energy_residuals[::2])
            per_cycle = dict(zip(CYCLE_COLUMNS, cycle))
    return BackAndForthResult(estimates, per_cycle, history, starts[-1].copy())
