"""Explicit leapfrog integrator for u_tt = u_xx + f on (0, 1).

Dirichlet data at x = 0 (possibly time dependent), homogeneous Dirichlet
at x = 1. The scheme stores two consecutive displacement levels; it is
exactly time reversible and conserves its discrete energy, which is what
makes repeated forward/backward sweeps trustworthy.

A state can be integrated in either time direction. "backward" means the
time label decreases; the stencil is identical because the update is
symmetric in the two stored levels.

Every integrator in the package advances a level through the one interior
update _leap and reads the left Neumann trace through the one stencil
neumann_trace; callers only set the two boundary nodes. _leap,
neumann_trace and continuation_level also take (nx+1, m) arrays, one level
per column, which is how the observer's cycle map is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid1D

__all__ = [
    "LeapfrogState",
    "BoundarySchedule",
    "init_leapfrog",
    "step",
    "neumann_trace",
    "trace_left",
    "velocity",
    "discrete_energy",
    "run_homogeneous",
    "run_with_boundary",
    "continuation_level",
    "reversed_state",
]

_SIGMA = {"forward": 1.0, "backward": -1.0}


@dataclass
class LeapfrogState:
    """Two consecutive time levels of the displacement field.

    u_curr is the level at t_index; u_prev is one step earlier along the
    state's integration direction. Arrays are treated as immutable.
    """

    u_prev: np.ndarray
    u_curr: np.ndarray
    t_index: int
    direction: str = "forward"

    def __post_init__(self):
        if self.direction not in _SIGMA:
            raise ValueError(f"direction must be forward|backward, got {self.direction!r}")
        if self.u_prev.shape != self.u_curr.shape:
            raise ValueError("level shapes differ")


def _leap(u_prev, u_curr, c2, dt2_f=None):
    """One interior leapfrog update; boundary nodes are left for the caller.

    un = (2 u_curr - u_prev) + c2 ((u_curr[+1] - 2 u_curr) + u_curr[-1]) [+ dt2_f],
    evaluated in that order, in place where the result allows.
    """
    un = np.empty_like(u_curr)
    inner = un[1:-1]
    twice = 2.0 * u_curr[1:-1]
    lap = u_curr[2:] - twice
    lap += u_curr[:-2]
    lap *= c2
    np.subtract(twice, u_prev[1:-1], out=inner)
    inner += lap
    if dt2_f is not None:
        inner += dt2_f[1:-1]
    return un


def init_leapfrog(
    q0: np.ndarray,
    v0: np.ndarray | None,
    f0: np.ndarray | None,
    grid: Grid1D,
    direction: str = "forward",
) -> LeapfrogState:
    """Second-order start: ghost level from a Taylor expansion at t = 0.

    u_prev = q0 - sigma*dt*v0 + (dt^2/2)(D2 q0 + f0), sigma = +-1 by direction.
    """
    sigma = _SIGMA[direction]
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (grid.nx + 1,):
        raise ValueError(f"q0 has shape {q0.shape}, expected ({grid.nx + 1},)")
    c2 = grid.cfl * grid.cfl
    up = q0.copy()
    up[1:-1] += 0.5 * c2 * (q0[2:] - 2.0 * q0[1:-1] + q0[:-2])
    if f0 is not None:
        if f0.shape != q0.shape:
            raise ValueError("f0 shape mismatch")
        up[1:-1] += 0.5 * grid.dt * grid.dt * f0[1:-1]
    if v0 is not None:
        if v0.shape != q0.shape:
            raise ValueError("v0 shape mismatch")
        up[1:-1] -= sigma * grid.dt * v0[1:-1]
    up[0] = q0[0]
    up[-1] = q0[-1]
    return LeapfrogState(u_prev=up, u_curr=q0.copy(), t_index=0, direction=direction)


def step(
    state: LeapfrogState,
    left_bc_next: float,
    f_curr: np.ndarray | None,
    grid: Grid1D,
) -> LeapfrogState:
    """Advance one step; the new level gets left_bc_next at x=0 and 0 at x=1."""
    dt2_f = None if f_curr is None else grid.dt * grid.dt * f_curr
    un = _leap(state.u_prev, state.u_curr, grid.cfl * grid.cfl, dt2_f)
    un[0] = left_bc_next
    un[-1] = 0.0
    di = 1 if state.direction == "forward" else -1
    return LeapfrogState(
        u_prev=state.u_curr, u_curr=un, t_index=state.t_index + di, direction=state.direction
    )


def neumann_trace(u: np.ndarray, dx: float) -> float | np.ndarray:
    """Second-order one-sided x-derivative of the level u at x = 0.

    A float for one level; for an (nx+1, m) array of levels, the row of
    the m traces.
    """
    tr = (-3.0 * u[0] + 4.0 * u[1] - u[2]) * (0.5 / dx)
    return float(tr) if u.ndim == 1 else tr


def trace_left(state: LeapfrogState, grid: Grid1D) -> float:
    """Left Neumann trace of u_curr."""
    return neumann_trace(state.u_curr, grid.dx)


def velocity(state: LeapfrogState, state_next: LeapfrogState, grid: Grid1D) -> np.ndarray:
    """Centered time derivative at state's current level, along its direction."""
    di = 1 if state.direction == "forward" else -1
    if state_next.t_index != state.t_index + di or state_next.direction != state.direction:
        raise ValueError("state_next must be one step after state in the same direction")
    return (state_next.u_curr - state.u_prev) / (2.0 * grid.dt)


def discrete_energy(state: LeapfrogState, grid: Grid1D) -> float:
    """Leapfrog-conserved energy of the two stored levels.

    E = (dx/2) * [ sum_j ((u_curr - u_prev)/dt)_j^2
                   + sum_cells Dx(u_curr) * Dx(u_prev) ]
    Constant along homogeneous-BC trajectories up to round-off.
    """
    v = (state.u_curr - state.u_prev) / grid.dt
    gp = np.diff(state.u_prev) / grid.dx
    gc = np.diff(state.u_curr) / grid.dx
    return float(0.5 * grid.dx * (np.sum(v * v) + np.sum(gc * gp)))


def continuation_level(state: LeapfrogState, f_curr: np.ndarray | None, grid: Grid1D) -> np.ndarray:
    """The level one step past u_curr along the state's direction.

    Used for centered velocities at the last computed node and for turning
    a trajectory around without losing second-order accuracy.
    """
    dt2_f = None if f_curr is None else grid.dt * grid.dt * f_curr
    g = _leap(state.u_prev, state.u_curr, grid.cfl * grid.cfl, dt2_f)
    # boundary values are never consumed by interior updates; extrapolate left,
    # keep the pinned right end
    g[0] = 2.0 * state.u_curr[0] - state.u_prev[0]
    g[-1] = 0.0
    return g


def reversed_state(state: LeapfrogState, f_curr: np.ndarray | None, grid: Grid1D) -> LeapfrogState:
    """Turn the trajectory around at u_curr.

    The previous level of the reversed state is the forward continuation of
    the old one, which makes forward-then-backward sweeps retrace the
    discrete trajectory exactly (zero forcing, matching boundary data).
    """
    ghost = continuation_level(state, f_curr, grid)
    direction = "backward" if state.direction == "forward" else "forward"
    return LeapfrogState(
        u_prev=ghost, u_curr=state.u_curr.copy(), t_index=state.t_index, direction=direction
    )


@dataclass(frozen=True)
class BoundarySchedule:
    """Time-dependent Dirichlet data at x = 0; x = 1 stays pinned at 0.

    left_values[n] is the value at time node n, sampled with the grid's dt.
    """

    left_values: np.ndarray

    def value(self, n: int) -> float:
        return float(self.left_values[n])


def run_with_boundary(
    q0: np.ndarray,
    v0: np.ndarray | None,
    schedule: BoundarySchedule,
    grid: Grid1D,
    n_steps: int,
) -> tuple[LeapfrogState, np.ndarray]:
    """Unforced evolution from (q0, v0) driven by prescribed left boundary data.

    Returns the final state and the left trace at every visited node.
    """
    if len(schedule.left_values) < n_steps + 1:
        raise ValueError("boundary schedule shorter than the run")
    if q0[0] != schedule.value(0):
        raise ValueError("initial field does not match the boundary schedule at t=0")
    state = init_leapfrog(q0, v0, None, grid, "forward")
    traces = np.empty(n_steps + 1)
    traces[0] = trace_left(state, grid)
    for k in range(n_steps):
        state = step(state, schedule.value(k + 1), None, grid)
        traces[k + 1] = trace_left(state, grid)
    return state, traces


def run_homogeneous(
    q0: np.ndarray,
    v0: np.ndarray | None,
    grid: Grid1D,
    n_steps: int,
    direction: str = "forward",
) -> tuple[LeapfrogState, np.ndarray]:
    """Free evolution (no forcing, homogeneous Dirichlet BCs) from (q0, v0).

    Returns the final state and the left Neumann trace at every visited node
    (n_steps + 1 values including the initial one).
    """
    state = init_leapfrog(q0, v0, None, grid, direction)
    traces = np.empty(n_steps + 1)
    traces[0] = trace_left(state, grid)
    u_prev, u_curr = state.u_prev, state.u_curr
    c2 = grid.cfl * grid.cfl
    for k in range(n_steps):
        un = _leap(u_prev, u_curr, c2)
        un[0] = 0.0
        un[-1] = 0.0
        u_prev, u_curr = u_curr, un
        traces[k + 1] = neumann_trace(u_curr, grid.dx)
    di = n_steps if direction == "forward" else -n_steps
    final = LeapfrogState(u_prev=u_prev, u_curr=u_curr, t_index=state.t_index + di, direction=direction)
    return final, traces
