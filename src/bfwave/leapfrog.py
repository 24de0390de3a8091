"""Explicit leapfrog integrator for u_tt = u_xx + f on (0, 1).

Dirichlet data at x = 0 (possibly time dependent), homogeneous Dirichlet
at x = 1. The scheme stores two consecutive displacement levels; it is
exactly time reversible and conserves its discrete energy, which is what
makes repeated forward/backward sweeps trustworthy.

A state carries no time label or direction: the stencil is symmetric in
the two stored levels, so a sweep runs backward in time once
reversed_state has swapped the roles of past and future at the turn.
Callers that alternate directions read theirs from their own pass index.

Every integrator in the package advances a level through the one interior
update _leap (the start-up ghost level of init_leapfrog included) and reads
the left Neumann trace through the one stencil neumann_trace; callers only
set the two boundary nodes. run_homogeneous is the one run loop with
homogeneous walls, free or forced: the truth cascade and the kernel checks
run it free, forward synthesis forced. _leap, neumann_trace and
continuation_level also take (nx+1, m) arrays, one level per column, which
is how the observer's half-pass maps are built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid1D

__all__ = [
    "LeapfrogState",
    "init_leapfrog",
    "step",
    "neumann_trace",
    "discrete_energy",
    "run_homogeneous",
    "continuation_level",
    "reversed_state",
]


@dataclass
class LeapfrogState:
    """Two consecutive time levels of the displacement field.

    u_prev is one step before u_curr along the direction of integration.
    Arrays are treated as immutable.
    """

    u_prev: np.ndarray
    u_curr: np.ndarray

    def __post_init__(self):
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


def init_leapfrog(q0: np.ndarray, f0: np.ndarray | None, grid: Grid1D) -> LeapfrogState:
    """Second-order start from rest: ghost level from a Taylor expansion at t = 0.

    u_prev = q0 + (dt^2/2)(D2 q0 + f0), which is _leap from (q0, q0) with
    half the coefficients.
    """
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (grid.nx + 1,):
        raise ValueError(f"q0 has shape {q0.shape}, expected ({grid.nx + 1},)")
    if f0 is not None and f0.shape != q0.shape:
        raise ValueError("f0 shape mismatch")
    half_dt2_f = None if f0 is None else 0.5 * grid.dt * grid.dt * f0
    up = _leap(q0, q0, 0.5 * grid.cfl * grid.cfl, half_dt2_f)
    up[0] = q0[0]
    up[-1] = q0[-1]
    return LeapfrogState(u_prev=up, u_curr=q0.copy())


def step(state: LeapfrogState, left_bc_next: float, grid: Grid1D) -> LeapfrogState:
    """Advance one unforced step; the new level gets left_bc_next at x=0 and 0 at x=1."""
    un = _leap(state.u_prev, state.u_curr, grid.cfl * grid.cfl)
    un[0] = left_bc_next
    un[-1] = 0.0
    return LeapfrogState(u_prev=state.u_curr, u_curr=un)


def neumann_trace(u: np.ndarray, dx: float) -> float | np.ndarray:
    """Second-order one-sided x-derivative of the level u at x = 0.

    A float for one level; for an (nx+1, m) array of levels, the row of
    the m traces.
    """
    tr = (-3.0 * u[0] + 4.0 * u[1] - u[2]) * (0.5 / dx)
    return float(tr) if u.ndim == 1 else tr


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


def continuation_level(state: LeapfrogState, grid: Grid1D) -> np.ndarray:
    """The unforced level one step past u_curr.

    Used for centered velocities at the last computed node and for turning
    a trajectory around without losing second-order accuracy.
    """
    g = _leap(state.u_prev, state.u_curr, grid.cfl * grid.cfl)
    # boundary values are never consumed by interior updates; extrapolate left,
    # keep the pinned right end
    g[0] = 2.0 * state.u_curr[0] - state.u_prev[0]
    g[-1] = 0.0
    return g


def reversed_state(state: LeapfrogState, grid: Grid1D) -> LeapfrogState:
    """Turn the trajectory around at u_curr.

    The previous level of the reversed state is the forward continuation of
    the old one, which makes forward-then-backward sweeps retrace the
    discrete trajectory exactly (zero forcing, matching boundary data).
    """
    return LeapfrogState(u_prev=continuation_level(state, grid), u_curr=state.u_curr.copy())


def run_homogeneous(
    q0: np.ndarray, grid: Grid1D, n_steps: int, q: np.ndarray | None = None, omega: float = 0.0
) -> tuple[LeapfrogState, np.ndarray]:
    """Run from (q0, 0) with homogeneous Dirichlet walls.

    Free evolution, or with q given, forced by q(x) cos(omega t). Returns
    the final state and the left Neumann trace at every visited node
    (n_steps + 1 values including the initial one).
    """
    state = init_leapfrog(q0, q, grid)
    dt2q = None if q is None else grid.dt * grid.dt * q
    traces = np.empty(n_steps + 1)
    traces[0] = neumann_trace(state.u_curr, grid.dx)
    u_prev, u_curr = state.u_prev, state.u_curr
    c2 = grid.cfl * grid.cfl
    for k in range(n_steps):
        dt2_f = None if q is None else dt2q * np.cos(omega * k * grid.dt)
        un = _leap(u_prev, u_curr, c2, dt2_f)
        un[0] = 0.0
        un[-1] = 0.0
        u_prev, u_curr = u_curr, un
        traces[k + 1] = neumann_trace(u_curr, grid.dx)
    return LeapfrogState(u_prev=u_prev, u_curr=u_curr), traces
