#!/usr/bin/env python3
"""How far the reference measurement and estimates are from extended-precision runs.

First the measurement: the forced wave recurrence of forward synthesis,
run from rest as a loop of leapfrog._leap steps on long-double levels (the
forcing q cos(omega k dt) and the pinned walls as in run_homogeneous, the
coefficients the library's float64 ones). It prints the largest
|trace - reference| over the largest |reference| for simulate_forward's
trace (the blocked run) and for the same loop stepped in float64.

Then the verify battery's kernel check: the free 10,000-step forward leg
of its energy drift and round trip (nx 20, cfl 0.005, from sin(pi x)), as a
long-double loop of _leap steps. It prints how far two float64 routes are
from it, at the end state the round trip turns and over every level the
drift reads: the blocked recurrence the check runs (leapfrog._run_recurrence
on _wave_parts' S, read out as the levels) and the same loop of _leap steps
in float64, the scheme of the tests' stepped wave reference (step in
tests/stepped.py).

Then the estimates. It runs the observer recurrence of the clean 50-cycle
reference scenario in numpy longdouble, one step at a time: the library's
own observer step
(observer._observer_step) and turn (leapfrog.continuation_level, with the
oscillator velocity z2 negated) applied to (nx+1, 1) long-double columns,
the measurement replayed reversed on backward passes, as the composed
route does. The coefficients are the library's float64 ones, so the
reference differs from the float64 runs only in the rounding of the
arithmetic. It then prints, for three float64 routes,

* run_back_and_forth (every half-pass through the map, from the zero state),
* composed observer_half_pass calls (every half-pass a sweep of its own,
  which runs the one-step recurrence in blocks; the tests' route,
  tests/half_pass.py),
* the stepped route: the same loop as the reference on float64 columns,

the largest |estimate - reference| over the 50 cycle ends, divided by the
largest |reference|. Where longdouble has no more mantissa bits than
float64, the reference is no better than what it measures, and the script
says so.

    python scripts/extended_reference.py      # about two minutes

The package is imported from the `src/` directory next to this script,
the composed route from the `tests/` directory.
"""

import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from bfwave.forward import simulate_forward  # noqa: E402
from bfwave.grid import ScenarioConfig, build_grid  # noqa: E402
from bfwave.leapfrog import (  # noqa: E402
    LeapfrogState,
    _leap,
    _run_recurrence,
    _to_velocity_basis,
    _wave_parts,
    continuation_level,
    init_leapfrog,
    neumann_trace,
)
from bfwave.observer import _observer_step, run_back_and_forth  # noqa: E402
from half_pass import extract_estimate, initial_observer_state, observer_half_pass  # noqa: E402


def stepped_measurement(q, omega, grid, dtype) -> np.ndarray:
    """Left trace of the forced wave from rest, stepped node by node in dtype."""
    start = init_leapfrog(np.zeros(grid.nx + 1), q, grid)
    u_prev, u_curr = start.u_prev.astype(dtype), start.u_curr.astype(dtype)
    c2, dt = dtype(grid.cfl) * dtype(grid.cfl), dtype(grid.dt)
    dt2q = dt * dt * np.asarray(q, dtype=dtype)
    traces = [neumann_trace(u_curr, dtype(grid.dx))]
    for k in range(grid.n_steps_per_pass):
        un = _leap(u_prev, u_curr, c2, dt2q * np.cos(dtype(omega) * k * dt))
        un[0] = un[-1] = 0.0
        u_prev, u_curr = u_curr, un
        traces.append(neumann_trace(u_curr, dtype(grid.dx)))
    return np.array(traces)


def stepped_free_levels(q0, grid, n: int, dtype) -> np.ndarray:
    """Levels 0..n, one per column, of the free wave from init_leapfrog(q0), stepped in dtype."""
    start = init_leapfrog(q0, None, grid)
    u_prev, u_curr = start.u_prev.astype(dtype), start.u_curr.astype(dtype)
    c2 = dtype(grid.cfl) * dtype(grid.cfl)
    levels = [u_curr]
    for _ in range(n):
        un = _leap(u_prev, u_curr, c2)
        un[0] = un[-1] = 0.0
        u_prev, u_curr = u_curr, un
        levels.append(u_curr)
    return np.array(levels).T


def blocked_free_levels(q0, grid, n: int) -> np.ndarray:
    """The same levels from the blocked recurrence, read out as the u block of the state."""
    S, _ = _wave_parts(grid)
    nx1 = grid.nx + 1
    levels = np.empty((nx1, n + 1))
    x0 = _to_velocity_basis(init_leapfrog(q0, None, grid), grid)
    _run_recurrence(S, np.zeros((2 * nx1, 0)), np.eye(nx1, 2 * nx1), x0, np.zeros(n + 1), levels)
    return levels


def stepped_estimates(y, gains, omega, grid, cycles: int, dtype) -> np.ndarray:
    """Estimates after cycles 1..cycles of the stepped recurrence in dtype, one row each."""
    step = _observer_step(gains, omega, grid)
    n, nx1 = grid.n_steps_per_pass, grid.nx + 1
    y = np.asarray(y, dtype=dtype)
    u_prev = np.zeros((nx1, 1), dtype=dtype)
    u_curr = u_prev.copy()
    z1 = z2 = w = np.zeros(1, dtype=dtype)
    estimates = []
    for half in range(2 * cycles):
        Yp = y if half % 2 == 0 else y[::-1]
        for k in range(n):
            u_prev, u_curr, z1, z2, w = step(u_prev, u_curr, z1, z2, w, Yp[k], Yp[k + 1])
        u_prev = continuation_level(LeapfrogState(u_prev, u_curr), grid)
        z2 = -z2
        if half % 2 == 1:
            q_hat = u_curr[:, 0].copy()
            q_hat[0] = q_hat[-1] = 0.0
            estimates.append(q_hat)
    return np.array(estimates)


def half_pass_estimates(m, gains, omega, grid, cycles: int) -> np.ndarray:
    state = initial_observer_state(grid)
    estimates = []
    for _ in range(cycles):
        for _half in range(2):
            state = observer_half_pass(state, m, gains, omega, grid)
        estimates.append(extract_estimate(state, grid))
    return np.array(estimates)


def main() -> None:
    cfg = ScenarioConfig()
    grid = cfg.grid()
    gains, cycles = cfg.gains(), cfg.iterations
    q = cfg.q_true(grid)
    m = simulate_forward(q, cfg.omega, grid)
    if np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant:
        print("longdouble is no wider than float64 here; the reference measures nothing")
    ref_y = stepped_measurement(q, cfg.omega, grid, np.longdouble)
    traces = {
        "simulate_forward": m.y,
        "stepped float64": stepped_measurement(q, cfg.omega, grid, np.float64),
    }
    print(f"extended-precision measurement: {len(ref_y)} samples")
    for label, y in traces.items():
        gap = float(np.max(np.abs(y - ref_y)) / np.max(np.abs(ref_y)))
        print(f"  {label}: largest |trace - reference| / max|reference| = {gap:.2e}")
    kg = build_grid(20, 0.005, 2.5)
    q0, n = np.sin(np.pi * kg.nodes), kg.n_steps_per_pass
    ref_levels = stepped_free_levels(q0, kg, n, np.longdouble)
    kernel = {
        "blocked (kernel check)": blocked_free_levels(q0, kg, n),
        "stepped float64": stepped_free_levels(q0, kg, n, np.float64),
    }
    scale = float(np.max(np.abs(ref_levels)))
    print(f"extended-precision kernel-check forward leg: {n} free steps")
    for label, levels in kernel.items():
        end = float(np.max(np.abs(levels[:, -1] - ref_levels[:, -1]))) / scale
        every = float(np.max(np.abs(levels - ref_levels))) / scale
        print(
            f"  {label}: largest |level - reference| / max|reference| = {end:.2e} at the end, "
            f"{every:.2e} over every level"
        )
    t0 = time.perf_counter()
    ref = stepped_estimates(m.y, gains, cfg.omega, grid, cycles, np.longdouble)
    print(f"extended-precision reference: {cycles} cycles in {time.perf_counter() - t0:.1f} s")
    scale = float(np.max(np.abs(ref)))
    routes = {
        "run_back_and_forth": np.array(
            run_back_and_forth(m, gains, cfg.omega, grid, cycles).estimates[1:]
        ),
        "observer_half_pass": half_pass_estimates(m, gains, cfg.omega, grid, cycles),
        "stepped float64": stepped_estimates(m.y, gains, cfg.omega, grid, cycles, np.float64),
    }
    for label, est in routes.items():
        gap = float(np.max(np.abs(est - ref))) / scale
        print(f"  {label}: largest |estimate - reference| / max|reference| = {gap:.2e}")


if __name__ == "__main__":
    main()
