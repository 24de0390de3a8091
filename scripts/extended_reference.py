#!/usr/bin/env python3
"""How far the reference measurement and estimates are from extended-precision runs.

Every wave reference below is one loop (stepped_levels): leapfrog._leap
steps with pinned walls on levels of a given dtype, the coefficients the
library's float64 ones, in long double for the reference and in float64
for the stepped route it is compared with.

First the measurement: the forced wave recurrence of forward synthesis,
run from rest in that loop (the forcing q cos(omega k dt) and the pinned
walls as in run_homogeneous), its traces kept in long double. It prints
the largest |trace - reference| over the largest |reference| for
simulate_forward's trace (the blocked run) and for the same loop stepped
in float64.

Then the verify battery's kernel check: the free 10,000-step forward leg
of its energy drift and round trip (nx 20, cfl 0.005, from sin(pi x)), in
that loop in long double. It prints how far two float64 routes are from
it, at the end state the round trip turns and over every level the drift
reads: the blocked recurrence the check runs (leapfrog._run_recurrence on
_wave_parts' S, read out as the levels) and the same loop in float64, the
scheme of the tests' stepped wave reference (step in tests/stepped.py).

Then the truth cascade of the reference source (nx 20, cfl 0.005, T 3) at
omega 2 and 1, and of the same source at nx 40, omega 1: the free wave
stepped in that loop in long double, its left trace driving the plant
oscillator's trapezoid step on the library's float64 E and B
(observer._oscillator_forcing), also in long double. It prints the
largest |z - reference| over the largest |reference|, for z1 and z2, of
two float64 routes: simulate_cascade, which runs wave and oscillator as
one free recurrence, and the two-stage route, the free wave run
(leapfrog.run_homogeneous) then the oscillator driven alone over its
trace (oscillator_drive, on the same forcing pair; tests/two_stage.py).

Then the estimates. It runs the observer recurrence of the clean 50-cycle
reference scenario in numpy longdouble, one step at a time: the library's
own observer step (observer._observer_step, which advances the wave by
leapfrog._wave_parts' S) and turn (leapfrog._turned_wave, with the
oscillator velocity z2 negated, as observer._turned does) applied to
velocity-basis long-double columns, the measurement replayed reversed on
backward passes, as the composed route does. The coefficients are the
library's float64 ones, so the reference differs from the float64 runs
only in the rounding of the arithmetic. It then prints, for three float64
routes,

* run_back_and_forth (every half-pass through the map, from the zero state),
* composed observer_half_pass calls (every half-pass a sweep of its own,
  which runs the one-step recurrence in blocks; the tests' route,
  tests/half_pass.py),
* the stepped route: the same loop as the reference on float64 columns,

the largest |estimate - reference| over the 50 cycle ends, divided by the
largest |reference|. Where longdouble has no more mantissa bits than
float64, the reference is no better than what it measures, and the script
says so.

    python scripts/extended_reference.py      # about a minute and a half

The package is imported from the `src/` directory next to this script,
the composed route and oscillator_drive from the `tests/` directory.
"""

import sys
import time
from pathlib import Path
from unittest.mock import patch

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from bfwave.forward import simulate_forward  # noqa: E402
from bfwave.grid import ScenarioConfig, build_grid  # noqa: E402
from bfwave.leapfrog import (  # noqa: E402
    _leap,
    _run_recurrence,
    _turned_wave,
    _wave_parts,
    init_leapfrog,
    neumann_trace,
    run_homogeneous,
)
from bfwave import leapfrog, observer  # noqa: E402
from bfwave.observer import (  # noqa: E402
    _observer_step,
    _oscillator_forcing,
    run_back_and_forth,
    simulate_cascade,
)
from half_pass import extract_estimate, initial_observer_state, observer_half_pass  # noqa: E402
from two_stage import oscillator_drive  # noqa: E402


def start_levels(q0, f0, grid) -> tuple[np.ndarray, np.ndarray]:
    """The level pair (u_prev, q0) of init_leapfrog's start, the two arrays it encodes.

    Decoded from the velocity-basis start instead, u_prev would be rounded
    once more, and the measurement's float64 stepped figure would move.
    """
    with patch.object(leapfrog, "_to_velocity_basis", lambda u_prev, u, grid: (u_prev, u)):
        return init_leapfrog(q0, f0, grid)


def stepped_levels(start: tuple, grid, n: int, dtype, forcing=None) -> np.ndarray:
    """Levels 0..n, one per column, of the wave from the pair start with pinned walls, in dtype.

    forcing(k), when given, is the dt^2 f that step k adds to the interior.
    """
    u_prev, u_curr = (a.astype(dtype) for a in start)
    c2 = dtype(grid.cfl) * dtype(grid.cfl)
    levels = [u_curr]
    for k in range(n):
        un = _leap(u_prev, u_curr, c2, None if forcing is None else forcing(k))
        un[0] = un[-1] = 0.0
        u_prev, u_curr = u_curr, un
        levels.append(u_curr)
    return np.array(levels).T


def stepped_measurement(q, omega, grid, dtype) -> np.ndarray:
    """Left trace of the forced wave from rest, stepped node by node in dtype."""
    start = start_levels(np.zeros(grid.nx + 1), q, grid)
    dt = dtype(grid.dt)
    dt2q = dt * dt * np.asarray(q, dtype=dtype)
    levels = stepped_levels(
        start, grid, grid.n_steps_per_pass, dtype, lambda k: dt2q * np.cos(dtype(omega) * k * dt)
    )
    return neumann_trace(levels, dtype(grid.dx))


def blocked_free_levels(q0, grid, n: int) -> np.ndarray:
    """The same levels from the blocked recurrence, read out as the u block of the state."""
    S, _ = _wave_parts(grid)
    nx1 = grid.nx + 1
    levels = np.empty((nx1, n + 1))
    x0 = init_leapfrog(q0, None, grid)
    _run_recurrence(S, np.zeros((2 * nx1, 0)), np.eye(nx1, 2 * nx1), x0, np.zeros(n + 1), levels)
    return levels


def stepped_cascade(q, omega, grid, dtype) -> np.ndarray:
    """Oscillator (z1, z2) at every node of the cascade from (q, 0), stepped in dtype, one row each."""
    n = grid.n_steps_per_pass
    levels = stepped_levels(start_levels(q, None, grid), grid, n, dtype)
    trace = neumann_trace(levels, dtype(grid.dx))
    E, B = (a.astype(dtype) for a in _oscillator_forcing(omega, grid.dt))
    z = np.zeros((n + 1, 2), dtype=dtype)
    for k in range(n):
        z[k + 1] = E @ z[k] + B @ trace[k : k + 2]
    return z


def cascade_gaps(q, omega, grid) -> dict[str, np.ndarray]:
    """Per route, the largest |z - reference| over max |reference|, for z1 and z2."""
    ref = stepped_cascade(q, omega, grid, np.longdouble)
    _, trace = run_homogeneous(q, grid, grid.n_steps_per_pass)
    routes = {
        "simulate_cascade (folded)": simulate_cascade(q, omega, grid).z,
        "run_homogeneous + oscillator_drive": oscillator_drive((0.0, 0.0), trace, omega, grid.dt),
    }
    scale = np.max(np.abs(ref), axis=0)
    return {k: (np.max(np.abs(z - ref), axis=0) / scale).astype(float) for k, z in routes.items()}


def stepped_estimates(y, gains, omega, grid, cycles: int, dtype) -> np.ndarray:
    """Estimates after cycles 1..cycles of the stepped recurrence in dtype, one row each.

    The step is built while observer._wave_parts gives S in dtype, so the
    step's S @ x does not cast S on every step. The cast is exact: numpy's
    product of the float64 S and a dtype column casts S the same way.
    """
    cast = [a.astype(dtype) for a in _wave_parts(grid)]
    with patch.object(observer, "_wave_parts", lambda g: cast):
        step = _observer_step(gains, omega, grid)
    n, nx1 = grid.n_steps_per_pass, grid.nx + 1
    y = np.asarray(y, dtype=dtype)
    x = np.zeros((2 * nx1, 1), dtype=dtype)
    z1 = z2 = w = np.zeros(1, dtype=dtype)
    estimates = []
    for half in range(2 * cycles):
        Yp = y if half % 2 == 0 else y[::-1]
        for k in range(n):
            x, z1, z2, w = step(x, z1, z2, w, Yp[k], Yp[k + 1])
        x, z2 = _turned_wave(x, grid), -z2
        if half % 2 == 1:
            q_hat = x[:nx1, 0].copy()
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
    start = start_levels(q0, None, kg)
    ref_levels = stepped_levels(start, kg, n, np.longdouble)
    kernel = {
        "blocked (kernel check)": blocked_free_levels(q0, kg, n),
        "stepped float64": stepped_levels(start, kg, n, np.float64),
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
    print("extended-precision cascade: largest |z - reference| / max|reference|, z1 and z2")
    for nx, omega in ((20, 2.0), (20, 1.0), (40, 1.0)):
        cg = build_grid(nx, cfg.cfl, cfg.T)
        for label, (g1, g2) in cascade_gaps(cfg.q_true(cg), omega, cg).items():
            print(f"  nx {nx}, omega {omega:g}, {label}: {g1:.2e}, {g2:.2e}")
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
