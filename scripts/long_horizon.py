#!/usr/bin/env python3
"""Long-horizon behaviour of the unmonitored iteration on the reference scenario.

Runs the public run_back_and_forth without truth monitoring on the clean
reference measurement for 5,000 cycles (the first on the observer sweep,
the others through the precomputed cycle map) and prints the relative L2
error of the estimate after 50, 1,000, 2,000 and 5,000 cycles, with the
wall time. Nothing is asserted: whether the error keeps falling is the
question the numbers answer.

    python scripts/long_horizon.py
"""

import time

from bfwave import l2_norm, run_back_and_forth, simulate_forward
from bfwave.scenarios import reference_scenario

CHECKPOINTS = (50, 1000, 2000, 5000)


def main() -> None:
    cfg = reference_scenario(noise=0.0)
    grid = cfg.grid()
    q = cfg.q_true(grid)
    m = simulate_forward(q, cfg.omega, grid)
    t0 = time.perf_counter()
    res = run_back_and_forth(m, cfg.gains(), cfg.omega, grid, CHECKPOINTS[-1])
    seconds = time.perf_counter() - t0
    qn = l2_norm(q, grid)
    print(f"reference scenario, clean measurement, {CHECKPOINTS[-1]} cycles in {seconds:.2f} s")
    for k in CHECKPOINTS:
        err = l2_norm(res.estimates[k] - q, grid) / qn
        print(f"  after {k:5d} cycles: relative L2 error {100.0 * err:.2f} %")


if __name__ == "__main__":
    main()
