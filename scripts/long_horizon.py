#!/usr/bin/env python3
"""Long-horizon behaviour of the iteration on the reference scenario.

Runs the public run_back_and_forth on the clean reference measurement for
5,000 cycles (every half-pass through the half-pass maps), once without
and once with truth monitoring, and prints
the wall time of each. After 50, 1,000, 2,000 and 5,000 cycles it prints
the relative L2 error of the estimate, and from the monitored run the
energy-identity residual and the Lyapunov value of the error. Nothing is
asserted: whether the error keeps falling and the error energy keeps
decreasing is the question the numbers answer.

    python scripts/long_horizon.py

The package is imported from the `src/` directory next to this script.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bfwave import l2_norm, run_back_and_forth, simulate_forward  # noqa: E402
from bfwave.scenarios import reference_scenario  # noqa: E402

CHECKPOINTS = (50, 1000, 2000, 5000)


def main() -> None:
    cfg = reference_scenario(noise=0.0)
    grid = cfg.grid()
    q = cfg.q_true(grid)
    m = simulate_forward(q, cfg.omega, grid)
    runs = {}
    for label, q_true in (("unmonitored", None), ("monitored", q)):
        t0 = time.perf_counter()
        runs[label] = run_back_and_forth(
            m, cfg.gains(), cfg.omega, grid, CHECKPOINTS[-1], q_true=q_true
        )
        print(f"{label}: {CHECKPOINTS[-1]} cycles in {time.perf_counter() - t0:.2f} s")
    qn = l2_norm(q, grid)
    print("reference scenario, clean measurement")
    for k in CHECKPOINTS:
        err = l2_norm(runs["unmonitored"].estimates[k] - q, grid) / qn
        rep = runs["monitored"].reports[k]
        print(
            f"  after {k:5d} cycles: relative L2 error {100.0 * err:.2f} %, "
            f"energy residual {100.0 * rep.energy_residual:.2f} %, Lyapunov {rep.lyapunov:.3e}"
        )


if __name__ == "__main__":
    main()
