#!/usr/bin/env python3
"""Grid-refinement study: solver order, output equivalence, energy balance.

Prints one table row per resolution so second-order convergence can be
eyeballed (error ratios near 4 per nx doubling).

    python scripts/convergence_study.py

The package is imported from the `src/` directory next to this script.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bfwave import (  # noqa: E402
    Gains,
    build_grid,
    run_back_and_forth,
    run_homogeneous,
    simulate_cascade,
    simulate_forward,
)
from bfwave.diagnostics import energy_identity_residual  # noqa: E402


def main() -> None:
    omega = 2.0
    print("free wave vs modal solution (max-norm error at T=1.3):")
    prev = None
    for nx in (20, 40, 80):
        g = build_grid(nx, 0.005, 1.3)
        q = np.sin(np.pi * g.nodes)
        q[0] = q[-1] = 0.0
        fin, _ = run_homogeneous(q, g, g.n_steps_per_pass)
        err = float(np.max(np.abs(fin[: nx + 1] - np.sin(np.pi * g.nodes) * np.cos(np.pi * g.T))))
        ratio = "" if prev is None else f"  ratio {prev / err:.2f}"
        print(f"  nx={nx:3d}: {err:.3e}{ratio}")
        prev = err

    print("output equivalence |y - Y| (relative max-norm, omega=1):")
    prev = None
    for nx in (20, 40, 80):
        g = build_grid(nx, 0.005, 3.0)
        q = np.sin(np.pi * g.nodes)
        q[0] = q[-1] = 0.0
        y = simulate_forward(q, 1.0, g).y
        Y = simulate_cascade(q, 1.0, g).Y
        gap = float(np.max(np.abs(y - Y)) / np.max(np.abs(y)))
        ratio = "" if prev is None else f"  ratio {prev / gap:.2f}"
        print(f"  nx={nx:3d}: {gap:.3e}{ratio}")
        prev = gap

    print("energy-balance residual over 4 estimator iterations:")
    prev = None
    for nx in (20, 40):
        g = build_grid(nx, 0.005, 3.0)
        x = g.nodes
        q = x - x * x
        q[0] = q[-1] = 0.0
        m = simulate_forward(q, omega, g)
        res = run_back_and_forth(m, Gains(1.0, 0.5), omega, g, 4, q_true=q)
        r = energy_identity_residual(res.history)
        ratio = "" if prev is None else f"  ratio {prev / r:.2f}"
        print(f"  nx={nx:3d}: {r:.3e}{ratio}")
        prev = r


if __name__ == "__main__":
    main()
