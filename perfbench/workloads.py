"""Workload definitions shared by run.py and the worker.

Only the standard library is imported here, so run.py can write the
configs before any interpreter has paid for numpy.

reference_full  `bfwave full` on the clean reference scenario: the run the
                roadmap names as end to end; the monitored observer sweep
                dominates and it is the only workload writing the whole
                artifact set.
invert_batch    `bfwave invert` with "source": null on four 10 %-noise
                measurements of the reference grid: the unmonitored sweep and
                CSV reading. All inputs share grid, gains and omega, which is
                what a cycle-map or propagator cache would exploit.
verify_battery  `bfwave verify`, all groups, --jobs 1: many small grids, the
                per-call leapfrog API and only 8 coarse observer cycles, so a
                per-grid set-up cost shows here with no per-cycle gain.
"""

from __future__ import annotations

import random

# the bundled reference scenario (README "Config schema"), noise off
REFERENCE = {
    "source": {"profile": "poly_paper"},
    "omega": 2.0,
    "T": 3.0,
    "nx": 20,
    "cfl": 0.005,
    "gamma1": 1.0,
    "gamma2": 0.5,
    "iterations": 50,
    "noise": 0.0,
    "snapshot_stride": 1,
}

NAMES = ("reference_full", "invert_batch", "verify_battery")

INVERT_CYCLES = 10
INVERT_BATCH = 4
INVERT_NOISE = 0.1

# Correctness gates. reference_full is acceptance criterion 1. The invert
# bound sits above the ~0.24 that 10 noisy cycles reach at the seed commit.
REFERENCE_MAX_REL_ERR = 0.05
INVERT_MAX_REL_ERR = 0.30

# a cycle counts as converged once the relative L2 error is at most this
CONVERGED_REL_ERR = 0.05


def noise_seeds(seed: int) -> list[int]:
    """Per-measurement noise seeds of invert_batch, fixed by the workload seed."""
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(INVERT_BATCH)]


def configs(name: str, seed: int) -> dict[str, dict]:
    """Config files (file name -> JSON object) the workload hands to the CLI.

    The first entry is the one whose load and grid build set-up time measures.
    """
    if name == "reference_full":
        return {"reference.json": dict(REFERENCE, seed=seed)}
    if name == "invert_batch":
        blind = dict(REFERENCE, source=None, iterations=INVERT_CYCLES, seed=seed)
        # the untimed accuracy probe: same grid and cycles, truth monitored
        probe = dict(REFERENCE, iterations=INVERT_CYCLES, seed=seed)
        return {"invert.json": blind, "probe.json": probe}
    if name == "verify_battery":
        # verify takes no config; set-up time is still a CLI start-up plus
        # the reference config load and grid build
        return {"reference.json": dict(REFERENCE, seed=seed)}
    raise ValueError(f"unknown workload {name!r}")
