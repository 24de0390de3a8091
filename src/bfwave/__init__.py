"""Back-and-forth boundary-observer reconstruction of a wave source term.

Recovers an unknown spatial source q(x) of a harmonically forced 1D wave
equation from the Neumann trace measured at one endpoint. The package
bundles the leapfrog wave kernel, the cascade/observer iteration and a
diagnostics suite, and needs numpy alone. The closed-form spectral oracle
that checks it independently lives with the tests (tests/oracle.py).
"""

__version__ = "0.1.0"

from .grid import (
    Gains,
    Grid1D,
    ScenarioConfig,
    SourceSpec,
    build_grid,
    eval_source_profile,
    h1_seminorm,
    l2_norm,
)
from .forward import MeasurementRecord, add_noise, simulate_forward
from .leapfrog import discrete_energy, init_leapfrog, run_homogeneous
from .observer import (
    BackAndForthResult,
    run_back_and_forth,
    simulate_cascade,
)

__all__ = [
    "__version__",
    "Gains",
    "Grid1D",
    "ScenarioConfig",
    "SourceSpec",
    "build_grid",
    "eval_source_profile",
    "h1_seminorm",
    "l2_norm",
    "MeasurementRecord",
    "add_noise",
    "simulate_forward",
    "discrete_energy",
    "init_leapfrog",
    "run_homogeneous",
    "BackAndForthResult",
    "run_back_and_forth",
    "simulate_cascade",
]
