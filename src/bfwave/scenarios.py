"""Bundled scenarios besides the reference one, which is ScenarioConfig's defaults."""

from __future__ import annotations

from .grid import ScenarioConfig

__all__ = ["minimal_horizon_scenario"]


def minimal_horizon_scenario(T: float = 2.0) -> ScenarioConfig:
    """Observation window at (or below) the observability horizon T = 2.

    Contraction per sweep weakens as the window shrinks toward the
    horizon, so this scenario runs stronger gains (4, 2) than the
    reference experiment; below T = 2 the sweep is not expected to
    converge at all.
    """
    return ScenarioConfig(T=T, gamma1=4.0, gamma2=2.0)
