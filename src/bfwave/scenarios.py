"""Bundled reference scenarios used by the acceptance suite and scripts."""

from __future__ import annotations

from dataclasses import replace

from .grid import ScenarioConfig

__all__ = ["reference_scenario", "minimal_horizon_scenario"]


def reference_scenario(noise: float = 0.1) -> ScenarioConfig:
    """The reference experiment (ScenarioConfig's defaults) with noise, 10 % RMS by default."""
    return ScenarioConfig(noise=noise)


def minimal_horizon_scenario(T: float = 2.0) -> ScenarioConfig:
    """Observation window at (or below) the observability horizon T = 2.

    Contraction per sweep weakens as the window shrinks toward the
    horizon, so this scenario runs stronger gains (4, 2) than the
    reference experiment; below T = 2 the sweep is not expected to
    converge at all.
    """
    return replace(reference_scenario(noise=0.0), T=T, gamma1=4.0, gamma2=2.0)
