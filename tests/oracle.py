"""Closed-form sine-series solutions used by the tests as an independent reference.

Everything here is derived analytically (Duhamel formulas plus quadrature);
no finite-difference machinery is involved, so these routines can vouch for
the solver rather than echo it. Of bfwave it takes only the grid, the
resonance guard and the oscillator state type. It needs scipy; the
package does not.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import cumulative_simpson

from bfwave.grid import Grid1D, _same_time, check_resonance
from bfwave.observer import OscillatorState


def _mode_freqs(n_modes: int) -> np.ndarray:
    return np.pi * np.arange(1, n_modes + 1)


def sine_coefficients(f: np.ndarray, grid: Grid1D, n_modes: int) -> np.ndarray:
    """Trapezoid projection q_k = 2 * integral of f(x) sin(k pi x)."""
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.nx + 1,):
        raise ValueError("field/grid mismatch")
    scale = 1.0 + float(np.max(np.abs(f)))
    if abs(f[0]) > 1e-9 * scale or abs(f[-1]) > 1e-9 * scale:
        raise ValueError("sine projection expects zero endpoint values")
    if n_modes < 1 or n_modes > grid.nx:
        raise ValueError(f"n_modes must lie in [1, nx]={[1, grid.nx]}, got {n_modes}")
    x = grid.nodes
    k = np.arange(1, n_modes + 1)
    # endpoints contribute nothing (f = 0 there), so plain sums are trapezoid sums
    return 2.0 * grid.dx * (np.sin(np.outer(k, np.pi * x)) @ f)


def synthesize_modes(coeffs: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Nodal samples of sum_k coeffs[k-1] sin(k pi x), endpoints exactly zero."""
    coeffs = np.asarray(coeffs, dtype=float)
    x = grid.nodes
    k = np.arange(1, len(coeffs) + 1)
    f = coeffs @ np.sin(np.outer(k, np.pi * x))
    f[0] = 0.0
    f[-1] = 0.0
    return f


def free_modal_solution(coeffs: np.ndarray, t: float) -> np.ndarray:
    """Coefficients at time t of the free wave started at (sum q_k sin, 0)."""
    coeffs = np.asarray(coeffs, dtype=float)
    return coeffs * np.cos(_mode_freqs(len(coeffs)) * t)


def forced_modal_solution(coeffs: np.ndarray, omega: float, t: float):
    """Mode amplitudes and their velocities for forcing q(x) cos(omega t), zero data.

    a_k(t) = q_k (cos(omega t) - cos(k pi t)) / ((k pi)^2 - omega^2)
    """
    coeffs = np.asarray(coeffs, dtype=float)
    check_resonance(omega, len(coeffs))
    wk = _mode_freqs(len(coeffs))
    denom = wk * wk - omega * omega
    pos = coeffs * (np.cos(omega * t) - np.cos(wk * t)) / denom
    vel = coeffs * (-omega * np.sin(omega * t) + wk * np.sin(wk * t)) / denom
    return pos, vel


def neumann_trace_series(coeffs: np.ndarray) -> float:
    """x-derivative at x = 0 of a sine series: sum_k a_k * k * pi."""
    coeffs = np.asarray(coeffs, dtype=float)
    return float(np.sum(coeffs * _mode_freqs(len(coeffs))))


def oracle_measurement(coeffs: np.ndarray, omega: float, times: np.ndarray) -> np.ndarray:
    """Analytic output y(t) = sum_k q_k k pi (cos(omega t) - cos(k pi t)) / ((k pi)^2 - omega^2)."""
    coeffs = np.asarray(coeffs, dtype=float)
    check_resonance(omega, len(coeffs))
    times = np.asarray(times, dtype=float)
    wk = _mode_freqs(len(coeffs))
    amp = coeffs * wk / (wk * wk - omega * omega)
    return (np.cos(np.outer(times, [omega])) - np.cos(np.outer(times, wk))) @ amp


def poly_paper_coefficients(n_modes: int) -> np.ndarray:
    """Sine coefficients of x - x^2: 8/(k pi)^3 for odd k, 0 for even k."""
    k = np.arange(1, n_modes + 1)
    c = 8.0 / (k * np.pi) ** 3
    c[k % 2 == 0] = 0.0
    return c


def _rotation(omega: float, t):
    """exp(t*A) for A = [[0, 1], [-omega^2, 0]], vectorized over t."""
    t = np.asarray(t, dtype=float)
    if omega == 0.0:
        one = np.ones_like(t)
        return one, t, np.zeros_like(t), one  # entries r11, r12, r21, r22
    c = np.cos(omega * t)
    s = np.sin(omega * t)
    return c, s / omega, -omega * s, c


def oscillator_closed_form(
    omega: float,
    forcing: np.ndarray,
    dt: float,
    z0: OscillatorState,
    t: float,
) -> OscillatorState:
    """Variation-of-constants solution of the driven oscillator.

    z(t) = R(t) z(0) + integral_0^t R(t-s) (0, g(s)) ds, z = (z1, z2), with R
    the rotation-type propagator for frequency omega; the convolution is
    evaluated by cumulative Simpson over the forcing samples (spacing dt).
    t must be a sample time.
    """
    g = np.asarray(forcing, dtype=float)
    m = int(round(t / dt))
    if not _same_time(m * dt, t, dt) or m >= len(g):
        raise ValueError("t must be a forcing sample time within range")
    s = np.arange(m + 1) * dt
    # R(t - s)(0, g) = R(t) (r12(-s) g, r22(-s) g): one quadrature per channel
    _, r12m, _, r22m = _rotation(omega, -s)
    j1 = j2 = 0.0
    if m > 0:
        j1, j2 = cumulative_simpson(np.array([r12m, r22m]) * g[: m + 1], dx=dt)[:, -1]
    c11, c12, c21, c22 = _rotation(omega, s[-1])
    return OscillatorState(
        z1=float(c11 * (z0.z1 + j1) + c12 * (z0.z2 + j2)),
        z2=float(c21 * (z0.z1 + j1) + c22 * (z0.z2 + j2)),
    )
