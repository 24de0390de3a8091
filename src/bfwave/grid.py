"""Uniform space-time grid, nodal norms and source profiles.

Fields live on the nx+1 nodes x_j = j*dx of [0, 1] and are plain
``numpy`` arrays. Time series are sampled at t_n = n*dt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

__all__ = [
    "Grid1D",
    "Gains",
    "SourceSpec",
    "ScenarioConfig",
    "RESONANCE_TOL",
    "ResonanceError",
    "check_resonance",
    "build_grid",
    "l2_norm",
    "h1_seminorm",
    "eval_source_profile",
]


@dataclass(frozen=True)
class Grid1D:
    """Space-time discretization of (0, T) x (0, 1).

    dt is adjusted at construction so that one pass of length T holds an
    integer number of steps; pass boundaries t = k*T then land exactly on
    time nodes.
    """

    nx: int
    dx: float
    cfl: float
    dt: float
    n_steps_per_pass: int
    T: float

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nx + 1)


_FLOAT_MAX = float(np.finfo(float).max)
_OMEGA_MAX = float(np.sqrt(_FLOAT_MAX))  # the largest |omega| whose square is finite
# a run keeps 2 iterations + 1 state rows, a numpy dimension: at most intp's largest
_MAX_ITERATIONS = (int(np.iinfo(np.intp).max) - 1) // 2


def _same_time(a, b, dt: float) -> bool:
    """The one sample-time rule of the measurement reader and pass_samples:
    every time of a lies within 1e-12 + 1e-9 dt of b. A NaN matches nothing."""
    return bool(np.all(np.abs(np.subtract(a, b)) <= 1e-12 + 1e-9 * dt))


def _check_integer(name: str, value, least: int, most: float = np.inf) -> None:
    """Refuse a non-integer (a bool, a float, JSON's Infinity) or one outside [least, most]."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if value > most:
        raise ValueError(f"{name} must be at most {most:.17g}, got {value}")


def _check_real(name: str, value) -> None:
    """Refuse a bool, which would pass as 0 or 1, or any other value that is not a real number."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def build_grid(nx: int, cfl: float, T: float) -> Grid1D:
    """Build a grid with dx = 1/nx and dt snapped to divide T exactly."""
    _check_integer("nx", nx, 3, _FLOAT_MAX)
    _check_real("cfl", cfl)
    _check_real("T", T)
    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"cfl must lie in (0, 1], got {cfl}")
    if not 0.0 < T <= _FLOAT_MAX:  # an int past it would overflow in T / (cfl dx)
        raise ValueError(f"T must be positive and finite, got {T}")
    dx = 1.0 / nx
    span = cfl * dx  # 0 for a cfl so small that the product underflows
    steps = T / span if span > 0.0 else np.inf
    if not steps < np.inf:
        raise ValueError(f"T / (cfl * dx) must be a finite step count, got T={T}, cfl={cfl}")
    n = max(1, int(round(steps)))
    # rounding down may push dt/dx above 1; one extra step restores stability
    if T / n > dx:
        n += 1
    dt = T / n
    return Grid1D(nx=nx, dx=dx, cfl=dt / dx, dt=dt, n_steps_per_pass=n, T=T)


def _check_field(f: np.ndarray, grid: Grid1D) -> np.ndarray:
    """f as floats, refused unless it is one nodal field or a stack of them, one per row."""
    f = np.asarray(f, dtype=float)
    if f.shape[-1:] != (grid.nx + 1,) or f.ndim > 2:
        raise ValueError(f"field has shape {f.shape}, grid expects ({grid.nx + 1},)")
    return f


def _trapezoid_sq(series: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid-rule integral of series^2 at spacing h, per row of a 2-D array."""
    sq = series * series
    return h * (np.sum(sq, axis=-1) - 0.5 * (sq[..., 0] + sq[..., -1]))


def _slope_sq(series: np.ndarray, h: float) -> np.ndarray:
    """Midpoint-rule integral of the squared difference quotient at spacing h, per row.

    h * sum(((series[k+1] - series[k]) / h)^2): the squared H1 seminorm of a
    nodal field, and the slope term of a series' H1(0, T) norm.
    """
    d = np.diff(series, axis=-1) / h
    return h * np.sum(d * d, axis=-1)


def l2_norm(f: np.ndarray, grid: Grid1D) -> float | np.ndarray:
    """Composite-trapezoid approximation of the L2(0,1) norm of a nodal field.

    A float for one field; for a stack of fields, the array of their norms.
    """
    n = np.sqrt(_trapezoid_sq(_check_field(f, grid), grid.dx))
    return float(n) if n.ndim == 0 else n


def h1_seminorm(f: np.ndarray, grid: Grid1D) -> float | np.ndarray:
    """L2 norm of the forward-difference derivative (midpoint rule on cells).

    A float for one field; for a stack of fields, the array of their seminorms.
    """
    n = np.sqrt(_slope_sq(_check_field(f, grid), grid.dx))
    return float(n) if n.ndim == 0 else n


@dataclass(frozen=True)
class Gains:
    """Observer gains; both must be strictly positive and finite."""

    gamma1: float
    gamma2: float

    def __post_init__(self):
        _check_real("gamma1", self.gamma1)
        _check_real("gamma2", self.gamma2)
        if not (0.0 < self.gamma1 < np.inf and 0.0 < self.gamma2 < np.inf):
            raise ValueError(f"gains must be strictly positive and finite, got {self}")


@dataclass(frozen=True)
class SourceSpec:
    """Source profile descriptor.

    profile: "poly_paper" (x - x^2), "sine_k" (sin(k*pi*x)), or "modes"
    with an explicit coefficient list, entry k-1 scaling sin(k*pi*x).
    """

    profile: str = "poly_paper"
    k: int = 1
    coeffs: tuple[float, ...] | None = None

    def __post_init__(self):
        _check_integer("source mode index k", self.k, 1, _FLOAT_MAX)


def eval_source_profile(spec: SourceSpec, grid: Grid1D) -> np.ndarray:
    """Sample a source profile at the grid nodes, endpoints pinned to 0."""
    x = grid.nodes
    if spec.profile == "poly_paper":
        q = x - x * x
    elif spec.profile == "sine_k":
        q = np.sin(spec.k * np.pi * x)
    elif spec.profile == "modes":
        if not spec.coeffs:
            raise ValueError("profile 'modes' requires a nonempty coefficient list")
        if not np.all(np.isfinite(spec.coeffs)):
            raise ValueError(f"mode coefficients must be finite, got {list(spec.coeffs)}")
        q = np.zeros_like(x)
        for i, c in enumerate(spec.coeffs):
            q += c * np.sin((i + 1) * np.pi * x)
    else:
        raise ValueError(f"unknown source profile {spec.profile!r}")
    q[0] = 0.0
    q[-1] = 0.0
    return q


# |omega| closer than this to a natural frequency k*pi counts as resonant
RESONANCE_TOL = 1e-8
_OMEGA_RESOLVED = 2.0**26


class ResonanceError(ValueError):
    """Forcing frequency collides with a natural frequency k*pi."""


def check_resonance(omega: float, n_modes: int | None = None) -> None:
    """Refuse |omega| within RESONANCE_TOL of k*pi, k >= 1 (and k <= n_modes if given).

    Only the nearest k can be that close; NaN is not resonant. From |omega| = 2^26 up
    (inf included) the check cannot decide and refuses with a plain ValueError: floats
    in [2^26, 2^27) lie 2^-26 = 1.5e-8 apart, more than RESONANCE_TOL, so there the
    rounding of omega and of k*pi (np.pi is 1.2e-16 short of pi, times k), not the
    data, would decide; below, floats lie at most 7.5e-9 apart.
    """
    if abs(omega) >= _OMEGA_RESOLVED:
        raise ValueError(f"|omega| must be below 2^26 to decide resonance, got {omega}")
    k = max(1.0, float(np.rint(abs(omega) / np.pi)))
    if abs(abs(omega) - k * np.pi) < RESONANCE_TOL and (n_modes is None or k <= n_modes):
        k = int(k)
        raise ResonanceError(
            f"omega={omega} is within {RESONANCE_TOL} of mode {k} frequency {k}*pi"
        )


# Scenario defaults. The forcing frequency of the bundled reference scenario
# is 2.0: it is non-resonant (|omega - k*pi| >= 1.14 for all k) and the
# 50-iteration estimator contracts well there, which omega near 1 does not.
DEFAULT_OMEGA = 2.0


@dataclass(frozen=True)
class ScenarioConfig:
    """One end-to-end scenario: source, forcing, grid, gains, iteration budget.

    The defaults are the clean reference experiment: q = x - x^2 on a
    20-cell grid, T = 3, cfl = 0.005 (dt = 2.5e-4), omega = 2,
    gamma1 = 1, gamma2 = 1/2, 50 iterations, seed 42.

    |omega| must lie below 2^26, where check_resonance can decide. nx and source.k
    must lie within float64's range, and iterations low enough that the run's
    2 iterations + 1 state rows are a numpy dimension.
    """

    source: SourceSpec | None = field(default_factory=SourceSpec)
    omega: float = DEFAULT_OMEGA
    T: float = 3.0
    nx: int = 20
    cfl: float = 0.005
    gamma1: float = 1.0
    gamma2: float = 0.5
    iterations: int = 50
    noise: float = 0.0
    seed: int = 42
    snapshot_stride: int = 1
    out_dir: str | None = None

    def __post_init__(self):
        _check_real("omega", self.omega)
        _check_real("noise", self.noise)
        # omega^2 enters the oscillator propagator; refused before a command writes
        # anything. A magnitude test, so that NaN and an int of any size are refused too
        if not abs(self.omega) <= _OMEGA_MAX:
            raise ValueError(f"omega and its square must be finite, got {self.omega}")
        check_resonance(self.omega)
        _check_integer("iterations", self.iterations, 1, _MAX_ITERATIONS)
        _check_integer("seed", self.seed, 0)
        _check_integer("snapshot_stride", self.snapshot_stride, 1)
        if not 0.0 <= self.noise < np.inf:
            raise ValueError(f"noise level must be >= 0 and finite, got {self.noise}")
        # grid, gains and source must build, so that a command refuses a bad
        # value before it writes anything
        grid = self.grid()
        self.gains()
        if self.source is not None:
            self.q_true(grid)

    def grid(self) -> Grid1D:
        return build_grid(self.nx, self.cfl, self.T)

    def gains(self) -> Gains:
        return Gains(self.gamma1, self.gamma2)

    def q_true(self, grid: Grid1D | None = None) -> np.ndarray:
        if self.source is None:
            raise ValueError("scenario has no source profile")
        return eval_source_profile(self.source, grid or self.grid())


def source_spec_from_dict(d: dict) -> SourceSpec:
    allowed = {"profile", "k", "coeffs"}
    unknown = set(d) - allowed
    if unknown:
        raise ValueError(f"unknown source keys: {sorted(unknown)}")
    coeffs = d.get("coeffs")
    for c in coeffs or ():
        _check_real("mode coefficient", c)
    return SourceSpec(
        profile=d.get("profile", "poly_paper"),
        k=d.get("k", 1),
        coeffs=tuple(float(c) for c in coeffs) if coeffs is not None else None,
    )
