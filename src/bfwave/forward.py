"""Measurement synthesis: boundary trace of the forced wave equation.

The plant is u_tt = u_xx + q(x) cos(omega t) from rest with homogeneous
Dirichlet walls; the measurement is the Neumann trace u_x(t, 0) sampled at
every time node. Noise is additive white Gaussian, calibrated against the
RMS of the clean signal.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .grid import Grid1D, _trapezoid_sq
from .leapfrog import run_homogeneous

__all__ = [
    "MeasurementRecord",
    "simulate_forward",
    "add_noise",
    "write_measurement_csv",
    "read_measurement_csv",
]


@dataclass(frozen=True)
class MeasurementRecord:
    """A sampled output series with its provenance.

    y has n_steps_per_pass + 1 entries at t_n = n*dt. provenance is
    "clean" or "noisy"; noise_seed is None for clean records.
    """

    y: np.ndarray
    dt: float
    T: float
    noise_level: float = 0.0
    noise_seed: int | None = None
    provenance: str = "clean"


def simulate_forward(q: np.ndarray, omega: float, grid: Grid1D) -> MeasurementRecord:
    """Leapfrog run of the forced plant from rest, recording the left trace."""
    q = np.asarray(q, dtype=float)
    if q.shape != (grid.nx + 1,):
        raise ValueError(f"q has shape {q.shape}, expected ({grid.nx + 1},)")
    if q[0] != 0.0 or q[-1] != 0.0:
        raise ValueError("source must vanish at both endpoints")
    _, y = run_homogeneous(np.zeros(grid.nx + 1), grid, grid.n_steps_per_pass, q, omega)
    return MeasurementRecord(y=y, dt=grid.dt, T=grid.T)


def rms(y: np.ndarray, dt: float, T: float) -> float:
    """(integral of y^2 / T)^(1/2) with trapezoid quadrature."""
    return float(np.sqrt(_trapezoid_sq(y, dt) / T))


def add_noise(record: MeasurementRecord, level: float, seed: int) -> MeasurementRecord:
    """Additive white Gaussian noise with sigma = level * RMS(clean signal).

    Level 0 returns the record unchanged, so a clean record keeps noise_seed None.
    A negative, infinite or NaN level raises ValueError.
    """
    if not 0.0 <= level < np.inf:
        raise ValueError(f"noise level must be >= 0 and finite, got {level}")
    if level == 0.0:
        return record
    sigma = level * rms(record.y, record.dt, record.T)
    rng = np.random.default_rng(seed)
    y_noisy = record.y + sigma * rng.standard_normal(record.y.shape)
    return replace(record, y=y_noisy, noise_level=level, noise_seed=seed, provenance="noisy")


def write_measurement_csv(record: MeasurementRecord, path):
    """Columns t,y; a noisy record is preceded by one provenance comment line.

    The line reads "# provenance=noisy noise_level=<level> noise_seed=<seed>"
    (the seed left out when unknown); clean records have no such line.
    Returns path.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if record.provenance == "noisy":
            meta = f"provenance=noisy noise_level={record.noise_level:.17g}"
            if record.noise_seed is not None:
                meta += f" noise_seed={record.noise_seed}"
            fh.write(f"# {meta}{w.dialect.lineterminator}")
        w.writerow(["t", "y"])
        for n, v in enumerate(record.y):
            w.writerow([format(n * record.dt, ".17g"), format(v, ".17g")])
    return path


def _read_provenance(line: str) -> dict:
    """Record fields from a "# key=value ..." provenance line."""
    meta = dict(item.partition("=")[::2] for item in line[1:].split())
    fields = {"provenance": meta.pop("provenance", "clean")}
    if fields["provenance"] not in ("clean", "noisy"):
        raise ValueError(f"unknown measurement provenance {fields['provenance']!r}")
    if "noise_level" in meta:
        fields["noise_level"] = float(meta.pop("noise_level"))
    if "noise_seed" in meta:
        fields["noise_seed"] = int(meta.pop("noise_seed"))
    if meta:
        raise ValueError(f"unknown measurement provenance keys {sorted(meta)}")
    return fields


def read_measurement_csv(path) -> MeasurementRecord:
    """Read a t,y measurement, and its provenance line if it has one.

    Samples are parsed straight into two float arrays. A file without a
    provenance line reads as clean.
    """
    with open(path, newline="") as fh:
        line = fh.readline()
        fields = {}
        if line.startswith("#"):
            fields = _read_provenance(line)
            line = fh.readline()
        header = next(csv.reader([line]))
        if header[:2] != ["t", "y"]:
            raise ValueError(f"unexpected measurement header {header!r}")
        t, y = array("d"), array("d")
        for a, b in csv.reader(fh):
            t.append(float(a))
            y.append(float(b))
    if len(t) < 2:
        raise ValueError("measurement needs at least two samples")
    t, y = np.frombuffer(t), np.frombuffer(y)
    if not (np.isfinite(t).all() and np.isfinite(y).all()):
        raise ValueError("measurement has non-finite samples")
    dt = t[1] - t[0]
    if not np.allclose(np.diff(t), dt, rtol=0, atol=1e-12 + 1e-9 * dt):
        raise ValueError("measurement sampling is not uniform")
    return MeasurementRecord(y=y, dt=float(dt), T=float(t[-1]), **fields)
