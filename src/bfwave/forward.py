"""Measurement synthesis: boundary trace of the forced wave equation.

The plant is u_tt = u_xx + q(x) cos(omega t) from rest with homogeneous
Dirichlet walls; the measurement is the Neumann trace u_x(t, 0) sampled at
every time node. Noise is additive white Gaussian, calibrated against the
RMS of the clean signal.
"""

from __future__ import annotations

import csv
import warnings
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

_CSV_BLOCK = 512  # measurement rows formatted per write; 4096 raised peak memory by 0.4 MB
# Bytes of lines parsed per np.loadtxt call, about 1,500 rows. On the 12,001-row
# reference file (2-core Xeon VM), one call fed by a Python line iterator took
# 1.08-1.10x as long; one readlines() of the whole file is as fast, but raised a
# fresh process's max RSS by 0.68 MB against 0.16 MB.
_READ_CHUNK = 1 << 16


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
    Every line ends in CRLF, as csv.writer ends its rows: the file holds the
    bytes a csv.writer row loop writes (no field needs quoting), formatted
    _CSV_BLOCK rows per string. Returns path.
    """
    with open(path, "w", newline="") as fh:
        if record.provenance == "noisy":
            meta = f"provenance=noisy noise_level={record.noise_level:.17g}"
            if record.noise_seed is not None:
                meta += f" noise_seed={record.noise_seed}"
            fh.write(f"# {meta}\r\n")
        fh.write("t,y\r\n")
        t = np.arange(len(record.y)) * record.dt
        for i in range(0, len(t), _CSV_BLOCK):
            block = np.column_stack((t[i : i + _CSV_BLOCK], record.y[i : i + _CSV_BLOCK]))
            fh.write("%.17g,%.17g\r\n" * len(block) % tuple(block.ravel().tolist()))
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


def _row_refusal(lines, first: int) -> str:
    """Why body lines, the first of them file line first, are not rows t,y: the first bad line."""
    for k, line in enumerate(lines, start=first):
        if not line.strip():
            return f"measurement has a blank row at line {k}"
        try:
            fields = np.loadtxt([line], delimiter=",", comments=None, quotechar='"', ndmin=1)
        except ValueError:
            fields = ()
        if len(fields) != 2:
            return f"measurement line {k} does not hold 2 numeric fields (t,y)"
    return "measurement rows do not hold 2 numeric fields each (t,y)"


def _read_rows(fh, first: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns t and y of the lines left in fh, the first of them file line first."""
    chunks = [np.empty((0, 2))]
    with warnings.catch_warnings():  # a chunk of blank lines is refused below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        while lines := fh.readlines(_READ_CHUNK):
            try:
                ty = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2)
            except ValueError:
                ty = None
            # np.loadtxt skips blank lines: a chunk with fewer rows than lines has one
            if ty is None or ty.shape != (len(lines), 2):
                raise ValueError(_row_refusal(lines, first))
            chunks.append(ty)
            first += len(lines)
    return tuple(np.concatenate([ty[:, k] for ty in chunks]) for k in (0, 1))


def read_measurement_csv(path) -> MeasurementRecord:
    """Read a t,y measurement, and its provenance line if it has one.

    The rows are parsed by np.loadtxt, one chunk of lines at a time, into
    float arrays: two fields each, quoted or not, lines ending in LF, CRLF
    or CR. A file without a provenance line reads as clean. A blank row, or
    a row that is not two numbers, is refused by its file line, found by a
    second pass over its chunk that runs only when the chunk's parse fails.
    The times must increase, be uniform and start at 0, the last two to
    within 1e-12 + 1e-9 dt.
    """
    with open(path, newline="") as fh:
        line = fh.readline()
        fields, first = {}, 2  # first: the file line of the first body row
        if line.startswith("#"):
            fields, first = _read_provenance(line), 3
            line = fh.readline()
        header = next(csv.reader([line]))
        if header[:2] != ["t", "y"]:
            raise ValueError(f"unexpected measurement header {header!r}")
        t, y = _read_rows(fh, first)
    if len(t) < 2:
        raise ValueError("measurement needs at least two samples")
    if not (np.isfinite(t).all() and np.isfinite(y).all()):
        raise ValueError("measurement has non-finite samples")
    dt = t[1] - t[0]
    if not dt > 0:  # the tolerances below assume a positive step
        raise ValueError("measurement time does not increase")
    if not np.allclose(np.diff(t), dt, rtol=0, atol=1e-12 + 1e-9 * dt):
        raise ValueError("measurement sampling is not uniform")
    if abs(t[0]) > 1e-12 + 1e-9 * dt:
        raise ValueError(f"measurement time starts at {t[0]:.17g}, not at 0")
    return MeasurementRecord(y=y, dt=float(dt), T=float(t[-1]), **fields)
