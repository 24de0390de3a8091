"""Measurement synthesis: boundary trace of the forced wave equation.

The plant is u_tt = u_xx + q(x) cos(omega t) from rest with homogeneous
Dirichlet walls; the measurement is the Neumann trace u_x(t, 0) sampled at
every time node. Noise is additive white Gaussian, calibrated against the
RMS of the clean signal.
"""

from __future__ import annotations

import csv
import functools
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .grid import Grid1D, _same_time, _trapezoid_sq
from .leapfrog import run_homogeneous

__all__ = [
    "MeasurementRecord",
    "simulate_forward",
    "add_noise",
    "write_measurement_csv",
    "read_measurement_csv",
]

# Cells formatted per block by _csv_rows, a measurement block being _CSV_BLOCK
# rows. Writing the reference measurement then peaks at 0.7 MB under tracemalloc;
# 2048 cells raised that to 1.2 MB.
_G17_CELLS = 1024
_CSV_BLOCK = _G17_CELLS // 2
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


# _csv_rows formats a cell x with 10^_G17_EMIN <= |x| < 1e17 from one long-double
# product P = |x| 10^k, k = 16 - floor(log10 |x|). 10^k is exact while 5^k <
# 2^(nmant + 1) (k <= 27 for the x87's 64-bit significand), so P is the exact
# product rounded once, and its nearest integer holds the 17 digits %.17g rounds
# x to, unless P's fraction lies within P * eps (at least one ulp of P) of 1/2.
# Such a cell, one outside the range (0, inf and nan among them), and one whose
# P falls outside [1e16, 1e17) (a decade boundary, or log10 one off) goes to
# '%.17g' % x. Where long double is double, P * eps exceeds 1/2: every cell does.
_LD = np.finfo(np.longdouble)
_G17_KMAX = int((_LD.nmant + 1) / math.log2(5))  # the largest k with 5^k < 2^(nmant + 1)
_G17_EMIN = 16 - _G17_KMAX
_G17_LO = 10.0**_G17_EMIN
_G17_EPS = float(_LD.eps)
# A cell's work row: slot 0 NUL, 1-6 '0', 7-23 its 17 digits, then the bytes
# ".-e0123456789" from _DOT on and its terminator, "," or CRLF, at _TERM.
_G17_ROW = 40
_DOT, _MINUS, _EXP, _DIGIT, _TERM = 24, 25, 26, 27, 37
_G17_WIDTH = 25  # the longest text: sign, "0.000", 17 digits, CRLF


@functools.cache
def _g17_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's lookup tables, built on first use.

    pow10[k] is 10^k in long double, k = 0 .. _G17_KMAX. layout[c] lists
    the work-row slot of each byte of a cell's text, and NUL slots after
    it, for the class c = (sign, exponent - _G17_EMIN, significant digits
    - 1). quads[g] is the four ASCII digits of g < 10^4 as one
    little-endian word. rows_of holds the work rows, but for the digits,
    of a cell before a "," and of one before a CRLF.
    """
    pow10 = np.full(_G17_KMAX + 1, 10, np.longdouble)
    pow10[0] = 1
    ne, nx = 17 - _G17_EMIN, -4 - _G17_EMIN  # exponents; the first nx are in e-notation
    e = np.arange(_G17_EMIN, 17, dtype=np.int16)[:, None, None]
    z = np.clip(-e, 0, 4)  # the '0's of "0.000" before the digits
    z[:nx] = 0
    m = np.maximum(e + 1, 1)  # bytes before the point
    nf = np.maximum(z + np.arange(1, 18, dtype=np.int16)[:, None] - m, 0)  # digits after it
    q = np.arange(_G17_WIDTH - 1, dtype=np.int16)
    body = np.where(q == m, _DOT, 7 - z + q - (q > m))
    tail = np.zeros((ne, 7), np.int16)  # what follows the digits: [e-dd] and the terminator
    tail[:] = _TERM, _TERM + 1, 0, 0, 0, 0, 0
    tail[:nx] = _EXP, _MINUS, _DIGIT, _DIGIT, _TERM, _TERM + 1, 0
    tail[:nx, 2:4] += np.hstack(np.divmod(-e[:nx, 0], 10))
    r = q - (m + nf + (nf > 0))  # bytes past the digits
    after = tail.ravel().take(np.clip(r, 0, 6) + 7 * (e - _G17_EMIN))
    layout = np.zeros((2, ne, 17, _G17_WIDTH), np.int16)
    layout[0, ..., :-1] = np.where(r < 0, body, after)
    layout[1, ..., 0] = _MINUS
    layout[1, ..., 1:] = layout[0, ..., :-1]
    d = np.arange(48, 58, dtype="<u4")
    pairs = (d[:, None] | d << 8).ravel()
    rows_of = np.zeros((2, _G17_ROW), np.uint8)
    rows_of[:, 1:7] = ord("0")
    rows_of[:, _DOT:_TERM] = np.frombuffer(b".-e0123456789", np.uint8)
    rows_of[:, _TERM:] = (ord(","), 0, 0), (ord("\r"), ord("\n"), 0)
    quads = (pairs[:, None] | pairs << 16).ravel()
    tables = np.cumprod(pow10), layout.reshape(-1, _G17_WIDTH), quads, rows_of
    for t in tables:  # shared by every call
        t.flags.writeable = False
    return tables


def _g17_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per cell of the 1-D float array x: whether the kernel formats it, and
    then its 17 digits as an integer and the decimal exponent of its first."""
    a = np.abs(x)
    ok = a < 1e17
    ok &= a >= _G17_LO
    a[~ok] = 1.0
    e = np.log10(a)
    np.floor(e, out=e)
    e = e.astype(np.intp)
    np.minimum(e, 16, out=e)
    np.maximum(e, _G17_EMIN, out=e)
    p = a.astype(np.longdouble)
    p *= _g17_tables()[0].take(16 - e)
    d = p.astype(np.int64)  # floor(P)
    p -= d
    f = p.astype(float)
    ok &= d >= 10**16
    d += f > 0.5
    ok &= d < 10**17
    f -= 0.5
    ok &= np.abs(f) > d * _G17_EPS
    return ok, d, e


def _csv_rows(*columns: np.ndarray) -> Iterator[bytes]:
    """CSV bytes of the rows of equal-length float columns, a block of rows at a time.

    Each cell holds the text of '%.17g' % x and ends in "," or, at the end
    of its row, CRLF: the bytes '%.17g' row formatting gives. The cells of a
    block are built as NUL-padded rows of bytes gathered from each cell's
    work row, and tolist() trims the NULs.
    """
    _, layout, quads, rows_of = _g17_tables()
    rows, cols = len(columns[0]), len(columns)
    block = max(1, min(rows, _G17_CELLS // cols))
    table = np.empty((block, cols))
    work = np.empty((block, cols, _G17_ROW), np.uint8)
    work[:] = rows_of[[0] * (cols - 1) + [1]]  # each cell's constants and terminator
    work = work.reshape(-1, _G17_ROW)
    words = work.view("<u4")
    base = np.arange(0, work.size, _G17_ROW)[:, None]
    ends = [b","] * (cols - 1) + [b"\r\n"]
    for i in range(0, rows, block):
        for k, column in enumerate(columns):
            table[: rows - i, k] = column[i : i + block]
        x = table[: rows - i].ravel()
        n = len(x)
        ok, d, e = _g17_digits(x)
        # the digits: "000" and the first, then four groups of four
        w = words[:n]
        g = d // 10**16
        w[:, 1] = quads.take(g)
        d -= g * 10**16
        hi = d // 10**8
        lo = d - hi * 10**8
        g = hi // 10**4
        w[:, 2] = quads.take(g)
        w[:, 3] = quads.take(hi - g * 10**4)
        g = lo // 10**4
        w[:, 4] = quads.take(g)
        w[:, 5] = quads.take(lo - g * 10**4)
        src = work[:n]
        c = e * 17
        c -= (src[:, 23:6:-1] != ord("0")).argmax(axis=1)  # trailing '0's of the 17
        c += np.signbit(x) * (17 * (17 - _G17_EMIN)) + (16 - 17 * _G17_EMIN)
        text = src.ravel().take(layout.take(c, axis=0) + base[:n])
        cells = text.view(f"S{_G17_WIDTH}").ravel().tolist()
        bad = (~ok).nonzero()[0]
        for j, v in zip(bad.tolist(), x[bad].tolist()):
            cells[j] = b"%.17g%s" % (v, ends[j % cols])
        yield b"".join(cells)


def _write_csv(path, header: list[str], rows, provenance: str | None = None):
    """The one CSV file writer: a "# <provenance>" line if given, the header, then the rows.

    Lines end in CRLF and no field needs quoting: the bytes of a csv.writer row
    loop. rows, bytes such as _csv_rows gives, are written as they stream. Returns path.
    """
    with open(path, "wb") as fh:
        if provenance is not None:
            fh.write(f"# {provenance}\r\n".encode())
        fh.write(",".join(header).encode() + b"\r\n")
        fh.writelines(rows)
    return path


def write_measurement_csv(record: MeasurementRecord, path):
    """Columns t,y; a noisy record is preceded by one provenance comment line.

    The line reads "# provenance=noisy noise_level=<level> noise_seed=<seed>"
    (the seed left out when unknown); clean records have no such line. The
    rows go through _csv_rows, _CSV_BLOCK rows per block, and _write_csv. Returns path.
    """
    meta = None
    if record.provenance == "noisy":
        meta = f"provenance=noisy noise_level={record.noise_level:.17g}"
        if record.noise_seed is not None:
            meta += f" noise_seed={record.noise_seed}"
    t = np.arange(len(record.y)) * record.dt
    return _write_csv(path, ["t", "y"], _csv_rows(t, record.y), meta)


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


def _parse(lines) -> np.ndarray | None:
    """The lines as an array of rows t,y, or None unless each line is one row of two numbers."""
    try:
        ty = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except ValueError:
        return None
    # np.loadtxt skips blank lines: lines with fewer rows than lines hold one
    return ty if ty.shape == (len(lines), 2) else None


def _row_refusal(lines, first: int) -> str:
    """Why body lines, the first of them file line first, are not rows t,y: the first bad line.

    Halves the span that holds the first bad line, one np.loadtxt call per
    half, until one line is left; then lines are checked one at a time from
    there, so a line that parses alone but not in its span reads as before.
    """
    lo, hi = 0, len(lines)  # lines[:lo] parse, lines[lo:hi] do not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _parse(lines[lo:mid]) is not None:
            lo = mid
        else:
            hi = mid
    for k, line in enumerate(lines[lo:], start=first + lo):
        if not line.strip():
            return f"measurement has a blank row at line {k}"
        if _parse([line]) is None:
            return f"measurement line {k} does not hold 2 numeric fields (t,y)"
    return "measurement rows do not hold 2 numeric fields each (t,y)"


def _read_rows(fh, first: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns t and y of the lines left in fh, the first of them file line first."""
    chunks = [np.empty((0, 2))]
    with warnings.catch_warnings():  # a chunk of blank lines is refused below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        while lines := fh.readlines(_READ_CHUNK):
            ty = _parse(lines)
            if ty is None:
                raise ValueError(_row_refusal(lines, first))
            chunks.append(ty)
            first += len(lines)
    return tuple(np.concatenate([ty[:, k] for ty in chunks]) for k in (0, 1))


def read_measurement_csv(path) -> MeasurementRecord:
    """Read a t,y measurement, and its provenance line if it has one.

    The rows are parsed by np.loadtxt, one chunk of lines at a time, into
    float arrays: two fields each, quoted or not, lines ending in LF, CRLF
    or CR. A file without a provenance line reads as clean. A blank row, or
    a row that is not two numbers, is refused by its file line, found by
    halving its chunk only when the chunk's parse fails.
    The times must increase, be uniform and start at 0, the last two by
    the one sample-time rule (grid._same_time).
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
    if not _same_time(np.diff(t), dt, dt):
        raise ValueError("measurement sampling is not uniform")
    if not _same_time(t[0], 0.0, dt):
        raise ValueError(f"measurement time starts at {t[0]:.17g}, not at 0")
    return MeasurementRecord(y=y, dt=float(dt), T=float(t[-1]), **fields)
