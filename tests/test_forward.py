import csv
import struct
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bfwave.forward import (
    _G17_CELLS,
    _READ_CHUNK,
    MeasurementRecord,
    _csv_rows,
    _g17_digits,
    _g17_tables,
    add_noise,
    read_measurement_csv,
    rms,
    simulate_forward,
    write_measurement_csv,
)
from bfwave.grid import ScenarioConfig, build_grid
from bfwave.observer import pass_samples


@pytest.fixture(scope="module")
def grid():
    return build_grid(20, 0.05, 3.0)


def csv_writer_bytes(m, path) -> bytes:
    """The bytes a csv.writer row loop writes for the measurement m."""
    with open(path, "w", newline="") as fh:
        if m.provenance == "noisy":
            tail = "" if m.noise_seed is None else f" noise_seed={m.noise_seed}"
            fh.write(f"# provenance=noisy noise_level={m.noise_level:.17g}{tail}\r\n")
        w = csv.writer(fh)
        w.writerow(["t", "y"])
        for n, v in enumerate(m.y):
            w.writerow([format(n * m.dt, ".17g"), format(v, ".17g")])
    return path.read_bytes()


def sine_mode(g, k=1):
    q = np.sin(k * np.pi * g.nodes)
    q[0] = q[-1] = 0.0
    return q


class TestSimulateForward:
    def test_zero_source(self, grid):
        m = simulate_forward(np.zeros(21), 1.0, grid)
        assert not m.y.any()
        assert m.provenance == "clean"

    def test_sine_mode_static_forcing(self, grid):
        # omega = 0: y(t) = (1 - cos(pi t)) / pi for q = sin(pi x)
        m = simulate_forward(sine_mode(grid), 0.0, grid)
        t = np.arange(grid.n_steps_per_pass + 1) * grid.dt
        exact = (1.0 - np.cos(np.pi * t)) / np.pi
        assert np.max(np.abs(m.y - exact)) <= 1e-2
        i1 = int(round(1.0 / grid.dt))
        assert m.y[i1] == pytest.approx(2.0 / np.pi, abs=1e-2)

    def test_zero_initial_output(self, grid):
        m = simulate_forward(sine_mode(grid), 1.0, grid)
        assert m.y[0] == 0.0
        # forcing enters at second order in time
        assert abs(m.y[1]) <= 10.0 * grid.dt**2

    def test_linearity(self, grid):
        q1 = sine_mode(grid, 1)
        q2 = sine_mode(grid, 2)
        y1 = simulate_forward(q1, 1.0, grid).y
        y2 = simulate_forward(q2, 1.0, grid).y
        y12 = simulate_forward(2.0 * q1 - 0.5 * q2, 1.0, grid).y
        assert np.allclose(y12, 2.0 * y1 - 0.5 * y2, atol=1e-12)

    def test_periodicity_static_forcing(self, grid):
        # omega = 0, mode 1: the output has period 2 up to O(dx^2) dispersion
        m = simulate_forward(sine_mode(grid), 0.0, grid)
        p = int(round(2.0 / grid.dt))
        n = len(m.y) - p
        assert np.max(np.abs(m.y[p : p + n] - m.y[:n])) <= 5.0 * grid.dx**2

    def test_rejects_nonzero_endpoints(self, grid):
        q = np.ones(21)
        with pytest.raises(ValueError):
            simulate_forward(q, 1.0, grid)


class TestAddNoise:
    def test_level_zero_identity(self, grid):
        m = simulate_forward(sine_mode(grid), 1.0, grid)
        m0 = add_noise(m, 0.0, 123)
        assert np.array_equal(m0.y, m.y)
        assert m0.noise_seed is None  # a clean record carries no seed

    def test_deterministic(self, grid):
        m = simulate_forward(sine_mode(grid), 1.0, grid)
        a = add_noise(m, 0.1, 42)
        b = add_noise(m, 0.1, 42)
        assert np.array_equal(a.y, b.y)
        c = add_noise(m, 0.1, 43)
        assert not np.array_equal(a.y, c.y)

    def test_noise_amplitude(self):
        g = build_grid(20, 0.005, 3.0)
        m = simulate_forward(sine_mode(g), 1.0, g)
        noisy = add_noise(m, 0.1, 42)
        sigma = np.std(noisy.y - m.y)
        target = 0.1 * rms(m.y, m.dt, m.T)
        assert abs(sigma - target) <= 0.05 * target
        assert noisy.provenance == "noisy"

    def test_negative_level_rejected(self, grid):
        m = simulate_forward(sine_mode(grid), 1.0, grid)
        with pytest.raises(ValueError):
            add_noise(m, -0.1, 1)

    @pytest.mark.parametrize("level", [float("inf"), float("nan")])
    def test_non_finite_level_rejected(self, grid, level):
        # such a level would turn every sample into inf or nan
        m = simulate_forward(sine_mode(grid), 1.0, grid)
        with pytest.raises(ValueError):
            add_noise(m, level, 1)

    @given(level=st.floats(0.01, 1.0), seed=st.integers(0, 2**31))
    @settings(max_examples=15)
    def test_noise_is_additive_gaussian(self, level, seed):
        g = build_grid(10, 0.05, 2.0)
        m = simulate_forward(sine_mode(g), 1.0, g)
        noisy = add_noise(m, level, seed)
        assert noisy.noise_level == level
        assert noisy.noise_seed == seed
        assert len(noisy.y) == len(m.y)


class TestMeasurementCsv:
    def test_round_trip_exact(self, grid, tmp_path):
        m = add_noise(simulate_forward(sine_mode(grid), 1.0, grid), 0.1, 42)
        path = tmp_path / "m.csv"
        write_measurement_csv(m, path)
        back = read_measurement_csv(path)
        assert np.array_equal(back.y, m.y)
        assert back.dt == pytest.approx(m.dt, rel=1e-12)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,0\n1,1\n")
        with pytest.raises(ValueError):
            read_measurement_csv(path)

    def test_rejects_nonuniform_sampling(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y\n0,0\n0.1,1\n0.3,2\n")
        with pytest.raises(ValueError):
            read_measurement_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["t", "y"])
    def test_rejects_non_finite_samples(self, tmp_path, bad, column):
        rows = [["0", "0"], ["0.1", "1"], ["0.2", "2"]]
        rows[1][0 if column == "t" else 1] = bad
        path = tmp_path / "bad.csv"
        path.write_text("t,y\n" + "".join(f"{a},{b}\n" for a, b in rows))
        with pytest.raises(ValueError, match="non-finite"):
            read_measurement_csv(path)

    def test_arrays_match_row_by_row_parse(self, grid, tmp_path):
        # the arrays equal, bit for bit, a parse through a list of row tuples
        m = add_noise(simulate_forward(sine_mode(grid), 1.0, grid), 0.1, 42)
        path = tmp_path / "m.csv"
        write_measurement_csv(m, path)
        with open(path, newline="") as fh:
            assert next(fh).startswith("# provenance=noisy")
            assert next(csv.reader(fh)) == ["t", "y"]
            rows = [(float(a), float(b)) for a, b in csv.reader(fh)]
        back = read_measurement_csv(path)
        assert np.array_equal(back.y, np.array([b for _, b in rows]))
        assert back.dt == rows[1][0] - rows[0][0]
        assert back.T == rows[-1][0]

    def test_noisy_provenance_round_trip(self, grid, tmp_path):
        m = add_noise(simulate_forward(sine_mode(grid), 1.0, grid), 0.1, 42)
        path = tmp_path / "m.csv"
        write_measurement_csv(m, path)
        back = read_measurement_csv(path)
        assert (back.provenance, back.noise_level, back.noise_seed) == ("noisy", 0.1, 42)

    def test_clean_file_is_plain_t_y(self, grid, tmp_path):
        m = simulate_forward(sine_mode(grid), 1.0, grid)
        path = tmp_path / "m.csv"
        write_measurement_csv(m, path)
        lines = path.read_bytes().split(b"\r\n")
        assert lines[0] == b"t,y"
        assert lines[2].decode() == f"{grid.dt:.17g},{m.y[1]:.17g}"
        back = read_measurement_csv(path)
        assert (back.provenance, back.noise_level, back.noise_seed) == ("clean", 0.0, None)

    @pytest.mark.parametrize("seed", [None, 7, "clean"])
    def test_bytes_equal_csv_writer(self, grid, tmp_path, seed):
        # the block-formatted rows are the bytes a csv.writer row loop writes
        m = simulate_forward(sine_mode(grid), 1.0, grid)
        if seed != "clean":
            m = add_noise(m, 0.1, 3)
            m = replace(m, noise_seed=seed)
        path = write_measurement_csv(m, tmp_path / "m.csv")
        assert path.read_bytes() == csv_writer_bytes(m, tmp_path / "ref.csv")

    @pytest.mark.parametrize("n", [_G17_CELLS - 1, _G17_CELLS, _G17_CELLS + 1])
    def test_bytes_equal_csv_writer_at_block_ends(self, tmp_path, n):
        rng = np.random.default_rng(n)
        y = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        y[:4] = [0.0, -0.0, 5e-324, -np.finfo(float).max]
        m = MeasurementRecord(
            y=y, dt=1.0 / 3.0, T=(n - 1) / 3.0, noise_level=0.1, noise_seed=1, provenance="noisy"
        )
        path = write_measurement_csv(m, tmp_path / "m.csv")
        assert path.read_bytes() == csv_writer_bytes(m, tmp_path / "ref.csv")

    def test_rejects_unknown_provenance(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# provenance=smoothed\nt,y\n0,0\n0.1,1\n")
        with pytest.raises(ValueError, match="provenance"):
            read_measurement_csv(path)

    @pytest.mark.parametrize("text", ["", "t,y\n", "t,y\n0,0\n", "t,y\n0,0\n0.1\n"])
    def test_rejects_short_files(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError):
            read_measurement_csv(path)


# What read_measurement_csv accepts and refuses, one file each. Every
# accepted file holds t = 0, 0.5, 1 and y = 0, 1, 2.
ACCEPTED = {
    "lf": "t,y\n0,0\n0.5,1\n1,2\n",
    "crlf": "t,y\r\n0,0\r\n0.5,1\r\n1,2\r\n",
    "quoted": 't,y\n"0","0"\n"0.5","1"\n"1","2"\n',
    "padded": "t,y\n 0 , 0\n0.5,\t1 \n1 ,2\n",
    "signed_exponent": "t,y\n+0E+00,0\n5E-01,+1E+00\n1,2\n",
    "no_final_newline": "t,y\n0,0\n0.5,1\n1,2",
    "extra_header_column": "t,y,z\n0,0\n0.5,1\n1,2\n",
    # a lone CR ends a line too, as in universal-newline reading
    "cr": "t,y\r0,0\r0.5,1\r1,2\r",
    "mixed": "t,y\r\n0,0\n0.5,1\r1,2\r\n",
}
REFUSED = {
    "three_fields": ("t,y\n0,0,0\n0.5,1,1\n1,2,2\n", "fields"),
    "one_field": ("t,y\n0\n0.5\n1\n", "fields"),
    # a row that is not two numbers is refused by its file line
    "ragged": ("t,y\n0,0\n0.5,1,1\n1,2\n", "line 3 does not hold 2 numeric fields"),
    "empty_field": ("t,y\n0,0\n0.5,\n1,2\n", "line 3 does not hold 2 numeric fields"),
    "hash_row": ("t,y\n0,0\n# note\n0.5,1\n1,2\n", "line 3 does not hold 2 numeric fields"),
    "hex_float": ("t,y\n0,0\n0.5,0x1p-3\n1,2\n", "line 3 does not hold 2 numeric fields"),
    "infinity": ("t,y\n0,0\n0.5,Infinity\n1,2\n", "non-finite"),
    "header_only": ("t,y\n", "at least two samples"),
    "one_row": ("t,y\n0,0\n", "at least two samples"),
    # csv.reader gave these no fields and the old parse refused them; np.loadtxt
    # skips blank lines, so the reader counts them
    "blank_row": ("t,y\n0,0\n\n0.5,1\n1,2\n", "blank row"),
    "blank_first_row": ("t,y\r\n\r\n0,0\r\n0.5,1\r\n1,2\r\n", "blank row"),
    "blank_last_row": ("t,y\n0,0\n0.5,1\n1,2\n\n", "blank row"),
    # Python's float read this as 10.0; np.loadtxt does not take digit separators
    "digit_separator": ("t,y\n0,0\n0.5,1_0\n1,2\n", "line 3 does not hold 2 numeric fields"),
    # uniform, but not from t = 0: the window is the pass [0, T]
    "time_offset": ("t,y\n7,0\n7.5,1\n8,2\n", "time starts at 7, not at 0"),
    # a step of dt <= 0 makes the tolerance 1e-12 + 1e-9 dt meaningless: refused first
    "decreasing_time": ("t,y\n0,0\n-0.5,1\n-1,2\n", "time does not increase"),
    "constant_time": ("t,y\n0,0\n0,1\n0,2\n", "time does not increase"),
}


class TestSampleTimeRule:
    """The reader and pass_samples apply one sample-time rule: within 1e-12 + 1e-9 dt."""

    @pytest.mark.parametrize("inside", [True, False], ids=["just_inside", "just_outside"])
    def test_reader_and_pass_samples_agree(self, grid, tmp_path, inside):
        off = (0.9 if inside else 1.1) * (1e-12 + 1e-9 * grid.dt)
        n = grid.n_steps_per_pass
        t, y = np.arange(n + 1) * grid.dt, np.zeros(n + 1)
        last_step = t.copy()
        last_step[-1] += off  # one step off the first one's length
        files = {"uniform": last_step, "start": t + off}  # every time off, the first off 0

        def accepted(call, *args) -> bool:
            try:
                call(*args)
            except ValueError:
                return False
            return True

        for name, times in files.items():
            path = tmp_path / f"{name}.csv"
            path.write_text("t,y\n" + "".join(f"{a:.17g},0\n" for a in times))
            assert accepted(read_measurement_csv, path) is inside, name
        m = MeasurementRecord(y=y, dt=grid.dt + off, T=grid.T)
        assert accepted(pass_samples, m, grid) is inside


@pytest.mark.filterwarnings("error")  # numpy's "input contained no data" included
class TestReaderContract:
    @pytest.mark.parametrize("name", ACCEPTED)
    def test_accepted(self, tmp_path, name):
        path = tmp_path / "m.csv"
        path.write_bytes(ACCEPTED[name].encode())
        m = read_measurement_csv(path)
        assert m.y.tolist() == [0.0, 1.0, 2.0]
        assert (m.dt, m.T, m.provenance) == (0.5, 1.0, "clean")

    @pytest.mark.parametrize("name", REFUSED)
    def test_refused(self, tmp_path, name):
        text, match = REFUSED[name]
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match=match):
            read_measurement_csv(path)

    @given(
        y=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=2, max_size=40
        )
    )
    @settings(max_examples=60)
    def test_17_digit_text_reads_back_bitwise(self, y):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            text = "".join(f"{n * 0.5:.17g},{v:.17g}\r\n" for n, v in enumerate(y))
            path.write_text("t,y\r\n" + text, newline="")
            back = read_measurement_csv(path)
        assert back.y.tobytes() == np.array(y).tobytes()


@pytest.fixture(scope="module")
def reference_record():
    # a noisy pass of the reference grid: 12,001 samples
    g = build_grid(20, 0.005, 3.0)
    return add_noise(simulate_forward(sine_mode(g), 2.0, g), 0.1, 11)


@pytest.fixture
def reference_lines(reference_record, tmp_path):
    """The lines of the record's file: provenance at line 1, header at 2, rows from 3."""
    path = write_measurement_csv(reference_record, tmp_path / "ref.csv")
    return path.read_bytes().decode().splitlines(keepends=True)


@pytest.mark.filterwarnings("error")
class TestReaderPastFirstChunk:
    """Reference-size files span many np.loadtxt chunks of _READ_CHUNK bytes."""

    @staticmethod
    def read(tmp_path, lines):
        path = tmp_path / "m.csv"
        path.write_text("".join(lines), newline="")
        return read_measurement_csv(path)

    def test_reads_back_as_csv_rows(self, tmp_path, reference_record, reference_lines):
        assert len("".join(reference_lines)) > 4 * _READ_CHUNK
        back = self.read(tmp_path, reference_lines)
        t, y = np.array([[float(v) for v in row] for row in csv.reader(reference_lines[2:])]).T
        assert back.y.tobytes() == y.tobytes() == reference_record.y.tobytes()
        assert (back.dt, back.T) == (t[1] - t[0], t[-1])
        assert (back.provenance, back.noise_level, back.noise_seed) == ("noisy", 0.1, 11)

    def test_late_blank_row(self, tmp_path, reference_lines):
        reference_lines.insert(8999, "\r\n")
        with pytest.raises(ValueError, match="blank row at line 9000$"):
            self.read(tmp_path, reference_lines)

    def test_late_three_field_row(self, tmp_path, reference_lines):
        reference_lines[11991] = reference_lines[11991].replace("\r\n", ",0\r\n")
        with pytest.raises(ValueError, match="line 11992 does not hold 2 numeric fields"):
            self.read(tmp_path, reference_lines)

    def test_chunk_of_blank_lines(self, tmp_path, reference_lines):
        # the first chunk holds nothing but blank lines, the rows follow
        reference_lines[2:2] = ["\r\n"] * _READ_CHUNK
        with pytest.raises(ValueError, match="blank row at line 3$"):
            self.read(tmp_path, reference_lines)


def g17_rows(*columns) -> bytes:
    """The bytes '%.17g' row formatting gives for the columns."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return "".join(",".join("%.17g" % v for v in row) + "\r\n" for row in rows).encode()


def kernel_rows(*columns) -> bytes:
    return b"".join(_csv_rows(*columns))


bit_doubles = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])

# (cell, whether the kernel formats it rather than '%.17g' % x)
PINNED = [
    (1.00000762939453125, False),  # 1.000007629394531250: a tie at the 17th digit
    (1.006288126017779, False),  # 10^16 x has fraction 0.49972, within the band
    (1.8042043684367362, False),  # 0.50016, within the band
    (1e17, False),  # outside the range
    (np.nextafter(1e17, 0.0), True),  # 99999999999999984
    (1e-11, False),  # 9.9999999999999994e-12: 10^27 x < 1e16, a decade boundary
    (np.nextafter(1e-11, 0.0), False),  # outside the range
    (1e-07, False),  # 9.9999999999999995e-08, 10^23 x rounds up to 1e16
    (0.0, False),
    (-0.0, False),
    (np.nan, False),
    (np.inf, False),
    (-np.inf, False),
    (5e-324, False),
    (2.2250738585072014e-308, False),
    (1.7976931348623157e308, False),
    (1e-05, True),  # 1.0000000000000001e-05: e-notation
    (-2.5, True),
    (0.1, True),
    (12345.678, True),
]


class TestG17Kernel:
    """_csv_rows, the one formatter of every CSV writer, against '%.17g'."""

    @given(values=st.lists(st.one_of(st.floats(), bit_doubles), max_size=64), cols=st.integers(1, 3))
    @settings(max_examples=300)
    def test_any_double(self, values, cols):
        rows = len(values) // cols
        table = np.array(values[: rows * cols], dtype=float).reshape(rows, cols)
        assert kernel_rows(*table.T) == g17_rows(*table.T)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20251019).integers(0, 2**64, 10**5, dtype=np.uint64)
        x = bits.view(np.float64).reshape(-1, 2)
        assert kernel_rows(*x.T) == g17_rows(*x.T)

    def test_random_doubles_in_range(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(10**5) * 10.0 ** rng.integers(-10, 16, 10**5)
        assert 1.0 - _g17_digits(x)[0].mean() < 0.05  # the kernel formats nearly all
        assert kernel_rows(x[::2], x[1::2]) == g17_rows(x[::2], x[1::2])

    @pytest.mark.parametrize("x, formatted", PINNED)
    def test_pinned(self, x, formatted):
        cell = np.array([x])
        assert _g17_digits(cell)[0].tolist() == [formatted]
        assert kernel_rows(cell) == ("%.17g\r\n" % x).encode()
        assert kernel_rows(cell, -cell) == ("%.17g,%.17g\r\n" % (x, -x)).encode()

    @pytest.mark.parametrize("cols", [1, 2, 3])
    @pytest.mark.parametrize("past", [-1, 0, 1])
    def test_block_ends(self, cols, past):
        rows = _G17_CELLS // cols + past
        rng = np.random.default_rng(rows)
        x = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-14, 19, (rows, cols))
        pinned = [v for v, _ in PINNED]
        x.ravel()[: len(pinned)] = x.ravel()[-len(pinned) :] = pinned
        assert kernel_rows(*x.T) == g17_rows(*x.T)

    def test_no_rows(self):
        assert kernel_rows(np.empty(0), np.empty(0)) == b""

    def test_log10_one_ulp_low(self, monkeypatch):
        # such a log10 puts a power of ten one decade low: P lands at or above 1e17
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), -np.inf))
        x = 10.0 ** np.arange(-10, 17)
        assert kernel_rows(x, -x) == g17_rows(x, -x)


class TestKernelGuard:
    """Untimed guards of the kernel's cost on the clean reference measurement."""

    @pytest.fixture(scope="class")
    def reference(self):
        cfg = ScenarioConfig()
        grid = cfg.grid()
        return simulate_forward(cfg.q_true(grid), cfg.omega, grid)

    def test_few_cells_fall_back(self, reference):
        t = np.arange(len(reference.y)) * reference.dt
        ok = _g17_digits(np.concatenate([t, reference.y]))[0]
        assert 1.0 - ok.mean() <= 0.05

    def test_traced_peak_at_most_1_mb(self, reference, tmp_path):
        _g17_tables.cache_clear()  # the tables' first build counts too
        tracemalloc.start()
        try:
            write_measurement_csv(reference, tmp_path / "m.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1e6
