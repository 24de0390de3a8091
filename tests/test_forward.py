import csv
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bfwave.forward import (
    _CSV_BLOCK,
    MeasurementRecord,
    add_noise,
    read_measurement_csv,
    rms,
    simulate_forward,
    write_measurement_csv,
)
from bfwave.grid import build_grid


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

    @pytest.mark.parametrize("n", [2 * _CSV_BLOCK - 1, 2 * _CSV_BLOCK, 2 * _CSV_BLOCK + 1])
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
