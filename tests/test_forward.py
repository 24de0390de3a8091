import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bfwave.forward import (
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
