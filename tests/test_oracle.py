import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bfwave.forward import simulate_forward
from bfwave.grid import ResonanceError, build_grid, l2_norm
from oracle import (
    forced_modal_solution,
    free_modal_solution,
    neumann_trace_series,
    oracle_measurement,
    oscillator_closed_form,
    poly_paper_coefficients,
    sine_coefficients,
    synthesize_modes,
)


@pytest.fixture(scope="module")
def grid():
    return build_grid(20, 0.5, 1.0)


class TestSineCoefficients:
    def test_orthogonality(self, grid):
        f = np.sin(2.0 * np.pi * grid.nodes)
        f[0] = f[-1] = 0.0
        c = sine_coefficients(f, grid, 5)
        expected = np.zeros(5)
        expected[1] = 1.0
        assert np.allclose(c, expected, atol=1e-12)

    def test_zero_field(self, grid):
        assert not sine_coefficients(np.zeros(21), grid, 8).any()

    def test_poly_paper_coefficients(self, grid):
        # analytic value 8/(k pi)^3 for odd k; the grid projection sees
        # aliasing images of order (2 nx)^-3, far below 1e-4
        x = grid.nodes
        q = x - x * x
        q[0] = q[-1] = 0.0
        c = sine_coefficients(q, grid, 4)
        exact = poly_paper_coefficients(4)
        assert exact[0] == pytest.approx(0.258012, abs=1e-6)
        assert np.allclose(c, exact, atol=1e-4)

    def test_aliasing_guard(self, grid):
        with pytest.raises(ValueError):
            sine_coefficients(np.zeros(21), grid, 21)

    @given(
        coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=10),
    )
    @settings(max_examples=30)
    def test_round_trip(self, coeffs, grid):
        c = np.array(coeffs)
        f = synthesize_modes(c, grid)
        back = sine_coefficients(f, grid, len(c))
        assert np.allclose(back, c, atol=1e-12)

    def test_discrete_parseval(self, grid):
        c = np.array([0.3, -1.2, 0.0, 0.5])
        f = synthesize_modes(c, grid)
        assert l2_norm(f, grid) ** 2 == pytest.approx(np.sum(c * c) / 2.0, rel=1e-12)


class TestModalSolutions:
    def test_free_identity_at_zero(self):
        c = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(free_modal_solution(c, 0.0), c)

    def test_free_integer_time(self):
        assert free_modal_solution(np.array([1.0]), 1.0)[0] == pytest.approx(-1.0, abs=1e-15)
        assert free_modal_solution(np.array([0.0, 1.0]), 0.25)[1] == pytest.approx(0.0, abs=1e-15)

    def test_forced_zero_initial_data(self):
        pos, vel = forced_modal_solution(np.array([1.0, 0.5]), 1.3, 0.0)
        assert not pos.any() and not vel.any()

    def test_forced_static(self):
        pos, _ = forced_modal_solution(np.array([1.0]), 0.0, 1.0)
        assert pos[0] == pytest.approx(2.0 / np.pi**2, rel=1e-12)

    def test_resonance_guard(self):
        with pytest.raises(ResonanceError):
            forced_modal_solution(np.array([1.0]), np.pi - 1e-9, 1.0)

    @given(
        omega=st.floats(0.0, 2.5),
        t=st.floats(0.0, 4.0),
        q1=st.floats(-2, 2),
        q2=st.floats(-2, 2),
    )
    @settings(max_examples=50)
    def test_ode_residual(self, omega, t, q1, q2):
        # a_k'' + (k pi)^2 a_k = q_k cos(omega t), second derivative analytic
        c = np.array([q1, q2])
        wk = np.pi * np.arange(1, 3)
        denom = wk * wk - omega * omega
        acc = c * (-(omega**2) * np.cos(omega * t) + wk**2 * np.cos(wk * t)) / denom
        pos, _ = forced_modal_solution(c, omega, t)
        resid = acc + wk * wk * pos - c * np.cos(omega * t)
        assert np.max(np.abs(resid)) <= 1e-10


class TestTraceAndMeasurement:
    def test_trace_values(self):
        assert neumann_trace_series(np.zeros(4)) == 0.0
        assert neumann_trace_series(np.array([1.0])) == pytest.approx(np.pi)
        assert neumann_trace_series(np.array([0.0, 1.0])) == pytest.approx(2.0 * np.pi)

    def test_measurement_static_mode(self):
        times = np.linspace(0.0, 1.0, 11)
        y = oracle_measurement(np.array([1.0]), 0.0, times)
        assert np.allclose(y, (1.0 - np.cos(np.pi * times)) / np.pi, atol=1e-14)
        assert y[-1] == pytest.approx(2.0 / np.pi, rel=1e-12)

    def test_zero_source(self):
        assert not oracle_measurement(np.zeros(3), 1.0, np.linspace(0, 2, 9)).any()

    def test_matches_solver(self):
        # independent cross-check of the finite-difference route; reference
        # gaps 1.466e-2 / 3.74e-3 are trace-stencil dominated and 2nd order
        gaps = []
        for nx in (20, 40):
            g = build_grid(nx, 0.005, 3.0)
            x = g.nodes
            q = x - x * x
            q[0] = q[-1] = 0.0
            y_fd = simulate_forward(q, 1.0, g).y
            t = np.arange(g.n_steps_per_pass + 1) * g.dt
            y_or = oracle_measurement(poly_paper_coefficients(64), 1.0, t)
            gaps.append(np.max(np.abs(y_fd - y_or)) / np.max(np.abs(y_or)))
        assert gaps[0] <= 1.6e-2
        assert gaps[1] <= 4.1e-3
        assert 3.0 <= gaps[0] / gaps[1] <= 5.0


class TestOscillatorClosedForm:
    def test_pure_rotation(self):
        n = 1000
        dt = (np.pi / 2.0) / n
        g = np.zeros(n + 1)
        z1, z2 = oscillator_closed_form(1.0, g, dt, (1.0, 0.0), np.pi / 2.0)
        assert z1 == pytest.approx(0.0, abs=1e-12)
        assert z2 == pytest.approx(-1.0, rel=1e-12)

    def test_constant_forcing(self):
        n = 2000
        dt = 1.0 / n
        g = np.ones(n + 1)
        z1, _ = oscillator_closed_form(1.0, g, dt, (0.0, 0.0), 1.0)
        assert z1 == pytest.approx(1.0 - np.cos(1.0), abs=1e-6)

    def test_double_integration(self):
        # omega = 0 with g = pi cos(pi s): z1(1) = 2/pi
        n = 2000
        dt = 1.0 / n
        s = np.arange(n + 1) * dt
        g = np.pi * np.cos(np.pi * s)
        z1, _ = oscillator_closed_form(0.0, g, dt, (0.0, 0.0), 1.0)
        assert z1 == pytest.approx(2.0 / np.pi, abs=1e-8)

    def test_requires_sample_time(self):
        with pytest.raises(ValueError):
            oscillator_closed_form(1.0, np.zeros(11), 0.1, (0, 0), 0.55)
