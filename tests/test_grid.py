import numpy as np
import pytest
from hypothesis import given, strategies as st

from bfwave.grid import (
    Gains,
    ResonanceError,
    ScenarioConfig,
    SourceSpec,
    build_grid,
    check_resonance,
    eval_source_profile,
    h1_seminorm,
    l2_norm,
)


class TestBuildGrid:
    def test_reference_resolution(self):
        g = build_grid(20, 0.005, 3.0)
        assert g.dx == 0.05
        assert g.n_steps_per_pass == 12000
        assert g.dt == 2.5e-4
        assert g.cfl <= 1.0

    def test_exactly_divisible(self):
        g = build_grid(20, 1.0, 2.0)
        assert g.dt == 0.05
        assert g.n_steps_per_pass == 40

    def test_rounded_step(self):
        # T/(cfl*dx) = 1/0.03 = 33.33 rounds to 33 steps
        g = build_grid(10, 0.3, 1.0)
        assert g.n_steps_per_pass == 33
        assert g.dt == pytest.approx(1.0 / 33.0, abs=0)
        assert g.cfl == pytest.approx(10.0 / 33.0)
        assert g.cfl <= 1.0

    @pytest.mark.parametrize(
        "nx,cfl,T",
        [(2, 0.5, 1.0), (20, 0.0, 1.0), (20, 1.5, 1.0), (20, -0.1, 1.0), (20, 0.5, 0.0)],
    )
    def test_rejects_bad_arguments(self, nx, cfl, T):
        with pytest.raises(ValueError):
            build_grid(nx, cfl, T)

    @given(
        nx=st.integers(3, 100),
        cfl=st.floats(0.005, 1.0),
        T=st.floats(0.5, 5.0),
    )
    def test_invariants(self, nx, cfl, T):
        g = build_grid(nx, cfl, T)
        assert g.dx * g.nx == pytest.approx(1.0, abs=1e-15)
        assert 0.0 < g.cfl <= 1.0
        # an integer number of steps spans T exactly
        assert g.n_steps_per_pass * g.dt == pytest.approx(T, rel=1e-15)


class TestNorms:
    def test_l2_zero_and_constant(self):
        g = build_grid(20, 0.5, 1.0)
        assert l2_norm(np.zeros(21), g) == 0.0
        assert l2_norm(np.ones(21), g) == pytest.approx(1.0, abs=1e-15)

    def test_l2_sine(self):
        # trapezoid over the full period is exact here
        g = build_grid(20, 0.5, 1.0)
        f = np.sin(np.pi * g.nodes)
        assert l2_norm(f, g) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)

    def test_h1_constant_and_linear(self):
        g = build_grid(20, 0.5, 1.0)
        assert h1_seminorm(np.full(21, 3.7), g) == pytest.approx(0.0, abs=1e-14)
        assert h1_seminorm(g.nodes.copy(), g) == pytest.approx(1.0, abs=1e-14)

    def test_h1_sine(self):
        g = build_grid(20, 0.5, 1.0)
        f = np.sin(np.pi * g.nodes)
        assert h1_seminorm(f, g) == pytest.approx(np.pi / np.sqrt(2.0), rel=1e-2)

    def test_length_mismatch(self):
        g = build_grid(20, 0.5, 1.0)
        with pytest.raises(ValueError):
            l2_norm(np.zeros(20), g)
        with pytest.raises(ValueError):
            h1_seminorm(np.zeros(22), g)

    def test_stack_of_fields(self):
        # a stack gives each row's value, bit for bit the value of that field alone
        g = build_grid(20, 0.5, 1.0)
        f = np.random.default_rng(3).standard_normal((7, 21)) * 10.0 ** np.arange(-3, 4)[:, None]
        for norm in (l2_norm, h1_seminorm):
            assert isinstance(norm(f[0], g), float)
            assert norm(f, g).tolist() == [norm(row, g) for row in f]
            with pytest.raises(ValueError):
                norm(np.zeros((2, 2, 21)), g)
            with pytest.raises(ValueError):
                norm(np.zeros((2, 20)), g)

    # entries of 0 or at least 1e-100 in size: every weighted square of such a
    # field and of its scalings by 2^k, |k| <= 20, stays normal (a difference of
    # two entries is 0 or at least 2^-53 times the smaller, so its square too)
    _normal_entries = st.one_of(st.just(0.0), st.floats(1e-100, 5), st.floats(-5, -1e-100))

    @given(k=st.integers(-20, 20), data=st.lists(_normal_entries, min_size=21, max_size=21))
    def test_homogeneity_exact_for_power_of_two(self, k, data):
        g = build_grid(20, 0.5, 1.0)
        f = np.array(data)
        c = 2.0**k
        assert l2_norm(c * f, g) == abs(c) * l2_norm(f, g)
        assert h1_seminorm(c * f, g) == abs(c) * h1_seminorm(f, g)

    def test_homogeneity_not_exact_near_underflow(self):
        # the limit of the claim above: here the scaled field's weighted
        # square dx/2 (c f)^2 is subnormal, where scaling by 2^k rounds
        g = build_grid(20, 0.5, 1.0)
        f = np.zeros(21)
        f[-1] = 1.3066088723634516e-149
        c = 2.0**-15
        assert l2_norm(c * f, g) == 6.304718090290435e-155
        assert c * l2_norm(f, g) == 6.304718090290436e-155

    def test_second_order_convergence(self):
        # e^x has unequal boundary slopes, so the trapezoid error is genuinely O(dx^2)
        exact = np.sqrt((np.e**2 - 1.0) / 2.0)
        errs_l2, errs_h1 = [], []
        for nx in (20, 40):
            g = build_grid(nx, 0.5, 1.0)
            f = np.exp(g.nodes)
            errs_l2.append(abs(l2_norm(f, g) - exact))
            errs_h1.append(abs(h1_seminorm(f, g) - exact))
        assert 3.0 <= errs_l2[0] / errs_l2[1] <= 5.0
        assert 3.0 <= errs_h1[0] / errs_h1[1] <= 5.0


class TestSourceProfiles:
    def test_poly_paper(self):
        g = build_grid(20, 0.5, 1.0)
        q = eval_source_profile(SourceSpec("poly_paper"), g)
        assert q[10] == pytest.approx(0.25, abs=1e-15)
        assert q[0] == 0.0 and q[-1] == 0.0

    def test_sine_mode(self):
        g = build_grid(20, 0.5, 1.0)
        q = eval_source_profile(SourceSpec("sine_k", k=1), g)
        assert q[10] == pytest.approx(1.0, abs=1e-15)

    def test_explicit_coefficients(self):
        g = build_grid(20, 0.5, 1.0)
        q = eval_source_profile(SourceSpec("modes", coeffs=(0.0, 1.0)), g)
        assert q[10] == pytest.approx(0.0, abs=1e-12)  # sin(2*pi*x) vanishes at 1/2
        assert q[5] == pytest.approx(1.0, abs=1e-12)  # and peaks at 1/4

    def test_unknown_profile(self):
        g = build_grid(20, 0.5, 1.0)
        with pytest.raises(ValueError):
            eval_source_profile(SourceSpec("bump"), g)


class TestConfigTypes:
    def test_gains_must_be_positive(self):
        with pytest.raises(ValueError):
            Gains(0.0, 0.5)
        with pytest.raises(ValueError):
            Gains(1.0, -1.0)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(iterations=0)
        with pytest.raises(ValueError):
            ScenarioConfig(noise=-0.1)
        with pytest.raises(ValueError):
            ScenarioConfig(omega=float("inf"))
        # grid, gains and source are checked on construction too
        for bad in ({"nx": 2}, {"cfl": 1.5}, {"T": 0.0}, {"gamma1": 0.0}, {"source": SourceSpec("x")}):
            with pytest.raises(ValueError):
                ScenarioConfig(**bad)

    @pytest.mark.parametrize("omega", [np.pi, -np.pi, 3.0 * np.pi, 7.0 * np.pi + 5e-9])
    def test_resonant_omega_rejected(self, omega):
        with pytest.raises(ResonanceError):
            ScenarioConfig(omega=omega)

    @pytest.mark.parametrize("omega", [0.0, 2.0, np.pi + 1e-7, 0.5 * np.pi])
    def test_non_resonant_omega_accepted(self, omega):
        assert ScenarioConfig(omega=omega).omega == omega

    def test_oracle_shares_the_check(self):
        import oracle

        check_resonance(np.pi, n_modes=0)  # no modes, nothing to hit
        with pytest.raises(ResonanceError):
            oracle.forced_modal_solution(np.zeros(3), 3.0 * np.pi, 1.0)
        oracle.forced_modal_solution(np.zeros(2), 3.0 * np.pi, 1.0)  # mode 3 not in the series
