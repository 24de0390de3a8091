import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bfwave import diagnostics, leapfrog
from bfwave.diagnostics import (
    energy_identity_check,
    energy_identity_residual,
    equivalence_report,
    lyapunov_decrease_check,
    run_level_checks,
    run_verify_battery,
    second_energy_boundedness,
)
from bfwave.forward import simulate_forward
from bfwave.grid import Gains, ScenarioConfig, build_grid
from bfwave.observer import (
    OscillatorState,
    hidden_regularity_ratio,
    lyapunov_value,
    run_back_and_forth,
    simulate_cascade,
)


@pytest.fixture(scope="module")
def grid():
    return build_grid(20, 0.5, 1.0)


class TestLyapunovValue:
    def test_zero_error(self, grid):
        v = lyapunov_value(
            np.zeros(21), np.zeros(21), OscillatorState(0, 0), Gains(1, 0.5), 1.0, grid
        )
        assert v == 0.0

    def test_direct_substitution(self, grid):
        # w1 = 0, w2 = 1, z = (1, 1): V = (0 + 1 + 1 + 1)/2
        v = lyapunov_value(
            np.zeros(21), np.ones(21), OscillatorState(1.0, 1.0), Gains(1.0, 0.5), 1.0, grid
        )
        assert v == pytest.approx(1.5, abs=1e-14)

    @given(
        a=st.floats(-3, 3),
        z1=st.floats(-3, 3),
        z2=st.floats(-3, 3),
    )
    @settings(max_examples=30)
    def test_positive_definite(self, a, z1, z2, grid):
        w1 = a * np.sin(np.pi * grid.nodes)
        v = lyapunov_value(w1, np.zeros(21), OscillatorState(z1, z2), Gains(2.0, 0.5), 1.3, grid)
        assert v >= 0.0
        if abs(a) > 1e-12 or abs(z1) > 1e-12 or abs(z2) > 1e-12:
            assert v > 0.0


class TestLyapunovDecrease:
    def test_constant_series_passes(self):
        assert lyapunov_decrease_check(np.ones(5), 1e-6).passed

    def test_decreasing_series_passes(self):
        assert lyapunov_decrease_check(np.array([3.0, 2.0, 1.5, 1.49]), 0.0).passed

    def test_increasing_series_fails(self):
        assert not lyapunov_decrease_check(np.array([1.0, 1.1, 1.0]), 1e-3).passed

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            lyapunov_decrease_check(np.array([1.0]), 0.0)


class TestRunLevelChecks:
    def test_monitored_run_passes(self, reduced_run):
        h = reduced_run["result"].history
        assert lyapunov_decrease_check(h.lyapunov, 1e-3 * h.lyapunov[0]).passed
        assert energy_identity_check(h).passed
        assert second_energy_boundedness(h).passed
        assert np.max(h.hidden_ratios) <= 1.0

    def test_zero_truth_zero_measurement(self, grid):
        from bfwave.forward import MeasurementRecord

        g = build_grid(20, 0.05, 3.0)
        m = MeasurementRecord(y=np.zeros(g.n_steps_per_pass + 1), dt=g.dt, T=g.T)
        res = run_back_and_forth(m, Gains(1, 0.5), 2.0, g, 1, q_true=np.zeros(21))
        h = res.history
        assert energy_identity_residual(h) == 0.0
        assert second_energy_boundedness(h).value == 0.0

    def test_zero_truth_nonzero_measurement(self):
        # a zero truth has no t=0 energy, so the defect is absolute; the reports
        # sample the same series the check takes the max of (a floored
        # denominator once read them as 1e299)
        cfg = ScenarioConfig(cfl=0.02, iterations=3)
        g = cfg.grid()
        m = simulate_forward(cfg.q_true(g), cfg.omega, g)
        res = run_back_and_forth(m, cfg.gains(), cfg.omega, g, 3, q_true=np.zeros(g.nx + 1))
        h = res.history
        assert h.energy_lhs[0] == 0.0
        assert np.array_equal(h.energy_residuals, np.abs(h.energy_lhs))
        reported = res.per_cycle["energy_residual"]
        assert reported.tobytes() == h.energy_residuals[::2].tobytes()
        assert energy_identity_residual(h) == np.max(h.energy_residuals)
        assert 0.0 < np.max(reported) <= energy_identity_residual(h) < 10.0

    def test_one_list_in_fixed_order(self, reduced_run):
        rows = run_level_checks(reduced_run["result"].history)
        assert [r.name for r in rows] == [
            "lyapunov_decrease",
            "energy_identity",
            "second_energy_bound",
            "hidden_regularity_run",
        ]
        assert all(r.passed for r in rows)

    def test_second_energy_zero_cap_fails(self, reduced_run, monkeypatch):
        monkeypatch.setattr(diagnostics, "SECOND_ENERGY_CAP", 0.0)
        h = reduced_run["result"].history
        assert not second_energy_boundedness(h).passed

    def test_sign_fault_breaks_lyapunov_decrease(self, sign_fault):
        # a flipped injection must be caught by the decrease check
        cfg = ScenarioConfig(cfl=0.02, iterations=4)
        g = cfg.grid()
        q = cfg.q_true(g)
        m = simulate_forward(q, cfg.omega, g)
        res = run_back_and_forth(m, cfg.gains(), cfg.omega, g, cfg.iterations, q_true=q)
        h = res.history
        assert not lyapunov_decrease_check(h.lyapunov, 1e-3 * h.lyapunov[0]).passed


class TestHiddenRegularity:
    def test_analytic_series(self):
        # f = 0, q0 = sin(pi x), T = 2: trace pi cos(pi t), exact ratio 1/4
        g = build_grid(20, 0.5, 2.0)
        q0 = np.sin(np.pi * g.nodes)
        q0[0] = q0[-1] = 0.0
        t = np.linspace(0.0, 2.0, 4001)
        trace = np.pi * np.cos(np.pi * t)
        r = hidden_regularity_ratio(np.zeros_like(t), q0, np.zeros(21), trace, 2.0, g)
        assert r == pytest.approx(0.25, abs=2e-3)

    def test_vacuous_case(self, grid):
        t = np.zeros(11)
        r = hidden_regularity_ratio(t, np.zeros(21), np.zeros(21), t, 1.0, grid)
        assert r == 0.0

    def test_zero_bound_nonzero_trace_rejected(self, grid):
        f = np.zeros(11)
        trace = np.ones(11)
        with pytest.raises(ValueError):
            hidden_regularity_ratio(f, np.zeros(21), np.zeros(21), trace, 1.0, grid)

    def test_shape_mismatch(self, grid):
        with pytest.raises(ValueError):
            hidden_regularity_ratio(np.zeros(5), np.zeros(21), np.zeros(21), np.zeros(6), 1.0, grid)


class TestEquivalenceBattery:
    def test_one_cascade_wave_per_grid(self, monkeypatch):
        # the rows equal, bit for bit, those of one forward run and one
        # cascade per (nx, omega) pair
        want = []
        for nx, omega in ((20, 0.0), (20, 1.0), (40, 1.0)):
            g = build_grid(nx, 0.005, 3.0)
            q = np.sin(np.pi * g.nodes)
            q[0] = q[-1] = 0.0
            y = simulate_forward(q, omega, g).y
            want.append(equivalence_report(y, simulate_cascade(q, omega, g).Y).value)
        grids = []
        cascade = diagnostics.simulate_cascade
        monkeypatch.setattr(
            diagnostics, "simulate_cascade", lambda q, w, g: grids.append(g.nx) or cascade(q, w, g)
        )
        rows = diagnostics._battery_equivalence()
        assert grids == [20, 40]
        assert [r.name for r in rows] == [
            "output_equivalence_w0",
            "output_equivalence_w1",
            "output_equivalence_refinement",
        ]
        assert [r.value for r in rows] == [want[0], want[1], want[1] / want[2]]


class TestEquivalenceReport:
    def test_identical_series(self):
        e = equivalence_report(np.ones(10), np.ones(10))
        assert e.passed and e.value == 0.0

    def test_relative_gap(self):
        y = np.full(10, 2.0)
        Y = y.copy()
        Y[3] = 2.1
        e = equivalence_report(y, Y)
        assert e.value == pytest.approx(0.05)
        assert not e.passed

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            equivalence_report(np.ones(5), np.ones(6))


class TestKernelCheck:
    def test_chunked_drift_is_the_whole_run_drift(self, monkeypatch):
        # n = 1e4 is no multiple of the chunk, so the last chunk is partial
        g = build_grid(20, 0.005, 2.5)
        n = g.n_steps_per_pass
        assert n % diagnostics._ENERGY_CHUNK != 0
        state = leapfrog.init_leapfrog(np.sin(np.pi * g.nodes), None, g)
        e0 = leapfrog.discrete_energy(state, g)
        S, _ = leapfrog._wave_parts(g)
        nx1 = g.nx + 1
        levels = np.empty((nx1, n + 1))
        x0 = leapfrog._to_velocity_basis(state, g)
        leapfrog._run_recurrence(
            S, np.zeros((2 * nx1, 0)), np.eye(nx1, 2 * nx1), x0, np.zeros(n + 1), levels
        )
        e = leapfrog.discrete_energy(leapfrog.LeapfrogState(levels[:, :-1], levels[:, 1:]), g)
        whole = float(np.max(np.abs(e - e0))) / e0
        taken = []

        def counted(*args):
            out = leapfrog.discrete_energy(*args)
            taken.append(np.size(out) if np.ndim(out) else 0)
            return out

        monkeypatch.setattr(diagnostics, "discrete_energy", counted)
        rows = {r.name: r for r in diagnostics._battery_kernel()}
        assert sum(taken) == n
        drift = rows["kernel_energy_conservation"].value
        assert abs(drift - whole) <= 1e-15 * whole

    def test_no_per_step_loop(self, monkeypatch):
        calls = []
        leap = leapfrog._leap

        def counted(*args):
            calls.append(1)
            return leap(*args)

        monkeypatch.setattr(leapfrog, "_leap", counted)
        rows = diagnostics._battery_kernel()
        assert len(calls) <= 8
        assert all(r.passed for r in rows)


def test_battery_groups_run_in_given_order():
    report = run_verify_battery(groups=["hidden", "grid"])
    assert [e.name for e in report.entries] == [
        "hidden_regularity_analytic",
        "grid_l2_convergence",
        "grid_h1_convergence",
    ]


@pytest.mark.slow
class TestBattery:
    def test_battery_all_green(self):
        report = run_verify_battery()
        assert report.all_passed, report.summary()

    def test_battery_keeps_everything_under_the_bound(self, monkeypatch):
        # a whole battery's set-up fits the kept store: no item leaves during it
        class Recording(dict):
            evicted = []

            def __delitem__(self, key):
                self.evicted.append(key)
                super().__delitem__(key)

        store = Recording()
        monkeypatch.setattr(leapfrog, "_store", store)
        run_verify_battery()
        assert store and not store.evicted
        assert leapfrog._held_bytes() <= leapfrog._KEPT_BYTES

    def test_battery_catches_sign_fault(self, sign_fault):
        report = run_verify_battery()
        names = {e.name: e for e in report.entries}
        assert not names["lyapunov_decrease"].passed
        assert not report.all_passed
