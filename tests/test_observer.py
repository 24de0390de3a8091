import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bfwave.forward import MeasurementRecord, simulate_forward
from bfwave.grid import Gains, ScenarioConfig, build_grid, h1_seminorm, l2_norm
from bfwave import leapfrog, observer
from bfwave.leapfrog import (
    _RUN_BLOCK,
    _continuation_level,
    _from_velocity_basis,
    _run_recurrence,
    init_leapfrog,
    neumann_trace,
)
from bfwave.observer import (
    CYCLE_COLUMNS,
    _linear_parts,
    _readout_rows,
    _second_x_derivative,
    _start_integrals,
    _state_parts,
    _sweep_integrals,
    _trace_bound_ratio,
    _truth_history,
    hidden_regularity_ratio,
    lyapunov_value,
    oscillator_propagator,
    run_back_and_forth,
    simulate_cascade,
)
from half_pass import (
    ObserverState,
    extract_estimate,
    initial_observer_state,
    observer_half_pass,
    sweep,
)
from oracle import oscillator_closed_form
from two_stage import oscillator_drive


@pytest.fixture(scope="module")
def grid():
    return build_grid(20, 0.05, 3.0)


def poly_source(g):
    x = g.nodes
    q = x - x * x
    q[0] = q[-1] = 0.0
    return q


def zero_measurement(g):
    return MeasurementRecord(y=np.zeros(g.n_steps_per_pass + 1), dt=g.dt, T=g.T)


def rel_gap(a, b):
    """Largest gap of b from a, over a's max |value|."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.max(np.abs(a - b)) / np.max(np.abs(a))


def stepped_monitored_run(m, gains, omega, g, n_iterations, q, hidden=None):
    """A monitored run with every half-pass on half_pass.sweep, fed to the same monitor.

    The monitor takes the integrals of the sweeps' records. Returns (estimates, per_cycle, history) as run_back_and_forth would. A
    list hidden receives every sweep's hidden_regularity_ratio of its record,
    the boundary data q0, q1 the monitor's: the start's displacement and
    the velocity at the boundary.
    """
    plant = simulate_cascade(q, omega, g)
    state = initial_observer_state(g)
    estimates = [extract_estimate(state, g)]
    starts, ends, integrals = [], [], []
    rec = np.empty((4, g.n_steps_per_pass + 1))
    for half in range(2 * n_iterations):
        starts.append(state.x)
        state, ended = sweep(state, m.y, gains, omega, g, rec)
        if hidden is not None:
            vel = boundary_velocity(starts, ends, g)
            q0 = _state_parts(starts[-1], g)[1]
            hidden.append(hidden_regularity_ratio(rec[2], q0, vel, rec[3], g.T, g))
        ends.append(ended)
        rec[:2] -= plant.sweep_z[half % 2]
        integrals.append(_sweep_integrals(rec, g.dt))
        if half % 2 == 1:
            estimates.append(extract_estimate(state, g))
    starts.append(state.x)
    runs = (np.array(a) for a in (starts, ends, integrals))
    history = _truth_history(q, plant, *runs, gains, omega, g)
    err = np.array(estimates) - q
    cycle = (l2_norm(err, g), h1_seminorm(err, g))
    cycle += (history.lyapunov[::2], history.energy_residuals[::2])
    return estimates, dict(zip(CYCLE_COLUMNS, cycle)), history


def boundary_velocity(starts, ends, g):
    """The velocity at the boundary before half-pass len(ends), as the monitor reads it.

    Zero at the start; else from the level before the boundary on both
    sides of the turn.
    """
    if len(ends) == 0:
        return np.zeros(g.nx + 1)
    before = [_state_parts(x, g)[0] for x in (starts[len(ends)], ends[-1])]
    return (before[0] - before[1]) / (2.0 * g.dt)


HISTORY_SERIES = ("lyapunov", "energy_lhs", "second_energy_lhs", "hidden_ratios")


def series_gaps(a_history, a_cycle, b_history, b_cycle):
    """Largest gap of each history and per-cycle series, over that series' max |value|."""
    pairs = {k: (getattr(a_history, k), getattr(b_history, k)) for k in HISTORY_SERIES}
    for k in CYCLE_COLUMNS:
        pairs["cycle." + k] = (a_cycle[k], b_cycle[k])
    return {k: np.max(np.abs(a - b)) / np.max(np.abs(a)) for k, (a, b) in pairs.items()}


class TestOscillatorStep:
    """One step of the uncoupled oscillator: oscillator_drive over two-sample series."""

    def test_exact_rotation_quarter_turn(self):
        # homogeneous plant dynamics are propagated exactly
        z1, z2 = oscillator_drive((1.0, 0.0), [0.0, 0.0], 1.0, np.pi / 2.0)[-1]
        assert z1 == pytest.approx(0.0, abs=1e-15)
        assert z2 == pytest.approx(-1.0, rel=1e-14)

    def test_zero_stays_zero(self):
        zs = oscillator_drive((0, 0), [0.0, 0.0], 1.7, 0.01)
        assert tuple(zs[-1]) == (0.0, 0.0)

    def test_constant_trace_closed_form(self):
        # z1(t) = 1 - cos t for plant, omega = 1, unit trace forcing
        dt = 5e-4
        z = (0.0, 0.0)
        for _ in range(2000):
            z = oscillator_drive(z, [1.0, 1.0], 1.0, dt)[-1]
        assert z[0] == pytest.approx(1.0 - np.cos(1.0), abs=1e-6)

    def test_matches_quadrature_oracle(self):
        # independent cross-check on a slowly varying forcing
        dt = 1e-3
        n = 1500
        s = np.arange(n + 1) * dt
        g = np.sin(1.3 * s)
        z = (0.2, -0.1)
        zs = z
        for k in range(n):
            zs = oscillator_drive(zs, g[k : k + 2], 2.0, dt)[-1]
        zo = oscillator_closed_form(2.0, g, dt, z, n * dt)
        assert zs[0] == pytest.approx(zo[0], abs=1e-6)
        assert zs[1] == pytest.approx(zo[1], abs=1e-6)

    @given(
        z1=st.floats(-2, 2),
        z2=st.floats(-2, 2),
        omega=st.floats(0.3, 3.0),
    )
    @settings(max_examples=30)
    def test_backward_inverts_forward(self, z1, z2, omega):
        # the time-reversed oscillator is the forward one with z2 negated at the
        # turn: the (z1, z2) rotation inverts
        f1, f2 = oscillator_drive((z1, z2), [0.0, 0.0], omega, 0.05)[-1]
        b1, b2 = oscillator_drive((f1, -f2), [0.0, 0.0], omega, 0.05)[-1]
        assert b1 == pytest.approx(z1, abs=1e-12)
        assert -b2 == pytest.approx(z2, abs=1e-12)


class TestOscillatorDrive:
    def test_long_trace_matches_recurrence(self):
        # a 1,000-node drive against the per-node recurrence written out:
        # z_k+1 = E z_k + (dt/2) (E e2 g_k + e2 g_k+1), E = exp(dt A)
        from scipy.linalg import expm

        omega, dt, n = 2.0, 2e-3, 999
        g = np.sin(3.1 * np.arange(n + 1) * dt) + 0.3 * np.cos(17.0 * np.arange(n + 1) * dt)
        E = expm(dt * np.array([[0.0, 1.0], [-omega * omega, 0.0]]))
        e2 = np.array([0.0, 1.0])
        ref = np.empty((n + 1, 2))
        ref[0] = (0.2, -0.1)
        for k in range(n):
            ref[k + 1] = E @ ref[k] + 0.5 * dt * (E @ e2 * g[k] + e2 * g[k + 1])
        z = oscillator_drive((0.2, -0.1), g, omega, dt)
        assert z.shape == ref.shape
        assert np.max(np.abs(z - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestOscillatorPropagator:
    # omega 0 is the free particle, gamma2 5 is overdamped at omega 2, and dt 0.5
    # at omega 20 puts the 1-norm far above 1/2, so the series is squared back
    @pytest.mark.parametrize("omega", [0.0, 2.0, 20.0])
    @pytest.mark.parametrize("gamma2", [0.0, 0.5, 5.0])
    @pytest.mark.parametrize("dt", [2.5e-4, 0.045, 0.5])
    def test_matches_scipy_expm(self, omega, gamma2, dt):
        from scipy.linalg import expm

        A = np.array([[-gamma2, 1.0, 0.0], [-omega * omega, 0.0, 0.0], [1.0, 0.0, 0.0]])
        E, ref = oscillator_propagator(omega, gamma2, dt), expm(dt * A)
        assert E.dtype == np.float64
        assert np.max(np.abs(E - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("omega", [0.0, 2.0, 20.0])
    @pytest.mark.parametrize("dt", [2.5e-4, 0.045, 0.5])
    def test_undamped_block_is_rotation(self, omega, dt):
        # gamma2 = 0: the (z1, z2) block is the harmonic rotation, [[1, dt], [0, 1]] at omega 0
        if omega == 0.0:
            rot = np.array([[1.0, dt], [0.0, 1.0]])
        else:
            c, s = np.cos(omega * dt), np.sin(omega * dt)
            rot = np.array([[c, s / omega], [-omega * s, c]])
        E = oscillator_propagator(omega, 0.0, dt)[:2, :2]
        assert np.max(np.abs(E - rot)) <= 4 * np.spacing(np.max(np.abs(rot)))

    def test_non_finite_matrix_refused(self):
        # omega^2 overflows to inf, which no halving brings under 1/2
        with pytest.raises(ValueError, match="non-finite"):
            oscillator_propagator(1.7e308, 0.5, 2.5e-4)

    def test_overflowing_exponential_refused(self):
        # omega^2 is finite, but squaring the series back overflows: refused
        # with no warning, not returned as a matrix of NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                oscillator_propagator(1e20, 0.5, 2.5e-3)


def _random_system(seed: int, dim: int = 9, rows: int = 3):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim))
    S = A / np.max(np.abs(np.linalg.eigvals(A)))  # spectral radius 1
    return S, rng.standard_normal((dim, 2)), rng.standard_normal((rows, dim)), rng.standard_normal(dim)


def _run(S, B, D, x0, s):
    out = np.full((len(D), len(s)), np.nan)
    return out, _run_recurrence(S, B, D, x0, s, out)


def _forget_set_up():
    leapfrog._store.clear()
    leapfrog._held = 0


def _walked_bytes():
    """The store's bytes counted afresh: every key and item walked."""
    nbytes = leapfrog._nbytes
    return sum(nbytes(key) + nbytes(item) for key, item in leapfrog._store.items())


class TestRunRecurrence:
    """The block evaluator against the recurrence x <- S x + B (s_k, s_k+1), one step at a time."""

    @pytest.mark.parametrize(
        "n",
        [
            pytest.param(_RUN_BLOCK // 2, id="n<b"),
            pytest.param(_RUN_BLOCK - 1, id="one-block"),
            pytest.param(_RUN_BLOCK, id="n=b"),
            pytest.param(3 * _RUN_BLOCK, id="n=kb"),
            pytest.param(3 * _RUN_BLOCK + 7, id="n=kb+tail"),
        ],
    )
    def test_matches_stepped_loop(self, n):
        rng = np.random.default_rng(5)
        dim, rows = 9, 3
        A = rng.standard_normal((dim, dim))
        S = A / np.max(np.abs(np.linalg.eigvals(A)))  # spectral radius 1
        forced = rng.standard_normal((dim, 2))
        D = rng.standard_normal((rows, dim))
        x0 = rng.standard_normal(dim)
        s = rng.standard_normal(n + 1)
        for B in (forced, np.zeros((dim, 0))):  # a B of no columns: the free run x <- S x
            x = x0.copy()
            ref = [D @ x]
            for k in range(n):
                x = S @ x + B @ s[k : k + B.shape[1]]
                ref.append(D @ x)
            ref = np.array(ref).T
            out = np.full((rows, n + 1), np.nan)
            x_n = _run_recurrence(S, B, D, x0, s, out)
            assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert np.max(np.abs(x_n - x)) <= 1e-12 * np.max(np.abs(x))

    @pytest.mark.parametrize(
        "n",
        [
            pytest.param(_RUN_BLOCK // 2, id="n<b"),
            pytest.param(3 * _RUN_BLOCK, id="n=kb"),
            pytest.param(3 * _RUN_BLOCK + 7, id="n=kb+tail"),
        ],
    )
    def test_cold_and_warm_calls_agree_bitwise(self, n):
        S, forced, D, x0 = _random_system(11)
        s = np.random.default_rng(12).standard_normal(n + 1)
        for B in (forced, forced[:, :0]):  # forced, and free
            _forget_set_up()
            cold_out, cold_x = _run(S, B, D, x0, s)
            _forget_set_up()
            _run(S, B, D, x0, s[: n - 4])  # S kept, with powers of another t
            reversed_view = s[::-1].copy()[::-1]  # the samples as a backward sweep passes them
            for samples in (s, s, reversed_view):
                out, x = _run(S, B, D, x0, samples)
                assert np.array_equal(out, cold_out)
                assert np.array_equal(x, cold_x)

    def test_same_shape_other_content_shares_nothing(self):
        S, B, D, x0 = _random_system(13)
        S2 = S.copy()
        S2[4, 2] = np.nextafter(S2[4, 2], np.inf)
        s = np.random.default_rng(14).standard_normal(3 * _RUN_BLOCK + 7)
        _forget_set_up()
        cold_out, cold_x = _run(S2, B, D, x0, s)
        _forget_set_up()
        first_out, first_x = _run(S, B, D, x0, s)
        out, x = _run(S2, B, D, x0, s)
        assert np.array_equal(out, cold_out) and np.array_equal(x, cold_x)
        assert not np.array_equal(x, first_x)
        assert not np.array_equal(out, first_out)

    @pytest.mark.parametrize("n", [_RUN_BLOCK // 2, 3 * _RUN_BLOCK, 3 * _RUN_BLOCK + 7])
    def test_free_run_is_the_run_with_zero_input(self, n):
        # packing no inputs changes no bits against inputs that are all zero
        S, B, D, x0 = _random_system(17)
        s = np.random.default_rng(18).standard_normal(n + 1)
        zero_out, zero_x = _run(S, np.zeros_like(B), D, x0, s)
        free_out, free_x = _run(S, B[:, :0], D, x0, s)
        assert np.array_equal(free_out, zero_out)
        assert np.array_equal(free_x, zero_x)

    def test_free_and_forced_plans_are_kept_apart(self):
        # the same S and D with a B of no columns, a zero B of two and a B of
        # two: each keys its own kept plan, and each call has the bits of a cold call
        S, B, D, x0 = _random_system(19)
        s = np.random.default_rng(20).standard_normal(3 * _RUN_BLOCK + 7)
        systems = {"free": B[:, :0], "zero": np.zeros_like(B), "forced": B}
        cold = {}
        for name, inputs in systems.items():
            _forget_set_up()
            cold[name] = _run(S, inputs, D, x0, s)
        _forget_set_up()
        for name in ("free", "zero", "free", "forced", "free"):
            out, x = _run(S, systems[name], D, x0, s)
            assert np.array_equal(out, cold[name][0]) and np.array_equal(x, cold[name][1])
        # plan keys: (_block_plan, S, B, D, b), each array as its shape and bytes
        plan = leapfrog._block_plan
        plans = {key[2]: item for key, item in leapfrog._store.items() if key[0] is plan}
        assert len(plans) == 3
        for name, inputs in systems.items():
            F, W, Sb = plans[inputs.shape, inputs.tobytes()]
            # a free plan has no input rows
            assert len(F) == (0 if name == "free" else 2 * _RUN_BLOCK)
            assert len(W) == len(S) + len(F)

    def test_system_seen_before_builds_nothing(self):
        # A, then B and C, then A again: the second A call finds its plan and
        # powers kept, builds nothing, and has the bits of a cold call
        s = np.random.default_rng(21).standard_normal(3 * _RUN_BLOCK + 7)
        a, *others = (_random_system(seed) for seed in (22, 23, 24))
        _forget_set_up()
        cold_out, cold_x = _run(*a, s)
        for system in others:
            _run(*system, s)
        kept = dict(leapfrog._store)
        out, x = _run(*a, s)
        assert list(leapfrog._store) == list(kept)
        assert all(leapfrog._store[key] is item for key, item in kept.items())
        assert np.array_equal(out, cold_out) and np.array_equal(x, cold_x)

    def test_no_read_out_rows(self, grid):
        # the observer's system read out by its four rows and by none: x_n has
        # the same bits, and the (0, n+1) out is never written
        S, B = _linear_parts(Gains(1.0, 0.5), 2.0, grid)[1:]
        D = _readout_rows(grid)
        rng = np.random.default_rng(16)
        s, x0 = rng.standard_normal(grid.n_steps_per_pass + 1), rng.standard_normal(len(S))
        _, x_read = _run(S, B, D, x0, s)
        none = np.empty((0, len(s)))
        none.flags.writeable = False
        assert _run_recurrence(S, B, D[:0], x0, s, none).tobytes() == x_read.tobytes()

    def test_kept_set_up_is_bounded(self):
        # a stream of new systems fills the store up to its byte bound and no
        # further, the oldest going first; each S keeps its plan, which holds S^b, and S^t
        _forget_set_up()
        s = np.ones(_RUN_BLOCK + 5)
        contents = []
        for seed in range(24):
            S, B, D, x0 = _random_system(seed, dim=40)
            _run(S, B, D, x0, s)
            contents.append((S.shape, S.tobytes()))
            assert leapfrog._held <= leapfrog._KEPT_BYTES
        assert leapfrog._held > leapfrog._KEPT_BYTES // 2
        kept = [key[1] for key in leapfrog._store]
        assert contents[-1] in kept and contents[0] not in kept
        assert all(kept.count(c) <= 2 for c in contents)  # one plan, holding S^b, and S^t

    def test_kept_items_are_read_only(self, grid):
        # an item the store hands out is shared by every later call on the same
        # arguments, through _kept or a builder that _keeps wraps: no array of
        # it can be written, views included
        items = [
            leapfrog._kept(observer._oscillator_forcing, 2.0, grid.dt),
            leapfrog._wave_parts(grid),
            _linear_parts(Gains(1.0, 0.5), 2.0, grid),
            leapfrog._kept(leapfrog._block_plan, *_random_system(27)[:3], _RUN_BLOCK),
        ]
        for item in items:
            for a in item:
                with pytest.raises(ValueError, match="read-only"):
                    a.flat[0] = 5.0
        assert leapfrog._wave_parts(grid) is items[1]

    def test_a_key_names_its_build(self):
        # the same S and argument under two builds: two items, each with its
        # own builder's bits (repeated squaring and the left chain differ)
        S = _random_system(25)[0]
        _forget_set_up()
        squared = leapfrog._kept(np.linalg.matrix_power, S, 32)
        chained = leapfrog._kept(leapfrog._left_power, S, 32)
        assert len(leapfrog._store) == 2
        assert squared.tobytes() == np.linalg.matrix_power(S, 32).tobytes()
        assert chained.tobytes() == leapfrog._left_power(S, 32).tobytes()
        assert not np.array_equal(squared, chained)

    def test_plan_holds_the_left_chain_power(self):
        # a plan's S^b is S (S (... S I)), byte for byte
        S, B, D, x0 = _random_system(26)
        _forget_set_up()
        _run(S, B, D, x0, np.ones(3 * _RUN_BLOCK + 7))
        (Sb,) = [item[2] for key, item in leapfrog._store.items() if key[0] is leapfrog._block_plan]
        chain = np.eye(len(S))
        for _ in range(_RUN_BLOCK):
            chain = S @ chain
        assert Sb.tobytes() == chain.tobytes()

    def test_held_count_is_a_full_walk_after_evictions(self, monkeypatch):
        # a bound of a few systems' set-up forces evictions on a stream of new
        # ones; the running count stays the bytes of what the store holds
        monkeypatch.setattr(leapfrog, "_store", {})
        monkeypatch.setattr(leapfrog, "_held", 0)
        monkeypatch.setattr(leapfrog, "_KEPT_BYTES", 100_000)
        s = np.ones(_RUN_BLOCK + 5)
        first = None
        for seed in range(8):
            _run(*_random_system(seed, dim=20), s)
            first = first or next(iter(leapfrog._store))
            assert leapfrog._held == _walked_bytes() <= leapfrog._KEPT_BYTES
        assert first not in leapfrog._store


class TestSimulateCascade:
    def test_zero_source(self, grid):
        out = simulate_cascade(np.zeros(21), 1.0, grid)
        assert not out.Y.any()

    def test_static_mode_output(self, grid):
        q = np.sin(np.pi * grid.nodes)
        q[0] = q[-1] = 0.0
        out = simulate_cascade(q, 0.0, grid)
        t = np.arange(grid.n_steps_per_pass + 1) * grid.dt
        exact = (1.0 - np.cos(np.pi * t)) / np.pi
        assert np.max(np.abs(out.Y - exact)) <= 1e-2

    def test_output_equivalence(self, grid):
        # the cascade output and the direct measurement agree
        q = np.sin(np.pi * grid.nodes)
        q[0] = q[-1] = 0.0
        y = simulate_forward(q, 0.0, grid).y
        out = simulate_cascade(q, 0.0, grid)
        assert np.max(np.abs(y - out.Y)) <= 1e-2 * np.max(np.abs(y))

    def test_one_free_recurrence(self, grid, monkeypatch):
        # wave and oscillator run as one system: one _run_recurrence call,
        # free (a B of no columns), reading out z1 and z2 alone
        calls = []

        def counted(S, B, D, x0, s, out):
            calls.append((B.shape[1], D.shape))
            return _run_recurrence(S, B, D, x0, s, out)

        monkeypatch.setattr(observer, "_run_recurrence", counted)
        simulate_cascade(poly_source(grid), 2.0, grid)
        assert calls == [(0, (2, 2 * (grid.nx + 1) + 2))]

    def test_two_stage_route(self, grid):
        # the free wave run then the oscillator driven over its trace: the
        # same output and turn state up to rounding
        q = poly_source(grid)
        out = simulate_cascade(q, 2.0, grid)
        x, trace = leapfrog.run_homogeneous(q, grid, grid.n_steps_per_pass)
        z = oscillator_drive((0.0, 0.0), trace, 2.0, grid.dt)
        u_prev, u = _from_velocity_basis(x, grid)
        vel = (_continuation_level(u_prev, u, grid) - u_prev) / (2.0 * grid.dt)
        assert rel_gap(z, out.z) <= 1e-13
        assert rel_gap(u, out.field_T) <= 1e-13
        # vel_T is a difference of levels over 2 dt, so its rounding is gated
        # on the levels' scale (relative to vel_T's own it reads 3.3e-13 here)
        gap = np.max(np.abs(vel - out.vel_T)) * 2.0 * grid.dt
        assert gap <= 1e-13 * np.max(np.abs(u))

    def test_result_is_the_truth_cycle(self, grid):
        # one result: the oscillator series and the wave at the turn, no trace
        out = simulate_cascade(poly_source(grid), 2.0, grid)
        assert {f.name for f in dataclasses.fields(out)} == {"z", "field_T", "vel_T"}

    def test_resonant_forcing_grows(self):
        # at omega = pi the cascade still runs; the output envelope grows
        g = build_grid(20, 0.02, 3.0)
        q = np.sin(np.pi * g.nodes)
        q[0] = q[-1] = 0.0
        out = simulate_cascade(q, np.pi, g)
        trace = leapfrog.run_homogeneous(q, g, g.n_steps_per_pass)[1]
        n = g.n_steps_per_pass
        e1 = np.max(np.abs(out.Y[: n // 3]))
        e2 = np.max(np.abs(out.Y[n // 3 : 2 * n // 3]))
        e3 = np.max(np.abs(out.Y[2 * n // 3 :]))
        assert e1 < e2 < e3
        # and it matches the quadrature oracle driven by the free wave's trace
        zo1, _ = oscillator_closed_form(np.pi, trace, g.dt, (0, 0), g.T)
        assert out.Y[-1] == pytest.approx(zo1, abs=1e-4)


class TestPlantCycle:
    def test_exact_periodicity(self, grid):
        # the cycle's backward half is its forward half mirrored (rows reversed,
        # z2 negated). Driving the oscillator over the reversed trace from the
        # turn state, z2 negated, retraces that mirror and returns z1, z2 to
        # zero at the cycle end
        q = poly_source(grid)
        plant = simulate_cascade(q, 2.0, grid)
        trace = leapfrog.run_homogeneous(q, grid, grid.n_steps_per_pass)[1]
        z1, z2 = plant.z[-1]
        back = oscillator_drive((z1, -z2), trace[::-1], 2.0, grid.dt)
        mirror = plant.z[::-1] * np.array([1.0, -1.0])
        assert np.max(np.abs(back - mirror)) <= 1e-12 * np.max(np.abs(mirror))
        assert np.max(np.abs(back[-1])) <= 1e-12

    def test_drives_no_oscillator(self, grid, recurrence_shapes):
        # the truth cycle's oscillator runs inside the cascade, not as a 2x2 drive
        plant = simulate_cascade(poly_source(grid), 2.0, grid)
        assert recurrence_shapes and (2, 2) not in recurrence_shapes
        assert plant.z.shape == (grid.n_steps_per_pass + 1, 2)

    def test_two_cycle_field_return(self, grid):
        # periodized truth returns to (q, 0) at every t = 2kT
        from stepped import reversed_state, step

        q = poly_source(grid)
        state = _from_velocity_basis(init_leapfrog(q, None, grid), grid)
        for _cycle in range(2):
            for _half in range(2):
                for _ in range(grid.n_steps_per_pass):
                    state = step(state, 0.0, grid)
                state = reversed_state(state, grid)
            assert np.max(np.abs(state[1] - q)) <= 1e-12


class TestExtendedMeasurement:
    """The periodized measurement: forward half-passes replay y, backward ones y reversed."""

    def test_indexing(self, grid):
        # each half-pass ends on the injection value of its last replayed
        # sample: y(T) after a forward pass, y(0) after a backward one
        n = grid.n_steps_per_pass
        m = MeasurementRecord(y=np.arange(n + 1, dtype=float), dt=grid.dt, T=grid.T)
        g1, g2 = 1.0, 0.5
        s = initial_observer_state(grid)
        for half, last in enumerate([n, 0, n]):
            s = observer_half_pass(s, m, Gains(g1, g2), 2.0, grid)
            assert s.half_pass == half + 1
            _, u, z1, _, w = _state_parts(s.x, grid)
            bc = g1 * (z1 - last) + g1 * g2 * w
            assert u[0] == pytest.approx(bc, abs=1e-12 * n)

    def test_reversal_is_permutation(self, grid):
        # a backward pass integrates the same samples as the forward one: with
        # negligible gains z1 stays near zero, and each pass adds -int Y to w
        n = grid.n_steps_per_pass
        m = MeasurementRecord(y=np.sin(np.arange(n + 1.0)), dt=grid.dt, T=grid.T)
        tiny = Gains(1e-12, 1e-12)
        s = observer_half_pass(initial_observer_state(grid), m, tiny, 2.0, grid)
        once = s.x[-1]  # w
        assert once == pytest.approx(-np.trapezoid(m.y, dx=grid.dt), rel=1e-12)
        s = observer_half_pass(s, m, tiny, 2.0, grid)
        assert s.x[-1] == pytest.approx(2.0 * once, rel=1e-12)

    def test_range_check(self, grid):
        # a pass replays exactly n + 1 samples; one more is refused
        m = MeasurementRecord(y=np.zeros(grid.n_steps_per_pass + 2), dt=grid.dt, T=grid.T)
        with pytest.raises(ValueError):
            observer_half_pass(initial_observer_state(grid), m, Gains(1.0, 0.5), 2.0, grid)

    def test_length_check(self, grid):
        m = MeasurementRecord(y=np.zeros(5), dt=grid.dt, T=grid.T)
        with pytest.raises(ValueError):
            observer_half_pass(initial_observer_state(grid), m, Gains(1.0, 0.5), 2.0, grid)


class TestObserverHalfPass:
    def test_zero_everything_stays_zero(self, grid):
        m = zero_measurement(grid)
        s = initial_observer_state(grid)
        for _ in range(4):
            s = observer_half_pass(s, m, Gains(1.0, 0.5), 2.0, grid)
            assert not s.x.any()

    def test_finite_propagation_cone(self):
        # the injected boundary signal crosses at most one node per step
        g = build_grid(20, 0.9, 0.5)
        n = g.n_steps_per_pass
        assert n < g.nx - 1
        y = np.ones(n + 1)
        y[0] = 0.0
        m = MeasurementRecord(y=y, dt=g.dt, T=g.T)
        s = observer_half_pass(initial_observer_state(g), m, Gains(1.0, 0.5), 2.0, g)
        u = s.x[: g.nx + 1]
        assert np.max(np.abs(u[n:])) == 0.0
        assert np.max(np.abs(u[:n])) > 0.0

    def test_vanishing_gain_reversibility(self, grid):
        # with negligible injection, forward+backward retraces the zero start
        q = poly_source(grid)
        m = simulate_forward(q, 2.0, grid)
        s = initial_observer_state(grid)
        tiny = Gains(1e-12, 1e-12)
        s = observer_half_pass(s, m, tiny, 2.0, grid)
        s = observer_half_pass(s, m, tiny, 2.0, grid)
        assert np.max(np.abs(s.x[: grid.nx + 1])) <= 1e-9

    def test_matches_driver(self, grid):
        # composing the half-pass route (half_pass.sweep) reproduces run_back_and_forth's
        # first cycle (the map from the zero state) to rounding
        q = poly_source(grid)
        m = simulate_forward(q, 2.0, grid)
        gains = Gains(1.0, 0.5)
        s = initial_observer_state(grid)
        s = observer_half_pass(s, m, gains, 2.0, grid)
        s = observer_half_pass(s, m, gains, 2.0, grid)
        res = run_back_and_forth(m, gains, 2.0, grid, 1)
        (up, u, *z, w), (fin_up, fin_u, *fin_z, fin_w) = (
            _state_parts(x, grid) for x in (s.x, res.final_state)
        )
        assert rel_gap(u, fin_u) <= 1e-12
        assert rel_gap(up, fin_up) <= 1e-12
        assert rel_gap(z, fin_z) <= 1e-12
        assert rel_gap(w, fin_w) <= 1e-12
        assert rel_gap(extract_estimate(s, grid), res.estimates[1]) <= 1e-12

    @pytest.mark.parametrize("start", [pytest.param(2, id="forward"), pytest.param(1, id="backward")])
    def test_matches_stepwise_reference(self, grid, start):
        # the blocked sweep against the same scheme spelled out with the public
        # kernels, one step at a time and in physical time, from the nonzero
        # state before half-pass start; n = 1200 ends in a partial block. A
        # backward pass runs the time-reversed oscillator, with its own
        # propagator and trace forcing -tr, on the physical velocity, which the
        # sweep keeps negated in its local time. Explicit coupling holds the
        # trace at the left end of each step, in both forcing terms. The
        # reference keeps the paper's two integral channels, z3 = int z1
        # (started at the state's w) and int Y (from zero), and injects their
        # difference, which the sweep carries as the one channel w.
        from scipy.linalg import expm

        from bfwave.leapfrog import neumann_trace
        from stepped import step

        q = poly_source(grid)
        m = simulate_forward(q, 2.0, grid)
        gains = Gains(1.0, 0.5)
        g1, g2, omega, dt = gains.gamma1, gains.gamma2, 2.0, grid.dt
        state = initial_observer_state(grid)
        for _ in range(start):
            state = observer_half_pass(state, m, gains, omega, grid)
        rec = np.empty((4, grid.n_steps_per_pass + 1))
        ended = _state_parts(sweep(state, m.y, gains, omega, grid, rec)[1], grid)
        s = 1.0 if start % 2 == 0 else -1.0  # the pass's physical time direction
        A = np.array([[-g2, s, 0.0], [-s * omega * omega, 0.0, 0.0], [1.0, 0.0, 0.0]])
        E = expm(dt * A)
        y = m.y if s > 0 else m.y[::-1]
        u_prev, u_curr, z1, z2, w = _state_parts(state.x, grid)
        wave, y_int = (u_prev, u_curr), 0.0
        z = np.array([z1, s * z2, w])
        ref = [(z[0], s * z[1], wave[1][0])]
        traces = []
        for k in range(grid.n_steps_per_pass):
            tr = neumann_trace(wave[1], grid.dx)
            traces.append(tr)
            b, b_next = np.array([[g2 * y[k], s * tr, 0.0], [g2 * y[k + 1], s * tr, 0.0]])
            z = E @ z + 0.5 * dt * (E @ b + b_next)
            y_int += 0.5 * dt * (y[k] + y[k + 1])
            bc = g1 * (z[0] - y[k + 1]) + g1 * g2 * (z[2] - y_int)
            wave = step(wave, bc, grid)
            ref.append((z[0], s * z[1], wave[1][0]))
        traces.append(neumann_trace(wave[1], grid.dx))
        ref = np.vstack([np.array(ref).T, traces])
        assert np.allclose(rec, ref, rtol=1e-10, atol=1e-12)
        assert np.allclose(ended[1], wave[1], rtol=1e-10, atol=1e-12)
        assert np.allclose(ended[0], wave[0], rtol=1e-10, atol=1e-12)


class TestRunBackAndForth:
    def test_zero_measurement_zero_estimates(self, grid):
        res = run_back_and_forth(zero_measurement(grid), Gains(1.0, 0.5), 2.0, grid, 3)
        assert len(res.estimates) == 4
        for q_hat in res.estimates:
            assert not q_hat.any()

    def test_determinism(self, grid):
        q = poly_source(grid)
        m = simulate_forward(q, 2.0, grid)
        a = run_back_and_forth(m, Gains(1.0, 0.5), 2.0, grid, 2, q_true=q)
        b = run_back_and_forth(m, Gains(1.0, 0.5), 2.0, grid, 2, q_true=q)
        for qa, qb in zip(a.estimates, b.estimates):
            assert np.array_equal(qa, qb)
        assert np.array_equal(a.history.lyapunov, b.history.lyapunov)

    def test_estimate_endpoints_pinned(self, reduced_run):
        for q_hat in reduced_run["result"].estimates:
            assert q_hat[0] == 0.0 and q_hat[-1] == 0.0

    def test_injection_invariant_at_final_state(self, reduced_run):
        # x=0 node of the observer wave equals the injection formula
        res = reduced_run["result"]
        m = reduced_run["measurement"]
        _, u, z1, _, w = _state_parts(res.final_state, reduced_run["grid"])
        g1, g2 = 1.0, 0.5  # the reduced run's gains
        bc = g1 * (z1 - float(m.y[0])) + g1 * g2 * w
        assert u[0] == pytest.approx(bc, abs=1e-13)

    def test_error_decreases(self, reduced_run):
        l2_err = reduced_run["result"].per_cycle["l2_err"]
        assert l2_err[-1] < 0.5 * l2_err[0]

    def test_reports_without_truth(self, grid):
        q = poly_source(grid)
        m = simulate_forward(q, 2.0, grid)
        res = run_back_and_forth(m, Gains(1.0, 0.5), 2.0, grid, 1)
        assert res.history is None
        assert res.per_cycle is None
        assert res.estimates.shape == (2, grid.nx + 1)

    def test_short_horizon_warns(self):
        g = build_grid(10, 0.1, 1.5)
        m = MeasurementRecord(y=np.zeros(g.n_steps_per_pass + 1), dt=g.dt, T=g.T)
        with pytest.warns(UserWarning, match="observability"):
            run_back_and_forth(m, Gains(1.0, 0.5), 2.0, g, 1)

    def test_sampling_mismatch_rejected(self, grid):
        m = MeasurementRecord(y=np.zeros(11), dt=grid.dt, T=grid.T)
        with pytest.raises(ValueError):
            run_back_and_forth(m, Gains(1.0, 0.5), 2.0, grid, 1)

    @given(c=st.floats(-4.0, 4.0))
    @settings(max_examples=10)
    def test_linear_in_measurement(self, c, grid):
        # from the zero start, every observer component is linear in y
        q = poly_source(grid)
        m = simulate_forward(q, 2.0, grid)
        scaled = MeasurementRecord(y=c * m.y, dt=m.dt, T=m.T)
        a = run_back_and_forth(m, Gains(1.0, 0.5), 2.0, grid, 1)
        b = run_back_and_forth(scaled, Gains(1.0, 0.5), 2.0, grid, 1)
        assert np.allclose(b.estimates[1], c * a.estimates[1], atol=1e-12)

    def test_blind_run_keeps_the_read_out_route(self, grid):
        # a blind run reads nothing off its offset sweeps; its estimates keep
        # the bits of the maps whose offsets came with all four read-outs
        m = simulate_forward(poly_source(grid), 2.0, grid)
        gains = Gains(1.0, 0.5)
        res = run_back_and_forth(m, gains, 2.0, grid, 3)
        turn, S, B = _linear_parts(gains, 2.0, grid)
        n, nx1 = grid.n_steps_per_pass, grid.nx + 1
        Sn = np.linalg.matrix_power(S, n)
        x, rec = np.zeros(len(S)), np.empty((4, n + 1))
        D = _readout_rows(grid)
        offsets = [_run_recurrence(S, B, D, x, Yp, rec) for Yp in (m.y, m.y[::-1])]
        for half in range(6):
            x = turn @ (Sn @ x + offsets[half % 2])
            if half % 2:
                q_hat = x[:nx1].copy()
                q_hat[[0, -1]] = 0.0
                assert q_hat.tobytes() == res.estimates[half // 2 + 1].tobytes()

    def test_monitoring_leaves_the_sweep_unchanged(self, grid):
        # monitored and unmonitored runs take one route: monitoring reads the
        # iteration and never changes it. Against the composed half-pass (the
        # sweep), cycle 1 is within 1e-12 relative and cycle 2 within 1e-9.
        q = poly_source(grid)
        m = simulate_forward(q, 2.0, grid)
        gains = Gains(1.0, 0.5)
        b = run_back_and_forth(m, gains, 2.0, grid, 2, q_true=q)
        a = run_back_and_forth(m, gains, 2.0, grid, 2)
        assert len(a.estimates) == len(b.estimates) == 3
        for qa, qb in zip(a.estimates, b.estimates):
            assert np.array_equal(qa, qb)
        assert np.array_equal(a.final_state, b.final_state)
        s = initial_observer_state(grid)
        composed = [extract_estimate(s, grid)]
        for _ in range(4):
            s = observer_half_pass(s, m, gains, 2.0, grid)
            if s.half_pass % 2 == 0:
                composed.append(extract_estimate(s, grid))
        assert rel_gap(composed[1], b.estimates[1]) <= 1e-12
        assert np.max(np.abs(composed[2] - b.estimates[2])) <= 1e-9
        u_prev = [_state_parts(x, grid)[0] for x in (s.x, b.final_state)]
        assert np.max(np.abs(u_prev[0] - u_prev[1])) <= 1e-9


class TestMonitorForms:
    """Monitored runs: the monitor evaluates per-direction quadratic forms in every sweep's start."""

    @pytest.fixture(scope="class")
    def reduced(self):
        cfg = ScenarioConfig(cfl=0.02, iterations=8)
        g = cfg.grid()
        q = cfg.q_true(g)
        m = simulate_forward(q, cfg.omega, g)
        args = (m, cfg.gains(), cfg.omega, g, cfg.iterations)
        return dict(
            args=args,
            q=q,
            mapped=run_back_and_forth(*args, q_true=q),
            stepped=stepped_monitored_run(*args, q),
        )

    def test_matches_step_path(self, reduced):
        res = reduced["mapped"]
        estimates, cycle, history = reduced["stepped"]
        gaps = series_gaps(history, cycle, res.history, res.per_cycle)
        assert max(gaps.values()) <= 1e-9, gaps
        gap = max(np.max(np.abs(a - b)) for a, b in zip(estimates, res.estimates))
        assert gap <= 1e-9
        assert len(res.history.lyapunov) == len(history.lyapunov) == 17

    @pytest.mark.parametrize("half", [pytest.param(0, id="forward"), pytest.param(1, id="backward")])
    def test_forms_at_any_start(self, reduced, half):
        # the forms at a start that is not an iterate, a seeded random
        # velocity-basis state, against the integrals of the sweep's record
        # from that state minus the truth
        m, gains, omega, g, _ = reduced["args"]
        nx1, n = g.nx + 1, g.n_steps_per_pass
        truth_z = simulate_cascade(reduced["q"], omega, g).sweep_z
        records = [np.empty((4, n + 1)) for _ in range(2)]
        for h, rec in enumerate(records):
            zero = initial_observer_state(g)
            zero.half_pass = h
            sweep(zero, m.y, gains, omega, g, rec)
            rec[:2] -= truth_z[h]
        x = np.random.default_rng(5).standard_normal(2 * nx1 + 3)
        start = ObserverState(x, half)
        rec = np.empty((4, n + 1))
        sweep(start, m.y, gains, omega, g, rec)
        rec[:2] -= truth_z[half]
        want = _sweep_integrals(rec, g.dt)
        # row h of the run's evaluation takes the forms of h's replay order
        S = _linear_parts(gains, omega, g)[1]
        got = _start_integrals(S, records, np.array([x, x]), g)[half]
        assert np.max(np.abs(got - want) / want) <= 1e-12, (got - want) / want

    def test_one_cycle_run(self, reduced):
        # a one-cycle run takes the route of a longer one, up to its first
        # estimate: every history and per-cycle series is the longer run's prefix, bit for bit
        res = run_back_and_forth(*reduced["args"][:-1], 1, q_true=reduced["q"])
        mapped = reduced["mapped"]
        assert len(res.history.lyapunov) == 3 and len(res.history.hidden_ratios) == 2
        for k in HISTORY_SERIES:
            a, b = getattr(res.history, k), getattr(mapped.history, k)
            assert a.tobytes() == b[: len(a)].tobytes(), k
        assert res.history.initial_bundle == mapped.history.initial_bundle
        for k in CYCLE_COLUMNS:
            a, b = res.per_cycle[k], mapped.per_cycle[k]
            assert len(a) == 2 and a.tobytes() == b[:2].tobytes(), k
        assert np.array_equal(res.estimates[1], mapped.estimates[1])

    def test_sign_fault_still_caught(self, reduced, sign_fault):
        # the flipped injection reaches the forms as it reaches the sweep
        from bfwave.diagnostics import lyapunov_decrease_check

        res = run_back_and_forth(*reduced["args"], q_true=reduced["q"])
        h = res.history
        assert not lyapunov_decrease_check(h.lyapunov, 1e-3 * h.lyapunov[0]).passed
        _, cycle, history = stepped_monitored_run(*reduced["args"], reduced["q"])
        gaps = series_gaps(history, cycle, h, res.per_cycle)
        assert max(gaps.values()) <= 1e-9, gaps

    def test_cold_and_warm_runs_agree_bitwise(self, grid, monkeypatch):
        # a run after the kept set-up is cleared has the bits of a warm run in
        # every output; the forms' quadratic part, the free plan of the rows of
        # their linear parts and S^n are each built once per system
        q = poly_source(grid)
        m = simulate_forward(q, 2.0, grid)
        builds = {"G": [], "rows": [], "matrix_power": []}
        for module, name, kind in (
            (observer, "_quadratic_part", "G"),
            (observer, "_block_plan", "rows"),
            (np.linalg, "matrix_power", "matrix_power"),
        ):
            build = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, b=build, k=kind: builds[k].append(a) or b(*a))

        def run(gains=Gains(1.0, 0.5)):
            return run_back_and_forth(m, gains, 2.0, grid, 3, q_true=q)

        def counts():
            return {kind: len(calls) for kind, calls in builds.items()}

        _forget_set_up()
        cold = run()
        # one monitor plan (the sweeps' plans are built in leapfrog), and
        # matrix_power for S^n only: the plan's S^128 is a left product
        assert counts() == {"G": 1, "rows": 1, "matrix_power": 1}
        assert builds["rows"][0][1].shape == (len(builds["G"][0][0]), 0)  # a free plan
        warm = run()
        assert counts() == {"G": 1, "rows": 1, "matrix_power": 1}
        run(Gains(2.0, 0.5))  # another S
        run()
        assert counts() == {"G": 2, "rows": 2, "matrix_power": 2}
        assert np.array_equal(cold.estimates, warm.estimates)
        for column in CYCLE_COLUMNS:
            assert np.array_equal(cold.per_cycle[column], warm.per_cycle[column]), column
        for field in dataclasses.fields(cold.history):
            a, b = (getattr(r.history, field.name) for r in (cold, warm))
            assert np.array_equal(a, b), field.name
        assert np.array_equal(cold.final_state, warm.final_state)

    def test_zero_truth_zero_measurement(self, grid):
        # the forms of an all-zero run are zero: no energy, no trace, no refusal
        m = zero_measurement(grid)
        res = run_back_and_forth(m, Gains(1, 0.5), 2.0, grid, 3, q_true=np.zeros(21))
        assert not res.history.energy_lhs.any()
        assert not res.history.hidden_ratios.any()


class TestWholeArrayMonitor:
    """The monitor's series, taken over all boundaries at once, against the one-field functions."""

    @pytest.mark.slow
    @pytest.mark.parametrize("run", ["reference_run", "reference_run_noisy"])
    def test_pinned_to_scalar_functions(self, run, request, monkeypatch):
        # V and the energy bundles of the fixture's run, boundary by boundary
        # from the arrays the run hands its monitor; the trace-bound ratios of
        # the stepped run, sweep by sweep from its records
        ref = request.getfixturevalue(run)
        cfg, g, q, m = ref["cfg"], ref["grid"], ref["q"], ref["measurement"]
        gains, omega = cfg.gains(), cfg.omega
        fed = []

        def monitor(*args):
            fed.append(args)
            return _truth_history(*args)

        monkeypatch.setattr(observer, "_truth_history", monitor)
        res = run_back_and_forth(m, gains, omega, g, cfg.iterations, q_true=q)
        assert res.history.lyapunov.tobytes() == ref["result"].history.lyapunov.tobytes()
        _, plant, starts, ends, integrals = fed[0][:5]
        hidden = []
        _, _, stepped = stepped_monitored_run(m, gains, omega, g, cfg.iterations, q, hidden=hidden)
        nx1, om2, g1 = g.nx + 1, omega * omega, gains.gamma1
        g1g2 = g1 * gains.gamma2
        int_zt_sq = np.cumsum(np.vstack([np.zeros(2), integrals[:, :2]]), axis=0)
        V, lhs, lhs_b = [], [], []
        for h, x in enumerate(starts):
            pf, pv = (q, 0.0) if h % 2 == 0 else (plant.field_T, plant.vel_T)
            zt = plant.sweep_z[h % 2][:, 0]
            w1 = _state_parts(x, g)[1] - pf
            w2 = boundary_velocity(starts, ends[:h], g) - pv
            z1, z2 = x[2 * nx1] - zt[0], x[2 * nx1 + 1] - zt[1]
            V.append(lyapunov_value(w1, w2, z1, z2, gains, omega, g))
            w2t = l2_norm(_second_x_derivative(w1, g.dx), g)
            tr = neumann_trace(w1, g.dx)
            lhs.append(
                h1_seminorm(w1, g) ** 2
                + l2_norm(w2, g) ** 2
                + g1 * z2 * z2
                + g1 * om2 * z1 * z1
                + 2.0 * g1g2 * om2 * int_zt_sq[h, 0]
            )
            lhs_b.append(
                0.5 * (w2t * w2t + h1_seminorm(w2, g) ** 2 + g1 * om2 * om2 * z1 * z1)
                + 0.25 * g1 * tr * tr
                + 0.5 * g1g2 * om2 * int_zt_sq[h, 1]
                + g1 * om2 * z2 * z2
            )
        pairs = {
            "lyapunov": (V, res.history.lyapunov),
            "energy_lhs": (lhs, res.history.energy_lhs),
            "second_energy_lhs": (lhs_b, res.history.second_energy_lhs),
            "hidden_ratios": (hidden, stepped.hidden_ratios),
        }
        for name, (want, got) in pairs.items():
            want = np.array(want)
            assert len(got) == len(want) == 2 * cfg.iterations + (name != "hidden_ratios")
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), name


    def test_vacuous_rows(self, grid):
        # per row: vanishing bound data read 0 with no trace energy, and are
        # refused with some; the other rows are the one-row ratio
        q0 = np.vstack([np.zeros(21), poly_source(grid)])
        q1 = np.zeros((2, 21))
        int_f, int_fd = np.array([0.0, 1.0]), np.array([0.0, 0.5])
        ratios = _trace_bound_ratio(int_f, np.array([0.0, 2.0]), int_fd, q0, q1, grid.T, grid)
        assert ratios[0] == 0.0
        assert ratios[1] == _trace_bound_ratio(1.0, 2.0, 0.5, q0[1], q1[1], grid.T, grid)
        with pytest.raises(ValueError, match="bound's data vanish"):
            _trace_bound_ratio(int_f, np.array([1e-200, 2.0]), int_fd, q0, q1, grid.T, grid)


class TestCycleMap:
    """Every run: every half-pass through its map, from the zero state."""

    @pytest.mark.parametrize("nx", [20, 40])
    @pytest.mark.parametrize("cfl", [0.005, 0.02, 0.5, 0.9])
    def test_wave_block_is_the_wave_step(self, nx, cfl):
        # the observer steps its wave by _wave_parts' S: off the x=0 node and
        # its velocity, S's wave rows are the wave's, bit for bit, and read
        # no oscillator or integral entry
        g = build_grid(nx, cfl, 3.0)
        S = _linear_parts(Gains(1.0, 0.5), 2.0, g)[1]
        Sw = leapfrog._wave_parts(g)[0]
        dim = len(Sw)
        rows = np.setdiff1d(np.arange(dim), [0, nx + 1])
        assert S[rows, :dim].tobytes() == Sw[rows].tobytes()
        assert not S[rows, dim:].any()

    @pytest.mark.slow
    @pytest.mark.parametrize("run", ["reference_run", "reference_run_noisy"])
    def test_matches_step_path(self, run, request):
        # the fixture's monitored run against every half-pass on the sweep over
        # all 50 cycles, composed here with the same monitor feed
        ref = request.getfixturevalue(run)
        cfg, grid, m = ref["cfg"], ref["grid"], ref["measurement"]
        mapped = ref["result"]
        estimates, cycle, history = stepped_monitored_run(
            m, cfg.gains(), cfg.omega, grid, cfg.iterations, ref["q"]
        )
        assert len(mapped.estimates) == len(estimates) == cfg.iterations + 1
        assert rel_gap(estimates[1], mapped.estimates[1]) <= 1e-12
        gap = max(np.max(np.abs(a - b)) for a, b in zip(mapped.estimates, estimates))
        assert gap <= 1e-9
        gaps = series_gaps(history, cycle, mapped.history, mapped.per_cycle)
        assert max(gaps[k] for k in HISTORY_SERIES) <= 1e-9, gaps
        assert max(gaps["cycle." + k] for k in CYCLE_COLUMNS[:3]) <= 1e-9, gaps
        # the residual |lhs - rhs| / rhs, lhs within 1 % of rhs, carries the
        # bundle's gap over rhs: the energy_lhs bound above, in its own units
        lhs = history.energy_lhs
        res_gap = gaps["cycle.energy_residual"] * max(cycle["energy_residual"])
        assert res_gap <= 1e-9 * np.max(lhs) / lhs[0], gaps
        # the unmonitored run is the same iteration
        res = run_back_and_forth(m, cfg.gains(), cfg.omega, grid, cfg.iterations)
        assert res.history is None
        for a, b in zip(res.estimates, mapped.estimates):
            assert np.array_equal(a, b)
        # the rebuilt final state keeps the injection invariant at x=0
        _, u, z1, _, w = _state_parts(res.final_state, grid)
        y0 = float(m.y[0])
        g1, g2 = cfg.gamma1, cfg.gamma2
        bc = g1 * (z1 - y0) + g1 * g2 * w
        assert u[0] == pytest.approx(bc, abs=1e-12)
        assert res.estimates.shape == (cfg.iterations + 1, grid.nx + 1)

    def test_injection_sign_carried(self, grid, sign_fault):
        # a sign fault in the step reaches the map as it reaches the sweep
        q = poly_source(grid)
        m = simulate_forward(q, 2.0, grid)
        gains = Gains(1.0, 0.5)
        res = run_back_and_forth(m, gains, 2.0, grid, 3)
        s = initial_observer_state(grid)
        for _ in range(6):
            s = observer_half_pass(s, m, gains, 2.0, grid)
        assert np.max(np.abs(res.estimates[-1] - extract_estimate(s, grid))) <= 1e-9


class TestExtractEstimate:
    def test_zero_state(self, grid):
        s = initial_observer_state(grid)
        assert not extract_estimate(s, grid).any()

    def test_mid_cycle_rejected(self, grid):
        m = zero_measurement(grid)
        s = observer_half_pass(initial_observer_state(grid), m, Gains(1, 0.5), 2.0, grid)
        with pytest.raises(ValueError):
            extract_estimate(s, grid)
