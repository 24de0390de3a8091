import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bfwave.grid import build_grid
from bfwave.leapfrog import (
    LeapfrogState,
    _from_velocity_basis,
    _leap,
    _run_recurrence,
    _to_velocity_basis,
    _wave_parts,
    continuation_level,
    discrete_energy,
    init_leapfrog,
    neumann_trace,
    reversed_state,
    run_homogeneous,
)
from stepped import step


@pytest.fixture
def grid20():
    return build_grid(20, 0.5, 2.0)


def mode(grid, k=1):
    f = np.sin(k * np.pi * grid.nodes)
    f[0] = f[-1] = 0.0
    return f


def centered_velocity(s, s1, grid):
    """Centered time derivative at s's current level; s1 is one step after s."""
    return (s1.u_curr - s.u_prev) / (2.0 * grid.dt)


class TestInit:
    def test_zero_data(self, grid20):
        s = init_leapfrog(np.zeros(21), None, grid20)
        assert not s.u_prev.any() and not s.u_curr.any()

    def test_taylor_ghost_on_eigenmode(self, grid20):
        # D2 sin(pi x) = -(4/dx^2) sin^2(pi dx/2) sin(pi x) exactly on the grid
        g = grid20
        q0 = mode(g)
        s = init_leapfrog(q0, None, g)
        lam = (4.0 / g.dx**2) * np.sin(np.pi * g.dx / 2.0) ** 2
        expected = q0 * (1.0 - 0.5 * g.dt**2 * lam)
        assert np.allclose(s.u_prev[1:-1], expected[1:-1], rtol=0, atol=1e-14)
        assert s.u_prev[10] < 1.0

    def test_shape_mismatch(self, grid20):
        with pytest.raises(ValueError):
            init_leapfrog(np.zeros(20), None, grid20)


class TestStep:
    def test_zero_stays_zero(self, grid20):
        s = init_leapfrog(np.zeros(21), None, grid20)
        s = step(s, 0.0, grid20)
        assert not s.u_curr.any()

    def test_unit_forcing_one_step(self, grid20):
        # direct substitution with both levels zero; forcing enters as dt^2 f
        un = _leap(np.zeros(21), np.zeros(21), grid20.cfl**2, grid20.dt**2 * np.ones(21))
        assert np.allclose(un[1:-1], grid20.dt**2, atol=1e-18)

    def test_discrete_mode_period(self):
        # pick cfl so the discrete mode period is exactly 100 steps
        nx, n = 20, 100
        dx = 1.0 / nx
        cfl = np.sin(np.pi / n) / np.sin(np.pi * dx / 2.0)
        g = build_grid(nx, cfl, n * cfl * dx)
        assert g.n_steps_per_pass == n
        q0 = mode(g)
        fin, _ = run_homogeneous(q0, g, n)
        assert np.max(np.abs(fin.u_curr - q0)) <= 1e-10 * np.max(np.abs(q0))

    def test_dirichlet_value_applied(self, grid20):
        s = init_leapfrog(np.zeros(21), None, grid20)
        s = step(s, 0.7, grid20)
        assert s.u_curr[0] == 0.7
        assert s.u_curr[-1] == 0.0

    @given(
        a=st.floats(-2, 2),
        b=st.floats(-2, 2),
        bc1=st.floats(-1, 1),
        bc2=st.floats(-1, 1),
    )
    @settings(max_examples=25)
    def test_superposition(self, a, b, bc1, bc2):
        g = build_grid(10, 0.8, 1.0)
        rng = np.random.default_rng(7)
        u1 = rng.standard_normal(11)
        u2 = rng.standard_normal(11)
        v1 = rng.standard_normal(11)
        v2 = rng.standard_normal(11)
        f1 = rng.standard_normal(11)
        f2 = rng.standard_normal(11)
        sa = LeapfrogState(u1, v1)
        sb = LeapfrogState(u2, v2)
        sc = LeapfrogState(a * u1 + b * u2, a * v1 + b * v2)
        ra = step(sa, bc1, g)
        rb = step(sb, bc2, g)
        rc = step(sc, a * bc1 + b * bc2, g)
        assert np.allclose(rc.u_curr, a * ra.u_curr + b * rb.u_curr, atol=1e-12)
        # the forced interior update is linear in the forcing as well
        c2 = g.cfl * g.cfl
        fa = _leap(u1, v1, c2, f1)
        fb = _leap(u2, v2, c2, f2)
        fc = _leap(sc.u_prev, sc.u_curr, c2, a * f1 + b * f2)
        assert np.allclose(fc[1:-1], a * fa[1:-1] + b * fb[1:-1], atol=1e-12)


class TestTrace:
    def test_zero_and_affine(self, grid20):
        assert neumann_trace(np.zeros(21), grid20.dx) == 0.0
        assert neumann_trace(grid20.nodes, grid20.dx) == pytest.approx(1.0, abs=1e-13)

    def test_sine_second_order(self):
        # one-sided stencil Taylor bound: (dx^2/3) * max|f'''| = pi^3 dx^2 / 3
        errs = []
        for nx in (20, 40):
            g = build_grid(nx, 0.5, 1.0)
            err = abs(neumann_trace(mode(g), g.dx) - np.pi)
            assert err <= (np.pi**3 / 3.0) * g.dx**2 * 1.05
            errs.append(err)
        assert 3.0 <= errs[0] / errs[1] <= 5.0


class TestColumnForms:
    def test_columns_match_single_levels(self, grid20):
        # update, trace and turn act on each column of an (nx+1, m) array
        # exactly as on that column alone
        rng = np.random.default_rng(3)
        prev, curr = rng.standard_normal((2, 21, 5))
        c2 = grid20.cfl * grid20.cfl
        traces = neumann_trace(curr, grid20.dx)
        nxt = _leap(prev, curr, c2)
        ghost = continuation_level(LeapfrogState(prev, curr), grid20)
        for j in range(5):
            one = LeapfrogState(prev[:, j], curr[:, j])
            assert traces[j] == neumann_trace(curr[:, j], grid20.dx)
            assert np.array_equal(nxt[1:-1, j], _leap(prev[:, j], curr[:, j], c2)[1:-1])
            assert np.array_equal(ghost[:, j], continuation_level(one, grid20))
        assert isinstance(neumann_trace(curr[:, 0], grid20.dx), float)


class TestVelocity:
    def test_stationary(self, grid20):
        # a linear profile with matching boundary data stays at rest
        lin = 1.0 - grid20.nodes
        s = LeapfrogState(lin, lin)
        s1 = step(s, 1.0, grid20)
        assert np.allclose(centered_velocity(s, s1, grid20), 0.0, atol=1e-15)

    def test_forced_start_has_zero_initial_velocity(self, grid20):
        # the Taylor ghost carries the forcing, so the centered difference
        # reproduces u_t(0) = 0 exactly
        f = np.ones(21)
        s = init_leapfrog(np.zeros(21), f, grid20)
        un = _leap(s.u_prev, s.u_curr, grid20.cfl**2, grid20.dt**2 * f)
        v = centered_velocity(s, LeapfrogState(s.u_curr, un), grid20)
        assert np.allclose(v[1:-1], 0.0, atol=1e-16)

    def test_modal_velocity(self):
        g = build_grid(40, 0.25, 0.5)
        q0 = mode(g)
        n = g.n_steps_per_pass
        s = init_leapfrog(q0, None, g)
        for _ in range(n - 1):
            s = step(s, 0.0, g)
        s1 = step(s, 0.0, g)
        v = centered_velocity(s, s1, g)
        t = (n - 1) * g.dt
        exact = -np.pi * np.sin(np.pi * t) * np.sin(np.pi * g.nodes)
        assert np.max(np.abs(v - exact)) <= 20.0 * g.dx**2


class TestEnergy:
    def test_zero(self, grid20):
        s = LeapfrogState(np.zeros(21), np.zeros(21))
        assert discrete_energy(s, grid20) == 0.0

    def test_quadratic_scaling(self, grid20):
        q0 = mode(grid20)
        s = init_leapfrog(q0, None, grid20)
        s2 = LeapfrogState(2.0 * s.u_prev, 2.0 * s.u_curr)
        assert discrete_energy(s2, grid20) == pytest.approx(
            4.0 * discrete_energy(s, grid20), rel=1e-12
        )

    def test_stacked_levels(self, grid20):
        # one energy per column pair, as the per-level calls give it
        rng = np.random.default_rng(11)
        prev, curr = rng.standard_normal((2, 21, 7))
        stacked = discrete_energy(LeapfrogState(prev, curr), grid20)
        single = [discrete_energy(LeapfrogState(prev[:, j], curr[:, j]), grid20) for j in range(7)]
        assert stacked.shape == (7,)
        assert np.max(np.abs(stacked - single) / np.abs(single)) <= 1e-15
        assert isinstance(single[0], float)

    def test_chain_of_levels(self, grid20):
        # a chain's m energies have the bits of its m pairs' as one state
        levels = np.random.default_rng(12).standard_normal((21, 9)) * 10.0 ** np.arange(-4, 5)
        chain = discrete_energy(levels, grid20)
        pairs = discrete_energy(LeapfrogState(levels[:, :-1], levels[:, 1:]), grid20)
        assert chain.shape == (8,)
        assert chain.tobytes() == pairs.tobytes()

    def test_conservation_10k_steps(self):
        g = build_grid(20, 0.005, 2.5)
        s = init_leapfrog(mode(g), None, g)
        e0 = discrete_energy(s, g)
        drift = 0.0
        for _ in range(10_000):
            s = step(s, 0.0, g)
            drift = max(drift, abs(discrete_energy(s, g) - e0) / e0)
        assert drift <= 1e-10


def stepped_run(q0, g, n, q=None, omega=0.0):
    """run_homogeneous as a loop of _leap steps on long-double levels, one per Python iteration.

    Returns the final state, the traces and the largest |level| over the run.
    """
    ld = np.longdouble
    start = init_leapfrog(q0, q, g)
    u_prev, u_curr = start.u_prev.astype(ld), start.u_curr.astype(ld)
    c2, dt, dx = ld(g.cfl) * ld(g.cfl), ld(g.dt), ld(g.dx)
    dt2q = None if q is None else dt * dt * np.asarray(q, dtype=ld)
    traces = [neumann_trace(u_curr, dx)]
    peak = np.max(np.abs(u_curr))
    for k in range(n):
        un = _leap(u_prev, u_curr, c2, None if q is None else dt2q * np.cos(ld(omega) * k * dt))
        un[0] = un[-1] = 0.0
        u_prev, u_curr = u_curr, un
        traces.append(neumann_trace(u_curr, dx))
        peak = max(peak, np.max(np.abs(u_curr)))
    return LeapfrogState(u_prev, u_curr), np.array(traces), peak


class TestRunHomogeneous:
    @pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
    @pytest.mark.parametrize("n", [20, 77, 10_000], ids=["n<32", "n=77", "n=1e4"])
    @pytest.mark.parametrize("cfl", [0.005, 0.9])
    def test_blocked_run_matches_stepped_loop(self, cfl, n, forced):
        # the stepped reference runs in long double, so what is compared is the
        # blocked run's own rounding, not that of a float64 loop over 1e4 steps
        if n >= 10_000 and np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant:
            pytest.skip("a float64 stepped loop drifts by 1e-12 over 1e4 steps")
        g = build_grid(20, cfl, 1.0)
        x = g.nodes
        if forced:
            q0, args = np.zeros(21), (x - x * x, 2.0)
        else:
            q0, args = mode(g) + 0.3 * mode(g, 3), ()
        fin, tr = run_homogeneous(q0, g, n, *args)
        ref, ref_tr, peak = stepped_run(q0, g, n, *args)
        assert tr.shape == (n + 1,)
        assert np.max(np.abs(tr - ref_tr)) <= 1e-12 * np.max(np.abs(ref_tr))
        assert np.max(np.abs(fin.u_curr - ref.u_curr)) <= 1e-12 * peak
        assert np.max(np.abs(fin.u_prev - ref.u_prev)) <= 1e-12 * peak

    def test_pinned_walls_are_exactly_zero(self):
        # sin(pi x) at x = 1 rounds to about 1e-16; the stepped update sets the
        # wall to 0, and so must the blocked run
        g = build_grid(20, 0.005, 1.0)
        q0 = np.sin(np.pi * g.nodes)
        assert 0.0 < abs(q0[-1]) < 1e-15
        fin, _ = run_homogeneous(q0, g, 77)
        assert fin.u_curr[-1] == 0.0 and fin.u_curr[0] == 0.0
        assert fin.u_prev[-1] == 0.0 and fin.u_prev[0] == 0.0

    def test_zero_run(self, grid20):
        fin, tr = run_homogeneous(np.zeros(21), grid20, 40)
        assert not fin.u_curr.any()
        assert not tr.any()

    def test_trace_matches_modal_solution(self):
        g = build_grid(20, 0.25, 2.0)
        _, tr = run_homogeneous(mode(g), g, g.n_steps_per_pass)
        t = np.arange(g.n_steps_per_pass + 1) * g.dt
        assert np.max(np.abs(tr - np.pi * np.cos(np.pi * t))) <= 0.06

    def test_round_trip(self):
        g = build_grid(20, 0.005, 2.5)
        q0 = mode(g)
        fwd, _ = run_homogeneous(q0, g, g.n_steps_per_pass)
        back = reversed_state(fwd, g)
        for _ in range(g.n_steps_per_pass):
            back = step(back, 0.0, g)
        assert np.max(np.abs(back.u_curr - q0)) <= 1e-12
        # the previous level is restored too (mirror of the start ghost)
        start = init_leapfrog(q0, None, g)
        assert np.max(np.abs(back.u_prev - start.u_prev)) <= 1e-12

    @given(k=st.integers(1, 4), n=st.integers(1, 60))
    @settings(max_examples=20)
    def test_reversibility_property(self, k, n):
        g = build_grid(12, 0.9, 1.0)
        q0 = mode(g, k)
        fwd, _ = run_homogeneous(q0, g, n)
        back = reversed_state(fwd, g)
        for _ in range(n):
            back = step(back, 0.0, g)
        assert np.max(np.abs(back.u_curr - q0)) <= 1e-12


def blocked_free_run(state, g, n):
    """n free steps from state through the blocked recurrence of run_homogeneous."""
    S, D = _wave_parts(g)
    x0 = _to_velocity_basis(state, g)
    x = _run_recurrence(S, np.zeros((len(S), 0)), D, x0, np.zeros(n + 1), np.empty((1, n + 1)))
    return _from_velocity_basis(x, g)


class TestBlockedRoundTrip:
    """Blocked both ways, as the verify battery's kernel check runs it."""

    def test_round_trip(self):
        g = build_grid(20, 0.005, 2.5)
        q0 = mode(g)
        fwd, _ = run_homogeneous(q0, g, g.n_steps_per_pass)
        back = blocked_free_run(reversed_state(fwd, g), g, g.n_steps_per_pass)
        assert np.max(np.abs(back.u_curr - q0)) <= 1e-12
        start = init_leapfrog(q0, None, g)
        assert np.max(np.abs(back.u_prev - start.u_prev)) <= 1e-12

    @given(k=st.integers(1, 4), n=st.integers(1, 60))
    @settings(max_examples=20)
    def test_reversibility_property(self, k, n):
        g = build_grid(12, 0.9, 1.0)
        q0 = mode(g, k)
        fwd, _ = run_homogeneous(q0, g, n)
        back = blocked_free_run(reversed_state(fwd, g), g, n)
        assert np.max(np.abs(back.u_curr - q0)) <= 1e-12


class TestBoundarySchedule:
    """Time-dependent Dirichlet data at x = 0, applied one step at a time."""

    @staticmethod
    def driven_run(f, g):
        # from rest; f[k] is the x=0 value at node k. Returns the final state
        # and the left trace at every node.
        state = init_leapfrog(np.zeros(g.nx + 1), None, g)
        traces = [neumann_trace(state.u_curr, g.dx)]
        for value in f[1:]:
            state = step(state, value, g)
            traces.append(neumann_trace(state.u_curr, g.dx))
        return state, np.array(traces)

    def test_boundary_values_tracked(self):
        g = build_grid(20, 0.25, 2.0)
        n = g.n_steps_per_pass
        t = np.arange(n + 1) * g.dt
        f = np.sin(2.0 * t) ** 2
        fin, tr = self.driven_run(f, g)
        assert fin.u_curr[0] == f[n]
        assert fin.u_curr[-1] == 0.0
        assert np.abs(tr).max() > 0.0

    def test_driven_run_respects_trace_bound(self):
        # smooth boundary data from rest: the trace-bound ratio stays <= 1
        from bfwave.observer import hidden_regularity_ratio

        g = build_grid(20, 0.02, 2.0)
        n = g.n_steps_per_pass
        t = np.arange(n + 1) * g.dt
        f = np.sin(2.0 * t) ** 2
        _, tr = self.driven_run(f, g)
        r = hidden_regularity_ratio(f, np.zeros(21), np.zeros(21), tr, g.T, g)
        assert 0.0 < r <= 1.0


class TestSolverOrder:
    def test_modal_error_second_order(self):
        errs = []
        for nx in (20, 40):
            g = build_grid(nx, 0.005, 1.3)
            q0 = mode(g)
            fin, _ = run_homogeneous(q0, g, g.n_steps_per_pass)
            exact = np.sin(np.pi * g.nodes) * np.cos(np.pi * g.T)
            errs.append(np.max(np.abs(fin.u_curr - exact)))
        assert 3.0 <= errs[0] / errs[1] <= 5.0
