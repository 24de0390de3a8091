"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
The heavyweight reference runs are shared session fixtures (conftest.py).
"""

import filecmp
import json

import numpy as np
import pytest

from bfwave.cli import EXIT_OK, cmd_full
from bfwave.diagnostics import (
    energy_identity_residual,
    lyapunov_decrease_check,
    second_energy_boundedness,
)
from bfwave.forward import simulate_forward
from bfwave.grid import Gains, ScenarioConfig, build_grid, l2_norm
from bfwave.leapfrog import (
    discrete_energy,
    init_leapfrog,
    reversed_state,
    run_homogeneous,
)
from bfwave.observer import hidden_regularity_ratio, run_back_and_forth, simulate_cascade
from stepped import step


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def rel_errors(run) -> np.ndarray:
    return run["result"].per_cycle["l2_err"] / run["qn"]


@pytest.mark.slow
def test_criterion_1_reference_reconstruction(reference_run, reference_run_noisy):
    clean = rel_errors(reference_run)
    noisy = rel_errors(reference_run_noisy)
    ok_clean = clean[-1] <= 0.05
    ok_noisy = noisy[-1] <= 0.15
    jumps = max(np.diff(clean[5:]).max(), np.diff(noisy[5:]).max())
    ok_monotone = jumps <= 0.01
    ok_runtime = reference_run["elapsed"] < 60.0
    report(
        1,
        ok_clean and ok_noisy and ok_monotone and ok_runtime,
        "reference reconstruction: clean %.4f (<=0.05), noisy %.4f (<=0.15), "
        "max late jump %.5f (<=0.01), %.1fs (<60s)"
        % (clean[-1], noisy[-1], jumps, reference_run["elapsed"]),
    )


@pytest.mark.slow
def test_criterion_2_output_equivalence():
    details = []
    ok = True
    for omega in (0.0, 1.0):
        gaps = []
        for nx in (20, 40):
            g = build_grid(nx, 0.005, 3.0)
            q = np.sin(np.pi * g.nodes)
            q[0] = q[-1] = 0.0
            y = simulate_forward(q, omega, g).y
            Y = simulate_cascade(q, omega, g).Y
            gaps.append(float(np.max(np.abs(y - Y)) / np.max(np.abs(y))))
        ok &= gaps[0] <= 1e-2
        if gaps[0] > 1e-9:
            factor = gaps[0] / gaps[1]
            ok &= 3.0 <= factor <= 5.0
            details.append("w=%g gap %.2e factor %.2f" % (omega, gaps[0], factor))
        else:
            # both routes coincide to round-off; no order is measurable
            details.append("w=%g gap %.2e (round-off floor)" % (omega, gaps[0]))
    report(2, ok, "output equivalence: " + "; ".join(details))


@pytest.mark.slow
def test_criterion_3_lyapunov_decrease(reference_run):
    h = reference_run["result"].history
    entry = lyapunov_decrease_check(h.lyapunov, 1e-3 * h.lyapunov[0])
    n_samples = len(h.lyapunov)
    report(
        3,
        entry.passed and n_samples == 101,
        "Lyapunov non-increasing over %d half-pass boundaries, worst jump %.3g "
        "(tol %.3g)" % (n_samples - 1, entry.value, entry.threshold),
    )


@pytest.mark.slow
def test_criterion_4_energy_identity(reference_run):
    h = reference_run["result"].history
    baseline = energy_identity_residual(h)
    resids = []
    for nx in (20, 40):
        g = build_grid(nx, 0.005, 3.0)
        x = g.nodes
        q = x - x * x
        q[0] = q[-1] = 0.0
        m = simulate_forward(q, 2.0, g)
        r = run_back_and_forth(m, Gains(1.0, 0.5), 2.0, g, 4, q_true=q)
        resids.append(energy_identity_residual(r.history))
    factor = resids[0] / resids[1]
    ok = baseline <= 1e-2 and 3.0 <= factor <= 5.0
    report(
        4,
        ok,
        "energy identity: residual %.3e over the full run (<=1e-2), "
        "refinement factor %.2f in [3,5]" % (baseline, factor),
    )


@pytest.mark.slow
def test_criterion_5_second_energy_bound(reference_run):
    h = reference_run["result"].history
    entry = second_energy_boundedness(h)
    series = h.second_energy_lhs
    mid = len(series) // 2
    no_growth = float(np.max(series[mid:])) <= float(np.max(series[:mid]))
    report(
        5,
        entry.passed and no_growth,
        "second energy bound: max ratio %.3f (cap %.1f), late max %.3g <= early max %.3g"
        % (entry.value, entry.threshold, np.max(series[mid:]), np.max(series[:mid])),
    )


@pytest.mark.slow
def test_criterion_6_hidden_regularity(reference_run):
    g = build_grid(20, 0.005, 2.0)
    q0 = np.sin(np.pi * g.nodes)
    q0[0] = q0[-1] = 0.0
    _, tr = run_homogeneous(q0, g, g.n_steps_per_pass)
    r_analytic = hidden_regularity_ratio(
        np.zeros_like(tr), q0, np.zeros_like(q0), tr, g.T, g
    )
    h = reference_run["result"].history
    worst = float(np.max(h.hidden_ratios))
    ok = abs(r_analytic - 0.25) <= 1e-2 and worst <= 1.0
    report(
        6,
        ok,
        "hidden regularity: analytic ratio %.4f (=0.25 +- 1e-2), worst observer "
        "sweep ratio %.3f (<=1)" % (r_analytic, worst),
    )


def test_criterion_7_kernel_invariants():
    g = build_grid(20, 0.005, 2.5)
    q0 = np.sin(np.pi * g.nodes)
    q0[0] = q0[-1] = 0.0
    s = init_leapfrog(q0, None, g)
    e0 = discrete_energy(s, g)
    drift = 0.0
    for _ in range(10_000):
        s = step(s, 0.0, g)
        drift = max(drift, abs(discrete_energy(s, g) - e0) / e0)
    fwd, _ = run_homogeneous(q0, g, 10_000)
    back = reversed_state(fwd, g)
    for _ in range(10_000):
        back = step(back, 0.0, g)
    rt = float(np.max(np.abs(back.u_curr - q0)))
    errs = []
    for nx in (20, 40):
        gg = build_grid(nx, 0.005, 1.3)
        qq = np.sin(np.pi * gg.nodes)
        qq[0] = qq[-1] = 0.0
        fin, _ = run_homogeneous(qq, gg, gg.n_steps_per_pass)
        errs.append(np.max(np.abs(fin.u_curr - np.sin(np.pi * gg.nodes) * np.cos(np.pi * gg.T))))
    factor = errs[0] / errs[1]
    ok = drift <= 1e-10 and rt <= 1e-12 and 3.0 <= factor <= 5.0
    report(
        7,
        ok,
        "kernel invariants: energy drift %.2e (<=1e-10), round trip %.2e (<=1e-12), "
        "order factor %.2f in [3,5]" % (drift, rt, factor),
    )


@pytest.mark.slow
def test_criterion_8_minimal_horizon(minimal_horizon_run):
    rel = rel_errors(minimal_horizon_run)
    ok = rel[-1] <= 0.10
    # below the observability horizon: reported, not asserted
    sub = []
    for T in (1.5, 1.0):
        cfg = ScenarioConfig(T=T, gamma1=4.0, gamma2=2.0)
        g = build_grid(cfg.nx, 0.02, T)  # coarser dt; the rate is grid-insensitive
        q = cfg.q_true(g)
        m = simulate_forward(q, cfg.omega, g)
        with pytest.warns(UserWarning):
            r = run_back_and_forth(m, cfg.gains(), cfg.omega, g, cfg.iterations)
        sub.append((T, l2_norm(r.estimates[-1] - q, g) / l2_norm(q, g)))
    report(
        8,
        ok,
        "minimal horizon T=2: final error %.4f (<=0.10); below horizon (not asserted): "
        % rel[-1]
        + ", ".join("T=%.1f -> %.3f" % (T, e) for T, e in sub),
    )


def test_criterion_9_determinism(tmp_path):
    cfg = {
        "source": {"profile": "poly_paper"},
        "omega": 2.0,
        "T": 3.0,
        "nx": 20,
        "cfl": 0.02,
        "gamma1": 1.0,
        "gamma2": 0.5,
        "iterations": 3,
        "noise": 0.1,
        "seed": 42,
    }
    p = tmp_path / "c.json"
    with open(p, "w") as fh:
        json.dump(cfg, fh)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cmd_full(p, out_a, quiet=True) == EXIT_OK
    assert cmd_full(p, out_b, quiet=True) == EXIT_OK
    names = sorted(f.name for f in out_a.glob("*.csv"))
    ok = len(names) >= 6
    diffs = []
    for name in names:
        if not filecmp.cmp(out_a / name, out_b / name, shallow=False):
            diffs.append(name)
            ok = False
    report(
        9,
        ok,
        "determinism: %d CSV files byte-identical across reruns%s"
        % (len(names), "" if not diffs else ", differing: " + ",".join(diffs)),
    )
