"""Numeric checks for every identity and estimate the method relies on.

Each check returns a CheckResult row; the battery assembles them over
built-in scenarios so a single command can vouch for a build.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import observer
from .forward import simulate_forward
from .grid import ScenarioConfig, build_grid, h1_seminorm, l2_norm
from .leapfrog import (
    _from_velocity_basis,
    _run_recurrence,
    _to_velocity_basis,
    _wave_parts,
    discrete_energy,
    init_leapfrog,
    reversed_state,
    run_homogeneous,
)
from .observer import (
    ZERO_OSC,
    RunHistory,
    oscillator_drive,
    run_back_and_forth,
    simulate_cascade,
)

__all__ = [
    "CheckResult",
    "DiagnosticsReport",
    "lyapunov_decrease_check",
    "energy_identity_residual",
    "energy_identity_check",
    "second_energy_boundedness",
    "run_level_checks",
    "equivalence_report",
    "run_verify_battery",
    "SECOND_ENERGY_CAP",
]

# boundedness cap for the higher-order energy bundle relative to its initial
# data; the constant in the underlying estimate is not quantified, so this is
# calibrated against reference runs (observed max ratio ~0.52)
SECOND_ENERGY_CAP = 5.0

# steps of the kernel check's blocked run whose levels are read out and their
# energies taken at once; a multiple of leapfrog._RUN_BLOCK. The drift is
# bitwise the same for any such chunk. Run in a fresh process, the check
# raises peak RSS by 1.45 MB with chunks of 1024 steps, by 1.36 MB with
# chunks of one block and by 9.7 MB with the whole 1e4-step run in one call
_ENERGY_CHUNK = 1024


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool
    note: str = ""


@dataclass
class DiagnosticsReport:
    entries: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def summary(self) -> str:
        lines = []
        for e in self.entries:
            status = "PASS" if e.passed else "FAIL"
            lines.append(f"[{status}] {e.name}: value={e.value:.6g} threshold={e.threshold:.6g} {e.note}")
        return "\n".join(lines)


def _interval_check(name: str, value: float, lo: float, hi: float, note: str) -> CheckResult:
    return CheckResult(name=name, value=value, threshold=hi, passed=lo <= value <= hi, note=note)


def _at_most(name: str, value: float, threshold: float, note: str) -> CheckResult:
    """The one pass rule of a bounded row: passes iff value <= threshold."""
    return CheckResult(
        name=name, value=value, threshold=threshold, passed=value <= threshold, note=note
    )


# ---------------------------------------------------------------------------
# pointwise functionals


def lyapunov_decrease_check(v_series: np.ndarray, tolerance: float) -> CheckResult:
    """Passes iff V_{k+1} <= V_k + tolerance along the whole series."""
    v = np.asarray(v_series, dtype=float)
    if len(v) < 2:
        raise ValueError("need at least two Lyapunov samples")
    worst = float(np.max(np.diff(v)))
    note = "largest increase of the error energy between half-pass boundaries"
    return _at_most("lyapunov_decrease", worst, tolerance, note)


def energy_identity_residual(history: RunHistory) -> float:
    """Largest relative defect of the conserved error-energy balance.

    The balance equates the quadratic error bundle plus the accumulated
    dissipation integral with its value at t=0; exact for the continuum
    dynamics, so the defect measures pure discretization error. It is the
    largest of the run's energy_residuals, which the iteration reports sample.
    """
    return float(np.max(history.energy_residuals))


def energy_identity_check(history: RunHistory) -> CheckResult:
    note = "relative defect of the error-energy balance, max over boundaries"
    return _at_most("energy_identity", energy_identity_residual(history), 1e-2, note)


def second_energy_boundedness(history: RunHistory) -> CheckResult:
    """Higher-order error bundle stays bounded by its initial data.

    Reports max over sampled times of LHS / initial bundle; only
    boundedness is asserted since the estimate's constant is free.
    """
    bundle = history.initial_bundle
    worst = float(np.max(history.second_energy_lhs))
    ratio = worst / bundle if bundle > 0 else worst
    note = "max higher-order error bundle over its initial-data bundle"
    return _at_most("second_energy_bound", ratio, SECOND_ENERGY_CAP, note)


def run_level_checks(history: RunHistory) -> list[CheckResult]:
    """The checks every monitored observer run reports, in their fixed order."""
    worst_hidden = float(np.max(history.hidden_ratios))
    note = "worst trace-bound ratio over all observer sweeps"
    with np.errstate(over="ignore", invalid="ignore"):  # a blown-up run's inf - inf fails its rows
        return [
            lyapunov_decrease_check(history.lyapunov, 1e-3 * history.lyapunov[0]),
            energy_identity_check(history),
            second_energy_boundedness(history),
            _at_most("hidden_regularity_run", worst_hidden, 1.0, note),
        ]


def equivalence_report(y: np.ndarray, Y: np.ndarray) -> CheckResult:
    """Relative max-norm gap between the two output routes."""
    y = np.asarray(y, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if y.shape != Y.shape:
        raise ValueError("output series must share sampling")
    scale = float(np.max(np.abs(y)))
    gap = float(np.max(np.abs(y - Y)))
    note = "relative max-norm gap between direct and cascade outputs"
    return _at_most("output_equivalence", gap / scale if scale > 0 else gap, 1e-2, note)


# ---------------------------------------------------------------------------
# built-in battery scenarios


def _battery_grid_norms() -> list[CheckResult]:
    exact_l2 = float(np.sqrt((np.e**2 - 1.0) / 2.0))
    exact_h1 = exact_l2  # derivative of e^x is e^x
    errs_l2 = []
    errs_h1 = []
    for nx in (20, 40):
        g = build_grid(nx, 0.5, 1.0)
        f = np.exp(g.nodes)
        errs_l2.append(abs(l2_norm(f, g) - exact_l2))
        errs_h1.append(abs(h1_seminorm(f, g) - exact_h1))
    l2_note = "trapezoid L2 error reduction per nx doubling (2nd order)"
    h1_note = "midpoint H1 seminorm error reduction per nx doubling (2nd order)"
    return [
        _interval_check("grid_l2_convergence", errs_l2[0] / errs_l2[1], 3.0, 5.0, l2_note),
        _interval_check("grid_h1_convergence", errs_h1[0] / errs_h1[1], 3.0, 5.0, h1_note),
    ]


def _battery_kernel() -> list[CheckResult]:
    g = build_grid(20, 0.005, 2.5)  # 10000 steps per pass
    q0 = np.sin(np.pi * g.nodes)
    state = init_leapfrog(q0, None, g)
    e0 = discrete_energy(state, g)
    # the free wave recurrence of run_homogeneous, a chunk at a time, read out
    # as its levels; column 0 of a chunk is the previous chunk's last level, so
    # each of the n level pairs has its energy taken once, and a chunk's levels
    # are one chain, each level's gradient taken once
    S, trace_row = _wave_parts(g)
    nx1, n = g.nx + 1, g.n_steps_per_pass
    free, u_rows = np.zeros((len(S), 0)), _from_velocity_basis(np.eye(len(S)), g).u_curr
    x = _to_velocity_basis(state, g)
    drift = 0.0
    for start in range(0, n, _ENERGY_CHUNK):
        m = min(_ENERGY_CHUNK, n - start)
        levels = np.empty((nx1, m + 1))
        x = _run_recurrence(S, free, u_rows, x, np.zeros(m + 1), levels)
        e = discrete_energy(levels, g)
        drift = max(drift, float(np.max(np.abs(e - e0))) / e0)
    # forward n steps (the drift loop's), turn, backward n steps must reproduce
    # the start; only the end state of the backward leg is read, so it reads out no rows
    back = _to_velocity_basis(reversed_state(_from_velocity_basis(x, g), g), g)
    x = _run_recurrence(S, free, trace_row[:0], back, np.zeros(n + 1), np.empty((0, n + 1)))
    rt = float(np.max(np.abs(_from_velocity_basis(x, g).u_curr - q0)))
    # order of accuracy against the closed-form mode, generic sampling time
    errs = []
    for nx in (20, 40):
        gg = build_grid(nx, 0.005, 1.3)
        qq = np.sin(np.pi * gg.nodes)
        fin, _ = run_homogeneous(qq, gg, gg.n_steps_per_pass)
        exact = np.sin(np.pi * gg.nodes) * np.cos(np.pi * gg.T)
        errs.append(float(np.max(np.abs(fin.u_curr - exact))))
    drift_note = "relative drift of the conserved discrete energy over 1e4 steps"
    rt_note = "max-norm round-trip error after 1e4 forward + 1e4 backward steps"
    order_note = "max-norm field error reduction per nx doubling vs the modal solution"
    return [
        _at_most("kernel_energy_conservation", drift, 1e-10, drift_note),
        _at_most("kernel_reversibility", rt, 1e-12, rt_note),
        _interval_check("kernel_convergence_order", errs[0] / errs[1], 3.0, 5.0, order_note),
    ]


def _battery_equivalence() -> list[CheckResult]:
    out = []
    gaps_w1 = []
    # each (nx, omega) output pair is synthesized once; (20, 1) serves both
    # checks. The cascade's free wave does not depend on omega, so it runs
    # once per grid, and its trace drives the oscillator at the other omega
    for nx, omegas in ((20, (0.0, 1.0)), (40, (1.0,))):
        g = build_grid(nx, 0.005, 3.0)
        q = np.sin(np.pi * g.nodes)
        q[0] = q[-1] = 0.0
        trace = None
        for omega in omegas:
            y = simulate_forward(q, omega, g).y
            if trace is None:
                cascade = simulate_cascade(q, omega, g)
                trace, Y = cascade.trace, cascade.Y
            else:
                Y = oscillator_drive(ZERO_OSC, trace, omega, g.dt)[:, 0]
            entry = equivalence_report(y, Y)
            if omega == 1.0:
                gaps_w1.append(entry.value)
            if nx == 20:
                out.append(replace(entry, name=f"output_equivalence_w{int(omega)}"))
    note = "equivalence gap reduction per nx doubling (omega=1)"
    out.append(
        _interval_check("output_equivalence_refinement", gaps_w1[0] / gaps_w1[1], 3.0, 5.0, note)
    )
    return out


def _battery_hidden_regularity() -> list[CheckResult]:
    # homogeneous boundary data, q0 = sin(pi x), T = 2: the exact ratio is 1/4
    g = build_grid(20, 0.005, 2.0)
    q0 = np.sin(np.pi * g.nodes)
    q0[0] = q0[-1] = 0.0
    _, tr = run_homogeneous(q0, g, g.n_steps_per_pass)
    f = np.zeros_like(tr)
    r = observer.hidden_regularity_ratio(f, q0, np.zeros_like(q0), tr, g.T, g)
    err = abs(r - 0.25)
    return [
        CheckResult(
            name="hidden_regularity_analytic",
            value=r,
            threshold=1.0,
            passed=err <= 1e-2 and r <= 1.0,
            note="trace-bound ratio for the free sine mode; exact value 0.25",
        )
    ]


def _battery_observer_run() -> list[CheckResult]:
    # reduced back-and-forth scenario: the reference scenario, coarser in time
    cfg = ScenarioConfig(cfl=0.02, iterations=8)
    g = cfg.grid()
    q = cfg.q_true(g)
    y = simulate_forward(q, cfg.omega, g)
    res = run_back_and_forth(y, cfg.gains(), cfg.omega, g, cfg.iterations, q_true=q)
    rel = res.per_cycle["l2_err"][-1] / l2_norm(q, g)
    note = f"relative L2 estimate error after {cfg.iterations} reduced-scenario iterations"
    return [*run_level_checks(res.history), _at_most("reconstruction_smoke", rel, 0.40, note)]


_BATTERY_GROUPS = {
    "grid": _battery_grid_norms,
    "kernel": _battery_kernel,
    "equivalence": _battery_equivalence,
    "hidden": _battery_hidden_regularity,
    "observer": _battery_observer_run,
}


def run_verify_battery(groups: list[str] | None = None) -> DiagnosticsReport:
    """Run the built-in checks in this process, all groups by default.

    groups selects a subset by name (grid, kernel, equivalence, hidden,
    observer), run in the order given, each named once, since the check
    names key the report's rows; an empty selection yields an empty,
    vacuously passing report.
    """
    names = list(_BATTERY_GROUPS) if groups is None else groups
    unknown = set(names) - set(_BATTERY_GROUPS)
    if unknown:
        raise ValueError(f"unknown battery groups: {sorted(unknown)}")
    repeated = {name for name in names if names.count(name) > 1}
    if repeated:
        raise ValueError(f"repeated battery groups: {sorted(repeated)}")
    rows = []
    for name in names:
        rows += _BATTERY_GROUPS[name]()
    return DiagnosticsReport(rows)
