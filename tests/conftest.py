import importlib
import pkgutil
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import bfwave
from bfwave import (
    Gains,
    ScenarioConfig,
    add_noise,
    build_grid,
    l2_norm,
    run_back_and_forth,
    simulate_forward,
)
from bfwave import leapfrog, observer

settings.register_profile(
    "numeric", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("numeric")


@pytest.fixture(scope="session")
def reference_cfg():
    return ScenarioConfig()


@pytest.fixture(scope="session")
def reference_run(reference_cfg):
    """Noiseless reference run with truth monitoring; reused by many tests."""
    cfg = reference_cfg
    grid = cfg.grid()
    q = cfg.q_true(grid)
    m = simulate_forward(q, cfg.omega, grid)
    t0 = time.perf_counter()
    res = run_back_and_forth(m, cfg.gains(), cfg.omega, grid, cfg.iterations, q_true=q)
    elapsed = time.perf_counter() - t0
    return dict(
        cfg=cfg, grid=grid, q=q, qn=l2_norm(q, grid), measurement=m, result=res, elapsed=elapsed
    )


@pytest.fixture(scope="session")
def reference_run_noisy():
    cfg = ScenarioConfig(noise=0.1)
    grid = cfg.grid()
    q = cfg.q_true(grid)
    m = add_noise(simulate_forward(q, cfg.omega, grid), cfg.noise, cfg.seed)
    res = run_back_and_forth(m, cfg.gains(), cfg.omega, grid, cfg.iterations, q_true=q)
    return dict(cfg=cfg, grid=grid, q=q, qn=l2_norm(q, grid), measurement=m, result=res)


@pytest.fixture(scope="session")
def minimal_horizon_run():
    """The observability horizon T = 2, with the stronger gains (4, 2) it needs."""
    cfg = ScenarioConfig(T=2.0, gamma1=4.0, gamma2=2.0)
    grid = cfg.grid()
    q = cfg.q_true(grid)
    m = simulate_forward(q, cfg.omega, grid)
    res = run_back_and_forth(m, cfg.gains(), cfg.omega, grid, cfg.iterations, q_true=q)
    return dict(cfg=cfg, grid=grid, q=q, qn=l2_norm(q, grid), result=res)


@pytest.fixture(scope="session")
def reduced_run():
    """Cheap monitored run (coarse dt) for driver/diagnostics tests."""
    cfg = ScenarioConfig(cfl=0.02, iterations=6)
    grid = cfg.grid()
    q = cfg.q_true(grid)
    m = simulate_forward(q, cfg.omega, grid)
    res = run_back_and_forth(m, cfg.gains(), cfg.omega, grid, cfg.iterations, q_true=q)
    return dict(grid=grid, q=q, qn=l2_norm(q, grid), measurement=m, result=res)


@pytest.fixture
def sign_fault(monkeypatch):
    """A sign fault in the observer step: its x=0 node takes the injection value negated.

    The x=0 velocity is recomputed from the flipped value, as the step
    computes it from the true one; -x has the bits of -1.0 * x, so the
    one-step matrix S and input matrix B are those of the injection taken
    with a factor -1. On one grid (nx 20, cfl 0.02) the faulty S and B are
    checked to differ from the true ones in rows 0 and nx+1 only, so a
    fixture that flips anything else fails. _linear_parts is kept per grid,
    gains and omega in leapfrog's store, by value, so the fixture runs on a
    store of its own, empty on entry, lest it hand back the true S, and
    gone on exit, lest the flipped one reach later tests; the store the
    tests had before comes back.
    """
    true_step = observer._observer_step

    def flipped_step(gains, omega, grid):
        step = true_step(gains, omega, grid)

        def flipped(x, *rest):
            xn, *advanced = step(x, *rest)
            xn[0] = -xn[0]
            xn[grid.nx + 1] = (xn[0] - x[0]) / grid.dt
            return (xn, *advanced)

        return flipped

    system = (Gains(1.0, 0.5), 2.0, build_grid(20, 0.02, 3.0))
    true_parts = observer._linear_parts(*system)[1:]
    monkeypatch.setattr(observer, "_observer_step", flipped_step)
    monkeypatch.setattr(leapfrog, "_store", {})
    monkeypatch.setattr(leapfrog, "_held", 0)
    for true, faulty in zip(true_parts, observer._linear_parts(*system)[1:]):
        rows = np.flatnonzero((true != faulty).any(axis=1))
        assert rows.tolist() == [0, system[2].nx + 1], rows


@pytest.fixture
def recurrence_shapes(monkeypatch):
    """The shape of S of every _run_recurrence call, spied on through every module's binding."""
    shapes = []
    run = leapfrog._run_recurrence

    def spied(S, *rest):
        shapes.append(np.shape(S))
        return run(S, *rest)

    for info in pkgutil.iter_modules(bfwave.__path__):
        module = importlib.import_module(f"bfwave.{info.name}")
        if getattr(module, "_run_recurrence", None) is run:
            monkeypatch.setattr(module, "_run_recurrence", spied)
    return shapes
