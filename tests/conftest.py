import importlib
import pkgutil
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import bfwave
from bfwave import ScenarioConfig, add_noise, l2_norm, run_back_and_forth, simulate_forward
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
    """A sign fault in the observer step: its new level takes the injection value negated at x=0.

    -x has the bits of -1.0 * x, so the one-step matrix S and input matrix B
    are those of the injection taken with a factor -1. _linear_parts keeps S
    and B per grid, gains and omega, so its cache is cleared on entry, lest
    it hand back the true S, and on exit, lest the flipped one reach later
    tests; leapfrog's store is keyed on the matrices' content and needs no
    clearing.
    """
    true_step = observer._observer_step

    def flipped_step(*system):
        step = true_step(*system)

        def flipped(*levels):
            u_prev, un, *rest = step(*levels)
            un[0] = -un[0]
            return (u_prev, un, *rest)

        return flipped

    monkeypatch.setattr(observer, "_observer_step", flipped_step)
    observer._linear_parts.cache_clear()
    yield
    observer._linear_parts.cache_clear()


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
