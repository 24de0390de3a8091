import time

import pytest
from hypothesis import HealthCheck, settings

from bfwave import ScenarioConfig, add_noise, l2_norm, run_back_and_forth, simulate_forward
from bfwave.scenarios import minimal_horizon_scenario

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
    cfg = minimal_horizon_scenario(T=2.0)
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


def pytest_addoption(parser):
    parser.addoption(
        "--skip-slow", action="store_true", default=False, help="skip the long reference runs"
    )


def pytest_collection_modifyitems(config, items):
    if not config.getoption("--skip-slow"):
        return
    marker = pytest.mark.skip(reason="--skip-slow given")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(marker)
