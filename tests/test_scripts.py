"""The scripts under scripts/: each imports against the library, and the reference run writes its files."""

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from bfwave import ScenarioConfig, run_back_and_forth, simulate_forward

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.fixture
def own_path(monkeypatch):
    # each script puts its checkout's src/ first on sys.path; undo that afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_imports(script, own_path):
    # a library name that a script imports and that is gone fails here
    assert "main" in runpy.run_path(str(script), run_name="script_import")


def test_extended_reference_stepped_route(own_path):
    # the script's stepped route calls the library's observer step one time
    # node at a time, and its composed route (tests/half_pass.py) sweeps one
    # half-pass at a time; in float64 each agrees with the map route
    script = SCRIPTS[[p.name for p in SCRIPTS].index("extended_reference.py")]
    routes = runpy.run_path(str(script), run_name="script_import")
    cfg = ScenarioConfig(cfl=0.05)
    grid = cfg.grid()
    m = simulate_forward(cfg.q_true(grid), cfg.omega, grid)
    mapped = run_back_and_forth(m, cfg.gains(), cfg.omega, grid, 2).estimates[1:]
    stepped = routes["stepped_estimates"](m.y, cfg.gains(), cfg.omega, grid, 2, np.float64)
    composed = routes["half_pass_estimates"](m, cfg.gains(), cfg.omega, grid, 2)
    for est in (stepped, composed):
        assert est.shape == mapped.shape
        assert np.max(np.abs(est - mapped)) <= 1e-9 * np.max(np.abs(mapped))


def test_reference_scenario_file_set(tmp_path, own_path, monkeypatch):
    # the clean reference (ScenarioConfig's defaults): the full run's files and
    # the config it ran, no noisy measurement
    script = SCRIPTS[[p.name for p in SCRIPTS].index("run_reference_scenario.py")]
    main = runpy.run_path(str(script), run_name="script_import")["main"]
    monkeypatch.setattr(sys, "argv", [str(script), str(tmp_path)])
    assert main() == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json",
        "diagnostics.csv",
        "diagnostics.txt",
        "estimate_final.csv",
        "estimates.csv",
        "iterations.csv",
        "lyapunov.csv",
        "manifest.json",
        "measurement.csv",
    ]


def test_ab_inprocess_on_one_checkout(tmp_path, own_path, capsys):
    # the checkout against itself, each side imported as its own package:
    # same exit codes and the same CSV bytes
    script = SCRIPTS[[p.name for p in SCRIPTS].index("ab_inprocess.py")]
    main = runpy.run_path(str(script), run_name="script_import")["main"]
    root = str(script.parents[1])
    argv = [root, root, "--pairs", "2", "--work", str(tmp_path), "--", "verify", "--checks", "grid"]
    try:
        assert main([*argv, "--quiet"]) == 0
    finally:
        for name in [m for m in sys.modules if m.startswith(("bfwave_base", "bfwave_change"))]:
            del sys.modules[name]
    out = capsys.readouterr().out
    assert "change won" in out and "every CSV byte-identical in every pair" in out
    assert "per-pair ratio change/base quartiles" in out and "interquartile range" in out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["base", "change"]
