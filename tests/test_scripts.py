"""The scripts under scripts/: each imports against the library, and the reference run writes its files."""

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from bfwave import ScenarioConfig, leapfrog, run_back_and_forth, simulate_forward

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


def test_extended_reference_leaves_the_store_clean(own_path, monkeypatch):
    # the stepped route builds its observer step while observer._wave_parts
    # hands out S in long double; none of that reaches the kept store, so a
    # float64 run on the same system afterwards has the bits of a run on a
    # freshly reset store
    script = SCRIPTS[[p.name for p in SCRIPTS].index("extended_reference.py")]
    stepped = runpy.run_path(str(script), run_name="script_import")["stepped_estimates"]
    cfg = ScenarioConfig(nx=8, cfl=0.1)
    grid = cfg.grid()
    m = simulate_forward(cfg.q_true(grid), cfg.omega, grid)
    runs = []
    for long_double_first in (False, True):
        monkeypatch.setattr(leapfrog, "_store", {})
        monkeypatch.setattr(leapfrog, "_held", 0)
        if long_double_first:
            estimates = stepped(m.y, cfg.gains(), cfg.omega, grid, 1, np.longdouble)
            assert estimates.dtype == np.longdouble
        runs.append(run_back_and_forth(m, cfg.gains(), cfg.omega, grid, 2))
    fresh, after = runs
    assert after.estimates.tobytes() == fresh.estimates.tobytes()
    assert after.final_state.tobytes() == fresh.final_state.tobytes()


def test_extended_reference_cascade_section(own_path):
    # the cascade section on a short grid: both float64 routes, z1 and z2,
    # a rounding gap from the long-double stepped cascade
    script = SCRIPTS[[p.name for p in SCRIPTS].index("extended_reference.py")]
    gaps = runpy.run_path(str(script), run_name="script_import")["cascade_gaps"]
    cfg = ScenarioConfig(cfl=0.1)
    grid = cfg.grid()
    found = gaps(cfg.q_true(grid), cfg.omega, grid)
    assert sorted(found) == ["run_homogeneous + oscillator_drive", "simulate_cascade (folded)"]
    for z_gaps in found.values():
        assert z_gaps.shape == (2,)
        assert np.all(z_gaps <= 1e-13)


def test_convergence_study_tables(own_path, capsys):
    # the study reads run_homogeneous's end state and two outputs: each of its
    # three tables prints a row per resolution, each row after the first with
    # its ratio, which is about 4 for a second-order quantity
    script = SCRIPTS[[p.name for p in SCRIPTS].index("convergence_study.py")]
    runpy.run_path(str(script), run_name="script_import")["main"]()
    lines = capsys.readouterr().out.splitlines()
    titles = [i for i, line in enumerate(lines) if not line.startswith("  ")]
    assert [lines[i].split(" ")[0] for i in titles] == ["free", "output", "energy-balance"]
    assert [len(rows) for rows in np.split(lines, titles)[1:]] == [4, 4, 3]
    ratios = [float(line.split("  ratio ")[1]) for line in lines if "  ratio " in line]
    assert len(ratios) == 5 and all(3.0 <= r <= 5.0 for r in ratios)


def _write_csv(path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(",".join(row) + "\n" for row in rows))


def test_output_gap_table(tmp_path, own_path, capsys):
    # one CSV identical, one with a cell rounded, one with a pass cell
    # changed, and one on one side only: one report line each, and the
    # changed pass cell on its own line
    script = SCRIPTS[[p.name for p in SCRIPTS].index("output_gap.py")]
    main = runpy.run_path(str(script), run_name="script_import")["main"]
    a, b = tmp_path / "a", tmp_path / "b"
    header = ["name", "value", "threshold", "passed"]
    rows = [header, ["x", "0.25", "1", "true"], ["y", "0.12345678901234", "1", "true"]]
    for root in (a, b):
        _write_csv(root / "same.csv", rows)
    _write_csv(a / "sub" / "rounded.csv", rows)
    _write_csv(b / "sub" / "rounded.csv", [*rows[:2], ["y", "0.123457", "1", "true"]])
    _write_csv(a / "passed.csv", rows)
    _write_csv(b / "passed.csv", [rows[0], ["x", "0.25", "1", "false"], rows[2]])
    _write_csv(b / "extra.csv", rows)
    assert main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "passed.csv: numeric cells equal",
        "  row 1, column passed: 'true' -> 'false'",
        "same.csv: identical",
        "sub/rounded.csv: largest relative difference 1.71e-06 at row 2, column value",
        f"only in {b}: extra.csv",
    ]


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
