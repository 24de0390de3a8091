import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bfwave.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    cmd_full,
    cmd_invert,
    cmd_simulate,
    cmd_verify,
    config_to_dict,
    load_config,
    main,
    write_checks_csv,
    write_estimate_csv,
    write_iterations_csv,
    write_lyapunov_csv,
)
from bfwave.diagnostics import run_verify_battery
from bfwave.forward import read_measurement_csv, simulate_forward
from bfwave.grid import ScenarioConfig, SourceSpec
from bfwave.observer import run_back_and_forth


def write_config(path, **overrides):
    cfg = {
        "source": {"profile": "poly_paper"},
        "omega": 2.0,
        "T": 3.0,
        "nx": 20,
        "cfl": 0.02,
        "gamma1": 1.0,
        "gamma2": 0.5,
        "iterations": 2,
        "noise": 0.0,
        "seed": 42,
        "snapshot_stride": 1,
    }
    cfg.update(overrides)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        return header, list(r)


def snapshot_iterations(rows) -> list[int]:
    """The iterations of estimates.csv's rows, each once, in file order."""
    return list(dict.fromkeys(int(r[0]) for r in rows))


class TestConfig:
    def test_defaults(self, tmp_path):
        p = tmp_path / "c.json"
        with open(p, "w") as fh:
            json.dump({}, fh)
        cfg = load_config(p)
        assert cfg.omega == 2.0
        assert cfg.T == 3.0
        assert cfg.nx == 20
        assert cfg.cfl == 0.005
        assert cfg.gamma1 == 1.0 and cfg.gamma2 == 0.5
        assert cfg.iterations == 50
        assert cfg.seed == 42
        assert cfg.source == SourceSpec()

    def test_unknown_key_rejected(self, tmp_path):
        p = write_config(tmp_path / "c.json", bogus=1)
        with pytest.raises(ValueError):
            load_config(p)

    def test_malformed_json_exit_2(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        out = tmp_path / "out"
        assert cmd_simulate(p, out) == EXIT_CONFIG
        assert not out.exists()  # no partial outputs

    def test_rerun_from_manifest(self, tmp_path):
        p = write_config(tmp_path / "c.json", iterations=1)
        out = tmp_path / "out"
        assert cmd_simulate(p, out, quiet=True) == EXIT_OK
        cfg = load_config(out / "manifest.json")
        assert cfg.iterations == 1
        assert cfg.nx == 20


class TestSimulate:
    def test_row_count_and_oracle(self, tmp_path):
        p = write_config(tmp_path / "c.json", source={"profile": "sine_k", "k": 1}, omega=0.0)
        out = tmp_path / "out"
        assert cmd_simulate(p, out, quiet=True) == EXIT_OK
        header, rows = read_csv(out / "measurement.csv")
        assert header == ["t", "y"]
        assert len(rows) == 3001  # T/(cfl*dx) + 1 at cfl=0.02, T=3
        t = np.array([float(r[0]) for r in rows])
        y = np.array([float(r[1]) for r in rows])
        assert np.max(np.abs(y - (1.0 - np.cos(np.pi * t)) / np.pi)) <= 1e-2

    def test_noisy_variant_written(self, tmp_path):
        p = write_config(tmp_path / "c.json", noise=0.1)
        out = tmp_path / "out"
        assert cmd_simulate(p, out, quiet=True) == EXIT_OK
        assert (out / "measurement_noisy.csv").exists()
        assert (out / "manifest.json").exists()

    def test_source_required(self, tmp_path):
        p = write_config(tmp_path / "c.json", source=None)
        assert cmd_simulate(p, tmp_path / "out") == EXIT_CONFIG

    def test_out_dir_from_config(self, tmp_path):
        out = tmp_path / "configured_out"
        p = write_config(tmp_path / "c.json", out_dir=str(out))
        assert cmd_simulate(p, None, quiet=True) == EXIT_OK
        assert (out / "measurement.csv").exists()

    def test_missing_out_dir_exit_2(self, tmp_path):
        p = write_config(tmp_path / "c.json")
        assert cmd_simulate(p, None, quiet=True) == EXIT_CONFIG

    def test_reference_resolution_row_count(self, tmp_path):
        # defaults: nx=20, cfl=0.005, T=3 -> 12000 steps -> 12001 samples
        p = tmp_path / "c.json"
        with open(p, "w") as fh:
            json.dump({}, fh)
        out = tmp_path / "out"
        assert cmd_simulate(p, out, quiet=True) == EXIT_OK
        with open(out / "measurement.csv") as fh:
            assert sum(1 for _ in fh) == 12002  # header + 12001 rows


class TestInvert:
    def test_zero_measurement_zero_snapshots(self, tmp_path):
        p = write_config(tmp_path / "c.json", source=None, iterations=2)
        cfg = load_config(p)
        g = cfg.grid()
        mpath = tmp_path / "m.csv"
        with open(mpath, "w") as fh:
            fh.write("t,y\n")
            for k in range(g.n_steps_per_pass + 1):
                fh.write(f"{k * g.dt!r},0.0\n")
        out = tmp_path / "out"
        assert cmd_invert(p, mpath, out, quiet=True) == EXIT_OK
        _, rows = read_csv(out / "estimate_final.csv")
        assert all(float(r[1]) == 0.0 for r in rows)
        assert not (out / "diagnostics.csv").exists()  # no truth available

    def test_single_iteration_snapshots(self, tmp_path):
        p = write_config(tmp_path / "c.json", iterations=1)
        out_sim = tmp_path / "sim"
        assert cmd_simulate(p, out_sim, quiet=True) == EXIT_OK
        out = tmp_path / "inv"
        assert cmd_invert(p, out_sim / "measurement.csv", out, quiet=True) == EXIT_OK
        header, rows = read_csv(out / "estimates.csv")
        assert header == ["iter", "x", "q_hat", "q_true"]
        assert snapshot_iterations(rows) == [0, 1]
        assert (out / "diagnostics.csv").exists()

    def test_seed_flag_rejected(self, tmp_path):
        # invert draws no random numbers, so it takes no --seed
        p = write_config(tmp_path / "c.json")
        out = tmp_path / "inv"
        argv = ["invert", "--config", str(p), "--measurement", str(tmp_path / "m.csv")]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out), "--seed", "3"])
        assert exc.value.code == 2  # argparse's usage error
        assert not out.exists()

    def test_sampling_mismatch_exit_4(self, tmp_path):
        p = write_config(tmp_path / "c.json")
        mpath = tmp_path / "m.csv"
        mpath.write_text("t,y\n0.0,0.0\n0.1,0.0\n0.2,0.0\n")
        out = tmp_path / "out"
        assert cmd_invert(p, mpath, out) == EXIT_MISMATCH
        assert not out.exists()  # refused before the manifest

    def test_non_finite_sample_exit_4(self, tmp_path):
        p = write_config(tmp_path / "c.json", iterations=1)
        out_sim = tmp_path / "sim"
        assert cmd_simulate(p, out_sim, quiet=True) == EXIT_OK
        lines = (out_sim / "measurement.csv").read_text().splitlines()
        t, _ = lines[5].split(",")
        lines[5] = f"{t},nan"
        mpath = tmp_path / "m.csv"
        mpath.write_text("\n".join(lines) + "\n")
        out = tmp_path / "inv"
        assert cmd_invert(p, mpath, out, quiet=True) == EXIT_MISMATCH
        assert not (out / "estimate_final.csv").exists()

    def test_three_field_row_exit_4(self, tmp_path, capsys):
        # the refusal is the reader's own line, naming the row by its file line
        p = write_config(tmp_path / "c.json", iterations=1)
        assert cmd_simulate(p, tmp_path / "sim", quiet=True) == EXIT_OK
        lines = (tmp_path / "sim" / "measurement.csv").read_text().splitlines()
        lines[5] += ",0"
        mpath = tmp_path / "m.csv"
        mpath.write_text("\n".join(lines) + "\n")
        out = tmp_path / "inv"
        argv = ["invert", "--config", str(p), "--measurement", str(mpath), "--out", str(out)]
        assert main(argv) == EXIT_MISMATCH
        err = capsys.readouterr().err.splitlines()
        assert err == ["measurement error: measurement line 6 does not hold 2 numeric fields (t,y)"]
        assert "usecols" not in err[0]
        assert not out.exists()

    def test_time_offset_exit_4(self, tmp_path, capsys):
        # a copy of the measurement with every t shifted by +7 is refused:
        # its samples would invert as if taken from t = 0
        p = write_config(tmp_path / "c.json", iterations=1)
        assert cmd_simulate(p, tmp_path / "sim", quiet=True) == EXIT_OK
        header, *rows = (tmp_path / "sim" / "measurement.csv").read_text().splitlines()
        shifted = [f"{float(t) + 7.0!r},{y}" for t, y in (r.split(",") for r in rows)]
        mpath = tmp_path / "m.csv"
        mpath.write_text("\n".join([header, *shifted]) + "\n")
        out = tmp_path / "inv"
        assert cmd_invert(p, mpath, out, quiet=True) == EXIT_MISMATCH
        assert capsys.readouterr().err == "measurement error: measurement time starts at 7, not at 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["monitored", "blind"])
    def test_invert_message(self, tmp_path, capsys, source):
        # a monitored run ends its line with the last l2_err of iterations.csv
        p = write_config(tmp_path / "c.json", iterations=3)
        assert cmd_simulate(p, tmp_path / "sim", quiet=True) == EXIT_OK
        if source == "blind":
            p = write_config(tmp_path / "c.json", iterations=3, source=None)
        out = tmp_path / "inv"
        assert cmd_invert(p, tmp_path / "sim" / "measurement.csv", out) == EXIT_OK
        _, rows = read_csv(out / "iterations.csv")
        want = "3 iterations done"
        if source == "monitored":
            want += f", final L2 error {float(rows[-1][1]):.4g}"
        assert capsys.readouterr().out == want + "\n"

    def test_final_error_column(self, tmp_path):
        p = write_config(tmp_path / "c.json", iterations=4)
        out_sim = tmp_path / "sim"
        cmd_simulate(p, out_sim, quiet=True)
        out = tmp_path / "inv"
        assert cmd_invert(p, out_sim / "measurement.csv", out, quiet=True) == EXIT_OK
        header, rows = read_csv(out / "iterations.csv")
        assert header == ["iter", "l2_err", "h1_err", "lyapunov", "energy_residual"]
        errs = [float(r[1]) for r in rows]
        assert errs[-1] < errs[0]
        assert all(len(r) == 5 for r in rows)  # no timing column


class TestVerify:
    @pytest.mark.slow
    def test_verify_green_and_csv(self, tmp_path):
        out = tmp_path / "v"
        assert cmd_verify(out, quiet=True) == EXIT_OK
        header, rows = read_csv(out / "verify.csv")
        assert header == ["check", "value", "threshold", "pass"]
        assert all(r[3] == "true" for r in rows)
        assert (out / "verify.txt").exists()  # human-readable summary

    def test_empty_selection(self, tmp_path):
        out = tmp_path / "v"
        assert cmd_verify(out, quiet=True, checks="") == EXIT_OK
        header, rows = read_csv(out / "verify.csv")
        assert header == ["check", "value", "threshold", "pass"]
        assert rows == []

    def test_group_selection(self, tmp_path):
        out = tmp_path / "v"
        assert cmd_verify(out, quiet=True, checks="grid") == EXIT_OK
        _, rows = read_csv(out / "verify.csv")
        assert {r[0] for r in rows} == {"grid_l2_convergence", "grid_h1_convergence"}

    def test_unknown_group_exit_2(self, tmp_path):
        assert cmd_verify(tmp_path / "v", quiet=True, checks="nope") == EXIT_CONFIG

    def test_repeated_group_exit_2(self, tmp_path):
        # verify.csv's check names are its keys, so no group runs twice
        out = tmp_path / "v"
        argv = ["verify", "--out", str(out), "--checks", "grid,grid", "--quiet"]
        assert main(argv) == EXIT_CONFIG
        assert not out.exists()

    def test_seed_flag_rejected(self, tmp_path):
        # verify runs no seeded scenario, so it takes no --seed
        out = tmp_path / "v"
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--out", str(out), "--checks", "", "--seed", "3"])
        assert exc.value.code == 2  # argparse's usage error
        assert not out.exists()

    def test_jobs_flag_rejected(self, tmp_path):
        # the battery runs in one process, so verify takes no --jobs
        out = tmp_path / "v"
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--out", str(out), "--jobs", "2"])
        assert exc.value.code == 2  # argparse's usage error
        assert not out.exists()

    def test_inject_sign_error_flag_rejected(self, tmp_path):
        # a sign fault is a test fixture (conftest.py), not an option of the command
        out = tmp_path / "v"
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--out", str(out), "--inject-sign-error"])
        assert exc.value.code == 2  # argparse's usage error
        assert not out.exists()

    @pytest.mark.slow
    def test_verify_fault_injection_fails(self, tmp_path, sign_fault):
        out = tmp_path / "v"
        assert cmd_verify(out, quiet=True) == EXIT_CHECK_FAILED
        _, rows = read_csv(out / "verify.csv")
        failed = {r[0] for r in rows if r[3] == "false"}
        assert "lyapunov_decrease" in failed


class TestFull:
    def test_artifact_set_and_lyapunov(self, tmp_path):
        p = write_config(tmp_path / "c.json", iterations=1)
        out = tmp_path / "full"
        assert cmd_full(p, out, quiet=True) == EXIT_OK
        for name in (
            "manifest.json",
            "measurement.csv",
            "iterations.csv",
            "estimate_final.csv",
            "diagnostics.csv",
            "lyapunov.csv",
        ):
            assert (out / name).exists(), name
        header, rows = read_csv(out / "lyapunov.csv")
        assert header == ["iter", "V"]
        v = [float(r[1]) for r in rows]
        assert v[-1] < v[0]  # one noiseless cycle strictly decreases V
        iters = [float(r[0]) for r in rows]
        assert iters == [0.0, 0.5, 1.0]

    def test_main_entry(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.json", iterations=1)
        code = main(["full", "--config", str(p), "--out", str(tmp_path / "o"), "--quiet"])
        assert code == EXIT_OK

    def test_seed_override(self, tmp_path):
        p = write_config(tmp_path / "c.json", iterations=1, noise=0.1)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cmd_full(p, out_a, seed=7, quiet=True) == EXIT_OK
        assert cmd_full(p, out_b, seed=8, quiet=True) == EXIT_OK
        ya = (out_a / "measurement_noisy.csv").read_bytes()
        yb = (out_b / "measurement_noisy.csv").read_bytes()
        assert ya != yb

    def test_rerun_from_manifest_bitwise(self, tmp_path):
        p = write_config(tmp_path / "c.json", iterations=1, noise=0.1)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cmd_full(p, out_a, quiet=True) == EXIT_OK
        assert cmd_full(out_a / "manifest.json", out_b, quiet=True) == EXIT_OK
        for f in sorted(out_a.glob("*.csv")):
            assert (out_b / f.name).read_bytes() == f.read_bytes(), f.name


class TestExitCodes:
    def test_io_error_unwritable_out(self, tmp_path):
        p = write_config(tmp_path / "c.json", iterations=1)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert cmd_simulate(p, blocker / "out") == EXIT_IO
        assert cmd_full(p, blocker / "out") == EXIT_IO

    def test_io_error_missing_measurement(self, tmp_path):
        p = write_config(tmp_path / "c.json")
        assert cmd_invert(p, tmp_path / "nope.csv", tmp_path / "out") == EXIT_IO

    def test_malformed_measurement_exit_4(self, tmp_path):
        p = write_config(tmp_path / "c.json")
        m = tmp_path / "m.csv"
        m.write_text("t,y\n0,abc\n")
        out = tmp_path / "out"
        assert cmd_invert(p, m, out) == EXIT_MISMATCH
        assert not out.exists()

    @pytest.mark.parametrize("bad", [{"nx": 2}, {"gamma1": -1.0}, {"source": {"profile": "x"}}])
    def test_bad_grid_gains_or_source_exit_2(self, tmp_path, bad):
        # refused before the manifest, as a resonant omega is
        p = write_config(tmp_path / "c.json", **bad)
        out = tmp_path / "out"
        assert cmd_full(p, out, quiet=True) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad",
        [
            {"T": float("inf")},
            {"gamma1": float("inf")},
            {"noise": float("inf")},
            {"source": {"profile": "modes", "coeffs": [1.0, float("inf")]}},
            {"nx": float("inf")},
            {"iterations": float("inf")},
            {"snapshot_stride": float("inf")},
            {"seed": float("inf")},
            {"source": {"profile": "sine_k", "k": float("inf")}},
        ],
        ids=["T", "gamma1", "noise", "coeffs", "nx", "iterations", "snapshot_stride", "seed", "k"],
    )
    def test_non_finite_value_exit_2(self, tmp_path, bad):
        # JSON's Infinity reaches the validators; none may overflow or run to NaN
        p = write_config(tmp_path / "c.json", **bad)
        assert "Infinity" in p.read_text()
        out = tmp_path / "out"
        out.mkdir()
        assert main(["full", "--config", str(p), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "bad",
        [
            {"omega": 1.7e308},
            {"omega": 10**160},
            {"T": 1e308},
            {"T": 10**400},
            {"cfl": 5e-324},
            {"omega": 1e8},
            {"omega": 1e9},
            {"omega": 1e20},
            {"omega": 1e80, "cfl": 0.05},
            {"omega": 1e100},
            {"nx": 10**400},
            {"source": {"profile": "sine_k", "k": 10**400}},
            {"iterations": 10**400},
            {"iterations": 10**300},
        ],
        ids=[
            "omega_squared",
            "int_omega_squared",
            "T_steps",
            "int_T",
            "cfl_steps",
            "omega_1e8",
            "omega_1e9",
            "omega_1e20",
            "omega_1e80",
            "omega_1e100",
            "int_nx",
            "int_k",
            "int_iterations",
            "iterations_rows",
        ],
    )
    def test_overflowing_value_exit_2(self, tmp_path, capsys, bad):
        # finite values whose square or step count is not: omega^2 = inf would
        # never end the propagator's halving, and T / (cfl dx) overflows or
        # divides by a product that underflows to zero; JSON integers past
        # float64's range are refused the same way. From |omega| = 2^26 up,
        # floats lie further apart than the resonance tolerance, so the
        # resonance check cannot decide: 1e8 and 1e9 ran, 1e20 and 1e100 were
        # refused as resonant by rounding, 1e80 wrote NaN estimates. 10**300
        # iterations would make 2 * 10**300 + 1 state rows, past numpy's dimensions
        p = write_config(tmp_path / "c.json", **bad)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["full", "--config", str(p), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert not any(out.iterdir())
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err

    def test_integer_past_the_digit_limit_exit_2(self, tmp_path, capsys):
        # json.load refuses an integer of more than 4,300 digits with a plain
        # ValueError, not a JSONDecodeError
        p = tmp_path / "c.json"
        p.write_text('{"iterations": 1' + "0" * 5000 + "}")
        out = tmp_path / "out"
        assert main(["full", "--config", str(p), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: malformed JSON"), err

    def test_omega_below_the_resolution_bound_runs(self, tmp_path):
        # 3e7 < 2^26: floats there lie 3.7e-9 apart, and the check resolves 1e-8
        p = write_config(tmp_path / "c.json", omega=3e7)
        out = tmp_path / "out"
        assert main(["full", "--config", str(p), "--out", str(out), "--quiet"]) == EXIT_OK
        assert_manifest_lists_directory(out)

    @pytest.mark.parametrize(
        "bad",
        [
            {"nx": 20.5},
            {"iterations": 2.5},
            {"snapshot_stride": True},
            {"seed": 4.2},
            {"seed": -1},
            {"source": {"profile": "sine_k", "k": 1.5}},
        ],
        ids=["nx", "iterations", "snapshot_stride", "seed", "negative_seed", "k"],
    )
    def test_non_integer_count_exit_2(self, tmp_path, bad):
        # an integer field is refused, not truncated or passed on to fail later
        p = write_config(tmp_path / "c.json", noise=0.1, **bad)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["full", "--config", str(p), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "bad",
        [
            {"cfl": True},
            {"gamma1": True},
            {"gamma2": True},
            {"T": True},
            {"omega": True},
            {"noise": False},
            {"source": {"profile": "modes", "coeffs": [1.0, True]}},
        ],
        ids=["cfl", "gamma1", "gamma2", "T", "omega", "noise", "coeffs"],
    )
    def test_boolean_real_exit_2(self, tmp_path, bad):
        # JSON's true and false are not the numbers 1 and 0; refused, not run
        # and recorded in the manifest as booleans
        p = write_config(tmp_path / "c.json", **bad)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["full", "--config", str(p), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert not any(out.iterdir())

    @pytest.mark.filterwarnings("error")  # the run overflows without a RuntimeWarning
    def test_blown_up_run_prints_one_line(self, tmp_path, capsys):
        # a blown-up run writing snapshots: its stderr is the one check line
        cases = {
            # the unstable cfl 0.9 run
            "unstable_cfl": (
                dict(cfl=0.9, iterations=2000, snapshot_stride=500),
                [0, 500, 1000, 1500, 2000],
            ),
            # a finite gain so large that the step's own matrices overflow
            "huge_gain": (dict(gamma1=1e308), [0, 1, 2]),
        }
        for name, (overrides, snapshots) in cases.items():
            p = write_config(tmp_path / f"{name}.json", **overrides)
            out = tmp_path / name
            argv = ["full", "--config", str(p), "--out", str(out), "--quiet"]
            assert main(argv) == EXIT_CHECK_FAILED, name
            err = capsys.readouterr().err
            assert err == "check failed: non-finite estimate or iteration report\n", name
            assert_manifest_lists_directory(out)
            _, rows = read_csv(out / "estimates.csv")
            assert snapshot_iterations(rows) == snapshots, name

    @pytest.mark.filterwarnings("error")  # the run overflows without a RuntimeWarning
    def test_non_finite_full_exit_1(self, tmp_path, capsys):
        # cfl 0.9 blows the monitored run up to inf/nan reports; the files
        # and the manifest are still written
        p = write_config(tmp_path / "c.json", cfl=0.9, iterations=2000, snapshot_stride=10**6)
        out = tmp_path / "out"
        assert cmd_full(p, out, quiet=True) == EXIT_CHECK_FAILED
        err = capsys.readouterr().err.splitlines()
        assert err == ["check failed: non-finite estimate or iteration report"]
        assert_manifest_lists_directory(out)
        _, rows = read_csv(out / "iterations.csv")
        assert rows[-1][1] == "inf"

    @pytest.mark.filterwarnings("error")  # the run overflows without a RuntimeWarning
    def test_non_finite_blind_invert_exit_1(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.json", cfl=0.9, snapshot_stride=10**6)
        assert cmd_simulate(p, tmp_path / "sim", quiet=True) == EXIT_OK
        blind = write_config(
            tmp_path / "b.json", cfl=0.9, iterations=4000, snapshot_stride=10**6, source=None
        )
        out = tmp_path / "out"
        m = tmp_path / "sim" / "measurement.csv"
        assert cmd_invert(blind, m, out, quiet=True) == EXIT_CHECK_FAILED
        assert capsys.readouterr().err.count("\n") == 1
        assert_manifest_lists_directory(out)
        _, rows = read_csv(out / "estimate_final.csv")
        assert "nan" in {q for _, q in rows}

    def test_finite_runs_exit_0(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.json", snapshot_stride=10**6)
        assert cmd_full(p, tmp_path / "full", quiet=True) == EXIT_OK
        blind = write_config(tmp_path / "b.json", source=None)
        m = tmp_path / "full" / "measurement.csv"
        assert cmd_invert(blind, m, tmp_path / "inv", quiet=True) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_negative_seed_option_exit_2(self, tmp_path):
        p = write_config(tmp_path / "c.json", noise=0.1)
        out = tmp_path / "out"
        out.mkdir()
        argv = ["full", "--config", str(p), "--out", str(out), "--seed", "-1", "--quiet"]
        assert main(argv) == EXIT_CONFIG
        assert not any(out.iterdir())


def assert_manifest_lists_directory(out):
    """The manifest names each file in out besides itself once, and was written after them."""
    manifest = out / "manifest.json"
    listed = [Path(p).name for p in json.loads(manifest.read_text())["outputs"]]
    others = [p for p in out.iterdir() if p != manifest]
    assert sorted(listed) == sorted(p.name for p in others)
    assert all(p.stat().st_mtime_ns <= manifest.stat().st_mtime_ns for p in others)


class TestSharedParser:
    """main parses with one parser per process; its calls share no parsed values."""

    def test_seed_option_not_kept(self, tmp_path):
        p = write_config(tmp_path / "c.json")
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "a"), "--seed", "5"]) == 0
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "b"), "--quiet"]) == 0
        seeds = [json.loads((tmp_path / d / "manifest.json").read_text())["seed_used"] for d in "ab"]
        assert seeds == [5, 42]

    def test_checks_option_not_kept(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path / "a"), "--checks", "grid", "--quiet"]) == 0
        assert main(["verify", "--out", str(tmp_path / "b"), "--quiet"]) == 0
        _, rows = read_csv(tmp_path / "b" / "verify.csv")
        assert [r[0] for r in rows] == [e.name for e in run_verify_battery().entries]

    def test_version_after_a_command(self, tmp_path, capsys):
        assert main(["verify", "--out", str(tmp_path / "v"), "--checks", "", "--quiet"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("bfwave ")


class TestManifest:
    """manifest.json is written last and lists every file the command wrote."""

    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_simulate(self, tmp_path, noise):
        p = write_config(tmp_path / "c.json", noise=noise)
        out = tmp_path / "out"
        assert cmd_simulate(p, out, quiet=True) == EXIT_OK
        assert_manifest_lists_directory(out)

    def test_invert(self, tmp_path):
        p = write_config(tmp_path / "c.json", iterations=1)
        out_sim = tmp_path / "sim"
        assert cmd_simulate(p, out_sim, quiet=True) == EXIT_OK
        out = tmp_path / "inv"
        assert cmd_invert(p, out_sim / "measurement.csv", out, quiet=True) == EXIT_OK
        assert_manifest_lists_directory(out)

    @pytest.mark.parametrize("iterations, stride", [(1, 1), (3, 2)])
    def test_full(self, tmp_path, iterations, stride):
        # stride 2 over 3 iterations writes snapshots 0, 2 and 3
        p = write_config(tmp_path / "c.json", iterations=iterations, snapshot_stride=stride)
        out = tmp_path / "full"
        assert cmd_full(p, out, quiet=True) == EXIT_OK
        assert_manifest_lists_directory(out)


class TestEstimatesCsv:
    """estimates.csv: a run's snapshots in one file, each cell the text of its own estimate file."""

    @pytest.mark.parametrize("blind", [False, True], ids=["monitored", "blind"])
    @pytest.mark.parametrize(
        "iterations, stride, snapshots",
        [(2, 1, [0, 1, 2]), (4, 3, [0, 3, 4])],
        ids=["stride1", "stride3_last_off_stride"],
    )
    def test_rows_are_the_snapshot_files(self, tmp_path, blind, iterations, stride, snapshots):
        p = write_config(tmp_path / "c.json", iterations=iterations, snapshot_stride=stride)
        assert cmd_simulate(p, tmp_path / "sim", quiet=True) == EXIT_OK
        m = tmp_path / "sim" / "measurement.csv"
        if blind:
            p = write_config(
                tmp_path / "b.json", iterations=iterations, snapshot_stride=stride, source=None
            )
        out = tmp_path / "out"
        assert cmd_invert(p, m, out, quiet=True) == EXIT_OK
        cfg = load_config(p)
        grid = cfg.grid()
        q_true = None if blind else cfg.q_true(grid)
        measurement = read_measurement_csv(m)
        result = run_back_and_forth(measurement, cfg.gains(), cfg.omega, grid, iterations)
        header = ["x", "q_hat"] + ([] if blind else ["q_true"])
        rows = {k: estimate_rows(grid.nodes, result.estimates[k], q_true) for k in snapshots}
        want = [[k, *row] for k in snapshots for row in rows[k]]
        ref = csv_writer_bytes(tmp_path / "ref.csv", ["iter", *header], want)
        assert (out / "estimates.csv").read_bytes() == ref
        # estimate_final.csv, cut from estimates.csv, is the last estimate's own file
        ref = csv_writer_bytes(tmp_path / "ref.csv", header, rows[snapshots[-1]])
        assert (out / "estimate_final.csv").read_bytes() == ref
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert str(out / "estimates.csv") in outputs
        assert str(out / "estimate_final.csv") in outputs

    def test_file_counts(self, tmp_path):
        # one file for all snapshots: the clean reference full writes 8 files
        # and a blind invert of its measurement 4, whatever the iteration count
        cfg = config_to_dict(ScenarioConfig())
        p = tmp_path / "ref.json"
        p.write_text(json.dumps(cfg))
        blind = tmp_path / "blind.json"
        blind.write_text(json.dumps(dict(cfg, source=None, iterations=10)))
        full, inv = tmp_path / "full", tmp_path / "inv"
        assert cmd_full(p, full, quiet=True) == EXIT_OK
        assert cmd_invert(blind, full / "measurement.csv", inv, quiet=True) == EXIT_OK
        assert len(list(full.iterdir())) == 8
        assert len(list(inv.iterdir())) == 4


def csv_writer_bytes(path, header, rows) -> bytes:
    """The bytes a csv.writer row loop writes for header and rows."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)
    return path.read_bytes()


def g17(v) -> str:
    return format(float(v), ".17g")


def estimate_rows(x, q_hat, q_true) -> list[list[str]]:
    """The '%.17g' cells x,q_hat[,q_true] of one estimate, one row per node."""
    cols = [x, q_hat] if q_true is None else [x, q_hat, q_true]
    return [list(map(g17, r)) for r in zip(*cols)]


@pytest.fixture(scope="module")
def short_runs():
    """A monitored and a blind 3-cycle run of one coarse measurement."""
    cfg = ScenarioConfig(cfl=0.05, iterations=3)
    grid = cfg.grid()
    q = cfg.q_true(grid)
    m = simulate_forward(q, cfg.omega, grid)
    runs = {
        name: run_back_and_forth(m, cfg.gains(), cfg.omega, grid, cfg.iterations, q_true=qt)
        for name, qt in (("monitored", q), ("blind", None))
    }
    return grid, q, runs


class TestCsvFormatting:
    """Each file formatted as one string holds the bytes of a csv.writer row loop."""

    def test_fmt_round_trips_doubles(self):
        # every writer formats a float cell as %.17g
        rng = np.random.default_rng(0)
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
            assert float("%.17g" % x) == x

    @pytest.mark.parametrize("with_truth", [False, True])
    def test_estimate_bytes(self, tmp_path, with_truth):
        # two snapshots of extreme cells, the final file cut from the last one's rows
        rng = np.random.default_rng(1)
        x = np.linspace(0.0, 1.0, 21)
        q_hat = rng.standard_normal((2, 21)) * 10.0 ** rng.integers(-300, 300, (2, 21))
        q_hat[:, :5] = [0.0, -0.0, np.nan, np.inf, 5e-324], [-np.inf, 1e-300, -0.0, 1.0, 0.1]
        q_true = x - x * x if with_truth else None
        iters, final = [0, 7], tmp_path / "final.csv"
        path = write_estimate_csv(tmp_path / "e.csv", x, q_hat, q_true, iters, final)
        header = ["x", "q_hat", "q_true"][: 2 if q_true is None else 3]
        rows = [estimate_rows(x, q, q_true) for q in q_hat]
        want = [[k, *row] for k, est in zip(iters, rows) for row in est]
        assert path.read_bytes() == csv_writer_bytes(tmp_path / "ref.csv", ["iter", *header], want)
        assert final.read_bytes() == csv_writer_bytes(tmp_path / "ref.csv", header, rows[-1])

    @pytest.mark.parametrize("run", ["monitored", "blind"])
    def test_iterations_bytes(self, tmp_path, short_runs, run):
        # the blind run's error cells are empty
        result = short_runs[2][run]
        path = write_iterations_csv(tmp_path / "i.csv", result)
        header = ["iter", "l2_err", "h1_err", "lyapunov", "energy_residual"]
        cycle = result.per_cycle
        rows = [
            [k] + ["" if cycle is None else g17(cycle[c][k]) for c in header[1:]]
            for k in range(len(result.estimates))
        ]
        assert path.read_bytes() == csv_writer_bytes(tmp_path / "ref.csv", header, rows)

    def test_lyapunov_bytes(self, tmp_path, short_runs):
        result = short_runs[2]["monitored"]
        path = write_lyapunov_csv(tmp_path / "l.csv", result)
        rows = [[g17(k / 2.0), g17(v)] for k, v in enumerate(result.history.lyapunov)]
        assert path.read_bytes() == csv_writer_bytes(tmp_path / "ref.csv", ["iter", "V"], rows)

    @pytest.mark.parametrize("groups", [["grid"], []])
    def test_verify_bytes(self, tmp_path, groups):
        # verify.csv, and diagnostics.csv through the same writer
        report = run_verify_battery(groups=groups)
        path, _ = write_checks_csv(tmp_path / "verify.csv", report)
        rows = [
            [e.name, g17(e.value), g17(e.threshold), str(e.passed).lower()] for e in report.entries
        ]
        header = ["check", "value", "threshold", "pass"]
        assert path.read_bytes() == csv_writer_bytes(tmp_path / "ref.csv", header, rows)


class TestResonance:
    @pytest.mark.parametrize("command", ["simulate", "invert", "full"])
    def test_resonant_omega_exit_2(self, tmp_path, capsys, command):
        p = write_config(tmp_path / "c.json", omega=np.pi)
        mpath = tmp_path / "m.csv"
        mpath.write_text("t,y\n0,0\n0.1,0\n")
        argv = [command, "--config", str(p), "--out", str(tmp_path / "out"), "--quiet"]
        if command == "invert":
            argv += ["--measurement", str(mpath)]
        assert main(argv) == EXIT_CONFIG
        assert "mode 1 frequency 1*pi" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_near_resonant_omega_accepted(self, tmp_path):
        p = write_config(tmp_path / "c.json", omega=2.0 * np.pi + 1e-6)
        assert load_config(p).omega == 2.0 * np.pi + 1e-6


class TestNoisyProvenance:
    def test_invert_tags_noisy_rows_as_full_does(self, tmp_path):
        # the noisy measurement file carries its provenance to invert
        p = write_config(tmp_path / "c.json", iterations=1, noise=0.1)
        out_full = tmp_path / "full"
        assert cmd_full(p, out_full, quiet=True) == EXIT_OK
        out_inv = tmp_path / "inv"
        assert cmd_invert(p, out_full / "measurement_noisy.csv", out_inv, quiet=True) == EXIT_OK
        summary = (out_inv / "diagnostics.txt").read_text()
        for row in ("lyapunov_decrease", "energy_identity", "second_energy_bound"):
            line = next(ln for ln in summary.splitlines() if f"] {row}:" in ln)
            assert line.endswith("[noisy measurement: informational]")
        for name in ("diagnostics.txt", "diagnostics.csv", "estimate_final.csv"):
            assert (out_inv / name).read_bytes() == (out_full / name).read_bytes(), name

    def test_clean_measurement_untagged(self, tmp_path):
        p = write_config(tmp_path / "c.json", iterations=1)
        out_sim = tmp_path / "sim"
        assert cmd_simulate(p, out_sim, quiet=True) == EXIT_OK
        assert (out_sim / "measurement.csv").read_bytes().startswith(b"t,y\r\n")
        out = tmp_path / "inv"
        assert cmd_invert(p, out_sim / "measurement.csv", out, quiet=True) == EXIT_OK
        assert "informational" not in (out / "diagnostics.txt").read_text()


def test_cli_import_loads_no_scipy():
    # loading scipy.linalg about doubles a fresh `bfwave` command's start-up,
    # and the package needs numpy alone: no module of it may load scipy; only
    # the tests and their oracle (tests/oracle.py) use it. hashlib stays out too:
    # importing it and a first blake2b call add 3.5 MB of peak memory
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import importlib, pkgutil, sys, bfwave\n"
        "for m in pkgutil.iter_modules(bfwave.__path__):\n"
        "    importlib.import_module('bfwave.' + m.name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'hashlib', '_hashlib')))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "[]"
