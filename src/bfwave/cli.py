"""Command-line front end: scenario runs, verification, CSV artifacts.

Commands: simulate (measurement synthesis), invert (estimator run on an
existing measurement), verify (built-in diagnostics battery), full
(simulate + invert + diagnostics in one go).

Exit codes: 0 success, 1 failed check (a verify row, or a non-finite
estimate or iteration report from invert or full, whose files are still
written), 2 config error (a run too large for memory included), 3 I/O
error, 4 unreadable measurement, sampling mismatch or non-finite samples.
A command checks its config and measurement (against
observer.pass_samples) and computes its results before it creates the
output directory, so exit 2 or 4 leaves no files;
_exit_codes is the one place where refusals become exit codes. The
writers return the paths they wrote, and simulate, invert and full write
manifest.json last, listing exactly those.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import DiagnosticsReport, run_level_checks, run_verify_battery
from .forward import (
    MeasurementRecord,
    _csv_rows,
    _write_csv,
    add_noise,
    read_measurement_csv,
    simulate_forward,
    write_measurement_csv,
)
from .grid import Grid1D, ScenarioConfig, source_spec_from_dict
from .observer import CYCLE_COLUMNS, BackAndForthResult, pass_samples, run_back_and_forth

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_MISMATCH = 4

_CONFIG_KEYS = {f.name for f in dataclasses.fields(ScenarioConfig)}


class ConfigError(ValueError):
    pass


class MeasurementError(ValueError):
    """An unreadable measurement file, or one that does not fill one pass of the grid."""


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except ValueError as e:  # a JSONDecodeError, or an integer past Python's 4,300 digits
        raise ConfigError(f"malformed JSON in {path}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if "tool" in raw and "config" in raw:  # a manifest reruns its own config
        raw = raw["config"]
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(raw)
    try:
        if "source" in kwargs:
            src = kwargs.pop("source")
            if src is None:
                kwargs["source"] = None  # explicit null: no truth profile
            elif isinstance(src, dict):
                kwargs["source"] = source_spec_from_dict(src)
            else:
                raise ConfigError("source must be an object or null")
        cfg = ScenarioConfig(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e
    return cfg


def config_to_dict(cfg: ScenarioConfig) -> dict:
    d = dataclasses.asdict(cfg)
    if cfg.source is not None and cfg.source.coeffs is not None:
        d["source"]["coeffs"] = list(cfg.source.coeffs)
    return d


def write_manifest(out_dir: Path, cfg: ScenarioConfig, command: str, inputs: list, outputs: list, seed: int):
    """manifest.json: the run's config, inputs and the files it wrote.

    Commands write it last, so its presence means the run finished.
    """
    manifest = {
        "tool": "bfwave",
        "version": __version__,
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed_used": seed,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "config": config_to_dict(cfg),
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def write_iterations_csv(path: Path, result: BackAndForthResult) -> Path:
    """One row per cycle: its index and per_cycle's values, empty cells for a blind run.

    The index is formatted with the values: '%.17g' writes an integral
    float below 2^53 as '%d' writes the integer.
    """
    header, cycles = ["iter", *CYCLE_COLUMNS], np.arange(len(result.estimates))
    if result.per_cycle is None:
        row = b"%d" + b"," * len(CYCLE_COLUMNS) + b"\r\n"
        return _write_csv(path, header, [row * len(cycles) % tuple(cycles.tolist())])
    return _write_csv(path, header, _csv_rows(cycles, *result.per_cycle.values()))


def write_estimate_csv(path: Path, x, q_hat: np.ndarray, q_true, iters, final: Path) -> Path:
    """Rows iter,x,q_hat[,q_true], one per node of each estimate q_hat[i], iteration iters[i].

    At final, the last estimate's own file, rows x,q_hat[,q_true], is cut
    from the last rows: every x, q_hat and q_true cell is the text the file
    of its estimate alone holds. q_true is None for a blind run. Returns path.
    """
    # iters are integral, so written as '%d' writes them
    cols = [np.repeat(iters, len(x)), np.tile(x, len(q_hat)), q_hat.ravel()]
    if q_true is not None:
        cols.append(np.tile(q_true, len(q_hat)))
    header = ["x", "q_hat", "q_true"][: len(cols) - 1]
    body = b"".join(_csv_rows(*cols))
    _write_csv(path, ["iter", *header], [body])
    last = body.split(b"\r\n")[-1 - len(x) : -1]  # the last estimate's rows, iter cell cut below
    _write_csv(final, header, [b"".join(row.partition(b",")[2] + b"\r\n" for row in last)])
    return path


def write_checks_csv(path: Path, report: DiagnosticsReport) -> tuple[Path, Path]:
    """The rows as CSV and, next to it, the human-readable summary; returns both paths."""
    values = np.array([(e.value, e.threshold) for e in report.entries], dtype=float)
    pairs = b"".join(_csv_rows(*values.reshape(-1, 2).T)).splitlines()
    rows = [
        b"%s,%s,%s\r\n" % (e.name.encode(), v, str(e.passed).lower().encode())
        for e, v in zip(report.entries, pairs)
    ]
    _write_csv(path, ["check", "value", "threshold", "pass"], rows)
    txt = path.with_suffix(".txt")
    with open(txt, "w") as fh:
        fh.write(report.summary())
        if report.entries:
            fh.write("\n")
    return path, txt


def write_lyapunov_csv(path: Path, result: BackAndForthResult) -> Path:
    V = result.history.lyapunov
    return _write_csv(path, ["iter", "V"], _csv_rows(np.arange(len(V)) / 2.0, V))


def _run_diagnostics(result: BackAndForthResult, noisy: bool) -> DiagnosticsReport:
    rows = run_level_checks(result.history)
    if noisy:
        # the decrease/balance rows are clean-data identities; with a noisy
        # measurement they describe the run but are not expected to hold
        rows = [
            dataclasses.replace(e, note=e.note + " [noisy measurement: informational]")
            for e in rows
        ]
    return DiagnosticsReport(rows)


def _exit_codes(command):
    """The one place where a refused command becomes its exit code and stderr line."""

    @functools.wraps(command)
    def run(*args, **kwargs) -> int:
        try:
            return command(*args, **kwargs)
        except ConfigError as e:
            print(f"config error: {e}", file=sys.stderr)
            return EXIT_CONFIG
        except MemoryError as e:  # numpy refuses an array past what the process can map
            print(f"config error: the run does not fit in memory: {e}", file=sys.stderr)
            return EXIT_CONFIG
        except MeasurementError as e:
            print(f"measurement error: {e}", file=sys.stderr)
            return EXIT_MISMATCH
        except OSError as e:
            print(f"I/O error: {e}", file=sys.stderr)
            return EXIT_IO

    return run


def _result_exit(result: BackAndForthResult) -> int:
    """EXIT_OK, or EXIT_CHECK_FAILED when the run's result is not finite.

    Checked: the final estimate and every value iterations.csv writes. The
    files are written either way; a failure prints one stderr line.
    """
    values = list((result.per_cycle or {}).values())
    if np.isfinite(result.estimates[-1]).all() and np.isfinite(values).all():
        return EXIT_OK
    print("check failed: non-finite estimate or iteration report", file=sys.stderr)
    return EXIT_CHECK_FAILED


@contextlib.contextmanager
def _refused_as(error: type[ValueError]):
    """Re-raise a library ValueError as the CLI error that names its cause."""
    try:
        yield
    except ValueError as e:
        raise error(str(e)) from e


def _setup(config_path, out_dir, seed: int | None = None, needs_source: str | None = None):
    """Config, output directory and seed of a command, all checked before any write.

    needs_source names the command when it cannot run without a source profile.
    """
    cfg = load_config(config_path)
    if needs_source and cfg.source is None:
        raise ConfigError(f"{needs_source} needs a source profile")
    if out_dir is None:
        if not cfg.out_dir:
            raise ConfigError("no output directory: pass --out or set out_dir in the config")
        out_dir = cfg.out_dir
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return cfg, Path(out_dir), cfg.seed if seed is None else seed


def _synthesize(
    cfg: ScenarioConfig, grid: Grid1D, seed: int
) -> list[tuple[str, MeasurementRecord]]:
    """The measurement files to write, by name: measurement.csv and, with noise,
    measurement_noisy.csv. The last is the measurement to invert."""
    measurement = simulate_forward(cfg.q_true(grid), cfg.omega, grid)
    files = [("measurement.csv", measurement)]
    if cfg.noise > 0:
        files.append(("measurement_noisy.csv", add_noise(measurement, cfg.noise, seed)))
    return files


def _invert(
    cfg: ScenarioConfig, grid: Grid1D, measurement: MeasurementRecord
) -> tuple[np.ndarray | None, BackAndForthResult]:
    """The config's source profile (None without one) and the estimator's run against it."""
    q_true = cfg.q_true(grid) if cfg.source is not None else None
    result = run_back_and_forth(
        measurement, cfg.gains(), cfg.omega, grid, cfg.iterations, q_true=q_true
    )
    return q_true, result


def _write_run(
    cfg: ScenarioConfig,
    grid: Grid1D,
    measurement: MeasurementRecord,
    q_true: np.ndarray | None,
    result: BackAndForthResult,
    out: Path,
    quiet: bool,
) -> list[Path]:
    """Write the estimator's files; returns their paths."""
    x, est = grid.nodes, result.estimates
    written = [write_iterations_csv(out / "iterations.csv", result)]
    last = len(est) - 1
    snapshots = [*range(0, last, cfg.snapshot_stride), last]
    final = out / "estimate_final.csv"  # the last snapshot is est[-1]
    path = write_estimate_csv(out / "estimates.csv", x, est[snapshots], q_true, snapshots, final)
    written += [path, final]
    if result.history is not None:
        noisy = measurement.provenance == "noisy"
        written.extend(write_checks_csv(out / "diagnostics.csv", _run_diagnostics(result, noisy)))
    if not quiet:
        msg = f"{cfg.iterations} iterations done"
        if result.per_cycle is not None:
            msg += f", final L2 error {result.per_cycle['l2_err'][-1]:.4g}"
        print(msg)
    return written


@_exit_codes
def cmd_simulate(config_path, out_dir=None, seed: int | None = None, quiet: bool = False) -> int:
    cfg, out, seed_used = _setup(config_path, out_dir, seed, needs_source="simulate")
    files = _synthesize(cfg, cfg.grid(), seed_used)
    out.mkdir(parents=True, exist_ok=True)
    written = [write_measurement_csv(m, out / name) for name, m in files]
    write_manifest(out, cfg, "simulate", [config_path], written, seed_used)
    if not quiet:
        print(f"wrote measurement ({len(files[-1][1].y)} samples) to {out}")
    return EXIT_OK


@_exit_codes
def cmd_invert(config_path, measurement_path, out_dir=None, quiet: bool = False) -> int:
    cfg, out, seed_used = _setup(config_path, out_dir)
    grid = cfg.grid()
    with _refused_as(MeasurementError):
        measurement = read_measurement_csv(measurement_path)
        pass_samples(measurement, grid)
    q_true, result = _invert(cfg, grid, measurement)
    out.mkdir(parents=True, exist_ok=True)
    written = _write_run(cfg, grid, measurement, q_true, result, out, quiet)
    write_manifest(out, cfg, "invert", [config_path, measurement_path], written, seed_used)
    return _result_exit(result)


@_exit_codes
def cmd_verify(out_dir, quiet: bool = False, checks: str | None = None) -> int:
    groups = None if checks is None else [c for c in checks.split(",") if c]
    with _refused_as(ConfigError):  # unknown group
        report = run_verify_battery(groups=groups)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_checks_csv(out / "verify.csv", report)
    if not quiet:
        print(report.summary())
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


@_exit_codes
def cmd_full(config_path, out_dir=None, seed: int | None = None, quiet: bool = False) -> int:
    cfg, out, seed_used = _setup(config_path, out_dir, seed, needs_source="full")
    t0 = time.perf_counter()
    grid = cfg.grid()
    files = _synthesize(cfg, grid, seed_used)
    measurement = files[-1][1]
    q_true, result = _invert(cfg, grid, measurement)
    out.mkdir(parents=True, exist_ok=True)
    written = [write_measurement_csv(m, out / name) for name, m in files]
    written += _write_run(cfg, grid, measurement, q_true, result, out, quiet)
    written.append(write_lyapunov_csv(out / "lyapunov.csv", result))
    write_manifest(out, cfg, "full", [config_path], written, seed_used)
    if not quiet:
        print(f"full run finished in {time.perf_counter() - t0:.1f}s, outputs in {out}")
    return _result_exit(result)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="bfwave", description=__doc__)
    parser.add_argument("--version", action="version", version=f"bfwave {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run(name: str, summary: str, seeded: bool = True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--out", default=None, help="output directory (default: config's out_dir)")
        if seeded:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true")
        return p

    add_run("simulate", "synthesize the measurement")
    # invert draws no random numbers, so it takes no --seed
    p_inv = add_run("invert", "run the estimator on a measurement CSV", seeded=False)
    p_inv.add_argument("--measurement", required=True, help="measurement CSV path")
    p_ver = sub.add_parser("verify", help="run the built-in diagnostics battery")
    p_ver.add_argument("--out", required=True, help="output directory")
    p_ver.add_argument("--quiet", action="store_true")
    p_ver.add_argument(
        "--checks",
        default=None,
        help="comma-separated battery groups (grid,kernel,equivalence,hidden,observer)",
    )
    add_run("full", "simulate + invert + diagnostics")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "simulate":
        return cmd_simulate(args.config, args.out, args.seed, args.quiet)
    if args.command == "invert":
        return cmd_invert(args.config, args.measurement, args.out, args.quiet)
    if args.command == "verify":
        return cmd_verify(args.out, args.quiet, checks=args.checks)
    return cmd_full(args.config, args.out, args.seed, args.quiet)


if __name__ == "__main__":
    sys.exit(main())
