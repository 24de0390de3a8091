"""Measured part of one benchmark run, in a fresh single-process interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR --result FILE

Imports bfwave from the checkout's src/, prepares the workload's inputs in
DIR, then calls the public CLI entry point bfwave.cli.main in-process, one
operation after another, as long as the next one, at the median speed so
far, ends within S seconds, and at least until one whole batch has run.
Every operation's exit code and output files are checked. Untraced
operations carry the host-speed probe of speed.py. With --trace 1
operations alternate between untraced and traced, and the traced ones give
the per-layer metrics. The result (operation times and
checks, peak RSS, per-layer metrics, versions) goes to FILE as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bfwave  # noqa: E402
import bfwave.cli  # noqa: E402
import bfwave.diagnostics  # noqa: E402
import bfwave.observer  # noqa: E402
import scipy  # noqa: E402
from bfwave import add_noise, build_grid, simulate_forward  # noqa: E402
from bfwave.forward import write_measurement_csv  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# output checks


def read_columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CheckFailed(f"{path.name} is empty")
    header, body = rows[0], rows[1:]
    return {h: [r[j] for r in body] for j, h in enumerate(header)}


def read_checks(path: Path) -> dict[str, tuple[float, float, bool]]:
    """check name -> (value, threshold, passed); raises unless every row passes."""
    cols = read_columns(path)
    rows = {
        name: (float(v), float(t), p == "true")
        for name, v, t, p in zip(cols["check"], cols["value"], cols["threshold"], cols["pass"])
    }
    if not rows:
        raise CheckFailed(f"{path.name} has no rows")
    failing = [name for name, (_, _, ok) in rows.items() if not ok]
    if failing:
        raise CheckFailed(f"{path.name}: failing rows {failing}")
    return rows


def run_accuracy(rows: dict) -> dict[str, float]:
    """energy_residual and the Lyapunov jump from a check table."""
    energy, _, _ = rows["energy_identity"]
    jump, tol, _ = rows["lyapunov_decrease"]
    return {"energy_residual": energy, "lyapunov_jump": jump, "lyapunov_margin": tol - jump}


def reference_source(nx: int) -> np.ndarray:
    """q = x - x^2 on the nodes, computed here rather than taken from the program."""
    x = np.linspace(0.0, 1.0, nx + 1)
    q = x - x * x
    q[0] = q[-1] = 0.0
    return q


def rel_l2(q_hat: np.ndarray, q: np.ndarray) -> float:
    """Trapezoid-rule relative L2 error on the unit interval's nodes."""
    w = np.ones_like(q)
    w[0] = w[-1] = 0.5
    return math.sqrt(float(np.sum(w * (q_hat - q) ** 2)) / float(np.sum(w * q * q)))


def final_estimate_error(out: Path, nx: int, bound: float) -> float:
    q_hat = np.array([float(v) for v in read_columns(out / "estimate_final.csv")["q_hat"]])
    if q_hat.shape != (nx + 1,):
        raise CheckFailed(f"estimate has {q_hat.size} nodes, expected {nx + 1}")
    if not np.all(np.isfinite(q_hat)):
        raise CheckFailed("estimate is not finite")
    err = rel_l2(q_hat, reference_source(nx))
    if not err <= bound:
        raise CheckFailed(f"relative L2 error {err:.4g} above {bound}")
    return err


# ---------------------------------------------------------------------------
# workloads


class ReferenceFull:
    # a ~14 s operation: two samples per run even when both overrun S
    min_ops = 2

    def __init__(self, work: Path, seed: int):
        self.config = work / "reference.json"
        self.grid = build_grid(W.REFERENCE["nx"], W.REFERENCE["cfl"], W.REFERENCE["T"])

    def prepare(self) -> None:
        pass

    def argv(self, i: int) -> list[str]:
        return ["full", "--config", str(self.config), "--quiet"]

    def check(self, i: int, out: Path) -> dict:
        acc = run_accuracy(read_checks(out / "diagnostics.csv"))
        acc["rel_l2_err"] = final_estimate_error(out, self.grid.nx, W.REFERENCE_MAX_REL_ERR)
        with open(out / "measurement.csv") as fh:
            samples = sum(1 for _ in fh) - 1
        if samples != self.grid.n_steps_per_pass + 1:
            raise CheckFailed(f"measurement has {samples} samples")
        return acc

    def probe(self):
        return None


class InvertBatch:
    # one whole batch, so every measurement contributes to rel_l2_err
    min_ops = W.INVERT_BATCH

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.config = work / "invert.json"
        self.grid = build_grid(W.REFERENCE["nx"], W.REFERENCE["cfl"], W.REFERENCE["T"])
        self.measurements = [work / f"noisy{k}.csv" for k in range(W.INVERT_BATCH)]

    def prepare(self) -> None:
        q = reference_source(self.grid.nx)
        clean = simulate_forward(q, W.REFERENCE["omega"], self.grid)
        write_measurement_csv(clean, self.work / "clean.csv")
        for path, s in zip(self.measurements, W.noise_seeds(self.seed)):
            write_measurement_csv(add_noise(clean, W.INVERT_NOISE, s), path)

    def argv(self, i: int) -> list[str]:
        m = self.measurements[i % W.INVERT_BATCH]
        return ["invert", "--config", str(self.config), "--measurement", str(m), "--quiet"]

    def check(self, i: int, out: Path) -> dict:
        err = final_estimate_error(out, self.grid.nx, W.INVERT_MAX_REL_ERR)
        return {"rel_l2_err": err, "measurement": i % W.INVERT_BATCH}

    def probe(self):
        """Untimed clean, truth-monitored invert on the same grid and cycles.

        The blind inversions write no diagnostics, so the energy and
        Lyapunov figures of this workload come from here.
        """
        argv = ["invert", "--config", str(self.work / "probe.json"),
                "--measurement", str(self.work / "clean.csv"), "--quiet"]

        def check(out: Path) -> dict:
            return run_accuracy(read_checks(out / "diagnostics.csv"))

        return argv, check


class VerifyBattery:
    min_ops = 1

    def __init__(self, work: Path, seed: int):
        pass

    def prepare(self) -> None:
        pass

    def argv(self, i: int) -> list[str]:
        return ["verify", "--quiet"]

    def check(self, i: int, out: Path) -> dict:
        rows = read_checks(out / "verify.csv")
        acc = run_accuracy(rows)
        acc["rel_l2_err"] = rows["reconstruction_smoke"][0]
        return acc

    def probe(self):
        return None


WORKLOADS = {
    "reference_full": ReferenceFull,
    "invert_batch": InvertBatch,
    "verify_battery": VerifyBattery,
}


# ---------------------------------------------------------------------------
# tracing: which names are wrapped, and what each span keeps


def _steps(grid, n_steps) -> dict:
    return {"steps": int(n_steps), "nx": int(grid.nx)}


def _rbf_attrs(a, result) -> dict:
    grid, cycles = a["grid"], a["n_iterations"]
    attrs = _steps(grid, 2 * cycles * grid.n_steps_per_pass)
    attrs.update(cycles=cycles, monitored=a.get("q_true") is not None,
                 estimates=result.estimates)
    return attrs


def install_tracing(tracer: spans.Tracer) -> None:
    cli, obs, diag = bfwave.cli, bfwave.observer, bfwave.diagnostics
    grid_steps = lambda a, r: _steps(a["grid"], a["grid"].n_steps_per_pass)  # noqa: E731
    for mod in (cli, diag):
        tracer.wrap(mod, "run_back_and_forth", "observer.run_back_and_forth", _rbf_attrs)
        tracer.wrap(mod, "simulate_forward", "forward.simulate_forward", grid_steps)
    for mod in (obs, diag):
        tracer.wrap(mod, "run_homogeneous", "leapfrog.run_homogeneous",
                    lambda a, r: _steps(a["grid"], a["n_steps"]))
    tracer.wrap(obs, "run_plant_cycle", "observer.run_plant_cycle", grid_steps)
    tracer.wrap(diag, "simulate_cascade", "observer.simulate_cascade")
    tracer.wrap(diag, "step", "leapfrog.step", lambda a, r: _steps(a["grid"], 1))
    tracer.wrap(cli, "read_measurement_csv", "forward.csv_read")
    tracer.wrap(cli, "write_measurement_csv", "forward.csv_write")
    for attr in ("write_manifest", "write_iterations_csv", "write_estimate_csv",
                 "write_checks_csv", "write_lyapunov_csv"):
        tracer.wrap(cli, attr, "cli.write")
    tracer.wrap(cli, "_run_diagnostics", "diagnostics.run_checks")
    tracer.wrap(cli, "run_verify_battery", "diagnostics.verify")
    # the battery dispatches through its group table and compares against the
    # observer group's module name, so both bindings get the same wrapper
    groups = getattr(diag, "_BATTERY_GROUPS", None)
    if not isinstance(groups, dict):
        tracer.missing.add("bfwave.diagnostics._BATTERY_GROUPS")
        return
    for group, fn in groups.items():
        wrapped = tracer.wrapper(fn, f"diagnostics.verify.{group}")
        tracer.patch(groups, group, wrapped)
        if getattr(diag, "_battery_observer_run", None) is fn:
            tracer.patch(vars(diag), "_battery_observer_run", wrapped)


LAYER_TIMES = {
    "cli.main.s": "cli.main",
    "observer.run_plant_cycle.s": "observer.run_plant_cycle",
    "observer.simulate_cascade.s": "observer.simulate_cascade",
    "forward.simulate_forward.s": "forward.simulate_forward",
    "forward.csv_read.s": "forward.csv_read",
    "forward.csv_write.s": "forward.csv_write",
    "cli.write.s": "cli.write",
    "leapfrog.run_homogeneous.s": "leapfrog.run_homogeneous",
    "diagnostics.run_checks.s": "diagnostics.run_checks",
    **{f"diagnostics.verify.{g}.s": f"diagnostics.verify.{g}"
       for g in ("grid", "kernel", "equivalence", "hidden", "observer")},
}

# per stencil step: 7 flops and three (nx+1)-double arrays per interior update
FLOPS_PER_NODE = 7
BYTES_PER_NODE = 3 * 8


def layer_metrics(tracer: spans.Tracer, own: dict, op: int, record: dict, truth: np.ndarray):
    """Per-layer figures of one traced operation, and its self time by span name.

    own maps span index to self time (spans.self_times).
    """
    dur = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    steps = defaultdict(int)
    flops = nbytes = all_steps = 0
    converged = 0
    for i, s in enumerate(tracer.spans):
        if s[spans.OP] != op:
            continue
        name, a = s[spans.NAME], s[spans.ATTRS] or {}
        dur[name] += s[spans.END] - s[spans.START]
        self_s[name] += own[i]
        calls[name] += 1
        n = a.get("steps", 0)
        if name == "observer.run_back_and_forth":
            # the sweep's cost per step differs with and without truth monitoring
            mode = "observer.monitored" if a.get("monitored") else "observer.unmonitored"
            self_s[mode] += own[i]
            steps[mode] += n
            steps["observer.cycles"] += a.get("cycles", 0)
            if not converged and "estimates" in a:
                converged = cycles_to(a["estimates"], truth)
        else:
            steps[name] += n
        if n:
            flops += n * FLOPS_PER_NODE * (a["nx"] - 1)
            nbytes += n * BYTES_PER_NODE * (a["nx"] + 1)
            all_steps += n

    names = list(calls)

    def per_step_us(key: str) -> float:
        return 1e6 * self_s[key] / steps[key] if steps[key] else 0.0

    out = {metric: dur[name] for metric, name in LAYER_TIMES.items()}
    out.update({
        "cli.main.self_s": self_s["cli.main"],
        "observer.run_back_and_forth.self_s": self_s["observer.run_back_and_forth"],
        "observer.monitored.us_per_step": per_step_us("observer.monitored"),
        "observer.unmonitored.us_per_step": per_step_us("observer.unmonitored"),
        "observer.steps": steps["observer.monitored"] + steps["observer.unmonitored"],
        "observer.cycles": steps["observer.cycles"],
        "observer.cycles_to_5pct": converged,
        "observer.run_plant_cycle.steps": steps["observer.run_plant_cycle"],
        "forward.steps": steps["forward.simulate_forward"],
        "forward.us_per_step": per_step_us("forward.simulate_forward"),
        "leapfrog.step.calls": calls["leapfrog.step"],
        "leapfrog.step.us_per_call": (
            1e6 * dur["leapfrog.step"] / calls["leapfrog.step"] if calls["leapfrog.step"] else 0.0
        ),
        "leapfrog.run_homogeneous.steps": steps["leapfrog.run_homogeneous"],
        "leapfrog.flops_per_step.computed": flops / all_steps if all_steps else 0.0,
        "leapfrog.bytes_per_step.computed": nbytes / all_steps if all_steps else 0.0,
        "cli.files_written": record["files"],
        "cli.bytes_written": record["bytes"],
        "diagnostics.checks": record["checks"],
        "diagnostics.checks_failed": record["checks_failed"],
    })
    return out, {name: self_s[name] for name in names}


def cycles_to(estimates, truth: np.ndarray) -> int:
    """First cycle whose estimate is within CONVERGED_REL_ERR; 0 if none is."""
    for k, q_hat in enumerate(estimates[1:], start=1):
        if q_hat.shape == truth.shape and rel_l2(q_hat, truth) <= W.CONVERGED_REL_ERR:
            return k
    return 0


# ---------------------------------------------------------------------------
# operations


def output_counts(out: Path) -> dict:
    files = [p for p in out.rglob("*") if p.is_file()] if out.is_dir() else []
    counts = {"files": len(files), "bytes": sum(p.stat().st_size for p in files),
              "checks": 0, "checks_failed": 0}
    for table in ("diagnostics.csv", "verify.csv"):
        if (out / table).is_file():
            passed = read_columns(out / table).get("pass", [])
            counts["checks"] += len(passed)
            counts["checks_failed"] += sum(p != "true" for p in passed)
    return counts


def run_op(argv: list[str], check, out: Path, tracer: spans.Tracer | None) -> dict:
    """One CLI call, timed, then its exit code and outputs checked (untimed)."""
    shutil.rmtree(out, ignore_errors=True)
    argv = argv + ["--out", str(out)]
    rc = None
    # untraced operations carry the speed probe; traced ones do not, so its
    # slices never land in a span
    probe = speed.SpeedProbe() if tracer is None else None
    with probe or contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = bfwave.cli.main(argv)
            else:
                rc = tracer.root("cli.main", bfwave.cli.main, argv)
        except SystemExit as e:  # argparse rejects the arguments
            rc = e.code
        except Exception:  # the operation failed; the run goes on and counts it
            traceback.print_exc()
        t1 = time.perf_counter()
    seconds = t1 - t0
    record = {"seconds": seconds, "traced": tracer is not None, "ok": False, "reason": None,
              "accuracy": {}}
    if probe is not None:
        record["seconds"] = seconds = seconds - probe.inside(t0, t1)
        record["slice_s"] = probe.mean_slice()
        record["slices"] = len(probe.slices)
        record["norm"] = seconds / record["slice_s"]
    try:
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        record["accuracy"] = check(out)
        record["ok"] = True
    except (CheckFailed, OSError, ValueError, KeyError) as e:
        record["reason"] = f"{type(e).__name__}: {e}"
        print(f"operation {argv[0]} failed: {record['reason']}", file=sys.stderr)
    try:
        record.update(output_counts(out))
    except (OSError, KeyError, CheckFailed) as e:
        record.update(files=0, bytes=0, checks=0, checks_failed=0)
        print(f"cannot count outputs: {e}", file=sys.stderr)
    shutil.rmtree(out, ignore_errors=True)
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.work, args.seed)
    wl.prepare()
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        install_tracing(tracer)

    ops = []
    traced_ops = []
    min_ops = max(wl.min_ops, 2 if tracer else 1)
    t0 = time.perf_counter()
    while len(ops) < min_ops or (
        time.perf_counter() - t0 + statistics.median(r["seconds"] for r in ops) <= args.seconds
    ):
        i = len(ops)
        traced = tracer is not None and i % 2 == 1
        rec = run_op(wl.argv(i), lambda out, i=i: wl.check(i, out), args.work / "out",
                     tracer if traced else None)
        rec["index"] = i
        if traced:
            traced_ops.append((tracer.op, rec))
        ops.append(rec)

    probe = wl.probe()
    probe_rec = None
    if probe is not None:
        argv, check = probe
        probe_rec = run_op(argv, check, args.work / "probe_out", None)

    result = {
        "ops": ops,
        "probe": probe_rec,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "bfwave": bfwave.__version__,
        },
    }
    if tracer is not None:
        truth = reference_source(W.REFERENCE["nx"])
        own_by_span = spans.self_times(tracer)
        per_op, own = zip(*(layer_metrics(tracer, own_by_span, op, rec, truth)
                            for op, rec in traced_ops))
        layers = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
        names = set().union(*own)
        result["self_s"] = {k: statistics.median(o.get(k, 0.0) for o in own) for k in names}
        untraced = [r["seconds"] for r in ops if not r["traced"]]
        traced = [r["seconds"] for r in ops if r["traced"]]
        layers["tracing_overhead"] = statistics.median(traced) - statistics.median(untraced)
        result["per_layer"] = layers
        result["trace_missing"] = sorted(tracer.missing)
        tracer.dump(args.work / "spans.jsonl")
    tmp = args.result.with_suffix(".tmp")
    tmp.write_text(json.dumps(result, indent=1))
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
