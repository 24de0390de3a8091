"""bfwave benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (src/bfwave and BENCHMARK.json).
Set-up writes the workload's configs. The run times fresh interpreters that
import bfwave.cli, load the config and build the grid (setup_s), before and
again after one fresh worker interpreter (perfbench/worker.py) that runs the
workload's CLI operations for S seconds and checks each one's output. The metric names and
units are those of BENCHMARK.json: its end_to_end list with --trace 0, its
per_layer list with --trace 1. Human-readable lines come first; the last
line of standard output is the JSON result. Everything the run writes stays
under .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

# a run must end within 180 s; leave room for set-up and reporting
DEADLINE_S = 170.0
# set-up is timed this many times before the worker and again after it, so
# its median spans the run's changes of host speed
SETUP_REPEATS = 6
SETUP_PROBE = "import sys, bfwave.cli as c; c.load_config(sys.argv[1]).grid()"
# single-threaded BLAS: the workloads are single-process, and thread pools
# spinning on a 2-core box only add noise
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update({var: "1" for var in THREAD_VARS})
    return env


def measure_setup(config: Path, env: dict, warm_up: bool) -> list[float]:
    """Wall seconds of fresh interpreters importing the CLI and building the grid.

    With warm_up, one unmeasured start first, so bytecode compilation and a
    cold file cache, which users do not pay on every invocation, stay out of
    the figure.
    """
    times = []
    for k in range(-1 if warm_up else 0, SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(config)], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        if k >= 0:
            times.append(elapsed)
    return times


def run_worker(args, work: Path, env: dict, budget: float) -> dict:
    result = work / "worker_result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--result", str(result)]
    with open(work / "worker.log", "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=budget)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
            raise BenchmarkError(f"worker did not finish within {budget:.0f} s") from None
    if proc.returncode != 0 or not result.is_file():
        tail = (work / "worker.log").read_text()[-3000:]
        raise BenchmarkError(f"worker exited with {proc.returncode}:\n{tail}")
    return json.loads(result.read_text())


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; do not pick up an enclosing repository
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(versions: dict, env: dict) -> dict:
    return {
        **versions,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "blas_threads": {var: env.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


def accuracy(workload: str, ops: list[dict], probe: dict | None) -> dict:
    """Accuracy figures of the run's checked outputs (missing ones left out)."""
    good = [r["accuracy"] for r in ops if r["ok"]]
    acc = {}
    if workload == "invert_batch":
        first = {}
        for a in good:
            first.setdefault(a["measurement"], a["rel_l2_err"])
        if len(first) == W.INVERT_BATCH:
            acc["rel_l2_err"] = statistics.median(first.values())
        if probe is not None and probe["ok"]:
            acc.update(probe["accuracy"])
    elif good:
        acc.update(good[0])
    return acc


def end_to_end(workload: str, res: dict, setup: list[float], failed_ratio: float) -> dict:
    untraced = [r for r in res["ops"] if not r["traced"]]
    return {
        "op_norm": statistics.median(r["norm"] for r in untraced),
        "op_s": statistics.median(r["seconds"] for r in untraced),
        "slice_us": 1e6 * statistics.median(r["slice_s"] for r in untraced),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
        "ops_ok_ratio": 1.0 - failed_ratio,
        "ops_failed_ratio": failed_ratio,
        **accuracy(workload, res["ops"], res["probe"]),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.perf_counter()

    if not (ROOT / "src" / "bfwave" / "cli.py").is_file():
        print(f"no bfwave sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfgs = W.configs(args.workload, args.seed)
    for fname, cfg in cfgs.items():
        (work / fname).write_text(json.dumps(cfg, indent=1))
    env = child_env()

    try:
        setup_config = work / next(iter(cfgs))
        setup = [] if args.trace else measure_setup(setup_config, env, warm_up=True)
        # leave room for the set-up timings after the worker
        reserve = 2 * SETUP_REPEATS * max(setup, default=0.0) + 5.0
        budget = DEADLINE_S - reserve - (time.perf_counter() - t_start)
        res = run_worker(args, work, env, budget)
        if not args.trace:
            setup += measure_setup(setup_config, env, warm_up=False)
    except BenchmarkError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    everything = res["ops"] + ([res["probe"]] if res["probe"] else [])
    failed = sum(not r["ok"] for r in everything)
    if args.trace:
        values = res["per_layer"]
    else:
        values = end_to_end(args.workload, res, setup, failed / len(everything))
    complete = all(m["name"] in values for m in listed)
    # a metric the failed operations could not produce reads 0; correct is false then
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in listed}
    env_record = environment(res["versions"], env)

    label = f"{args.workload} seed={args.seed} trace={args.trace}"
    times = [round(r["seconds"], 3) for r in res["ops"]]
    print(f"{label}: {len(everything)} operations, {failed} failed; op seconds {times}")
    for r in everything:
        if not r["ok"]:
            print(f"{label}: failed operation: {r['reason']}")
    for name, m in metrics.items():
        print(f"{label}: {name} = {m['value']:.6g} {m['unit']}")
    for name in sorted(values.keys() - metrics.keys()):
        print(f"{label}: {name} = {values[name]:.6g} (not in BENCHMARK.json)")
    if args.trace:
        own = res["self_s"]
        total = sum(own.values())
        print(f"{label}: self time by span, median traced operation "
              f"(sum {total:.4g} s, cli.main.s {values['cli.main.s']:.4g} s):")
        for name, s in sorted(own.items(), key=lambda kv: -kv[1]):
            print(f"    {name:36s} {s:10.4g} s  {100 * s / total:5.1f} %")
        if res["trace_missing"]:
            print(f"{label}: names not found, their spans read 0: {res['trace_missing']}")
    print(f"{label}: env {json.dumps(env_record, sort_keys=True)}")

    out = {"correct": failed == 0 and complete, "attempted": len(everything), "failed": failed,
           "metrics": metrics}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env_record, "setup_s": setup, "worker": res, **out}, indent=1)
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
