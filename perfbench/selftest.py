"""Self-test of the benchmark: one short run of each workload, traced and not.

    python3 perfbench/selftest.py

Checks that every run prints, as its last line, a result with exactly the
keys correct/attempted/failed/metrics; that the metrics are exactly those
BENCHMARK.json lists for the trace setting, each with its unit and a finite
value; that no operation failed; and that the end-to-end metrics are
non-zero. Finally checks that the benchmark refuses to run, without printing
a result, in a directory holding only BENCHMARK.json and the benchmark's
files. Exits 0 when every check holds. Takes about two minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    label = f"{workload} trace={trace}"
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if list(metrics) != [m["name"] for m in listed]:
        errors.append(f"{label}: metric names differ from BENCHMARK.json")
    for m in listed:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got["value"]
        if got["unit"] != m["unit"]:
            errors.append(f"{label}: {m['name']} has unit {got['unit']!r}, expected {m['unit']!r}")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            errors.append(f"{label}: {m['name']} = {value!r} is not a finite number")
        elif not trace and value == 0:
            errors.append(f"{label}: end-to-end metric {m['name']} reads 0")
    if not trace and metrics.get("ops_ok_ratio", {}).get("value") != 1.0:
        errors.append(f"{label}: ops_failed_ratio is not 0")
    print(f"{label}: {'ok' if not errors else 'FAILED'}", flush=True)
    return errors


def check_refuses_without_program() -> list[str]:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, "reference_full", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"refuses without the program: {'ok' if ok else 'FAILED'}", flush=True)
    return [] if ok else [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_refuses_without_program()
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors += check_run(spec, w["name"], trace)
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
