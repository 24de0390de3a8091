#!/usr/bin/env python3
"""Time one `bfwave` command in two checkouts, alternating, in one process.

    python scripts/ab_inprocess.py BASE CHANGE [--pairs N] [--work DIR] -- COMMAND ARGS...

BASE and CHANGE are checkout roots; each one's `src/bfwave` is imported
as its own package (`bfwave_base`, `bfwave_change`), so both stay loaded
side by side. COMMAND ARGS are what `bfwave` would take, without `--out`:
each side writes to its own directory under DIR (a new temporary directory
by default), given as `--out`. Pass `--quiet` to keep the commands'
messages off stdout. Relative paths in ARGS are taken from the current
directory.

Each side runs the command once untimed, so kept set-up and lazy imports
are in place, then N pairs are timed, the side that goes first alternating.
After every pair the CSV files of the two output directories are compared
byte for byte (manifest.json holds a timestamp and the paths, so it is left
out). The script prints each side's median time with its quartiles and
interquartile range, the ratio of the medians (CHANGE over BASE), the
quartiles of the per-pair ratios, the pairs CHANGE won, and whether every
CSV either side wrote was byte identical in every pair. Within one process
the two sides share the host's speed at every moment, so BLAS-heavy
commands compare more steadily than in separate processes; pin BLAS to one
thread for timings (OPENBLAS_NUM_THREADS=1 and the like, set before the
run).

Exit status: 0 when the CSVs matched and both sides returned the same
exit codes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import filecmp
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path


def _load(root: Path, name: str):
    """The checkout's src/bfwave imported as the package name, with its cli."""
    pkg = root / "src" / "bfwave"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def _differing(a: Path, b: Path) -> list[str]:
    """CSV files present on one side only or with other bytes, as paths relative to a and b."""
    found = []
    names = {p.relative_to(d) for d in (a, b) for p in d.rglob("*.csv")}
    for rel in sorted(names):
        pa, pb = a / rel, b / rel
        if not (pa.is_file() and pb.is_file() and filecmp.cmp(pa, pb, shallow=False)):
            found.append(str(rel))
    return found


def _quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        usage="%(prog)s BASE CHANGE [--pairs N] [--work DIR] -- COMMAND ARGS...",
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("base", type=Path, help="checkout root of the base side")
    parser.add_argument("change", type=Path, help="checkout root of the changed side")
    parser.add_argument("--pairs", type=int, default=21, help="timed pairs (default 21)")
    parser.add_argument("--work", type=Path, default=None, help="directory for both sides' outputs")
    argv = sys.argv[1:] if argv is None else list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    args, command = parser.parse_args(argv[:cut]), argv[cut + 1 :]
    if not command or args.pairs < 1:
        parser.error("give a bfwave command after --, and at least one pair")
    work = args.work or Path(tempfile.mkdtemp(prefix="ab_inprocess_"))
    sides = {}  # label -> (the side's cli.main, its argv)
    for label, root in (("base", args.base), ("change", args.change)):
        cli_main = _load(root.resolve(), f"bfwave_{label}").main
        sides[label] = cli_main, [*command, "--out", str(work / label)]
    times = {label: [] for label in sides}
    codes = {label: set() for label in sides}
    mismatched = set()

    def call(label: str) -> float:
        run, argv_ = sides[label]
        t0 = time.perf_counter()
        codes[label].add(run(argv_))
        return time.perf_counter() - t0

    for label in sides:  # untimed: kept set-up and lazy imports in place
        call(label)
    for i in range(args.pairs):
        for label in ("base", "change") if i % 2 == 0 else ("change", "base"):
            times[label].append(call(label))
        mismatched.update(_differing(work / "base", work / "change"))
    base, change = (statistics.median(times[label]) for label in ("base", "change"))
    ratios = [c / b for b, c in zip(times["base"], times["change"])]
    won = sum(r < 1 for r in ratios)
    print(f"command: bfwave {' '.join(command)}; outputs in {work}")
    for label in sides:
        q1, med, q3 = (v * 1e3 for v in _quartiles(times[label]))
        print(
            f"{label:<6} median {med:.2f} ms, quartiles {q1:.2f} / {q3:.2f} ms"
            f" (interquartile range {q3 - q1:.2f} ms) over {args.pairs} timed calls"
        )
    print(f"ratio change/base {change / base:.3f}; change won {won} of {args.pairs} pairs")
    print("per-pair ratio change/base quartiles {:.3f} / {:.3f} / {:.3f}".format(*_quartiles(ratios)))
    print(f"exit codes: base {sorted(codes['base'])}, change {sorted(codes['change'])}")
    if mismatched:
        print(f"CSVs differ: {', '.join(sorted(mismatched))}")
    else:
        print("every CSV byte-identical in every pair")
    return 0 if not mismatched and codes["base"] == codes["change"] else 1


if __name__ == "__main__":
    sys.exit(main())
