#!/usr/bin/env python3
"""How far the CSVs of one output directory are from those of another.

    python scripts/output_gap.py A B

For every CSV that both directories hold (at the same relative path,
searched recursively), it prints one line: `identical` when the files are
byte for byte the same, else the largest relative difference
|b - a| / |a| over the cells that parse as numbers in both, with the row
(1 = the first row after the header) and the column where it occurs. A
cell that is zero in A and not in B counts as an infinite difference.
Below that line it prints every other cell that differs, such as a `pass`
value or a cell that is numeric on one side only, and a changed row count.
CSVs found in only one of the directories are listed at the end.

Directories kept by `scripts/output_digest.py out_dir` on two checkouts
are the intended input: the table tells whether a change moved the output
by rounding only.
"""

import csv
import math
import sys
from pathlib import Path


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as f:
        return list(csv.reader(f))


def _rel_gap(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def compare(a: Path, b: Path) -> list[str]:
    """The report lines for the CSV a against the CSV b."""
    if a.read_bytes() == b.read_bytes():
        return ["identical"]
    ra, rb = _rows(a), _rows(b)
    header = ra[0] if ra else []
    worst, where, other = 0.0, None, []
    for i, (row_a, row_b) in enumerate(zip(ra, rb)):
        for j in range(max(len(row_a), len(row_b))):
            ca = row_a[j] if j < len(row_a) else ""
            cb = row_b[j] if j < len(row_b) else ""
            if ca == cb:
                continue
            name = header[j] if j < len(header) else str(j)
            xa, xb = _number(ca), _number(cb)
            if i > 0 and xa is not None and xb is not None:
                gap = _rel_gap(xa, xb)
                if gap > worst or where is None:
                    worst, where = gap, (i, name)
            else:
                other.append(f"  row {i}, column {name}: {ca!r} -> {cb!r}")
    lines = ["numeric cells equal"]
    if where is not None:
        lines = [f"largest relative difference {worst:.2e} at row {where[0]}, column {where[1]}"]
    if len(ra) != len(rb):
        other.append(f"  rows: {len(ra) - 1} -> {len(rb) - 1}")
    return lines + other


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: output_gap.py A B", file=sys.stderr)
        return 2
    roots = [Path(d) for d in argv]
    found = [{p.relative_to(r).as_posix() for p in r.rglob("*.csv")} for r in roots]
    for rel in sorted(found[0] & found[1]):
        lines = compare(roots[0] / rel, roots[1] / rel)
        print(f"{rel}: {lines[0]}")
        for line in lines[1:]:
            print(line)
    for root, only in zip(argv, (found[0] - found[1], found[1] - found[0])):
        for rel in sorted(only):
            print(f"only in {root}: {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
