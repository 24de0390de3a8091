#!/usr/bin/env python3
"""sha256 of every file the CLI writes on four fixed runs.

Runs, in this process and in a temporary directory (or in the directory
given as the one argument, which must be new or empty and keeps the runs'
files):

* `bfwave full` on the clean reference scenario (50 monitored cycles);
* `bfwave full` on the reference scenario with 10 % noise;
* a blind `bfwave invert` (`"source": null`, 50 cycles) of the clean
  measurement that the first run wrote;
* `bfwave verify` (all groups, one process).

and prints one `<sha256>  <run>/<file>` line per output file, sorted, with
`manifest.json` left out (it holds a timestamp and the temporary paths).
Then one `manifest <run>: lists <k> of <m> files` line per run: m counts
the files the run left besides `manifest.json`, k those of them that the
manifest's `outputs` names (`manifest <run>: none` for `verify`, which
writes no manifest).

It then runs eight commands that must be refused (malformed config JSON, a
resonant omega, a non-finite gain, a measurement that does not fill one
pass, a non-finite sample, a measurement row of three fields, a blank
measurement row, an unknown `verify` group) and prints one
`refused <case>: exit <code>, <k> files` line each, k counting every file
the command left in its output directory.

Two checkouts that print the same lines write the same files byte for byte
and refuse the same inputs the same way:

    python scripts/output_digest.py > digests.txt
    python scripts/output_digest.py runs/ > digests.txt   # keep the files

`scripts/output_gap.py` compares the CSVs of two such kept directories.

The package is imported from the `src/` directory next to this script, so
the script measures the checkout it sits in, installed or not.
"""

import hashlib
import json
import math
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bfwave.cli import config_to_dict, main as cli_main  # noqa: E402
from bfwave.grid import ScenarioConfig  # noqa: E402


def _config(path: Path, noise: float, blind: bool = False) -> str:
    cfg = config_to_dict(ScenarioConfig(noise=noise))
    if blind:
        cfg["source"] = None
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return str(path)


def _refusals(root: Path, clean_config: str, measurement: Path) -> list[tuple[str, list[str]]]:
    """(case, argv) of the refused runs; their inputs are written under root."""
    root.mkdir()
    bad_json = root / "malformed.json"
    bad_json.write_text("{not json")
    cfg = json.loads(Path(clean_config).read_text())
    resonant = root / "resonant.json"
    resonant.write_text(json.dumps(dict(cfg, omega=math.pi)))
    infinite = root / "infinite_gain.json"
    infinite.write_text(json.dumps(dict(cfg, gamma1=math.inf)))  # JSON's Infinity
    short = root / "short.csv"
    short.write_text("t,y\n0,0\n0.1,0\n0.2,0\n")
    lines = measurement.read_text().splitlines()

    def with_row_5(name: str, *rows: str) -> Path:
        """The measurement with its row 5 replaced by rows."""
        path = root / name
        path.write_text("\n".join(lines[:5] + list(rows) + lines[6:]) + "\n")
        return path

    nan = with_row_5("nan.csv", lines[5].split(",")[0] + ",nan")
    three = with_row_5("three_fields.csv", lines[5] + ",0")
    blank = with_row_5("blank_row.csv", "", lines[5])
    return [
        ("malformed_config", ["full", "--config", str(bad_json)]),
        ("resonant_omega", ["full", "--config", str(resonant)]),
        ("non_finite_gain", ["full", "--config", str(infinite)]),
        ("sampling_mismatch",
         ["invert", "--config", clean_config, "--measurement", str(short)]),
        ("non_finite_sample",
         ["invert", "--config", clean_config, "--measurement", str(nan)]),
        ("three_field_row",
         ["invert", "--config", clean_config, "--measurement", str(three)]),
        ("blank_row",
         ["invert", "--config", clean_config, "--measurement", str(blank)]),
        ("unknown_verify_group", ["verify", "--checks", "nope"]),
    ]


def _manifest_line(run: Path) -> str:
    """How many of the files in the run directory its manifest lists."""
    files = {p.name for p in run.iterdir() if p.is_file() and p.name != "manifest.json"}
    manifest = run / "manifest.json"
    if not manifest.exists():
        return f"manifest {run.name}: none"
    listed = {Path(p).name for p in json.loads(manifest.read_text())["outputs"]}
    return f"manifest {run.name}: lists {len(files & listed)} of {len(files)} files"


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: output_digest.py [out_dir]", file=sys.stderr)
        return 2
    if argv:
        Path(argv[0]).mkdir(parents=True, exist_ok=True)
        if any(Path(argv[0]).iterdir()):
            print(f"{argv[0]} is not empty", file=sys.stderr)
            return 2
    with nullcontext(argv[0]) if argv else tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        clean = _config(root / "clean.json", 0.0)
        noisy = _config(root / "noisy.json", 0.1)
        blind = _config(root / "blind.json", 0.0, blind=True)
        runs = [
            ["full", "--config", clean, "--out", str(root / "full_clean")],
            ["full", "--config", noisy, "--out", str(root / "full_noisy")],
            ["invert", "--config", blind, "--out", str(root / "invert_blind"),
             "--measurement", str(root / "full_clean" / "measurement.csv")],
            ["verify", "--out", str(root / "verify")],
        ]
        for argv in runs:
            code = cli_main(argv + ["--quiet"])
            if code != 0:
                print(f"bfwave {argv[0]} exited {code}", file=sys.stderr)
                return code
        files = sorted(
            p
            for p in root.rglob("*")
            if p.is_file() and p.parent != root and p.name != "manifest.json"
        )
        for p in files:
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
            print(f"{digest}  {p.relative_to(root).as_posix()}")
        print(f"{len(files)} files", file=sys.stderr)
        for argv in runs:
            print(_manifest_line(Path(argv[argv.index("--out") + 1])))
        refused = root / "refused"
        for case, argv in _refusals(refused, clean, root / "full_clean" / "measurement.csv"):
            out = refused / case
            code = cli_main(argv + ["--out", str(out), "--quiet"])
            written = sum(p.is_file() for p in out.rglob("*"))
            print(f"refused {case}: exit {code}, {written} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
