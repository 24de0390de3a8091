#!/usr/bin/env python3
"""sha256 of every file the CLI writes on four fixed runs.

Runs, in a temporary directory and in this process:

* `bfwave full` on the clean reference scenario (50 monitored cycles);
* `bfwave full` on the reference scenario with 10 % noise;
* a blind `bfwave invert` (`"source": null`, 50 cycles) of the clean
  measurement that the first run wrote;
* `bfwave verify` (all groups, one process).

and prints one `<sha256>  <run>/<file>` line per output file, sorted, with
`manifest.json` left out (it holds a timestamp and the temporary paths).
Two checkouts that print the same lines write the same files byte for byte:

    python scripts/output_digest.py > digests.txt

The package is imported from the `src/` directory next to this script, so
the script measures the checkout it sits in, installed or not.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bfwave.cli import config_to_dict, main as cli_main  # noqa: E402
from bfwave.scenarios import reference_scenario  # noqa: E402


def _config(path: Path, noise: float, blind: bool = False) -> str:
    cfg = config_to_dict(reference_scenario(noise=noise))
    if blind:
        cfg["source"] = None
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return str(path)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
