#!/usr/bin/env python3
"""End-to-end reference experiment: writes every CSV artifact to out/reference.

Equivalent to `bfwave full --config <reference config> --out out/reference`; the
config JSON is also dropped next to the outputs so the CLI route can be
replayed directly.

    python scripts/run_reference_scenario.py [out_dir]

The package is imported from the `src/` directory next to this script.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bfwave.cli import cmd_full, config_to_dict  # noqa: E402
from bfwave.scenarios import reference_scenario  # noqa: E402


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/reference")
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.json"
    with open(cfg_path, "w") as fh:
        json.dump(config_to_dict(reference_scenario()), fh, indent=2)
        fh.write("\n")
    return cmd_full(cfg_path, out)


if __name__ == "__main__":
    sys.exit(main())
