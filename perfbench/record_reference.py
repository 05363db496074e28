"""Record the reference digests the benchmark checks every repetition against.

    python3 perfbench/record_reference.py

Runs `costshare run` (the CLI itself, not the benchmark's phase split) for
every config a benchmark run can draw and writes the sha256 of each
deterministic artifact to perfbench/reference.json.  Re-record only for a
change that is meant to alter the artifacts.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from costshare import cli  # noqa: E402

from workloads import EUCLID_PANEL, WORKLOADS  # noqa: E402


def cli_digests(cfg: dict, scratch: Path) -> dict:
    argv = ["run", "--gen", cfg["gen"], "--mode", cfg["mode"]]
    for key in ("n", "m", "seed", "profile"):
        if key in cfg:
            argv += [f"--{key}", str(cfg[key])]
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        if cli.main(argv + ["--out", tmp]) != 0:
            raise SystemExit(f"costshare {' '.join(argv)} failed")
        return {name: hashlib.sha256((Path(tmp) / name).read_bytes()).hexdigest()
                for name in cli.DATA_FILES}


def main() -> None:
    scratch = HERE.parent / ".perfbench-out"
    scratch.mkdir(exist_ok=True)
    reference = {}
    for w in WORKLOADS.values():
        count = len(EUCLID_PANEL) if w.seeded else 1
        for cfg in w.configs(0, count):
            reference[w.reference_key(cfg)] = cli_digests(cfg, scratch)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
