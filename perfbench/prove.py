"""Run the benchmark once per seed and report how steady each metric is.

    python3 perfbench/prove.py [--runs 10] [--first-seed 0]
                               [--workloads a,b] [--write]

For each workload, makes --runs untraced runs with seeds --first-seed,
--first-seed+1, ... of the command and run length in BENCHMARK.json, one at
a time, then one traced run with --first-seed.  For every end-to-end metric
it prints the median of the untraced runs and their spread, the distance
between the first and third quartile as a share of the median, next to the
metric's bound.  --write stores the figures, the traced run's per-layer
metrics and the environment they were measured in, in
perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

import numpy

from workloads import EUCLID_PANEL, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    def run(name, seed, trace):
        cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{name} seed {seed} failed:\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    baseline = {}
    for name in names:
        values = {metric: [] for metric in bounds}
        reps = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run(name, seed, 0)
            reps.append(result["attempted"])
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={v[-1]:.4g}" for m, v in values.items()), flush=True)
        baseline[name] = {"runs": args.runs, "seeds": [args.first_seed, args.first_seed + args.runs - 1],
                          "repetitions_per_run": reps, "metrics": {}}
        for metric, vals in values.items():
            median, q1, q3, share = spread(vals)
            baseline[name]["metrics"][metric] = {"median": median, "q1": q1, "q3": q3,
                                                 "spread": share}
            flag = "ok" if share < bounds[metric] / 3 else (
                "within bound" if share <= bounds[metric] else "OVER BOUND")
            print(f"  {metric:<14} median {median:<12.6g} spread {share:7.2%}"
                  f"  bound {bounds[metric]:.0%}  {flag}", flush=True)
        traced = run(name, args.first_seed, 1)
        baseline[name]["per_layer"] = {
            "seed": args.first_seed, "repetitions": traced["attempted"],
            "metrics": {m: v["value"] for m, v in traced["metrics"].items()}}

    if args.write:
        workloads = {}
        for name in names:
            w = WORKLOADS[name]
            workloads[name] = {"gen": w.gen, **w.size, "mode": w.mode, "why": w.why}
            if w.seeded:
                workloads[name]["instance_seeds"] = list(EUCLID_PANEL)
        record = {
            "environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                            "nproc": len(os.sched_getaffinity(0)),
                            "machine": platform.machine()},
            "run_seconds": bench["run_seconds"],
            "workloads": workloads,
            "baseline": baseline,
        }
        (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
