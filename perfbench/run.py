"""The costshare benchmark: one workload, one seed, a fixed time budget.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition runs in a fresh interpreter (rep.py), so each one pays the
one-time costs a `costshare run` user pays, such as building the memoized
harmonic numbers, and peak memory is per repetition.  Repetitions run one
at a time until the next would overrun --seconds, and at least MIN_REPS
times.  Each repetition's artifacts are compared with reference.json and its
outcome with the workload's invariants; a mismatch, an exception or a
timeout makes it a failed repetition.

Times are reported in reference seconds.  On a shared machine (measured:
a 2-core x86_64 VM), speed drifts by up to a third within seconds and
between minutes, which moves the wall times of identical work by as much.  So while
a repetition's phases run, a speed probe (rep.SpeedProbe) times a fixed
kernel of exact Fraction arithmetic every 50 ms, and in a burst between
phases.  A phase's time is its wall time, less the probe's share, times
REFERENCE_KERNEL_S over the probe's mean kernel time around that phase: the
time the phase would have taken on a machine that runs the kernel in
REFERENCE_KERNEL_S.  The table also prints the medians before rescaling.

--trace 0 reports the end-to-end metrics, as medians over repetitions.
--trace 1 alternates an untraced and a traced repetition of the same config
and reports the per-layer metrics of the traced ones; each pair also gives
the tracing overhead.  The traced spans are written to .perfbench-out/ when
the run ends.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import CERTIFY, DYNAMICS, SETUP, SPAN_FIELDS, layer_metrics, upper_percentile
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench-out"
MIN_REPS = 3      # untraced repetitions, or traced pairs, that every run makes
MAX_REPS = 200
HARD_LIMIT = 150  # seconds after which no repetition starts; the run ends within 180
REFERENCE_KERNEL_S = 0.0005

PHASE_TIMES = {SETUP: "setup_s", DYNAMICS: "dynamics_s", CERTIFY: "certify_s"}
END_TO_END_UNITS = {"setup_s": "s", "dynamics_s": "s", "certify_s": "s",
                    "total_s": "s", "events_per_s": "1/s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(".calls") or name.startswith("dynamics.moves"):
        return "count"
    return "ratio"


def run_repetition(workload, cfg: dict, run_id, reference: dict, deadline: float):
    """(output, problems) of one repetition in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, str(HERE / "rep.py"), json.dumps(cfg), str(SCRATCH)]
    if run_id is not None:
        argv.append(run_id)
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, ["timed out"]
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return None, tail
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None, ["printed no result"]
    out = json.loads(lines[-1])
    problems = []
    if Path(out["costshare"]).resolve().parent != (ROOT / "src" / "costshare").resolve():
        problems.append(f"imported costshare from {out['costshare']}")
    key = workload.reference_key(cfg)
    want = reference.get(key)
    if want is None:
        problems.append(f"no reference digests for {key}")
    else:
        problems += [f"{name} differs from the reference" for name in sorted(want)
                     if out["digests"].get(name) != want[name]]
    problems += workload.check(out["facts"])
    return out, problems


def speeds(out: dict) -> dict:
    """Per phase, the factor that rescales its times to reference seconds."""
    return {phase: REFERENCE_KERNEL_S / p["kernel_s"] for phase, p in out["phases"].items()}


def phase_times(out: dict, scale: bool = True) -> dict:
    """Each phase's wall time less the probe's share, by metric name."""
    f = speeds(out) if scale else dict.fromkeys(PHASE_TIMES, 1.0)
    return {name: f[phase] * (out["phases"][phase]["wall_s"] - out["phases"][phase]["probe_s"])
            for phase, name in PHASE_TIMES.items()}


def end_to_end(reps: list, scale: bool = True) -> dict:
    """Per-metric samples, one per successful untraced repetition."""
    samples = {name: [] for name in END_TO_END_UNITS}
    for out in reps:
        t = phase_times(out, scale)
        for name in PHASE_TIMES.values():
            samples[name].append(t[name])
        samples["total_s"].append(t["setup_s"] + t["dynamics_s"] + t["certify_s"])
        samples["events_per_s"].append(out["events"] / t["dynamics_s"])
        samples["peak_rss_mb"].append(out["peak_rss_mb"])
    return samples


def scaled_trace(out: dict) -> dict:
    """A traced repetition's per-layer totals, times in reference seconds."""
    f = speeds(out)
    trace = out["trace"]
    return {**trace,
            "self_s": {key: f[key.split("|")[1]] * value
                       for key, value in trace["self_s"].items()},
            "epoch_ms": [f[DYNAMICS] * value for value in trace["epoch_ms"]]}


def measure(workload, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    SCRATCH.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + HARD_LIMIT + 10
    plain, traced, overheads = [], [], []
    attempted = failed = 0
    last = 0.0
    for i, cfg in enumerate(workload.configs(seed, MAX_REPS)):
        elapsed = time.monotonic() - start
        if (i >= MIN_REPS and elapsed + last > seconds) or elapsed + last > HARD_LIMIT:
            break
        began = time.monotonic()
        run_ids = [None] + ([f"{workload.name}/seed{seed}/rep{i}"] if trace else [])
        pair, timed_out = [], False
        for run_id in run_ids:
            attempted += 1
            out, problems = run_repetition(workload, cfg, run_id, reference, deadline)
            if problems:
                failed += 1
                timed_out = timed_out or out is None and problems == ["timed out"]
                print(f"repetition {i} ({workload.reference_key(cfg)}, "
                      f"{'traced' if run_id else 'untraced'}) failed: "
                      + "; ".join(problems), file=sys.stderr)
                continue
            pair.append(out)
            (traced if run_id else plain).append(out)
        if trace and len(pair) == 2:
            untraced_s, traced_s = (sum(phase_times(p).values()) for p in pair)
            overheads.append(traced_s / untraced_s - 1)
        last = time.monotonic() - began
        if timed_out:
            break
    return {"attempted": attempted, "failed": failed, "plain": plain,
            "traced": traced, "overheads": overheads}


def report(workload, seed: int, trace: bool, got: dict) -> dict:
    print(f"{workload.name} (seed {seed}): {got['attempted']} repetitions, "
          f"each in a fresh interpreter; {got['failed']} failed "
          f"(failed_frac {got['failed'] / max(got['attempted'], 1):.4g} ratio)")
    metrics = {}
    if not trace and got["plain"]:
        raw = end_to_end(got["plain"], scale=False)
        print(f"{'metric':<14}{'median':>14}{'upper':>20}{'samples':>9}  {'unit':<6}"
              f"{'median, not rescaled':>22}")
        for name, values in end_to_end(got["plain"]).items():
            unit = END_TO_END_UNITS[name]
            median = statistics.median(values)
            label, upper = upper_percentile(values)
            print(f"{name:<14}{median:>14.6g}{f'{upper:.6g} ({label})':>20}"
                  f"{len(values):>9}  {unit:<6}{statistics.median(raw[name]):>22.6g}")
            metrics[name] = {"value": median, "unit": unit}
    elif trace and got["traced"] and got["overheads"]:
        values = layer_metrics([scaled_trace(t) for t in got["traced"]], got["overheads"])
        for name, value in values.items():
            unit = layer_unit(name)
            print(f"{name:<34}{value:>14.6g}  {unit}")
            metrics[name] = {"value": value, "unit": unit}
        spans = [s for t in got["traced"] for s in t["spans"]]
        path = SCRATCH / f"trace-{workload.name}-seed{seed}.json"
        path.write_text(json.dumps({"fields": SPAN_FIELDS, "spans": spans}))
        print(f"{len(got['traced'])} traced repetitions; {len(spans)} spans in {path}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the repetition
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "costshare" / "__init__.py").is_file():
        print(f"perfbench: no costshare sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    workload = WORKLOADS[args.workload]
    got = measure(workload, args.seed, args.seconds, bool(args.trace), reference)
    metrics = report(workload, args.seed, bool(args.trace), got)
    correct = got["failed"] == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": got["attempted"],
                      "failed": got["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
