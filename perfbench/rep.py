"""One repetition of a workload, run in a fresh interpreter.

    python3 perfbench/rep.py CONFIG_JSON SCRATCH_DIR [RUN_ID]

Runs the computation `costshare run` performs for CONFIG_JSON in three timed
phases through the public API: set-up (the generator), dynamics (the runner
with verification and accounting off) and certify (the equilibrium sweep,
then the log n accounting).  It then writes the artifacts `costshare run`
writes for the result into a temporary directory under SCRATCH_DIR and
prints one JSON line with the phase times, peak memory, artifact digests and
the facts the workload's invariants check.  While the phases run, a speed
probe samples how fast the machine is going; run.py uses the samples to
rescale each phase's time to a reference machine speed.  Given a RUN_ID, it
traces the phases and adds its spans and their per-layer totals.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import signal
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path

import costshare
from costshare import (
    build_gm,
    build_random_euclidean,
    build_sigma,
    build_steiner_gap_fixture,
    classify,
    format_rational,
    logn_accounting,
    run_eqp,
    run_noneqp,
    solution_cost,
    verify_equilibrium,
)
from costshare import cli

from tracer import CERTIFY, DYNAMICS, SETUP, Tracer

PROBE_INTERVAL_S = 0.05  # the probe samples this often while a phase runs
PROBE_BURST = 10         # and this many times in a row between phases


def generate(cfg: dict):
    """(instance, events) for a config, as `costshare run` builds them."""
    gen = cfg["gen"]
    if gen == "euclidean":
        run = build_random_euclidean(cfg["n"], cfg["seed"], cfg["profile"])
        return run.instance, run.events
    if gen == "gm":
        gm = build_gm(cfg["m"])
        return gm.instance, build_sigma(gm)
    if gen == "steiner-gap":
        fx = build_steiner_gap_fixture(cfg["n"])
        return fx.instance, fx.events
    raise ValueError(f"no generator {gen!r} in the benchmark")


def _untraced(_name):
    return nullcontext()


def probe_kernel() -> None:
    """A fixed stretch of exact Fraction arithmetic, the kind of work the
    engine spends its time on; it uses nothing from costshare."""
    total = Fraction(0)
    for k in range(1, 120):
        total += Fraction(1, k)


class SpeedProbe:
    """Samples the machine's speed by timing probe_kernel.

    Inside the ``with`` block a timer runs the kernel every
    PROBE_INTERVAL_S, interrupting whatever is running; ``burst`` runs it
    PROBE_BURST times in a row.  Each sample is (start, seconds).
    """

    def __init__(self):
        self.samples: list = []
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # the timer fired during a burst's sample
            return
        self._busy = True
        t = time.perf_counter()
        probe_kernel()
        self.samples.append((t, time.perf_counter() - t))
        self._busy = False

    def burst(self) -> None:
        for _ in range(PROBE_BURST):
            self.sample()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def phase(self, since: int, start: float, end: float) -> dict:
        """A phase that ran from ``start`` to ``end``, with ``samples[since:]``
        taken in the bursts around it and while it ran: its wall time, the
        probe's share of it, and the probe's mean kernel time."""
        window = self.samples[since:]
        return {"wall_s": end - start,
                "probe_s": sum(d for t, d in window if start <= t < end),
                "kernel_s": statistics.fmean(d for _, d in window)}


def run_phases(cfg: dict, tracer: Tracer | None = None):
    """The three timed phases, each between two bursts of the speed probe.

    Returns (events, result, verdict, report, phases), where ``phases``
    maps each phase name to its ``SpeedProbe.phase`` figures.
    """
    span = tracer.span if tracer else _untraced
    phases = {}

    @contextmanager
    def phase(name):
        since = len(probe.samples) - PROBE_BURST  # the burst just before
        start = time.perf_counter()
        with span(name):
            yield
        end = time.perf_counter()
        probe.burst()
        phases[name] = probe.phase(since, start, end)

    with SpeedProbe() as probe:
        probe.burst()
        with phase(SETUP), span("instances.generate"):
            instance, events = generate(cfg)
        with phase(DYNAMICS):
            if cfg["mode"] == "eqp":
                result = run_eqp(instance, events, verify=False, accounting=False,
                                 on_move=tracer.on_move if tracer else None)
            else:
                result = run_noneqp(instance, events, verify=False,
                                    on_event=tracer.on_event if tracer else None)
        with phase(CERTIFY):
            with span("routing.verify_equilibrium"):
                verdict = verify_equilibrium(result.state)
            with span("duals.accounting"):
                report = logn_accounting(result.state, result.family)
    return events, result, verdict, report, phases


def artifact_digests(cfg: dict, result, report, scratch: Path) -> dict:
    """sha256 of each deterministic artifact `costshare run` writes.

    The CLI's own writer produces the files; its `_execute` step is handed
    the result computed above instead of running the schedule again.
    """
    final_class = classify(result.state, result.family).name
    real = cli._execute
    cli._execute = lambda _cfg: (result, report, final_class)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            cli._run_into(cfg, Path(tmp))
            return {name: hashlib.sha256((Path(tmp) / name).read_bytes()).hexdigest()
                    for name in cli.DATA_FILES}
    finally:
        cli._execute = real


def repetition(cfg: dict, scratch: Path, run_id: str | None = None) -> dict:
    tracer = Tracer(run_id) if run_id is not None else None
    if tracer:
        tracer.install()
    try:
        events, result, verdict, report, phases = run_phases(cfg, tracer)
    finally:
        if tracer:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    eqp = cfg["mode"] == "eqp"
    # `costshare run` keeps the verdict, and for eqp the accounting report,
    # on the result it writes
    result = dataclasses.replace(result, verdict=verdict,
                                 accounting=report if eqp else None)
    out = {
        "costshare": costshare.__file__,
        "phases": phases,
        "events": len(events),
        "peak_rss_mb": peak_rss_mb,
        "digests": artifact_digests(cfg, result, report, scratch),
        "facts": {
            "verdict_ok": verdict.ok,
            "certified": report.certified,
            "final_cost": format_rational(solution_cost(result.state)),
            "moves": sum(len(ep.moves) for ep in result.epochs) if eqp else 0,
        },
    }
    if tracer:
        out["trace"] = tracer.summary()
        out["spans"] = tracer.spans
    return out


if __name__ == "__main__":
    run_id = sys.argv[3] if len(sys.argv) > 3 else None
    print(json.dumps(repetition(json.loads(sys.argv[1]), Path(sys.argv[2]), run_id)))
