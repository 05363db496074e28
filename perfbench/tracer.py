"""Spans around the calls into each costshare layer, recorded from outside.

The modules import each other's functions by name (``from .routing import
potential``), so a call is intercepted by replacing the name in the module
that looks it up, not in the module that defines it.  Spans stay in memory
until the run ends.  ``restore`` puts back every attribute that ``install``
replaced.

A span is ``[id, name, start, end, parent id, run id]``; spans are stored in
the order they open, so a parent always precedes its children.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "run")

SETUP, DYNAMICS, CERTIFY = PHASES = ("phase.setup", "phase.dynamics", "phase.certify")
# Spans that only enclose other layers' work; trace coverage looks through them.
CONTAINERS = frozenset({"dynamics.epoch", "routing.verify_equilibrium"})
MOVE_TAGS = ("balanced", "lu-a", "lu-b", "lu-c", "lu-d", "nlu")
IMPROVING_TEST = "routing.improving_test"

# per-layer time metric -> (span names whose self time it sums, phase or None)
SELF_TIME = {
    "instances.generate_s": (("instances.generate",), None),
    "metric.construct_s": (("metric.construct",), None),
    "routing.search.arrival_s": (("routing.search", "routing.best_response"), DYNAMICS),
    "routing.search.verify_s": (("routing.search", "routing.best_response"), CERTIFY),
    "routing.tree_view_s": (("routing.tree_view",), None),
    "routing.potential_s": (("routing.potential",), None),
    "routing.tree_follow_move_s": (("routing.tree_follow_move",), None),
    "dynamics.select_s": (("dynamics.select",), None),
    "routing.improving_scan_s": (("routing.improving_scan",), None),
    "duals.insert_s": (("duals.insert",), None),
    "duals.classify_s": (("duals.classify",), None),
    "duals.charges_s": (("duals.charges",), None),
    "duals.accounting_s": (("duals.accounting",), None),
    "metric.mst_s": (("metric.mst",), None),
}
# per-layer count metric -> (span names whose calls it counts, phase or None)
CALLS = {
    "routing.search.arrival.calls": (("routing.search",), DYNAMICS),
    "routing.search.verify.calls": (("routing.search",), CERTIFY),
    "routing.verify.terminal.calls": (("routing.verify.terminal",), None),
    "routing.verify.steiner.calls": (("routing.verify.steiner",), None),
    "routing.tree_view.calls": (("routing.tree_view",), None),
    "routing.potential.calls": (("routing.potential",), None),
    "routing.tree_follow_move.calls": (("routing.tree_follow_move",), None),
    "dynamics.select.calls": (("dynamics.select",), None),
    "duals.insert.calls": (("duals.insert",), None),
    "duals.classify.calls": (("duals.classify",), None),
}
# counters kept by the tracer itself, reported as per-repetition counts
COUNTERS = (IMPROVING_TEST + ".calls", "dynamics.moves",
            *(f"dynamics.moves.{tag}" for tag in MOVE_TAGS))


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counts: Counter = Counter()
        self.ticks: list = []  # one-shot runs: time at the end of each event
        self._stack: list = []
        self._saved: list = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _replace(self, owner, attr, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap(self, owner, attr, name) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is the span name, or a function of the call's arguments
        that returns it.
        """
        pick = name if callable(name) else None

        def make(original):
            def traced(*args, **kwargs):
                sid = self._open(pick(*args, **kwargs) if pick else name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._close(sid)
            return traced
        self._replace(owner, attr, make)

    def count(self, owner, attr, name) -> None:
        """Count calls of ``owner.attr`` and the calls that returned true."""
        counts = self.counts

        def make(original):
            def counted(*args, **kwargs):
                got = original(*args, **kwargs)
                counts[name + ".calls"] += 1
                if got:
                    counts[name + ".hits"] += 1
                return got
            return counted
        self._replace(owner, attr, make)

    def on_move(self, _epoch, record) -> None:
        self.counts["dynamics.moves"] += 1
        self.counts[f"dynamics.moves.{record.tag}"] += 1

    def on_event(self, _row) -> None:
        self.ticks.append(time.perf_counter())

    def install(self) -> None:
        from costshare import duals, dynamics, instances, routing

        def verify_kind(state, vertex):
            kind = "terminal" if state.is_active(vertex) else "steiner"
            return f"routing.verify.{kind}"

        self.wrap(dynamics, "run_epoch_eqp", "dynamics.epoch")
        self.wrap(dynamics, "best_response", "routing.best_response")
        self.wrap(routing, "_Search", "routing.search")
        self.wrap(routing, "_Tree", "routing.tree_view")
        self.wrap(routing, "has_improving_move", verify_kind)
        self.count(routing, "is_improving_tree_move", IMPROVING_TEST)
        self.wrap(routing, "find_improving_tree_move", "routing.improving_scan")
        self.wrap(duals, "find_improving_tree_move", "routing.improving_scan")
        self.wrap(dynamics, "classify", "duals.classify")
        self.wrap(duals, "compute_charges", "duals.charges")
        self.wrap(dynamics, "select_tree_move", "dynamics.select")
        self.wrap(dynamics, "tree_follow_move", "routing.tree_follow_move")
        self.wrap(dynamics, "potential", "routing.potential")
        self.wrap(duals.DualFamily, "insert", "duals.insert")
        self.wrap(duals, "mst_cost", "metric.mst")
        for ctor in ("euclidean_instance", "metric_closure", "explicit_metric"):
            self.wrap(instances, ctor, "metric.construct")

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-repetition totals, JSON-ready; see ``layer_metrics``."""
        child_s = Counter()
        for s in self.spans:
            if s[4] is not None:
                child_s[s[4]] += s[3] - s[2]
        # phase: the phase a span runs in; inside: whether a layer span
        # (neither a phase nor a container) encloses it
        phase, inside, layer, start = {}, {}, {}, {}
        calls, self_s, covered, phase_s = Counter(), Counter(), Counter(), Counter()
        epoch_ms = []
        for sid, name, t0, t1, parent, _run in self.spans:
            d = t1 - t0
            if parent is None:
                phase[sid], inside[sid], layer[sid] = name, False, False
                phase_s[name] += d
                start[name] = t0
                continue
            phase[sid] = phase[parent]
            inside[sid] = inside[parent] or layer[parent]
            layer[sid] = name not in CONTAINERS
            key = f"{name}|{phase[sid]}"
            calls[key] += 1
            self_s[key] += d - child_s[sid]
            if name == "dynamics.epoch":
                epoch_ms.append(1e3 * d)
            elif layer[sid] and not inside[sid]:
                covered[phase[sid]] += d
        if self.ticks:
            prev = [start[DYNAMICS], *self.ticks[:-1]]
            epoch_ms.extend(1e3 * (b - a) for a, b in zip(prev, self.ticks))
        return {"calls": dict(calls), "self_s": dict(self_s),
                "counts": dict(self.counts), "epoch_ms": epoch_ms,
                "covered_s": dict(covered), "phase_s": dict(phase_s)}


def _total(table: dict, names, phase) -> float:
    total = 0.0
    for key, value in table.items():
        name, where = key.split("|")
        if name in names and (phase is None or where == phase):
            total += value
    return total


def upper_percentile(values):
    """(label, value): the highest percentile with at least ten samples
    beyond it, or the maximum when there are too few samples for one."""
    values = sorted(values)
    k = len(values)
    if k < 20:
        return "max", values[-1]
    p = 100 * (k - 10) // k
    return f"p{p}", statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def layer_metrics(summaries: list, overheads: list) -> dict:
    """Per-layer metrics of a traced run.

    Counts are per-repetition means, which repeat exactly for a seed; times
    are per-repetition medians.  The improving-test hit ratio, the epoch
    percentiles and the coverage pool every traced repetition.
    ``overheads`` holds, per traced repetition, its phase time over that of
    an untraced repetition of the same config, minus one.
    """
    out = {}
    for metric, (names, phase) in CALLS.items():
        out[metric] = statistics.fmean(_total(s["calls"], names, phase) for s in summaries)
    for metric in COUNTERS:
        out[metric] = statistics.fmean(s["counts"].get(metric, 0) for s in summaries)
    for metric, (names, phase) in SELF_TIME.items():
        out[metric] = statistics.median(_total(s["self_s"], names, phase) for s in summaries)

    tests = sum(s["counts"].get(IMPROVING_TEST + ".calls", 0) for s in summaries)
    hits = sum(s["counts"].get(IMPROVING_TEST + ".hits", 0) for s in summaries)
    out[IMPROVING_TEST + ".hit_ratio"] = hits / tests if tests else 0.0

    epochs = [ms for s in summaries for ms in s["epoch_ms"]]
    out["dynamics.epoch.p50_ms"] = statistics.median(epochs)
    label, tail = upper_percentile(epochs)
    out["dynamics.epoch.tail_ms"] = tail
    out["dynamics.epoch.tail_pct"] = 100.0 if label == "max" else float(label[1:])

    shares = {}
    for phase in PHASES:
        covered = sum(s["covered_s"].get(phase, 0.0) for s in summaries)
        shares[phase] = covered / sum(s["phase_s"][phase] for s in summaries)
        out[f"trace.coverage.{phase.split('.')[1]}"] = shares[phase]
    out["trace.coverage"] = min(shares.values())
    out["trace.overhead_frac"] = statistics.median(overheads)
    return out
