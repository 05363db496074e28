"""Per-state quantities carried from state to state by each event's delta.

Every state's potential, solution cost and dual charge map is derived from
its predecessor's.  The tests here check each state a run reads against a
rebuild from the state's plain fields (the oracles), and count the full
builds a run makes.
"""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from costshare import (
    ArrivalEvent,
    ArrivalItem,
    DepartureEvent,
    DualFamily,
    ROOT,
    build_random_euclidean,
    explicit_metric,
    initial_state,
    logn_accounting,
    potential,
    run_eqp,
    run_noneqp,
    solution_cost,
    verify_equilibrium,
    with_revealed,
)
from costshare import duals, dynamics, routing
from costshare.duals import classify, compute_charges
from costshare.instances import build_gm, build_sigma, build_steiner_gap_fixture
from costshare.rationals import harmonic
from conftest import (
    OFF_TREE, family_for, random_event, random_metric, random_schedule, random_tree_state)
from oracles import rebuild_charges, recompute_potential


def _matrix(inst):
    return [[inst.cost(i, j) for j in range(inst.n)] for i in range(inst.n)]


class _Oracle:
    """Checks states of one instance against rebuilds from their plain fields."""

    def __init__(self, inst):
        self.inst, self.matrix = inst, _matrix(inst)
        self.checked = Counter()

    def totals(self, state):
        assert potential(state) == recompute_potential(self.matrix, state.usage)
        assert solution_cost(state) == sum(
            (self.matrix[a][b] for a, b in state.usage), Fraction(0))
        self.checked["totals"] += 1

    def charges(self, state, family, got):
        def flat(recs):
            return [(r.vertex, r.level, r.cut, r.cost, r.leaf) for r in recs]

        records, by_cut = rebuild_charges(self.matrix, state.paths, family.component_of)
        assert flat(got.records) == records
        # the order of by_cut reaches ClosureViolationError.details
        assert [(k, flat(v)) for k, v in got.by_cut.items()] == list(by_cut.items())
        load = {k: (len(v), sum(not rec[4] for rec in v)) for k, v in by_cut.items()}
        assert got.load == load
        assert got.crowded == sum(n >= 2 for n, _ in load.values())
        assert got.heavy == sum(nonleaf >= 2 for _, nonleaf in load.values())
        self.checked["charges"] += 1


def _shuffled_family(state, rng):
    """A family over the state's revealed vertices, root first, the rest in
    random order: its partitions, and so its cuts, differ from the run's."""
    rest = [v for v in state.revealed if v != ROOT]
    rng.shuffle(rest)
    family = DualFamily(state.instance)
    for v in (ROOT, *rest):
        family.insert(v)
    return family


def test_carried_quantities_match_rebuilds_on_random_transitions():
    # Random arrivals (new leaves, relay chains, multi-agent count bumps,
    # relays turned terminals), departures of one or several terminals and
    # tree-follow moves, some abandoning relays, on explicit metrics.  Some
    # steps apply two events before the next read, as a multi-item arrival
    # does, so the next map is patched from one two events back.  Every
    # state read is checked against the oracles, its charge map under two
    # families whose cuts differ.
    rng = random.Random(18300)
    seen = Counter()
    for _ in range(50):
        inst = random_metric(rng, rng.randint(3, 12))
        state = with_revealed(initial_state(inst), range(1, inst.n))
        oracle = _Oracle(inst)
        families = (family_for(state), _shuffled_family(state, rng))
        state.view
        for _ in range(14):
            tag, state = random_event(rng, state)
            seen[tag] += 1
            if rng.random() < 0.3:
                tag, state = random_event(rng, state)
                seen["two"] += 1
            oracle.totals(state)
            for family in families:
                oracle.charges(state, family, compute_charges(state, family))
        assert oracle.checked["charges"] == 2 * oracle.checked["totals"]
    assert min(seen[tag] for tag in (
        "leaf", "chain", "bump", "relay", "depart", "departs", "move", "abandon",
        "two")) >= 10, seen


def _audit_runs(monkeypatch):
    """Route every potential, solution cost and charge map the runners read
    through the oracles; returns the dict whose "oracle" entry, set per run,
    does the checking."""
    audit = {}
    real_charges = duals.compute_charges
    real_potential, real_cost = dynamics.potential, dynamics.solution_cost

    def charges(state, family):
        got = real_charges(state, family)
        audit["oracle"].charges(state, family, got)
        return got

    def totals(real):
        def read(state):
            audit["oracle"].totals(state)
            return real(state)
        return read

    monkeypatch.setattr(duals, "compute_charges", charges)
    monkeypatch.setattr(dynamics, "potential", totals(real_potential))
    monkeypatch.setattr(dynamics, "solution_cost", totals(real_cost))
    return audit


def test_carried_quantities_match_rebuilds_in_random_runs(monkeypatch):
    # Random schedules on explicit metrics under both policies: multi-item
    # arrivals (sequential under eqp, snapshot under one-shot), multi-terminal
    # departures and the moves eqp makes; and a one-shot run whose states
    # leave the tree and return to it.  The runners' every read of the
    # potential, the solution cost and the charge map is checked.
    audit = _audit_runs(monkeypatch)
    rng = random.Random(18400)
    classes, checked = Counter(), Counter()
    costs, events = OFF_TREE
    runs = [(explicit_metric(5, costs), events, True)]
    for k in range(40):
        inst = random_metric(rng, rng.randint(4, 12))
        runs.append((inst, random_schedule(rng, inst.n, 14, k % 2 == 1), k % 2 == 1))
    for inst, events, oneshot in runs:
        audit["oracle"] = _Oracle(inst)
        if oneshot:
            res = run_noneqp(inst, events, verify=False, batch_order="snapshot")
        else:
            res = run_eqp(inst, events)
        classes.update(ep.post_class for ep in res.epochs)
        classes["moves"] += sum(len(ep.moves) for ep in res.epochs)
        checked.update(audit["oracle"].checked)
    assert classes["non-tree"] >= 1 and classes["moves"] >= 5, classes
    assert checked["charges"] >= 200 and checked["totals"] >= 400, checked


@pytest.mark.parametrize("gen", ["gm", "steiner-gap", "euclid"])
def test_carried_quantities_match_rebuilds_on_the_workloads(monkeypatch, gen):
    # gm m=2..5 one-shot, steiner-gap n=50 (edge counts in the thousands)
    # and the euclid n=120 panel under eqp: every state the runner reads.
    audit = _audit_runs(monkeypatch)
    checked = Counter()
    if gen == "gm":
        runs = []
        for m in (2, 3, 4, 5):
            gm = build_gm(m)
            runs.append((gm.instance, lambda gm=gm: run_noneqp(
                gm.instance, list(build_sigma(gm)), verify=False)))
    elif gen == "steiner-gap":
        fx = build_steiner_gap_fixture(50)
        runs = [(fx.instance, lambda: run_eqp(fx.instance, fx.events, verify=False))]
    else:
        runs = []
        for seed in range(8):
            er = build_random_euclidean(120, seed)
            runs.append((er.instance, lambda er=er: run_eqp(
                er.instance, er.events, verify=False)))
    for inst, run in runs:
        audit["oracle"] = _Oracle(inst)
        res = run()
        assert audit["oracle"].checked["charges"] >= len(res.epochs)
        checked.update(audit["oracle"].checked)
    assert checked["totals"] >= checked["charges"] > 50 * len(runs)


@pytest.mark.parametrize("policy", ["oneshot", "eqp"])
def test_a_run_builds_each_carried_quantity_in_full_once(monkeypatch, policy):
    # Under forwarding wrappers, as a call tracer installs them (`_Tree`
    # included), a run builds its totals (the potential and the solution
    # cost), its charge map, its tree view and its search table in full
    # once, for the first state that reads each, and carries every later
    # one, through the final sweep and the accounting.  A derivation that
    # falls back, say because with_revealed dropped a cache, builds again
    # and fails this.
    builds = Counter()
    for owner, name in ((routing, "_totals"), (routing, "_Tree"), (routing, "_SearchTable")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _real=real, _name=name:
                            builds.update([_name]) or _real(*args))
    charge = duals._charge
    monkeypatch.setattr(duals, "_charge", lambda family, view, vertices, base=None:
                        builds.update(["_charge"] if base is None else [])
                        or charge(family, view, vertices, base))
    if policy == "oneshot":
        gm = build_gm(3)
        res = run_noneqp(gm.instance, list(build_sigma(gm)), verify=False)
    else:
        run = build_random_euclidean(30, 0, "churn")
        res = run_eqp(run.instance, run.events, verify=False, accounting=False)
        assert any(ep.moves for ep in res.epochs)
        assert any(ep.kind == "depart" for ep in res.epochs)
    once, table = {"_totals": 1, "_charge": 1, "_Tree": 1}, {"_SearchTable": 1}
    # one-shot arrivals search; an eqp run searches first in its final sweep
    assert len(res.epochs) > 20 and builds == (once | table if policy == "oneshot" else once)
    assert verify_equilibrium(res.state).ok
    logn_accounting(res.state, res.family)
    classify(res.state, res.family)
    assert builds == once | table


def test_any_view_is_patched_from_the_last_charged_one(monkeypatch):
    # A charge reads only its vertex's parent edge and leaf flag, so the
    # family patches its last map for any view: here the last map is a
    # sibling's (another event on the same base) or two or three events
    # back.  Each map matches the oracle, and after the first, none is
    # built in full.
    builds, seen = Counter(), Counter()
    charge = duals._charge
    monkeypatch.setattr(duals, "_charge", lambda family, view, vertices, base=None:
                        builds.update(["full" if base is None else "patched"])
                        or charge(family, view, vertices, base))
    rng = random.Random(18600)
    for _ in range(40):
        inst = random_metric(rng, rng.randint(4, 10))
        base = random_tree_state(rng, inst)
        oracle, family = _Oracle(inst), family_for(base)
        builds.clear()
        oracle.charges(base, family, compute_charges(base, family))
        for _ in range(6):
            if rng.random() < 0.5:  # two events on one base, both charged
                charged = [random_event(rng, base)[1] for _ in range(2)]
                seen["sibling"] += 1
            else:  # two or three events, the last state alone charged
                steps = rng.choice((2, 3))
                for _ in range(steps):
                    base = random_event(rng, base)[1]
                charged = [base]
                seen[steps] += 1
            for state in charged:
                oracle.charges(state, family, compute_charges(state, family))
            base = charged[-1]
        assert builds["full"] == 1 and builds["patched"] >= 6, builds
    assert min(seen.values()) >= 30 and len(seen) == 3, seen


def test_a_multi_item_eqp_arrival_patches_the_charge_map(monkeypatch):
    # Under eqp, no state between two items of an arrival is charged, and
    # the event's final state is patched from the map charged before the
    # event: after the run's first map, no map is built in full.  Random
    # schedules with two- and three-item arrivals, in both batch orders.
    builds, events = Counter(), Counter()
    charge = duals._charge
    monkeypatch.setattr(duals, "_charge", lambda family, view, vertices, base=None:
                        builds.update(["full" if base is None else "patched"])
                        or charge(family, view, vertices, base))
    rng = random.Random(26200)
    for k in range(30):
        inst = random_metric(rng, rng.randint(4, 12))
        schedule = random_schedule(rng, inst.n, 14, False)
        events.update(len(ev.items) for ev in schedule if isinstance(ev, ArrivalEvent))
        builds.clear()
        run_eqp(inst, schedule, batch_order="snapshot" if k % 2 else "sequential")
        assert builds["full"] == 1 and builds["patched"] >= len(schedule) - 1, builds
    assert events[2] + events[3] >= 50, events


# ---------------------------------------------------------------------------
# the search table and the view's prefix sums, carried by `_rerouted`


def _record_reroutes(monkeypatch, check):
    """Call check(state, new) on every step `_rerouted` makes."""
    real = routing._rerouted

    def rerouted(state, segments, **fields):
        new = real(state, segments, **fields)
        check(state, new)
        return new

    monkeypatch.setattr(routing, "_rerouted", rerouted)


def _assert_table_is_a_full_build(state):
    got, want = state.table, routing._SearchTable(replace(state))
    assert got.nodes == sorted({ROOT, *(v for e in state.usage for v in e)})
    assert list(got.edge) == list(state.usage)  # edge k is usage's k-th
    for field in ("nodes", "pos", "edge", "costs"):
        assert getattr(got, field) == getattr(want, field), field
    for field in ("ia", "ib", "sub"):
        mine, full = getattr(got, field), getattr(want, field)
        assert mine.dtype == full.dtype and np.array_equal(mine, full), field


def test_derived_search_tables_equal_a_full_build(monkeypatch):
    # One-shot runs search every arrival, so each state caches its table and
    # the next one derives its own: gm m=2..5, and random explicit schedules
    # under both batch orders, whose multi-item arrivals search one state
    # several times and whose departures may drop edges.  Every derived
    # table equals a full build field by field, and a step derives one
    # exactly when its predecessor had one and the step drops no edge.
    tally = Counter()

    def check(state, new):
        if "table" not in state.__dict__:
            assert "table" not in new.__dict__
            return
        dropped = any(e not in new.usage for e in state.usage)
        assert ("table" in new.__dict__) != dropped, (state.usage, new.usage)
        if dropped:
            tally["dropped"] += 1
            return
        _assert_table_is_a_full_build(new)
        tally["derived"] += 1
        tally["grown"] += len(new.table.nodes) > len(state.table.nodes)

    _record_reroutes(monkeypatch, check)
    for m in (2, 3, 4, 5):
        gm = build_gm(m)
        run_noneqp(gm.instance, list(build_sigma(gm)), verify=False)
    assert tally["derived"] >= 1400 and tally["grown"] >= 200, tally
    rng = random.Random(18700)
    for k in range(40):
        inst = random_metric(rng, rng.randint(4, 12))
        events = random_schedule(rng, inst.n, 14, True)
        run_noneqp(inst, events, verify=False,
                   batch_order="snapshot" if k % 2 else "sequential")
    assert tally["dropped"] >= 50 and tally["derived"] >= 1500, tally


def test_carried_prefix_sums_equal_a_full_build(monkeypatch):
    # eqp runs carry each view's share bounds from the last one: euclid n=30
    # churn (moves and departures), steiner-gap n=20 (relay chains, where
    # every arrival changes every edge) and random explicit schedules.
    # Every carried bound equals a full build's, int for int.  The carry
    # walks R's subtrees, R the vertices whose parent edge changed its
    # parent or its count, recomputing R and shifting the rest, and records
    # g, the R edges on each walked vertex's root path; some steps walk
    # every vertex and others only part of the tree.  Each full screen
    # equals one built from a full build's bounds, and each arrival screen
    # that full screen on the rows off the arrival's path and the columns
    # whose g exceeds the row's.
    tally = Counter()

    def check(state, new):
        old = state.__dict__.get("view")
        view = new.__dict__.get("view")
        if old is None or old._bounds is None or view is None:
            return
        R = {x for x, p in view.parent.items() if old.parent.get(x) != p
             or state.usage[e := routing.edge_key(x, p)] != new.usage[e]}
        g = {x: sum(y in R for y in view.path_to_root(x)[:-1]) for x in view.parent}
        assert view._g == {x: k for x, k in g.items() if k}
        tally["whole" if len(view._g) == len(view.order) - 1 else "part"] += 1
        tally["recomputed"] += len(R)
        tally["shifted"] += len(view._g) - len(R)
        assert view._bounds == routing._Tree(replace(new)).bounds()
        tally["carried"] += 1

    real_screen, real_arrival = routing._candidate_screen, routing.arrival_screen

    def screen(state):
        mask, cols = real_screen(state)
        want, full_cols = real_screen(replace(state))
        assert cols == full_cols and np.array_equal(mask, want)
        tally["screens"] += 1
        return mask, cols

    def arrival(state, path):
        mask, cols = real_arrival(state, path)
        full = replace(state)
        want, order = real_screen(full)
        g = {y: sum(z in path for z in full.view.path_to_root(y)[:-1]) for y in order}
        assert cols == sorted(full.view.subtree(path[-2]))
        for i, x in enumerate(order):
            for j, y in enumerate(cols):
                kept = x not in path and g[x] < g[y] and want[i, order.index(y)]
                assert mask[i, j] == kept, (x, y, path)
        tally["arrival screens"] += 1
        return mask, cols

    _record_reroutes(monkeypatch, check)
    monkeypatch.setattr(routing, "_candidate_screen", screen)
    monkeypatch.setattr(dynamics, "arrival_screen", arrival)
    run = build_random_euclidean(30, 0, "churn")
    res = run_eqp(run.instance, run.events, verify=False, accounting=False)
    assert any(ep.moves for ep in res.epochs)
    fx = build_steiner_gap_fixture(20)
    run_eqp(fx.instance, fx.events, verify=False, accounting=False)
    rng = random.Random(18800)
    for _ in range(20):
        inst = random_metric(rng, rng.randint(4, 10))
        run_eqp(inst, random_schedule(rng, inst.n, 14, False))
    assert tally["carried"] >= 400 and tally["whole"] >= 100 and tally["part"] >= 100, tally
    assert tally["recomputed"] >= 1000 and tally["shifted"] >= 300, tally
    assert tally["screens"] + tally["arrival screens"] >= 300, tally
    assert tally["screens"] >= 100 and tally["arrival screens"] >= 100, tally


def _harmonic_sum_of_every_count(by_count):
    """`routing._harmonic_sum` walking every count, zero coefficients too."""
    total, lcm = 0, 1
    for n in sorted(by_count):
        p, lcm_n = harmonic(n)
        total = total * (lcm_n // lcm) + by_count[n] * p
        lcm = lcm_n
    return total, lcm


def test_harmonic_sum_is_the_same_without_its_zero_coefficients():
    rng = random.Random(22000)
    for _ in range(300):
        by_count = {rng.randrange(300): rng.randrange(-3, 4) for _ in range(rng.randrange(1, 9))}
        nonzero = {n: c for n, c in by_count.items() if c}
        S, L = routing._harmonic_sum(by_count)
        assert (S, L) == routing._harmonic_sum(nonzero)
        assert L == harmonic(max(nonzero, default=0))[1]
        assert Fraction(S, L) == Fraction(*_harmonic_sum_of_every_count(by_count))


def test_skipped_zero_coefficients_leave_the_carried_totals_bit_identical(monkeypatch):
    # `_harmonic_sum`'s docstring proves that skipping the counts whose
    # coefficient is 0 changes no carried (cost, num, L) int.  Each state's
    # totals equal those a sum over every count gives, on the relay chain
    # (one edge's +c and the next one's -c cancel at every arrival), a
    # Euclidean churn run and random explicit schedules.
    zeros, totals = Counter(), []
    _record_reroutes(monkeypatch, lambda state, new: totals.append(new.__dict__.get("totals")))
    for summed in (routing._harmonic_sum, _harmonic_sum_of_every_count):
        monkeypatch.setattr(routing, "_harmonic_sum", lambda by_count, summed=summed: zeros.update(
            n for n, c in by_count.items() if not c) or summed(by_count))
        fx = build_steiner_gap_fixture(12)
        run_eqp(fx.instance, fx.events, verify=False, accounting=False)
        er = build_random_euclidean(30, 0, "churn")
        run_eqp(er.instance, er.events, verify=False, accounting=False)
        rng = random.Random(22100)
        for _ in range(10):
            inst = random_metric(rng, rng.randint(4, 10))
            run_eqp(inst, random_schedule(rng, inst.n, 14, False), verify=False)
    skipped, walked = totals[:len(totals) // 2], totals[len(totals) // 2:]
    assert sum(zeros.values()) >= 400 and max(zeros) >= 100, zeros
    assert sum(t is not None for t in skipped) > 100 and skipped == walked
