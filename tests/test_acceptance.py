"""Acceptance gate: seven criteria, one test each.

The pytest -v line for each test is the pass/fail verdict; on success the
test also prints a `[criterion N] PASS` line with the measured numbers
(visible with -s or -rA).  Tolerances are pinned in-line: every game-value
comparison is exact rational arithmetic; the only float comparisons are the
certified-ratio gate (a float by construction) and wall-clock budgets.
"""

import math
import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from costshare import (
    ArrivalEvent,
    ArrivalItem,
    best_response,
    classify,
    dual_lower_bound,
    is_improving_tree_move,
    mst_cost,
    run_epoch_eqp,
    run_eqp,
    run_noneqp,
    shared_cost,
    solution_cost,
    tree_follow_move,
    verify_equilibrium,
)
from costshare.duals import (
    BALANCED,
    BALANCED_EQUILIBRIUM,
    CLASS_NAMES,
    LEAF_UNBALANCED,
    NONLEAF_UNBALANCED,
)
from costshare.instances import (
    build_gm,
    build_poa_fixture,
    build_random_euclidean,
    build_sigma,
    build_steiner_gap_fixture,
)
from costshare import duals, routing
from costshare.routing import graft_path, is_legal_improving
from conftest import family_for, random_metric, random_tree_state
from oracles import (
    brute_improving_tree_move,
    ceil_log2_exact,
    check_invariants,
    distance_levels,
    eager_prefix_sums,
    enumerate_best_response,
    path_edges,
    rebuild_charges,
)

EQP_GRID = [(n, seed) for n in (25, 50, 100, 200) for seed in range(5)]


@pytest.fixture(scope="module")
def eqp_runs():
    """The 20 churn simulations shared by criteria 2, 3, 4, and 6."""
    runs = []
    t0 = time.monotonic()
    for n, seed in EQP_GRID:
        er = build_random_euclidean(n, seed)
        runs.append((n, seed, run_eqp(er.instance, list(er.events))))
    return runs, time.monotonic() - t0


def _matrix(inst):
    return [[inst.cost(i, j) for j in range(inst.n)] for i in range(inst.n)]


def _legal_pairs(view):
    return [(u, v) for u in view.order if u != 0
            for v in view.order if v != u and not view.in_subtree(v, u)]


def test_criterion_1_lower_bound_family():
    # Exact: final cost m^2(m+1), per-agent share (m+1)/m, MST <= 3m^2,
    # ratio >= (m+1)/3.  Budget: < 60 s wall for m=5.  Every arrival pins
    # its canonical-path suffix, so a single deviation raises inside the run.
    rows = []
    for m in (2, 3, 4, 5):
        t0 = time.monotonic()
        gm = build_gm(m)
        res = run_noneqp(gm.instance, list(build_sigma(gm)))  # verifies equilibrium
        wall = time.monotonic() - t0
        cost = solution_cost(res.state)
        assert cost == m * m * (m + 1)
        opt = mst_cost(gm.instance, range(gm.n))
        assert opt <= 3 * m * m
        assert Fraction(cost, 1) / opt >= Fraction(m + 1, 3)
        assert len(res.state.counts) == m * m
        for top, agents in res.state.counts.items():
            assert agents == m
            assert shared_cost(res.state, top) == Fraction(m + 1, m)
        if m == 5:
            assert wall < 60.0
        rows.append(f"m={m}: cost {cost} ratio {float(Fraction(cost, 1) / opt):.2f} {wall:.1f}s")
    print(f"[criterion 1] PASS — {'; '.join(rows)}")


def test_criterion_2_certified_equilibrium_ratio(eqp_runs):
    runs, wall = eqp_runs
    assert len(runs) == 20
    worst = 0.0
    for n, seed, res in runs:
        assert res.verdict.ok, (n, seed)
        for ep in res.epochs:
            end_rank = ep.moves[-1].post_rank if ep.moves else CLASS_NAMES.index(ep.post_class)
            assert end_rank == BALANCED_EQUILIBRIUM, (n, seed, ep.index)
        final = classify(res.state, res.family)
        assert final.rank == BALANCED_EQUILIBRIUM  # every cut charged <= once
        rep = res.accounting
        assert rep.certified
        assert rep.gate == 32 * (math.log2(len(res.state.revealed)) + 1)
        assert float(rep.ratio) <= rep.gate
        worst = max(worst, float(rep.ratio))
    assert wall < 600.0
    print(f"[criterion 2] PASS — 20/20 runs certified; observed ratio <= "
          f"{worst:.3f} against gates >= {32 * (math.log2(25) + 1):.1f}; "
          f"total {wall:.1f}s")


def test_criterion_3_closure_of_the_four_classes(eqp_runs):
    # Every intermediate state classifies; each rule fires from its own
    # class and lands where it promised.  A closure breach would have
    # aborted the runs with an exception, so completing them already means
    # zero violations; the record-level checks re-verify the case analysis.
    runs, _ = eqp_runs
    tags = Counter()
    for n, seed, res in runs:
        for ep in res.epochs:
            assert CLASS_NAMES.index(ep.post_class) <= NONLEAF_UNBALANCED
            for mv in ep.moves:
                tags[mv.tag] += 1
                assert mv.pre_rank <= NONLEAF_UNBALANCED
                assert mv.post_rank <= NONLEAF_UNBALANCED
                if mv.tag == "balanced":
                    assert mv.pre_rank == BALANCED
                elif mv.tag.startswith("lu-"):
                    assert mv.pre_rank == LEAF_UNBALANCED
                else:
                    assert mv.tag == "nlu"
                    assert mv.pre_rank == NONLEAF_UNBALANCED
                    assert mv.context_cut == mv.pre_heavy_cut
                if mv.tag in ("lu-a", "lu-d"):
                    assert mv.post_rank <= LEAF_UNBALANCED
                if mv.tag in ("balanced", "lu-b") and mv.post_rank == NONLEAF_UNBALANCED:
                    assert mv.post_heavy_cut == mv.mover_new_cut
                if mv.tag in ("lu-c", "nlu") and mv.post_rank == NONLEAF_UNBALANCED:
                    assert mv.post_heavy_cut != mv.context_cut
    assert sum(tags.values()) > 0
    print(f"[criterion 3] PASS — all states within the four classes; "
          f"rule firings: {dict(sorted(tags.items()))}")


def test_criterion_4_potential_monotone_no_ceiling(eqp_runs):
    runs, _ = eqp_runs
    total_moves = 0
    worst_epoch = 0
    for n, seed, res in runs:
        ceiling = 10 * len(res.state.revealed) ** 3
        for ep in res.epochs:
            assert len(ep.moves) < ceiling
            worst_epoch = max(worst_epoch, len(ep.moves))
            for prev, nxt in zip(ep.moves, ep.moves[1:]):
                assert nxt.phi_pre == prev.phi_post
            for mv in ep.moves:
                assert mv.phi_post < mv.phi_pre  # exact Fraction comparison
                total_moves += 1
    print(f"[criterion 4] PASS — {total_moves} moves all strictly decreased "
          f"the potential; busiest epoch used {worst_epoch} moves against a "
          f"ceiling of 10*n^3 >= {10 * 25 ** 3}")


def test_criterion_5_oracle_equivalence():
    # Zero tolerance: exact (cost, fresh-edge count, path) triples and exact
    # boolean improving-move verdicts.
    rng = random.Random(50_000)
    br_checked = 0
    for _ in range(200):
        inst = random_metric(rng, rng.randint(3, 8))
        state = random_tree_state(rng, inst)
        cost = _matrix(inst)
        for src in range(1, inst.n):
            want = enumerate_best_response(cost, state.counts, state.paths, src)
            got = best_response(state, src)
            assert (got.cost, got.fresh_edges, got.path) == want, (src, state.paths)
            br_checked += 1

    move_checked = 0
    for _ in range(200):
        inst = random_metric(rng, rng.randint(4, 8))
        state = random_tree_state(rng, inst)
        cost = _matrix(inst)
        view = state.view
        for u, v in _legal_pairs(view):
            want = brute_improving_tree_move(cost, state.counts, state.paths, u, v)
            assert is_improving_tree_move(state, u, v) is want
            assert is_legal_improving(state, u, v) is want
            move_checked += 1
    print(f"[criterion 5] PASS — best response exact on {br_checked} searches; "
          f"improving-move verdict exact on {move_checked} pairs")


def _assert_downward_closed(state):
    for t, path in state.paths.items():
        for i, w in enumerate(path[1:-1], start=1):
            if w in state.paths:
                assert state.paths[w] == path[i:], (t, w)


def test_criterion_6_structural_property_suite(eqp_runs):
    runs, _ = eqp_runs
    rng = random.Random(60_000)

    # (a) equilibrium trees are downward closed
    for n, seed, res in runs:
        _assert_downward_closed(res.state)

    # (b) an arrival into an equilibrium takes the `_Search` best response
    # (the runner raises on any other path), which adds one fresh edge at most
    attach_checked = 0
    for n, seed, res in runs[:8]:
        state = res.state
        candidates = [v for v in state.revealed if v != 0][:3]
        for v in candidates:
            want = best_response(state, v).path
            run_epoch_eqp(state, family_for(state),
                          ArrivalEvent((ArrivalItem(v, 1, expect_path=want),)))
            fresh = [e for e in path_edges(want) if e not in state.usage]
            assert len(fresh) <= 1, (n, seed, v)
            attach_checked += 1

    # (c) non-improving moves stay non-improving when their mover moves
    quad_checked = 0
    while quad_checked < 500:
        inst = random_metric(rng, rng.randint(4, 9))
        state = random_tree_state(rng, inst)
        view = state.view
        pairs = _legal_pairs(view)
        live = [(u, v) for u, v in pairs if is_improving_tree_move(state, u, v)]
        for u, x in live:
            stale = [(a, b) for a, b in pairs
                     if a == u and b != x and not is_improving_tree_move(state, a, b)]
            if not stale:
                continue
            moved = tree_follow_move(state, u, x)
            for a, b in stale:
                assert is_legal_improving(moved, a, b) is False
                quad_checked += 1

    # (d) partition invariants hold after every insertion; levels exist only
    # where queried, and the number of charged levels stays logarithmic
    for _ in range(25):
        inst = random_metric(rng, rng.randint(2, 10))
        state = random_tree_state(rng, inst)
        family = family_for(state)  # family_for validates nothing itself...
        check_invariants(family)
        order = [v for v in range(1, inst.n) if v not in state.revealed]
        for v in order:
            family.insert(v)
            check_invariants(family)
        # check_invariants queried the spans, which only widen as vertices arrive
        assert sorted(family.levels) == list(distance_levels(inst, family.inserted))
    for n, seed, res in runs:
        rep = res.accounting
        n_rev = len(res.state.revealed)
        assert rep.level_budget == (n_rev.bit_length() - 1) + 2
        assert rep.levels_charged <= ceil_log2_exact(Fraction(n_rev)) + 6

    # (e) the per-level certificate never exceeds the true optimum on the
    # suite corpus (generator instances plus the runs above)
    corpus = [build_gm(m).instance for m in (1, 2, 3)]
    corpus.append(build_poa_fixture(5).instance)
    corpus += [build_steiner_gap_fixture(k).instance for k in (1, 3)]
    corpus += [res.state.instance for n, seed, res in runs if n <= 50]
    bound_checked = 0
    for inst in corpus:
        family = family_for(_full_state(inst))
        opt = mst_cost(inst, range(inst.n))
        for level in distance_levels(inst, range(inst.n), pad=2):
            assert dual_lower_bound(family, level) <= opt, (inst.kind, level)
            bound_checked += 1

    print(f"[criterion 6] PASS — downward closure on 20 equilibria; "
          f"{attach_checked} arrivals on the best response; {quad_checked} stable "
          f"quadruples; partition invariants at every insertion; "
          f"{bound_checked} dual bounds <= MST")


def test_graft_matches_search_on_every_equilibrium(eqp_runs):
    # Every off-tree revealed vertex of every final equilibrium: the O(|tree|)
    # graft scan and the dense `_Search` pick the same path.
    runs, _ = eqp_runs
    checked = 0
    for n, seed, res in runs:
        state = res.state
        for v in state.revealed:
            if v == 0 or v in state.view:
                continue
            assert graft_path(state, v) == best_response(state, v).path, (n, seed, v)
            checked += 1
    assert checked > 0
    print(f"[graft] PASS — graft equals the search's best response on {checked} "
          f"arrivals over {len(runs)} equilibria")


def test_charges_and_prefix_sums_match_oracles_on_every_state(monkeypatch):
    # The criterion-2 runs again, with every charge map checked against a
    # from-scratch rebuild (the memo's records must equal what the cuts say
    # now) and every tree view a state reads, built in full or derived from
    # its predecessor's, against a full build of a fresh copy of the state:
    # its shape field by field, and its sums, built or carried, against an
    # eager build: A/den and B/den equal as values, as a carried den may be
    # any common multiple of the divisors.
    matrices = {}  # the current run's instance and its Fraction cost matrix
    checked = Counter()
    real_charges = duals.compute_charges

    def audited_charges(state, family):
        got = real_charges(state, family)
        inst = state.instance
        if matrices.get("of") is not inst:
            matrices.update(of=inst, cost=_matrix(inst))
        records, by_cut = rebuild_charges(matrices["cost"], state.paths,
                                          family.component_of)

        def flat(recs):
            return [(r.vertex, r.level, r.cut, r.cost, r.leaf) for r in recs]

        assert flat(got.records) == records
        assert {k: flat(v) for k, v in got.by_cut.items()} == by_cut
        checked["charges"] += 1
        return got

    cached_view = routing.RoutingState.__dict__["view"]
    audited = {}  # id -> view, held so that no audited id is reused

    def audited_view(state):
        view = cached_view.__get__(state, routing.RoutingState)
        if id(view) in audited:
            return view
        audited[id(view)] = view
        want = routing._Tree(replace(state))
        assert view._usage is state.usage  # the counts are the state's own
        for field in ("parent", "children", "order", "leaves"):
            assert getattr(view, field) == getattr(want, field), field
        assert view.bounds() == want.bounds()  # carried or not, int for int
        inst = state.instance
        den, A, B = eager_prefix_sums(state.paths, state.usage, inst.costi, inst.denominator)
        for x in want.order:
            big, Ax, Bx = view.exact(x)
            big *= inst.denominator
            assert Fraction(Ax, big) == Fraction(A[x], den)
            assert Fraction(Bx, big) == Fraction(B[x], den)
        checked["views"] += 1
        return view

    monkeypatch.setattr(duals, "compute_charges", audited_charges)
    monkeypatch.setattr(routing.RoutingState, "view", property(audited_view))
    for n, seed in EQP_GRID:
        er = build_random_euclidean(n, seed)
        res = run_eqp(er.instance, list(er.events))
        assert res.verdict.ok
    assert checked["charges"] > len(EQP_GRID)
    assert checked["views"] > 10 * len(EQP_GRID)  # one per state, not per run
    print(f"[charges] PASS — {checked['charges']} charge maps equal the rebuild; "
          f"{checked['views']} tree views equal a full build, their sums an "
          "eager one")


def _full_state(inst):
    from costshare import initial_state, with_revealed

    return with_revealed(initial_state(inst), range(1, inst.n))


def test_criterion_7_fixture_ratios():
    # Exact: equilibrium-vs-optimum ratio n for the detour fixture, and the
    # two relay-tree ratios (n against surviving terminals, 1 against all
    # revealed vertices).
    for n in (2, 5, 10):
        fx = build_poa_fixture(n)
        assert verify_equilibrium(fx.bad_state).ok
        assert solution_cost(fx.bad_state) == fx.bad_cost == n
        assert fx.opt_cost == mst_cost(fx.instance, (0, 1)) == 1
        assert fx.ratio == Fraction(n)
        # the detour is strict for the crowd: each of n+1 agents pays
        # n/(n+1) < 1, the lone-deviator price of the direct edge
        assert shared_cost(fx.bad_state, 1) == Fraction(n, n + 1) < 1

    for n in (2, 4):
        fx = build_steiner_gap_fixture(n)
        res = run_eqp(fx.instance, list(fx.events))
        assert res.verdict.ok
        cost = solution_cost(res.state)
        surviving = (0,) + tuple(res.state.counts)
        assert cost / mst_cost(fx.instance, surviving) == Fraction(n)
        assert cost / mst_cost(fx.instance, range(2 * n + 1)) == Fraction(1)
    print("[criterion 7] PASS — detour ratios exactly {2, 5, 10}; relay-tree "
          "ratios exactly n (survivors) and 1 (all revealed)")
