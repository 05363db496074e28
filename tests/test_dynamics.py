"""Schedules, the move-selection rules, and both runners.

The select_tree_move tests pin one hand-built state per priority rule.  The
states use collinear integer points (exact distances), chosen so that exactly
the intended rule fires; the comments give the arithmetic that kills the
higher-priority rules.
"""

import random
from collections import Counter
from dataclasses import replace as dc_replace
from fractions import Fraction

import numpy as np
import pytest

from costshare import (
    ArrivalEvent,
    ArrivalItem,
    ClosureViolationError,
    ConfigError,
    DepartureEvent,
    EngineInvariantError,
    VerificationError,
    add_terminal,
    check_schedule,
    classify,
    euclidean_instance,
    initial_state,
    potential,
    run_epoch_eqp,
    run_eqp,
    run_noneqp,
    schedule_from_jsonable,
    schedule_to_jsonable,
    select_tree_move,
    solution_cost,
    tree_follow_move,
    verify_equilibrium,
    with_revealed,
)
from costshare import duals, dynamics, routing
from costshare.duals import (
    BALANCED,
    BALANCED_EQUILIBRIUM,
    LEAF_UNBALANCED,
    NONLEAF_UNBALANCED,
    StateClass,
)
from costshare.dynamics import SelectedMove, _assert_move_contract, _class_marker
from costshare.instances import build_gm, build_random_euclidean, build_sigma
from costshare.routing import RoutingState
from conftest import family_for, line_instance, random_metric, random_tree_state
from oracles import charge_level, check_invariants, rebuild_charges


def _state(inst, routes, counts=None, last_mover=None, reveal=None):
    state = with_revealed(initial_state(inst), reveal or range(1, inst.n))
    counts = counts or {}
    for v in sorted(routes):
        state = add_terminal(state, v, counts.get(v, 1), routes[v])
    if last_mover is not None:
        state = dc_replace(state, last_mover=last_mover)
    return state, family_for(state)


# ---------------------------------------------------------------------------
# schedule validation and serialization


def test_check_schedule_rejects_malformed_events():
    inst = line_instance(0, 5, 9)
    ok = [
        ArrivalEvent((ArrivalItem(1, 2), ArrivalItem(2, 1, (2, 1, 0)))),
        DepartureEvent((1,)),
    ]
    check_schedule(inst, ok)

    bad = [
        ArrivalEvent(()),
        ArrivalEvent((ArrivalItem(9, 1),)),
        ArrivalEvent((ArrivalItem(0, 1),)),
        ArrivalEvent((ArrivalItem(1, 0),)),
        ArrivalEvent((ArrivalItem(1, 1, (1, 2)),)),
        ArrivalEvent((ArrivalItem(1, 1, (2, 0)),)),
        ArrivalEvent((ArrivalItem(1, 1, (1, 1, 0)),)),
        ArrivalEvent((ArrivalItem(1, 1),), reveal=(77,)),
        DepartureEvent(()),
        DepartureEvent((0,)),
        "not an event",
    ]
    for ev in bad:
        with pytest.raises(ConfigError):
            check_schedule(inst, [ev])


def test_check_schedule_caps_the_agents_active_at_once():
    # The potential's denominator is lcm(1..N), about 1.44 N bits for N
    # agents on one edge, so a count of 10**12 would never finish.  Counts
    # add per vertex and across items; a departure takes its agents out.
    inst = line_instance(0, 5, 9)
    cap, half = dynamics.MAX_ACTIVE_AGENTS, dynamics.MAX_ACTIVE_AGENTS // 2
    assert cap == 2**18

    def arrive(*items):
        return ArrivalEvent(tuple(ArrivalItem(v, k) for v, k in items))

    check_schedule(inst, [arrive((1, half)), arrive((2, half))])
    check_schedule(inst, [arrive((1, cap)), DepartureEvent((1,)), arrive((2, cap))])
    for events in ([arrive((1, half)), arrive((1, half)), arrive((2, 1))],
                   [arrive((1, cap), (2, 1))],
                   [arrive((1, cap)), DepartureEvent((2,)), arrive((1, 1))]):
        with pytest.raises(ConfigError, match="agents active at once"):
            check_schedule(inst, events)
    with pytest.raises(ConfigError, match="agents active at once"):
        run_eqp(inst, [arrive((1, 10**12))])


def test_schedule_json_round_trip():
    events = (
        ArrivalEvent((ArrivalItem(1, 2), ArrivalItem(3, 1, (3, 1, 0))), reveal=(3,)),
        DepartureEvent((1,)),
        ArrivalEvent((ArrivalItem(2),)),
    )
    assert schedule_from_jsonable(schedule_to_jsonable(events)) == events


def test_schedule_from_jsonable_rejects_junk():
    bad_payloads = [
        [],
        {"events": "nope"},
        {"events": [{"type": "warp"}]},
        {"events": [{"type": "arrive", "items": []}]},
        {"events": [{"type": "arrive", "items": [{"vertex": "1"}]}]},
        {"events": [{"type": "arrive", "items": [{"vertex": 1, "count": True}]}]},
        {"events": [{"type": "arrive", "items": [{"vertex": 1, "expect_path": 5}]}]},
        {"events": [{"type": "arrive", "items": [{"vertex": 1}], "reveal": 3}]},
        {"events": [{"type": "depart", "vertices": []}]},
        {"events": ["not an object"]},
    ]
    for payload in bad_payloads:
        with pytest.raises(ConfigError):
            schedule_from_jsonable(payload)


# ---------------------------------------------------------------------------
# move selection, rule by rule


def test_select_returns_none_on_balanced_equilibrium():
    state, family = _state(line_instance(0, 7), {1: (1, 0)})
    assert classify(state, family).rank == BALANCED_EQUILIBRIUM
    assert select_tree_move(state, family) is None


def test_select_balanced_smallest_mover_closest_target():
    # Both directs want to merge; vertex 1 moves first, to its only
    # improving target.
    state, family = _state(line_instance(0, 10, 9), {1: (1, 0), 2: (2, 0)})
    sel = select_tree_move(state, family)
    assert (sel.mover, sel.target, sel.tag) == (1, 2, "balanced")


def test_select_balanced_breaks_target_distance_ties_by_id():
    # Targets 2 (at 9) and 3 (at 11) are both at distance 1 from vertex 1
    # and both improving; the smaller id wins.
    state, family = _state(
        line_instance(0, 10, 9, 11), {1: (1, 0), 2: (2, 0), 3: (3, 0)}
    )
    sel = select_tree_move(state, family)
    assert (sel.mover, sel.target, sel.tag) == (1, 2, "balanced")


def test_select_lu_a_leaf_to_nonleaf():
    # 2 and 3 (costs 18, 17) charge the same level-2 cut: leaf-unbalanced.
    # Leaf 2 can profitably hop onto non-leaf 1 (distance 2, riding the
    # 20-edge shared by 1 and 4), so rule (a) fires for the smallest leaf.
    state, family = _state(
        line_instance(0, 20, 18, 17, 21),
        {1: (1, 0), 2: (2, 0), 3: (3, 0), 4: (4, 1, 0)},
    )
    cls = classify(state, family)
    assert cls.rank == LEAF_UNBALANCED
    sel = select_tree_move(state, family)
    assert (sel.mover, sel.target, sel.tag) == (2, 1, "lu-a")
    assert sel.context_cut is None


def test_select_lu_b_nonleaf_to_nonleaf():
    # Heavy cut: the leaf pair 5/6 (costs 18/17, level 2).  No leaf improves
    # toward a non-leaf: the two co-located agents at 2 pay 100 while a
    # direct jump costs 200, 4's crowd of three is content, and 5/6 only
    # covet each other.  But interior 1 (share 100/2 = 50) reaches interior
    # 3 for 20 + 80/4 = 40: rule (b).
    state, family = _state(
        line_instance(0, 100, 200, 80, 90, 18, 17),
        {2: (2, 1, 0), 4: (4, 3, 0), 5: (5, 0), 6: (6, 0)},
        counts={2: 2, 4: 3},
    )
    cls = classify(state, family)
    assert cls.rank == LEAF_UNBALANCED
    sel = select_tree_move(state, family)
    assert (sel.mover, sel.target, sel.tag) == (1, 3, "lu-b")


def test_select_lu_c_cut_charger_pair():
    # One cut (level 3) charged by interior 1 (parent edge 40) and leaf 2
    # (edge 32).  The 16 agents at 3 route through 1 along a deliberately
    # long path, so 1's group pays 527.5/16 ≈ 33 a head and no leaf or
    # interior can improve to a non-leaf target: rules (a) and (b) are dead
    # — e.g. 2 -> 1 costs 1 + 527.5/17 ≈ 32.03 against its current 32.
    # Rule (c) then moves the cut's interior charger onto its leaf partner.
    inst = euclidean_instance(
        [(0, 0), (33, 0), (32, 0), (34, 0), (73, 0), (Fraction(-829, 4), 0)]
    )
    state, family = _state(inst, {2: (2, 0), 3: (3, 1, 4, 5, 0)}, counts={3: 16})
    cls = classify(state, family)
    assert cls.rank == LEAF_UNBALANCED
    sel = select_tree_move(state, family)
    assert (sel.mover, sel.target, sel.tag) == (1, 2, "lu-c")
    assert sel.context_cut is not None and sel.context_cut[0] == 3
    # the promised co-membership: mover and target within the cut's diameter
    assert state.instance.cost(1, 2) < Fraction(2**3)


def test_select_lu_d_leaf_to_leaf_fallback():
    # Two lone directs charging one cut, nothing but each other to move to.
    state, family = _state(line_instance(0, 18, 17), {1: (1, 0), 2: (2, 0)})
    cls = classify(state, family)
    assert cls.rank == LEAF_UNBALANCED
    sel = select_tree_move(state, family)
    assert (sel.mover, sel.target, sel.tag) == (1, 2, "lu-d")


def _nlu_state(counts=None, last_mover=1):
    return _state(
        line_instance(0, 33, 32, 34, 31),
        {1: (1, 0), 2: (2, 0), 3: (3, 1, 0), 4: (4, 2, 0)},
        counts=counts,
        last_mover=last_mover,
    )


def test_select_nlu_last_mover_goes_when_it_improves():
    state, family = _nlu_state()
    cls = classify(state, family)
    assert cls.rank == NONLEAF_UNBALANCED
    assert cls.heavy_chargers == (1, 2)
    sel = select_tree_move(state, family)
    assert (sel.mover, sel.target, sel.tag) == (1, 2, "nlu")
    assert sel.context_cut == cls.heavy_cut


def test_select_nlu_other_charger_goes_when_last_mover_is_content():
    # 50 agents behind 1 crowd its parent edge (share 33/51), so 1 has
    # nothing to gain; 2 still improves toward 1.
    state, family = _nlu_state(counts={3: 50})
    sel = select_tree_move(state, family)
    assert (sel.mover, sel.target, sel.tag) == (2, 1, "nlu")


def test_select_nlu_raises_when_neither_charger_improves():
    state, family = _nlu_state(counts={3: 50, 4: 50})
    with pytest.raises(ClosureViolationError, match="neither charger"):
        select_tree_move(state, family)


def _first_improving(state, movers, allowed=None):
    for u in movers:
        tgt = routing.closest_improving_target(state, u, allowed)
        if tgt is not None:
            return u, tgt
    return None


def _walk_every_row(state, cls):
    """The rules' id-order walks over every non-root vertex, no row skipped:
    {tag: (mover, target) or None} for the rules this class tries."""
    view = state.view
    rows = view.order[1:]
    if cls.rank == BALANCED:
        return {"balanced": _first_improving(state, rows)}
    non_leaves = frozenset(v for v in view.order if v not in view.leaves)
    return {"lu-a": _first_improving(state, sorted(view.leaves), non_leaves),
            "lu-b": _first_improving(state, [u for u in rows if u not in view.leaves],
                                     non_leaves),
            "lu-d": _first_improving(state, rows)}


def test_select_matches_a_walk_over_every_row():
    # Selection walks only the rows of the screen that keep a target.  The
    # oracle walks every row of the same state under a screen that keeps
    # every pair, so each legal target goes to the exact test; a rule fires
    # only if the walks of the rules before it find nothing.  The pinned
    # states of every rule, then random trees with a random last mover.
    rng = random.Random(91)
    cases = [
        _state(line_instance(0, 10, 9, 11), {1: (1, 0), 2: (2, 0), 3: (3, 0)}),
        _state(line_instance(0, 20, 18, 17, 21),
               {1: (1, 0), 2: (2, 0), 3: (3, 0), 4: (4, 1, 0)}),
        _state(line_instance(0, 100, 200, 80, 90, 18, 17),
               {2: (2, 1, 0), 4: (4, 3, 0), 5: (5, 0), 6: (6, 0)}, counts={2: 2, 4: 3}),
        _state(euclidean_instance([(0, 0), (33, 0), (32, 0), (34, 0), (73, 0),
                                   (Fraction(-829, 4), 0)]),
               {2: (2, 0), 3: (3, 1, 4, 5, 0)}, counts={3: 16}),
        _state(line_instance(0, 18, 17), {1: (1, 0), 2: (2, 0)}),
        _nlu_state(),
        _nlu_state(counts={3: 50}),
    ]
    for _ in range(200):
        state = random_tree_state(rng, random_metric(rng, rng.randint(3, 9)),
                                  max_count=rng.choice((1, 3, 9)))
        state = dc_replace(state, last_mover=rng.choice(state.view.order[1:]))
        cases.append((state, family_for(state)))
    tags = Counter()
    for state, family in cases:
        try:
            cls = classify(state, family)
        except ClosureViolationError:
            continue
        every = dc_replace(state)
        order = state.view.order
        every.__dict__["screen"] = np.ones((len(order),) * 2, dtype=bool), order
        sel = select_tree_move(state, family, cls=cls)
        tag = sel and sel.tag
        tags[tag] += 1
        if tag is None or tag == "nlu":
            want = select_tree_move(every, family, cls=cls)
            assert (sel and (sel.mover, sel.target)) == (want and (want.mover, want.target))
            continue
        walks = _walk_every_row(every, cls)  # lu-c walks the cuts, not rows
        rules = ["balanced"] if cls.rank == BALANCED else ["lu-a", "lu-b", "lu-c", "lu-d"]
        assert not any(walks.get(r) for r in rules[:rules.index(tag)]), (tag, walks)
        assert walks.get(tag, (sel.mover, sel.target)) == (sel.mover, sel.target), (tag, walks)
    assert {"balanced", "lu-a", "lu-b", "lu-c", "lu-d", "nlu", None} <= set(tags), tags


def test_balanced_rule_moves_the_classified_pairs_vertex(monkeypatch):
    # At rank 1 classify keeps the first improving pair in (u, v) id order.
    # The balanced rule moves its u, the smallest-id vertex that some legal
    # target improves, and asks for one closest target only.
    rng = random.Random(92)
    asked = []
    real = routing.closest_improving_target
    monkeypatch.setattr(dynamics, "closest_improving_target",
                        lambda state, u, **kw: asked.append(u) or real(state, u, **kw))
    balanced = 0
    for _ in range(200):
        state = random_tree_state(rng, random_metric(rng, rng.randint(3, 9)),
                                  max_count=rng.choice((1, 3, 9)))
        family = family_for(state)
        try:
            cls = classify(state, family)
        except ClosureViolationError:
            continue
        if cls.rank != BALANCED:
            assert cls.improving is None
            continue
        order = state.view.order
        first = next(u for u in order[1:]
                     if any(routing.is_legal_improving(state, u, v) for v in order))
        asked.clear()
        sel = select_tree_move(state, family, cls=cls)
        assert (cls.improving[0], sel.tag, sel.mover, asked) == (first, "balanced", first, [first])
        balanced += 1
    assert balanced >= 20, balanced


def test_selected_moves_lower_potential_and_declass():
    # Applying each rule's selected move must drop the potential; the three
    # "resolving" rules must also leave the special structure resolved.
    cases = [
        _state(line_instance(0, 10, 9), {1: (1, 0), 2: (2, 0)}),
        _state(
            line_instance(0, 20, 18, 17, 21),
            {1: (1, 0), 2: (2, 0), 3: (3, 0), 4: (4, 1, 0)},
        ),
        _state(line_instance(0, 18, 17), {1: (1, 0), 2: (2, 0)}),
        _nlu_state(),
    ]
    for state, family in cases:
        sel = select_tree_move(state, family)
        moved = tree_follow_move(state, sel.mover, sel.target)
        assert potential(moved) < potential(state)
        post = classify(moved, family)
        if sel.tag == "nlu":
            assert post.rank < NONLEAF_UNBALANCED or post.heavy_cut != sel.context_cut
        if sel.tag in ("lu-a", "lu-d"):
            assert post.rank <= LEAF_UNBALANCED


# ---------------------------------------------------------------------------
# epoch runner


def test_epoch_rejects_departure_that_leaves_imbalance():
    state, family = _state(
        line_instance(0, 18, 17, 300), {1: (1, 0), 2: (2, 0), 3: (3, 0)}
    )
    with pytest.raises(ClosureViolationError, match="after a depart event"):
        run_epoch_eqp(state, family, DepartureEvent((3,)))


def test_epoch_rejects_arrival_onto_nonleaf_unbalanced_state():
    state, family = _state(
        line_instance(0, 33, 32, 34, 31, 10**5),
        {1: (1, 0), 2: (2, 0), 3: (3, 1, 0), 4: (4, 2, 0)},
        last_mover=1,
        reveal=range(1, 5),
    )
    with pytest.raises(ClosureViolationError, match="after a arrive event"):
        run_epoch_eqp(state, family, ArrivalEvent((ArrivalItem(5, 1),), reveal=(5,)))


def test_epoch_move_ceiling(monkeypatch):
    inst = line_instance(0, 10, 6)
    events = [ArrivalEvent((ArrivalItem(1, 1),)), ArrivalEvent((ArrivalItem(2, 1),))]
    run_eqp(inst, events)  # one rebalancing move: fine at the default ceiling
    monkeypatch.setattr("costshare.dynamics.MOVE_CEILING_FACTOR", 0)  # read per epoch
    with pytest.raises(EngineInvariantError, match="move ceiling"):
        run_eqp(inst, events)


def test_epoch_records_and_move_records():
    inst = line_instance(0, 10, 6)
    events = [ArrivalEvent((ArrivalItem(1, 1),)), ArrivalEvent((ArrivalItem(2, 1),))]
    seen = []
    res = run_eqp(inst, events, on_move=lambda epoch, rec: seen.append((epoch, rec)))
    first, second = res.epochs
    assert (first.kind, first.post_class, first.moves) == ("arrive", "balanced-equilibrium", ())
    assert second.post_class == "balanced"
    (move,) = second.moves
    assert (move.mover, move.target, move.tag) == (1, 2, "balanced")
    assert move.move_cost == 4
    assert (move.pre_rank, move.post_rank) == (BALANCED, BALANCED_EQUILIBRIUM)
    assert move.phi_post < move.phi_pre
    assert move.mover_was_leaf and move.target_was_leaf
    assert seen == [(1, move)]
    # the dust settles on the merged tree
    assert res.state.paths == {1: (1, 2, 0), 2: (2, 0)}
    assert second.phi == potential(res.state)
    assert second.cost == solution_cost(res.state) == 10
    assert second.agents == 2
    assert res.verdict.ok
    assert res.accounting is not None and res.accounting.total_cost == 10


def test_run_eqp_without_verify_or_accounting():
    inst = line_instance(0, 10, 6)
    events = [ArrivalEvent((ArrivalItem(1, 1),))]
    res = run_eqp(inst, events, verify=False, accounting=False)
    assert res.verdict is None and res.accounting is None


def test_run_eqp_is_deterministic():
    inst = line_instance(0, 10, 6, 23, 24)
    events = [
        ArrivalEvent((ArrivalItem(1, 1), ArrivalItem(3, 2))),
        ArrivalEvent((ArrivalItem(2, 1),)),
        ArrivalEvent((ArrivalItem(4, 1),)),
        DepartureEvent((3,)),
    ]
    a = run_eqp(inst, events)
    b = run_eqp(inst, events)
    assert a.state.paths == b.state.paths
    assert a.state.usage == b.state.usage
    assert [e.moves for e in a.epochs] == [e.moves for e in b.epochs]


def test_an_eqp_epoch_keeps_no_superseded_screen(monkeypatch):
    # `run_epoch_eqp` drops the cached improving-move screen of each state
    # it supersedes: the input state's once the event is applied, each
    # pre-move state's once its move is selected, so the next state's
    # screen is never built beside it.  The epoch's output keeps its own.
    tally = Counter()
    epoch, apply_move = dynamics.run_epoch_eqp, dynamics._apply_move

    def epoching(state, *args, **kwargs):
        tally["inputs with a screen"] += "screen" in vars(state)
        new, rec = epoch(state, *args, **kwargs)
        assert "screen" not in vars(state) and "screen" in vars(new)
        tally["epochs"] += 1
        return new, rec

    def moving(state, *args):
        assert "screen" not in vars(state)
        tally["moves"] += 1
        return apply_move(state, *args)

    monkeypatch.setattr(dynamics, "run_epoch_eqp", epoching)
    monkeypatch.setattr(dynamics, "_apply_move", moving)
    run = build_random_euclidean(60, 0)
    res = run_eqp(run.instance, run.events, verify=False, accounting=False)
    assert "screen" in vars(res.state)
    assert tally["epochs"] == len(run.events) == tally["inputs with a screen"] + 1
    assert tally["moves"] >= 20, tally


def test_departed_relay_becomes_interior_and_arrivals_adopt_its_path():
    inst = line_instance(0, 10, 11)
    events = [
        ArrivalEvent((ArrivalItem(1, 1),)),
        ArrivalEvent((ArrivalItem(2, 1),)),  # rides 1's edge: (2, 1, 0)
        DepartureEvent((1,)),  # 1 is now a terminal-less relay
        ArrivalEvent((ArrivalItem(1, 2),)),  # adopts the tree path (1, 0)
    ]
    res = run_eqp(inst, events)
    assert res.state.paths == {2: (2, 1, 0), 1: (1, 0)}
    assert res.state.counts == {2: 1, 1: 2}
    assert all(e.post_class == "balanced-equilibrium" for e in res.epochs)


def test_run_eqp_rejects_departure_of_inactive_vertex():
    inst = line_instance(0, 10, 6)
    events = [ArrivalEvent((ArrivalItem(1, 1),)), DepartureEvent((2,))]
    with pytest.raises(ConfigError, match="no agents"):
        run_eqp(inst, events)


def test_arrival_at_occupied_vertex_reuses_the_path():
    inst = line_instance(0, 10, 11)
    events = [
        ArrivalEvent((ArrivalItem(1, 1),)),
        ArrivalEvent((ArrivalItem(2, 1),)),
        ArrivalEvent((ArrivalItem(2, 5),)),
    ]
    res = run_eqp(inst, events)
    assert res.state.counts == {1: 1, 2: 6}
    assert res.state.paths[2] == (2, 1, 0)


# ---------------------------------------------------------------------------
# one-shot runner


def test_noneqp_expect_path_pin_fires():
    events = [
        ArrivalEvent((ArrivalItem(1, 1, (1, 0)),)),
        ArrivalEvent((ArrivalItem(2, 1, (2, 1, 0)),)),  # engine picks (2, 0)
    ]
    with pytest.raises(EngineInvariantError, match="expected path"):
        run_noneqp(line_instance(0, 10, 6), events)


def test_noneqp_batch_orders_differ_when_plans_interact():
    # Sequentially, 2 sees 1's fresh edge and rides it; against the snapshot
    # both route independently and 2 prefers fewer fresh edges on the tie.
    inst = line_instance(0, 10, 11)
    both = ArrivalEvent((ArrivalItem(1, 1), ArrivalItem(2, 1)))
    seq = run_noneqp(inst, [both], batch_order="sequential", verify=False)
    snap = run_noneqp(inst, [both], batch_order="snapshot", verify=False)
    assert seq.state.paths == {1: (1, 0), 2: (2, 1, 0)}
    assert snap.state.paths == {1: (1, 0), 2: (2, 0)}
    with pytest.raises(ConfigError, match="batch order"):
        run_noneqp(inst, [both], batch_order="shuffled", verify=False)


def test_noneqp_sequential_batching_equals_single_item_events():
    inst = line_instance(0, 10, 11)
    batched = run_noneqp(
        inst, [ArrivalEvent((ArrivalItem(1, 1), ArrivalItem(2, 1)))], verify=False
    )
    split = run_noneqp(
        inst,
        [ArrivalEvent((ArrivalItem(1, 1),)), ArrivalEvent((ArrivalItem(2, 1),))],
        verify=False,
    )
    assert batched.state.paths == split.state.paths
    assert batched.state.usage == split.state.usage


def test_noneqp_verification_failure():
    inst = line_instance(0, 10, 11)
    both = ArrivalEvent((ArrivalItem(1, 1), ArrivalItem(2, 1)))
    with pytest.raises(VerificationError, match="not an equilibrium"):
        run_noneqp(inst, [both], batch_order="snapshot")


def test_noneqp_event_records_and_callback():
    inst = line_instance(0, 10, 11)
    events = [
        ArrivalEvent((ArrivalItem(1, 1),)),
        ArrivalEvent((ArrivalItem(2, 1),)),
        DepartureEvent((1,)),
    ]
    seen = []
    res = run_noneqp(inst, events, verify=False, on_event=seen.append)
    assert [r.kind for r in res.epochs] == ["arrive", "arrive", "depart"]
    assert [r.agents for r in res.epochs] == [1, 2, 1]
    assert all(r.post_class == "balanced" for r in res.epochs)
    assert seen == list(res.epochs)
    assert res.accounting is None


def test_reveal_keeps_family_in_sync():
    inst = line_instance(0, 10, 6, 23)
    events = [
        ArrivalEvent((ArrivalItem(1, 1),), reveal=(3,)),
        ArrivalEvent((ArrivalItem(2, 1),)),
    ]
    res = run_eqp(inst, events)
    assert list(res.state.revealed) == res.family.inserted == [0, 3, 1, 2]
    check_invariants(res.family)


# ---------------------------------------------------------------------------
# what per-event classification builds


def test_oneshot_dynamics_builds_no_prefix_sums(monkeypatch):
    # Classification reads only the tree's shape; under one-shot nothing
    # else asks a view for its sums until the certify sweep.
    builds = []
    real = routing._Tree._build_sums
    monkeypatch.setattr(routing._Tree, "_build_sums",
                        lambda view: builds.append(view) or real(view))
    gm = build_gm(3)
    res = run_noneqp(gm.instance, list(build_sigma(gm)), verify=False)
    assert builds == []
    assert verify_equilibrium(res.state).ok
    assert builds


def test_oneshot_charges_match_rebuild_after_every_event(monkeypatch):
    gm = build_gm(4)
    matrix = [[gm.instance.cost(i, j) for j in range(gm.n)] for i in range(gm.n)]
    checked = []
    real = duals.compute_charges

    def audited(state, family):
        got = real(state, family)
        records, by_cut = rebuild_charges(matrix, state.paths, family.component_of)
        assert [(r.vertex, r.level, r.cut, r.cost, r.leaf) for r in got.records] == records
        assert {k: [(r.vertex, r.level, r.cut, r.cost, r.leaf) for r in v]
                for k, v in got.by_cut.items()} == by_cut
        checked.append(state)
        return got

    monkeypatch.setattr(duals, "compute_charges", audited)
    events = list(build_sigma(gm))
    run_noneqp(gm.instance, events, verify=False)
    assert len(checked) == len(events)


def _forged(paths, counts, usage):
    inst = line_instance(0, 5, 9)
    state = RoutingState(inst, (0, 1, 2), counts, paths, usage)
    return state, family_for(state)


@pytest.mark.parametrize("paths, counts, usage, match", [
    ({1: (1, 2, 1)}, {1: 1}, {(1, 2): 1}, "cycle"),
    ({1: (1, 0), 2: (2, 1, 0), 3: (1, 2, 0)}, {1: 1, 2: 1},
     {(0, 1): 2, (1, 2): 2, (0, 2): 1}, "disagree on the parent of 1"),
    ({1: (1, 0)}, {1: 1}, {}, "no recorded usage"),
    ({1: (1, 2, 0)}, {2: 1}, {(1, 2): 1, (0, 2): 1}, "leaves without terminals"),
    ({1: (1, 0, 2)}, {1: 1}, {(0, 1): 1, (0, 2): 1}, "root has a parent"),
    ({1: (1, 0), 2: (2, 1)}, {1: 1, 2: 1}, {(0, 1): 1, (1, 2): 1},
     "does not end at the root"),
], ids=["cycle", "conflicting-parent", "zero-usage", "bare-leaf", "root-parent",
        "path-off-the-root"])
def test_non_tree_states_raise_at_the_view(paths, counts, usage, match):
    state, family = _forged(paths, counts, usage)
    with pytest.raises(EngineInvariantError, match=match):
        state.view
    assert _class_marker(state, family) == "non-tree"


def test_the_move_contract_refuses_each_breach_with_its_details():
    # Synthetic selections and landings: an lu-a or lu-d move must land
    # leaf-unbalanced or tighter; one that lands nonleaf-unbalanced may have
    # crowded only the mover's new cut if it was a balanced or lu-b move,
    # and must have cleared its context cut if it was an lu-c or nlu move.
    new_cut, other = (1, 0), (2, 4)

    def sel(tag, context=None):
        return SelectedMove(3, 5, tag, StateClass(BALANCED, None), context_cut=context)

    def landing(rank, heavy=None):
        return StateClass(rank, None, heavy_cut=heavy)

    def details(move, post):
        with pytest.raises(ClosureViolationError) as exc:
            _assert_move_contract(move, post, new_cut)
        return exc.value.details

    tags = ("balanced", "lu-a", "lu-b", "lu-c", "lu-d", "nlu")
    for tag in tags:
        for rank in (BALANCED_EQUILIBRIUM, BALANCED, LEAF_UNBALANCED):
            _assert_move_contract(sel(tag, other), landing(rank), new_cut)
    for tag in ("lu-a", "lu-d"):
        assert details(sel(tag), landing(NONLEAF_UNBALANCED, new_cut)) == {
            "tag": tag, "mover": 3, "target": 5}
    for tag in ("balanced", "lu-b"):
        _assert_move_contract(sel(tag), landing(NONLEAF_UNBALANCED, new_cut), new_cut)
        assert details(sel(tag), landing(NONLEAF_UNBALANCED, other)) == {
            "tag": tag, "heavy": "(2, 4)", "mover_cut": "(1, 0)"}
    for tag in ("lu-c", "nlu"):
        _assert_move_contract(sel(tag, other), landing(NONLEAF_UNBALANCED, new_cut), new_cut)
        assert details(sel(tag, other), landing(NONLEAF_UNBALANCED, other)) == {
            "tag": tag, "cut": "(2, 4)"}


def test_a_one_shot_state_past_the_four_classes_is_marked(monkeypatch):
    # `_class_marker` names a state that `classify` refuses as past the
    # ladder, and the one-shot runner records it as the epoch's class.
    def refuse(state, family, **kwargs):
        raise ClosureViolationError("multiple cuts with two or more non-leaf chargers")

    monkeypatch.setattr(dynamics, "classify", refuse)
    gm = build_gm(2)
    res = run_noneqp(gm.instance, list(build_sigma(gm)), verify=False)
    assert {ep.post_class for ep in res.epochs} == {"beyond-nonleaf-unbalanced"}
    assert len(res.epochs) == 32


def test_a_run_inserts_each_revealed_vertex_once_in_order(monkeypatch):
    # The family follows `state.revealed`: `compute_charges` inserts what it
    # lacks, so a run inserts each revealed vertex once, in order, under
    # both policies, and a run with no events leaves the family empty.
    inserts = []
    real = duals.DualFamily.insert
    monkeypatch.setattr(duals.DualFamily, "insert",
                        lambda family, v: inserts.append(v) or real(family, v))
    er = build_random_euclidean(30, 0)
    gm = build_gm(3)
    for run in (lambda: run_eqp(er.instance, list(er.events)),
                lambda: run_noneqp(gm.instance, list(build_sigma(gm)))):
        inserts.clear()
        res = run()
        assert inserts == res.family.inserted == list(res.state.revealed)
    inserts.clear()
    assert run_eqp(er.instance, []).family.inserted == inserts == []


def test_mover_new_cut_is_the_charge_of_its_new_parent_edge():
    # The cut a move's record names is read from the family's charge memo;
    # it must be the cut charge_level(move cost) gives.
    moves = 0
    for n, seed in ((25, 0), (50, 1)):
        er = build_random_euclidean(n, seed)
        res = run_eqp(er.instance, list(er.events))
        for ep in res.epochs:
            for mv in ep.moves:
                assert mv.mover_new_cut == res.family.component_of(
                    mv.mover, charge_level(mv.move_cost))
                moves += 1
    assert moves > 0
