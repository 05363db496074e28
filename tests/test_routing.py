"""Routing states, best responses, and tree-follow moves.

The heavy lifting here is comparing the engine's closed-form/screened
computations against the brute-force oracles: exhaustive path enumeration for
best responses and explicit subtree rerouting for improving-move checks.
"""

import gc
import math
import random
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from costshare import (
    ArrivalEvent,
    ArrivalItem,
    ClosureViolationError,
    EngineInvariantError,
    ROOT,
    VerificationError,
    add_terminal,
    best_response,
    build_random_euclidean,
    explicit_metric,
    find_improving_tree_move,
    initial_state,
    is_improving_tree_move,
    potential,
    prune_departures,
    run_epoch_eqp,
    run_eqp,
    run_noneqp,
    shared_cost,
    solution_cost,
    tree_follow_move,
    verify_equilibrium,
    with_revealed,
)
from costshare import classify, dynamics, routing, select_tree_move
from costshare.cli import snapshot_from_jsonable, snapshot_to_jsonable
from costshare.duals import BALANCED, StateClass
from costshare.instances import build_gm, build_sigma, build_steiner_gap_fixture
from costshare.routing import Witness, graft_path, has_improving_move, is_legal_improving
from conftest import (
    OFF_TREE,
    big_denominator_metric,
    family_for,
    line_instance,
    random_event,
    random_metric,
    random_schedule,
    random_tree_state,
)
from oracles import (
    audit_state,
    brute_improving_tree_move,
    eager_prefix_sums,
    enumerate_best_response,
    floyd_warshall,
    hypothetical_share,
    lca_from_paths,
    recompute_potential,
    reroute_subtree,
    row_scan_first_improving,
    shared_cost_of,
    subtree_from_paths,
    tree_parent_map,
    usage_from_paths,
)


def _matrix(inst):
    return [[inst.cost(i, j) for j in range(inst.n)] for i in range(inst.n)]


def _revealed_state(inst):
    return with_revealed(initial_state(inst), range(1, inst.n))


# ---------------------------------------------------------------------------
# state plumbing


def test_add_terminal_validation():
    inst = line_instance(0, 5, 9)
    state = _revealed_state(inst)
    with pytest.raises(EngineInvariantError):
        add_terminal(state, 1, 0, (1, 0))
    with pytest.raises(EngineInvariantError):
        add_terminal(state, 1, 1, (2, 0))  # path does not start at the vertex
    with pytest.raises(EngineInvariantError):
        add_terminal(state, 1, 1, (1, 2))  # does not end at the root
    with pytest.raises(EngineInvariantError):
        add_terminal(state, 1, 1, (1, 2, 1, 0))  # revisits a vertex
    hidden = with_revealed(initial_state(inst), [1])
    with pytest.raises(EngineInvariantError, match="unrevealed"):
        add_terminal(hidden, 1, 1, (1, 2, 0))


def test_add_terminal_merges_colocated_agents():
    inst = line_instance(0, 5, 9)
    state = _revealed_state(inst)
    state = add_terminal(state, 2, 1, (2, 1, 0))
    state = add_terminal(state, 2, 3, (2, 1, 0))
    assert state.counts == {2: 4}
    assert state.usage == {(1, 2): 4, (0, 1): 4}
    with pytest.raises(EngineInvariantError, match="already routed"):
        add_terminal(state, 2, 1, (2, 0))


def test_prune_departures_recomputes_usage():
    inst = line_instance(0, 5, 9)
    state = _revealed_state(inst)
    state = add_terminal(state, 1, 2, (1, 0))
    state = add_terminal(state, 2, 1, (2, 1, 0))
    out = prune_departures(state, [1])
    assert out.counts == {2: 1}
    assert out.usage == {(1, 2): 1, (0, 1): 1}
    audit_state(out)
    with pytest.raises(EngineInvariantError, match="inactive"):
        prune_departures(out, [1])


def test_prune_departures_clears_dangling_last_mover():
    inst = line_instance(0, 5, 9)
    state = _revealed_state(inst)
    state = add_terminal(state, 1, 1, (1, 0))
    state = add_terminal(state, 2, 1, (2, 0))
    moved = tree_follow_move(state, 2, 1)
    assert moved.last_mover == 2
    assert prune_departures(moved, [2]).last_mover is None
    assert prune_departures(moved, [1]).last_mover == 2  # 2 still routes


@pytest.mark.parametrize("seed", range(12))
def test_state_accounting_identities(seed):
    rng = random.Random(500 + seed)
    inst = random_metric(rng, rng.randint(3, 9))
    state = random_tree_state(rng, inst)
    audit_state(state)
    matrix = _matrix(inst)
    assert state.usage == usage_from_paths(state.paths, state.counts)
    assert potential(state) == recompute_potential(matrix, state.usage)
    # Every agent pays its shared cost; shares add up to the tree cost.
    total = sum(state.counts[t] * shared_cost(state, t) for t in state.counts)
    assert total == solution_cost(state)
    for t in state.counts:
        assert shared_cost(state, t) == shared_cost_of(matrix, state.usage, state.paths[t])


# ---------------------------------------------------------------------------
# best response


@pytest.mark.parametrize("seed", range(20))
def test_best_response_matches_exhaustive_search(seed):
    rng = random.Random(7000 + seed)
    inst = random_metric(rng, rng.randint(2, 8))
    state = random_tree_state(rng, inst)
    matrix = _matrix(inst)
    for source in range(1, inst.n):
        got = best_response(state, source)
        share, fresh, path = enumerate_best_response(
            matrix, state.counts, state.paths, source
        )
        assert (got.cost, got.fresh_edges, got.path) == (share, fresh, path)


@given(st.integers(min_value=0, max_value=2**30))
@settings(max_examples=40, deadline=None)
def test_best_response_matches_exhaustive_search_fuzz(seed):
    rng = random.Random(seed)
    inst = random_metric(rng, rng.randint(2, 7))
    state = random_tree_state(rng, inst, shuffled=True)
    matrix = _matrix(inst)
    source = rng.randrange(1, inst.n)
    got = best_response(state, source)
    assert (got.cost, got.fresh_edges, got.path) == enumerate_best_response(
        matrix, state.counts, state.paths, source
    )


def test_best_response_prefers_fewer_fresh_edges_on_cost_ties():
    # Terminal 4 routes 4 -> 3 -> 2 -> 1 -> 0, so every edge of the chain
    # below 4 is occupied.  For an agent at 3, riding the chain costs
    # 1/2 + 2/2 + 2/2 = 5/2 with zero fresh edges; the direct edge also
    # costs 5/2 but is fresh, and loses the tie -- even though "(3, 0)"
    # precedes "(3, 2, 1, 0)" lexicographically.
    inst = explicit_metric(
        5,
        {
            (0, 1): 2, (0, 2): 3, (0, 3): Fraction(5, 2), (0, 4): 8,
            (1, 2): 2, (1, 3): 3, (1, 4): 8,
            (2, 3): 1, (2, 4): Fraction(19, 2),
            (3, 4): 10,
        },
    )
    state = _revealed_state(inst)
    state = add_terminal(state, 4, 1, (4, 3, 2, 1, 0))
    got = best_response(state, 3)
    assert got.cost == Fraction(5, 2)
    assert got.fresh_edges == 0
    assert got.path == (3, 2, 1, 0)


@pytest.mark.parametrize("reveal", [(1, 2, 3), (2, 1, 3)], ids=["reveal-123", "reveal-213"])
def test_best_response_breaks_full_ties_by_id_sequence(reveal):
    # the tie-break is by vertex id, whatever order the vertices were revealed in
    inst = explicit_metric(
        4, {(0, 1): 2, (0, 2): 2, (1, 2): 2, (1, 3): 1, (2, 3): 1, (0, 3): 3}
    )
    state = with_revealed(initial_state(inst), reveal)
    state = add_terminal(state, 1, 1, (1, 0))
    state = add_terminal(state, 2, 1, (2, 0))
    got = best_response(state, 3)
    # (3,1,0) and (3,2,0) both cost 1 + 2/2 = 2 with one fresh edge each.
    assert got.cost == 2
    assert got.path == (3, 1, 0)


def test_search_pops_a_tied_predecessor_at_the_stop_boundary():
    # 3's paths (3, 1, 0) and (3, 2, 0) tie at 2 + 4/2 = 3 + 2/2 = 4, one
    # fresh edge each.  2 (key 1) pops before 1 (key 2) and sets 3's key.
    # With 1 the least open key d, 3's key is d plus the least weight into
    # 3, that of the edge from 1: the search may stop only after 1 pops,
    # or its walk misses the smaller id.
    inst = explicit_metric(
        4, {(0, 1): 4, (0, 2): 2, (0, 3): 5, (1, 2): 3, (1, 3): 2, (2, 3): 3})
    state = _revealed_state(inst)
    state = add_terminal(state, 1, 1, (1, 0))
    state = add_terminal(state, 2, 1, (2, 0))
    got = best_response(state, 3)
    assert (got.cost, got.fresh_edges, got.path) == (4, 1, (3, 1, 0)) == enumerate_best_response(
        _matrix(inst), state.counts, state.paths, 3)


def test_best_response_does_not_depend_on_reveal_order():
    # Costs in {2, 3, 4} satisfy every triangle and make full ties (equal
    # share and fresh count) common; whichever order the vertices were
    # revealed in, the smallest id sequence must win them.
    rng = random.Random(16500)
    for _ in range(300):
        n = rng.randint(4, 7)
        inst = explicit_metric(n, {e: rng.randint(2, 4) for e in combinations(range(n), 2)})
        state = random_tree_state(rng, inst)
        want = [best_response(state, v).path for v in range(1, n)]
        for _ in range(2):
            order = list(range(1, n))
            rng.shuffle(order)
            other = replace(state, revealed=(ROOT, *order))
            assert [best_response(other, v).path for v in range(1, n)] == want


def test_best_response_rejects_root_and_unrevealed():
    inst = line_instance(0, 5, 9)
    state = with_revealed(initial_state(inst), [1])
    with pytest.raises(EngineInvariantError):
        best_response(state, ROOT)
    with pytest.raises(EngineInvariantError, match="unrevealed"):
        best_response(state, 2)


def test_best_response_only_uses_revealed_vertices():
    # Vertex 2 would be a great relay, but it has not been revealed yet.
    inst = line_instance(0, 10, 9)
    state = with_revealed(initial_state(inst), [1])
    got = best_response(state, 1)
    assert got.path == (1, 0)
    grown = with_revealed(state, [2])
    grown = add_terminal(grown, 2, 1, (2, 0))
    assert best_response(grown, 1).path == (1, 2, 0)


# ---------------------------------------------------------------------------
# tree view


def test_tree_view_rejects_conflicting_parents():
    inst = line_instance(0, 5, 9, 14)
    state = _revealed_state(inst)
    state = add_terminal(state, 1, 1, (1, 0))
    state = add_terminal(state, 2, 1, (2, 1, 0))
    bad = add_terminal(state, 3, 1, (3, 1, 0))
    assert bad.view  # still a tree
    worse = add_terminal(state, 3, 1, (3, 2, 0))  # 2's parent is now 0 and 1
    with pytest.raises(EngineInvariantError, match="parent"):
        worse.view


def test_tree_path_matches_terminal_paths():
    rng = random.Random(42)
    inst = random_metric(rng, 8)
    state = random_tree_state(rng, inst)
    view = state.view
    for t, p in state.paths.items():
        assert view.path_to_root(t) == p
    off = next(v for v in range(inst.n) if v not in view.children)
    assert off not in view


def test_tree_view_parents_match_oracle():
    rng = random.Random(43)
    for _ in range(10):
        inst = random_metric(rng, rng.randint(3, 9))
        state = random_tree_state(rng, inst)
        assert state.view.parent == tree_parent_map(state.paths)


# ---------------------------------------------------------------------------
# improving tree-follow moves


def _legal_pairs(state, view):
    verts = view.order
    for u in verts:
        if u == ROOT:
            continue
        for v in verts:
            if v == u or view.in_subtree(v, u):
                continue
            yield u, v


@pytest.mark.parametrize("seed", range(25))
def test_is_improving_matches_witness_oracle(seed):
    rng = random.Random(9000 + seed)
    inst = random_metric(rng, rng.randint(3, 9))
    state = random_tree_state(rng, inst)
    view = state.view
    matrix = _matrix(inst)
    for u, v in _legal_pairs(state, view):
        got = is_improving_tree_move(state, u, v)
        want = brute_improving_tree_move(matrix, state.counts, state.paths, u, v)
        assert got == want, (u, v, state.paths)


def test_is_improving_rejects_illegal_pairs():
    inst = line_instance(0, 5, 9)
    state = _revealed_state(inst)
    state = add_terminal(state, 2, 1, (2, 1, 0))
    view = state.view
    with pytest.raises(EngineInvariantError):
        is_improving_tree_move(state, ROOT, 1)
    with pytest.raises(EngineInvariantError):
        is_improving_tree_move(state, 1, 2)  # target inside subtree
    with pytest.raises(EngineInvariantError):
        is_improving_tree_move(state, 1, 1)
    assert is_legal_improving(state, ROOT, 1) is False
    assert is_legal_improving(state, 1, 2) is False
    assert is_legal_improving(state, 1, 1) is False


def test_improving_move_strictly_decreases_potential():
    rng = random.Random(77)
    hits = 0
    while hits < 12:
        inst = random_metric(rng, rng.randint(3, 8))
        state = random_tree_state(rng, inst)
        view = state.view
        for u, v in _legal_pairs(state, view):
            if is_improving_tree_move(state, u, v):
                moved = tree_follow_move(state, u, v)
                assert potential(moved) < potential(state)
                hits += 1


def test_find_improving_tree_move_is_first_in_id_order():
    rng = random.Random(78)
    for _ in range(15):
        inst = random_metric(rng, rng.randint(3, 9))
        state = random_tree_state(rng, inst)
        view = state.view
        want = None
        for u, v in sorted(_legal_pairs(state, view)):
            if is_improving_tree_move(state, u, v):
                want = (u, v)
                break
        assert find_improving_tree_move(state) == want


def test_single_pass_scan_matches_row_scan_oracle():
    # Random tree states, most of them not equilibria: the block walk over
    # the screen must find the pair the row-by-row walk finds first.
    rng = random.Random(79)
    found = Counter()
    for _ in range(60):
        inst = random_metric(rng, rng.randint(3, 10))
        state = random_tree_state(rng, inst, shuffled=rng.random() < 0.5)
        want = row_scan_first_improving(
            state.view.order, state.screen, state.view.in_subtree,
            lambda u, v: is_improving_tree_move(state, u, v))
        assert find_improving_tree_move(state) == want
        found[want is None] += 1
    assert found[False] > 0 and found[True] > 0


def test_block_scan_stops_at_the_first_improving_pair(monkeypatch):
    # Blocks of one row and of a few rows: the walk finds the row scan's
    # pair and asks the exact test of the same pairs in the same order, so
    # of none after the first improving one.
    rng = random.Random(83)
    real = routing.is_improving_tree_move
    found = Counter()
    for block in (1, 20, 50):
        monkeypatch.setattr(routing, "_SCAN_BLOCK", block)
        for _ in range(30):
            state = random_tree_state(rng, random_metric(rng, rng.randint(3, 10)))
            view, asked, tested = state.view, [], []
            want = row_scan_first_improving(
                view.order, state.screen, view.in_subtree,
                lambda u, v: asked.append((u, v)) or real(state, u, v))
            monkeypatch.setattr(routing, "is_improving_tree_move",
                                lambda s, u, v: tested.append((u, v)) or real(s, u, v))
            assert routing.find_improving_tree_move(state) == want and tested == asked
            monkeypatch.setattr(routing, "is_improving_tree_move", real)
            found[want is None] += 1
    assert found[False] > 0 and found[True] > 0


@pytest.mark.parametrize("restricted", [False, True], ids=["all", "allowed"])
def test_closest_improving_target_matches_oracle(restricted):
    # The closest improving target by exact cost, ties by id, among every
    # legal target or an allowed subset, against the witness oracle.  Unit
    # metrics make every cost a tie, which the id must break.
    rng = random.Random(80 + restricted)
    found = Counter()
    for k in range(40):
        n = rng.randint(3, 9)
        inst = (explicit_metric(n, {e: 1 for e in combinations(range(n), 2)}) if k % 4 == 0
                else random_metric(rng, n))
        state = random_tree_state(rng, inst)
        view, matrix = state.view, _matrix(inst)
        verts = view.order
        for u in verts[1:]:  # verts[0] is the root
            allowed = set(rng.sample(verts, len(verts) // 2)) if restricted else None
            want = min(((matrix[u][v], v) for v in verts
                        if v != u and not view.in_subtree(v, u)
                        and (allowed is None or v in allowed)
                        and brute_improving_tree_move(matrix, state.counts, state.paths, u, v)),
                       default=(None, None))[1]
            got = routing.closest_improving_target(state, u, allowed)
            assert got == want, (u, allowed, state.paths)
            found[want is None] += 1
    assert found[False] > 10 and found[True] > 10


def _assert_screen_keeps_every_improving_pair(state):
    """Number of improving pairs; each must survive the screen, and no
    diagonal entry may, nor any vertex's own parent."""
    view, matrix, (mask, cols) = state.view, _matrix(state.instance), state.screen
    assert cols is view.order and not mask.diagonal().any()
    kept = 0
    for i, u in enumerate(view.order[1:], 1):  # order[0] is the root
        assert not mask[i, view.order.index(view.parent[u])], (u, state.paths)
        for j, v in enumerate(view.order):
            if not view.in_subtree(v, u) and brute_improving_tree_move(
                    matrix, state.counts, state.paths, u, v):
                assert mask[i, j], (u, v, state.paths)
                kept += 1
    return kept


def test_integer_screen_keeps_every_improving_pair():
    # Closures, unit metrics (every cost ties), big-denominator metrics
    # (object costi) and closures scaled past 2^61 (the screen's shift is
    # 0 and its scores are Python ints).
    rng = random.Random(81)
    kept = Counter()
    for k in range(80):
        n = rng.randint(3, 7)
        kind = ("closure", "unit", "big-denominator", "past-2^61")[k % 4]
        if kind == "unit":
            inst = explicit_metric(n, {e: 1 for e in combinations(range(n), 2)})
        elif kind == "big-denominator":
            inst = big_denominator_metric(rng, n)
        elif kind == "past-2^61":
            base = random_metric(rng, n)
            inst = explicit_metric(n, {(a, b): base.cost(a, b) * 2**64
                                       for a, b in combinations(range(n), 2)})
        else:
            inst = random_metric(rng, n)
        kept[kind] += _assert_screen_keeps_every_improving_pair(random_tree_state(rng, inst))
    assert len(kept) == 4 and min(kept.values()) > 0, kept


def test_integer_screen_keeps_a_pair_that_scores_minus_one():
    # Two agents each at 1 and 2, on their own root edges; the costs pass
    # 2^61, so the view's shift is 0.  1 -> 2 saves A(1) - B(2) - c(1,2) =
    # (3m+1)/2 - (3m+1)/3 - m/2 = 1/6 for even m.  Rounded the wrong way
    # (A down, B up) it would score floor((3m+1)/2) - ceil((3m+1)/3) - m/2
    # = -1 and a cut at 0 would drop it; the view rounds A up and B down,
    # so the pair scores a(1) - c - b(2) = 1.  a(1) = 3m/2 + 1 lies between
    # 2^63 and 2^64 and is no float64, so numpy, left to pick a's dtype next
    # to a(root) = 0, would round it off.
    m = 3 * 2**61 + 2
    inst = explicit_metric(3, {(0, 1): 3 * m + 1, (0, 2): 3 * m + 1, (1, 2): m // 2})
    state = add_terminal(add_terminal(_revealed_state(inst), 1, 2, (1, 0)), 2, 2, (2, 0))
    view = state.view
    (big, A1, _), (_, _, B2) = view.exact(1), view.exact(2)
    s, a, b = view.bounds()
    assert s == 0 and 2**63 < a[1] < 2**64
    assert math.floor(Fraction(A1, big)) - math.ceil(Fraction(B2, big)) - inst.cost(1, 2) == -1
    assert a[1] - m // 2 - b[2] == 1 and is_improving_tree_move(state, 1, 2)
    mask, cols = state.screen
    assert cols == [0, 1, 2] and mask[1, 2]
    _assert_screen_keeps_every_improving_pair(state)  # 2 -> 1 improves too


def _assert_bounds_band(state, matrix):
    """The view's bounds against the oracle's exact sums: F A(x) <= a(x) <
    F A(x) + depth(x) and F B(x) - depth(x) < b(x) <= F B(x) (both exact at
    the root), every bound below 2^61 + n when s > 0, and every improving
    pair kept by the screen.  Returns the shift and the improving pairs."""
    view, inst = state.view, state.instance
    s, a, b = view.bounds()
    den, A, B = eager_prefix_sums(state.paths, state.usage, inst.costi, inst.denominator)
    unit = Fraction(inst.denominator << s, den)  # an oracle int over den, in units of 1/F
    parent = tree_parent_map(state.paths)
    for x in view.order:
        depth, y = 0, x
        while y != ROOT:
            depth, y = depth + 1, parent[y]
        fa, fb = A[x] * unit, B[x] * unit
        assert fa <= a[x] < fa + depth or a[x] == fa == 0, (x, s)
        assert fb - depth < b[x] <= fb or b[x] == fb == 0, (x, s)
    if s:
        assert max(a.values()) < 2**61 + inst.n
    # an improving u -> v has A(u) - c(u, v) - B(v) > A(L) - B(L) >= 0, so
    # only pairs passing that exact filter go to the brute-force oracle
    order, scale = view.order, den // inst.denominator
    ids = np.array(order)
    cost = inst.costi.take(ids, 0).take(ids, 1).astype(object) * scale
    gain = np.array([A[x] for x in order], dtype=object)[:, None] - cost - np.array(
        [B[x] for x in order], dtype=object)
    improving, (mask, cols) = set(), state.screen
    assert cols is order
    for i, j in zip(*np.nonzero(gain > 0)):
        u, v = order[i], order[j]
        if u != ROOT and not view.in_subtree(v, u) and brute_improving_tree_move(
                matrix, state.counts, state.paths, u, v):
            assert mask[i, j], (u, v)
            improving.add((u, v))
    return s, improving


def test_share_bounds_bracket_the_exact_sums_on_every_view(monkeypatch):
    # Every view of random explicit runs (multi-agent arrivals and
    # departures), of random chain states with large coprime counts, of
    # euclid n=120 churn (seed 0) and of the layered family at m = 3; then
    # instances whose shift is 0 (costs near 10^400, and n * max costi just
    # below 2^61) and 1 (n * max costi just below 2^60, scores at the int64
    # edge).  Each view's bounds bracket the exact sums and every improving
    # pair survives the screen.
    tally, matrices = Counter(), {}
    real = routing._rerouted

    def rerouted(state, segments, **fields):
        new = real(state, segments, **fields)
        if "view" in new.__dict__:
            inst = new.instance
            if id(inst) not in matrices:  # the instance is kept, so its id is not reused
                matrices[id(inst)] = inst, _matrix(inst)
            s, improving = _assert_bounds_band(new, matrices[id(inst)][1])
            tally["views", s > 0] += 1
            tally["improving"] += len(improving)
        return new

    monkeypatch.setattr(routing, "_rerouted", rerouted)
    rng = random.Random(23000)
    for _ in range(30):
        inst = random_metric(rng, rng.randint(4, 12))
        run_eqp(inst, random_schedule(rng, inst.n, 12, False), verify=False, accounting=False)
    for state in _primed_chain_states(rng, samples=6):
        _assert_bounds_band(state, _matrix(state.instance))
        tally["primed"] += 1
    run = build_random_euclidean(120, 0, "churn")
    run_eqp(run.instance, run.events, verify=False, accounting=False)
    gm = build_gm(3)
    run_noneqp(gm.instance, list(build_sigma(gm)), verify=False)
    big = Counter()
    for k in range(24):
        n = rng.randint(4, 9)
        if k % 3 == 0:
            base = random_metric(rng, n)
            inst = explicit_metric(n, {(a, b): base.cost(a, b) * 10**400
                                       for a, b in combinations(range(n), 2)})
        else:  # costs in [K/2, K] meet every triangle
            top = (2 ** (61 - k % 3 + 1) - 1) // n
            inst = explicit_metric(n, {e: rng.randint(top // 2, top)
                                       for e in combinations(range(n), 2)})
        state = random_tree_state(rng, inst, max_count=30)
        s, improving = _assert_bounds_band(state, _matrix(inst))
        assert s == (0 if k % 3 == 0 else k % 3 - 1), (k, s)
        big[s] += 1
        for _ in range(3):
            state = random_event(rng, state)[1]
            big["improving"] += len(_assert_bounds_band(state, _matrix(inst))[1])
    assert tally["views", True] >= 500 and tally["primed"] == 6, tally
    assert tally["improving"] >= 1000 and big[0] == 16 and big[1] == 8, (tally, big)
    assert big["improving"] >= 10, big


def test_graft_settles_a_tie_the_bounds_misorder():
    # A chain 2 -> 1 -> 0 with two agents at 2: B(2) = 1/3 + 2/3 = 1 and
    # B(1) = 1/3.  Newcomer 3 grafts at the root for c(3,0) = 2, or at 2
    # for c(3,2) + B(2) = 2: an exact tie that the root's smaller id wins.
    # Each third rounds down, so b(2) = F - 1 and the bounds alone put 2
    # first; both lie in the window, and the exact keys settle it.
    inst = explicit_metric(4, {(0, 1): 1, (1, 2): 2, (0, 2): 2,
                               (0, 3): 2, (1, 3): 2, (2, 3): 1})
    state = add_terminal(_revealed_state(inst), 2, 2, (2, 1, 0))
    assert verify_equilibrium(state).ok
    s, _, b = state.view.bounds()
    F = 1 << s
    g = {w: (int(inst.costi[3, w]) << s) + b[w] for w in state.view.order}
    assert b[2] == F - 1 and g[2] == 2 * F - 1 < g[0] == 2 * F < g[1]
    assert g[0] < min(g.values()) + len(state.view.order) <= g[1]
    assert graft_path(state, 3) == (3, 0) == best_response(state, 3).path
    assert enumerate_best_response(_matrix(inst), state.counts, state.paths, 3)[2] == (3, 0)


def test_exact_ties_reach_the_exact_move_test(monkeypatch):
    # The layered family's final state at m = 4 is an equilibrium whose
    # screen keeps 48 pairs, every one an exact tie by the oracle's sums:
    # each bound is positive, so each test reads the exact sums, and none
    # improves.
    gm = build_gm(4)
    state = run_noneqp(gm.instance, list(build_sigma(gm)), verify=False).state
    inst, paths = state.instance, state.paths
    den, A, B = eager_prefix_sums(paths, state.usage, inst.costi, inst.denominator)
    reads, tests = [0], Counter()
    real_exact, real_test = routing._Tree.exact, routing.is_improving_tree_move

    def exact(view, x):
        reads[0] += 1
        return real_exact(view, x)

    def counted(state, u, v):
        before = reads[0]
        got = real_test(state, u, v)
        ell = lca_from_paths(paths, u, v)
        saving = A[u] - A[ell] - int(inst.costi[u, v]) * (den // inst.denominator) - B[v] + B[ell]
        tests[saving == 0, reads[0] > before, got] += 1
        return got

    monkeypatch.setattr(routing._Tree, "exact", exact)
    monkeypatch.setattr(routing, "is_improving_tree_move", counted)
    assert verify_equilibrium(state).ok
    assert tests == {(True, True, False): 48}, tests


def test_eqp_never_tests_a_move_onto_the_own_parent(monkeypatch):
    # A move of u onto its own parent keeps the same edge at the same price,
    # so the screen drops it and no exact test may see it, in the moves or
    # in the final verification.
    seen = Counter()
    real = routing.is_improving_tree_move

    def counted(state, u, v):
        seen[state.view.parent.get(u) == v] += 1
        return real(state, u, v)

    monkeypatch.setattr(routing, "is_improving_tree_move", counted)
    for seed in range(3):
        er = build_random_euclidean(30, seed)
        res = run_eqp(er.instance, list(er.events))
        assert res.verdict.ok and any(ep.moves for ep in res.epochs)
    assert seen[False] > 0 and not seen[True], seen


def test_closest_improving_target_refuses_the_root_and_off_tree_vertices():
    er = build_random_euclidean(30, 0)
    state = run_eqp(er.instance, list(er.events), verify=False, accounting=False).state
    off = [v for v in state.revealed if v not in state.view]
    assert off
    for u in (ROOT, off[0], max(state.view.order) + 1):
        with pytest.raises(EngineInvariantError, match="not a tree vertex below the root"):
            routing.closest_improving_target(state, u)


def test_select_builds_one_screen_per_state(monkeypatch):
    builds = []
    real = routing._candidate_screen
    monkeypatch.setattr(routing, "_candidate_screen",
                        lambda state: builds.append(state) or real(state))
    state = add_terminal(add_terminal(_revealed_state(line_instance(0, 10, 9)),
                                      1, 1, (1, 0)), 2, 1, (2, 0))
    family = family_for(state)
    cls = classify(state, family)
    assert cls.rank == BALANCED  # not an equilibrium: classify scanned
    assert select_tree_move(state, family, cls=cls) is not None
    assert select_tree_move(state, family) is not None
    assert builds == [state]


def _outcome(call):
    """What `call()` returns, or the type and text of what it raises."""
    try:
        return call()
    except (ClosureViolationError, EngineInvariantError) as exc:
        return type(exc), str(exc)


def test_arrival_screen_keeps_every_improving_pair_and_every_choice(monkeypatch):
    # Every state that an eqp epoch screens by its single arrival's delta:
    # 300 random explicit runs (arrivals at new vertices, at relays and at
    # terminals, counts up to 30; one in ten on big-denominator metrics and
    # one in ten on closures scaled past 2^61, whose scores are Python
    # ints), the euclid n=120 churn panel and steiner-gap n=20.  Each legal improving pair lies in the arrival
    # screen: on the explicit runs every legal pair goes to the exact test,
    # on the larger ones every pair the full screen keeps (which keeps
    # every improving pair, `test_integer_screen_keeps_every_improving_pair`).
    # `classify` and `select_tree_move` decide as they do on the full screen.
    tally, screened = Counter(), [None]
    real_screen, real_classify = dynamics.arrival_screen, dynamics.classify

    def arrival(state, path):
        screened[0] = state
        return real_screen(state, path)

    def checked(state, family, **kwargs):
        if state is not screened[0]:
            return real_classify(state, family, **kwargs)
        got = _outcome(lambda: real_classify(state, family, **kwargs))
        view, (mask, cols) = state.view, state.screen
        full = replace(state)
        full.__dict__.update(view=view, screen=routing._candidate_screen(state))
        small = len(view.order) <= 13
        for u, v in (_legal_pairs(state, view) if small else (
                (u, v) for i, j in zip(*np.nonzero(full.screen[0]))
                if (u := view.order[i]) != ROOT and not view.in_subtree(v := view.order[j], u))):
            if is_improving_tree_move(state, u, v):
                assert v in cols and mask[view.order.index(u), cols.index(v)], (u, v)
                tally["improving"] += 1
        want = _outcome(lambda: real_classify(full, family, **kwargs))
        assert got == want
        if isinstance(got, StateClass) and got.rank != 0:
            sel = _outcome(lambda: select_tree_move(state, family, cls=got))
            assert sel == _outcome(lambda: select_tree_move(full, family, cls=want))
            tally["selected"] += 1
        tally["states"] += 1
        if isinstance(got, tuple):
            raise got[0](got[1])
        return got

    monkeypatch.setattr(dynamics, "arrival_screen", arrival)
    monkeypatch.setattr(dynamics, "classify", checked)
    rng = random.Random(26100)
    for k in range(300):
        n = rng.randint(3, 8 if k % 10 == 0 else 12)  # the primes suffice for 8
        inst = big_denominator_metric(rng, n) if k % 10 == 0 else random_metric(rng, n)
        if k % 10 == 5:
            inst = explicit_metric(n, {(a, b): inst.cost(a, b) * 2**64
                                       for a, b in combinations(range(n), 2)})
        run_eqp(inst, random_schedule(rng, n, 14, False), verify=False, accounting=False)
    explicit = tally["states"]
    for seed in range(8):
        er = build_random_euclidean(120, seed, "churn")
        run_eqp(er.instance, er.events, verify=False, accounting=False)
    fx = build_steiner_gap_fixture(20)
    run_eqp(fx.instance, fx.events, verify=False, accounting=False)
    assert explicit >= 1000 and tally["states"] >= 1500 and tally["improving"] >= 80, tally
    assert tally["selected"] >= 100, tally


def test_an_arrival_into_a_loaded_equilibrium_is_screened_in_full(monkeypatch):
    # A snapshot-loaded equilibrium builds its view in full, without bounds,
    # so the view an arrival derives from it carries no bounds and no g, and
    # `arrival_screen` falls back to the full screen.  One arrival at a leaf
    # terminal of the euclid n=30 (seed 0) final state takes that path, and
    # ends where the same arrival into the run's own final state does.
    er = build_random_euclidean(30, 0)
    res = run_eqp(er.instance, er.events, verify=False, accounting=False)
    state, family = snapshot_from_jsonable(snapshot_to_jsonable(res.state))
    t = min(state.view.leaves)
    event = ArrivalEvent((ArrivalItem(t, 1),))
    want = run_epoch_eqp(res.state, res.family, event)
    screens, real = [], dynamics.arrival_screen

    def arrival(state, path):
        got = real(state, path)
        screens.append((state.view._g, got, routing._candidate_screen(state)))
        return got

    monkeypatch.setattr(dynamics, "arrival_screen", arrival)
    after, record = run_epoch_eqp(state, family, event)
    (g, (mask, cols), (full, full_cols)), = screens
    assert g is None and cols == full_cols and np.array_equal(mask, full)
    assert (after.paths, after.counts, record) == (want[0].paths, want[0].counts, want[1])
    assert after.counts[t] == state.counts[t] + 1


def test_arrival_screens_cut_the_work_of_the_churn_panel(monkeypatch):
    # The euclid n=120 churn panel (seeds 0-7, eqp, no final sweep): 4,855
    # exact move tests and 1,539 full screens when every state was screened
    # in full; steiner-gap n=50 built 101, one per event.  Now only the
    # states after a departure, a move or a multi-item arrival are.
    counts = Counter()
    real_test, real_screen = routing.is_improving_tree_move, routing._candidate_screen
    monkeypatch.setattr(routing, "is_improving_tree_move",
                        lambda state, u, v: counts.update(["tests"]) or real_test(state, u, v))
    monkeypatch.setattr(routing, "_candidate_screen",
                        lambda state: counts.update(["screens"]) or real_screen(state))
    for seed in range(8):
        er = build_random_euclidean(120, seed, "churn")
        run_eqp(er.instance, er.events, verify=False)
    assert counts["tests"] <= 2400 and counts["screens"] == 483, counts
    counts.clear()
    fx = build_steiner_gap_fixture(50)
    run_eqp(fx.instance, fx.events, verify=False)
    assert counts["screens"] == 1, counts


def test_tree_follow_move_matches_reroute_oracle():
    rng = random.Random(79)
    done = 0
    while done < 15:
        inst = random_metric(rng, rng.randint(3, 9))
        state = random_tree_state(rng, inst)
        view = state.view
        pairs = list(_legal_pairs(state, view))
        if not pairs:
            continue
        u, v = rng.choice(pairs)
        moved = tree_follow_move(state, u, v)
        assert moved.paths == reroute_subtree(state.paths, u, v)
        assert moved.usage == usage_from_paths(moved.paths, moved.counts)
        assert moved.counts == state.counts
        assert moved.last_mover == u
        audit_state(moved)
        done += 1


def test_tree_follow_move_rejects_illegal_targets():
    inst = line_instance(0, 5, 9)
    state = _revealed_state(inst)
    state = add_terminal(state, 2, 1, (2, 1, 0))
    with pytest.raises(EngineInvariantError):
        tree_follow_move(state, 1, 2)
    with pytest.raises(EngineInvariantError):
        tree_follow_move(state, ROOT, 1)


# ---------------------------------------------------------------------------
# sequential decomposition of block moves

# A block move is improving in the witness sense; peeling it into per-terminal
# reroutes (id order) must leave every single reroute strictly improving for
# the terminal that performs it.


@pytest.mark.parametrize("seed", range(15))
def test_block_moves_decompose_into_improving_steps(seed):
    rng = random.Random(11000 + seed)
    inst = random_metric(rng, rng.randint(3, 9))
    state = random_tree_state(rng, inst)
    view = state.view
    matrix = _matrix(inst)
    for u, v in _legal_pairs(state, view):
        if not is_improving_tree_move(state, u, v):
            continue
        after = reroute_subtree(state.paths, u, v)
        movers = sorted(t for t in state.counts if after[t] != state.paths[t])
        usage = dict(state.usage)
        for t in movers:
            k = state.counts[t]
            before_share = shared_cost_of(matrix, usage, state.paths[t])
            for e in zip(state.paths[t], state.paths[t][1:]):
                e = (min(e), max(e))
                usage[e] -= k
                if not usage[e]:
                    del usage[e]
            for e in zip(after[t], after[t][1:]):
                e = (min(e), max(e))
                usage[e] = usage.get(e, 0) + k
            assert shared_cost_of(matrix, usage, after[t]) < before_share


# ---------------------------------------------------------------------------
# move stability under other moves


def test_non_improving_pairs_stay_non_improving_after_moves():
    rng = random.Random(12000)
    checked = 0
    while checked < 60:
        inst = random_metric(rng, rng.randint(4, 9))
        state = random_tree_state(rng, inst)
        view = state.view
        pairs = list(_legal_pairs(state, view))
        dead = [(u, v) for u, v in pairs if not is_improving_tree_move(state, u, v)]
        live = [(u, v) for u, v in pairs if is_improving_tree_move(state, u, v)]
        if not dead or not live:
            continue
        for u, x in live:
            stale = [(a, b) for a, b in dead if a == u and b != x]
            if not stale:
                continue
            moved = tree_follow_move(state, u, x)
            for a, b in stale:
                assert is_legal_improving(moved, a, b) is False
                checked += 1


# ---------------------------------------------------------------------------
# equilibrium verification


def _settle(state, cap=3000):
    """Run improving tree-follow moves to a fixpoint."""
    for _ in range(cap):
        pair = find_improving_tree_move(state)
        if pair is None:
            return state
        state = tree_follow_move(state, *pair)
    raise AssertionError("did not settle")


def test_settled_states_verify_as_equilibria():
    rng = random.Random(13000)
    for _ in range(10):
        inst = random_metric(rng, rng.randint(3, 9))
        state = _settle(random_tree_state(rng, inst))
        verdict = verify_equilibrium(state)
        assert verdict.ok and verdict.witness is None
        # Downward closure: all paths sharing a vertex agree from it onward.
        for t, p in state.paths.items():
            for s, q in state.paths.items():
                common = set(p) & set(q)
                for w in common:
                    assert p[p.index(w):] == q[q.index(w):]


def test_graft_matches_exhaustive_search_on_settled_states():
    rng = random.Random(13200)
    checked = 0
    for _ in range(40):
        inst = random_metric(rng, rng.randint(3, 7))
        state = _settle(random_tree_state(rng, inst))
        matrix = _matrix(inst)
        for v in range(1, inst.n):
            if v in state.view:
                with pytest.raises(EngineInvariantError, match="graft of tree vertex"):
                    graft_path(state, v)
                continue
            _, _, want = enumerate_best_response(matrix, state.counts, state.paths, v)
            assert graft_path(state, v) == want == best_response(state, v).path
            checked += 1
    assert checked > 40


def test_graft_settles_exact_ties_floats_cannot():
    # Vertex 3 grafts at the root for 2/5, or at 1 for 3/10 + (3/5)/6 = 2/5.
    # Summed in floats, 0.3 + 0.6/6 < 0.4, so only the exact settlement sees
    # the tie, which the smaller id, the root, wins.
    inst = explicit_metric(4, {
        (0, 1): Fraction(3, 5), (0, 2): Fraction(9, 10), (0, 3): Fraction(2, 5),
        (1, 2): Fraction(2, 5), (1, 3): Fraction(3, 10), (2, 3): Fraction(1, 2),
    })
    state = add_terminal(add_terminal(_revealed_state(inst), 1, 4, (1, 0)), 2, 1, (2, 1, 0))
    assert verify_equilibrium(state).ok
    view = state.view
    big, _, B1 = view.exact(1)
    assert inst.cost(3, 1) + Fraction(B1, big * inst.denominator) == inst.cost(3, 0)
    share = float(inst.cost(0, 1)) / (state.usage[0, 1] + 1)  # B(1), summed in floats
    assert float(inst.cost(3, 1)) + share < float(inst.cost(3, 0))
    assert graft_path(state, 3) == (3, 0) == best_response(state, 3).path


def test_a_grafted_newcomer_has_no_improving_move(monkeypatch):
    # `graft_path`'s argument, checked rather than assumed: in the state
    # right after an eqp arrival grafts a newcomer onto an equilibrium, no
    # move of the newcomer improves, whatever its agent count.
    last, rows = [None], Counter()
    graft, add = dynamics.graft_path, dynamics.add_terminal

    def grafting(state, vertex):
        last[0] = (state, vertex)
        return graft(state, vertex)

    def adding(state, vertex, count, path):
        new = add(state, vertex, count, path)
        if last[0] is not None and last[0][0] is state and last[0][1] == vertex:
            assert not any(is_legal_improving(new, vertex, v) for v in new.view.order)
            rows["states"] += 1
            rows["entries"] += len(new.view.order) - 1
        return new

    monkeypatch.setattr(dynamics, "graft_path", grafting)
    monkeypatch.setattr(dynamics, "add_terminal", adding)
    rng = random.Random(19100)
    for _ in range(30):
        inst = random_metric(rng, rng.randint(4, 12))
        run_eqp(inst, random_schedule(rng, inst.n, 14, False), accounting=False)
    explicit = rows["states"]
    run = build_random_euclidean(120, 0)
    run_eqp(run.instance, run.events, verify=False, accounting=False)
    assert explicit >= 150 and rows["states"] - explicit >= 100, rows


def test_unsettled_states_produce_witnesses():
    rng = random.Random(13500)
    found = 0
    while found < 8:
        inst = random_metric(rng, rng.randint(3, 8))
        state = random_tree_state(rng, inst)
        if find_improving_tree_move(state) is None:
            continue
        verdict = verify_equilibrium(state)
        assert not verdict.ok
        w = verdict.witness
        assert w.candidate < w.current
        matrix = _matrix(inst)
        # The witness path really is available at the claimed price.
        share, _, _ = enumerate_best_response(
            matrix, state.counts, state.paths, w.vertex
        )
        assert share <= w.candidate < shared_cost(state, w.vertex)
        found += 1


def test_single_terminal_direct_route_is_equilibrium():
    inst = line_instance(0, 7)
    state = _revealed_state(inst)
    state = add_terminal(state, 1, 3, (1, 0))
    assert verify_equilibrium(state).ok
    assert find_improving_tree_move(state) is None


# ---------------------------------------------------------------------------
# the exact integer kernel, against the Fraction oracles


@pytest.mark.parametrize("third", [Fraction(1, 3), Fraction(1, 10)])
def test_best_response_settles_exact_ties_floats_cannot(third):
    # 3 -> 2 -> 1 -> 0 is three edges of `third`; the direct edge (3, 0)
    # costs exactly 3 * third, as do 3 -> 1 -> 0 and 3 -> 2 -> 0.
    # In floats 0.1 + 0.1 + 0.1 != 0.3, so only the exact kernel sees the
    # four-way cost tie, which the fresh-edge count must then decide.
    inst = explicit_metric(4, {
        (0, 1): third, (1, 2): third, (2, 3): third,
        (0, 2): 2 * third, (1, 3): 2 * third, (0, 3): 3 * third,
    })
    state = _revealed_state(inst)
    got = best_response(state, 3)
    assert (got.cost, got.fresh_edges, got.path) == (3 * third, 1, (3, 0))
    assert (got.cost, got.fresh_edges, got.path) == enumerate_best_response(
        _matrix(inst), state.counts, state.paths, 3)
    # With two agents riding (1, 0), 3 -> 1 -> 0 and 3 -> 2 -> 1 -> 0 tie at
    # 7/3 of `third`; one fresh edge beats two.
    loaded = add_terminal(state, 1, 2, (1, 0))
    got = best_response(loaded, 3)
    assert (got.cost, got.fresh_edges, got.path) == (7 * third / 3, 1, (3, 1, 0))
    assert (got.cost, got.fresh_edges, got.path) == enumerate_best_response(
        _matrix(inst), loaded.counts, loaded.paths, 3)


_PRIMES = (2, 3, 5, 7, 11, 101, 103, 107, 109, 113, 127)


def _primed_chain_states(rng, n=3, samples=12):
    """Tree states on the steiner-gap chain whose agent counts are distinct primes.

    The edge user counts N_e are then sums of distinct primes, so N_e and
    N_e + 1 over the tree are mostly co-prime and the kernels' common
    denominators get big.  The small primes leave light agents on costly
    routes, so both kinds of witness occur.
    """
    inst = build_steiner_gap_fixture(n).instance
    for _ in range(samples):
        shape = random_tree_state(rng, inst, chain_chance=0.6, shuffled=True)
        state = with_revealed(initial_state(inst), shape.revealed)
        primes = rng.sample(_PRIMES, len(shape.counts))
        for p, t in zip(primes, sorted(shape.counts)):
            state = add_terminal(state, t, p, shape.paths[t])
        yield state


def _oracle_witness(matrix, state, vertex):
    """A terminal's or a relay's improvement, re-derived with the exhaustive
    Fraction oracles: (kind, vertex, via terminal, path, current, candidate).
    A relay's is the first terminal through it, in id order, that can swap
    its segment above the relay for a cheaper one."""
    usage = usage_from_paths(state.paths, state.counts)
    if vertex in state.counts:
        share, _, path = enumerate_best_response(matrix, state.counts, state.paths, vertex)
        cur = shared_cost_of(matrix, usage, state.paths[vertex])
        return ("terminal", vertex, vertex, path, cur, share) if share < cur else None
    for t in sorted(state.counts):
        tpath = state.paths[t]
        if vertex not in tpath:
            continue
        cut = tpath.index(vertex)
        above = shared_cost_of(matrix, usage, tpath[cut:])
        allowed = set(range(len(matrix))) - set(tpath[:cut])
        share, _, path = enumerate_best_response(
            matrix, state.counts, state.paths, t, allowed=allowed, start=vertex)
        if share < above:
            cur = shared_cost_of(matrix, usage, tpath)
            return ("steiner", vertex, t, tpath[:cut] + path, cur, cur - above + share)
    return None


def test_potential_matches_oracle_at_large_edge_counts():
    # The steiner-gap n=50 chain: edge (k-1, k) carries every agent at k or
    # beyond, so the counts run into the thousands.
    fx = build_steiner_gap_fixture(50)
    matrix = _matrix(fx.instance)
    # terminal k routes k, k-1, ..., 0, so edge (k-1, k) carries primes[k-1]:
    # 40 distinct prime counts
    primes = [p for p in range(2003, 2600) if all(p % d for d in range(2, 51))][39::-1]
    state = _revealed_state(fx.instance)
    for k, (p, rest) in enumerate(zip(primes, primes[1:] + [0]), start=1):
        state = add_terminal(state, k, p - rest, tuple(range(k, -1, -1)))
    assert sorted(state.usage.values()) == sorted(primes)
    assert potential(state) == recompute_potential(matrix, state.usage)
    # states of the fixture's own run: half the chain, all of it, the u wave
    # and the departures
    family = family_for(initial_state(fx.instance))
    state = initial_state(fx.instance)
    for i, ev in enumerate(fx.events):
        state, rec = run_epoch_eqp(state, family, ev, epoch_index=i)
        if i in (48, 98, 99, 100):
            assert rec.phi == potential(state) == recompute_potential(matrix, state.usage)
    assert max(state.usage.values()) == 50


def _as_oracle(w):
    """A terminal's witness in `_oracle_witness`'s form (None stays None)."""
    return w and ("terminal", w.vertex, w.vertex, w.path, w.current, w.candidate)


def _assert_searches_match_oracle(state):
    """Every best response and every terminal improvement test of `state`
    equals its exhaustive Fraction oracle, and every relay the oracle finds
    improvable has a terminal through it that improves at least as much (the
    paper's relay argument); returns the oracle's witness kinds."""
    matrix = _matrix(state.instance)
    view = state.view
    kinds = set()
    for v in range(1, state.instance.n):
        got = best_response(state, v)
        assert (got.cost, got.fresh_edges, got.path) == enumerate_best_response(
            matrix, state.counts, state.paths, v)
        if v not in state.counts and v not in view:
            continue
        want = _oracle_witness(matrix, state, v)
        if v in state.counts:
            assert _as_oracle(has_improving_move(state, v)) == want
        elif want:
            w = has_improving_move(state, want[2])
            assert w and w.candidate <= want[5]
        if want:
            kinds.add(want[0])
    return kinds


def test_kernel_matches_oracle_on_large_coprime_counts():
    rng = random.Random(1)
    kinds, dens = set(), []
    for state in _primed_chain_states(rng):
        dens.append(state.instance.denominator * state.view.exact(ROOT)[0])
        kinds |= _assert_searches_match_oracle(state)
    assert kinds == {"terminal", "steiner"}
    assert max(dens) > 10**12


def test_search_skips_vertices_no_path_uses(monkeypatch):
    # Departures leave revealed vertices that no path touches.  The search
    # leaves them out (a best path never visits one: the direct edge
    # between its neighbours is cheaper or has fewer fresh edges), and the
    # oracle, which may route through every vertex, agrees.  The search
    # settles `state.table`'s nodes and its target.
    sizes = []
    real = routing._settle
    monkeypatch.setattr(routing, "_settle", lambda size, *args: sizes.append(size) or real(size, *args))
    rng = random.Random(17000)
    chains = _primed_chain_states(rng, samples=16)
    metrics = (random_tree_state(rng, random_metric(rng, rng.randint(5, 8)), max_count=4)
               for _ in range(16))
    kinds, skipped = set(), 0
    for state in (*chains, *metrics):
        if len(state.counts) < 2:
            continue
        state = prune_departures(
            state, rng.sample(sorted(state.counts), rng.randint(1, len(state.counts) - 1)))
        on_paths = {v for e in state.usage for v in e}
        for v in range(1, state.instance.n):
            sizes.clear()
            routing._Search(state, v)
            assert state.table.nodes == sorted(on_paths | {ROOT})
            assert sizes == [len(on_paths | {ROOT, v})]
        skipped += state.instance.n - len(on_paths | {ROOT})
        kinds |= _assert_searches_match_oracle(state)
    assert kinds == {"terminal", "steiner"}
    assert skipped >= 20


def test_off_table_targets_break_exact_ties_by_id():
    # A target on no path is searched as the node after the table's, which
    # stay in id order.  Costs in {2, 3, 4} make exact ties between first
    # hops of different ids common; every search must match the oracle.
    rng = random.Random(17050)
    ties = 0
    for _ in range(120):
        n = rng.randint(5, 7)
        inst = explicit_metric(n, {e: rng.randint(2, 4) for e in combinations(range(n), 2)})
        matrix = _matrix(inst)
        state = random_tree_state(rng, inst, max_terminals=2, chain_chance=0.2, shuffled=True)
        for v in sorted(set(range(1, n)) - set(state.table.nodes)):
            got = best_response(state, v)
            assert (got.cost, got.fresh_edges, got.path) == enumerate_best_response(
                matrix, state.counts, state.paths, v)
            # the least (share, fresh) key of a path from v through each first hop y
            rest = sorted(set(range(n)) - {v})
            via = [enumerate_best_response(matrix, state.counts, state.paths, v, rest, y)
                   for y in rest]
            keys = [(s + matrix[v][y], f + 1) for (s, f, _), y in zip(via, rest)]
            ties += keys.count(min(keys)) > 1
    assert ties >= 25, ties


def _isprime(p):
    return p > 1 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def _prime_loaded(rng, inst, primes):
    """A random tree state of `inst` whose terminals hold distinct prime counts."""
    shape = random_tree_state(rng, inst, shuffled=True)
    state = with_revealed(initial_state(inst), shape.revealed)
    for p, t in zip(rng.sample(primes, len(shape.counts)), sorted(shape.counts)):
        state = add_terminal(state, t, p, shape.paths[t])
    return state


def _count_kernels(monkeypatch):
    """Counter of the best-response searches that settle on int64 keys
    ("int64") and on Python-int keys ("object"), by the dtype `_settle` runs
    them in, from here to the end of the test.  A search's goal is its
    target, never the root; an A*'s is the root (0) or, for the bound, None."""
    ran = Counter()
    real = routing._settle

    def counted(size, dtype, source, start, goal, *args):
        if goal:
            ran["object" if dtype is object else np.dtype(dtype).name] += 1
        return real(size, dtype, source, start, goal, *args)

    monkeypatch.setattr(routing, "_settle", counted)
    return ran


def test_search_runs_python_int_keys_past_int64(monkeypatch):
    # The costs fit int64, but co-located agents at distinct primes near
    # 10^4 drive the lcm of the share divisors, and with it the search's
    # key bound, past 2^63: those searches settle Python-int keys.  A few
    # small primes leave light agents on costly routes, so both kinds of
    # witness occur.
    rng = random.Random(17100)
    inst = random_metric(rng, 7)
    assert inst.costi.dtype == np.int64
    primes = [2, 3, 5, 7] + [p for p in range(10**4, 10**4 + 300) if _isprime(p)]
    ran = _count_kernels(monkeypatch)
    kinds = set()
    for _ in range(10):
        kinds |= _assert_searches_match_oracle(_prime_loaded(rng, inst, primes))
    assert ran["object"] >= 20 and ran["int64"] >= 20
    assert kinds == {"terminal", "steiner"}


@pytest.mark.parametrize("far, low, kernel", [(2**42, 1000, "int64"),
                                               (2**63 - 5, 10**6, "object")],
                         ids=["dense", "wide"])
def test_search_clamps_edges_far_beyond_the_direct_edge(monkeypatch, far, low, kernel):
    # Vertices 0-3 sit within 4 of each other, 4-6 likewise, and the two
    # clusters are `far` apart: over 2^40 times any near target's direct
    # edge to the root.  Prime counts from `low` up give the searches a
    # scale at which an unclamped cross-cluster weight would overflow
    # int64; many near targets settle on `kernel`, whose ints must not.
    rng = random.Random(17200)
    inst = explicit_metric(7, {
        (a, b): rng.randint(2, 4) + (far if (a < 4) != (b < 4) else 0)
        for a, b in combinations(range(7), 2)})
    assert inst.costi.dtype == np.int64
    primes = [p for p in range(low, low + 200) if _isprime(p)]
    ran = _count_kernels(monkeypatch)
    kinds, clamped = set(), 0
    for _ in range(12):
        state = _prime_loaded(rng, inst, primes)
        for v in (1, 2, 3):
            runs = ran[kernel]
            routing._Search(state, v)
            # the search's nodes and its den // D, lcm of its share divisors
            nodes = {*state.table.nodes, v}
            own = set(routing.path_edges(state.paths.get(v, ())))
            scale = math.lcm(*(n if e in own else n + 1 for e, n in state.usage.items()))
            clamped += (ran[kernel] > runs and far * scale * (len(nodes) + 1) >= 2**63
                        and any(u >= 4 for u in nodes))
        kinds |= _assert_searches_match_oracle(state)
    assert clamped >= 10
    assert kinds == {"terminal", "steiner"}


@pytest.mark.parametrize("core, terminals, want", [
    # Once 1 settles (at 3/4), 3 is priced 11/4 through it; 2 (at 3/2) then
    # offers 5/2.  Both lie in [2, 3), so only their low parts tell them apart.
    ({(0, 1): 3, (0, 2): 3, (0, 3): 3, (1, 2): 2, (1, 3): 2, (2, 3): 1},
     {1: (3, (1, 0)), 2: (1, (2, 0))}, (Fraction(5, 2), 1, (3, 2, 0))),
    # 1 (at 2/3) and 2 (at 1/4) are open in [0, 1) together; 2 must settle
    # first, as it takes 1 down to 1/2, which 3 needs.
    ({(0, 1): 2, (0, 2): 1, (1, 2): 1, (0, 3): 2, (1, 3): 1, (2, 3): 2,
      (0, 4): 2, (1, 4): 1, (2, 4): 2, (3, 4): 2},
     {1: (2, (1, 0)), 4: (3, (4, 1, 2, 0))}, (Fraction(3, 2), 1, (3, 1, 2, 0))),
], ids=["relax", "pop"])
def test_split_keys_order_exactly_within_one_high_part(monkeypatch, core, terminals, want):
    # Four more vertices, 10 from everything, hold prime counts near 10^6,
    # which push the search for 3 past int64, onto Python-int keys.  Keys
    # that share their integer part of the cost (D is 1) must still
    # compare exactly on the rest.
    n = max(max(e) for e in core) + 5
    inst = explicit_metric(n, {e: core.get(e, 10) for e in combinations(range(n), 2)})
    state = with_revealed(initial_state(inst), range(1, n))
    for t, (count, path) in terminals.items():
        state = add_terminal(state, t, count, path)
    for x, p in zip(range(n - 4, n), (1000003, 1000033, 1000037, 1000039)):
        state = add_terminal(state, x, p, (x, 0))
    ran = _count_kernels(monkeypatch)
    got = best_response(state, 3)
    assert ran["object"] == 1
    assert (got.cost, got.fresh_edges, got.path) == want == enumerate_best_response(
        _matrix(inst), state.counts, state.paths, 3)


@pytest.mark.parametrize("primes", [None, range(10**4, 10**4 + 300)],
                         ids=["small-counts", "prime-counts"])
def test_search_breaks_full_ties_on_equal_distances(primes):
    # Every distance is 1, so every pop is a tie; the result must be the
    # oracle's, whatever order the vertices were revealed in.  Prime counts
    # push the keys past int64, where the ties fall on Python-int keys.
    rng = random.Random(17300)
    n = 7
    inst = explicit_metric(n, {e: 1 for e in combinations(range(n), 2)})
    for _ in range(8):
        if primes is None:
            state = random_tree_state(rng, inst, max_count=3)
        else:
            state = _prime_loaded(rng, inst, [p for p in primes if _isprime(p)])
        for _ in range(3):
            order = list(range(1, n))
            rng.shuffle(order)
            _assert_searches_match_oracle(replace(state, revealed=(ROOT, *order)))


def test_searches_stop_once_the_target_key_is_final(monkeypatch):
    # gm m=4 one-shot: 320 searches over up to 81 nodes.  Popping until the
    # target pops took 8,000 pops; stopping once no open node can lower the
    # target's key takes 3,230.
    pops = []
    real = routing._settle

    def counted(size, dtype, source, start, goal, stop, *args):
        keys = real(size, dtype, source, start, goal, stop, *args)
        if goal:  # a search's goal is its target, never the root
            pops.append(int((keys < stop).sum()))
        return keys

    monkeypatch.setattr(routing, "_settle", counted)
    gm = build_gm(4)
    run_noneqp(gm.instance, list(build_sigma(gm)), verify=False)
    assert len(pops) == 320
    assert sum(pops) <= 4000, sum(pops)


@pytest.mark.parametrize("scale", [1, 2**63 + 1], ids=["int64", "object"])
def test_settle_matches_floyd_warshall(scale):
    # `_settle`, the one shortest-path loop of best responses, the sweep's
    # bound and its A* verdicts, on random complete graphs with positive
    # symmetric weights (past 2^63 in object dtype), against all-pairs
    # distances: from a source at a nonzero key, up to a goal, with or
    # without a bound `into` on the weights into it, below a stop, and as
    # an A* whose keys add a consistent potential h.  Weights of 1 to 3
    # make many equal keys, which must pop in index order.
    rng = random.Random(17400)
    dtype = np.int64 if scale == 1 else object
    tied = stopped = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        w = [[0] * n for _ in range(n)]
        for a, b in combinations(range(n), 2):
            w[a][b] = w[b][a] = rng.randint(1, 3) * scale
        dist = floyd_warshall(w)
        block = np.array(w, dtype=dtype)
        source, start = rng.randrange(n), rng.randint(1, 5) * scale
        far = start + 3 * n * scale  # past every key
        pops = []

        def relax(i, d):
            pops.append(i)
            return block[i] + d

        exact = [start + dist[source][j] for j in range(n)]
        order = sorted(range(n), key=lambda j: (exact[j], j))
        assert routing._settle(n, dtype, source, start, None, far, relax).tolist() == exact
        assert pops == order
        tied += sum(exact[a] == exact[b] for a, b in zip(order, order[1:]))
        # a goal: the nodes before it in (key, index) order and the goal
        # itself pop, exact; the rest read the stop
        goal = rng.randrange(n)
        done = order[:order.index(goal) + 1]
        keys = routing._settle(n, dtype, source, start, goal, far, relax).tolist()
        assert keys == [exact[j] if j in done else far for j in range(n)]
        # a goal with `into`, here at most the least weight into it: the
        # goal and every popped node are exact, and every node keyed at most
        # key(goal) - into has popped
        least = min((w[j][goal] for j in range(n) if j != goal), default=scale)
        into = rng.choice([least, rng.randint(1, least)])
        cut = routing._settle(n, dtype, source, start, goal, far, relax, into).tolist()
        assert cut[goal] == exact[goal]
        assert all(k == e if e <= exact[goal] - into else k in (e, far)
                   for k, e in zip(cut, exact))
        stopped += cut.count(far) > keys.count(far)
        # a stop: the nodes at or past it read it
        stop = start + rng.randint(0, 2 * n) * scale
        keys = routing._settle(n, dtype, source, start, None, stop, relax).tolist()
        assert keys == [min(k, stop) for k in exact]
        # h = distance to the goal is consistent: over the reduced weights
        # w(i, j) + h(j) - h(i) from key h(source), keys are distance + h
        h = np.array([dist[j][goal] for j in range(n)], dtype=dtype)
        # (a zero reduced weight can tie a node to its parent's key only
        # after the parent pops, so ties need not pop in index order)
        exact = [dist[source][j] + h[j] for j in range(n)]

        def reduced(i, d):
            return block[i] + (d - h[i]) + h

        assert routing._settle(n, dtype, source, h[source], None, far, reduced).tolist() == exact
        keys = routing._settle(n, dtype, source, h[source], goal, far, reduced).tolist()
        g = dist[source][goal]
        assert keys[goal] == g
        assert all(k == e if e < g else k == far if e > g else k in (e, far)
                   for k, e in zip(keys, exact))
    assert tied >= 500, tied
    assert stopped >= 50, stopped


def test_kernels_match_oracles_on_python_int_costs():
    # D * c overflows int64 here, so every kernel reads Python ints from an
    # object-dtype matrix
    rng = random.Random(14500)
    inst = big_denominator_metric(rng)
    assert inst.costi.dtype == object
    matrix = _matrix(inst)
    verdicts = set()
    for _ in range(12):
        shape = random_tree_state(rng, inst, shuffled=True)
        for state in (shape, _settle(shape)):
            for v in range(1, inst.n):
                got = best_response(state, v)
                assert (got.cost, got.fresh_edges, got.path) == enumerate_best_response(
                    matrix, state.counts, state.paths, v)
            view = state.view
            want = next(filter(None, (_oracle_witness(matrix, state, t)
                                      for t in sorted(state.counts))), None)
            verdict = verify_equilibrium(state)
            assert _as_oracle(verdict.witness) == want
            assert potential(state) == recompute_potential(matrix, state.usage)
            if verdict.ok:
                for v in range(1, inst.n):
                    if v not in view:
                        assert graft_path(state, v) == best_response(state, v).path
            verdicts.add(verdict.ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", range(10))
def test_tree_prefix_sums_over_den_match_oracle(seed):
    rng = random.Random(14000 + seed)
    inst = random_metric(rng, rng.randint(3, 9))
    state = random_tree_state(rng, inst, max_count=40)
    view = state.view
    matrix = _matrix(inst)
    usage = usage_from_paths(state.paths, state.counts)
    parent = tree_parent_map(state.paths)
    for x in view.order:
        path = [x]
        while path[-1] != ROOT:
            path.append(parent[path[-1]])
        big, A, B = view.exact(x)
        den = big * inst.denominator
        assert Fraction(A, den) == shared_cost_of(matrix, usage, path)
        assert Fraction(B, den) == hypothetical_share(
            matrix, usage, state.counts, None, path)


def test_has_improving_move_same_with_and_without_view():
    rng = random.Random(15000)
    for _ in range(20):
        inst = random_metric(rng, rng.randint(3, 9))
        state = random_tree_state(rng, inst)
        state.view
        for v in sorted(state.counts):
            # a fresh copy carries no cached view or table
            assert has_improving_move(replace(state), v) == has_improving_move(state, v)
        assert verify_equilibrium(replace(state)) == verify_equilibrium(state)


def test_state_view_is_built_once_and_not_inherited():
    rng = random.Random(15500)
    state = random_tree_state(rng, random_metric(rng, 7))
    assert state.view is state.view
    assert replace(state).view is not state.view
    assert replace(state).view.parent == state.view.parent


def test_revealing_keeps_the_view_and_rerouting_rebuilds_it():
    inst = line_instance(0, 5, 9, 14)
    state = add_terminal(with_revealed(initial_state(inst), [1, 2]), 1, 1, (1, 0))
    view = state.view
    screen = state.screen
    more = with_revealed(state, [3])  # the tree does not depend on `revealed`
    assert more.view is view and more.screen is screen
    grown = add_terminal(more, 3, 1, (3, 0))
    assert grown.view is not view and 3 in grown.view


def test_revealing_keeps_the_search_table_and_rerouting_rebuilds_it():
    inst = line_instance(0, 5, 9, 14)
    state = add_terminal(with_revealed(initial_state(inst), [1, 2]), 1, 1, (1, 0))
    table = state.table
    more = with_revealed(state, [3])  # the table does not depend on `revealed`
    assert more.table is table and 3 not in table.pos
    grown = add_terminal(more, 3, 1, (3, 0))
    assert grown.table is not table and 3 in grown.table.pos


# ---------------------------------------------------------------------------
# one tree per run: each state's view derived from its predecessor's


def _assert_view_is_a_full_build(state):
    assert "view" in state.__dict__  # cached with the state, not built on this read
    got, want = state.view, routing._Tree(replace(state))
    assert got._usage is state.usage  # the counts are the state's own
    for field in ("parent", "children", "order", "leaves"):
        assert getattr(got, field) == getattr(want, field), field
    # carried or built, the bounds are the same ints, and so are the exact sums
    assert got.bounds() == want.bounds()
    assert all(got.exact(x) == want.exact(x) for x in want.order)


def test_derived_views_equal_a_full_build():
    # Every transition from a state whose view was read derives the next
    # view from it: arrivals (new leaves, new relay chains, count bumps,
    # relays turned terminals), departures of one or several terminals, and
    # tree-follow moves, some of which abandon relays.  Each derived view,
    # its lazily built sums included, equals a full build, and so
    # does its predecessor's after the derivation.
    rng = random.Random(17800)
    seen = Counter()
    for _ in range(60):
        state = _revealed_state(random_metric(rng, rng.randint(3, 9)))
        state.view
        for _ in range(14):
            prev = state
            tag, state = random_event(rng, state)
            _assert_view_is_a_full_build(state)
            _assert_view_is_a_full_build(prev)  # the derivation changed no shared part
            seen[tag] += 1
    assert min(seen[tag] for tag in (
        "leaf", "chain", "bump", "relay", "depart", "departs", "move", "abandon")) >= 5, seen


def _assert_walks_match_the_paths(state):
    view, paths = state.view, state.paths
    for u in view.order:
        below = subtree_from_paths(paths, u)
        assert view.subtree(u) == below, u
        for x in view.order:
            assert view.in_subtree(x, u) == (x in below), (x, u)
            assert view.lca(u, x) == lca_from_paths(paths, u, x), (u, x)


def test_subtree_and_lca_walks_match_definitions_on_the_paths():
    # in_subtree, subtree and lca, against definitions read from the paths
    # alone, on random tree states and on the views derived from them by
    # arrivals, departures and moves.
    rng = random.Random(18100)
    seen = Counter()
    for _ in range(40):
        state = random_tree_state(rng, random_metric(rng, rng.randint(2, 9)))
        _assert_walks_match_the_paths(state)
        seen["full"] += 1
        for _ in range(6):
            tag, state = random_event(rng, state)
            assert "view" in state.__dict__
            _assert_walks_match_the_paths(state)
            seen[tag] += 1
    assert min(seen[tag] for tag in ("full", "leaf", "chain", "depart", "move")) >= 5, seen


def test_a_path_against_the_tree_gets_no_derived_view():
    # A one-shot arrival may route against the tree.  Its state carries no
    # view, so reading one builds it in full, which raises as before; a
    # departure that restores the tree builds one in full again.
    inst = line_instance(0, 5, 9, 14)
    state = add_terminal(_revealed_state(inst), 2, 1, (2, 1, 0))
    state.view
    worse = add_terminal(state, 3, 1, (3, 1, 2, 0))  # 1's parent is 0 on the tree
    assert "view" not in worse.__dict__
    with pytest.raises(EngineInvariantError, match="parent of 1"):
        worse.view
    assert "view" not in worse.__dict__
    healed = prune_departures(worse, [3])
    assert "view" not in healed.__dict__ and healed.view.parent == {2: 1, 1: 0}


def _arrival_against_the_tree(rng, state):
    """(tag, path) of an arrival at a random inactive vertex whose path may
    run against the tree: a random simple path to the root, or a detour
    that takes a tree edge backwards, or that leaves the tree at a and
    re-enters it at b.  None if no inactive vertex is left."""
    view, n = state.view, state.instance.n
    idle = [x for x in range(1, n) if not state.is_active(x)]
    if not idle:
        return None
    v = rng.choice(idle)
    kind = rng.choice(("random", "reversed", "reenter"))
    if kind == "reversed" and view.parent:  # x -> p on the tree, p -> x on the path
        x = rng.choice(sorted(view.parent))
        p = view.parent[x]
        if p != ROOT and v not in (x, p):
            return "reversed", (v, p, x, ROOT)
    if kind == "reenter":  # a, an off-tree o, then b's root path
        a, b = rng.sample(view.order, 2) if len(view.order) > 2 else (ROOT, ROOT)
        off = [o for o in range(1, n) if o not in view and o != v]
        tail = view.path_to_root(b)
        if a != ROOT and off and a not in tail and v not in (a, *tail):
            return "reenter", (v, a, rng.choice(off)) + tail
    rest = [x for x in range(1, n) if x != v]
    return "random", (v, *rng.sample(rest, rng.randint(0, min(3, len(rest)))), ROOT)


def test_a_derived_view_exists_iff_the_full_build_succeeds():
    # From tree states whose view was read: arrivals along paths that may
    # run against the tree, mixed with tree arrivals, departures and moves.
    # A state gets a derived view exactly when a full build of it succeeds,
    # and then the two agree.
    rng = random.Random(18300)
    seen = Counter()
    for _ in range(150):
        state = random_tree_state(rng, random_metric(rng, rng.randint(3, 9)))
        state.view
        for _ in range(8):
            against = rng.random() < 0.5 and _arrival_against_the_tree(rng, state)
            if against:
                tag, path = against
                new = add_terminal(state, path[0], rng.randint(1, 3), path)
            else:
                tag, new = random_event(rng, state)
            try:
                routing._Tree(replace(new))
                tree = True
            except EngineInvariantError as exc:
                assert "parent of" in str(exc), exc
                tree = False
            assert ("view" in new.__dict__) == tree, (tag, new.paths)
            seen[tag, tree] += 1
            if not tree:
                break
            _assert_view_is_a_full_build(new)
            state = new
    for tag in ("random", "reversed", "reenter"):
        assert seen[tag, False] >= 5, seen
    assert seen["random", True] >= 5, seen
    assert min(seen[tag, True] for tag in ("leaf", "chain", "depart", "move")) >= 5, seen


def test_a_derived_view_keeps_no_state_alive():
    rng = random.Random(17900)
    transition = {"depart": prune_departures, "departs": prune_departures,
                  "move": tree_follow_move, "abandon": tree_follow_move}
    seen = set()
    while len(seen) < 3:
        state = random_tree_state(rng, random_metric(rng, 7))
        state.view
        tag, new = random_event(rng, state)
        seen.add(transition.get(tag, add_terminal))
        old = weakref.ref(state)
        del state
        gc.collect()
        assert old() is None and "view" in new.__dict__


@pytest.mark.parametrize("policy", ["oneshot", "eqp"])
def test_a_run_builds_one_tree_view_in_full(monkeypatch, policy):
    # Under a forwarding `_Tree` wrapper, as a call tracer installs, a run
    # builds its first view in full and derives every later one.
    builds = []
    tree = routing._Tree
    monkeypatch.setattr(routing, "_Tree", lambda state: builds.append(state) or tree(state))
    if policy == "oneshot":
        gm = build_gm(3)
        res = run_noneqp(gm.instance, list(build_sigma(gm)), verify=False)
    else:
        run = build_random_euclidean(30, 0, "churn")
        res = run_eqp(run.instance, run.events, verify=False, accounting=False)
    assert len(res.epochs) > 20 and len(builds) == 1
    assert verify_equilibrium(res.state).ok and len(builds) == 1


# ---------------------------------------------------------------------------
# one sweep per state: a search per leaf and one shared search table


def _relays(state, least=2):
    """(w, terminals through w) for each relay w, an interior non-terminal
    tree vertex, with at least `least` terminals through it."""
    view = state.view
    for w in view.order:
        if w != ROOT and not state.is_active(w):
            through = sorted(t for t in view.subtree(w) if state.is_active(t))
            if len(through) >= least:
                yield w, through


# Relay 6 with a shortcut below it: from 6, vertex 4 leads to 3, whose
# crowded edges 3-5-0 are cheap, where 6 -> 0 costs 569/12 in full.
_SHORTCUT = {
    (0, 1): "6", (0, 2): "23/2", (0, 3): "69/4", (0, 4): "29/2", (0, 5): "371/12",
    (0, 6): "569/12", (1, 2): "11/2", (1, 3): "45/4", (1, 4): "17/2", (1, 5): "299/12",
    (1, 6): "497/12", (2, 3): "23/4", (2, 4): "3", (2, 5): "233/12", (2, 6): "431/12",
    (3, 4): "11/4", (3, 5): "41/3", (3, 6): "181/6", (4, 5): "197/12", (4, 6): "395/12",
    (5, 6): "33/2",
}


def _shortcut_state(terminals):
    inst = explicit_metric(7, {e: Fraction(c) for e, c in _SHORTCUT.items()})
    state = _revealed_state(inst)
    for t, (count, path) in terminals.items():
        state = add_terminal(state, t, count, path)
    return state


def test_relay_bound_searches_below_every_terminal():
    # Terminals 1 (1, 4, 6, 0) and 2 (2, 6, 0) share relay 6.  Terminal 1
    # cannot replace its segment above 6 for less, but 2 can, through 1's
    # vertex 4.  The relay needs no search of its own: terminal 2's best
    # response improves at least as much as the relay's swap.
    state = _shortcut_state({1: (3, (1, 4, 6, 0)), 2: (1, (2, 6, 0)),
                             3: (101, (3, 5, 0)), 5: (103, (5, 0))})
    relay = _oracle_witness(_matrix(state.instance), state, 6)
    assert relay[:3] == ("steiner", 6, 2) and relay[3][:4] == (2, 6, 4, 3)
    w = has_improving_move(state, 2)
    assert w.vertex == 2 and w.candidate <= relay[5] < w.current
    assert not verify_equilibrium(state).ok


def test_has_improving_move_refuses_vertices_that_are_not_terminals():
    state = _shortcut_state({1: (3, (1, 4, 6, 0)), 5: (2, (5, 0))})
    for v in (ROOT, 4, 6, 2):  # the root, two relays and an off-tree vertex
        with pytest.raises(EngineInvariantError, match="inactive"):
            has_improving_move(state, v)


def _lemma_states(rng, count):
    """Random tree states, with the settled version of every fourth and a
    big-denominator state after every third."""
    for k in range(count):
        state = random_tree_state(rng, random_metric(rng, rng.randint(4, 9)), max_count=3)
        yield state
        if k % 4 == 0:
            yield _settle(state)
        if k % 3 == 0:
            yield random_tree_state(rng, big_denominator_metric(rng, rng.randint(4, 6)))


def _record_verdicts(monkeypatch):
    """(searched, decided, bounds): the target of every `_Search`, the
    terminal of every sweep verdict, the first verdict's search included, in
    order, and one entry per shared bound built (the one `_settle` run with
    no goal)."""
    searched, decided, bounds = [], [], []
    search, decide, settle = routing._Search, routing._Verdicts.decide, routing._settle

    def searching(state, target):
        if not decided:  # the sweep's first verdict
            decided.append(target)
        searched.append(target)
        return search(state, target)

    def deciding(verdicts, t):
        decided.append(t)
        return decide(verdicts, t)

    def settling(size, dtype, source, start, goal, *args):
        if goal is None:  # from the root to every node: the bound
            bounds.append(size)
        return settle(size, dtype, source, start, goal, *args)

    monkeypatch.setattr(routing, "_Search", searching)
    monkeypatch.setattr(routing._Verdicts, "decide", deciding)
    monkeypatch.setattr(routing, "_settle", settling)
    return searched, decided, bounds


def test_an_interior_terminal_improves_only_if_every_terminal_below_it_does(monkeypatch):
    # The exchange argument in `verify_equilibrium`'s docstring, which lets
    # the sweep decide the leaves alone; the verdict and the witness are
    # still those of a sweep over every terminal in id order, and no
    # terminal is decided twice.
    _, decided, _ = _record_verdicts(monkeypatch)
    rng = random.Random(19000)
    interior = oracled = 0
    for state in _lemma_states(rng, 500):
        view = state.view
        improving = {t for t in state.counts if has_improving_move(state, t)}
        for t in improving - view.leaves:
            assert view.subtree(t) & state.counts.keys() <= improving
            interior += 1
        decided.clear()
        verdict = verify_equilibrium(state)
        assert len(decided) == len(set(decided))
        assert verdict.witness == (has_improving_move(state, min(improving)) if improving else None)
        if state.instance.n <= 7:  # the exhaustive oracle, where it is quick
            matrix = _matrix(state.instance)
            want = next(filter(None, (_oracle_witness(matrix, state, t)
                                      for t in sorted(state.counts))), None)
            assert verdict.ok == (want is None)
            if want is not None:
                w = verdict.witness
                assert (w.vertex, w.path, w.current, w.candidate) == (want[1], *want[3:])
            oracled += 1
    assert interior >= 50 and oracled >= 500, (interior, oracled)


@pytest.mark.parametrize("gen", ["steiner-gap", "gm", "euclid"])
def test_sweep_makes_one_verdict_per_leaf(monkeypatch, gen):
    # The final states of the relay-chain (steiner-gap n=50, under eqp) and
    # layered one-shot (gm m=4) runs are full of relays, and none of them
    # costs a verdict; their leaves are all their terminals.  The euclid n=120
    # churn run (seed 0) ends with 57 leaves among 107 terminals.  An
    # equilibrium costs a verdict per leaf: a search for the first, an A*
    # over the shared bound for each later one, so a sweep of one verdict
    # builds no bound.
    if gen == "steiner-gap":
        fx = build_steiner_gap_fixture(50)
        state = run_eqp(fx.instance, fx.events, verify=False, accounting=False).state
        want = (1, 1, 0)
    elif gen == "gm":
        gm = build_gm(4)
        state = run_noneqp(gm.instance, list(build_sigma(gm)), verify=False).state
        want = (16, 16, 1)
    else:
        run = build_random_euclidean(120, 0)
        state = run_eqp(run.instance, run.events, verify=False, accounting=False).state
        want = (57, 107, 1)
    searched, decided, bounds = _record_verdicts(monkeypatch)
    assert verify_equilibrium(state).ok
    assert (len(state.view.leaves), len(state.counts), len(bounds)) == want
    assert decided == sorted(state.view.leaves) and searched == decided[:1]
    assert next(_relays(state, least=1), None) is not None


def test_a_failing_sweep_makes_at_most_two_searches(monkeypatch):
    # The first verdict and the witness: every later verdict, up to and past
    # the first improving terminal, is an A*, and the witness is searched
    # only if the first verdict was not its own.
    searched, decided, _ = _record_verdicts(monkeypatch)
    rng = random.Random(5)
    counts = Counter()
    for _ in range(300):
        state = random_tree_state(rng, random_metric(rng, rng.randint(4, 9)))
        searched.clear()
        decided.clear()
        verdict = verify_equilibrium(state)
        assert searched[0] == decided[0] and len(decided) == len(set(decided))
        if verdict.ok:
            assert searched == decided[:1]
        else:
            assert searched in ([verdict.witness.vertex], [decided[0], verdict.witness.vertex])
            assert verdict.witness.vertex in decided
        counts[verdict.ok] += 1
        counts[verdict.ok, "searches"] += len(searched)
    assert (counts[False], counts[False, "searches"], counts[True, "searches"]) == (222, 283, 78)


def _verdict_states(monkeypatch):
    """Random tree, settled and big-denominator states; states whose random
    simple paths form no tree; every state classified in the one-shot run
    `OFF_TREE`, which leaves the tree, in 40 random runs on explicit metrics
    under each policy, in the euclid n=120 churn run (seed 0), gm m=3
    one-shot and steiner-gap n=20."""
    rng = random.Random(20000)
    states = list(_lemma_states(rng, 150))
    for _ in range(60):
        state = _revealed_state(random_metric(rng, rng.randint(4, 8)))
        for t in rng.sample(range(1, state.instance.n), 3):
            via = rng.sample([v for v in range(1, state.instance.n) if v != t], rng.randint(0, 2))
            state = add_terminal(state, t, rng.randint(1, 3), (t, *via, ROOT))
        states.append(state)
    classify = dynamics.classify
    monkeypatch.setattr(dynamics, "classify",
                        lambda state, *args, **kwargs: states.append(state)
                        or classify(state, *args, **kwargs))
    costs, events = OFF_TREE
    run_noneqp(explicit_metric(5, costs), events, verify=False, batch_order="snapshot")
    for k in range(80):
        inst = random_metric(rng, rng.randint(4, 12))
        events = random_schedule(rng, inst.n, 14, k % 2 == 1)
        if k % 2:
            run_noneqp(inst, events, verify=False, batch_order="snapshot")
        else:
            run_eqp(inst, events, verify=False, accounting=False)
    run = build_random_euclidean(120, 0)
    run_eqp(run.instance, run.events, verify=False, accounting=False)
    gm = build_gm(3)
    run_noneqp(gm.instance, list(build_sigma(gm)), verify=False)
    fx = build_steiner_gap_fixture(20)
    run_eqp(fx.instance, fx.events, verify=False, accounting=False)
    return states


def _is_tree(state):
    try:
        state.view
    except EngineInvariantError:
        return False
    return True


def test_a_non_tree_sweep_names_the_least_improving_terminal(monkeypatch):
    # Off the tree the sweep decides every terminal in id order: its witness
    # is the best response of the least improving terminal, and, where the
    # instance is small, the exhaustive oracle's first witness.
    tally = Counter()
    for state in filter(lambda s: not _is_tree(s), _verdict_states(monkeypatch)):
        least = next(t for t in sorted(state.counts) if has_improving_move(state, t))
        verdict = verify_equilibrium(state)
        assert not verdict.ok and verdict.witness == has_improving_move(state, least)
        if state.instance.n <= 7:
            want = next(filter(None, (_oracle_witness(_matrix(state.instance), state, t)
                                      for t in sorted(state.counts))))
            w = verdict.witness
            assert (w.vertex, w.path, w.current, w.candidate) == (want[1], *want[3:])
            tally["oracled"] += 1
        tally["states"] += 1
    assert tally["states"] >= 40 and tally["oracled"] >= 35, tally


def test_the_off_tree_run_fails_verification_with_its_witness(monkeypatch):
    # OFF_TREE's one-shot run ends off the tree, where terminal 4 can
    # leave relay 2 for 1's crowd.  A sweep that finds no improving terminal
    # on a non-tree contradicts the downward-closure argument, and raises.
    costs, events = OFF_TREE
    want = Witness(4, (4, 3, 1, 0), Fraction(38, 3), Fraction(203, 68))
    with pytest.raises(VerificationError, match="not an equilibrium") as exc:
        run_noneqp(explicit_metric(5, costs), events, verify=True)
    assert str(want) in str(exc.value)
    state = run_noneqp(explicit_metric(5, costs), events, verify=False).state
    assert not _is_tree(state) and verify_equilibrium(state).witness == want
    monkeypatch.setattr(routing._Verdicts, "improves", lambda self, t: False)
    with pytest.raises(EngineInvariantError, match="non-tree routing"):
        verify_equilibrium(state)


def test_every_astar_verdict_matches_a_best_response_search(monkeypatch):
    # `verify_equilibrium`'s later verdicts, one A* each over the sweep's
    # reduced block, say "improves" exactly when a best-response search
    # does, exact ties (best == current) included, in sweeps whose block is
    # int64 and in sweeps whose block holds Python ints.
    tally = Counter()
    for state in _verdict_states(monkeypatch):
        verdicts = routing._Verdicts(state)
        for t in sorted(state.counts):
            witness = has_improving_move(state, t)
            assert verdicts.decide(t) == (witness is not None), (state.paths, t)
            if witness is not None:
                tally["improves"] += 1
            elif best_response(state, t).cost == shared_cost(state, t):
                tally["tie"] += 1
        if state.counts:
            tally[verdicts._block[0].dtype.name] += 1
        try:
            state.view
        except EngineInvariantError:
            tally["non-tree states"] += 1
    assert tally["tie"] >= 1000 and tally["improves"] >= 200, tally
    assert tally["non-tree states"] >= 20, tally
    assert tally["int64"] >= 1000 and tally["object"] >= 50, tally


def test_every_astar_key_is_a_distance_plus_the_bound(monkeypatch):
    # Each key a verdict's A* pops is t's exact distance from t at its own
    # prices over `state.table`'s nodes (c / N on its path, c / (N + 1) on
    # other used edges, c on unused ones, all over den), by Floyd-Warshall,
    # plus the sweep's bound h, itself checked the same way; every other
    # node reads cur(t).  No verdict
    # tells the own-edge patch made toward the root alone from the patch
    # made both ways (a cheaper path priced so exists iff a truly cheaper
    # one does); some of these keys do.
    runs = []
    settle = routing._settle
    monkeypatch.setattr(routing, "_settle", lambda *args: runs.append(settle(*args)) or runs[-1])
    rng = random.Random(20100)
    tally = Counter()
    for i in range(500):
        inst = (big_denominator_metric(rng, rng.randint(4, 6)) if i % 5 == 0
                else random_metric(rng, rng.randint(5, 12)))
        state = random_tree_state(rng, inst, max_count=rng.choice([1, 2, 3, 5]))
        verdicts, nodes, costi = routing._Verdicts(state), state.table.nodes, state.instance.costi
        scale = math.lcm(*{k for n in state.usage.values() for k in (n, n + 1)})  # den // D

        def prices(own):
            return [[int(costi[a, b]) * scale // (state.usage[e] + (e not in own))
                     if (e := routing.edge_key(a, b)) in state.usage else int(costi[a, b]) * scale
                     for b in nodes] for a in nodes]

        owns = {t: set(routing.path_edges(path)) for t, path in state.paths.items()}
        curs = {t: sum(int(costi[e]) * scale // state.usage[e] for e in own) for t, own in owns.items()}
        # h: the root distance at the lower prices, clamped at the largest cur
        h = [min(d[0], max(curs.values())) for d in floyd_warshall(prices(set()))]
        for t in sorted(state.counts):
            cur, dist = curs[t], floyd_warshall(prices(owns[t]))[nodes.index(t)]
            improves = verdicts.decide(t)
            keys = runs[-1].tolist()
            assert verdicts._block[1].tolist() == h
            for x, key in enumerate(keys):
                assert key == cur or key == dist[x] + h[x] < cur, (state.paths, t, x)
                tally["popped"] += key < cur
            assert improves == (keys[0] < cur) == (dist[0] < cur)
            tally["improves"] += bool(improves)
    assert tally["popped"] >= 3000 and tally["improves"] >= 500, tally


def test_sweep_builds_one_search_table_per_state(monkeypatch):
    builds = []
    real = routing._SearchTable
    monkeypatch.setattr(routing, "_SearchTable",
                        lambda *args: builds.append(args) or real(*args))
    rng = random.Random(17600)
    verdicts = set()
    for _ in range(12):
        state = random_tree_state(rng, random_metric(rng, rng.randint(4, 8)))
        builds.clear()
        verdicts.add(verify_equilibrium(state).ok)
        assert builds == [(state,)]
    assert verdicts == {True, False}
    # a best response off every path builds the state's table, and reads it
    # with the target appended
    state = add_terminal(_revealed_state(random_metric(rng, 6)), 1, 2, (1, 0))
    builds.clear()
    best_response(state, 4)
    assert builds == [(state,)] and 4 not in state.table.pos


def test_a_search_caches_the_state_table_and_no_grown_copy(monkeypatch):
    # A search reads `state.table`, so the state's first search builds and
    # caches it and later ones reuse it.  A target off every path is read
    # as one node appended to the table's block, which is never cached: the
    # next state's table, derived from the cached one, holds the nodes
    # paths use alone.
    builds = []
    real = routing._SearchTable
    monkeypatch.setattr(routing, "_SearchTable",
                        lambda *args: builds.append(args) or real(*args))
    state = add_terminal(_revealed_state(line_instance(0, 5, 9, 14, 20)), 2, 1, (2, 1, 0))
    best_response(state, 1)  # a relay on the path
    best_response(state, 2)  # a terminal
    table = state.table
    assert builds == [(state,)] and table.nodes == [0, 1, 2]
    path = best_response(state, 3).path  # off every path
    assert builds == [(state,)] and state.table is table and 3 not in table.pos
    assert path == (3, 2, 1, 0)
    grown = add_terminal(state, 3, 1, path)
    assert grown.table.nodes == [0, 1, 2, 3] and 3 not in table.pos
    best_response(grown, 4)
    assert builds == [(state,)] and grown.table.nodes == [0, 1, 2, 3]


def test_verify_sweep_runs_under_forwarding_wrappers(monkeypatch):
    # A call tracer replaces `_Search`, `_Tree` and `has_improving_move` by
    # plain functions that forward their arguments, and names each
    # has_improving_move call from exactly (state, vertex).  The sweep must
    # give the same verdicts under them, so no code may call `_Search` other
    # than through the module's name, use `_Tree` as a class at runtime or
    # pass has_improving_move anything else.
    rng = random.Random(17700)
    states = [random_tree_state(rng, random_metric(rng, rng.randint(4, 8)))
              for _ in range(12)]
    states += [_settle(s) for s in states[:6]]
    assert any(next(_relays(s), None) for s in states)
    want = [verify_equilibrium(replace(s)) for s in states]
    assert {v.ok for v in want} == {True, False}
    search, tree, improving = routing._Search, routing._Tree, routing.has_improving_move
    monkeypatch.setattr(routing, "_Search", lambda *args, **kwargs: search(*args, **kwargs))
    monkeypatch.setattr(routing, "_Tree", lambda *args, **kwargs: tree(*args, **kwargs))

    def named(state, vertex):
        return improving(state, vertex)

    monkeypatch.setattr(routing, "has_improving_move", named)
    assert [verify_equilibrium(replace(s)) for s in states] == want
