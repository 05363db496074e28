"""Distance-scale partitions, cut charging, classification, accounting.

The classification tests build small collinear-point states by hand: with
integer coordinates on a line the metric is exact, so charge levels and
component membership can be placed deliberately.
"""

import random
from collections import Counter
from dataclasses import replace as dc_replace
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations

import pytest

from costshare import (
    ClosureViolationError,
    DualFamily,
    EngineInvariantError,
    VerificationError,
    add_terminal,
    classify,
    compute_charges,
    dual_lower_bound,
    explicit_metric,
    initial_state,
    logn_accounting,
    mst_cost,
    solution_cost,
    with_revealed,
)
from costshare.duals import (
    BALANCED,
    BALANCED_EQUILIBRIUM,
    LEAF_UNBALANCED,
    NONLEAF_UNBALANCED,
)
from costshare.rationals import pow2
from conftest import family_for, line_instance, random_metric, random_tree_state
from oracles import (
    charge_level,
    check_invariants,
    component_members,
    distance_levels,
    greedy_partition,
    level_members,
    rebuild_charges,
)


def _line_state(xs, routes, last_mover=None):
    """State + family over collinear points; routes maps vertex -> path."""
    inst = line_instance(*xs)
    state = with_revealed(initial_state(inst), range(1, inst.n))
    for v in sorted(routes):
        state = add_terminal(state, v, 1, routes[v])
    if last_mover is not None:
        state = dc_replace(state, last_mover=last_mover)
    return state, family_for(state)


# ---------------------------------------------------------------------------
# charge levels


def test_charge_level_known_values():
    assert charge_level(Fraction(4)) == 0
    assert charge_level(Fraction(8)) == 1
    assert charge_level(Fraction(9)) == 1
    assert charge_level(Fraction(31)) == 2
    assert charge_level(Fraction(32)) == 3
    assert charge_level(Fraction(1, 3)) == -4


def test_charge_level_brackets_cost():
    rng = random.Random(5)
    for _ in range(60):
        c = Fraction(rng.randint(1, 10**6), rng.randint(1, 997))
        j = charge_level(c)
        assert pow2(j + 2) <= c < pow2(j + 3)


def test_charge_level_rejects_nonpositive():
    with pytest.raises(ValueError):
        charge_level(Fraction(0))


# ---------------------------------------------------------------------------
# partitions


def _matrix(inst):
    return [[inst.cost(i, j) for j in range(inst.n)] for i in range(inst.n)]


@pytest.mark.parametrize("seed", range(10))
def test_partitions_match_greedy_replay(seed):
    rng = random.Random(600 + seed)
    inst = random_metric(rng, rng.randint(2, 10))
    family = DualFamily(inst)
    order = [0] + rng.sample(range(1, inst.n), inst.n - 1)
    matrix = _matrix(inst)
    for v in order:
        family.insert(v)
        check_invariants(family)
        for j, lp in family.levels.items():
            centers, members, of = greedy_partition(
                matrix, family.inserted, pow2(j - 1)
            )
            assert lp.centers == centers
            assert level_members(lp) == members
            assert lp.of == of


@pytest.mark.parametrize("kind", ["random", "unit", "python-int"])
def test_partition_shortcuts_match_a_plain_scan(kind):
    # An insert settles a stored level without scanning when its least
    # distance to the earlier vertices reaches the radius (v founds a
    # component) or its first center is near (index 0).  The levels are
    # queried before the inserts, so every insert extends them; each must
    # equal the exact first-fit scan, after every insert.  Unit metrics put
    # every distance at the radius of level 1; random metrics scaled by
    # (2^64 + 1)/2^64 have a denominator past int64, so their costi holds
    # Python ints.
    rng = random.Random(660 + len(kind))
    settled = Counter()
    for _ in range(12):
        n = rng.randint(2, 9)
        if kind == "unit":
            inst = explicit_metric(n, {e: 1 for e in combinations(range(n), 2)})
        elif kind == "python-int":
            base, q = random_metric(rng, n), Fraction(2**64 + 1, 2**64)
            inst = explicit_metric(n, {(a, b): base.cost(a, b) * q
                                       for a, b in combinations(range(n), 2)})
            assert inst.costi.dtype == object
        else:
            inst = random_metric(rng, n)
        matrix = _matrix(inst)
        family = DualFamily(inst)
        levels = distance_levels(inst, range(n))
        assert [family.num_components(j) for j in levels] == [0] * len(levels)
        for i, v in enumerate([0] + rng.sample(range(1, n), n - 1)):
            family.insert(v)
            earlier = family.inserted[:i]
            assert sorted(family.levels) == list(levels)
            for j, lp in family.levels.items():
                radius = pow2(j - 1)
                centers, members, of = greedy_partition(matrix, family.inserted, radius)
                assert (lp.centers, level_members(lp), lp.of) == (centers, members, of), (j, v)
                if not earlier:
                    continue  # the root founds every level's first component
                if min(matrix[v][w] for w in earlier) >= radius:
                    settled["far"] += 1
                elif matrix[v][centers[0]] < radius:
                    settled["first"] += 1
                else:
                    settled["scan"] += 1
    if kind == "unit":
        assert set(settled) == {"far"}, settled
    else:
        assert min(settled[k] for k in ("far", "first", "scan")) > 0, settled


_P = 999983  # a prime, so D * 2^j is not an integer for any j < 0


@pytest.mark.parametrize("level, costs", [
    (2, (1, 1 + Fraction(1, _P), 2 - Fraction(1, _P), 2)),
    (-2, (Fraction(124997, _P), Fraction(124998, _P), Fraction(187000, _P),
          Fraction(249994, _P))),
], ids=["radius-2", "radius-1/8"])
def test_partitions_join_exactly_below_the_radius(level, costs):
    # Costs within a factor 2 of each other satisfy every triangle.  They
    # sit at the join radius 2^(level-1) and one unit of D = P either side
    # of it: at 2, and around 1/8, which no multiple of 1/P equals.
    rng = random.Random(650)
    n = 9
    inst = explicit_metric(n, {e: rng.choice(costs) for e in combinations(range(n), 2)})
    family = family_for(with_revealed(initial_state(inst), range(1, n)))
    check_invariants(family)
    matrix = _matrix(inst)
    for j, lp in family.levels.items():
        centers, members, of = greedy_partition(matrix, family.inserted, pow2(j - 1))
        assert (lp.centers, level_members(lp), lp.of) == (centers, members, of)
    assert level in family.levels


def test_family_builds_a_level_on_its_first_query():
    # Inserts create no level; a query builds its level by replaying the
    # insertion history, and later inserts extend every stored level.
    rng = random.Random(8)
    inst = random_metric(rng, 8)
    matrix = _matrix(inst)
    family = DualFamily(inst)
    for v in range(4):
        family.insert(v)
    assert family.levels == {}
    queried = list(distance_levels(inst, range(4)))
    for j in queried:
        family.component_of(3, j)
    for v in range(4, 8):
        family.insert(v)
        assert sorted(family.levels) == queried
        for j, lp in family.levels.items():
            centers, members, of = greedy_partition(matrix, family.inserted, pow2(j - 1))
            assert (lp.centers, level_members(lp), lp.of) == (centers, members, of), (j, v)
    late = [j for j in distance_levels(inst, range(8), pad=2) if j not in queried]
    assert late
    for j in late:
        family.num_components(j)
        centers, members, of = greedy_partition(matrix, family.inserted, pow2(j - 1))
        lp = family.levels[j]
        assert (lp.centers, level_members(lp), lp.of) == (centers, members, of), j


def test_levels_far_from_every_distance_are_forced():
    # Far below the smallest distance every vertex is its own component;
    # far above the largest, every vertex shares the root's.
    inst = line_instance(0, 5, 9)
    family = DualFamily(inst)
    for v in range(3):
        family.insert(v)
    span = distance_levels(inst, range(3))
    below, above = span.start - 3, span.stop + 1
    assert family.num_components(below) == 3
    assert family.num_components(above) == 1
    assert [family.component_of(v, below) for v in range(3)] == [(below, i) for i in range(3)]
    assert {family.component_of(v, above) for v in range(3)} == {(above, 0)}
    assert component_members(family, 1, below) == (1,)
    assert component_members(family, 1, above) == (0, 1, 2)
    for j in (below, above):
        assert level_members(family.levels[j]) == greedy_partition(
            _matrix(inst), [0, 1, 2], pow2(j - 1))[1]


def test_a_level_first_read_late_replays_history():
    # Vertices 0..2 are a tight cluster; 3 is far away and arrives last,
    # widening the distance span upward.  The new high levels, first read
    # after 3 arrives, must look as if they had been kept from the start:
    # the whole cluster shares one component there.
    inst = line_instance(0, 1, 2, 5000)
    family = DualFamily(inst)
    for v in range(3):
        family.insert(v)
    early = distance_levels(inst, range(3))
    for j in early:
        family.num_components(j)
    family.insert(3)
    late = [j for j in distance_levels(inst, range(4)) if j >= early.stop]
    assert late
    for j in late:
        assert family.component_of(1, j) == family.component_of(2, j)
    check_invariants(family)
    for j in [*early, *late]:
        centers, members, of = greedy_partition(_matrix(inst), [0, 1, 2, 3], pow2(j - 1))
        assert level_members(family.levels[j]) == members


def _assert_cuts_never_change(inst, order):
    """Insert `order`; after each insert, every cut seen so far must hold.

    Records component_of(u, j) for every inserted u and every j within 3 of
    the distance span (`distance_levels`) of the vertices inserted so far,
    and rechecks all records after every later insert.  Levels the span
    grows into are first read after later inserts.  Returns how the span
    moved: (grew down, grew up).
    """
    family = DualFamily(inst)
    seen: dict = {}
    down = up = False
    span = range(0)
    for v in order:
        family.insert(v)
        for (u, j), cut in seen.items():
            assert family.component_of(u, j) == cut, (u, j, v)
        before, span = span, distance_levels(inst, family.inserted, pad=3)
        if before:
            down |= span.start < before.start
            up |= span.stop > before.stop
        for u in family.inserted:
            for j in span:
                seen.setdefault((u, j), family.component_of(u, j))
    return down, up


def test_component_of_never_changes_after_later_inserts():
    # The charge memo rests on this: partitions never rebalance, and a level
    # first read late replays to the answers it would have given before.
    assert _assert_cuts_never_change(line_instance(0, 1, 2, 5000), range(4)) == (False, True)
    assert _assert_cuts_never_change(line_instance(0, 128, 64, 65), range(4)) == (True, False)
    rng = random.Random(31)
    moved = set()
    for _ in range(30):
        inst = random_metric(rng, rng.randint(3, 9))
        order = [0] + rng.sample(range(1, inst.n), inst.n - 1)
        down, up = _assert_cuts_never_change(inst, order)
        moved |= {"down"} if down else set()
        moved |= {"up"} if up else set()
    assert moved == {"down", "up"}


def test_family_insert_errors():
    inst = line_instance(0, 5, 9)
    family = DualFamily(inst)
    with pytest.raises(EngineInvariantError, match="root"):
        family.insert(1)
    family.insert(0)
    family.insert(1)
    with pytest.raises(EngineInvariantError, match="twice"):
        family.insert(1)
    with pytest.raises(EngineInvariantError, match="range"):
        family.insert(7)


def test_check_invariants_catches_corruption():
    inst = line_instance(0, 5, 9, 200)
    family = DualFamily(inst)
    for v in range(4):
        family.insert(v)
    check_invariants(family)
    top = distance_levels(inst, range(4)).stop
    assert family.num_components(top) == 1  # everything in the root's component
    lp = family.levels[top]
    del lp.of[family.inserted[-1]]  # the last vertex leaves its component
    with pytest.raises(AssertionError, match="partition"):
        check_invariants(family)


def test_component_of_unknown_vertex_raises():
    inst = line_instance(0, 5)
    family = DualFamily(inst)
    family.insert(0)
    with pytest.raises(EngineInvariantError, match="never inserted"):
        family.component_of(1, 0)


# ---------------------------------------------------------------------------
# dual lower bounds


def test_dual_lower_bound_formula_and_degenerate_cases():
    inst = line_instance(0, 5, 9)
    family = DualFamily(inst)
    family.insert(0)
    assert dual_lower_bound(family, 3) == 0  # single vertex, single component
    family.insert(1)
    family.insert(2)
    for j in distance_levels(inst, range(3)):
        k = family.num_components(j)
        want = 0 if k <= 1 else pow2(j - 1) * (k - 1)
        assert dual_lower_bound(family, j) == want


@pytest.mark.parametrize("seed", range(8))
def test_dual_lower_bound_below_mst_on_engine_instances(seed):
    # The bound certifies a spanning-tree minimum, so on instances the engine
    # actually produces it must sit below the exact MST at every level.
    rng = random.Random(700 + seed)
    inst = random_metric(rng, rng.randint(2, 9))
    family = DualFamily(inst)
    for v in range(inst.n):
        family.insert(v)
    opt = mst_cost(inst, range(inst.n))
    for j in distance_levels(inst, range(inst.n), pad=2):
        assert dual_lower_bound(family, j) <= opt


# ---------------------------------------------------------------------------
# charging


def test_compute_charges_one_record_per_tree_vertex():
    state, family = _line_state(
        (0, 33, 32, 34), {1: (1, 0), 2: (2, 0), 3: (3, 1, 0)}
    )
    charges = compute_charges(state, family)
    assert sorted(r.vertex for r in charges.records) == [1, 2, 3]
    by_vertex = {r.vertex: r for r in charges.records}
    assert by_vertex[1].cost == 33 and by_vertex[1].level == 3
    assert by_vertex[2].cost == 32 and by_vertex[2].level == 3
    assert by_vertex[3].cost == 1 and by_vertex[3].level == -2
    assert not by_vertex[1].leaf  # 3 routes through 1
    assert by_vertex[2].leaf and by_vertex[3].leaf
    # 1 and 2 land in the same level-3 component: same cut key
    assert by_vertex[1].cut == by_vertex[2].cut
    assert charges.by_cut[by_vertex[1].cut] == (by_vertex[1], by_vertex[2])


def test_charge_memo_builds_each_record_once():
    state, family = _line_state(
        (0, 33, 32, 34), {1: (1, 0), 2: (2, 0), 3: (3, 1, 0)}
    )
    first = compute_charges(state, family)
    again = compute_charges(state, family)
    assert all(a is b for a, b in zip(first.records, again.records))
    assert family.charge(3, 1, True) is first.records[2]
    # the leaf flag is part of the key; the level and the cut are not
    # changed by it
    nonleaf = family.charge(3, 1, False)
    assert nonleaf is not first.records[2] and not nonleaf.leaf
    assert (nonleaf.level, nonleaf.cut) == (first.records[2].level, first.records[2].cut)


def test_compute_charges_matches_rebuild_on_random_trees():
    # Many trees per instance share one family, so its memo answers for
    # vertices whose parents and leaf flags differ from tree to tree.
    rng = random.Random(32)
    for _ in range(12):
        inst = random_metric(rng, rng.randint(3, 9))
        matrix = _matrix(inst)
        family = None
        for _ in range(8):
            state = random_tree_state(rng, inst)  # reveals in id order
            family = family or family_for(state)
            records, by_cut = rebuild_charges(matrix, state.paths, family.component_of)
            got = compute_charges(state, family)
            assert [(r.vertex, r.level, r.cut, r.cost, r.leaf)
                    for r in got.records] == records
            assert {k: [(r.vertex, r.level, r.cut, r.cost, r.leaf) for r in v]
                    for k, v in got.by_cut.items()} == by_cut


def _flat_levels(family):
    return {j: (lp.centers, lp.of) for j, lp in family.levels.items()}


def test_compute_charges_catches_the_family_up_with_revealed():
    # compute_charges first inserts, in order, what `revealed` holds past the
    # family's `inserted`.  A family that lags by any suffix, levels built
    # or not, ends with the inserted list, levels and charges of one filled
    # in revelation order.
    rng = random.Random(2807)
    for trial in range(6):
        inst = random_metric(rng, 11)
        state = random_tree_state(rng, inst, shuffled=True)
        want = family_for(state)
        records = [(r.vertex, r.level, r.cut, r.costi, r.leaf)
                   for r in compute_charges(state, want).records]
        for keep in range(len(state.revealed) + 1):
            family = DualFamily(inst)
            for v in state.revealed[:keep]:
                family.insert(v)
            if keep and trial % 2:  # some levels exist before the catch-up
                for rec in compute_charges(state, want).records:
                    family.num_components(rec.level)
            got = compute_charges(state, family)
            assert family.inserted == want.inserted == list(state.revealed)
            assert [(r.vertex, r.level, r.cut, r.costi, r.leaf) for r in got.records] == records
            assert _flat_levels(family) == _flat_levels(want)


def test_compute_charges_requires_family_sync():
    # After the catch-up the family must hold the revealed vertices, as a
    # set: its order may differ (`_shuffled_family` in test_carried.py relies
    # on that), but a family ahead of the state, or one holding a vertex the
    # state never revealed, is out of sync.
    inst = line_instance(0, 5, 9, 14)
    state = with_revealed(initial_state(inst), [1, 2])
    state = add_terminal(state, 1, 1, (1, 0))
    family = DualFamily(inst)
    for v in (0, 2, 1):  # another order, the same set
        family.insert(v)
    compute_charges(state, family)
    assert family.inserted == [0, 2, 1]
    family.insert(3)  # one vertex too many
    with pytest.raises(EngineInvariantError, match="out of sync"):
        compute_charges(state, family)
    other = DualFamily(inst)
    for v in (0, 1, 3):  # as many vertices, not the same ones
        other.insert(v)
    with pytest.raises(EngineInvariantError, match="out of sync"):
        compute_charges(state, other)
    short = DualFamily(inst)
    for v in (0, 3):  # caught up by vertex 2 to as many, but 3 was never revealed
        short.insert(v)
    with pytest.raises(EngineInvariantError, match="out of sync"):
        compute_charges(state, short)
    assert short.inserted == [0, 3, 2]


# ---------------------------------------------------------------------------
# classification


def test_classify_balanced_equilibrium():
    state, family = _line_state((0, 7), {1: (1, 0)})
    cls = classify(state, family)
    assert cls.rank == BALANCED_EQUILIBRIUM
    assert cls.name == "balanced-equilibrium"
    assert cls.heavy_cut is None


def test_classify_balanced_when_moves_remain():
    # Both terminals route direct over ~same-length edges; each would rather
    # hop to the other.  Every cut is charged once, so this is rank 1.
    state, family = _line_state((0, 10, 9), {1: (1, 0), 2: (2, 0)})
    cls = classify(state, family)
    assert cls.rank == BALANCED
    lazy = classify(state, family, decide_equilibrium=False)
    assert lazy.rank == BALANCED


def test_classify_decide_equilibrium_false_never_reports_rank_zero():
    state, family = _line_state((0, 7), {1: (1, 0)})
    assert classify(state, family).rank == BALANCED_EQUILIBRIUM
    assert classify(state, family, decide_equilibrium=False).rank == BALANCED


def test_classify_leaf_unbalanced():
    # Edges of cost 18 and 17 charge level 2; the two endpoints sit within
    # distance 1 < 2 of each other, sharing a level-2 component: one cut,
    # two leaf charges.
    state, family = _line_state((0, 18, 17), {1: (1, 0), 2: (2, 0)})
    cls = classify(state, family)
    assert cls.rank == LEAF_UNBALANCED
    assert cls.heavy_cut is None


def _nonleaf_pair_state(last_mover):
    # 1 and 2 charge the same level-3 cut (costs 33 and 32, distance 1) and
    # both are interior: 3 routes through 1, 4 through 2.
    return _line_state(
        (0, 33, 32, 34, 31),
        {1: (1, 0), 2: (2, 0), 3: (3, 1, 0), 4: (4, 2, 0)},
        last_mover=last_mover,
    )


def test_classify_nonleaf_unbalanced_orders_chargers_by_last_mover():
    state, family = _nonleaf_pair_state(last_mover=1)
    cls = classify(state, family)
    assert cls.rank == NONLEAF_UNBALANCED
    assert cls.heavy_chargers == (1, 2)
    assert cls.heavy_cut[0] == 3  # the level charged by the 33/32 edges
    assert {r.vertex for r in cls.charges.by_cut[cls.heavy_cut]} == {1, 2}

    state, family = _nonleaf_pair_state(last_mover=2)
    assert classify(state, family).heavy_chargers == (2, 1)


def test_classify_rejects_heavy_cut_without_last_mover():
    state, family = _nonleaf_pair_state(last_mover=None)
    with pytest.raises(ClosureViolationError, match="last move"):
        classify(state, family)
    state, family = _nonleaf_pair_state(last_mover=3)  # a leaf, not a charger
    with pytest.raises(ClosureViolationError, match="last move"):
        classify(state, family)


def test_classify_rejects_three_nonleaf_chargers():
    state, family = _line_state(
        (0, 33, 32, 34, 31, 35, 36),
        {1: (1, 0), 2: (2, 0), 3: (3, 1, 0), 4: (4, 2, 0),
         5: (5, 0), 6: (6, 5, 0)},
        last_mover=1,
    )
    with pytest.raises(ClosureViolationError, match="3 non-leaf"):
        classify(state, family)


def test_classify_rejects_two_heavy_cuts():
    # The same two-interior-chargers pattern at two different scales: costs
    # 33/32 charge level 3, costs 2080/2048 charge level 9.
    state, family = _line_state(
        (0, 33, 32, 34, 31, 2080, 2048, 2081, 2047),
        {1: (1, 0), 2: (2, 0), 3: (3, 1, 0), 4: (4, 2, 0),
         5: (5, 0), 6: (6, 0), 7: (7, 5, 0), 8: (8, 6, 0)},
        last_mover=1,
    )
    with pytest.raises(ClosureViolationError, match="multiple cuts"):
        classify(state, family)


# ---------------------------------------------------------------------------
# accounting


def test_accounting_happy_path_with_interior_vertex():
    state, family = _line_state((0, 100, 130), {1: (1, 0), 2: (2, 1, 0)})
    report = logn_accounting(state, family)
    assert report.n == 3
    assert report.total_cost == 130
    assert report.opt_cost == mst_cost(state.instance, range(3)) == 130
    assert report.ratio == 1
    assert report.certified
    # the cheap relay edge (cost 30 <= 100/3) is set aside, not charged
    assert report.max_edge == 100
    assert report.ignored_count == 1 and report.ignored_cost == 30
    assert report.levels_charged == len(report.rows) == 1
    (row,) = report.rows
    assert row.charged_cost == 100 and row.charges == 1
    assert row.dual_bound == dual_lower_bound(family, row.level)
    assert row.components >= 2
    assert report.levels_charged <= report.level_budget


def test_accounting_charged_plus_ignored_covers_total():
    rng = random.Random(901)
    checked = 0
    while checked < 6:
        inst = random_metric(rng, rng.randint(2, 8))
        state = random_tree_state(rng, inst)
        family = family_for(state)
        try:
            report = logn_accounting(state, family)
        except VerificationError:
            continue  # random tree happened to double-charge a cut
        charged = sum((r.charged_cost for r in report.rows), Fraction(0))
        assert charged + report.ignored_cost == report.total_cost
        checked += 1


def test_accounting_explicit_opt_override():
    state, family = _line_state((0, 100, 130), {1: (1, 0), 2: (2, 1, 0)})
    report = logn_accounting(state, family, opt=Fraction(65))
    assert report.opt_cost == 65
    assert report.ratio == 2
    with pytest.raises(EngineInvariantError, match="positive"):
        logn_accounting(state, family, opt=0)


@pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
def test_accounting_certifies_exactly_at_an_irrational_gate(above):
    # n = 3: a ratio 10^-40 from 32 (log2 3 + 1).  The float gate lies
    # 3.4e-15 below the true one and the ratio rounds onto it, so a float
    # comparison passes both; the exact decision passes only the one below.
    state, family = _line_state((0, 100, 130), {1: (1, 0), 2: (2, 1, 0)})
    with localcontext() as ctx:
        ctx.prec = 100
        gate = Fraction(32 * (Decimal(3).ln() / Decimal(2).ln() + 1))
    ratio = gate + Fraction(1 if above else -1, 10**40)
    report = logn_accounting(state, family, opt=solution_cost(state) / ratio)
    assert report.n == 3 and report.ratio == ratio and report.certified is not above
    assert float(report.ratio) <= report.gate  # what a float decision says


def test_accounting_certifies_exactly_at_an_integer_gate():
    # n = 4: the gate is 96 exactly; 96 passes and 96 + 10^-30 does not.
    state, family = _line_state((0, 100, 130, 500), {1: (1, 0), 2: (2, 1, 0)})
    for ratio, certified in ((Fraction(96), True), (96 + Fraction(1, 10**30), False)):
        report = logn_accounting(state, family, opt=solution_cost(state) / ratio)
        assert report.n == 4 and report.ratio == ratio and report.gate == 96
        assert report.certified is certified


def test_accounting_rejects_double_charged_cuts():
    state, family = _line_state((0, 18, 17), {1: (1, 0), 2: (2, 0)})
    with pytest.raises(VerificationError, match="charged more than once"):
        logn_accounting(state, family)


def test_accounting_empty_state():
    inst = line_instance(0, 5)
    state = with_revealed(initial_state(inst), [1])
    family = family_for(state)
    report = logn_accounting(state, family)
    assert report.total_cost == 0
    assert report.certified
    assert report.rows == ()
