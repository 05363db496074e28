"""Online distance-scale partitions, cut charging, and cost accounting.

For each integer level j we maintain a partition of the revealed vertices
(departed ones included) into components of diameter < 2^j whose centers are
pairwise >= 2^{j-1} apart.  Each partition doubles as a spanning-tree lower
bound: any tree over the vertices must connect the component centers.

A routing tree is charged against the partitions: every non-root tree vertex
charges its parent-edge cost c to its own component at level
floor(log2(c)) - 2 (so 2^{j+2} <= c < 2^{j+3} charges level j).  The number
of distinct non-leaf chargers per component ("cut") drives a four-way
classification of tree states, and on states where every cut is charged at
most once the per-level charges telescope into a logarithmic bound on the
tree's cost relative to the minimum spanning tree.

Partitions are built greedily in revelation order and never rebalanced, so
every query is reproducible from the insertion sequence alone.  A level is
built on its first query, by replaying that sequence, and is kept up to date
from then on.  So a vertex's component at each level is fixed once it is
inserted, and so is the charge of each (vertex, parent) edge: the family
builds each charge once.

A charge reads only its vertex's parent edge and leaf flag, so two tree
views' charge maps differ exactly where those do.  The family keeps the map
it built last and patches it there for whatever view comes next
(`compute_charges`).  A run builds one map in full; the full build is the
patch's test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import ClosureViolationError, EngineInvariantError, VerificationError
from .metric import ROOT, MetricInstance, mst_cost
from .rationals import floor_log2_ratio, format_rational, pow2, within_log_gate
from .routing import RoutingState, find_improving_tree_move, solution_cost


class LevelPartition:
    """One level's greedy online partition.

    A vertex joins the first component (in creation order) whose center lies
    strictly within half the level's diameter bound; otherwise it founds a
    new component with itself as center.  Every member is therefore strictly
    within 2^{level-1} of its center, and centers are pairwise >= 2^{level-1}
    apart, which caps the component diameter below 2^level.
    """

    __slots__ = ("level", "centers", "of")

    def __init__(self, level: int):
        self.level = level
        self.centers: list = []
        self.of: dict = {}

    def insert(self, v: int, instance: MetricInstance, least=None) -> int:
        """Put v in its component; return its index.  `least` (at most
        costi[v, c] for every center c) settles a forced level without the
        scan: if it reaches the limit, v founds a component; if the first
        center is near, the index is 0.  Only the levels between scan."""
        # c(center, v) < 2^(level-1) iff the int costi[center, v] is below
        # ceil(D * 2^(level-1))
        den, j = instance.denominator, self.level - 1
        limit = den << j if j >= 0 else -(-den >> -j)
        centers = self.centers
        if least is not None and least >= limit:
            idx = len(centers)
        elif centers and int(instance.costi[v, centers[0]]) < limit:
            idx = 0
        else:
            near = (instance.costi[v, centers] < limit).nonzero()[0]
            idx = int(near[0]) if len(near) else len(centers)
        if idx == len(centers):
            centers.append(v)
        self.of[v] = idx
        return idx


class DualFamily:
    """All levels' partitions over the vertices inserted so far.

    `compute_charges` inserts `state.revealed` in order, root first, and no
    vertex is removed (a departed terminal still shapes the partitions).
    Level j is built on its first query by replaying `inserted`, and each
    insert extends it, so each stored level is the first-fit partition of
    the insertion history and its `of` entries are only ever appended: once
    u is inserted, `component_of(u, j)` never changes.  So `charge` memoizes
    one ChargeRecord per (vertex, parent, leaf), and `last_charges`, the map
    `compute_charges` built last, stays valid for its view and can be
    patched for any other.
    """

    __slots__ = ("instance", "inserted", "_seen", "levels", "_charges", "last_charges", "_synced")

    def __init__(self, instance: MetricInstance):
        self.instance = instance
        self.inserted: list = []
        self._seen: set = set()
        self.levels: dict = {}  # level -> LevelPartition, built on first query
        self._charges: dict = {}  # (vertex, parent, leaf) -> ChargeRecord
        self.last_charges: Optional[ChargeMap] = None
        self._synced: Optional[tuple] = None  # the `revealed` last matched

    def insert(self, v: int) -> None:
        if v in self._seen:
            raise EngineInvariantError(f"vertex {v} inserted into the duals twice")
        if not 0 <= v < self.instance.n:
            raise EngineInvariantError(f"vertex {v} outside instance range")
        if not self.inserted and v != ROOT:
            raise EngineInvariantError("the first inserted vertex must be the root")
        least = int(self.instance.costi[v, self.inserted].min()) if self.inserted else None
        self._seen.add(v)
        self.inserted.append(v)
        for lp in self.levels.values():
            lp.insert(v, self.instance, least)

    def _level(self, j: int) -> LevelPartition:
        lp = self.levels.get(j)
        if lp is None:
            lp = self.levels[j] = LevelPartition(j)
            for w in self.inserted:
                lp.insert(w, self.instance)
        return lp

    # -- queries ----------------------------------------------------------

    def num_components(self, j: int) -> int:
        return len(self._level(j).centers)

    def component_of(self, v: int, j: int) -> tuple:
        """Stable cut key (level, component index) of v's level-j component."""
        if v not in self._seen:
            raise EngineInvariantError(f"vertex {v} was never inserted into the duals")
        return (j, self._level(j).of[v])

    def charge(self, u: int, parent: int, leaf: bool) -> "ChargeRecord":
        """The charge of tree vertex u with this parent edge, built once."""
        key = (u, parent, leaf)
        rec = self._charges.get(key)
        if rec is None:
            den = self.instance.denominator
            c = int(self.instance.costi[u, parent])
            j = floor_log2_ratio(c, den) - 2  # 2^(j+2) <= c / den < 2^(j+3)
            rec = self._charges[key] = ChargeRecord(
                u, j, self.component_of(u, j), c, den, leaf)
        return rec


def dual_lower_bound(family: DualFamily, level: int) -> Fraction:
    """Spanning-tree lower bound certified by one level: 2^{level-1}(k - 1)."""
    k = family.num_components(level)
    if k <= 1:
        return Fraction(0)
    return pow2(level - 1) * (k - 1)


# ---------------------------------------------------------------------------
# charging and classification


@dataclass(frozen=True, slots=True)
class ChargeRecord:
    vertex: int
    level: int
    cut: tuple  # (level, component index)
    costi: int  # the parent edge's cost times den
    den: int    # the instance's cost denominator D
    leaf: bool

    @property
    def cost(self) -> Fraction:
        return Fraction(self.costi, self.den)


@dataclass(frozen=True, eq=False)
class ChargeMap:
    """The charges of one tree view, one per non-root vertex.

    `load`: cut -> (chargers, non-leaf chargers); `crowded` and `heavy`
    count the cuts with two or more of each.  Built on first read:
    `records` in vertex-id order and `by_cut`, cut -> its records, the cuts
    in the order of their first record.
    """

    view: object
    family: DualFamily
    load: dict
    crowded: int
    heavy: int

    @cached_property
    def records(self) -> tuple:
        view, charge = self.view, self.family.charge
        return tuple(charge(u, view.parent[u], u in view.leaves)
                     for u in view.order[1:])  # [0] is the root

    @cached_property
    def by_cut(self) -> dict:
        by_cut: dict = {}
        for rec in self.records:
            by_cut.setdefault(rec.cut, []).append(rec)
        return {k: tuple(v) for k, v in by_cut.items()}


def _count(load, tally, rec, step) -> None:
    """Add (step 1) or take out (step -1) one charge, keeping tally =
    [crowded, heavy] in step with `load`."""
    old = load.get(rec.cut, (0, 0))
    new = load[rec.cut] = (old[0] + step, old[1] + (not rec.leaf) * step)
    for i in (0, 1):
        tally[i] += (new[i] >= 2) - (old[i] >= 2)
    if not new[0]:
        del load[rec.cut]


def _charge(family, view, vertices, base=None) -> ChargeMap:
    """The charge map of `view`: that of `base`, a view that differs from
    it only at `vertices` (their parent edges or leaf flags), with their
    old charges out and their new ones in; with no base, the charges of
    `vertices` alone."""
    old = base.view if base else None
    load, tally = (dict(base.load), [base.crowded, base.heavy]) if base else ({}, [0, 0])
    for u in vertices:
        if old is not None and u in old.parent:
            _count(load, tally, family.charge(u, old.parent[u], u in old.leaves), -1)
        if u in view.parent:
            _count(load, tally, family.charge(u, view.parent[u], u in view.leaves), 1)
    return ChargeMap(view, family, load, *tally)


def compute_charges(state: RoutingState, family: DualFamily) -> ChargeMap:
    """Charge every tree vertex's parent edge to its cut.

    Inserts first, in order, what `state.revealed` holds past
    `family.inserted`; the family must then hold `revealed` as a set.  Reads
    only the tree's shape, each charge a memo lookup (`DualFamily.charge`).
    The family's first map is built in full.  Any later one is its last
    map, patched at the vertices whose parent edge or leaf flag differs
    between the two views, whichever states they belong to.
    """
    for v in state.revealed[len(family.inserted):]:
        family.insert(v)
    # as sets; both sides are free of duplicates.  A family that matched this
    # same tuple and has as many vertices still does, as it only grows.
    if len(family.inserted) != len(state.revealed) or (
            family._synced is not state.revealed and not family._seen.issuperset(state.revealed)):
        raise EngineInvariantError("dual family out of sync with revealed vertices")
    family._synced = state.revealed
    view, last = state.view, family.last_charges
    if last is None:  # a full build, over every non-root vertex
        family.last_charges = _charge(family, view, view.order[1:])
    elif last.view is not view:  # a patch where the parent edges or leaf flags differ
        old = last.view
        changed = {x for x, _ in view.parent.items() ^ old.parent.items()}
        family.last_charges = _charge(family, view, changed | (view.leaves ^ old.leaves), last)
    return family.last_charges


BALANCED_EQUILIBRIUM, BALANCED, LEAF_UNBALANCED, NONLEAF_UNBALANCED = range(4)
CLASS_NAMES = (
    "balanced-equilibrium",
    "balanced",
    "leaf-unbalanced",
    "nonleaf-unbalanced",
)


@dataclass(frozen=True)
class StateClass:
    """Tightest of the four nested charge-structure classes a state fits.

    rank 0: every cut charged at most once and no improving move exists.
    rank 1: every cut charged at most once; `improving` is the first
            improving pair in (u, v) id order if the scan ran.
    rank 2: every cut has at most one non-leaf charger (leaves unlimited).
    rank 3: exactly one cut has two non-leaf chargers, one of whom made the
            most recent move; all other cuts as in rank 2.
    Anything looser raises ClosureViolationError.
    """

    rank: int
    charges: ChargeMap
    heavy_cut: Optional[tuple] = None
    heavy_chargers: Optional[tuple] = None  # (last mover, the other one)
    improving: Optional[tuple] = None

    @property
    def name(self) -> str:
        return CLASS_NAMES[self.rank]


def classify(state: RoutingState, family: DualFamily, *,
             decide_equilibrium: bool = True) -> StateClass:
    """Rank the state on the balanced/unbalanced ladder.

    `decide_equilibrium=False` skips the quadratic improving-move scan that
    separates the bottom two rungs and reports every state whose cuts are
    each charged at most once as merely "balanced"; useful when only the
    upper bounds matter.
    """
    charges = compute_charges(state, family)
    if not charges.heavy:
        if charges.crowded:
            return StateClass(LEAF_UNBALANCED, charges)
        if not decide_equilibrium:
            return StateClass(BALANCED, charges)
        pair = find_improving_tree_move(state)
        if pair is None:
            return StateClass(BALANCED_EQUILIBRIUM, charges)
        return StateClass(BALANCED, charges, improving=pair)

    crowded = {cut: [r.vertex for r in recs if not r.leaf]  # the heavy cuts
               for cut, recs in charges.by_cut.items() if charges.load[cut][1] >= 2}
    if len(crowded) > 1:
        raise ClosureViolationError(
            "multiple cuts with two or more non-leaf chargers",
            details={"cuts": {str(k): v for k, v in crowded.items()}},
        )
    (cut, nonleaf), = crowded.items()
    if len(nonleaf) > 2:
        raise ClosureViolationError(
            f"cut {cut} has {len(nonleaf)} non-leaf chargers",
            details={"cut": str(cut), "chargers": nonleaf},
        )
    if state.last_mover not in nonleaf:
        raise ClosureViolationError(
            f"neither non-leaf charger of cut {cut} made the last move",
            details={"cut": str(cut), "chargers": nonleaf,
                     "last_mover": state.last_mover},
        )
    other = nonleaf[0] if nonleaf[1] == state.last_mover else nonleaf[1]
    return StateClass(
        NONLEAF_UNBALANCED, charges,
        heavy_cut=cut, heavy_chargers=(state.last_mover, other),
    )


# ---------------------------------------------------------------------------
# accounting


@dataclass(frozen=True)
class LevelRow:
    level: int
    charges: int
    charged_cost: Fraction
    components: int
    dual_bound: Fraction


@dataclass(frozen=True)
class AccountingReport:
    n: int
    total_cost: Fraction
    opt_cost: Fraction
    ratio: Fraction
    gate: float  # 32 * (log2 n + 1)
    certified: bool
    max_edge: Fraction
    ignored_cost: Fraction
    ignored_count: int
    rows: tuple
    levels_charged: int
    level_budget: int  # floor(log2 n) + 2


def logn_accounting(state: RoutingState, family: DualFamily,
                    opt=None) -> AccountingReport:
    """Certify the routing tree's cost against the dual family.

    `opt` is the spanning-tree optimum to compare against; when omitted it
    is the MST over all revealed vertices.  Requires every cut to carry at
    most one above-threshold charge (raises VerificationError otherwise;
    classify() is the diagnostic for *why*).  Edges of cost <= D/n (D = max
    tree-edge cost, n = revealed count) are set aside — they sum to at most
    D, which any spanning tree already pays.  Each charged level then
    certifies charged_cost <= 32 * its dual bound, and at most
    floor(log2 n) + 2 levels are charged at all; both facts follow
    unconditionally from the at-most-once premise, so their failure raises
    EngineInvariantError.  The reported `certified` flag is the measured
    gate, total/opt <= 32 * (log2 n + 1), decided exactly (`within_log_gate`);
    `ratio` and `gate` are reported as they are, `gate` a float.
    """
    n = len(state.revealed)
    if not state.usage:
        zero = Fraction(0)
        return AccountingReport(n, zero, zero, zero, 32.0 * (math.log2(max(n, 2)) + 1),
                                True, zero, zero, 0, (), 0, 0)

    charges = compute_charges(state, family)
    den = state.instance.denominator
    total = solution_cost(state)
    max_edge = max(rec.costi for rec in charges.records)  # over den, as all sums here
    threshold = Fraction(max_edge, den * n)

    counted_by_cut: dict = {}
    ignored_cost, ignored_count = 0, 0
    per_level: dict = {}
    for rec in charges.records:
        if rec.costi * n <= max_edge:  # rec.cost <= threshold
            ignored_cost += rec.costi
            ignored_count += 1
            continue
        if rec.cut in counted_by_cut:
            raise VerificationError(
                f"cut {rec.cut} is charged more than once "
                f"(by {counted_by_cut[rec.cut]} and {rec.vertex}); "
                "the logarithmic accounting only covers balanced states"
            )
        counted_by_cut[rec.cut] = rec.vertex
        cnt, csum = per_level.get(rec.level, (0, 0))
        per_level[rec.level] = (cnt + 1, csum + rec.costi)

    rows = []
    for j in sorted(per_level):
        cnt, csum = per_level[j][0], Fraction(per_level[j][1], den)
        comps = family.num_components(j)
        if comps < 2:
            raise EngineInvariantError(
                f"level {j} received charges but has a single component"
            )
        bound = dual_lower_bound(family, j)
        if csum > 32 * bound:
            raise EngineInvariantError(
                f"level {j} charges {format_rational(csum)} exceed 32x its dual "
                f"bound {format_rational(bound)}"
            )
        rows.append(LevelRow(j, cnt, csum, comps, bound))

    level_budget = (n.bit_length() - 1) + 2
    if len(rows) > level_budget:
        raise EngineInvariantError(
            f"{len(rows)} levels charged; at most {level_budget} are possible "
            f"after ignoring edges below {format_rational(threshold)}"
        )

    if opt is None:
        opt = mst_cost(state.instance, state.revealed)
    else:
        opt = Fraction(opt)
    if opt <= 0:
        raise EngineInvariantError("revealed vertices span no positive-cost tree")
    ratio = total / opt
    gate = 32.0 * (math.log2(n) + 1.0)
    return AccountingReport(
        n=n, total_cost=total, opt_cost=opt, ratio=ratio, gate=gate,
        certified=within_log_gate(ratio, n), max_edge=Fraction(max_edge, den),
        ignored_cost=Fraction(ignored_cost, den), ignored_count=ignored_count,
        rows=tuple(rows), levels_charged=len(rows), level_budget=level_budget,
    )
