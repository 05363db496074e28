"""Arrival/departure schedules and the dynamics that run them.

One event loop runs a schedule under either of two rerouting policies.  Each
event first reveals its vertices and routes its arrivals or prunes its
departures; what follows the event is the policy:

- eq-p (`run_eqp`): prioritized tree-follow moves fire until the state is a
  balanced equilibrium again.  Along the way the engine asserts the
  class-transition contract of each move rule (see `select_tree_move`) and
  that the exact potential strictly drops on every move.
- one-shot (`run_noneqp`): agents best-respond once on arrival and never
  reroute.  The record only notes how far the state strays from the class
  hierarchy.

Both log one `EpochRecord` per event, and the final state is (optionally)
verified to be an equilibrium.

Events may arrive in batches; an arrival item can carry an expected path,
and the engine raises the moment a best response deviates from it, so
scripted schedules double as executable proofs of where agents route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional

from .duals import (
    BALANCED,
    BALANCED_EQUILIBRIUM,
    CLASS_NAMES,
    LEAF_UNBALANCED,
    NONLEAF_UNBALANCED,
    AccountingReport,
    DualFamily,
    StateClass,
    classify,
    compute_charges,
    logn_accounting,
)
from .errors import (
    ClosureViolationError,
    ConfigError,
    EngineInvariantError,
    VerificationError,
)
from .metric import ROOT, MetricInstance, _int, _ints
from .rationals import format_rational, pow2_le
from .routing import (
    EquilibriumVerdict,
    RoutingState,
    add_terminal,
    arrival_screen,
    best_response,
    closest_improving_target,
    graft_path,
    initial_state,
    is_legal_improving,
    potential,
    prune_departures,
    solution_cost,
    tree_follow_move,
    verify_equilibrium,
    with_revealed,
)

MOVE_CEILING_FACTOR = 10  # moves allowed per epoch: factor * revealed^3
BATCH_ORDERS = ("sequential", "snapshot")  # what a multi-item arrival is routed against


# ---------------------------------------------------------------------------
# schedule vocabulary


@dataclass(frozen=True)
class ArrivalItem:
    """`count` agents appear at `vertex`; optionally pin the path they must pick."""

    vertex: int
    count: int = 1
    expect_path: Optional[tuple] = None


@dataclass(frozen=True)
class ArrivalEvent:
    items: tuple
    reveal: tuple = ()  # extra vertices revealed by this event, before the items

    def vertices(self) -> tuple:
        return tuple(it.vertex for it in self.items)


@dataclass(frozen=True)
class DepartureEvent:
    vertices: tuple


def check_schedule(instance: MetricInstance, events) -> None:
    """Static validation of a schedule against an instance (ConfigError)."""
    for i, ev in enumerate(events):
        if isinstance(ev, ArrivalEvent):
            if not ev.items:
                raise ConfigError(f"event {i}: arrival with no items")
            for it in ev.items:
                if not 0 <= it.vertex < instance.n:
                    raise ConfigError(f"event {i}: vertex {it.vertex} out of range")
                if it.vertex == ROOT:
                    raise ConfigError(f"event {i}: the root hosts no agents")
                if it.count < 1:
                    raise ConfigError(f"event {i}: count {it.count} below 1")
                if it.expect_path is not None:
                    p = it.expect_path
                    if (not p or p[0] != it.vertex or p[-1] != ROOT
                            or len(set(p)) != len(p)
                            or any(not 0 <= v < instance.n for v in p)):
                        raise ConfigError(
                            f"event {i}: expected path {p} is not a simple "
                            f"{it.vertex}->root vertex sequence"
                        )
            for v in ev.reveal:
                if not 0 <= v < instance.n:
                    raise ConfigError(f"event {i}: revealed vertex {v} out of range")
        elif isinstance(ev, DepartureEvent):
            if not ev.vertices:
                raise ConfigError(f"event {i}: departure with no vertices")
            for v in ev.vertices:
                if not 0 <= v < instance.n or v == ROOT:
                    raise ConfigError(f"event {i}: cannot depart vertex {v}")
        else:
            raise ConfigError(f"event {i}: unknown event object {ev!r}")


def schedule_to_jsonable(events) -> dict:
    rows = []
    for ev in events:
        if isinstance(ev, ArrivalEvent):
            row = {"type": "arrive", "items": []}
            for it in ev.items:
                item = {"vertex": it.vertex, "count": it.count}
                if it.expect_path is not None:
                    item["expect_path"] = list(it.expect_path)
                row["items"].append(item)
            if ev.reveal:
                row["reveal"] = list(ev.reveal)
        else:
            row = {"type": "depart", "vertices": list(ev.vertices)}
        rows.append(row)
    return {"events": rows}


def schedule_from_jsonable(data) -> tuple:
    if not isinstance(data, dict) or not isinstance(data.get("events"), list):
        raise ConfigError("schedule must be an object with an 'events' list")
    events = []
    for i, row in enumerate(data["events"]):
        if not isinstance(row, dict):
            raise ConfigError(f"event {i} must be an object")
        kind = row.get("type")
        if kind == "arrive":
            items_raw = row.get("items")
            if not isinstance(items_raw, list) or not items_raw:
                raise ConfigError(f"event {i}: 'items' must be a non-empty list")
            items = []
            for item in items_raw:
                if not isinstance(item, dict):
                    raise ConfigError(f"event {i}: items must be objects")
                vertex = _int(item.get("vertex"), f"event {i} item vertex")
                count = _int(item.get("count", 1), f"event {i} item count")
                expect = item.get("expect_path")
                if expect is not None:
                    expect = tuple(_ints(expect, f"event {i} expect_path"))
                items.append(ArrivalItem(vertex, count, expect))
            reveal = tuple(_ints(row.get("reveal", []), f"event {i} reveal"))
            events.append(ArrivalEvent(tuple(items), reveal))
        elif kind == "depart":
            vertices = tuple(_ints(row.get("vertices"), f"event {i} departing vertices"))
            if not vertices:
                raise ConfigError(f"event {i}: 'vertices' must be a non-empty list")
            events.append(DepartureEvent(vertices))
        else:
            raise ConfigError(f"event {i}: unknown type {kind!r}")
    return tuple(events)


# ---------------------------------------------------------------------------
# move selection


@dataclass(frozen=True)
class SelectedMove:
    mover: int
    target: int
    tag: str  # "balanced" | "lu-a" | "lu-b" | "lu-c" | "lu-d" | "nlu"
    before: StateClass
    context_cut: Optional[tuple] = None  # lu-c: the shared cut; nlu: the old S*


def select_tree_move(state, family, *, cls=None) -> Optional[SelectedMove]:
    """Pick the next tree-follow move by the class-driven priority rules.

    balanced: the smallest-id vertex with an improving move, the u of
      `cls.improving`, goes to its closest improving target.
    leaf-unbalanced, tried in order:
      (a) smallest leaf with an improving move to a non-leaf goes to the
          closest such target;
      (b) smallest non-leaf with an improving move to a non-leaf, closest
          such target;
      (c) first cut (by level, then component) charged by both a non-leaf u
          and a leaf v: u moves to v (one of the two directions must improve,
          and (a) already ruled out v's);
      (d) otherwise any improving move - necessarily leaf-to-leaf.
    non-leaf-unbalanced: of the two non-leaf chargers of the special cut,
      the last mover goes if its move to the other one improves, else the
      other one goes; either way to its closest improving target.

    Within each rule, "smallest id" and then "closest target (ties by id)"
    make the choice deterministic.  The id-order walks visit only the
    vertices whose row of `state.screen` keeps a target: any other vertex
    has no improving move.  Returns None only on balanced equilibria.  A
    rule whose backing claim fails raises ClosureViolationError with the
    evidence.
    """
    cls = cls or classify(state, family)
    if cls.rank == BALANCED_EQUILIBRIUM:
        return None
    if cls.rank == BALANCED:
        if cls.improving is None:
            raise EngineInvariantError(
                "classified as having an improving move, but none was found")
        u = cls.improving[0]
        return SelectedMove(u, closest_improving_target(state, u), "balanced", cls)

    view = state.view
    costi, den = state.instance.costi, state.instance.denominator

    def within(u, v, j):  # c(u, v) < 2^j, exactly
        return not pow2_le(j, int(costi[u, v]), den)

    # the vertices whose screen row keeps a target, in id order; row 0 is the root
    movers = [view.order[i] for i in (state.screen[0][1:].any(axis=1).nonzero()[0] + 1).tolist()]

    if cls.rank == LEAF_UNBALANCED:
        non_leaves = frozenset(v for v in view.order if v not in view.leaves)
        for tag, leaf in (("lu-a", True), ("lu-b", False)):  # leaves first
            for u in [u for u in movers if (u in view.leaves) == leaf]:
                if (tgt := closest_improving_target(state, u, allowed=non_leaves)) is not None:
                    return SelectedMove(u, tgt, tag, cls)
        for cut in sorted(cls.charges.by_cut):
            recs = cls.charges.by_cut[cut]
            chargers_nl = [r.vertex for r in recs if not r.leaf]
            chargers_lf = sorted(r.vertex for r in recs if r.leaf)
            if not chargers_nl or not chargers_lf:
                continue
            if len(chargers_nl) > 1:
                raise EngineInvariantError(
                    f"leaf-unbalanced state has {len(chargers_nl)} non-leaf "
                    f"chargers at cut {cut}")
            u = chargers_nl[0]
            for v in chargers_lf:
                if is_legal_improving(state, u, v):
                    if not within(u, v, cut[0]):
                        raise EngineInvariantError(
                            f"co-members {u},{v} of a level-{cut[0]} component "
                            f"are {format_rational(state.instance.cost(u, v))} apart")
                    return SelectedMove(u, v, "lu-c", cls, context_cut=cut)
            raise ClosureViolationError(
                f"cut {cut} is charged by non-leaf {u} and leaves "
                f"{chargers_lf}, but no move between them improves",
                details={"cut": str(cut), "non_leaf": u, "leaves": chargers_lf},
            )
        for u in movers:
            tgt = closest_improving_target(state, u)
            if tgt is not None:
                if u not in view.leaves or tgt not in view.leaves:
                    raise ClosureViolationError(
                        f"fallback move {u}->{tgt} should be leaf-to-leaf "
                        "after the three leaf-unbalanced rules are exhausted",
                        details={"mover": u, "target": tgt},
                    )
                return SelectedMove(u, tgt, "lu-d", cls)
        raise ClosureViolationError(
            "unbalanced state admits no improving tree move at all",
            details={"cuts": {str(k): [r.vertex for r in v]
                              for k, v in cls.charges.by_cut.items()
                              if len(v) > 1}},
        )

    # non-leaf-unbalanced
    c1, c2 = cls.heavy_chargers  # (last mover, the other charger)
    if is_legal_improving(state, c1, c2):
        mover, other = c1, c2
    elif is_legal_improving(state, c2, c1):
        mover, other = c2, c1
    else:
        raise ClosureViolationError(
            f"neither charger of the special cut {cls.heavy_cut} has an "
            f"improving move to the other ({c1} <-> {c2})",
            details={"cut": str(cls.heavy_cut), "chargers": [c1, c2]},
        )
    tgt = closest_improving_target(state, mover)
    if tgt is None:
        raise EngineInvariantError(
            f"{mover} improves toward {other} yet has no closest target")
    if not within(mover, tgt, cls.heavy_cut[0]):
        raise EngineInvariantError(
            f"closest target {tgt} of {mover} is farther than the special "
            f"cut's diameter bound 2^{cls.heavy_cut[0]}")
    return SelectedMove(mover, tgt, "nlu", cls, context_cut=cls.heavy_cut)


# ---------------------------------------------------------------------------
# applying moves, with the class-transition contract


@dataclass(frozen=True)
class MoveRecord:
    index: int  # position within the epoch, 0-based
    mover: int
    target: int
    tag: str
    move_cost: Fraction
    pre_rank: int
    post_rank: int
    phi_pre: Fraction
    phi_post: Fraction
    mover_new_cut: tuple
    pre_heavy_cut: Optional[tuple]
    post_heavy_cut: Optional[tuple]
    context_cut: Optional[tuple]
    mover_was_leaf: bool
    target_was_leaf: bool


def _assert_move_contract(sel: SelectedMove, post: StateClass, new_cut) -> None:
    """Each rule promises where the move may land; breaches raise loudly."""
    tag = sel.tag
    if tag in ("lu-a", "lu-d"):
        if post.rank > LEAF_UNBALANCED:
            raise ClosureViolationError(
                f"a {tag} move left a {post.name} state",
                details={"tag": tag, "mover": sel.mover, "target": sel.target},
            )
        return
    if post.rank != NONLEAF_UNBALANCED:
        return
    if tag in ("balanced", "lu-b"):
        # only the mover's fresh charge can have crowded a cut
        if post.heavy_cut != new_cut:
            raise ClosureViolationError(
                f"a {tag} move crowded cut {post.heavy_cut}, not the mover's "
                f"new cut {new_cut}",
                details={"tag": tag, "heavy": str(post.heavy_cut),
                         "mover_cut": str(new_cut)},
            )
    elif tag in ("lu-c", "nlu"):
        if post.heavy_cut == sel.context_cut:
            raise ClosureViolationError(
                f"a {tag} move left its own context cut {sel.context_cut} "
                "crowded",
                details={"tag": tag, "cut": str(sel.context_cut)},
            )


def _apply_move(state, family, sel, phi, index):
    move_cost = state.instance.cost(sel.mover, sel.target)
    new_state = tree_follow_move(state, sel.mover, sel.target)
    new_phi = potential(new_state)
    if not new_phi < phi:
        raise EngineInvariantError(
            f"move {sel.mover}->{sel.target} did not lower the potential "
            f"({format_rational(phi)} -> {format_rational(new_phi)})")
    post = classify(new_state, family)
    mover_was_leaf = sel.mover in state.view.leaves  # the subtree moves along
    new_cut = family.charge(sel.mover, sel.target, mover_was_leaf).cut
    _assert_move_contract(sel, post, new_cut)
    record = MoveRecord(
        index=index, mover=sel.mover, target=sel.target, tag=sel.tag,
        move_cost=move_cost, pre_rank=sel.before.rank, post_rank=post.rank,
        phi_pre=phi, phi_post=new_phi, mover_new_cut=new_cut,
        pre_heavy_cut=sel.before.heavy_cut, post_heavy_cut=post.heavy_cut,
        context_cut=sel.context_cut,
        mover_was_leaf=mover_was_leaf,
        target_was_leaf=sel.target in state.view.leaves,
    )
    return new_state, post, new_phi, record


# ---------------------------------------------------------------------------
# the event loop and its two rerouting policies


@dataclass(frozen=True)
class EpochRecord:
    """One event and what followed it; `moves` stays empty under one-shot."""

    index: int
    kind: str  # "arrive" | "depart"
    post_class: str  # class name; one-shot may say "non-tree" / "beyond-nonleaf-unbalanced"
    moves: tuple
    phi: Fraction
    cost: Fraction
    agents: int


@dataclass(frozen=True)
class RunResult:
    state: RoutingState
    family: DualFamily
    epochs: tuple
    verdict: Optional[EquilibriumVerdict]
    accounting: Optional[AccountingReport]


def _arrival_path(state, item, *, adopt_tree_paths, into_equilibrium=False):
    v = item.vertex
    if adopt_tree_paths and v in state.view:  # an active v's own path, too
        path = state.view.path_to_root(v)
    elif into_equilibrium:
        path = graft_path(state, v)
    else:
        path = best_response(state, v).path
        if adopt_tree_paths:
            # into an equilibrium, a new terminal grafts by one fresh edge
            w = path[1]
            if w not in state.view or path[1:] != state.view.path_to_root(w):
                raise EngineInvariantError(
                    f"arrival at {v} routed {path} instead of attaching to "
                    "the tree by a single fresh edge")
    if item.expect_path is not None and tuple(item.expect_path) != tuple(path):
        raise EngineInvariantError(
            f"scheduled arrival at {v} expected path {item.expect_path}, "
            f"but the engine chose {path}")
    return path


def _apply_arrival(state, family, event, *, batch_order, adopt_tree_paths):
    """Route the event's items in turn, each against the event's base state
    (the snapshot order) or the state the items before it left (sequential).

    Under adopt_tree_paths the base state is an equilibrium: items routed
    against it graft onto the tree, and each state between two items gets
    its charge map (`compute_charges`).
    """
    if batch_order not in BATCH_ORDERS:
        raise ConfigError(f"unknown batch order {batch_order!r}")
    base = state
    for i, it in enumerate(event.items):
        if i and adopt_tree_paths:  # so the next map is patched from it
            compute_charges(state, family)
        against = base if batch_order == "snapshot" else state
        path = _arrival_path(against, it, adopt_tree_paths=adopt_tree_paths,
                             into_equilibrium=adopt_tree_paths and against is base)
        state = add_terminal(state, it.vertex, it.count, path)
    return state


def _apply_event(state, family, event, *, batch_order, adopt_tree_paths):
    """The step both policies share; returns (kind, state after the event)."""
    if isinstance(event, ArrivalEvent):
        state = with_revealed(state, tuple(event.reveal) + event.vertices())
        return "arrive", _apply_arrival(state, family, event, batch_order=batch_order,
                                        adopt_tree_paths=adopt_tree_paths)
    if isinstance(event, DepartureEvent):
        missing = [v for v in event.vertices if not state.is_active(v)]
        if missing:
            raise ConfigError(f"departure of vertices with no agents: {missing}")
        return "depart", prune_departures(state, event.vertices)
    raise EngineInvariantError(f"unknown event object {event!r}")


def run_epoch_eqp(state, family, event, *, epoch_index=0,
                  batch_order="sequential", on_move=None):
    """One event, then prioritized moves until balanced equilibrium again.

    `state` must be a balanced equilibrium (as every epoch leaves it): an
    arrival into it grafts onto the tree by one edge without a search, and
    a single arrival's state is screened by its delta (`arrival_screen`).
    """
    before = state  # the caller holds it, so naming it keeps nothing alive
    kind, state = _apply_event(before, family, event, batch_order=batch_order,
                               adopt_tree_paths=True)
    # no superseded state's screen is read again: one screen lives at a time
    vars(before).pop("screen", None)
    if kind == "arrive" and len(event.items) == 1:  # screened by the event's delta
        vars(state)["screen"] = arrival_screen(state, state.paths[event.items[0].vertex])
    allowed_rank = LEAF_UNBALANCED if kind == "arrive" else BALANCED
    cls = classify(state, family)
    if cls.rank > allowed_rank:
        raise ClosureViolationError(
            f"state is {cls.name} immediately after a {kind} event "
            f"(allowed: {CLASS_NAMES[allowed_rank]} or tighter)",
            details={"epoch": epoch_index, "kind": kind, "rank": cls.rank},
        )

    post_class = cls.name
    phi = potential(state)
    ceiling = MOVE_CEILING_FACTOR * len(state.revealed) ** 3
    moves = []
    while cls.rank != BALANCED_EQUILIBRIUM:
        sel = select_tree_move(state, family, cls=cls)
        vars(state).pop("screen", None)
        state, cls, phi, record = _apply_move(state, family, sel, phi, len(moves))
        moves.append(record)
        if on_move is not None:
            on_move(epoch_index, record)
        if len(moves) > ceiling:
            raise EngineInvariantError(
                f"epoch {epoch_index} exceeded the move ceiling {ceiling}")
    return state, EpochRecord(epoch_index, kind, post_class, tuple(moves), phi,
                              solution_cost(state), sum(state.counts.values()))


def _class_marker(state, family) -> str:
    # Skips the equilibrium scan: per-event markers only need the upper
    # rungs, and the scan would make long schedules quadratic per event.
    try:
        return classify(state, family, decide_equilibrium=False).name
    except ClosureViolationError:
        return "beyond-nonleaf-unbalanced"
    except EngineInvariantError:
        return "non-tree"


def _oneshot_epoch(state, family, event, *, epoch_index, batch_order):
    """One event and nothing after it: the one-shot policy never reroutes."""
    kind, state = _apply_event(state, family, event, batch_order=batch_order,
                               adopt_tree_paths=False)
    return state, EpochRecord(epoch_index, kind, _class_marker(state, family), (),
                              potential(state), solution_cost(state),
                              sum(state.counts.values()))


def _run(instance, events, epoch, *, verify, accounting=False,
         on_epoch=None) -> RunResult:
    """The event loop: `epoch(state, family, event, epoch_index=i)` runs one event."""
    check_schedule(instance, events)
    state = initial_state(instance)
    family = DualFamily(instance)
    records = []
    for i, ev in enumerate(events):
        state, rec = epoch(state, family, ev, epoch_index=i)
        records.append(rec)
        if on_epoch is not None:
            on_epoch(rec)
    verdict = verify_equilibrium(state) if verify else None
    if verdict is not None and not verdict.ok:
        raise VerificationError(
            f"final state is not an equilibrium: {verdict.witness}")
    report = logn_accounting(state, family) if accounting else None
    return RunResult(state, family, tuple(records), verdict, report)


def run_eqp(instance, events, *, batch_order="sequential", on_move=None,
            verify=True, accounting=True) -> RunResult:
    """Run a whole schedule under equilibrium-preserving dynamics."""
    epoch = partial(run_epoch_eqp, batch_order=batch_order, on_move=on_move)
    return _run(instance, events, epoch, verify=verify, accounting=accounting)


def run_noneqp(instance, events, *, batch_order="sequential", verify=True,
               on_event=None) -> RunResult:
    """Run a schedule where nobody ever reroutes after arriving.

    Arrivals always compute a full best response (an arrival at an occupied
    vertex must agree with the incumbents' path; anything else is a modeling
    error and raises).  With verify=True the final state must pass the full
    equilibrium sweep, else VerificationError.
    """
    return _run(instance, events, partial(_oneshot_epoch, batch_order=batch_order),
                verify=verify, on_epoch=on_event)
