"""Instance generators and canned fixtures.

Four families live here:

* ``build_gm`` / ``build_sigma`` — the layered worst-case family whose
  adversarial arrival/departure schedule drives a one-shot (never-reroute)
  run to cost ``m^2 (m+1)`` against a spanning optimum of at most ``3 m^2``.
* ``build_poa_fixture`` — a three-vertex metric with a precomputed bad
  equilibrium whose cost is exactly ``n`` times the optimum.  Two parallel
  routes cannot exist in a metric, so the expensive route is realized as a
  detour through an auxiliary midpoint ``w`` with ``c(u,w) = c(w,r) = n/2``:
  the direct edge ``(u,r)`` costs 1, the detour ``u-w-r`` costs ``n``, and
  the triangle inequality holds with slack.
* ``build_steiner_gap_fixture`` — a subdivided chain plus a unit shortcut.
  Waves of terminals prime the chain, then depart, leaving the survivors
  routing through pure relay vertices at total cost ``n`` while the MST of
  the surviving terminals alone is 1.
* ``build_random_euclidean`` — seeded random points on the rational grid
  with an arrival/departure churn schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .dynamics import ArrivalEvent, ArrivalItem, DepartureEvent
from .errors import ConfigError
from .metric import (
    EUCLIDEAN_GRID,
    ROOT,
    MetricInstance,
    euclidean_instance,
    explicit_metric,
    metric_closure,
)
from .routing import RoutingState, add_terminal, initial_state, with_revealed

__all__ = [
    "GmFamily",
    "PoaFixture",
    "SteinerGapFixture",
    "EuclideanRun",
    "gm_vertex_id",
    "gm_vertex_label",
    "build_gm",
    "build_sigma",
    "build_poa_fixture",
    "build_steiner_gap_fixture",
    "build_random_euclidean",
    "EUCLIDEAN_PROFILES",
]


# ---------------------------------------------------------------------------
# the layered lower-bound family


def gm_vertex_id(m: int, layer: int, j: int, k: int) -> int:
    """Dense id of the layer-``layer`` vertex with cluster label (j, k).

    The root is 0; layer ``i`` (0 <= i <= m) occupies ids
    ``1 + i*m^2 .. (i+1)*m^2`` with (j, k) in row-major order (j, k in 1..m).
    """
    if not (0 <= layer <= m and 1 <= j <= m and 1 <= k <= m):
        raise ConfigError(f"label (layer={layer}, j={j}, k={k}) out of range for m={m}")
    return 1 + layer * m * m + (j - 1) * m + (k - 1)


def gm_vertex_label(m: int, vid: int):
    """Inverse of gm_vertex_id; the root has no label."""
    if vid <= 0 or vid > m * m * (m + 1):
        raise ConfigError(f"vertex {vid} is not a labeled vertex for m={m}")
    r, off = divmod(vid - 1, m * m)
    return r, off // m + 1, off % m + 1


@dataclass(frozen=True)
class GmFamily:
    """The m-th layered instance plus its canonical-path table.

    `instance` is the shortest-path closure of `graph_edges`; searches see
    the complete metric, but every canonical path walks actual graph edges.
    `canonical_paths[(j, k)]` runs from the layer-m vertex down to the root,
    and the canonical paths partition the unit-cost edges (each appears in
    exactly one path) as well as the non-root vertices.
    """

    m: int
    n: int
    instance: MetricInstance
    graph_edges: tuple
    canonical_paths: dict
    final_cost: Fraction  # cost of the union of all canonical paths
    mst_upper: Fraction   # 3 m^2, a hand bound on the all-vertex MST


def _gm_path_label(m: int, layer: int, j: int, k: int):
    # Labels alternate down from the top: (j, k) at layer m, swapped every
    # layer below, and layer 0 repeats layer 1 (the hop to layer 0 is the
    # one inter-layer edge that does not swap).
    if layer == 0:
        return _gm_path_label(m, 1, j, k)
    return (j, k) if (m - layer) % 2 == 0 else (k, j)


def build_gm(m: int) -> GmFamily:
    """Layered graph on ``m^2 (m+1) + 1`` vertices, metric via closure.

    Unit edges: root to every layer-0 vertex, (v0_jk, v1_jk) straight up,
    and label-swapping hops (v^i_jk, v^{i+1}_kj) for 1 <= i < m.  Each layer
    1..m splits into m cliques of m vertices (fixed first index) with edge
    cost 1/m.
    """
    if not isinstance(m, int) or m < 1:
        raise ConfigError(f"m must be a positive integer, got {m!r}")
    n = m * m * (m + 1) + 1
    one = Fraction(1)
    intra = Fraction(1, m)
    edges = []

    for j in range(1, m + 1):
        for k in range(1, m + 1):
            edges.append((ROOT, gm_vertex_id(m, 0, j, k), one))
            edges.append((gm_vertex_id(m, 0, j, k), gm_vertex_id(m, 1, j, k), one))
            for i in range(1, m):
                edges.append((gm_vertex_id(m, i, j, k),
                              gm_vertex_id(m, i + 1, k, j), one))

    for layer in range(1, m + 1):
        for j in range(1, m + 1):
            cluster = [gm_vertex_id(m, layer, j, k) for k in range(1, m + 1)]
            for a in range(m):
                for b in range(a + 1, m):
                    edges.append((cluster[a], cluster[b], intra))

    paths = {}
    for j in range(1, m + 1):
        for k in range(1, m + 1):
            seq = []
            for layer in range(m, -1, -1):
                a, b = _gm_path_label(m, layer, j, k)
                seq.append(gm_vertex_id(m, layer, a, b))
            seq.append(ROOT)
            paths[(j, k)] = tuple(seq)

    return GmFamily(
        m=m, n=n,
        instance=metric_closure(n, edges),
        graph_edges=tuple(edges),
        canonical_paths=paths,
        final_cost=Fraction(m * m * (m + 1)),
        mst_upper=Fraction(3 * m * m),
    )


#: Largest m whose schedule is supported.  At m = 6 the pinned path of top
#: vertex 218 in phase 2 is not a best response (a cheaper path exists), so
#: the schedule for m >= 6 would stop the runner with an invariant breach.
GM_MAX_M = 5


def check_gm_m(m: int) -> None:
    """Raise ConfigError for m > GM_MAX_M; cheap, so callers check before
    `build_gm`, whose closure grows as (m^3)^2 in time and memory."""
    if m > GM_MAX_M:
        raise ConfigError(
            f"the layered schedule supports m <= {GM_MAX_M}, got m={m}: beyond "
            "that its pinned paths are not all best responses")


def build_sigma(gm: GmFamily) -> tuple:
    """The adversarial schedule for a GmFamily (m <= GM_MAX_M).

    m phases, each sweeping all (j, k) rounds in lexicographic order.  One
    round floods the canonical path bottom-up — m^2 co-located agents at
    each of v^0 .. v^{m-1}, one agent at the top — then clears everything
    below the top in a single departure.  Every arrival pins its expected
    best response (the canonical-path suffix); the runner raises if the
    search ever disagrees.  Raises ConfigError for m > GM_MAX_M.
    """
    m = gm.m
    check_gm_m(m)
    events = []
    for _phase in range(m):
        for j in range(1, m + 1):
            for k in range(1, m + 1):
                path = gm.canonical_paths[(j, k)]  # v^m, ..., v^0, root
                for i in range(m):
                    v = path[m - i]
                    events.append(ArrivalEvent(items=(
                        ArrivalItem(v, m * m, expect_path=path[m - i:]),
                    )))
                events.append(ArrivalEvent(items=(
                    ArrivalItem(path[0], 1, expect_path=path),
                )))
                events.append(DepartureEvent(path[1:-1]))
    return tuple(events)


# ---------------------------------------------------------------------------
# price-of-anarchy fixture


@dataclass(frozen=True)
class PoaFixture:
    instance: MetricInstance
    bad_state: RoutingState   # verified equilibrium of cost n
    agents: int               # n + 1 co-located agents make the detour stable
    bad_cost: Fraction        # n
    opt_cost: Fraction        # 1 (the direct edge)
    ratio: Fraction           # bad_cost / opt_cost == n


def build_poa_fixture(n: int) -> PoaFixture:
    """Three vertices: root 0, terminal u=1 at distance 1, midpoint w=2.

    With n+1 agents at u all routed u-w-r, each pays n/(n+1) < 1, while the
    lone-deviator price of the direct edge is 1 — so the detour is a strict
    equilibrium of cost n against an optimum of 1.  (A single agent at u
    would *not* be in equilibrium; the crowd is what locks the bad route in.)
    """
    if not isinstance(n, int) or n < 2:
        raise ConfigError(f"ratio target must be an integer >= 2, got {n!r}")
    half = Fraction(n, 2)
    inst = explicit_metric(3, {(0, 1): Fraction(1), (0, 2): half, (1, 2): half})
    state = initial_state(inst)
    state = with_revealed(state, (1, 2))
    state = add_terminal(state, 1, n + 1, (1, 2, 0))
    return PoaFixture(
        instance=inst, bad_state=state, agents=n + 1,
        bad_cost=Fraction(n), opt_cost=Fraction(1), ratio=Fraction(n),
    )


# ---------------------------------------------------------------------------
# steiner-gap fixture: relay vertices left behind by departed terminals


@dataclass(frozen=True)
class SteinerGapFixture:
    instance: MetricInstance
    events: tuple
    n: int
    expected_cost: Fraction   # n: the primed chain survives the departures
    terminal_mst: Fraction    # 1: MST of the surviving terminals {root, u}
    revealed_mst: Fraction    # n: MST over everything ever revealed


def build_steiner_gap_fixture(n: int) -> SteinerGapFixture:
    """Chain of 2n half-cost edges from root to u, plus a unit shortcut.

    The schedule arrives n agents per interior vertex from the root side
    outward, then n agents at u, then departs every interior terminal at
    once.  Each wave strictly prefers one fresh half-edge over the shortcut,
    so u inherits the full chain; after the departures the chain vertices
    are pure relays and no tree-follow move improves (a jump from w_k to the
    root costs at least 1/2 against a saved share of k/(2n) < 1).  The same
    tree measures n against the survivors' MST of 1 and 1x against the MST
    of all revealed vertices.
    """
    if not isinstance(n, int) or n < 1:
        raise ConfigError(f"chain parameter must be a positive integer, got {n!r}")
    u = 2 * n
    half = Fraction(1, 2)
    edges = [(i, i + 1, half) for i in range(2 * n)]
    edges.append((ROOT, u, Fraction(1)))
    inst = metric_closure(2 * n + 1, edges)

    events = [ArrivalEvent(items=(ArrivalItem(w, n),)) for w in range(1, u)]
    events.append(ArrivalEvent(items=(ArrivalItem(u, n),)))
    events.append(DepartureEvent(tuple(range(1, u))))

    return SteinerGapFixture(
        instance=inst, events=tuple(events), n=n,
        expected_cost=Fraction(n),
        terminal_mst=Fraction(1),
        revealed_mst=Fraction(n),
    )


# ---------------------------------------------------------------------------
# seeded Euclidean churn


EUCLIDEAN_PROFILES = ("churn", "arrivals")

_CHURN_WAVES = 6


@dataclass(frozen=True)
class EuclideanRun:
    instance: MetricInstance
    events: tuple
    n: int
    seed: int


def _random_points(rng: random.Random, n: int):
    # Rational grid coordinates in the unit square; resample collisions so
    # the metric has no zero distances.
    pts = []
    seen = set()
    while len(pts) < n:
        p = (rng.randrange(EUCLIDEAN_GRID + 1), rng.randrange(EUCLIDEAN_GRID + 1))
        if p in seen:
            continue
        seen.add(p)
        pts.append((Fraction(p[0], EUCLIDEAN_GRID), Fraction(p[1], EUCLIDEAN_GRID)))
    return pts


def build_random_euclidean(n: int, seed: int, profile: str = "churn") -> EuclideanRun:
    """Random points with a deterministic arrival/departure schedule.

    "churn": half the vertices arrive up front (one event each), then
    _CHURN_WAVES rounds of [arrive ceil(n/10) inactive vertices, depart
    floor(active/20) active ones in a single event].  Departed vertices can
    come back in a later wave.  "arrivals": everything arrives once, no
    departures.  Same (n, seed, profile) always yields the same instance
    and schedule.
    """
    if not isinstance(n, int) or n < 2:
        raise ConfigError(f"need at least 2 vertices, got {n!r}")
    if profile not in EUCLIDEAN_PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; expected one of {EUCLIDEAN_PROFILES}")
    rng = random.Random(seed)
    inst = euclidean_instance(_random_points(rng, n))

    order = list(range(1, n))
    rng.shuffle(order)
    events = []

    def arrive(v):
        count = 2 if rng.random() < 0.2 else 1
        events.append(ArrivalEvent(items=(ArrivalItem(v, count),)))

    if profile == "arrivals":
        for v in order:
            arrive(v)
        return EuclideanRun(inst, tuple(events), n, seed)

    active = set()
    inactive = order[:]  # never-arrived plus departed, in rotation order
    head = -(-(n - 1) // 2)  # ceil((n-1)/2): the up-front wave
    for v in inactive[:head]:
        arrive(v)
        active.add(v)
    inactive = inactive[head:]

    wave = max(1, -(-n // 10))
    for _ in range(_CHURN_WAVES):
        for v in inactive[:wave]:
            arrive(v)
            active.add(v)
        inactive = inactive[wave:]
        gone = len(active) // 20
        if gone >= 1:
            leaving = rng.sample(sorted(active), gone)
            events.append(DepartureEvent(tuple(leaving)))
            active -= set(leaving)
            inactive.extend(leaving)
    return EuclideanRun(inst, tuple(events), n, seed)
