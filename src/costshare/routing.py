"""Routing states, shared costs, best responses, and tree-follow moves.

A `RoutingState` is a value: every operation returns a new state and never
mutates its input.  The state stores, for each active terminal vertex, how
many agents sit there and the single root-terminated path they all use, plus
the per-edge user counts implied by those paths.

Cost sharing is Shapley: an edge of cost c used by N agents costs c/N to each.
Best responses minimize (shared cost, number of fresh edges, vertex-id
sequence) lexicographically, where a fresh edge is one no *other* agent uses.

Each event is a list of segments (path, k): k more users (k < 0: fewer)
on every edge of a root path, an arrival's, a departing terminal's, or a
moving subtree's old and new one (the paper's exchange).  One step,
`_rerouted`, carries `state.view`, `state.table` and `state.totals` over
by them, so a run builds each in full only for the first state that reads
it (the table again after an event that drops an edge).  No function
takes a view as an argument, so a view can never be paired with the
wrong state.

Everything is exact, and no float feeds any comparison.  Costs are read
from the instance's integer matrix `costi` (c * D), never from Fractions,
and kept as plain ints over a common denominator or as fixed-point bounds
that fall back to exact sums where they cannot decide (`_Tree`).  A
Fraction is built only where a value leaves them, so the public API
returns Fractions throughout.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import EngineInvariantError
from .metric import ROOT, MetricInstance
from .rationals import format_rational, harmonic

Edge = tuple[int, int]
Path = tuple[int, ...]


def edge_key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def path_edges(path):
    return [edge_key(a, b) for a, b in zip(path, path[1:])]


@dataclass(frozen=True)
class RoutingState:
    """Immutable snapshot of who routes where.

    counts: active terminal vertex -> number of co-located agents (> 0)
    paths:  active terminal vertex -> its path to the root (shared by all its
            agents), a tuple starting at the terminal and ending at 0
    usage:  undirected edge -> total agents whose path uses it (> 0 entries only)
    revealed: vertices visible to searches, in revelation order (0 first)
    """

    instance: MetricInstance
    revealed: tuple[int, ...]
    counts: dict
    paths: dict
    usage: dict
    last_mover: Optional[int] = None

    def is_active(self, v) -> bool:
        return v in self.counts

    @cached_property
    def seen(self) -> frozenset:
        """`revealed` as a set, carried like `view`."""
        return frozenset(self.revealed)

    @cached_property
    def view(self) -> "_Tree":
        """This state's tree view, carried from the state it came from or
        built in full on first use.  Raises EngineInvariantError (and caches
        nothing) if the paths are not a tree."""
        return _Tree(self)

    @cached_property
    def screen(self):
        """`_candidate_screen(self)`, built on first use and then shared."""
        return _candidate_screen(self)

    @cached_property
    def table(self) -> "_SearchTable":
        """`_SearchTable(self)`, carried like `view` or built on first use."""
        return _SearchTable(self)

    @cached_property
    def totals(self) -> tuple:
        """(C, P, L): the solution cost is C / D and the potential P / (D * L),
        D the instance's cost denominator; carried like `view` (`_rerouted`)."""
        return _totals(self)


@dataclass(frozen=True)
class BestResponse:
    path: Path
    cost: Fraction
    fresh_edges: int


@dataclass(frozen=True)
class Witness:
    """Evidence that some agent can strictly lower its shared cost; str is JSON."""

    vertex: int
    path: Path
    current: Fraction
    candidate: Fraction

    def __str__(self):
        return json.dumps({"vertex": self.vertex, "path": list(self.path),
                           "current": format_rational(self.current),
                           "candidate": format_rational(self.candidate)},
                          sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class EquilibriumVerdict:
    ok: bool
    witness: Optional[Witness]


def initial_state(instance) -> RoutingState:
    return RoutingState(instance, (ROOT,), {}, {}, {}, None)


def with_revealed(state, new_vertices) -> RoutingState:
    seen = state.seen
    added = [v for v in dict.fromkeys(new_vertices) if v not in seen]
    for v in added:
        if not 0 <= v < state.instance.n:
            raise EngineInvariantError(f"vertex {v} outside instance range")
    if not added:
        return state
    new = replace(state, revealed=state.revealed + tuple(added))
    new.__dict__["seen"] = seen.union(added)
    for name in ("view", "screen", "table", "totals"):
        # all are built from paths, counts and usage, never from `revealed`
        if name in state.__dict__:
            new.__dict__[name] = state.__dict__[name]
    return new


def add_terminal(state, vertex, count, path) -> RoutingState:
    if count <= 0:
        raise EngineInvariantError(f"arrival with non-positive count {count}")
    path = tuple(path)
    if not path or path[0] != vertex or path[-1] != ROOT or len(set(path)) != len(path):
        raise EngineInvariantError(f"malformed arrival path {path} for vertex {vertex}")
    if not state.seen.issuperset(path):
        raise EngineInvariantError("arrival path routes through unrevealed vertices")
    counts = dict(state.counts)
    paths = dict(state.paths)
    if vertex in counts:
        if paths[vertex] != path:
            raise EngineInvariantError(
                f"vertex {vertex} is already routed via {paths[vertex]}, not {path}"
            )
        counts[vertex] += count
    else:
        counts[vertex] = count
        paths[vertex] = path
    return _rerouted(state, [(path, count)], counts=counts, paths=paths,
                     last_mover=state.last_mover)


def prune_departures(state, departing) -> RoutingState:
    departing = set(departing)
    missing = departing - set(state.counts)
    if missing:
        raise EngineInvariantError(f"departure of inactive vertices {sorted(missing)}")
    counts = {t: k for t, k in state.counts.items() if t not in departing}
    paths = {t: p for t, p in state.paths.items() if t not in departing}
    last = state.last_mover
    if last is not None and not any(last in p for p in paths.values()):
        last = None
    return _rerouted(state, [(state.paths[t], -state.counts[t]) for t in departing],
                     counts=counts, paths=paths, last_mover=last)


def shared_cost(state, terminal) -> Fraction:
    if terminal not in state.counts:
        raise EngineInvariantError(f"shared_cost of inactive vertex {terminal}")
    inst = state.instance
    path = state.paths[terminal]
    shares = [(int(inst.costi[a, b]), state.usage[edge_key(a, b)]) for a, b in zip(path, path[1:])]
    lcm = math.lcm(*(k for _, k in shares))
    return Fraction(sum(c * (lcm // k) for c, k in shares), inst.denominator * lcm)


def solution_cost(state) -> Fraction:
    """Total cost of all edges in use (each edge once, however many users)."""
    return Fraction(state.totals[0], state.instance.denominator)


def potential(state) -> Fraction:
    """Rosenthal potential: sum over edges of c_e * H(N_e).

    Strictly decreases under every improving move — single agents or whole
    subtree blocks, which decompose into single-agent improving moves.
    Read from `state.totals`, an int over D * lcm(1..N_top) with N_top the
    largest edge count the run has met so far.
    """
    _, num, lcm = state.totals
    return Fraction(num, state.instance.denominator * lcm)


def _harmonic_sum(by_count) -> tuple:
    """(S, L): sum of by_count[N] * H(N) = S / L, L = lcm(1..max N) over the
    N with a nonzero coefficient, the only ones added (`_totals` has no 0).
    A 0 needs a -c_e: an edge held N before the event, so L_N divides the L
    `_rerouted` carries (a multiple of L_N for every N an edge holds), and
    skipping N leaves its carried num and L bit-identical."""
    total, lcm = 0, 1
    for n in sorted(n for n, c in by_count.items() if c):
        p, lcm_n = harmonic(n)
        total = total * (lcm_n // lcm) + by_count[n] * p
        lcm = lcm_n
    return total, lcm


def _totals(state) -> tuple:
    """`state.totals` in full, from every used edge."""
    costi = state.instance.costi
    cost, by_count = 0, {}
    for (a, b), n in state.usage.items():
        c = int(costi[a, b])
        cost += c
        by_count[n] = by_count.get(n, 0) + c
    return (cost, *_harmonic_sum(by_count))


def _rerouted(state, segments, *, counts, paths, last_mover) -> RoutingState:
    """`state` after one event, with the given counts, paths and last mover:
    each segment (path, k) gives every edge of `path` k more users and links
    each of its vertices to the next, a later segment's link winning.  The
    totals, if built, move by the same delta: an edge going from N to N'
    users adds c_e * (H(N') - H(N)) to the potential, and c_e to the cost as
    it comes into use (-c_e as it falls out), over a denominator that only
    grows within a run.  The view, if built, is derived at the links, unless
    they form no tree; the search table, if built, unless the event drops
    an edge."""
    deltas, links = {}, {}  # links: vertex -> (its parent, the edge's key)
    for path, k in segments:
        for x, p in zip(path, path[1:]):
            links[x] = p, (e := (x, p) if x < p else (p, x))
            deltas[e] = deltas.get(e, 0) + k
    usage, costi = dict(state.usage), state.instance.costi
    cost, by_count, dropped = 0, {}, False  # the delta's
    for e, k in deltas.items():
        before, c = usage.get(e, 0), costi.item(e)
        if after := before + k:
            usage[e] = after
        else:
            del usage[e]
            dropped = True
        cost += c * ((after > 0) - (before > 0))
        by_count[before] = by_count.get(before, 0) - c
        by_count[after] = by_count.get(after, 0) + c
    new = RoutingState(state.instance, state.revealed, counts, paths, usage, last_mover)
    new.__dict__["seen"] = state.seen
    if "totals" in state.__dict__:
        old_cost, num, lcm = state.totals
        step, lcm_step = _harmonic_sum(by_count)
        if lcm_step > lcm:
            num, lcm = num * (lcm_step // lcm), lcm_step
        new.__dict__["totals"] = (old_cost + cost, num + step * (lcm // lcm_step), lcm)
    view = state.__dict__.get("view")
    if view is not None and (view := view._derive(new, links)) is not None:
        new.__dict__["view"] = view
    table = state.__dict__.get("table")
    if table is not None and not dropped:
        new.__dict__["table"] = table._derive(deltas, costi)
    return new


# ---------------------------------------------------------------------------
# tree view


class _Tree:
    """Tree view of a state whose paths form a rooted tree.

    Built in full, `_Tree(state)`, or derived from the previous state's
    view (`_derive`, called by `_rerouted` alone).  Both refuse the same
    non-trees: the full build raises, the derivation returns None.

    Built at once: the tree's shape, all that charging reads: parent,
    children (sorted lists), the sorted `order` and the `leaves`; the
    counts are read from the state's own `usage` (`_usage`).

    The share bounds a and b (`bounds`), which the screen, the graft and
    the move test read, are ints over F = 2^s, one shift per instance: s =
    max(0, 61 - bitlen(n * max costi)).  With A(x) = sum of c_e/N_e and
    B(x) = sum of c_e/(N_e+1) along x -> root, c_e = costi (c * D), a(x) =
    a(p) + ceil(F c/N) and b(x) = b(p) + floor(F c/(N+1)) over x's parent
    edge (c, N), so F A(x) <= a(x) < F A(x) + depth(x) and F B(x) -
    depth(x) < b(x) <= F B(x).  A root path has at most n - 1 edges; if s
    > 0, each F c < 2^61 / n, so every bound is below 2^61 + n.  A full
    build makes them on first read.  A view derived from one with bounds
    carries them (`_carry_sums`): let R be the vertices whose parent edge
    changed its parent or its count.  Off R's subtrees a vertex keeps its
    root path, each edge with its count, so its bounds.  In them, a vertex
    of R is recomputed from its parent, and any other x keeps its edge and
    count, so its term a(x) - a(p): a'(x) = a(x) + a'(p) - a(p), b alike
    (F is fixed, so nothing rescales).  That walk also records g(x), the R
    edges on x's root path (`_g`, None on a full build).  The exact
    sums, A(x) M and B(x) M with M the lcm of the view's divisors {N_e,
    N_e+1}, are built where a bound cannot decide (`exact`), memoised per
    vertex with the view, never carried.

    Subtree and lca questions walk the parent links (`in_subtree`, `lca`)
    or the children lists (`subtree`).  The walks end, as every vertex
    reaches the root by its parents: in a full build each vertex lies on a
    path that ends at the root, and with consistent parents and none at
    the root, that path is its parent walk.  A derived view cannot hold a
    cycle: an arrival's new vertices form a chain that reaches the tree
    once and then follows it (a path that leaves the tree again gives a
    vertex a second parent, which `_derive` refuses); a departure only
    removes edges; and a move's target lies outside the mover's subtree.
    """

    __slots__ = ("parent", "children", "order", "leaves", "_instance", "_usage",
                 "_bounds", "_exact", "_g")

    def __init__(self, state: RoutingState):
        parent = {}
        for path in state.paths.values():
            for child, par in zip(path, path[1:]):
                if parent.setdefault(child, par) != par:
                    raise EngineInvariantError(
                        f"routing paths disagree on the parent of {child}"
                    )
        if ROOT in parent:
            raise EngineInvariantError("the root has a parent edge")
        for path in state.paths.values():
            if path[-1:] != (ROOT,):
                raise EngineInvariantError(
                    f"routing path {path} does not end at the root: a cycle or a cut-off path")
        children: dict = {v: [] for v in parent}
        children[ROOT] = []
        for child, par in parent.items():
            children.setdefault(par, []).append(child)
            if not state.usage.get(edge_key(child, par)):
                raise EngineInvariantError(f"tree edge ({child},{par}) has no recorded usage")
        for kids in children.values():
            kids.sort()
        self.parent, self.children, self.order = parent, children, sorted(children)
        self.leaves = {v for v in children if not children[v] and v != ROOT}
        self._instance, self._usage = state.instance, state.usage
        self._bounds = self._exact = self._g = None
        bad = self.leaves - set(state.counts)
        if bad:
            raise EngineInvariantError(f"tree leaves without terminals: {sorted(bad)}")

    def _derive(self, state, links) -> Optional["_Tree"]:
        """The view of `state`, whose tree differs from this one at `links`,
        or None if a linked vertex still uses its edge to another parent:
        the paths then disagree on its parent, and `state` is no tree.

        `links` maps each vertex whose parent edge the event touched to its
        parent in `state` and that edge's key.  A vertex whose edge no one
        uses any more is dropped, one that keeps its parent recounted if the
        count differs in this view's `usage`.  The dicts are copied, the
        children lists only where they change: the rest are shared.
        """
        view = type(self).__new__(type(self))
        parent, children = dict(self.parent), dict(self.children)
        usage, own = state.usage, set()  # own: children lists copied already

        def kids(x):
            if x not in own:
                children[x] = list(children.get(x, ()))
                own.add(x)
            return children[x]

        gone, touched, moved, recounted, grown = set(), set(), {}, {}, False  # moved, recounted: x -> n
        for x, (p, e) in links.items():
            if not (n := usage.get(e)):
                gone.add(x)
                continue
            if (old := parent.get(x)) == p:
                if n != self._usage[e]:
                    recounted[x] = n
                continue
            if old is None:
                kids(x)
                grown = True
            elif usage.get(edge_key(x, old)):  # two parents: not a tree
                return None
            else:
                kids(old).remove(x)
                touched.add(old)
            parent[x] = p
            bisect.insort(kids(p), x)
            touched.update((x, p))
            moved[x] = n
        for x in gone:  # its children, if it had any, are gone too
            p = parent.pop(x)
            del children[x]
            if p not in gone:
                kids(p).remove(x)
                touched.add(p)
        leaves = self.leaves - gone
        for x in touched - gone - {ROOT}:
            if children[x]:
                leaves.discard(x)
            else:
                leaves.add(x)
        view.parent, view.children, view.leaves = parent, children, leaves
        view.order = sorted(children) if gone or grown else self.order
        view._instance, view._usage = self._instance, usage
        view._bounds = view._exact = view._g = None
        if self._bounds is not None:
            view._carry_sums(self, moved | recounted, gone)
        return view

    def _carry_sums(self, base, changed, gone):
        """Derive the bounds and g from `base`'s, `changed` being R (`_Tree`)."""
        parent = self.parent
        tops = []  # the vertices of R with no vertex of R above them
        for x in changed:
            y = parent[x]
            while y != ROOT and y not in changed:
                y = parent[y]
            if y == ROOT:
                tops.append(x)
        s, *old = base._bounds
        a, b = (dict(sums) for sums in old)
        for x in gone:
            del a[x], b[x]
        self._g = self._fill(s, a, b, tops, changed, old)
        self._bounds = s, a, b

    def bounds(self) -> tuple:
        """(s, a, b), carried or built in full on first read."""
        if self._bounds is None:
            self._build_sums()
        return self._bounds

    def _build_sums(self):
        inst = self._instance
        s = max(0, 61 - (inst.n * int(inst.costi.max())).bit_length())
        self._bounds = s, {ROOT: 0}, {ROOT: 0}
        R = {x: self._usage[edge_key(x, p)] for x, p in self.parent.items()}
        self._fill(*self._bounds, list(self.children[ROOT]), R)

    def _fill(self, s, a, b, stack, R, old=None):
        """Set a and b on the subtrees of the vertices in `stack`, top down,
        from each parent's final entry: at R (x -> its count) by the parent
        edge, elsewhere by the parent's change since the base's `old`; return g."""
        parent, children = self.parent, self.children
        costi, g, (oa, ob) = self._instance.costi, {}, old or (None, None)
        while stack:
            x = stack.pop()
            p = parent[x]
            if x in R:
                n, c = R[x], costi.item(x, p) << s
                a[x], b[x], g[x] = a[p] - (-c // n), b[p] + c // (n + 1), g.get(p, 0) + 1
            else:
                a[x], b[x], g[x] = oa[x] + a[p] - oa[p], ob[x] + b[p] - ob[p], g[p]
            stack += children[x]
        return g

    def exact(self, x) -> tuple:
        """(M, A(x) M, B(x) M), M the lcm of the view's divisors {N_e,
        N_e+1}: built on first need, then memoised per vertex."""
        if self._exact is None:
            divisors = {k for n in self._usage.values() for k in (n, n + 1)}
            self._exact = math.lcm(*divisors), {ROOT: (0, 0)}
        M, memo = self._exact
        up = []
        while x not in memo:
            up.append(x)
            x = self.parent[x]
        A, B = memo[x]
        for y in reversed(up):
            p = self.parent[y]
            c, n = self._instance.costi.item(y, p), self._usage[edge_key(y, p)]
            memo[y] = A, B = A + c * (M // n), B + c * (M // (n + 1))
        return M, A, B

    def __contains__(self, v):
        return v in self.children

    def in_subtree(self, x, u) -> bool:
        """Is tree vertex x in u's subtree (x == u included)?"""
        while x != u:
            if x == ROOT:
                return False
            x = self.parent[x]
        return True

    def lca(self, a, b) -> int:
        """The first vertex that the root paths of a and b share."""
        above = set(self.path_to_root(a))
        while b not in above:
            b = self.parent[b]
        return b

    def subtree(self, u) -> set:
        """The vertices of u's subtree, u included."""
        below, stack = {u}, [u]
        while stack:
            kids = self.children[stack.pop()]
            below.update(kids)
            stack += kids
        return below

    def path_to_root(self, v) -> Path:
        seq = [v]
        while seq[-1] != ROOT:
            seq.append(self.parent[seq[-1]])
        return tuple(seq)


# ---------------------------------------------------------------------------
# best response search


class _SearchTable:
    """What the searches of a state share, cached as `state.table`:
    `nodes` (the used edges' endpoints and the root) with index map `pos`;
    per used edge k, in `usage` order (`edge` maps it to k), its nodes ia[k]
    and ib[k] and costs[k] = c * D, its count being `state.usage`'s k-th;
    and the cost block `sub` = costi[nodes][:, nodes].

    Built in full, `_SearchTable(state)`, or derived from the previous
    state's (`_derive`, called by `_rerouted` alone) when the event drops
    no edge: its new edges then follow the old ones in `usage`, and its
    new endpoints are inserted in id order.  A table never changes after
    it is made."""

    def __init__(self, state):
        costi, usage = state.instance.costi, state.usage
        self.nodes = nodes = sorted({ROOT, *(v for e in usage for v in e)})
        self.pos = pos = {v: i for i, v in enumerate(nodes)}
        self.ia = np.array([pos[a] for a, _ in usage], dtype=np.intp)
        self.ib = np.array([pos[b] for _, b in usage], dtype=np.intp)
        self.edge = {e: k for k, e in enumerate(usage)}
        ids = np.array(nodes)
        self.costs = costi[ids[self.ia], ids[self.ib]].tolist()
        self.sub = costi.take(ids, 0).take(ids, 1)

    def _derive(self, deltas, costi):
        """The table of the state whose `usage` keeps every edge of this
        one's, with new counts, and appends the new edges of `deltas`."""
        tab = type(self).__new__(type(self))
        tab.__dict__ = dict(self.__dict__)
        added = [e for e in deltas if e not in self.edge]
        if extra := sorted({v for e in added for v in e} - self.pos.keys()):
            at = [bisect.bisect_left(self.nodes, v) for v in extra]
            tab.nodes = nodes = sorted(self.nodes + extra)
            tab.pos = {v: i for i, v in enumerate(nodes)}
            tab.ia, tab.ib = (x + np.searchsorted(at, x, side="right") for x in (self.ia, self.ib))
            ids = np.array(nodes)
            tab.sub = costi.take(ids, 0).take(ids, 1)
        if added:
            ends = np.array([(tab.pos[a], tab.pos[b]) for a, b in added], dtype=np.intp)
            tab.ia, tab.ib = np.concatenate((tab.ia, ends[:, 0])), np.concatenate((tab.ib, ends[:, 1]))
            tab.edge = {**self.edge, **{e: k for k, e in enumerate(added, len(self.costs))}}
            tab.costs = self.costs + [int(costi[e]) for e in added]
        return tab


def _settle(size, dtype, source, start, goal, stop, relax, into=0):
    """Keys of an exact Dijkstra over nodes 0 .. size - 1 in `dtype`, from
    `source` at key `start`: the first least open key pops (ties in index
    order) while it is below `stop`, and pops end once `goal` pops.
    `relax(i, d)` gives each node's key through i, popped at d; an open node
    keeps the least.  Exact if no key it gives falls below d.  If none adds
    less than `into` past d to `goal`'s, `goal` pops once its key is below
    d + `into`, d the least open key.  Popped nodes keep their key, the rest
    read `stop`."""
    tent = np.full(size, stop, dtype=dtype)  # stop once popped
    keys, shut = tent.copy(), np.full(size, start, dtype=dtype)  # no key is below start
    tent[source] = start
    while (d := tent[i := int(tent.argmin())]) < stop:
        if into and tent[goal] < d + into:
            i, d = goal, tent[goal]
        keys[i], shut[i] = d, stop
        if i == goal:
            break
        np.minimum(tent, relax(i, d), out=tent)
        np.maximum(tent, shut, out=tent)
    return keys


def _Search(state, target) -> BestResponse:
    """`target`'s (cost, fresh, id sequence)-least path to the root.

    A Dijkstra from the root (`_settle`) that stops once `target`'s key is
    final.  It visits the table's nodes in id order (the used edges'
    endpoints and the root), then the target if it is none of them.  No
    other vertex x lies on a best path from any of them: x would be entered
    and left by two unused edges, fresh and at full cost, and every
    instance meets the triangle inequality exactly (closures by
    construction, Euclidean instances by ceiling rounding, explicit ones by
    `_check_triangle`), so the direct edge between x's neighbours gives a
    strictly smaller (cost, fresh) key.  A search reads `state.table`,
    which it caches, and adds, uncached, its target's divisors, `den`,
    clamp and weights, and its row and column if it is on no path.

    Shares are ints over `den` = D * lcm{d_e}, d_e being edge e's share
    divisor: N_e on the target's own path, N_e + 1 on other used edges, 1 on
    unused (fresh) ones.  With K one more than the nodes visited, a path of
    share s over `den` with f fresh edges has key s * K + f.  Each key
    formed here is a simple path plus at most one edge, so f < K and key
    order is (cost, fresh) order.

    The stop: with `into` the least weight into t = target (its clamped
    block column, diagonal set to `top`), t pops at its open key k once
    k < d + into, d the least open key.  A path whose last hop leaves an
    open y costs at least d + into > k, so k is exact.  An exact
    predecessor z of t has key k - w(z, t) < d, as have the walk's later
    steps: all have popped.  With <=, one at d might not, and the walk
    would miss its smaller id.

    Weights are clamped at `top`, one more than the key of the direct edge
    target -> root, so the target always pops.  Popped keys are at most the
    target's, below `top`; a path through a clamped edge weighs at least
    `top`, clamped or exact.  So the clamp changes no popped key and no
    continuation the walk takes, and relaxed keys stay below 2 * top.  Keys
    and weights are int64 when 4 * top < 2**63 and Python ints otherwise.

    The path is a greedy walk: each step takes the smallest-id y with
    key(y) + weight(cur, y) == key(cur).  Every such y extends to an
    optimal path, so the walk gives the smallest optimal id sequence.  An
    unpopped y (key `top`) never matches, and weights are positive, so
    keys fall along the walk and it cannot cycle.
    """
    inst, tab = state.instance, state.table
    nodes, sub = tab.nodes, tab.sub
    if (t := tab.pos.get(target, len(nodes))) == len(nodes):  # the last node
        sub = np.empty((t + 1, t + 1), dtype=sub.dtype)
        sub[:t, :t] = tab.sub
        sub[t] = sub[:, t] = inst.costi[target].take([*nodes, target])
    K = len(sub) + 1

    divisor = [n + 1 for n in state.usage.values()]
    fresh = [0] * len(divisor)
    own_path, own_count = state.paths.get(target), state.counts.get(target, 0)
    for e in path_edges(own_path) if own_path else ():
        k = tab.edge[e]
        divisor[k] = n = state.usage[e]
        fresh[k] = int(n == own_count)
    scale = math.lcm(*(divisors := set(divisor)))  # den // D
    unit = scale * K  # an unused edge of cost c weighs c * unit + 1
    k = tab.edge.get(edge_key(ROOT, target))  # the direct edge target -> root
    d, f = (1, 1) if k is None else (divisor[k], fresh[k])
    top = int(inst.costi[target, ROOT]) * (scale // d) * K + f + 1
    cap = (top - 1) // unit  # an unused edge costlier than cap weighs more than top
    per = {d: scale // d * K for d in divisors}
    dtype = np.int64 if 4 * top < 2**63 else object
    weights = np.array([w if (w := c * per[d] + f) < top else top
                        for c, d, f in zip(tab.costs, divisor, fresh)], dtype=dtype)
    # min(unit, top) is unit unless cap == 0; either way a cost above
    # cap, clipped to cap + 1, weighs more than top, and is clamped
    sub = sub if dtype is np.int64 else sub.astype(object)
    block = np.minimum(sub, cap + 1).astype(dtype, copy=False)
    block *= min(unit, top)
    block += 1
    np.minimum(block, top, out=block)
    block[tab.ia, tab.ib] = block[tab.ib, tab.ia] = weights
    block[t, t] = top
    key = _settle(K - 1, dtype, 0, 0, t, top, lambda i, d: block[i] + d, block[t].min())
    seq, cur = [target], t
    while cur:  # index 0 is the root
        hits = key + block[cur] == key[cur]
        cur = int(hits.argmax())
        if not hits[cur]:
            raise EngineInvariantError("optimal-path walk got stuck (engine bug)")
        seq.append(nodes[cur])
    share, fresh_edges = divmod(int(key[t]), K)
    return BestResponse(tuple(seq), Fraction(share, inst.denominator * scale), fresh_edges)


def best_response(state, vertex) -> BestResponse:
    """Best path for one (possibly hypothetical) agent at `vertex`.

    Shares are hypothetical: edges on the vertex's current path keep their
    user count, all other edges gain one user.  Ties broken by fewer fresh
    edges, then by the lexicographically smallest vertex-id sequence.
    """
    if vertex == ROOT:
        raise EngineInvariantError("the root does not route")
    if vertex not in state.seen:
        raise EngineInvariantError(f"best response for unrevealed vertex {vertex}")
    return _Search(state, vertex)


def graft_path(state, vertex) -> Path:
    """Best response of a newcomer at an off-tree `vertex` of an equilibrium.

    Requires that no terminal of `state` can improve.  Then the best
    response is the graft (vertex,) + path_to_root(w) for the tree vertex w
    minimising the key (c(vertex, w) + B(w), w), found by an O(|tree|) scan
    of the state's tree view instead of a `_Search`:

    - For a tree vertex w and any other path Q from w to the root, B(w) is
      strictly below the newcomer's share on Q.  Take a terminal t routed
      through w, T its segment above w.  t cannot improve by swapping T for
      Q (a non-simple swap shortcuts to a simple one that costs no more, and
      one through unrevealed vertices shortcuts past them by the triangle
      inequality), so sum_{T-Q} c/N <= sum_{Q-T} c/(N+1).  As every c > 0,
      the newcomer's Q costs more than its T.
    - A prefix from `vertex` that reaches the tree at w through off-tree
      vertices costs at least c(vertex, w) by the triangle inequality and
      has at least two fresh edges, where the graft has one.

    So the graft argmin is the unique optimum by (cost, fresh, id sequence).
    The scan reads the view's bounds: g(w) = F c(vertex, w) + b(w) <= F
    (c(vertex, w) + B(w)) < g(w) + |tree|.  With m the least g, the true
    least key is below m + |tree|, so the argmin and all its exact ties
    have g(w) < m + |tree|; more than one such w are settled by exact keys.
    """
    view = state.view
    if vertex == ROOT or vertex in view:
        raise EngineInvariantError(f"graft of tree vertex {vertex}")
    if vertex not in state.seen:
        raise EngineInvariantError(f"graft of unrevealed vertex {vertex}")
    (s, _, b), order = view.bounds(), view.order
    costs = state.instance.costi[vertex, order].tolist()
    g = [(c << s) + b[x] for c, x in zip(costs, order)]
    end = min(g) + len(order)
    near = [(c, x) for c, x, gx in zip(costs, order, g) if gx < end]
    if near[1:]:  # settled by exact keys, ties by id
        M = view.exact(ROOT)[0]
        near = [(c * M + view.exact(x)[2], x) for c, x in near]
    return (vertex,) + view.path_to_root(min(near)[1])


def has_improving_move(state, vertex) -> Optional[Witness]:
    """Witness that active terminal `vertex` can improve, else None: its
    best response against its current share."""
    if not state.is_active(vertex):
        raise EngineInvariantError(f"improvement test of inactive vertex {vertex}")
    br = best_response(state, vertex)
    cur = shared_cost(state, vertex)
    return Witness(vertex, br.path, cur, br.cost) if br.cost < cur else None


class _Verdicts:
    """One sweep's verdicts, "can terminal t strictly improve?": the first by
    `has_improving_move`, each later one by `decide`, an A* over the reduced
    block that the second builds (`verify_equilibrium`)."""

    def __init__(self, state):
        self.state, self.first = state, None

    def improves(self, t) -> bool:
        if self.first is None:
            self.first = (t, has_improving_move(self.state, t))
            return self.first[1] is not None
        return self.decide(t)

    def decide(self, t) -> bool:
        (lo, hi, _, _), (R, h) = self._prices, self._block
        ks, cur = self._own[t]
        at = [self.state.table.pos[v] for v in self.state.paths[t]]
        patch: dict = {}  # t's own edges at each node: (other end, hi - lo)
        for a, b, k in zip(at, at[1:], ks):
            patch.setdefault(a, []).append((b, hi[k] - lo[k]))
            patch.setdefault(b, []).append((a, hi[k] - lo[k]))

        def relax(i, d):
            row = R[i] + d
            for j, up in patch.get(i, ()):
                row[j] += up
            return row

        return _settle(len(h), R.dtype, at[0], h[at[0]], 0, cur, relax)[0] < cur

    @cached_property
    def _prices(self):
        """(c / (N + 1), c / N) per used edge over den = D * lcm{N_e, N_e + 1 :
        e used}, den // D and the largest cost between nodes."""
        tab, users = self.state.table, self.state.usage.values()
        scale = math.lcm(*{k for n in users for k in (n, n + 1)})
        return ([c * (scale // (n + 1)) for c, n in zip(tab.costs, users)],
                [c * (scale // n) for c, n in zip(tab.costs, users)], scale, int(tab.sub.max()))

    @cached_property
    def _own(self):
        """{t: (t's path edges in path order, cur(t) over den)} per terminal t."""
        edge, hi, own = self.state.table.edge, self._prices[1], {}
        for t, path in self.state.paths.items():
            ks = [edge[e] for e in path_edges(path)]
            own[t] = ks, sum(hi[k] for k in ks)
        return own

    @cached_property
    def _block(self):
        """(R, h): the lower prices W clamped at the largest cur(t), T, the
        bound h (`_settle` over W, stop T) and R = W + h(j) - h(i), in place."""
        tab, (lo, _, scale, top) = self.state.table, self._prices
        T = max(cur for _, cur in self._own.values())
        dtype = np.int64 if 4 * T < 2**63 else object
        # a cost past cap weighs at least T; a used edge's lo < hi <= T
        W = np.minimum(tab.sub, min(T // scale + 1, top)).astype(dtype, copy=False)
        W *= min(scale, T)
        np.minimum(W, T, out=W)
        W[tab.ia, tab.ib] = W[tab.ib, tab.ia] = np.array(lo, dtype=dtype)
        h = _settle(len(W), dtype, 0, 0, None, T, lambda i, d: W[i] + d)
        W += h
        W -= h[:, None]
        return W, h


def verify_equilibrium(state) -> EquilibriumVerdict:
    """Sweep: a verdict per tree leaf, in id order, and if one improves, per
    interior terminal below it (per terminal on a non-tree), so the witness,
    a best-response search, is the first improving terminal in id order.

    On a tree, terminal t improves if a tree vertex x above it does, relay
    or terminal.  Price paths from x with x's divisors as a terminal's: N_e
    on x's root path, N_e + 1 on other used edges, 1 on unused ones; off
    t's segment S from t up to x they are t's.  Let Q be a path from x to
    the root cheaper than x's root path.  If Q avoids S below x, S then Q
    is one of t's paths, cheaper than S then x's root path, t's own.  Else
    let z be Q's last vertex on S: t's segment up to z, then Q's suffix
    from z, costs less than t's path, as Q's prefix up to z costs >= 0.  So
    no relay needs a search, and, every leaf being a terminal (`_Tree`),
    if no leaf improves, no terminal does.

    The first verdict is `has_improving_move`; each later one is an A* from
    t to the root over `state.table`'s nodes (`_Verdicts`), in ints over den =
    D * lcm{N_e, N_e + 1 : e used}.  t's prices w_t are c_e / N_e on its
    path, c_e / (N_e + 1) on other used edges, c_e on unused ones; the lower
    prices w_lo are c_e / (N_e + 1) on every used edge, c_e on unused ones,
    so w_lo <= w_t on every edge.  Once per sweep, T its largest cur(t), W =
    min(w_lo, T) is built over those nodes, off which no best path runs
    (`_Search`), and h(x) = min(x's W-distance to the root, T) = min(x's
    w_lo-distance, T).  As min(a + b, T) <= min(a, T) + min(b, T) for a, b
    >= 0, h(x) <= min(w_lo(x, y), T) + h(y) <= min(w_t(x, y), T) + h(y), and
    h(root) = 0: h is consistent for t's prices clamped at T, and the A* is
    an exact Dijkstra (`_settle`) over reduced weights >= 0.  W is
    reweighted in place to R(x, y) = W(x, y) + h(y) - h(x); t's differ from
    R on its own edges alone, both ways, by c_e / N_e - c_e / (N_e + 1), as
    c_e / N_e <= cur(t) <= T is unclamped, and a verdict adds that to the
    row it copies at a pop, never to R.  A key below cur(t) <= T is a path
    through no clamped edge, with h exact at its end, so the clamp changes
    no key below the stop.  If the least open key reaches cur(t), every path
    from t costs at least cur(t), so t has no strict improvement, exact ties
    included; if the root pops first, its key is a cheaper path's cost.
    Keys stay below 4T: int64 if that fits, chosen once per sweep.

    On a tree the verdict is compared against the improving tree-move scan;
    an improving path exists iff an improving tree-follow move does, so
    disagreement is an engine bug and raises.
    """
    try:
        view = state.view
    except EngineInvariantError:
        view = None
    verdicts = _Verdicts(state)
    if view is None:
        t = next(filter(verdicts.improves, sorted(state.counts)), None)
    elif (t := next(filter(verdicts.improves, sorted(view.leaves)), None)) is not None:
        # the leaves before t do not improve
        t = next(filter(verdicts.improves, (u for u in sorted(state.counts)
                                            if u < t and u not in view.leaves)), t)
    first = verdicts.first
    witness = None if t is None else first[1] if first[0] == t else has_improving_move(state, t)
    if witness is None and view is None and state.paths:
        # impossible: a non-tree routing always leaves some terminal an
        # improving segment swap (the downward-closure argument)
        raise EngineInvariantError("equilibrium verdict on a non-tree routing")
    if view is not None:
        pair = find_improving_tree_move(state)
        if (pair is None) != (witness is None):
            raise EngineInvariantError(
                "best-response sweep and tree-move scan disagree: "
                f"witness={witness}, pair={pair}"
            )
    return EquilibriumVerdict(witness is None, witness)


# ---------------------------------------------------------------------------
# improving tree-follow moves


def _move_fault(view, u, v) -> Optional[str]:
    """Why u -> v is no tree-follow move, or None if it is one: u needs a
    parent edge, v must be on the tree and outside u's subtree."""
    if u == ROOT or u not in view.parent:
        return f"{u} has no parent edge to swap"
    if v not in view:
        return f"move target {v} is not on the tree"
    if view.in_subtree(v, u):
        return f"move target {v} lies in the subtree of {u}"
    return None


def is_improving_tree_move(state, u, v) -> bool:
    """Would rerouting u (and its subtree) onto v strictly help its users?

    Exact test, linear in the root path lengths of u and v: with L =
    lca(u, v),
        c(u,v) + B(v) - B(L)  <  A(u) - A(L).
    This is the hypothetical saving of any witness terminal in u's subtree:
    edges on v -> L are newly adopted (count+1), edges on L -> root stay on
    the witness's path (count unchanged), everything below u moves rigidly.
    The view's bounds answer first: a(u) - a(L) sums the rounded-up terms
    of u -> L and b(v) - b(L) the rounded-down ones of v -> L, so T = a(u)
    - a(L) - F c(u,v) - b(v) + b(L) is at least F times the saving, and T
    <= 0 proves no improvement.  Otherwise the test compares the exact
    sums over M (`_Tree.exact`).
    """
    view = state.view
    fault = _move_fault(view, u, v)
    if fault:
        raise EngineInvariantError(fault)
    ell = view.lca(u, v)
    (s, a, b), c = view.bounds(), state.instance.costi.item(u, v)
    if a[u] - a[ell] - (c << s) - b[v] + b[ell] <= 0:
        return False
    (M, Au, _), (_, Al, Bl), (_, _, Bv) = view.exact(u), view.exact(ell), view.exact(v)
    return c * M + Bv - Bl < Au - Al


def is_legal_improving(state, u, v) -> bool:
    """`is_improving_tree_move`, answering False for an illegal pair."""
    return _move_fault(state.view, u, v) is None and is_improving_tree_move(state, u, v)


def _survivors(state, rows, cols):
    """`_candidate_screen`'s test on the id arrays rows x cols: a(u) - F c(u, v) > b(v)."""
    s, a, b = state.view.bounds()
    dtype = np.int64 if s else object  # explicit: past 2^63 numpy picks uint64 or float64
    block = state.instance.costi.take(rows, 0).take(cols, 1).astype(dtype, copy=False)
    block <<= s  # `take` copied it: work in place
    av, bv = (np.array([d[x] for x in ids.tolist()], dtype=dtype)
              for d, ids in ((a, rows), (b, cols)))
    return np.subtract(av[:, None], block, out=block) > bv


def _candidate_screen(state):
    """Integer screen of improving moves: (mask, cols), a bool matrix over
    rows `view.order` and columns `cols`, the ids `view.order` here too.

    Entry (i, j) is False only if order[i] -> cols[j] cannot improve, and
    the diagonal (no move) is False; read it through `state.screen`.  An
    improving move u -> v has A(u) - B(v) - c(u, v) > A(L) - B(L) >= 0, so
    with the view's bounds (`_Tree`), a(u) >= F A(u) and b(v) <= F B(v), it
    keeps a(u) - F c(u, v) > b(v).  If s > 0, each bound is below 2^61 + n
    and F c < 2^61 / n, so the scores fit int64; else they are Python ints.

    Each vertex's own parent p is False too: there L = p, so the test's
    left side is c + B(p) - B(p) = c, and its right side A(u) - A(p) = c / N
    is no larger.
    """
    view, order = state.view, state.view.order
    mask = _survivors(state, ids := np.array(order), ids)
    np.fill_diagonal(mask, False)
    mask[np.arange(1, len(order)), np.searchsorted(ids, [view.parent[x] for x in order[1:]])] = False
    return mask, order


def arrival_screen(state, path):
    """The screen of `state`, made from a balanced equilibrium by one
    arrival along the root path `path`, P: `_candidate_screen`'s test on
    the rows x off P and the columns y in the subtree of P's top vertex
    with g(x) < g(y), g counting P's edges on a root path (`_Tree`).

    No pair improved before, and the arrival adds users on P's edges alone.
    So for old x, y with L = lca(x, y), both sides of c(x, y) + B(y) - B(L)
    < A(x) - A(L) can only shrink, and only on P's edges: x -> y improves
    now only if y -> L holds an edge of P.  A root path holds P from the
    vertex z where it meets P; so that holds iff y meets P strictly below
    x's z (L is then that z), iff g(x) < g(y), which drops the diagonal and
    the own parents.  A row x on P is its own z, so such a y lies in x's
    subtree: no legal target.  A new vertex can only be the newcomer v,
    grafted at w.  Its column has the largest g.  Its row is empty: v -> y
    prices c(v, y) and y -> L as a lone newcomer would, at least c(v, w)
    and w -> L at N + 1 users by `graft_path`'s proof, where each of v's k
    agents pays c(v, w) / k and w -> L at N + k.
    """
    view = state.view
    if view._g is None:  # the view was not carried over the arrival
        return _candidate_screen(state)
    g, on, order = view._g, set(path), view.order
    cols = sorted(g)
    if on.issuperset(order):  # no row off P
        return np.zeros((len(order), len(cols)), dtype=bool), cols
    # a row on P gets a g above every column's
    gx = np.array([len(path) if x in on else g.get(x, 0) for x in order])
    gy = np.array([g[y] for y in cols])
    return _survivors(state, np.array(order), np.array(cols)) & (gx[:, None] < gy), cols


_SCAN_BLOCK = 1 << 14  # screen entries per nonzero in find_improving_tree_move


def find_improving_tree_move(state):
    """First (u, v) in id order whose tree-follow move improves, or None.

    Walks the screen's rows in id order, about `_SCAN_BLOCK` entries at a
    time, and stops at the first improving pair: a block's nonzero lists its
    survivors in row-major order, which is (u, v) id order.  Row 0, the
    root, has no parent edge to swap.
    """
    view, (screen, ids) = state.view, state.screen
    order = view.order
    step = max(1, _SCAN_BLOCK // len(order))
    for start in range(1, len(order), step):
        rows, cols = np.nonzero(screen[start:start + step])
        for i, j in zip(rows.tolist(), cols.tolist()):
            u, v = order[start + i], ids[j]
            if not view.in_subtree(v, u) and is_improving_tree_move(state, u, v):
                return u, v
    return None


def closest_improving_target(state, u, allowed=None):
    """Closest v (exact c(u,v), ties by id) with an improving move u -> v.

    u is a tree vertex other than the root (EngineInvariantError if not).
    `allowed` optionally restricts the target set; returns None if nothing
    improves.  The survivors of u's row of `state.screen` are tested in
    exact (c(u,v), v) order, and the first improving one is returned.
    """
    view = state.view
    order = view.order
    if u not in view.parent:  # the root has no parent either
        raise EngineInvariantError(f"{u} is not a tree vertex below the root")
    crow, (screen, ids), below = state.instance.costi[u], state.screen, view.subtree(u)
    row = np.nonzero(screen[bisect.bisect_left(order, u)])[0].tolist()
    cands = sorted((int(crow[v]), v) for j in row
                   if (v := ids[j]) not in below and (allowed is None or v in allowed))
    return next((v for _, v in cands if is_improving_tree_move(state, u, v)), None)


def tree_follow_move(state, u, v) -> RoutingState:
    """Atomic reroute: u swaps its parent edge for (u, v); its subtree follows.

    Terminals outside u's subtree are untouched.
    """
    view = state.view
    fault = _move_fault(view, u, v)
    if fault:
        raise EngineInvariantError(fault)

    old_above = view.path_to_root(u)  # (u, parent, ..., 0)
    new_tail = view.path_to_root(v)  # (v, ..., 0)
    paths, block = dict(state.paths), 0
    for t in view.subtree(u):
        if t in state.counts:
            block += state.counts[t]
            paths[t] = paths[t][: paths[t].index(u) + 1] + new_tail
    if block <= 0:
        raise EngineInvariantError(f"subtree of {u} carries no agents")
    # the exchange: the block leaves u's old root path for its new one;
    # above the lca the two segments cancel
    return _rerouted(state, [(old_above, -block), ((u,) + new_tail, block)],
                     counts=state.counts, paths=paths, last_mover=u)
