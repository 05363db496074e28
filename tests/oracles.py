"""Brute-force reference implementations used to cross-check the engine.

Everything in this module works on plain data (Fraction cost matrices,
``{terminal: count}`` dicts, path tuples) and is written independently of the
package under test: Floyd-Warshall instead of per-source Dijkstra, Pruefer
enumeration instead of Prim, exhaustive path enumeration instead of the
lexicographic search.  Keep it that way -- the whole point is that agreement
between the two routes is evidence, not tautology.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from fractions import Fraction

ROOT = 0


def path_edges(path):
    """Undirected edge keys along a vertex sequence."""
    return [tuple(sorted(p)) for p in zip(path, path[1:])]


def usage_from_paths(paths, counts):
    """Recompute per-edge user counts from scratch."""
    usage = {}
    for t, path in paths.items():
        for e in path_edges(path):
            usage[e] = usage.get(e, 0) + counts[t]
    return usage


def audit_state(state):
    """Re-derive everything derivable about a routing state and compare.

    Reads only the state's plain fields (revealed, counts, paths, usage);
    fails an assertion on any mismatch.
    """
    revealed = set(state.revealed)
    assert ROOT in revealed, "root is not revealed"
    assert set(state.paths) == set(state.counts), "terminals with paths and with counts differ"
    for t, path in state.paths.items():
        assert state.counts[t] > 0, f"terminal {t} has non-positive count"
        assert path[0] == t and path[-1] == ROOT and len(set(path)) == len(path), (
            f"malformed path for terminal {t}: {path}")
        assert all(v in revealed for v in path), f"path of {t} uses unrevealed vertices"
    assert usage_from_paths(state.paths, state.counts) == state.usage, (
        "stored usage counts disagree with recomputation")


def floyd_warshall(cost):
    """All-pairs shortest path lengths of a symmetric Fraction matrix.

    ``cost[u][v]`` entries are treated as direct edge lengths; the result is
    the metric closure.  O(n^3), exact.
    """
    n = len(cost)
    d = [row[:] for row in cost]
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            row = d[i]
            for j in range(n):
                via = dik + dk[j]
                if via < row[j]:
                    row[j] = via
    return d


def dijkstra_closure(n, edges):
    """Metric closure by per-source Dijkstra on Fractions (None if disconnected).

    ``edges`` holds (u, v, cost) triples.  A Fraction route to what
    `metric_closure` computes on ints.
    """
    adj = [[] for _ in range(n)]
    for u, v, c in edges:
        adj[u].append((v, Fraction(c)))
        adj[v].append((u, Fraction(c)))
    rows = []
    for src in range(n):
        dist = {src: Fraction(0)}
        done = [False] * n
        heap = [(Fraction(0), src)]
        while heap:
            d, x = heapq.heappop(heap)
            if done[x]:
                continue
            done[x] = True
            for y, c in adj[x]:
                nd = d + c
                if y not in dist or nd < dist[y]:
                    dist[y] = nd
                    heapq.heappush(heap, (nd, y))
        if len(dist) != n:
            return None
        rows.append([dist[v] for v in range(n)])
    return rows


def sqrt_ceil_grid(value, denominator):
    """Smallest k/denominator whose square is >= value (value >= 0)."""
    if value < 0:
        raise ValueError("square root of a negative value")
    num = value.numerator * denominator * denominator
    den = value.denominator
    target = -(-num // den)  # ceil(num/den)
    k = math.isqrt(target)
    if k * k < target:
        k += 1
    return Fraction(k, denominator)


def euclidean_costs(points, grid):
    """Fraction matrix of grid-ceiling-rounded distances between 2-D points."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    return [[sqrt_ceil_grid((xa - xb) ** 2 + (ya - yb) ** 2, grid) for xb, yb in pts]
            for xa, ya in pts]


def _pruefer_tree(seq, labels):
    # Decode a Pruefer sequence over `labels` into an edge list.
    n = len(labels)
    degree = {v: 1 for v in labels}
    for v in seq:
        degree[v] += 1
    edges = []
    used = set()
    for v in seq:
        leaf = min(u for u in labels if degree[u] == 1 and u not in used)
        edges.append((leaf, v))
        used.add(leaf)
        degree[v] -= 1
    last = [u for u in labels if u not in used and degree[u] == 1]
    edges.append((last[0], last[1]))
    return edges


def brute_mst(cost, subset):
    """Minimum spanning tree cost by enumerating *all* spanning trees.

    Pruefer sequences give exactly the k^(k-2) labelled trees on k vertices,
    so this is only usable for small subsets (k <= 7 or so).
    """
    labels = sorted(subset)
    k = len(labels)
    if k <= 1:
        return Fraction(0)
    if k == 2:
        return cost[labels[0]][labels[1]]
    best = None
    for seq in itertools.product(labels, repeat=k - 2):
        total = Fraction(0)
        for u, v in _pruefer_tree(list(seq), labels):
            total += cost[u][v]
        if best is None or total < best:
            best = total
    return best


def hypothetical_share(cost, usage, counts, own_path, path):
    """Shared cost of `path` for a single deviating/arriving agent.

    `own_path` is the agent's current path (or None): edges already on it keep
    their user count, every other edge gains one user.
    """
    own = set(path_edges(own_path)) if own_path else set()
    total = Fraction(0)
    for e in path_edges(path):
        n = usage.get(e, 0)
        total += cost[e[0]][e[1]] / (n if e in own else n + 1)
    return total


def fresh_edge_count(usage, counts, source, own_path, path):
    """Number of edges on `path` used by nobody except `source` itself."""
    own = set(path_edges(own_path)) if own_path else set()
    k = counts.get(source, 0)
    fresh = 0
    for e in path_edges(path):
        others = usage.get(e, 0) - (k if e in own else 0)
        if others == 0:
            fresh += 1
    return fresh


def enumerate_best_response(cost, counts, paths, source, allowed=None, start=None):
    """Exhaustive best response: try every simple path from source to the root.

    Returns ``(share, fresh, path)`` minimizing the triple
    (share, fresh, vertex-id sequence).  `allowed` restricts which vertices may
    appear (defaults to everything in the matrix).  With `start`, the paths
    begin at `start` instead, still priced for the agent at `source` (its own
    path keeps its user counts): the replacement of a segment above `start`.
    """
    n = len(cost)
    nodes = set(range(n)) if allowed is None else set(allowed)
    usage = usage_from_paths(paths, counts)
    own_path = paths.get(source)
    start = source if start is None else start
    best = None

    def walk(prefix, seen):
        last = prefix[-1]
        if last == ROOT:
            share = hypothetical_share(cost, usage, counts, own_path, prefix)
            fresh = fresh_edge_count(usage, counts, source, own_path, prefix)
            key = (share, fresh, tuple(prefix))
            nonlocal best
            if best is None or key < best:
                best = key
            return
        for nxt in sorted(nodes - seen):
            prefix.append(nxt)
            seen.add(nxt)
            walk(prefix, seen)
            seen.discard(nxt)
            prefix.pop()

    walk([start], {start})
    share, fresh, path = best
    return share, fresh, path


def tree_parent_map(paths):
    """Parent pointers implied by a set of root-terminated paths.

    Raises ValueError if two paths disagree (i.e. the union is not a tree).
    """
    parent = {}
    for path in paths.values():
        for child, par in zip(path, path[1:]):
            if child in parent and parent[child] != par:
                raise ValueError(f"paths disagree on parent of {child}")
            parent[child] = par
    return parent


def subtree_from_paths(paths, u):
    """u's subtree read off the paths: u and every x that some path holds
    before u."""
    below = {u}
    for path in paths.values():
        if u in path:
            below.update(path[:path.index(u)])
    return below


def lca_from_paths(paths, a, b):
    """The first vertex that the root paths of a and b share, each root path
    being the tail from that vertex of a path holding it (0 alone for 0)."""
    def root_path(x):
        return next((p[p.index(x):] for p in paths.values() if x in p), (0,))

    above = set(root_path(b))
    return next(x for x in root_path(a) if x in above)


def reroute_subtree(paths, u, v):
    """Recompute all paths after u swaps its parent edge for (u, v).

    Every terminal whose path passes through u keeps its segment up to u and
    then follows v's (old) path to the root.  Everyone else is untouched.
    """
    parent = tree_parent_map(paths)
    tail = [v]
    while tail[-1] != ROOT:
        tail.append(parent[tail[-1]])
    new_paths = {}
    for t, path in paths.items():
        if u in path:
            cut = path.index(u)
            new_paths[t] = tuple(path[: cut + 1]) + tuple(tail)
        else:
            new_paths[t] = tuple(path)
    return new_paths


def brute_improving_tree_move(cost, counts, paths, u, v):
    """Is rerouting u's subtree onto v strictly better for a witness terminal?

    Witness accounting: a deviating terminal keeps the current user count on
    every edge its own path already uses and pays c_e/(N_e + 1) on each newly
    adopted edge.  The saving is the same whichever terminal through u plays
    witness (they share the rerouted segment), but we recompute it for every
    one and insist the verdicts agree.
    """
    usage = usage_from_paths(paths, counts)
    new_paths = reroute_subtree(paths, u, v)
    verdicts = set()
    for t, path in paths.items():
        if u not in path:
            continue
        old_share = shared_cost_of(cost, usage, path)
        new_share = hypothetical_share(cost, usage, counts, path, new_paths[t])
        verdicts.add(new_share < old_share)
    if not verdicts:
        raise ValueError(f"no terminal routes through {u}")
    if len(verdicts) != 1:
        raise AssertionError("witnesses disagree -- not a tree move?")
    return verdicts.pop()


def recompute_potential(cost, usage):
    """Rosenthal potential: sum over edges of c_e * (1 + 1/2 + ... + 1/N_e)."""
    return sum((cost[a][b] * _harmonic_fraction(n) for (a, b), n in usage.items()),
               Fraction(0))


def harmonic_fractions(kmax):
    """[H_0, H_1, ..., H_kmax], each summed as plain Fractions."""
    out = [Fraction(0)]
    for k in range(1, kmax + 1):
        out.append(out[-1] + Fraction(1, k))
    return out


_HARMONIC = [Fraction(0)]  # H_k as summed by harmonic_fractions, kept across calls


def _harmonic_fraction(n):
    """H_n as a plain Fraction sum, extended on demand and kept, so that
    edge counts in the thousands cost one summation per run, not per edge."""
    if n >= len(_HARMONIC):
        _HARMONIC[:] = harmonic_fractions(n)
    return _HARMONIC[n]


def shared_cost_of(cost, usage, path):
    total = Fraction(0)
    for a, b in zip(path, path[1:]):
        e = (a, b) if a < b else (b, a)
        total += cost[a][b] / usage[e]
    return total


def greedy_partition(cost, inserted, radius):
    """First-fit online clustering: join the oldest component whose founding
    center is strictly within `radius`, else found a new one.

    Returns (centers, members, of) built with exact arithmetic only.
    """
    centers, members, of = [], [], {}
    for v in inserted:
        for idx, c in enumerate(centers):
            if cost[c][v] < radius:
                members[idx].append(v)
                of[v] = idx
                break
        else:
            of[v] = len(centers)
            centers.append(v)
            members.append([v])
    return centers, members, of


@functools.lru_cache(maxsize=1 << 14)  # costs repeat across the states of a run
def floor_log2_exact(value):
    """Largest j with 2^j <= value, by exact Fraction comparisons (value > 0)."""
    if value <= 0:
        raise ValueError(f"log2 of a non-positive value {value}")
    j = value.numerator.bit_length() - value.denominator.bit_length()  # a start
    while Fraction(2) ** (j + 1) <= value:
        j += 1
    while Fraction(2) ** j > value:
        j -= 1
    return j


def ceil_log2_exact(value):
    """Smallest j with value <= 2^j (value > 0): -floor_log2_exact(1 / value)."""
    return -floor_log2_exact(1 / Fraction(value))


def charge_level(cost):
    """The level an edge of this cost charges: j with 2^(j+2) <= cost < 2^(j+3)."""
    return floor_log2_exact(cost) - 2


def distance_levels(instance, vertices, pad=0):
    """Levels floor(log2 m) - 4 - pad through ceil(log2 M) + 1 + pad, with m
    and M the least and greatest distance among `vertices` (no levels for
    fewer than two).  First-fit over the vertices is forced outside
    floor(log2 m) + 2 .. ceil(log2 M) + 1: below, the radius 2^(j-1) is at
    most m and every vertex is its own component; above, the radius exceeds
    M and every vertex joins the first."""
    dists = [instance.cost(a, b) for a, b in itertools.combinations(vertices, 2)]
    if not dists:
        return range(0)
    return range(floor_log2_exact(min(dists)) - 4 - pad,
                  ceil_log2_exact(max(dists)) + 2 + pad)


def level_members(lp):
    """Each component's vertices in a stored level, in insertion order, as
    its `of` map lists them (that map is filled in insertion order)."""
    members = [[] for _ in lp.centers]
    for v, idx in lp.of.items():
        members[idx].append(v)
    return members


def component_members(family, v, j):
    """The vertices of v's level-j component in a dual family."""
    _, idx = family.component_of(v, j)  # raises for a vertex never inserted
    return tuple(level_members(family.levels[j])[idx])


def rebuild_charges(cost, paths, component_of):
    """The whole charge map of a tree routing, rebuilt from scratch.

    Every tree vertex u charges its parent edge, of cost c, at the level j
    with 2^(j+2) <= c < 2^(j+3), to the cut ``component_of(u, j)``.
    Returns the records ``(u, j, cut, c, leaf)`` in vertex-id order and the
    cut -> records index, each cut's records in vertex-id order.
    """
    parent = tree_parent_map(paths)
    has_child = set(parent.values())
    records = []
    for u in sorted(parent):
        c = cost[u][parent[u]]
        j = charge_level(c)
        records.append((u, j, component_of(u, j), c, u not in has_child))
    by_cut = {}
    for rec in records:
        by_cut.setdefault(rec[2], []).append(rec)
    return records, by_cut


def eager_prefix_sums(paths, usage, costi, denominator):
    """(den, A, B) of a tree routing, as one eager pass builds them.

    A(x) and B(x) sum c_e/N_e and c_e/(N_e+1) along x -> root, as ints over
    den = D * lcm{N_e, N_e+1}, with N_e the edge's ``usage`` count and D the
    cost denominator of the integer costs ``costi``.
    """
    parent = tree_parent_map(paths)
    users = {x: usage[tuple(sorted((x, p)))] for x, p in parent.items()}
    den = denominator * math.lcm(*{k for n in users.values() for k in (n, n + 1)})
    scale = den // denominator
    sums = {ROOT: (0, 0)}

    def walk(x):
        if x not in sums:
            a, b = walk(parent[x])
            c, n = int(costi[x][parent[x]]), users[x]
            sums[x] = (a + c * (scale // n), b + c * (scale // (n + 1)))
        return sums[x]

    for x in parent:
        walk(x)
    return (den, *({x: s[i] for x, s in sums.items()} for i in range(2)))


def row_scan_first_improving(order, screen, in_subtree, improves):
    """First (u, v) by rows of the screen's mask whose move improves, or None.

    ``screen`` is (mask, cols).  Walks ``mask`` row by row (``order[i]`` is
    row i, the root first and skipped; ``cols[j]`` is column j), keeps each
    row's True entries, drops targets inside u's subtree, and asks
    ``improves(u, v)`` in order.
    """
    mask, cols = screen
    for i, u in enumerate(order):
        if u == ROOT:
            continue
        for j, kept in enumerate(mask[i]):
            v = cols[j]
            if kept and not in_subtree(v, u) and improves(u, v):
                return u, v
    return None


def check_invariants(family):
    """Re-verify every stored level of a dual family; asserts on any breach.

    First queries every level of `distance_levels` over the inserted
    vertices, so the levels where first-fit is not forced are always among
    those checked, even in a family nobody has queried yet.

    Level j partitions the inserted vertices into components (read from
    its `of` map, `level_members`), each listed from its founding center; every member lies closer than 2^(j-1) to its
    center, every component's diameter is below 2^j, and any two centers
    are at least 2^(j-1) apart.  Compared exactly on the integer costs
    ``costi`` over their denominator D, pair by pair.
    """
    costi, den = family.instance.costi, family.instance.denominator

    def at_least(a, b, j):  # c(a, b) >= 2^j
        c = int(costi[a][b])
        return (den << j) <= c if j >= 0 else den <= (c << -j)

    for j in distance_levels(family.instance, family.inserted):
        family.num_components(j)
    for j, lp in sorted(family.levels.items()):
        seen = {}
        for idx, mem in enumerate(level_members(lp)):
            assert mem and mem[0] == lp.centers[idx], (
                f"level {j} component {idx} lost its founding center")
            for v in mem:
                assert v not in seen and lp.of.get(v) == idx, (
                    f"level {j}: vertex {v} is not in exactly one component")
                seen[v] = idx
                assert not at_least(mem[0], v, j - 1), (
                    f"level {j}: member {v} strays >= 2^{j - 1} from its center")
            for a, b in itertools.combinations(mem, 2):
                assert not at_least(a, b, j), f"level {j}: component {idx} has diameter >= 2^{j}"
        assert set(seen) == set(family.inserted), f"level {j} does not partition the vertices"
        for a, b in itertools.combinations(lp.centers, 2):
            assert at_least(a, b, j - 1), f"level {j}: centers {a},{b} too close"
