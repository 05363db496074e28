"""Exact finite metrics: construction, closure, MST.

A `MetricInstance` is a complete metric over vertices 0..n-1 with exact
Fraction distances; vertex 0 is always the broadcast root.  Instances come
from three constructors (the closure of a positively-weighted graph, grid-
rounded Euclidean point sets, or an explicit matrix) and never change;
revealing vertices to the dynamics is the routing state's business.

Each instance carries its distances in three representations:

- the exact Fraction matrix, read through `cost(u, v)`: the API and every
  artifact see only these;
- the integer matrix `costi`, with costi[u, v] = c(u, v) * D over the common
  denominator D (`denominator`), built on first use.  The exact kernels in
  `routing` read it instead of taking Fractions apart, so how integer costs
  are stored is decided here alone;
- the float64 mirror `costf`, used strictly as a conservative pre-filter (see
  `float_margin`): any comparison the mirror cannot settle by more than the
  margin is re-done exactly, and nothing is ever decided by floats alone.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

import numpy as np

from .errors import ConfigError, MetricError
from .rationals import format_rational, parse_rational, sqrt_ceil_grid

ROOT = 0

#: Relative slack under which float comparisons defer to exact arithmetic.
#: Path-length sums here accumulate well under 1e-12 relative error, so 1e-9
#: leaves three orders of magnitude of headroom.
MARGIN_REL = 1e-9

EUCLIDEAN_GRID = 10**6


class MetricInstance:
    """Immutable complete metric over vertices 0..n-1 (0 is the root)."""

    __slots__ = ("n", "kind", "meta", "_cost", "_costf", "float_margin", "_denominator",
                 "_costi")

    def __init__(self, cost_rows, kind, meta, *, _validated=False):
        self.n = len(cost_rows)
        self.kind = kind
        self.meta = meta
        self._cost = cost_rows
        self._denominator = None
        self._costi = None
        self._costf = np.array([[float(c) for c in row] for row in cost_rows], dtype=np.float64)
        scale = float(self._costf.max()) if self.n > 1 else 1.0
        self.float_margin = MARGIN_REL * max(1.0, scale)
        if not _validated:
            _check_metric(cost_rows, self._costf, self.float_margin)

    def cost(self, u, v) -> Fraction:
        return self._cost[u][v]

    @property
    def denominator(self) -> int:
        """D, the lcm of every cost's denominator, computed on first use."""
        if self._denominator is None:
            self._denominator = math.lcm(*{c.denominator for row in self._cost for c in row})
        return self._denominator

    @property
    def costi(self) -> np.ndarray:
        """The integer matrix c(u, v) * D, built on first use.

        int64 when every entry fits, object dtype (Python ints) otherwise;
        read entries through ``int(...)`` so both behave alike.  c(u, v) over
        any multiple L of D is ``int(costi[u, v]) * (L // D)``.
        """
        if self._costi is None:
            d = self.denominator
            rows = [[c.numerator * (d // c.denominator) for c in row] for row in self._cost]
            top = max((max(row) for row in rows), default=0)
            self._costi = np.array(rows, dtype=np.int64 if top < 2**63 else object)
        return self._costi

    @property
    def costf(self) -> np.ndarray:
        """Float mirror of the distance matrix. Pre-filtering only."""
        return self._costf

    def vertices(self):
        return range(self.n)

    def __repr__(self):
        return f"MetricInstance(n={self.n}, kind={self.kind!r})"


def _check_metric(rows, costf, margin):
    n = len(rows)
    for i in range(n):
        if len(rows[i]) != n:
            raise MetricError(f"row {i} has length {len(rows[i])}, expected {n}")
        if rows[i][i] != 0:
            raise MetricError(f"nonzero self-distance at vertex {i}")
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise MetricError(f"asymmetric distance between {i} and {j}")
            if rows[i][j] <= 0:
                raise MetricError(f"non-positive distance between {i} and {j}")
    _check_triangle(rows, costf, margin)


def _check_triangle(rows, costf, margin):
    """Verify d(i,j) <= d(i,k) + d(k,j) for all triples.

    The float mirror rules out the overwhelming majority of triples; anything
    within the margin is confirmed exactly.
    """
    n = len(rows)
    if n < 3:
        return
    for k in range(n):
        # slack[i, j] = d(i,k) + d(k,j) - d(i,j); suspicious when < margin
        slack = costf[:, k][:, None] + costf[k, :][None, :] - costf
        sus = np.argwhere(slack < margin)
        for i, j in sus:
            i, j = int(i), int(j)
            if i == k or j == k or i == j:
                continue
            if rows[i][j] > rows[i][k] + rows[k][j]:
                raise MetricError(
                    f"triangle inequality fails: d({i},{j}) > d({i},{k}) + d({k},{j})"
                )


def metric_closure(n, weighted_edges) -> MetricInstance:
    """Shortest-path closure of a connected, positively weighted graph.

    `weighted_edges` is an iterable of (u, v, cost) with exact Fractions.
    The closure is computed with exact Dijkstra (Fractions order fine in a
    heap), so the result is a metric by construction and skips re-validation.
    """
    adj = [[] for _ in range(n)]
    edges = []
    for u, v, c in weighted_edges:
        c = Fraction(c)
        if not (0 <= u < n and 0 <= v < n):
            raise ConfigError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ConfigError(f"self-loop at vertex {u}")
        if c <= 0:
            raise ConfigError(f"edge ({u},{v}) has non-positive cost {c}")
        adj[u].append((v, c))
        adj[v].append((u, c))
        edges.append((u, v, c))

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
            raise MetricError("weighted graph is disconnected; closure undefined")
        rows.append([dist[v] for v in range(n)])

    meta = {"edges": [[u, v, format_rational(c)] for u, v, c in edges]}
    return MetricInstance(rows, "weighted-graph", meta, _validated=True)


def euclidean_instance(points) -> MetricInstance:
    """Metric over 2-D rational points, distances ceiling-rounded to 1/10^6.

    Rounding *up* preserves the triangle inequality exactly (see
    sqrt_ceil_grid), so no re-validation pass is needed.  Duplicate points
    would create zero distances and are rejected.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    if len(set(pts)) != len(pts):
        raise MetricError("duplicate points produce zero distances")
    n = len(pts)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        xi, yi = pts[i]
        for j in range(i + 1, n):
            dx = xi - pts[j][0]
            dy = yi - pts[j][1]
            d = sqrt_ceil_grid(dx * dx + dy * dy, EUCLIDEAN_GRID)
            rows[i][j] = rows[j][i] = d
    meta = {"points": [[format_rational(x), format_rational(y)] for x, y in pts]}
    return MetricInstance(rows, "euclidean", meta, _validated=True)


def explicit_metric(n, pair_costs) -> MetricInstance:
    """Metric from explicit pairwise costs {(u, v): Fraction} (u < v).

    Fully validated: symmetry comes from the keying, positivity and the
    triangle inequality are checked.
    """
    pairs = {}
    for (u, v), c in pair_costs.items():
        a, b = (u, v) if u < v else (v, u)
        if not (0 <= a < b < n):
            raise ConfigError(f"bad vertex pair ({u},{v}) for n={n}")
        if (a, b) in pairs:
            raise ConfigError(f"duplicate cost for pair ({a},{b})")
        pairs[a, b] = Fraction(c)
    # checked before the n x n matrix exists, so a large n with few pairs
    # is refused at the size of its input
    if len(pairs) != n * (n - 1) // 2:
        raise ConfigError("explicit metric must specify every vertex pair")
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (a, b), c in pairs.items():
        rows[a][b] = rows[b][a] = c
    meta = {
        "costs": [[a, b, format_rational(rows[a][b])] for a in range(n) for b in range(a + 1, n)]
    }
    return MetricInstance(rows, "metric", meta)


def mst_cost(instance, vertex_subset) -> Fraction:
    """Exact minimum spanning tree cost over a subset of vertices (Prim)."""
    nodes = sorted(set(vertex_subset))
    if any(not 0 <= v < instance.n for v in nodes):
        raise ConfigError(f"subset {nodes} out of range for n={instance.n}")
    if len(nodes) <= 1:
        return Fraction(0)
    cost = instance._cost
    in_tree = {nodes[0]}
    best = {v: cost[nodes[0]][v] for v in nodes[1:]}
    total = Fraction(0)
    while best:
        v = min(best, key=lambda x: (best[x], x))
        total += best.pop(v)
        in_tree.add(v)
        row = cost[v]
        for u in best:
            if row[u] < best[u]:
                best[u] = row[u]
    return total


# ---------------------------------------------------------------------------
# serialization

def instance_to_dict(instance) -> dict:
    out = {"kind": instance.kind, "n": instance.n}
    out.update(instance.meta)
    return out


def _field(data, kind, key):
    if key not in data:
        raise ConfigError(f"{kind} instance needs a {key!r} field")
    return data[key]


def _rows(data, kind, key, arity):
    """data[key] as a list of `arity`-field rows; ConfigError otherwise."""
    rows = _field(data, kind, key)
    if not isinstance(rows, list):
        raise ConfigError(f"{kind} instance field {key!r} must be a list")
    for row in rows:
        if not isinstance(row, list) or len(row) != arity:
            raise ConfigError(f"malformed {key!r} row {row!r}: expected {arity} fields")
    return rows


def _int(value, what):
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def _ints(value, what) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list of integers, got {value!r}")
    return [_int(v, f"{what} entry") for v in value]


def instance_from_dict(data) -> MetricInstance:
    try:
        kind = data["kind"]
    except (KeyError, TypeError):
        raise ConfigError("instance object needs a 'kind' field") from None
    if kind == "euclidean":
        pts = [(parse_rational(x), parse_rational(y))
               for x, y in _rows(data, kind, "points", 2)]
        return euclidean_instance(pts)
    if kind == "weighted-graph":
        edges = [(_int(u, "edge endpoint"), _int(v, "edge endpoint"), parse_rational(c))
                 for u, v, c in _rows(data, kind, "edges", 3)]
        return metric_closure(_int(_field(data, kind, "n"), "n"), edges)
    if kind == "metric":
        pairs = {(_int(u, "cost endpoint"), _int(v, "cost endpoint")): parse_rational(c)
                 for u, v, c in _rows(data, kind, "costs", 3)}
        return explicit_metric(_int(_field(data, kind, "n"), "n"), pairs)
    raise ConfigError(f"unknown instance kind {kind!r}")
