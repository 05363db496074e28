"""Exact finite metrics: construction, closure, MST.

A `MetricInstance` is a complete metric over vertices 0..n-1 (n >= 1) with
exact rational distances; vertex 0 is always the broadcast root.  Instances
come from three constructors (the closure of a positively-weighted graph,
grid-rounded Euclidean point sets, or an explicit matrix) and never change;
revealing vertices to the dynamics is the routing state's business.

The distances live in one integer matrix, `costi`, with
costi[u, v] = c(u, v) * D over the smallest common denominator D
(`denominator`).  Each constructor computes it on ints alone.  `cost(u, v)`
builds the exact Fraction costi[u, v] / D on demand: the API and every
artifact see only these.  The exact kernels in `routing` and `duals` read
`costi` directly, so how integer costs are stored is decided here alone.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import ConfigError, MetricError
from .rationals import format_rational, parse_rational

ROOT = 0

EUCLIDEAN_GRID = 10**6

#: Entries per row block of the vectorized Euclidean build.
_BLOCK = 1 << 16


class MetricInstance:
    """Immutable complete metric over vertices 0..n-1 (0 is the root).

    `costi` is int64 when every entry fits, object dtype (Python ints)
    otherwise; read entries through ``int(...)`` so both behave alike.
    c(u, v) over any multiple L of D is ``int(costi[u, v]) * (L // D)``.
    The constructors below have checked that the matrix is a metric.
    """

    __slots__ = ("n", "kind", "meta", "costi", "denominator")

    def __init__(self, costi, denominator, kind, meta):
        self.n = len(costi)
        self.kind = kind
        self.meta = meta
        self.costi, self.denominator = _lowest_terms(costi, denominator)

    def cost(self, u, v) -> Fraction:
        return Fraction(int(self.costi[u, v]), self.denominator)

    def __repr__(self):
        return f"MetricInstance(n={self.n}, kind={self.kind!r})"


def _lowest_terms(costi, den):
    """(costi // g, den // g), g the gcd of den and every entry; int64 when
    every entry fits."""
    g = den
    for row in costi:
        if (g := math.gcd(g, int(np.gcd.reduce(row)))) == 1:
            break
    if g > 1:
        costi = costi // g
    if costi.dtype == object and costi.max() < 2**63:
        costi = costi.astype(np.int64)
    return costi, den // g


def _need_root(n) -> None:
    if n < 1:
        raise MetricError(f"an instance needs at least the root vertex, got n={n}")


def _check_triangle(costi) -> None:
    """Verify d(i,j) <= d(i,k) + d(k,j) for all triples, exactly.

    On int64 while every two-term sum fits, on Python ints otherwise.
    """
    costi = costi.astype(np.int64 if costi.max() < 2**62 else object)
    for k in range(len(costi)):
        bad = np.argwhere(costi[:, k][:, None] + costi[k, :][None, :] < costi)
        if len(bad):
            i, j = (int(x) for x in bad[0])
            raise MetricError(
                f"triangle inequality fails: d({i},{j}) > d({i},{k}) + d({k},{j})"
            )


def metric_closure(n, weighted_edges) -> MetricInstance:
    """Shortest-path closure of a connected, positively weighted graph.

    `weighted_edges` holds (u, v, cost) with exact rationals, read as ints
    over D, the lcm of their denominators.  The closure is an exact
    Floyd-Warshall (Floyd 1962; Warshall 1962), in place on one n x n
    matrix of such ints, which becomes `costi`:

    - Sentinel: with S the sum of the edge ints, every shortest distance is
      at most S, so a non-edge starts at S + 1 and no path through one
      beats a real path; an entry still above S at the end means the graph
      is disconnected.
    - Dtype: a relaxation adds two entries, each at most S + 1, so the loop
      runs in int64 iff 2(S + 1) < 2^63, on Python ints otherwise; the
      result is int64 iff its largest entry is below 2^63 (`_lowest_terms`).
    - Parallel edges keep their least weight.
    - Fewer than n - 1 edges are refused before any n-sized allocation.

    Shortest-path distances meet the triangle inequality, so the result is
    a metric by construction and skips re-validation.
    """
    _need_root(n)
    edges = []
    for u, v, c in weighted_edges:
        c = Fraction(c)
        if not (0 <= u < n and 0 <= v < n):
            raise ConfigError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ConfigError(f"self-loop at vertex {u}")
        if c <= 0:
            raise ConfigError(f"edge ({u},{v}) has non-positive cost {format_rational(c)}")
        edges.append((u, v, c))
    if len(edges) < n - 1:  # refused before the n x n matrix exists
        raise MetricError("weighted graph is disconnected; closure undefined")

    den = math.lcm(*(c.denominator for _, _, c in edges))
    ints = [c.numerator * (den // c.denominator) for _, _, c in edges]
    top = sum(ints)  # S
    d = np.full((n, n), top + 1, dtype=np.int64 if 2 * (top + 1) < 2**63 else object)
    np.fill_diagonal(d, 0)
    for (u, v, _), w in zip(edges, ints):
        if w < d[u, v]:
            d[u, v] = d[v, u] = w
    via = np.empty_like(d)
    for k in range(n):  # d stays symmetric, so row k is also column k
        np.add(d[k, :, None], d[k], out=via)
        np.minimum(d, via, out=d)
    if d.max() > top:
        raise MetricError("weighted graph is disconnected; closure undefined")

    meta = {"edges": [[u, v, format_rational(c)] for u, v, c in edges]}
    return MetricInstance(d, den, "weighted-graph", meta)


def euclidean_instance(points) -> MetricInstance:
    """Metric over 2-D rational points, distances ceiling-rounded to 1/G.

    G is EUCLIDEAN_GRID.  Rounding *up* to the grid is deliberate:
    ceil(a) <= ceil(b) + ceil(c) whenever a <= b + c, so distances rounded
    this way still satisfy the triangle inequality, which floor or nearest
    rounding can break on near-collinear triples; no re-validation pass is
    needed.  Duplicate points would create zero distances and are rejected.

    With the coordinates as ints over the lcm L of their denominators and s
    a squared distance on that scale, costi over G holds the smallest k
    with k^2 >= s (G/L)^2.  When L divides G the points have integer grid
    coordinates, and while squared grid distances stay below 2^62 the build
    is vectorized (`_grid_ceil_sqrt`); otherwise each k is `math.isqrt`'s.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    _need_root(len(pts))
    if len(set(pts)) != len(pts):
        raise MetricError("duplicate points produce zero distances")
    n = len(pts)
    grid = EUCLIDEAN_GRID
    lcm = math.lcm(*(c.denominator for p in pts for c in p))
    xs = [x.numerator * (lcm // x.denominator) for x, _ in pts]
    ys = [y.numerator * (lcm // y.denominator) for _, y in pts]
    meta = {"points": [[format_rational(x), format_rational(y)] for x, y in pts]}
    if grid % lcm == 0:
        r = grid // lcm
        gx, gy = [x * r for x in xs], [y * r for y in ys]
        if (max(gx) - min(gx)) ** 2 + (max(gy) - min(gy)) ** 2 < 2**62:
            return MetricInstance(_grid_ceil_sqrt(gx, gy), grid, "euclidean", meta)
    scale, l2 = grid * grid, lcm * lcm
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dx, dy = xs[i] - xs[j], ys[i] - ys[j]
            target = -(-(dx * dx + dy * dy) * scale // l2)  # ceil(s G^2 / L^2)
            k = math.isqrt(target)
            rows[i][j] = rows[j][i] = k if k * k == target else k + 1
    return MetricInstance(np.array(rows, dtype=object), grid, "euclidean", meta)


def _grid_ceil_sqrt(xs, ys) -> np.ndarray:
    """ceil(sqrt(dx^2 + dy^2)) for every pair of integer points, on int64.

    Requires every squared distance s below 2^62, so K = ceil(sqrt(s)) is at
    most 2^31.  Float rounding is monotone and rounds K^2 back to K through
    the root, so the float root r of s is at most K; r is also within 2^-21
    of sqrt(s), so ceil(r) >= K - 1, and one exact step up fixes it.  Built
    a block of rows at a time, so no n x n temporaries pile up.
    """
    x = np.array(xs, dtype=np.int64)
    y = np.array(ys, dtype=np.int64)
    n = len(xs)
    out = np.empty((n, n), dtype=np.int64)
    step = max(1, _BLOCK // n)
    for lo in range(0, n, step):
        dx = x[lo:lo + step, None] - x
        dy = y[lo:lo + step, None] - y
        s = dx * dx + dy * dy
        k = np.ceil(np.sqrt(s)).astype(np.int64)
        k += k * k < s
        out[lo:lo + step] = k
    return out


def explicit_metric(n, pair_costs) -> MetricInstance:
    """Metric from explicit pairwise costs {(u, v): Fraction} (u < v).

    Fully validated: symmetry comes from the keying, positivity and the
    triangle inequality are checked exactly.
    """
    _need_root(n)
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
    for (a, b), c in sorted(pairs.items()):
        if c <= 0:
            raise MetricError(f"non-positive distance between {a} and {b}")
    den = math.lcm(*(c.denominator for c in pairs.values()))
    rows = [[0] * n for _ in range(n)]
    for (a, b), c in pairs.items():
        rows[a][b] = rows[b][a] = c.numerator * (den // c.denominator)
    costi = np.array(rows, dtype=object)
    _check_triangle(costi)
    meta = {
        "costs": [[a, b, format_rational(pairs[a, b])] for a in range(n) for b in range(a + 1, n)]
    }
    return MetricInstance(costi, den, "metric", meta)


def mst_cost(instance, vertex_subset) -> Fraction:
    """Exact minimum spanning tree cost over a subset of vertices: Prim on
    the subset's integer block, in `costi`'s dtype; ties may go either way."""
    nodes = sorted(set(vertex_subset))
    if any(not 0 <= v < instance.n for v in nodes):
        raise ConfigError(f"subset {nodes} out of range for n={instance.n}")
    if len(nodes) <= 1:
        return Fraction(0)
    block = instance.costi[np.ix_(nodes, nodes)]
    left = np.arange(1, len(nodes))  # the open vertices: the first k
    best = block[0, 1:].copy()  # each one's cheapest link to the tree
    total, k = 0, len(left)
    while k:
        i = int(best[:k].argmin())
        total += int(best[i])
        v, k = left[i], k - 1
        left[i], best[i] = left[k], best[k]  # the last open one takes i's place
        np.minimum(best[:k], block[v, left[:k]], out=best[:k])
    return Fraction(total, instance.denominator)


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
