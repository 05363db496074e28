"""Exact-arithmetic helpers and metric construction."""

import json
import math
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from costshare import (
    ConfigError,
    MetricError,
    euclidean_instance,
    explicit_metric,
    format_rational,
    instance_from_dict,
    instance_to_dict,
    metric_closure,
    mst_cost,
    metric,
    parse_rational,
)
import costshare.rationals
from costshare.instances import build_gm, build_steiner_gap_fixture
from costshare.metric import EUCLIDEAN_GRID
from costshare.rationals import floor_log2_ratio, harmonic, pow2, within_log_gate
from conftest import big_denominator_metric, random_metric
from oracles import (
    brute_mst,
    ceil_log2_exact,
    dijkstra_closure,
    euclidean_costs,
    floor_log2_exact,
    floyd_warshall,
    harmonic_fractions,
    sqrt_ceil_grid,
)

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4
)
positive_rationals = st.fractions(
    min_value=Fraction(1, 10**4), max_value=Fraction(10**6), max_denominator=10**4
)


# ---------------------------------------------------------------------------
# rationals


@given(rationals)
def test_rational_string_round_trip(x):
    assert parse_rational(format_rational(x)) == x


def test_rational_round_trip_past_the_int_digit_limit():
    # Python refuses int/str conversions past 4,300 digits by default; the
    # round trip lifts that limit around its own conversion alone.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before, ones = limit(), (10**5000 - 1) // 9  # 5,000 digits, all 1
    for x in (Fraction(10**5000 + 1, 3), Fraction(-7, 10**5000 - 1), Fraction(ones)):
        assert parse_rational(format_rational(x)) == x
    assert parse_rational("1" * 5000) == ones
    assert limit() == before


def test_parse_rational_accepts_ints_and_strings():
    assert parse_rational(7) == 7
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational(" 5/10 ") == Fraction(1, 2)


@pytest.mark.parametrize("bad", [True, 1.5, None, "1/0", "x", "3.5/2", [1],
                                 "0.5", "1e3", "2E-1", "1/2e1", "1_000", "½"])
def test_parse_rational_rejects_junk(bad):
    with pytest.raises(ConfigError):
        parse_rational(bad)


@given(positive_rationals)
def test_floor_log2_brackets_value(x):
    j = floor_log2_exact(x)
    assert pow2(j) <= x < pow2(j + 1)


@given(positive_rationals)
def test_ceil_log2_brackets_value(x):
    j = ceil_log2_exact(x)
    assert pow2(j - 1) < x <= pow2(j)


def test_log2_known_values():
    assert floor_log2_exact(Fraction(1)) == 0
    assert floor_log2_exact(Fraction(1, 2)) == -1
    assert floor_log2_exact(Fraction(9)) == 3
    assert floor_log2_exact(Fraction(1, 3)) == -2
    assert ceil_log2_exact(Fraction(8)) == 3
    assert ceil_log2_exact(Fraction(9)) == 4


@given(positive_rationals, st.integers(min_value=1, max_value=10**9))
def test_log2_of_an_unreduced_ratio(x, k):
    p, q = x.numerator * k, x.denominator * k
    assert floor_log2_ratio(p, q) == floor_log2_exact(x)


def test_floor_log2_rejects_nonpositive():
    with pytest.raises(ValueError):
        floor_log2_exact(Fraction(0))
    with pytest.raises(ValueError):
        floor_log2_exact(Fraction(-3))


def _log_gate(n, digits=200):
    """32 (log2 n + 1) as a Decimal of `digits` significant digits, exact
    at a power of two."""
    if n & (n - 1) == 0:
        return Decimal(32 * n.bit_length())
    with localcontext() as ctx:
        ctx.prec = digits
        return 32 * (Decimal(n).ln() / Decimal(2).ln() + 1)


def test_log_gate_matches_a_high_precision_decimal():
    # Random rationals against 32 (log2 n + 1): far from it, within 10^-k
    # of it for k up to 60 on either side, and at powers of two exactly on
    # it.  The Decimal oracle keeps 200 digits, so it decides every case
    # whose distance to the gate exceeds 10^-150, and every case here has.
    rng = random.Random(26300)
    seen = Counter()
    for k in range(3000):
        n = (rng.randint(1, 50), rng.randint(1, 10**6), 1 << rng.randint(0, 40))[k % 3]
        gate = _log_gate(n)
        if k % 5 == 0:
            ratio = Fraction(rng.randint(0, 10**7), rng.randint(1, 10**4))
        elif n & (n - 1) == 0 and k % 5 == 1:
            ratio = Fraction(32 * n.bit_length())  # exactly on the gate
        else:
            ratio = Fraction(gate) + Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), 10 ** rng.randint(1, 60))
        with localcontext() as ctx:
            ctx.prec = 200
            gap = Decimal(ratio.numerator) / Decimal(ratio.denominator) - gate
        assert gap == 0 or abs(gap) > Decimal(10) ** -150
        assert within_log_gate(ratio, n) == (gap <= 0), (ratio, n)
        seen[gap <= 0, abs(gap) < 1] += 1
    assert min(seen[key] for key in ((True, True), (False, True), (True, False), (False, False))) >= 100, seen


def test_harmonic_small_values():
    assert Fraction(*harmonic(0)) == 0
    assert Fraction(*harmonic(1)) == 1
    assert Fraction(*harmonic(3)) == Fraction(11, 6)


def test_harmonic_matches_plain_fraction_sums():
    # L_k grows past L_{k-1} exactly at a prime power k.
    for k, want in enumerate(harmonic_fractions(400)):
        P, L = harmonic(k)
        assert Fraction(P, L) == want and L == math.lcm(*range(1, k + 1))
        if k >= 2:
            primes = {d for d in range(2, k + 1) if k % d == 0
                      and all(d % e for e in range(2, d))}
            assert (L == harmonic(k - 1)[1]) == (len(primes) > 1), k


def _empty_memo(monkeypatch):
    """Give `harmonic` an empty memo; the test's end restores the module's."""
    monkeypatch.setattr(costshare.rationals, "_HARMONIC", {0: (0, 1)})
    monkeypatch.setattr(costshare.rationals, "_ASKED", [0])


def test_harmonic_pairs_do_not_depend_on_the_order_asked(monkeypatch):
    # Each n is reached from the largest n' < n asked before, in blocks of
    # 64, so the block edges fall differently for every order; the pairs
    # must not.  The shuffled range also asks each n below, at and above
    # every block edge of a cold start.
    _empty_memo(monkeypatch)
    got = {n: harmonic(n) for n in (20000, 37, 19999, 64, 65, 128)}
    assert got[20000][1] == math.lcm(*range(1, 20001))
    assert Fraction(*got[20000]) - Fraction(*got[19999]) == Fraction(1, 20000)
    shuffled = list(range(6001))
    random.Random(22).shuffle(shuffled)
    got |= {n: harmonic(n) for n in shuffled}
    _empty_memo(monkeypatch)
    for n in range(6001):  # ascending, each from the last
        assert harmonic(n) == got[n], n
    for n in (19999, 20000):  # far past 6000, then from one below
        assert harmonic(n) == got[n], n
    lcm = 1
    for n, want in enumerate(harmonic_fractions(6000)):
        lcm = math.lcm(lcm, max(n, 1))
        assert got[n][1] == lcm and Fraction(*got[n]) == want, n


def test_harmonic_memo_keeps_only_the_asked_pairs(monkeypatch):
    # The memo holds the asked n alone, so a cold harmonic(20000) peaks at
    # a few copies of one 29,000-bit pair, not at every P_k below it.
    _empty_memo(monkeypatch)
    tracemalloc.start()
    try:
        harmonic(20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
    assert costshare.rationals._ASKED == [0, 20000]


@given(st.integers(min_value=1, max_value=400))
def test_harmonic_increment(n):
    assert Fraction(*harmonic(n)) - Fraction(*harmonic(n - 1)) == Fraction(1, n)
    assert harmonic(n)[1] == math.lcm(*range(1, n + 1))


@given(st.fractions(min_value=Fraction(0), max_value=Fraction(10**8), max_denominator=10**6))
def test_sqrt_ceil_grid_is_tight(x):
    g = EUCLIDEAN_GRID
    d = sqrt_ceil_grid(x, g)
    assert d.denominator == 1 or g % d.denominator == 0
    assert d * d >= x
    if d > 0:
        below = d - Fraction(1, g)
        assert below * below < x


def test_sqrt_ceil_grid_exact_squares():
    assert sqrt_ceil_grid(Fraction(49), 10**6) == 7
    assert sqrt_ceil_grid(Fraction(1, 4), 2) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# constructors


def test_explicit_metric_validates_everything():
    good = explicit_metric(3, {(0, 1): 3, (0, 2): 4, (1, 2): 5})
    assert good.cost(1, 2) == 5
    assert good.cost(2, 1) == 5
    assert good.kind == "metric"

    with pytest.raises(ConfigError, match="every vertex pair"):
        explicit_metric(3, {(0, 1): 3, (0, 2): 4})
    with pytest.raises(ConfigError, match="duplicate"):
        explicit_metric(2, {(0, 1): 3, (1, 0): 3})
    with pytest.raises(ConfigError, match="bad vertex pair"):
        explicit_metric(2, {(0, 5): 3})
    with pytest.raises(MetricError, match="non-positive"):
        explicit_metric(2, {(0, 1): 0})
    # 10 > 1 + 1 breaks the triangle inequality
    with pytest.raises(MetricError, match="triangle"):
        explicit_metric(3, {(0, 1): 1, (1, 2): 1, (0, 2): 10})


def test_metric_closure_rejects_bad_edges():
    with pytest.raises(ConfigError, match="out of range"):
        metric_closure(2, [(0, 3, Fraction(1))])
    with pytest.raises(ConfigError, match="self-loop"):
        metric_closure(2, [(0, 0, Fraction(1))])
    with pytest.raises(ConfigError, match="non-positive"):
        metric_closure(2, [(0, 1, Fraction(0))])
    with pytest.raises(MetricError, match="disconnected"):
        metric_closure(3, [(0, 1, Fraction(1))])
    with pytest.raises(MetricError, match="disconnected"):  # n - 1 edges, 3 isolated
        metric_closure(4, [(0, 1, Fraction(1)), (1, 2, Fraction(1)), (0, 2, Fraction(1))])


def test_metric_closure_refuses_too_few_edges_at_input_size():
    # fewer than n - 1 edges cannot connect n vertices: refused before any
    # per-vertex list exists (2 * 10^5 empty lists alone take about 11 MB)
    tracemalloc.start()
    try:
        with pytest.raises(MetricError, match="disconnected"):
            metric_closure(200_000, [(0, 1, Fraction(1))])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 1024, peak


@pytest.mark.parametrize("seed", range(8))
def test_metric_closure_matches_floyd_warshall(seed):
    rng = random.Random(1000 + seed)
    n = rng.randint(3, 10)
    inst = random_metric(rng, n)
    # Rebuild the raw adjacency matrix from the instance's own recipe and
    # close it with the cubic oracle.
    big = sum(parse_rational(c) for _, _, c in inst.meta["edges"]) + 1
    direct = [[Fraction(0) if i == j else big for j in range(n)] for i in range(n)]
    for u, v, c in inst.meta["edges"]:
        c = parse_rational(c)
        if c < direct[u][v]:
            direct[u][v] = direct[v][u] = c
    closed = floyd_warshall(direct)
    for i in range(n):
        for j in range(n):
            assert inst.cost(i, j) == closed[i][j]


def test_euclidean_rejects_duplicate_points():
    with pytest.raises(MetricError, match="duplicate"):
        euclidean_instance([(0, 0), (1, 1), (Fraction(1), Fraction(1))])


def test_euclidean_collinear_integer_points_are_exact():
    inst = euclidean_instance([(0, 0), (3, 0), (Fraction(15, 2), 0)])
    assert inst.cost(0, 1) == 3
    assert inst.cost(0, 2) == Fraction(15, 2)
    assert inst.cost(1, 2) == Fraction(9, 2)


def test_euclidean_pythagorean_triple_is_exact():
    inst = euclidean_instance([(0, 0), (3, 4)])
    assert inst.cost(0, 1) == 5


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-50, max_value=50),
            st.integers(min_value=-50, max_value=50),
        ),
        min_size=3,
        max_size=7,
        unique=True,
    )
)
@settings(max_examples=60)
def test_euclidean_rounding_preserves_triangle(points):
    inst = euclidean_instance(points)
    n = inst.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert inst.cost(i, j) <= inst.cost(i, k) + inst.cost(k, j)
            # ceiling-rounded to the grid, and an over-estimate of the truth
            dx = points[i][0] - points[j][0]
            dy = points[i][1] - points[j][1]
            assert inst.cost(i, j) ** 2 >= dx * dx + dy * dy


# ---------------------------------------------------------------------------
# integer builders against their Fraction oracles


def _matrix(inst):
    return [[inst.cost(i, j) for j in range(inst.n)] for i in range(inst.n)]


def _square_boundary_points(b, unit):
    """Points at squared distances k^2 - 1, k^2 and k^2 + 1 from the origin,
    for k = b^2/2 + 1 (b even), coordinates in multiples of `unit`.

    (k - 1)^2 + b^2 = k^2 - 2k + 1 + 2k - 2 = k^2 - 1.
    """
    k = b * b // 2 + 1
    return [(0, 0), ((k - 1) * unit, b * unit), (k * unit, 0), (k * unit, unit)]


_G = Fraction(1, EUCLIDEAN_GRID)
_EUCLIDEAN_CASES = {
    # name: (points, built by the vectorized int64 path)
    "non-grid rational": ([(0, 0), (3, 0), (3, 4), (Fraction(1, 3), Fraction(7, 2))], False),
    "integer": ([(0, 0), (3, 4), (-7, 1), (2, -9), (5, 5)], True),
    "random grid": (
        [(Fraction(random.Random(i).randrange(EUCLIDEAN_GRID), EUCLIDEAN_GRID),
          Fraction(random.Random(~i).randrange(EUCLIDEAN_GRID), EUCLIDEAN_GRID))
         for i in range(30)], True),
    "squares near 2^26": (_square_boundary_points(11_586, _G), True),
    "squares near 2^30": (_square_boundary_points(46_340, _G), True),
    "squares on the int path": (_square_boundary_points(77_460, _G), False),
    "huge coordinates": ([(0, 0), (10**15, 1), (-(10**15), Fraction(7, 3))], False),
    "tiny spacing": ([(0, 0), (_G, 0), (0, _G), (_G, _G), (Fraction(1, 7), 0)], False),
}


@pytest.mark.parametrize("name", sorted(_EUCLIDEAN_CASES))
def test_euclidean_builder_matches_grid_root_oracle(monkeypatch, name):
    points, vectorized = _EUCLIDEAN_CASES[name]
    calls = []
    grid_ceil_sqrt = metric._grid_ceil_sqrt
    monkeypatch.setattr(metric, "_grid_ceil_sqrt",
                        lambda *args: calls.append(1) or grid_ceil_sqrt(*args))
    inst = euclidean_instance(points)
    assert bool(calls) == vectorized
    assert _matrix(inst) == euclidean_costs(points, EUCLIDEAN_GRID)


def test_square_boundary_points_hit_the_boundaries():
    for b in (11_586, 46_340, 77_460):
        k = b * b // 2 + 1
        pts = _square_boundary_points(b, 1)
        assert sorted(x * x + y * y for x, y in pts[1:]) == [k * k - 1, k * k, k * k + 1]


@pytest.mark.parametrize("seed", range(6))
def test_closure_with_mixed_denominators_matches_fraction_dijkstra(seed):
    rng = random.Random(3000 + seed)
    n = rng.randint(2, 12)
    denoms = (1, 2, 3, 5, 7, 9, 11, 16, 10**6 + 3)
    edges = [(rng.randrange(v), v, Fraction(rng.randint(1, 10**4), rng.choice(denoms)))
             for v in range(1, n)]
    edges += [(a, b, Fraction(rng.randint(1, 10**4), rng.choice(denoms)))
              for a, b in (rng.sample(range(n), 2) for _ in range(rng.randrange(2 * n)))]
    inst = metric_closure(n, edges)
    want = dijkstra_closure(n, edges)
    assert _matrix(inst) == want
    assert inst.denominator == math.lcm(*(c.denominator for row in want for c in row))


def _random_multigraph(seed):
    """A connected graph on 2..12 vertices whose pairs may repeat, in either
    order, with a dearer edge before or after the cheaper one."""
    rng = random.Random(4000 + seed)
    n = rng.randint(2, 12)
    edges = [(rng.randrange(v), v, Fraction(rng.randint(1, 99), rng.choice((1, 2, 3))))
             for v in range(1, n)]
    for u, v, c in rng.sample(edges, (n + 1) // 2):
        twin = (v, u, c + rng.randint(1, 9)) if rng.random() < 0.5 else (u, v, c / 2)
        edges.insert(rng.randrange(len(edges) + 1), twin)
    return n, edges


def _closure_cases():
    yield from ((f"gm-m{m}", lambda m=m: build_gm(m).instance) for m in (2, 3, 4, 5))
    yield from ((f"steiner-gap-n{n}", lambda n=n: build_steiner_gap_fixture(n).instance)
                for n in (1, 5, 50))
    yield from ((f"multigraph-{seed}", lambda seed=seed: metric_closure(*_random_multigraph(seed)))
                for seed in range(6))
    yield "parallel-pair", lambda: metric_closure(2, [(0, 1, 3), (1, 0, 5), (0, 1, 4)])
    # S = 2^62 + 1: every distance fits int64, but two sentinels S + 1 do not
    yield "sum-in-2^62..2^63", lambda: metric_closure(
        3, [(0, 1, 2**61), (1, 2, 2**61 + 1)])
    yield "distance-past-int64", lambda: metric_closure(3, [(0, 1, 2**62), (1, 2, 2**62 + 1)])
    yield "5000-digit-edge", lambda: metric_closure(
        4, [(0, 1, 10**4999 + 7), (1, 2, 3), (2, 3, Fraction(10**4999, 3)), (0, 3, 1)])


_CLOSURE_CASES = dict(_closure_cases())


@pytest.mark.parametrize("name", list(_CLOSURE_CASES))
def test_closure_matches_fraction_dijkstra_with_its_dtype(name):
    inst = _CLOSURE_CASES[name]()
    edges = [(u, v, parse_rational(c)) for u, v, c in inst.meta["edges"]]
    want = dijkstra_closure(inst.n, edges)
    assert _matrix(inst) == want
    assert inst.denominator == math.lcm(*(c.denominator for row in want for c in row))
    top = max(c * inst.denominator for row in want for c in row)
    assert inst.costi.dtype == (np.int64 if top < 2**63 else object)


def test_closure_dtype_cases_take_the_path_they_name():
    assert _CLOSURE_CASES["sum-in-2^62..2^63"]().costi.dtype == np.int64
    assert _CLOSURE_CASES["distance-past-int64"]().costi.dtype == object
    assert _CLOSURE_CASES["5000-digit-edge"]().costi.dtype == object


@pytest.mark.parametrize("den, unit", [(3, 10**17), (1, 2**70), (10**6 + 3, 2**55)])
def test_triangle_check_is_exact_below_float_resolution(den, unit):
    # d(0,2) exceeds d(0,1) + d(1,2) by 1/den, far below the float spacing
    legs = Fraction(unit, den)
    assert float(2 * legs + Fraction(1, den)) == float(2 * legs)
    with pytest.raises(MetricError, match=r"d\(0,2\) > d\(0,1\) \+ d\(1,2\)"):
        explicit_metric(3, {(0, 1): legs, (1, 2): legs, (0, 2): 2 * legs + Fraction(1, den)})
    tight = explicit_metric(3, {(0, 1): legs, (1, 2): legs, (0, 2): 2 * legs})
    assert tight.cost(0, 2) == 2 * legs


def test_instances_need_a_root():
    for build in (lambda: euclidean_instance([]), lambda: metric_closure(0, []),
                  lambda: explicit_metric(0, {})):
        with pytest.raises(MetricError, match="root"):
            build()


_BUILD_AT_SCALE = """
import json, random, resource, sys, time
from costshare.instances import _random_points
from costshare.metric import euclidean_instance
points = _random_points(random.Random(0), int(sys.argv[1]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
inst = euclidean_instance(points)
seconds = time.perf_counter() - start
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"n": inst.n, "growth_kb": after - before, "seconds": seconds}))
"""


def test_euclidean_instance_at_scale_builds_in_bounded_memory():
    # costi takes 8 * 1600^2 bytes, about 20 MB; the build itself works a
    # block of rows at a time
    proc = subprocess.run([sys.executable, "-c", _BUILD_AT_SCALE, "1600"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["n"] == 1600
    assert got["growth_kb"] < 60 * 1024
    assert got["seconds"] < 5


# ---------------------------------------------------------------------------
# MST and distance extremes


def test_integer_matrix_is_cost_times_denominator():
    rng = random.Random(5)
    small = [
        euclidean_instance([(0, 0), (3, 0), (3, 4), (Fraction(1, 3), Fraction(7, 2))]),
        random_metric(rng, 6),
        explicit_metric(3, {(0, 1): Fraction(1, 3), (0, 2): Fraction(1, 2), (1, 2): Fraction(2, 3)}),
    ]
    big = big_denominator_metric(rng)
    assert {inst.kind for inst in small} == {"euclidean", "weighted-graph", "metric"}
    assert [inst.costi.dtype for inst in small] == [np.int64] * 3
    assert big.costi.dtype == object
    assert big.denominator * max(big.cost(0, j) for j in range(1, big.n)) > 2**63
    for inst in small + [big]:
        d = inst.denominator
        assert inst.costi.shape == (inst.n, inst.n)
        assert inst.costi is inst.costi
        for i in range(inst.n):
            for j in range(inst.n):
                assert int(inst.costi[i, j]) == inst.cost(i, j) * d


@pytest.mark.parametrize("seed", range(10))
def test_mst_matches_spanning_tree_enumeration(seed):
    rng = random.Random(2000 + seed)
    inst = random_metric(rng, rng.randint(2, 9))
    k = rng.randint(2, min(6, inst.n))
    subset = rng.sample(range(inst.n), k)
    matrix = [[inst.cost(i, j) for j in range(inst.n)] for i in range(inst.n)]
    assert mst_cost(inst, subset) == brute_mst(matrix, subset)


@pytest.mark.parametrize("seed", range(6))
def test_mst_matches_spanning_tree_enumeration_on_python_int_costs(seed):
    # costs past int64 (an object-dtype `costi`), and a metric of costs 1
    # and 2 alone, where nearly every Prim step picks among ties
    rng = random.Random(2100 + seed)
    big = big_denominator_metric(rng, rng.randint(4, 6))
    assert big.costi.dtype == object
    n = rng.randint(3, 7)
    ties = explicit_metric(n, {e: rng.randint(1, 2) for e in combinations(range(n), 2)})
    for inst in (big, ties):
        matrix = [[inst.cost(i, j) for j in range(inst.n)] for i in range(inst.n)]
        for k in range(2, inst.n + 1):
            subset = rng.sample(range(inst.n), k)
            assert mst_cost(inst, subset) == brute_mst(matrix, subset)


def test_mst_degenerate_subsets():
    inst = explicit_metric(3, {(0, 1): 1, (0, 2): 1, (1, 2) : 1})
    assert mst_cost(inst, []) == 0
    assert mst_cost(inst, [2]) == 0
    assert mst_cost(inst, [1, 1, 2]) == 1  # duplicates collapse
    with pytest.raises(ConfigError, match="out of range"):
        mst_cost(inst, [0, 9])


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("seed", range(4))
def test_weighted_graph_instances_round_trip(seed):
    inst = random_metric(random.Random(4000 + seed), 7)
    back = instance_from_dict(instance_to_dict(inst))
    assert back.n == inst.n and back.kind == inst.kind
    assert all(back.cost(i, j) == inst.cost(i, j) for i in range(7) for j in range(7))


def test_euclidean_and_explicit_instances_round_trip():
    e = euclidean_instance([(0, 0), (Fraction(1, 3), 2), (-4, 5)])
    m = explicit_metric(3, {(0, 1): Fraction(7, 2), (0, 2): 4, (1, 2): 5})
    for inst in (e, m):
        back = instance_from_dict(instance_to_dict(inst))
        assert back.kind == inst.kind
        assert all(
            back.cost(i, j) == inst.cost(i, j) for i in range(inst.n) for j in range(inst.n)
        )


def test_instance_from_dict_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        instance_from_dict({"kind": "hyperbolic", "n": 2})
    with pytest.raises(ConfigError):
        instance_from_dict(["not", "a", "dict"])
