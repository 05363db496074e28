"""Shared builders for randomized tests.

Everything takes an explicit random.Random so individual tests stay
reproducible; no module-level RNG state.
"""

from fractions import Fraction
from itertools import combinations
import random

from costshare import (
    ArrivalEvent,
    ArrivalItem,
    DepartureEvent,
    DualFamily,
    add_terminal,
    euclidean_instance,
    explicit_metric,
    initial_state,
    metric_closure,
    prune_departures,
    tree_follow_move,
    with_revealed,
)


def random_metric(rng: random.Random, n: int):
    """Closure of a random connected weighted graph on n vertices.

    Weights are small rationals with mixed denominators, so exact arithmetic
    actually gets exercised (pure integers would hide Fraction bugs).
    """
    denoms = (1, 1, 2, 3, 4)
    edges = []
    seen = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, Fraction(rng.randint(1, 48), rng.choice(denoms))))
        seen.add((u, v))
    for _ in range(rng.randrange(n + 1)):
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key in seen:
            continue
        seen.add(key)
        edges.append((key[0], key[1], Fraction(rng.randint(1, 48), rng.choice(denoms))))
    return metric_closure(n, edges)


def big_denominator_metric(rng: random.Random, n: int = 5):
    """Explicit metric whose costs p/q have distinct prime q just above 10^6.

    Every cost lies strictly between 1 and 2, so every triangle holds.  The
    common denominator D is the product of the q's, so D * c overflows
    int64 and the instance's integer matrix falls back to Python ints.
    """
    primes = [q for q in range(10**6, 10**6 + 400) if all(q % d for d in range(2, 1001))]
    pairs = list(combinations(range(n), 2))
    costs = {e: Fraction(rng.randrange(q + 1, 2 * q), q)
             for e, q in zip(pairs, rng.sample(primes, len(pairs)))}
    return explicit_metric(n, costs)


def line_instance(*xs):
    """Collinear rational points: distances are exact absolute differences."""
    return euclidean_instance([(Fraction(x), Fraction(0)) for x in xs])


def random_tree_state(rng: random.Random, instance, *, max_terminals=None,
                      max_count=3, chain_chance=0.35, shuffled=False):
    """A valid routing state whose paths form a random tree.

    Terminals attach to a uniformly chosen tree vertex, sometimes through a
    chain of not-yet-used vertices (those become interior relays, so the
    generated trees have non-terminal branch points too).  Vertices 1..n-1
    are revealed in ascending order, or in a random order with `shuffled`.
    """
    n = instance.n
    reveal = list(range(1, n))
    if shuffled:
        rng.shuffle(reveal)
    state = with_revealed(initial_state(instance), reveal)
    pool = list(range(1, n))
    rng.shuffle(pool)
    on_tree = {0: (0,)}  # vertex -> its root path
    cap = max_terminals or max(1, n - 1)
    want = rng.randint(1, min(cap, len(pool)))
    placed = 0
    while placed < want and pool:
        t = pool.pop()
        if t in on_tree:
            continue
        chain = [t]
        while pool and rng.random() < chain_chance:
            nxt = pool[-1]
            if nxt in on_tree:
                break
            chain.append(pool.pop())
        attach = rng.choice(sorted(on_tree))
        path = tuple(chain) + on_tree[attach]
        state = add_terminal(state, t, rng.randint(1, max_count), path)
        for i, v in enumerate(chain):
            on_tree[v] = path[i:]
        placed += 1
    return state


def family_for(state) -> DualFamily:
    """Dual family with the state's revealed vertices, in revelation order."""
    family = DualFamily(state.instance)
    for v in state.revealed:
        family.insert(v)
    return family


def random_event(rng, state):
    """(tag, next state) for one random arrival, departure or legal move."""
    view, n = state.view, state.instance.n
    kind = rng.choice(("arrive", "arrive", "depart", "move"))
    if kind == "depart" and state.counts:
        gone = rng.sample(sorted(state.counts), rng.randint(1, len(state.counts)))
        return ("depart" if len(gone) == 1 else "departs"), prune_departures(state, gone)
    moves = [(u, v) for u in view.parent for v in view.order
             if v != u and not view.in_subtree(v, u)]
    if kind == "move" and moves:
        new = tree_follow_move(state, *rng.choice(moves))
        return ("abandon" if len(new.view.order) < len(view.order) else "move"), new
    v = rng.randrange(1, n)
    if v in view:  # a count bump, or a relay that becomes a terminal
        tag = "bump" if state.is_active(v) else "relay"
        path = view.path_to_root(v)
    else:  # a new leaf, sometimes below a chain of new relays
        off = [x for x in range(1, n) if x not in view and x != v]
        chain = (v, *rng.sample(off, min(len(off), rng.choice((0, 0, 1, 2)))))
        tag = "chain" if len(chain) > 1 else "leaf"
        path = chain + view.path_to_root(rng.choice(view.order))
    return tag, add_terminal(state, v, rng.randint(1, 3), path)


def random_schedule(rng, n, length, oneshot):
    """Arrivals of one to three items (counts 1 to 30) and departures of one
    or several terminals.  One-shot arrivals avoid active vertices, whose
    best response could leave their own path."""
    active, events = set(), []
    for _ in range(length):
        if active and rng.random() < 0.3:
            gone = rng.sample(sorted(active), rng.randint(1, len(active)))
            active.difference_update(gone)
            events.append(DepartureEvent(tuple(gone)))
            continue
        pool = [v for v in range(1, n) if not (oneshot and v in active)]
        if pool:
            items = rng.sample(pool, min(len(pool), rng.choice((1, 1, 2, 3))))
            events.append(ArrivalEvent(tuple(
                ArrivalItem(v, rng.choice((1, 2, 3, 10, 30))) for v in items)))
            active.update(items)
    return events


# Crowds at 2, then at 1, pull single agents off the paths of others: 3 rides
# 2's crowd, 4 rides 3, and once 2 and 3 have left, a newcomer at relay 3
# prefers 1's crowd to 4's path, so the one-shot state is no tree until it
# departs again.
OFF_TREE = (
    {(0, 1): 8, (0, 2): 10, (0, 3): 11, (0, 4): 12, (1, 2): 5, (1, 3): 3,
     (1, 4): 5, (2, 3): 2, (2, 4): 4, (3, 4): 2},
    [ArrivalEvent((ArrivalItem(2, 30),)), ArrivalEvent((ArrivalItem(3, 1),)),
     ArrivalEvent((ArrivalItem(4, 1),)), DepartureEvent((2, 3)),
     ArrivalEvent((ArrivalItem(1, 30),)), ArrivalEvent((ArrivalItem(3, 1),)),
     DepartureEvent((3,)), ArrivalEvent((ArrivalItem(2, 2), ArrivalItem(3, 1)))],
)
