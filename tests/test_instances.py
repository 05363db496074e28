"""Generators and canned fixtures: structure first, then full runs."""

from fractions import Fraction

import pytest

from costshare import (
    ArrivalEvent,
    ConfigError,
    DepartureEvent,
    add_terminal,
    best_response,
    check_schedule,
    initial_state,
    mst_cost,
    run_eqp,
    run_noneqp,
    solution_cost,
    verify_equilibrium,
    with_revealed,
)
from costshare.instances import (
    EUCLIDEAN_PROFILES,
    build_gm,
    build_poa_fixture,
    build_random_euclidean,
    build_sigma,
    build_steiner_gap_fixture,
    gm_vertex_id,
    gm_vertex_label,
)


# ---------------------------------------------------------------------------
# the layered family: ids, edges, canonical paths


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gm_vertex_ids_are_a_dense_bijection(m):
    ids = [
        gm_vertex_id(m, layer, j, k)
        for layer in range(m + 1)
        for j in range(1, m + 1)
        for k in range(1, m + 1)
    ]
    assert sorted(ids) == list(range(1, m * m * (m + 1) + 1))
    for vid in ids:
        layer, j, k = gm_vertex_label(m, vid)
        assert gm_vertex_id(m, layer, j, k) == vid


def test_gm_label_validation():
    for bad in [(2, 3, 1, 1), (2, 0, 0, 1), (2, 1, 1, 3), (2, -1, 1, 1)]:
        with pytest.raises(ConfigError):
            gm_vertex_id(*bad)
    for vid in (0, -1, 13):
        with pytest.raises(ConfigError):
            gm_vertex_label(2, vid)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gm_edge_counts(m):
    gm = build_gm(m)
    assert gm.n == m * m * (m + 1) + 1
    unit = [e for e in gm.graph_edges if e[2] == 1]
    intra = [e for e in gm.graph_edges if e[2] == Fraction(1, m) and m > 1]
    assert len(unit) == m * m * (m + 1)
    assert len(intra) == m**3 * (m - 1) // 2
    assert len(gm.graph_edges) == len(unit) + len(intra)
    assert gm.final_cost == m * m * (m + 1)
    assert gm.mst_upper == 3 * m * m


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gm_canonical_paths_partition_the_unit_edges(m):
    gm = build_gm(m)
    unit_edges = {frozenset((u, v)) for u, v, w in gm.graph_edges if w == 1}
    seen_edges = []
    seen_vertices = []
    for (j, k), path in gm.canonical_paths.items():
        assert path[0] == gm_vertex_id(m, m, j, k)  # starts at the top layer
        assert path[-1] == 0
        assert len(path) == m + 2
        seen_vertices.extend(path[:-1])
        for a, b in zip(path, path[1:]):
            seen_edges.append(frozenset((a, b)))
    # each unit edge in exactly one canonical path, each vertex in exactly one
    assert len(seen_edges) == len(set(seen_edges)) == len(unit_edges)
    assert set(seen_edges) == unit_edges
    assert sorted(seen_vertices) == list(range(1, gm.n))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gm_canonical_paths_are_shortest(m):
    # Layers only connect through unit edges, so the metric distance from
    # the root to any top vertex is the full ladder height.
    gm = build_gm(m)
    for path in gm.canonical_paths.values():
        assert gm.instance.cost(0, path[0]) == m + 1


def test_gm_rejects_bad_m():
    for bad in (0, -3, 2.0, "2"):
        with pytest.raises(ConfigError):
            build_gm(bad)


# ---------------------------------------------------------------------------
# the adversarial schedule


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sigma_shape(m):
    gm = build_gm(m)
    sigma = build_sigma(gm)
    assert len(sigma) == m**3 * (m + 2)
    check_schedule(gm.instance, list(sigma))
    round_len = m + 2  # m+1 pinned arrivals, then one departure
    for r in range(0, len(sigma), round_len):
        chunk = sigma[r : r + round_len]
        arrivals, departure = chunk[:-1], chunk[-1]
        assert isinstance(departure, DepartureEvent)
        tops = [ev.items[0].expect_path for ev in arrivals]
        full = tops[-1]
        assert full in gm.canonical_paths.values()
        assert departure.vertices == full[1:-1]
        for ev in arrivals:
            assert isinstance(ev, ArrivalEvent) and len(ev.items) == 1
            item = ev.items[0]
            assert item.expect_path[0] == item.vertex
            # every pinned path is a suffix of the round's canonical path
            assert full[len(full) - len(item.expect_path):] == item.expect_path
        assert [it.count for it in (ev.items[0] for ev in arrivals)] == [m * m] * m + [1]


@pytest.mark.parametrize("m", [1, 2])
def test_sigma_run_realizes_the_lower_bound(m):
    gm = build_gm(m)
    res = run_noneqp(gm.instance, list(build_sigma(gm)))  # verify=True
    assert solution_cost(res.state) == gm.final_cost == m * m * (m + 1)
    tops = {path[0]: path for path in gm.canonical_paths.values()}
    assert res.state.paths == tops
    assert res.state.counts == {top: m for top in tops}
    assert mst_cost(gm.instance, range(gm.n)) <= gm.mst_upper


# ---------------------------------------------------------------------------
# price-of-anarchy fixture


@pytest.mark.parametrize("n", [2, 5, 10])
def test_poa_fixture_detour_is_stable_only_for_the_crowd(n):
    fx = build_poa_fixture(n)
    assert fx.ratio == fx.bad_cost / fx.opt_cost == n
    assert fx.agents == n + 1
    assert solution_cost(fx.bad_state) == n
    assert fx.opt_cost == mst_cost(fx.instance, (0, 1)) == 1
    assert verify_equilibrium(fx.bad_state).ok

    lone = add_terminal(
        with_revealed(initial_state(fx.instance), (1, 2)), 1, 1, (1, 2, 0)
    )
    assert not verify_equilibrium(lone).ok
    assert best_response(lone, 1).path == (1, 0)


def test_poa_fixture_rejects_tiny_targets():
    for bad in (1, 0, "5", 2.5):
        with pytest.raises(ConfigError):
            build_poa_fixture(bad)


# ---------------------------------------------------------------------------
# steiner-gap fixture


@pytest.mark.parametrize("n", [1, 3, 5])
def test_steiner_gap_run(n):
    fx = build_steiner_gap_fixture(n)
    res = run_eqp(fx.instance, list(fx.events))
    u = 2 * n
    assert res.state.paths == {u: tuple(range(u, -1, -1))}  # the full chain
    assert res.state.counts == {u: n}
    assert solution_cost(res.state) == fx.expected_cost == n
    assert mst_cost(fx.instance, (0, u)) == fx.terminal_mst == 1
    assert mst_cost(fx.instance, range(u + 1)) == fx.revealed_mst == n
    assert res.verdict.ok


def test_steiner_gap_rejects_bad_n():
    for bad in (0, -1, 1.5):
        with pytest.raises(ConfigError):
            build_steiner_gap_fixture(bad)


# ---------------------------------------------------------------------------
# seeded Euclidean churn


def test_euclidean_runs_are_reproducible():
    a = build_random_euclidean(30, 7)
    b = build_random_euclidean(30, 7)
    assert a.events == b.events
    assert a.instance.meta["points"] == b.instance.meta["points"]
    assert a.events != build_random_euclidean(30, 8).events


def test_euclidean_profiles():
    assert EUCLIDEAN_PROFILES == ("churn", "arrivals")
    pure = build_random_euclidean(12, 3, profile="arrivals")
    assert len(pure.events) == 11
    assert all(isinstance(ev, ArrivalEvent) for ev in pure.events)

    churn = build_random_euclidean(40, 3)
    departs = [ev for ev in churn.events if isinstance(ev, DepartureEvent)]
    assert departs, "churn profile should shed some terminals"
    check_schedule(churn.instance, list(churn.events))


def test_euclidean_churn_schedule_replays_cleanly():
    run = build_random_euclidean(12, 1)
    res = run_eqp(run.instance, list(run.events))
    assert res.verdict.ok
    assert res.accounting.certified


def test_euclidean_validation():
    with pytest.raises(ConfigError, match="at least 2"):
        build_random_euclidean(1, 0)
    with pytest.raises(ConfigError, match="profile"):
        build_random_euclidean(10, 0, profile="bursty")
    with pytest.raises(ConfigError):
        build_random_euclidean("10", 0)
