"""Reference solvers: frozen example runs and cross-checks."""
from __future__ import annotations

from dataclasses import replace
from decimal import Decimal
from math import ldexp

import pytest

import kssp.oracles

from kssp.engine import ABORTED, COMPLETE, EXHAUSTED, SolveLimitExceeded, k_shortest_paths
from kssp.graph import Graph
from kssp.gridgen import gen_grid
from kssp.dijkstra import shortest_path
from kssp.oracles import enumerate_simple_paths, yen_k_shortest

from conftest import IntLike, cost_family, make_digraph


def test_yen_five_node_example_is_frozen(five_node_graph):
    report = yen_k_shortest(five_node_graph, 0, 4, 4)
    assert report.status == COMPLETE
    assert report.costs == [2.0, 3.0, 4.0, 5.0]
    assert [p.arcs for p in report.paths] == [(1, 5), (0, 4), (2, 6), (0, 3, 5)]
    st = report.stats
    assert st.queries_attempted == 7
    assert st.init_queries == 1
    assert st.queries_failed == 3
    assert st.capped_queries == 2
    assert st.labels_extracted > 0


def test_yen_accelerated_matches_plain(five_node_graph):
    plain = yen_k_shortest(five_node_graph, 0, 4, 4)
    fast = yen_k_shortest(five_node_graph, 0, 4, 4, accelerated=True)
    assert [p.arcs for p in fast.paths] == [p.arcs for p in plain.paths]
    assert fast.costs == plain.costs


@pytest.mark.parametrize("seed, family, s, t", [(118, "tenths", 0, 2), (132, "huge", 1, 0)])
def test_yen_accelerated_first_path_is_the_cheapest_under_rounding(seed, family, s, t):
    # A* on a rounded potential closed a node early here and ranked a
    # path one rounding error too expensive first
    g = cost_family(make_digraph(seed), family)
    want = [p.cost for p in enumerate_simple_paths(g, s, t)[:3]]
    assert want == sorted(want) and want[0] < want[1]
    assert yen_k_shortest(g, s, t, 3).costs == want
    assert yen_k_shortest(g, s, t, 3, accelerated=True).costs == want


def test_yen_exhausts_small_instances(five_node_graph):
    report = yen_k_shortest(five_node_graph, 0, 4, 10)
    assert report.status == EXHAUSTED
    assert report.costs == [2.0, 3.0, 4.0, 5.0]


def test_yen_no_path():
    g = Graph(3, [(0, 1, 1.0)])
    report = yen_k_shortest(g, 0, 2, 2)
    assert report.status == EXHAUSTED
    assert report.paths == []
    assert report.stats.queries_failed == 1


def test_yen_argument_validation(five_node_graph):
    with pytest.raises(ValueError, match="must differ"):
        yen_k_shortest(five_node_graph, 1, 1, 2)
    with pytest.raises(ValueError, match="at least 1"):
        yen_k_shortest(five_node_graph, 0, 4, 0)
    with pytest.raises(ValueError, match="out of range"):
        yen_k_shortest(five_node_graph, 0, 5, 1)


@pytest.mark.parametrize("timeout_s", [float("nan"), -1.0, "1", [1], Decimal("1")])
def test_yen_rejects_a_timeout_that_is_not_a_nonnegative_real_number(five_node_graph, timeout_s):
    for accelerated in (False, True):
        with pytest.raises(ValueError, match="^timeout must be a nonnegative number of seconds, got "):
            yen_k_shortest(five_node_graph, 0, 4, 3, accelerated=accelerated, timeout_s=timeout_s)


@pytest.mark.parametrize("timeout_s", [10**400, float("inf")])
def test_yen_takes_a_timeout_beyond_the_float_range_as_never_striking(five_node_graph, timeout_s):
    for accelerated in (False, True):
        report = yen_k_shortest(five_node_graph, 0, 4, 4, accelerated=accelerated, timeout_s=timeout_s)
        assert report.costs == [2.0, 3.0, 4.0, 5.0]


@pytest.mark.parametrize("max_paths", [2.5, 3.0, "3", None, 0, -1])
def test_enumeration_rejects_a_max_paths_that_is_not_an_int_of_at_least_1_before_the_walk(max_paths):
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0)])

    class Untouchable(list):
        def __getitem__(self, v):
            raise AssertionError("the walk ran")

    g.out_arcs = Untouchable(g.out_arcs)
    with pytest.raises(ValueError, match="^max_paths must be "):
        enumerate_simple_paths(g, 0, 2, max_paths=max_paths)


@pytest.mark.parametrize("k", [3.0, 2.5, float("inf")])
def test_yen_rejects_a_k_that_is_not_an_int(five_node_graph, k):
    for accelerated in (False, True):
        with pytest.raises(ValueError, match="^k must be an int, got "):
            yen_k_shortest(five_node_graph, 0, 4, k, accelerated=accelerated)
    assert yen_k_shortest(five_node_graph, 0, 4, True).costs == [2.0]


@pytest.mark.parametrize("accelerated", [False, True])
def test_yen_solves_int_like_arguments_as_their_ints(five_node_graph, accelerated):
    got = yen_k_shortest(five_node_graph, IntLike(0), IntLike(4), IntLike(3), accelerated=accelerated)
    want = yen_k_shortest(five_node_graph, 0, 4, 3, accelerated=accelerated)
    assert got.paths == want.paths


@pytest.mark.parametrize("s, t", [(0.0, 4), (0, 4.0)])
def test_reference_solvers_reject_an_endpoint_that_is_not_an_int(five_node_graph, s, t):
    for accelerated in (False, True):
        with pytest.raises(ValueError, match="^endpoints must be ints, got "):
            yen_k_shortest(five_node_graph, s, t, 3, accelerated=accelerated)
    with pytest.raises(ValueError, match="^endpoints must be ints, got "):
        enumerate_simple_paths(five_node_graph, s, t)
    assert enumerate_simple_paths(five_node_graph, IntLike(0), IntLike(4))[0].cost == 2.0


def test_yen_zero_timeout_aborts():
    g = gen_grid(10, 10, seed=2)
    with pytest.raises(SolveLimitExceeded) as exc:
        yen_k_shortest(g, 0, 99, 50, timeout_s=0.0)
    assert exc.value.kind == "deadline"
    assert exc.value.report.status == ABORTED
    assert len(exc.value.report.paths) >= 1


def test_yen_against_enumeration():
    for seed in range(50):
        g = make_digraph(seed)
        s, t = 0, g.node_count - 1
        expected = [p.cost for p in enumerate_simple_paths(g, s, t)]
        k = len(expected) + 2 if expected else 3
        for accelerated in (False, True):
            report = yen_k_shortest(g, s, t, k, accelerated=accelerated)
            assert report.costs == expected
            assert report.status == EXHAUSTED
        if len(expected) > 2:
            partial = yen_k_shortest(g, s, t, len(expected) - 1)
            assert partial.status == COMPLETE
            assert partial.costs == expected[: len(expected) - 1]


def test_yen_modes_agree_on_a_grid():
    g = gen_grid(8, 8, seed=5)
    plain = yen_k_shortest(g, 0, 63, 40)
    fast = yen_k_shortest(g, 0, 63, 40, accelerated=True)
    assert plain.status == fast.status == COMPLETE
    assert fast.costs == plain.costs
    assert [p.arcs for p in fast.paths] == [p.arcs for p in plain.paths]
    assert fast.stats.labels_extracted < plain.stats.labels_extracted
    assert fast.stats.capped_queries > 0


def test_accelerated_yen_cuts_the_same_searches_at_every_power_of_two_scale():
    # the spur cap's slack is relative, so scaling every cost by 2**e scales
    # every label, key and cap alike and leaves each cut where it was
    base = gen_grid(20, 20, seed=3)
    reports = {}
    for e in (-60, 0, 60):
        g = Graph(base.node_count, [(u, v, ldexp(w, e)) for u, v, w in base.arcs()])
        reports[e] = yen_k_shortest(g, 0, 399, 50, accelerated=True)
    unscaled = reports[0]
    assert unscaled.status == COMPLETE
    assert unscaled.stats.capped_queries > 0
    for e, report in reports.items():
        assert report.status == COMPLETE
        assert report.costs == [ldexp(c, e) for c in unscaled.costs]
        assert [p.arcs for p in report.paths] == [p.arcs for p in unscaled.paths]
        assert replace(report.stats, wall_time_s=0.0) == replace(unscaled.stats, wall_time_s=0.0)


def test_enumeration_five_node(five_node_graph):
    paths = enumerate_simple_paths(five_node_graph, 0, 4)
    assert [(p.cost, p.arcs) for p in paths] == [
        (2.0, (1, 5)),
        (3.0, (0, 4)),
        (4.0, (2, 6)),
        (5.0, (0, 3, 5)),
    ]


def test_enumeration_orders_ties_by_arc_ids():
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.0)])
    paths = enumerate_simple_paths(g, 0, 2)
    assert [(p.cost, p.arcs) for p in paths] == [(2.0, (0, 1)), (2.0, (2,))]


def test_enumeration_cap_keeps_the_cheapest(five_node_graph):
    paths = enumerate_simple_paths(five_node_graph, 0, 4, max_paths=2)
    assert [p.cost for p in paths] == [2.0, 3.0]


@pytest.mark.parametrize("max_paths", [20, 5000])
def test_enumeration_cap_survives_compaction(max_paths):
    # the complete digraph on 9 nodes has 13,700 simple paths from 0 to 8, more
    # than max_paths + 4096, so the search compacts its list on the way. The
    # first arc's cost sets the order of the paths the search finds, so the
    # first compaction already cuts where the result ends, inside a tie of
    # unit costs that the arc ids break
    arcs = [(u, v, 10.0 * v if u == 0 else 1.0) for u in range(9) for v in range(9) if u != v]
    g = Graph(9, arcs)
    every = enumerate_simple_paths(g, 0, 8)
    assert len(every) == 13_700
    capped = enumerate_simple_paths(g, 0, 8, max_paths=max_paths)
    assert [(p.cost, p.arcs) for p in capped] == [(p.cost, p.arcs) for p in every[:max_paths]]


def test_enumeration_argument_validation(five_node_graph):
    with pytest.raises(ValueError, match="must differ"):
        enumerate_simple_paths(five_node_graph, 3, 3)
    with pytest.raises(ValueError, match="out of range"):
        enumerate_simple_paths(five_node_graph, 0, 7)
    with pytest.raises(ValueError, match="at least 1"):
        enumerate_simple_paths(five_node_graph, 0, 4, max_paths=0)


def test_all_three_solvers_agree_on_a_grid():
    g = gen_grid(6, 6, seed=11)
    k = 60
    dev = k_shortest_paths(g, 0, 35, k)
    yen = yen_k_shortest(g, 0, 35, k)
    fast = yen_k_shortest(g, 0, 35, k, accelerated=True)
    assert dev.costs == yen.costs == fast.costs
    assert dev.status == COMPLETE


@pytest.mark.parametrize("accelerated", [False, True])
def test_a_memory_error_mid_solve_reports_the_paths_found_so_far(monkeypatch, accelerated):
    g = gen_grid(8, 8, seed=5)
    full = yen_k_shortest(g, 0, 63, 100, accelerated=accelerated)
    calls = 0

    def out_of_memory_at_the_300th(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == 300:
            raise MemoryError
        return shortest_path(*args, **kwargs)

    monkeypatch.setattr(kssp.oracles, "shortest_path", out_of_memory_at_the_300th)
    with pytest.raises(SolveLimitExceeded) as exc:
        yen_k_shortest(g, 0, 63, 100, accelerated=accelerated)
    report = exc.value.report
    assert exc.value.kind == "memory" and report.status == ABORTED
    assert report.stats.queries_attempted == 299
    n = len(report.paths)
    assert 1 < n < 100
    assert [(p.arcs, p.cost) for p in report.paths] == [(p.arcs, p.cost) for p in full.paths[:n]]


def _out_of_memory(*args, **kwargs):
    raise MemoryError


# what runs out of memory in the set-up: the reverse distances, the first path, the mask;
# and how many paths were found before it
YEN_SET_UP = [
    pytest.param("reverse_distances", True, 0, id="reverse-distances-accelerated"),
    pytest.param("shortest_path", False, 0, id="first-path-plain"),
    pytest.param("shortest_path", True, 0, id="first-path-accelerated"),
    pytest.param("Mask", False, 1, id="mask-plain"),
    pytest.param("Mask", True, 1, id="mask-accelerated"),
]


@pytest.mark.parametrize("name, accelerated, found", YEN_SET_UP)
def test_a_memory_error_in_the_set_up_reports_the_paths_found_so_far(monkeypatch, name, accelerated, found):
    g = gen_grid(8, 8, seed=5)
    first = yen_k_shortest(g, 0, 63, 1, accelerated=accelerated).paths
    monkeypatch.setattr(kssp.oracles, name, _out_of_memory)
    with pytest.raises(SolveLimitExceeded) as exc:
        yen_k_shortest(g, 0, 63, 100, accelerated=accelerated)
    report = exc.value.report
    assert exc.value.kind == "memory" and report.status == ABORTED
    assert report.paths == first[:found] and report.stats.queries_attempted == found
