"""Biobjective deviation search: frozen traces and structural invariants."""
from __future__ import annotations

from time import perf_counter

import pytest

from kssp.biobjective import (
    BiCost,
    Label,
    SearchDebug,
    SearchLimit,
    Workspace,
    build_query,
    find_best_deviation,
    first_deviation,
    reconstruct,
)
from kssp.dijkstra import ReverseSweep, reverse_distances, shortest_path
from kssp.graph import Graph, Path, is_simple, path_cost
from kssp.oracles import enumerate_simple_paths

from conftest import COST_FAMILIES, cost_family, make_digraph

SPINE = (0, 1, 2, 3)  # reference arcs of the six node example


def test_six_node_plain_trace_is_frozen(six_node_graph):
    g = six_node_graph
    query = build_query(g, 0, 5, SPINE)
    debug = SearchDebug()
    dev, stats = find_best_deviation(query, debug=debug)

    assert stats == (8, 2, "found")
    assert debug.extracted == [
        (0.0, 0, 0),
        (0.0, 1, 1),
        (0.0, 2, 2),
        (0.0, 3, 3),
        (0.0, 4, 5),
        (1.0, 3, 4),
        (2.0, 1, 4),
        (2.0, 2, 5),
    ]
    assert debug.extracted_keys == [c for c, _, _ in debug.extracted]
    assert debug.dominated == [(3.0, 3, 2)]
    assert (4.0, 1, 2) in debug.enqueued
    assert debug.max_live_per_node == 1
    assert debug.queue_consistent

    assert debug.frontiers[4] == [Label(1.0, 3, 5, 0), Label(2.0, 1, 4, 0)]
    assert debug.frontiers[2] == [Label(0.0, 2, 1, 0)]
    assert debug.frontiers[5] == [Label(0.0, 4, 3, 0), Label(2.0, 2, 7, 0)]

    assert dev.bicost == BiCost(2.0, 2)
    assert dev.node == 2
    assert dev.arc == 7
    assert dev.ref_index == 2
    assert dev.suffix == Path((7,), 2.0)


def test_six_node_guided_same_answer_fewer_pops(six_node_graph):
    g = six_node_graph
    pot = reverse_distances(g, 5)
    assert pot == [0.0, 0.0, 0.0, 0.0, 2.0, 0.0]
    query = build_query(g, 0, 5, SPINE, potential=pot)
    debug = SearchDebug()
    dev, stats = find_best_deviation(query, debug=debug)
    assert dev.bicost == BiCost(2.0, 2)
    assert dev.suffix == Path((7,), 2.0)
    assert stats.iterations == 6
    assert stats.target_extractions == 2
    keys = debug.extracted_keys
    assert keys == sorted(keys)


def test_guided_never_enqueues_nodes_that_cannot_reach_the_target(six_node_graph):
    arcs = list(six_node_graph.arcs()) + [(2, 6, 0.5)]
    g = Graph(7, arcs)
    pot = reverse_distances(g, 5)
    assert pot[6] == float("inf")

    plain = SearchDebug()
    dev_p, _ = find_best_deviation(build_query(g, 0, 5, SPINE), debug=plain)
    guided = SearchDebug()
    dev_g, _ = find_best_deviation(build_query(g, 0, 5, SPINE, potential=pot), debug=guided)

    assert any(node == 6 for _, _, node in plain.enqueued)
    assert all(node != 6 for _, _, node in guided.enqueued)
    assert dev_p.bicost == dev_g.bicost == BiCost(2.0, 2)


def test_search_settles_the_sweep_on_demand(six_node_graph):
    g = six_node_graph
    inf = float("inf")
    sweep = ReverseSweep(g, 5)
    sweep.settle(0.0)
    assert sweep.dist == [0.0, 0.0, 0.0, 0.0, inf, 0.0]
    query = build_query(g, 0, 5, SPINE, potential=sweep.dist)
    dev, stats = find_best_deviation(query, sweep=sweep)
    # the detour through node 4 needs its distance, so the search settled it
    assert sweep.dist == reverse_distances(g, 5)
    assert dev.bicost == BiCost(2.0, 2)
    assert dev.suffix == Path((7,), 2.0)
    assert stats == (6, 2, "found")


def test_search_settles_an_unsettled_root(six_node_graph):
    g = six_node_graph
    sweep = ReverseSweep(g, 5)
    sweep.settle(0.0)
    query = build_query(g, 4, 5, (6, 7), potential=sweep.dist)
    full = find_best_deviation(build_query(g, 4, 5, (6, 7), potential=reverse_distances(g, 5)))
    assert find_best_deviation(query, sweep=sweep) == full
    assert sweep.dist[4] == 2.0


def test_a_dead_end_finishes_the_sweep():
    # node 2 cannot reach the target 1; node 3 reaches it only at cost 10
    g = Graph(4, [(0, 1, 1.0), (0, 2, 1.0), (3, 1, 10.0)])
    sweep = ReverseSweep(g, 1)
    sweep.settle(1.0)
    assert sweep.horizon == 10.0
    query = build_query(g, 0, 1, (0,), potential=sweep.dist)
    assert find_best_deviation(query, sweep=sweep) == (None, (2, 1, "exhausted"))
    assert sweep.horizon == float("inf")
    assert sweep.dist == reverse_distances(g, 1)


def test_the_sweep_must_hold_the_potential(six_node_graph):
    sweep = ReverseSweep(six_node_graph, 5)
    query = build_query(six_node_graph, 0, 5, SPINE, potential=reverse_distances(six_node_graph, 5))
    with pytest.raises(ValueError, match="potential"):
        find_best_deviation(query, sweep=sweep)


@pytest.mark.parametrize("family", COST_FAMILIES)
def test_partly_settled_sweeps_search_as_the_full_potential(family):
    """Whatever the sweep starts from, the search extracts exactly what the full distances give."""
    searched = 0
    for seed in range(200):
        g = cost_family(make_digraph(seed), family)
        s, t = 0, g.node_count - 1
        ref, _ = shortest_path(g, s, t)
        if ref is None or not ref.arcs:
            continue
        full = reverse_distances(g, t)
        want = SearchDebug()
        expected = find_best_deviation(build_query(g, s, t, ref.arcs, potential=full), debug=want)
        for key in (0.0, full[s] / 2, full[s]):
            sweep = ReverseSweep(g, t)
            sweep.settle(key)
            got = SearchDebug()
            query = build_query(g, s, t, ref.arcs, potential=sweep.dist)
            assert find_best_deviation(query, debug=got, sweep=sweep) == expected, (seed, key)
            assert got.extracted == want.extracted
            assert got.extracted_keys == want.extracted_keys
            assert all(d == full[v] for v, d in enumerate(sweep.dist) if d != float("inf"))
        searched += 1
    assert searched >= 100


def test_single_arc_reference_with_no_rival_exhausts():
    g = Graph(2, [(0, 1, 1.0)])
    dev, stats = find_best_deviation(build_query(g, 0, 1, (0,)))
    assert dev is None
    assert stats.outcome == "exhausted"
    assert stats.target_extractions == 1


def test_parallel_arc_rival_is_found_through_rebuild():
    g = Graph(2, [(0, 1, 1.0), (0, 1, 5.0)])
    debug = SearchDebug()
    dev, stats = find_best_deviation(build_query(g, 0, 1, (0,)), debug=debug)
    assert dev.bicost == BiCost(5.0, 0)
    assert dev.node == 0
    assert dev.arc == 1
    assert dev.ref_index == 0
    assert stats == (3, 2, "found")


def test_cost_cap_aborts_the_query(six_node_graph):
    query = build_query(six_node_graph, 0, 5, SPINE)
    dev, stats = find_best_deviation(query, cost_cap=1.5)
    assert dev is None
    assert stats.outcome == "cost-capped"
    assert stats.iterations == 7
    assert stats.target_extractions == 1


def test_cost_cap_includes_the_prefix_cost(six_node_graph):
    query = build_query(six_node_graph, 0, 5, SPINE, prefix_cost=1.0)
    dev, stats = find_best_deviation(query, cost_cap=1.5)
    assert dev is None
    assert stats.outcome == "cost-capped"
    assert stats.iterations == 6


def test_inactive_cap_changes_nothing(six_node_graph):
    query = build_query(six_node_graph, 0, 5, SPINE)
    dev, stats = find_best_deviation(query, cost_cap=None)
    assert dev.bicost == BiCost(2.0, 2)
    assert stats.iterations == 8


def test_iteration_budget_raises(six_node_graph):
    query = build_query(six_node_graph, 0, 5, SPINE)
    with pytest.raises(SearchLimit) as exc:
        find_best_deviation(query, iteration_budget=3)
    assert exc.value.kind == "iterations"


def test_past_deadline_raises_on_a_long_search():
    n = 400
    arcs = [(i, i + 1, 1.0) for i in range(n)] + [(0, n, 1e6)]
    g = Graph(n + 1, arcs)
    query = build_query(g, 0, n, tuple(range(n)))
    with pytest.raises(SearchLimit) as exc:
        find_best_deviation(query, deadline=perf_counter() - 1.0)
    assert exc.value.kind == "deadline"


def test_build_query_rejects_bad_instances(six_node_graph):
    g = six_node_graph
    with pytest.raises(ValueError, match="continue"):
        build_query(g, 0, 5, (0, 3))
    with pytest.raises(ValueError, match="end at the target"):
        build_query(g, 0, 5, (0,))
    with pytest.raises(ValueError, match="potential"):
        build_query(g, 0, 5, SPINE, potential=[0.0, 0.0])

    ws = Workspace(g)
    ws.mask.delete_node(0)
    with pytest.raises(ValueError, match="source is masked"):
        build_query(g, 0, 5, SPINE, ws)
    ws.mask.reset()
    ws.mask.delete_arc(1)
    with pytest.raises(ValueError, match="masked"):
        build_query(g, 0, 5, SPINE, ws)
    ws.mask.reset()
    ws.mask.delete_node(3)
    with pytest.raises(ValueError, match="masked"):
        build_query(g, 0, 5, SPINE, ws)


def test_ref_epochs_isolate_consecutive_queries(six_node_graph):
    g = six_node_graph
    ws = Workspace(g)
    build_query(g, 0, 5, SPINE, ws)
    assert ws.ref_stamp[0] == ws.ref_epoch
    assert ws.ref_stamp[7] != ws.ref_epoch
    qb = build_query(g, 2, 5, (2, 3), ws)
    # arc 0 was on the first query's reference only
    assert ws.ref_stamp[0] != ws.ref_epoch
    assert ws.ref_stamp[2] == ws.ref_epoch

    dev, _ = find_best_deviation(qb)
    assert dev.bicost == BiCost(2.0, 0)
    assert dev.suffix == Path((7,), 2.0)


def test_workspace_is_reusable_across_many_queries(six_node_graph):
    g = six_node_graph
    ws = Workspace(g)
    for _ in range(3):
        dev, stats = find_best_deviation(build_query(g, 0, 5, SPINE, ws))
        assert dev.bicost == BiCost(2.0, 2)
        assert stats.iterations == 8


def test_first_deviation(six_node_graph):
    g = six_node_graph
    assert first_deviation(g, 0, SPINE, (0, 1, 7)) == (2, 7, 2)
    assert first_deviation(g, 0, SPINE, (4, 6, 7)) == (0, 4, 0)
    with pytest.raises(ValueError, match="do not deviate"):
        first_deviation(g, 0, SPINE, SPINE)
    with pytest.raises(ValueError, match="do not deviate"):
        first_deviation(g, 0, SPINE, SPINE[:2])


def test_reconstruct_follows_predecessor_links(six_node_graph):
    g = six_node_graph
    debug = SearchDebug()
    find_best_deviation(build_query(g, 0, 5, SPINE), debug=debug)
    found = reconstruct(g, debug.frontiers[5][1], debug.frontiers)
    assert found.arcs == (0, 1, 7)
    assert found.cost == 2.0


def _best_distinct(g: Graph, s: int, t: int, ref_arcs: tuple[int, ...]) -> Path | None:
    for p in enumerate_simple_paths(g, s, t):
        if p.arcs != ref_arcs:
            return p
    return None


def test_structural_invariants_on_seeded_instances():
    checked = 0
    for seed in range(120):
        g = make_digraph(seed)
        s, t = 0, g.node_count - 1
        ref, _ = shortest_path(g, s, t)
        if ref is None or not ref.arcs:
            continue
        checked += 1
        ws = Workspace(g)

        debug = SearchDebug()
        query = build_query(g, s, t, ref.arcs, ws)
        dev, stats = find_best_deviation(query, debug=debug)

        # plain mode extracts in nondecreasing (cost, overlap) order and
        # queue keys are the plain costs
        pairs = [(c, o) for c, o, _ in debug.extracted]
        assert pairs == sorted(pairs)
        assert debug.extracted_keys == [c for c, _, _ in debug.extracted]
        assert debug.max_live_per_node <= 1
        assert debug.queue_consistent
        assert stats.target_extractions <= 2

        # per node the permanent labels are a Pareto frontier
        for labels in debug.frontiers.values():
            costs = [lab.cost for lab in labels]
            overlaps = [lab.overlap for lab in labels]
            assert costs == sorted(costs)
            assert all(a > b for a, b in zip(overlaps, overlaps[1:]))

        expected = _best_distinct(g, s, t, ref.arcs)
        if expected is None:
            assert dev is None
            assert stats.outcome == "exhausted"
        else:
            assert dev is not None
            assert stats.outcome == "found"
            assert dev.bicost.cost == expected.cost
            full = ref.arcs[: dev.ref_index] + dev.suffix.arcs
            assert full != ref.arcs
            assert is_simple(g, full)
            assert path_cost(g, full) == dev.bicost.cost
            assert dev.suffix.arcs[0] == dev.arc
            assert ref.arcs[dev.ref_index] != dev.arc

        # guided mode answers with the same cost and a valid path
        pot = reverse_distances(g, t)
        gdebug = SearchDebug()
        gdev, gstats = find_best_deviation(
            build_query(g, s, t, ref.arcs, ws, potential=pot), debug=gdebug
        )
        assert gdebug.extracted_keys == sorted(gdebug.extracted_keys)
        assert gstats.target_extractions <= 2
        assert (gdev is None) == (dev is None)
        if gdev is not None:
            assert gdev.bicost.cost == dev.bicost.cost
            gfull = ref.arcs[: gdev.ref_index] + gdev.suffix.arcs
            assert is_simple(g, gfull)
            assert gfull != ref.arcs
            assert path_cost(g, gfull) == gdev.bicost.cost
    assert checked >= 80
