"""Biobjective deviation search: frozen traces and structural invariants."""
from __future__ import annotations

from dataclasses import replace
from time import perf_counter

import pytest

from kssp.biobjective import (
    BiCost,
    SearchLimit,
    Workspace,
    build_query,
    find_best_deviation,
    reconstruct,
)
from kssp.dijkstra import ReverseSweep, reverse_distances, shortest_path
from kssp.engine import SolveOptions, k_shortest_paths
from kssp.graph import Graph, Path, path_cost
from kssp.gridgen import gen_grid
from kssp.oracles import enumerate_simple_paths

from conftest import COST_FAMILIES, cost_family, make_digraph, observe_search

SPINE = (0, 1, 2, 3)  # reference arcs of the six node example


def settled_sweep(g, t):
    """A reverse sweep toward t settled to the end: the full distances."""
    sweep = ReverseSweep(g, t)
    sweep.settle(float("inf"))
    return sweep


def test_six_node_plain_trace_is_frozen(six_node_graph):
    g = six_node_graph
    query = build_query(g, 0, 5, SPINE)
    (dev, stats), seen = observe_search(query)
    ws = query.workspace

    assert stats == (8, 2, "found", 0)
    assert seen.extracted == [
        (0.0, 0, 0),
        (0.0, 1, 1),
        (0.0, 2, 2),
        (0.0, 3, 3),
        (0.0, 4, 5),
        (1.0, 3, 4),
        (2.0, 1, 4),
        (2.0, 2, 5),
    ]
    assert seen.keys == [c for c, _, _ in seen.extracted]
    # the (3, 3) push into node 2 is dominated there, so node 2 still has
    # queued the (4, 1) push that comes after it
    assert ws.queued_stamp[2] == ws.serial
    assert ws.queued[2][4][:2] == (4.0, 1)
    assert seen.max_live_per_node == 1
    assert seen.queue_consistent

    assert seen.frontiers[4] == [(1.0, 3, 5, 0), (2.0, 1, 4, 0)]
    assert seen.frontiers[2] == [(0.0, 2, 1, 0)]
    assert seen.frontiers[5] == [(0.0, 4, 3, 0), (2.0, 2, 7, 0)]

    assert dev.bicost == BiCost(2.0, 2)
    assert g.arc_tail[dev.arc] == 2
    assert dev.arc == 7
    assert dev.ref_index == 2
    assert dev.suffix == (7,)


def test_six_node_guided_same_answer_fewer_pops(six_node_graph):
    g = six_node_graph
    assert reverse_distances(g, 5) == [0.0, 0.0, 0.0, 0.0, 2.0, 0.0]
    query = build_query(g, 0, 5, SPINE, sweep=ReverseSweep(g, 5))
    (dev, stats), seen = observe_search(query)
    assert dev.bicost == BiCost(2.0, 2)
    assert dev.suffix == (7,)
    assert stats.iterations == 6
    assert stats.target_extractions == 2
    keys = seen.keys
    assert keys == sorted(keys)


def test_guided_never_enqueues_nodes_that_cannot_reach_the_target(six_node_graph):
    arcs = list(six_node_graph.arcs()) + [(2, 6, 0.5)]
    g = Graph(7, arcs)
    assert reverse_distances(g, 5)[6] == float("inf")

    # a query touches a node's queue slot exactly when it offers it a label
    ws = Workspace(g)
    dev_p, _ = find_best_deviation(build_query(g, 0, 5, SPINE, ws))
    assert ws.queued_stamp[6] == ws.serial
    dev_g, _ = find_best_deviation(build_query(g, 0, 5, SPINE, ws, sweep=ReverseSweep(g, 5)))
    assert ws.queued_stamp[6] != ws.serial
    assert dev_p.bicost == dev_g.bicost == BiCost(2.0, 2)


def test_search_settles_the_sweep_on_demand(six_node_graph):
    g = six_node_graph
    inf = float("inf")
    sweep = ReverseSweep(g, 5)
    sweep.settle(0.0)
    assert sweep.dist == [0.0, 0.0, 0.0, 0.0, inf, 0.0]
    ws = Workspace(g)
    ws.mask.delete_arc(7)  # with 2->5 gone, the answer detours through node 4
    dev, stats = find_best_deviation(build_query(g, 0, 5, SPINE, ws, sweep=sweep))
    assert dev.bicost == BiCost(4.0, 3)
    assert dev.suffix == (4, 6, 2, 3)
    # the answer needs node 4's distance, so the search settled it
    assert sweep.dist == reverse_distances(g, 5)
    full = find_best_deviation(build_query(g, 0, 5, SPINE, ws, sweep=settled_sweep(g, 5)))
    assert (dev, stats[:3]) == (full[0], full[1][:3])


def test_search_settles_an_unsettled_root(six_node_graph):
    g = six_node_graph
    sweep = ReverseSweep(g, 5)
    sweep.settle(0.0)
    query = build_query(g, 4, 5, (6, 7), sweep=sweep)
    full = find_best_deviation(build_query(g, 4, 5, (6, 7), sweep=settled_sweep(g, 5)))
    assert find_best_deviation(query) == full
    assert sweep.dist[4] == 2.0


def test_a_dead_end_finishes_the_sweep():
    # node 2 cannot reach the target 1; node 3 reaches it only at cost 10
    g = Graph(4, [(0, 1, 1.0), (0, 2, 1.0), (3, 1, 10.0)])
    sweep = ReverseSweep(g, 1)
    sweep.settle(1.0)
    assert sweep.horizon == 10.0
    query = build_query(g, 0, 1, (0,), sweep=sweep)
    assert find_best_deviation(query) == (None, (2, 1, "exhausted", 1))
    assert sweep.horizon == float("inf")
    assert sweep.dist == reverse_distances(g, 1)


def test_build_query_rejects_a_sweep_of_another_instance(six_node_graph):
    g = six_node_graph
    with pytest.raises(ValueError, match="sweep"):
        build_query(g, 0, 5, SPINE, sweep=ReverseSweep(g, 4))
    twin = Graph(g.node_count, g.arcs())
    with pytest.raises(ValueError, match="sweep"):
        build_query(g, 0, 5, SPINE, sweep=ReverseSweep(twin, 5))
    assert build_query(g, 0, 5, SPINE, sweep=ReverseSweep(g, 5)).sweep.target == 5


def test_build_query_rejects_a_workspace_of_another_graph(six_node_graph):
    g = six_node_graph
    twin = Workspace(Graph(g.node_count, g.arcs()))
    twin.mask.delete_arc(7)  # would hide the answer over arc 7
    with pytest.raises(ValueError, match="workspace"):
        build_query(g, 0, 5, SPINE, twin)
    with pytest.raises(ValueError, match="workspace"):
        build_query(g, 0, 5, SPINE, Workspace(Graph(2, [(0, 1, 1.0)])))


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
        query = build_query(g, s, t, ref.arcs, sweep=settled_sweep(g, t))
        expected, want = observe_search(query)
        for key in (0.0, full[s] / 2, full[s]):
            sweep = ReverseSweep(g, t)
            sweep.settle(key)
            query = build_query(g, s, t, ref.arcs, sweep=sweep)
            (dev, stats), got = observe_search(query)
            # sidetrack bounds read the horizon, so how many labels the
            # tree walk takes depends on how far it got
            assert (dev, stats[:3]) == (expected[0], expected[1][:3]), (seed, key)
            assert got.extracted == want.extracted
            assert got.keys == want.keys
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
    dev, stats = find_best_deviation(build_query(g, 0, 1, (0,)))
    assert dev.bicost == BiCost(5.0, 0)
    assert g.arc_tail[dev.arc] == 0
    assert dev.arc == 1
    assert dev.ref_index == 0
    assert stats == (3, 2, "found", 0)


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


def test_past_deadline_raises_inside_a_tree_answer():
    # the rival of the one-arc reference is a 400-arc walk along the tree
    n = 400
    arcs = [(i, i + 1, 1.0) for i in range(n)] + [(0, n, 0.5)]
    g = Graph(n + 1, arcs)
    dev, stats = find_best_deviation(build_query(g, 0, n, (n,), sweep=settled_sweep(g, n)))
    assert dev.suffix == tuple(range(n))
    assert stats == (402, 2, "found", 400)
    query = build_query(g, 0, n, (n,), sweep=settled_sweep(g, n))
    with pytest.raises(SearchLimit) as exc:
        find_best_deviation(query, deadline=perf_counter() - 1.0)
    assert exc.value.kind == "deadline"


def test_build_query_rejects_bad_instances(six_node_graph):
    g = six_node_graph
    with pytest.raises(ValueError, match="continue"):
        build_query(g, 0, 5, (0, 3))
    with pytest.raises(ValueError, match="end at the target"):
        build_query(g, 0, 5, (0,))

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


def test_a_query_keeps_its_own_reference(six_node_graph):
    g = six_node_graph
    ws = Workspace(g)
    qa = build_query(g, 0, 5, SPINE, ws)
    qb = build_query(g, 2, 5, (2, 3), ws)

    # building qb on the same workspace leaves qa's answer as on a fresh one
    dev, stats = find_best_deviation(qa)
    assert dev.arc == 7
    assert dev.bicost == BiCost(2.0, 2)
    assert stats.iterations == 8
    assert (dev, stats) == find_best_deviation(build_query(g, 0, 5, SPINE))

    dev, _ = find_best_deviation(qb)
    assert dev.bicost == BiCost(2.0, 0)
    assert dev.suffix == (7,)


def test_workspace_is_reusable_across_many_queries(six_node_graph):
    g = six_node_graph
    ws = Workspace(g)
    for _ in range(3):
        dev, stats = find_best_deviation(build_query(g, 0, 5, SPINE, ws))
        assert dev.bicost == BiCost(2.0, 2)
        assert stats.iterations == 8


def test_reconstruct_follows_predecessor_links(six_node_graph):
    g = six_node_graph
    ws = Workspace(g)
    find_best_deviation(build_query(g, 0, 5, SPINE, ws))
    label = ws.frontiers[5][1]
    assert [lab[2] for lab in reconstruct(g, label, ws.frontiers)] == [0, 1, 7]
    assert label[0] == 2.0


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

        query = build_query(g, s, t, ref.arcs, ws)
        (dev, stats), seen = observe_search(query)

        # plain mode extracts in nondecreasing (cost, overlap) order and
        # queue keys are the plain costs
        pairs = [(c, o) for c, o, _ in seen.extracted]
        assert pairs == sorted(pairs)
        assert seen.keys == [c for c, _, _ in seen.extracted]
        assert seen.max_live_per_node <= 1
        assert seen.queue_consistent
        assert stats.target_extractions <= 2

        # per node the permanent labels are a Pareto frontier
        for labels in seen.frontiers.values():
            costs = [lab[0] for lab in labels]
            overlaps = [lab[1] for lab in labels]
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
            full = ref.arcs[: dev.ref_index] + dev.suffix
            assert full != ref.arcs
            assert len(set(Path(full, dev.bicost.cost).nodes(g))) == len(full) + 1
            assert path_cost(g, full) == dev.bicost.cost
            assert dev.suffix[0] == dev.arc
            assert ref.arcs[dev.ref_index] != dev.arc

        # guided mode answers with the same cost and a valid path
        (gdev, gstats), gseen = observe_search(
            build_query(g, s, t, ref.arcs, ws, sweep=ReverseSweep(g, t))
        )
        assert gseen.keys == sorted(gseen.keys)
        assert gstats.target_extractions <= 2
        assert (gdev is None) == (dev is None)
        if gdev is not None:
            assert gdev.bicost.cost == dev.bicost.cost
            gfull = ref.arcs[: gdev.ref_index] + gdev.suffix
            assert len(set(Path(gfull, gdev.bicost.cost).nodes(g))) == len(gfull) + 1
            assert gfull != ref.arcs
            assert path_cost(g, gfull) == gdev.bicost.cost
    assert checked >= 80


@pytest.mark.parametrize("guided", [True, False])
def test_engine_queries_answer_the_least_cost_and_overlap(monkeypatch, guided):
    """Each query the driver asks, masks and prefix cost included, against enumeration.

    The answer is the least (cost, overlap) over the unmasked simple paths
    other than the reference. A rebuild that kept the first of two
    equal-cost extensions instead of the one of least overlap answers
    seed 35's first query with overlap 4 instead of 2.
    """
    queries = 0

    def checked(query, cost_cap=None, **limits):
        nonlocal queries
        got = find_best_deviation(query, cost_cap, **limits)
        g = query.workspace.graph
        mask = query.workspace.mask
        ref = set(query.ref_arcs)
        rivals = []
        # from the target itself the only simple path is the empty reference
        paths = enumerate_simple_paths(g, query.source, query.target) if query.ref_arcs else []
        for p in paths:
            if p.arcs == query.ref_arcs or any(
                mask.epoch in (mask.arc_stamp[a], mask.node_stamp[g.arc_head[a]]) for a in p.arcs
            ):
                continue
            cost = query.prefix_cost
            for a in p.arcs:
                cost += g.arc_cost[a]
            rivals.append(BiCost(cost, sum(a in ref for a in p.arcs)))
        best = min(rivals, default=None)
        if got[0] is None:
            assert best is None or (cost_cap is not None and best.cost >= cost_cap)
        else:
            assert got[0].bicost == best
        queries += 1
        return got

    monkeypatch.setattr("kssp.engine.find_best_deviation", checked)
    for seed in range(60):
        g = make_digraph(seed)
        k_shortest_paths(g, 0, g.node_count - 1, 5, SolveOptions(guided=guided))
    assert queries > 100


def compare_with_a_blind_tree(monkeypatch) -> list[int]:
    """Run every query of the engine's solves again on a sweep whose tree is blank.

    A blank tree (all -1) turns the fast path off, so the second run is
    the plain loop; its deviation, its stats and the labels it extracts,
    in order and with their keys, must equal the first run's. Returns the
    list that collects each query's ``tree_steps``.
    """
    blind: dict[ReverseSweep, ReverseSweep] = {}
    tree_steps: list[int] = []

    def both(query, cost_cap=None, **limits):
        got, seen = observe_search(query, cost_cap, **limits)
        twin = blind.get(query.sweep)
        if twin is None:
            twin = blind[query.sweep] = ReverseSweep(query.workspace.graph, query.target)
            twin.settle(float("inf"))
            twin.tree = [-1] * query.workspace.graph.node_count
        want, plain = observe_search(replace(query, sweep=twin), cost_cap, **limits)
        assert want[1].tree_steps == 0
        assert got[0] == want[0]
        assert got[1][:3] == want[1][:3]
        assert seen.extracted == plain.extracted
        assert seen.keys == plain.keys
        tree_steps.append(got[1].tree_steps)
        return got

    monkeypatch.setattr("kssp.engine.find_best_deviation", both)
    return tree_steps


@pytest.mark.parametrize("family", COST_FAMILIES)
def test_tree_answers_change_no_query_on_digraphs(monkeypatch, family):
    tree_steps = compare_with_a_blind_tree(monkeypatch)
    for seed in range(300):
        g = cost_family(make_digraph(seed), family)
        k_shortest_paths(g, 0, g.node_count - 1, 40)
    assert sum(tree_steps) > 0


def test_tree_answers_change_no_query_on_a_grid(monkeypatch):
    tree_steps = compare_with_a_blind_tree(monkeypatch)
    g = gen_grid(30, 30, seed=3)
    k_shortest_paths(g, 31, 868, 300)
    assert sum(tree_steps) > 0


def test_a_tree_completion_losing_a_tie_on_overlap_falls_back():
    # reference 0-1-2-3; both ways on from node 4 cost 2, but the tree
    # arc 4->2 rejoins the reference for its last arc, 4->5->3 does not
    g = Graph(
        6,
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 4, 2.0), (4, 2, 1.0), (4, 5, 1.0), (5, 3, 1.0)],
    )
    sweep = ReverseSweep(g, 3)
    sweep.settle(float("inf"))
    assert sweep.tree[4] == 4
    dev, stats = find_best_deviation(build_query(g, 0, 3, (0, 1, 2), sweep=sweep))
    assert dev.bicost == BiCost(4.0, 0)
    assert dev.suffix == (3, 5, 6)
    assert stats.tree_steps == 3  # the root's walk; the walk from node 4 stops at the tie
    sweep.tree = [-1] * g.node_count
    assert find_best_deviation(build_query(g, 0, 3, (0, 1, 2), sweep=sweep)) == (
        dev,
        stats._replace(tree_steps=0),
    )


@pytest.mark.parametrize("masked", ["arc", "node"])
def test_a_masked_tree_walk_falls_back(masked):
    # reference 0-1-2; node 3's tree path 3-5-2 is masked, so the answer
    # leaves through 3 but goes on by 3-4-2
    g = Graph(
        6,
        [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 2.0), (3, 5, 0.5), (3, 4, 1.0), (4, 2, 1.0), (5, 2, 0.5)],
    )
    sweep = ReverseSweep(g, 2)
    sweep.settle(float("inf"))
    assert sweep.tree[3] == 3
    ws = Workspace(g)
    if masked == "arc":
        ws.mask.delete_arc(3)
    else:
        ws.mask.delete_node(5)
    dev, stats = find_best_deviation(build_query(g, 0, 2, (0, 1), ws, sweep=sweep))
    assert dev.bicost == BiCost(4.0, 0)
    assert dev.suffix == (2, 4, 5)
    assert stats.tree_steps == 3  # 2 on the root's walk, none from 3, 1 from 4
    sweep.tree = [-1] * g.node_count
    assert find_best_deviation(build_query(g, 0, 2, (0, 1), ws, sweep=sweep)) == (
        dev,
        stats._replace(tree_steps=0),
    )


def search_both_ways(g, s, t, ref_arcs, ws=None, prefix_cost=0.0, **limits):
    """Run a query on a settled sweep, then again with the sweep's tree blank.

    A blank tree turns the tree walk off. Both runs must
    return the same deviation and first three stats, extract the same
    labels in the same order and make the same labels permanent; returns
    the first run's result.
    """
    runs = []
    for blank in (False, True):
        sweep = settled_sweep(g, t)
        if blank:
            sweep.tree = [-1] * g.node_count
        query = build_query(g, s, t, ref_arcs, ws, prefix_cost, sweep)
        runs.append(observe_search(query, **limits))
    (got, seen), (want, plain) = runs
    assert got[0] == want[0]
    assert got[1][:3] == want[1][:3]
    assert seen.extracted == plain.extracted
    assert seen.keys == plain.keys
    assert seen.frontiers == plain.frontiers
    return got


def test_a_chord_tying_a_later_reference_label_is_extracted_first():
    # reference 0-1-2-3 behind a prefix of 2^53, where the chord 0->2 folds to
    # the reference label's cost at 2 with overlap 0, yet the tree keeps 0->1
    g = Graph(4, [(0, 1, 0.25), (1, 2, 0.25), (0, 2, 1.0), (2, 3, 1.0)])
    assert settled_sweep(g, 3).tree[:3] == [0, 1, 3]
    dev, stats = search_both_ways(g, 0, 3, (0, 1, 3), prefix_cost=2.0**53)
    assert dev.suffix == (2, 3)
    assert dev.bicost.overlap == 1
    # the reference label at 1 keys above the chord's bound, so the root's walk
    # stops at once; the chord's label at 2 walks on to the target
    assert stats.tree_steps == 1


def test_a_sidetrack_keyed_at_the_next_reference_key_stops_the_prelude():
    # all arcs cost 0: the sidetrack 0->3->2 keys 0 like the reference label
    # at 1, and is taken first for its lower overlap
    g = Graph(4, [(0, 1, 0.0), (1, 2, 0.0), (0, 3, 0.0), (3, 2, 0.0)])
    assert settled_sweep(g, 2).tree[:2] == [0, 1]
    dev, stats = search_both_ways(g, 0, 2, (0, 1))
    assert dev.suffix == (2, 3)
    assert stats == (3, 1, "found", 0)


def test_an_earlier_bound_stops_a_walk_whose_keys_drift_up():
    # behind a prefix of 2^53 each arc of cost 1.5 folds to 2, so the keys of the
    # reference 0-1-..-40 climb from 2^53 + 60 to 2^53 + 80 along the tree; the
    # root's bound, 2^53 + 62 for the rival 0->40, must stop every walk past it
    n = 40
    g = Graph(n + 1, [(i, i + 1, 1.5) for i in range(n)] + [(0, n, 70.0)])
    dev, stats = search_both_ways(g, 0, n, tuple(range(n)), prefix_cost=2.0**53)
    assert dev.suffix == (n,)
    assert stats == (20, 1, "found", 17)


def test_a_blocked_cheapest_sidetrack_is_skipped_when_its_bound_pops():
    # reference 0-1-2-3; the cheapest sidetrack 1->4 is blocked in the first
    # query and open in the second, on one sweep and its sidetrack memo
    g = Graph(
        6,
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (1, 4, 1.5), (4, 3, 1.0), (2, 5, 1.5), (5, 3, 1.5)],
    )
    ws = Workspace(g)
    ws.mask.delete_arc(3)
    dev, stats = search_both_ways(g, 0, 3, (0, 1, 2), ws)
    assert dev.suffix == (5, 6)
    assert stats.tree_steps == 4  # 3 on the root's walk, 1 from node 5
    ws.mask.reset()
    dev, stats = search_both_ways(g, 0, 3, (0, 1, 2), ws)
    assert dev.suffix == (3, 4)
    assert stats.tree_steps == 4  # 3 on the root's walk, 1 from node 4


def test_a_reference_that_leaves_the_tree_hands_over_there():
    # the tree leaves the reference 0-1-2-3 at node 1 for 1->4->3, whose last
    # arc is masked; the sidetrack 0->5 keys between that detour and the reference
    g = Graph(
        6,
        [
            (0, 1, 1.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (1, 4, 0.5),
            (4, 3, 0.5),
            (4, 2, 1.0),
            (0, 5, 1.5),
            (5, 3, 1.0),
            (5, 2, 1.5),
        ],
    )
    assert settled_sweep(g, 3).tree[:2] == [0, 3]
    ws = Workspace(g)
    ws.mask.delete_arc(4)
    ws.mask.delete_arc(7)
    dev, stats = search_both_ways(g, 0, 3, (0, 1, 2), ws)
    assert dev.suffix == (3, 5, 2)
    # the root's walk follows the tree off the reference to 4 and stops at its masked arc
    assert stats.tree_steps == 2


@pytest.mark.parametrize("cap, iterations, capped_node", [(3.0, 4, 3), (5.0, 6, 5)])
def test_the_cost_cap_strikes_inside_the_prelude_and_at_its_target_label(cap, iterations, capped_node):
    # the reference 0-1-2-3-4-5 follows the tree; the rival arc 0->5 costs 10
    g = Graph(6, [(i, i + 1, 1.0) for i in range(5)] + [(0, 5, 10.0)])
    dev, stats = search_both_ways(g, 0, 5, tuple(range(5)), cost_cap=cap)
    assert dev is None
    # the root's walk settles the labels before the capped one, which the loop extracts
    assert stats == (iterations, 0, "cost-capped", capped_node - 1)


def test_past_deadline_raises_inside_the_prelude():
    # the root's walk settles the 300 reference labels after the root; the loop
    # then ends at label 302, before its own next deadline check
    n = 300
    arcs = [(i, i + 1, 1.0) for i in range(n)] + [(0, n, 1000.0)]
    g = Graph(n + 1, arcs)
    dev, stats = search_both_ways(g, 0, n, tuple(range(n)))
    assert dev.suffix == (n,)
    assert stats == (302, 2, "found", 300)
    query = build_query(g, 0, n, tuple(range(n)), sweep=settled_sweep(g, n))
    with pytest.raises(SearchLimit) as exc:
        find_best_deviation(query, deadline=perf_counter() - 1.0)
    assert exc.value.kind == "deadline"
