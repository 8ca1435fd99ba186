"""Scalar shortest path search: masks, caps, A* potentials and pruning."""
from __future__ import annotations

from math import inf

import pytest

from kssp.dijkstra import ReverseSweep, prune_limit, reverse_distances, shortest_path
from kssp.graph import Graph, Mask
from kssp.gridgen import gen_grid

from conftest import COST_FAMILIES, cost_family, make_digraph


def test_shortest_path_on_example(five_node_graph):
    path, pops = shortest_path(five_node_graph, 0, 4)
    assert path is not None
    assert path.arcs == (1, 5)
    assert path.cost == 2.0
    assert 0 < pops <= five_node_graph.node_count


def test_no_path_returns_none():
    g = Graph(3, [(0, 1, 1.0)])
    path, _ = shortest_path(g, 0, 2)
    assert path is None


def test_source_equals_target_is_the_empty_path(five_node_graph):
    path, pops = shortest_path(five_node_graph, 2, 2)
    assert path is not None
    assert path.arcs == ()
    assert path.cost == 0.0
    assert pops == 1


def test_mask_reroutes_and_reset_restores(five_node_graph):
    m = Mask(five_node_graph)
    m.delete_node(2)
    path, _ = shortest_path(five_node_graph, 0, 4, mask=m)
    assert path.arcs == (0, 4)
    m.delete_arc(4)
    path, _ = shortest_path(five_node_graph, 0, 4, mask=m)
    assert path.arcs == (2, 6)
    m.reset()
    path, _ = shortest_path(five_node_graph, 0, 4, mask=m)
    assert path.arcs == (1, 5)


def test_masked_endpoints_fail_fast(five_node_graph):
    m = Mask(five_node_graph)
    m.delete_node(0)
    assert shortest_path(five_node_graph, 0, 4, mask=m) == (None, 0)
    m.reset()
    m.delete_node(4)
    assert shortest_path(five_node_graph, 0, 4, mask=m) == (None, 0)


@pytest.mark.parametrize("guided", [False, True])
def test_cap_keeps_a_path_at_the_cap_and_cuts_one_above(five_node_graph, guided):
    potential = reverse_distances(five_node_graph, 4) if guided else None
    path, _ = shortest_path(five_node_graph, 0, 4, potential=potential, cap=2.0)
    assert path is not None
    assert path.arcs == (1, 5)
    assert path.cost == 2.0
    path, _ = shortest_path(five_node_graph, 0, 4, potential=potential, cap=1.99)
    assert path is None


def test_reverse_distances_match_forward_searches(digraph_factory):
    for seed in range(40):
        g = digraph_factory(seed)
        t = g.node_count - 1
        rev = reverse_distances(g, t)
        assert rev[t] == 0.0
        for u in range(g.node_count):
            path, _ = shortest_path(g, u, t)
            if path is None:
                assert rev[u] == inf
            else:
                assert rev[u] == path.cost


def test_potential_preserves_answers_and_saves_pops():
    g = gen_grid(20, 20, seed=4)
    t = g.node_count - 1
    rev = reverse_distances(g, t)
    plain, plain_pops = shortest_path(g, 0, t)
    guided, guided_pops = shortest_path(g, 0, t, potential=rev)
    assert guided.arcs == plain.arcs
    assert guided.cost == plain.cost
    assert guided_pops <= plain_pops


def test_potential_stays_admissible_under_masking():
    g = gen_grid(10, 10, seed=8)
    t = g.node_count - 1
    rev = reverse_distances(g, t)
    m = Mask(g)
    for a in range(0, g.arc_count, 7):
        m.delete_arc(a)
    plain, _ = shortest_path(g, 0, t, mask=m)
    guided, _ = shortest_path(g, 0, t, mask=m, potential=rev)
    assert (plain is None) == (guided is None)
    if plain is not None:
        assert guided.cost == plain.cost
        assert guided.arcs == plain.arcs


def test_unreachable_source_potential_short_circuits():
    g = Graph(3, [(0, 1, 1.0), (2, 1, 1.0)])
    rev = reverse_distances(g, 1)
    assert rev == [1.0, 0.0, 1.0]
    g2 = Graph(3, [(1, 0, 1.0), (1, 2, 1.0)])
    rev2 = reverse_distances(g2, 2)
    assert rev2[0] == inf
    assert shortest_path(g2, 0, 2, potential=rev2) == (None, 0)


def test_pruned_first_path_equals_the_plain_one():
    # every ordered pair of a fixed seed range, with rounding in two families
    pairs = 0
    for seed in range(1000):
        base = make_digraph(seed)
        n = base.node_count
        for family in COST_FAMILIES:
            g = cost_family(base, family)
            for t in range(n):
                rev = reverse_distances(g, t)
                for s in range(n):
                    if s != t:
                        pruned = shortest_path(g, s, t, prune=rev)[0]
                        assert pruned == shortest_path(g, s, t)[0], (seed, family, s, t)
                        pairs += 1
    assert pairs > 100_000


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pruned_search_pops_only_the_path_on_grids(seed):
    g = gen_grid(30, 30, seed=seed)
    t = g.node_count - 1
    plain, plain_pops = shortest_path(g, 0, t)
    pruned, pops = shortest_path(g, 0, t, prune=reverse_distances(g, t))
    assert pruned == plain
    assert pops == len(plain.arcs) + 1
    assert plain_pops > 10 * pops


def test_prune_rejects_an_unreachable_target_at_once():
    g = Graph(3, [(1, 0, 1.0), (1, 2, 1.0)])
    assert shortest_path(g, 0, 2, prune=reverse_distances(g, 2)) == (None, 0)


def check_tree(g, sweep):
    """Each settled node's tree arc folds to its ``dist`` bit for bit, and tree arcs reach t."""
    dist = sweep.dist
    t = sweep.target
    assert sweep.tree[t] == -1
    for u, d in enumerate(dist):
        if d == inf or u == t:
            continue
        a = sweep.tree[u]
        assert g.arc_tail[a] == u
        assert d.hex() == (g.arc_cost[a] + dist[g.arc_head[a]]).hex()
        v = u
        for _ in range(g.node_count):
            if v == t:
                break
            v = g.arc_head[sweep.tree[v]]
        assert v == t


def check_sweep_prefixes(g, t, keys):
    """Settle one sweep through increasing ``keys`` and compare each stop with the full run."""
    full = reverse_distances(g, t)
    sweep = ReverseSweep(g, t)
    for x in keys:
        sweep.settle(x)
        settled = {v for v, d in enumerate(sweep.dist) if d != inf}
        assert settled == {v for v, d in enumerate(full) if d <= x}, x
        assert all(sweep.dist[v].hex() == full[v].hex() for v in settled), x
        assert sweep.horizon > x
        assert all(full[v] >= sweep.horizon for v in range(g.node_count) if v not in settled), x
        check_tree(g, sweep)
    sweep.settle(inf)
    assert sweep.horizon == inf
    assert [d.hex() for d in sweep.dist] == [d.hex() for d in full]
    check_tree(g, sweep)


def test_sweep_settles_exactly_the_full_sweeps_prefix():
    for seed in range(1000):
        base = make_digraph(seed)
        for family in COST_FAMILIES:
            g = cost_family(base, family)
            t = g.node_count - 1
            finite = sorted({d for d in reverse_distances(g, t) if d != inf})
            midpoints = [(a + b) / 2 for a, b in zip(finite, finite[1:])]
            check_sweep_prefixes(g, t, sorted(finite + midpoints))


def test_sweep_prefixes_on_a_grid():
    g = gen_grid(30, 30, seed=5)
    t = 17
    finite = sorted(reverse_distances(g, t))
    check_sweep_prefixes(g, t, finite[::23] + [finite[-1]])


def test_sweep_settles_a_node_on_request():
    g = gen_grid(30, 30, seed=6)
    t = 0
    full = reverse_distances(g, t)
    for v in (899, 450, 31, 0):
        sweep = ReverseSweep(g, t)
        sweep.settle(0.0, v)
        assert sweep.dist[v] == full[v]
        assert all(sweep.dist[u] == d for u, d in enumerate(full) if d < full[v])
        assert sweep.horizon >= full[v]


def test_first_path_from_a_sweep_settled_to_the_prune_limit():
    for seed in (1, 2, 3):
        g = gen_grid(30, 30, seed=seed)
        s, t = 40, 870
        sweep = ReverseSweep(g, t)
        sweep.settle(0.0, s)
        sweep.settle(prune_limit(g, sweep.dist[s]))
        assert sum(d != inf for d in sweep.dist) < g.node_count
        assert shortest_path(g, s, t, prune=sweep.dist) == shortest_path(g, s, t, prune=reverse_distances(g, t))


def test_deviation_bound_takes_the_least_sidetrack_along_a_tree_path(five_node_graph):
    g = five_node_graph
    sweep = ReverseSweep(g, 4)
    sweep.settle(0.0)  # only the target
    assert sweep.deviation_bound((1, 5), 0.0) == -inf  # node 0 is not settled yet
    sweep.settle(inf)
    assert sweep.tree[0] == 1 and sweep.tree[2] == 5  # 0 -> 2 -> 4 costs 2
    # leaving 0 over 0 -> 1 -> 4 costs 3; node 2 has no arc but its tree arc
    assert sweep.deviation_bound((1, 5), 0.0) == 3.0
    assert sweep.sidetrack[0] == 3.0 and sweep.sidetrack[2] == inf
    assert sweep.deviation_bound((1, 5), 10.0) == 13.0
    assert sweep.deviation_bound((5,), 1.0) == inf
    assert sweep.deviation_bound((), 2.0) == inf  # nothing deviates from the target
    # 0 -> 1 is not node 0's tree arc, so 0 -> 2 -> 4 would go unbounded
    assert sweep.deviation_bound((0, 4), 0.0) == -inf


def test_deviation_bound_leaves_blocked_arcs_out_and_may_stop_early(five_node_graph):
    g = five_node_graph
    sweep = ReverseSweep(g, 4)
    sweep.settle(inf)
    assert sweep.deviation_bound((1, 5), 0.0) == 3.0
    # with 0 -> 1 blocked the least sidetrack out of 0 is 0 -> 3 -> 4; with both
    # blocked nothing leaves the path 0 -> 2 -> 4
    assert sweep.deviation_bound((1, 5), 0.0, [0]) == 4.0
    assert sweep.deviation_bound((1, 5), 0.0, [0, 2]) == inf
    # a blocked arc off the path changes nothing, and the memo keeps the unblocked value
    assert sweep.deviation_bound((1, 5), 0.0, [3]) == 3.0
    assert sweep.sidetrack[0] == 3.0
    # the walk gives up once the least sum so far falls to the stop
    assert sweep.deviation_bound((1, 5), 0.0, (), 3.0) == -inf
    assert sweep.deviation_bound((1, 5), 0.0, (), 2.5) == 3.0
    assert sweep.deviation_bound((1, 5), 0.0, [0], 3.0) == 4.0


def sweep_state(sweep: ReverseSweep) -> tuple:
    """Everything a sweep holds, with floats as hex so that equal means bit-identical."""
    return (
        sweep.target,
        sweep.horizon.hex(),
        [d.hex() for d in sweep.dist],
        sweep.tree,
        [x.hex() for x in sweep.sidetrack],
        [d.hex() for d in sweep._tentative],
        sweep._heap,
    )


def test_a_restarted_sweep_runs_as_a_new_one():
    g = gen_grid(30, 30, seed=5)
    sweep = ReverseSweep(g, 17)
    # targets after a full sweep, a partial one and one stopped at once
    for t, stops in ((870, [(0.0, 40), (inf, None)]), (17, [(25.0, None)]), (450, [(0.0, None)]), (3, [(inf, None)])):
        sweep.sidetrack_of(sweep.target)
        sweep.restart(t)
        fresh = ReverseSweep(g, t)
        assert sweep_state(sweep) == sweep_state(fresh)
        for key, node in stops:
            for each in (sweep, fresh):
                each.settle(key, node)
                each.deviation_bound(shortest_path(g, 40, t)[0].arcs, 0.0)
            assert sweep_state(sweep) == sweep_state(fresh)
