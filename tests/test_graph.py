"""Graph container, mask semantics, and path arithmetic."""
from __future__ import annotations

import gc
from decimal import Decimal
from fractions import Fraction

import pytest

from kssp.dimacs import load_dimacs
from kssp.graph import Graph, GraphError, Mask, Path, PathError, path_cost

from conftest import UNALLOCATABLE_COUNTS, run_capped


def test_arc_ids_follow_insertion_order(five_node_graph):
    g = five_node_graph
    assert g.node_count == 5
    assert g.arc_count == 7
    assert list(g.arcs())[:2] == [(0, 1, 2.0), (0, 2, 1.0)]
    assert (g.arc_tail[6], g.arc_head[6], g.arc_cost[6]) == (3, 4, 1.0)
    assert repr(g) == "Graph(nodes=5, arcs=7)"


def test_adjacency_lists(five_node_graph):
    g = five_node_graph
    assert g.out_arcs[0] == [0, 1, 2]
    assert g.out_arcs[4] == []
    assert g.in_arcs[4] == [4, 5, 6]
    assert g.in_arcs[0] == []


def test_parallel_arcs_are_distinct():
    g = Graph(2, [(0, 1, 1.0), (0, 1, 2.0)])
    assert g.arc_count == 2
    assert g.out_arcs[0] == [0, 1]
    assert g.arc_cost == [1.0, 2.0]


def test_empty_graph():
    g = Graph(0, [])
    assert g.node_count == 0
    assert g.arc_count == 0


def test_rejects_bad_construction():
    with pytest.raises(GraphError):
        Graph(-1, [])
    with pytest.raises(GraphError):
        Graph(2, [(0, 2, 1.0)])
    with pytest.raises(GraphError):
        Graph(2, [(-1, 0, 1.0)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 1, -0.5)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 1, float("inf"))])
    with pytest.raises(GraphError):
        Graph(2, [(0, 1, float("nan"))])
    with pytest.raises(GraphError, match="finite"):
        Graph(2, [(0, 1, 10**400)])  # beyond the float range


# (node count, arcs, error text); the texts are the per-arc loop's
BAD_CONSTRUCTIONS = [
    (-1, [], "node_count must be nonnegative"),
    (2, [(0, 2, 1.0)], "arc 0: endpoint out of range: (0, 2)"),
    (2, [(-1, 0, 1.0)], "arc 0: endpoint out of range: (-1, 0)"),
    (2, [(0, 1, 1.0), (2, 0, 1.0)], "arc 1: endpoint out of range: (2, 0)"),
    (2, [(0, 1, 1.0), (1, -1, 1.0)], "arc 1: endpoint out of range: (1, -1)"),
    (2, [(0, 1, -0.5)], "arc 0: cost must be finite and nonnegative, got -0.5"),
    (2, [(0, 1, float("inf"))], "arc 0: cost must be finite and nonnegative, got inf"),
    (2, [(0, 1, float("nan"))], "arc 0: cost must be finite and nonnegative, got nan"),
    (2, [(0, 1, 10**400)], "arc 0: cost must be finite and nonnegative, got inf"),
    # the first bad arc wins, and an arc's endpoints are checked before its cost
    (2, [(0, 1, 1.0), (0, 1, -1.0), (5, 0, 1.0)], "arc 1: cost must be finite and nonnegative, got -1.0"),
    (2, [(0, 5, -1.0)], "arc 0: endpoint out of range: (0, 5)"),
    (2, [(0, 1, 1.0), (1, 0, float("nan")), (0, 1, float("inf"))],
     "arc 1: cost must be finite and nonnegative, got nan"),
    # ids that are not ints: in range, not comparable, and a fractional node count
    (3, [(0.5, 1, 1.0)], "arc 0: endpoint is not an int: (0.5, 1)"),
    (3, [("1", 2, 1.0)], "arc 0: endpoint is not an int: ('1', 2)"),
    (2.5, [], "node_count must be an int, got 2.5"),
    # costs that are not numbers
    (2, [(0, 1, "x")], "arc 0: cost is not a number: 'x'"),
    (2, [(0, 1, 1.0), (1, 0, None)], "arc 1: cost is not a number: None"),
    # float() would parse these, so they are refused as text, not read as numbers
    (2, [(0, 1, "1.5")], "arc 0: cost is not a number: '1.5'"),
    (2, [(0, 1, b"2")], "arc 0: cost is not a number: b'2'"),
    (2, [(0, 1, 1.0), (1, 0, bytearray(b"3"))], "arc 1: cost is not a number: bytearray(b'3')"),
]


@pytest.mark.parametrize("n, arcs, message", BAD_CONSTRUCTIONS)
def test_the_array_builder_raises_what_the_triples_raise(n, arcs, message):
    with pytest.raises(GraphError) as from_triples:
        Graph(n, arcs)
    columns = [[arc[i] for arc in arcs] for i in range(3)]
    with pytest.raises(GraphError) as from_arrays:
        Graph.from_arrays(n, *columns)
    assert type(from_triples.value) is type(from_arrays.value) is GraphError
    assert str(from_triples.value) == str(from_arrays.value) == message


def test_the_array_builder_rejects_arrays_of_different_lengths():
    with pytest.raises(GraphError, match="differ in length"):
        Graph.from_arrays(2, [0, 1], [1], [1.0, 1.0])


def test_parallel_arcs_keep_their_id_order_in_both_adjacency_lists():
    tail, head, cost = [0, 1, 0, 2, 0], [1, 0, 1, 1, 1], [3.0, 1.0, 2.0, 0.0, 3]
    for g in (Graph.from_arrays(3, tail, head, cost), Graph(3, zip(tail, head, cost))):
        assert g.out_arcs == [[0, 2, 4], [1], [3]]
        assert g.in_arcs == [[1], [0, 2, 3, 4], []]
        assert g.arc_cost == [3.0, 1.0, 2.0, 0.0, 3.0]
        assert type(g.arc_cost[4]) is float


def test_costs_of_any_number_type_become_floats():
    class Three:
        def __index__(self) -> int:
            return 3

    cost = [Decimal("1.5"), Fraction(1, 3), True, Three(), 2**60 + 1]
    want = [1.5, 1 / 3, 1.0, 3.0, float(2**60)]
    for g in (Graph.from_arrays(2, [0] * 5, [1] * 5, cost), Graph(2, [(0, 1, w) for w in cost])):
        assert g.arc_cost == want
        assert all(type(w) is float for w in g.arc_cost)


def test_a_graph_knows_whether_its_cost_folds_stay_in_range():
    assert Graph(0, []).folds_in_range
    assert Graph(3, [(0, 1, 2.0**1019), (1, 2, 2.0**1019)]).folds_in_range
    assert not Graph(3, [(0, 1, 2.0**1020), (1, 2, 2.0**1000)]).folds_in_range
    assert not Graph(3, [(0, 1, 1e308), (1, 2, 1e308)]).folds_in_range
    # costs that do not add up as given are summed as floats
    assert Graph(2, [(0, 1, Decimal("1.5")), (0, 1, Fraction(1, 3))]).folds_in_range
    assert not Graph(2, [(0, 1, Decimal("1e308")), (0, 1, Fraction(10**308))]).folds_in_range


def test_the_array_builder_keeps_its_own_lists():
    tail, head, cost = [0], [1], [1.0]
    g = Graph.from_arrays(2, tail, head, cost)
    tail[0], head[0], cost[0] = 1, 0, 2.0
    assert list(g.arcs()) == [(0, 1, 1.0)]


def test_mask_delete_and_reset(five_node_graph):
    m = Mask(five_node_graph)
    m.delete_node(2)
    m.delete_arc(4)
    assert [v for v, stamp in enumerate(m.node_stamp) if stamp == m.epoch] == [2]
    assert [a for a, stamp in enumerate(m.arc_stamp) if stamp == m.epoch] == [4]
    m.reset()
    assert m.epoch not in m.node_stamp and m.epoch not in m.arc_stamp


def test_mask_reset_only_clears_older_deletions(five_node_graph):
    m = Mask(five_node_graph)
    m.delete_node(1)
    m.reset()
    m.delete_node(3)
    assert [v for v, stamp in enumerate(m.node_stamp) if stamp == m.epoch] == [3]


def test_path_build_and_nodes(five_node_graph):
    p = Path((0, 3, 5), path_cost(five_node_graph, [0, 3, 5]))
    assert p.arcs == (0, 3, 5)
    assert p.cost == 5.0
    assert p.nodes(five_node_graph) == (0, 1, 2, 4)
    assert len(p) == 3


def test_empty_path():
    g = Graph(1, [])
    p = Path((), path_cost(g, []))
    assert p.cost == 0.0
    assert p.nodes(g) == ()
    assert len(p) == 0


def test_path_cost_folds_left_to_right():
    g = Graph(4, [(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.3)])
    folded = (0.1 + 0.2) + 0.3
    assert path_cost(g, [0, 1, 2]) == folded
    assert folded != 0.1 + (0.2 + 0.3)


def test_path_cost_rejects_bad_sequences(five_node_graph):
    with pytest.raises(PathError):
        path_cost(five_node_graph, [99])
    with pytest.raises(PathError):
        path_cost(five_node_graph, [0, 5])


@pytest.mark.parametrize("count", UNALLOCATABLE_COUNTS)
def test_a_node_count_too_large_to_allocate_is_a_graph_error(count):
    done = run_capped("-c", f"from kssp.graph import Graph\nGraph({count}, [])")
    assert done.returncode == 1
    last = done.stderr.splitlines()[-1]
    assert last == f"kssp.graph.GraphError: node_count {count} is too large to allocate"


def build(how: str, n: int, arcs: list[tuple]) -> Graph:
    """The graph of ``arcs`` made from triples, from arrays or from a DIMACS file."""
    if how == "triples":
        return Graph(n, arcs)
    if how == "arrays":
        return Graph.from_arrays(n, *([arc[i] for arc in arcs] for i in range(3)))
    return load_dimacs(f"p sp {n} {len(arcs)}\n" + "".join(f"a {u + 1} {v + 1} {w}\n" for u, v, w in arcs))


# (how, node count, arcs, error text or None); 2**64 + 1 fails at once, allocating nothing
GC_CASES = [
    (how, n, arcs, error)
    for how in ("triples", "arrays", "dimacs")
    for n, arcs, error in [
        (3, [(0, 1, 1.0), (1, 2, 2.0)], None),
        (2**64 + 1, [], "too large to allocate"),
        (3, [(0.5, 1, 1.0)], "endpoint is not an int"),
    ]
    if not (how == "dimacs" and error == "endpoint is not an int")  # a file refuses 0.5 as it reads it
]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("how, n, arcs, error", GC_CASES)
def test_building_a_graph_leaves_the_cyclic_gc_as_it_found_it(enabled, how, n, arcs, error):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            assert build(how, n, arcs).out_arcs == [[0], [1], []]
        else:
            with pytest.raises(GraphError, match=error):
                build(how, n, arcs)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("how", ["triples", "arrays", "dimacs"])
def test_filling_the_adjacency_lists_sets_off_no_cyclic_collection(how):
    collections = []

    def count_starts(phase: str, info: dict) -> None:
        if phase == "start":
            collections.append(info["generation"])

    arcs = [(v, v + 1, 1.0) for v in range(4999)]
    gc.collect()
    gc.callbacks.append(count_starts)
    try:
        g = build(how, 5000, arcs)  # 10,000 new lists, some ten young collections' worth
    finally:
        gc.callbacks.remove(count_starts)
    assert g.out_arcs[4998] == [4998] and g.in_arcs[4999] == [4998]
    assert collections == []
