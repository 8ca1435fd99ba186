"""Graph container, mask semantics, and path arithmetic."""
from __future__ import annotations

import pytest

from kssp.graph import Graph, GraphError, Mask, Path, PathError, is_simple, path_cost


def test_arc_ids_follow_insertion_order(five_node_graph):
    g = five_node_graph
    assert g.node_count == 5
    assert g.arc_count == 7
    assert g.arc(0) == (0, 1, 2.0)
    assert g.arc(6) == (3, 4, 1.0)
    assert list(g.arcs())[1] == (0, 2, 1.0)


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
    assert g.arc(0) != g.arc(1)


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


def test_mask_delete_and_reset(five_node_graph):
    m = Mask(five_node_graph)
    m.delete_node(2)
    m.delete_arc(4)
    assert m.node_deleted(2)
    assert m.arc_deleted(4)
    assert not m.node_deleted(1)
    assert not m.arc_deleted(0)
    m.reset()
    assert not m.node_deleted(2)
    assert not m.arc_deleted(4)


def test_mask_reset_only_clears_older_deletions(five_node_graph):
    m = Mask(five_node_graph)
    m.delete_node(1)
    m.reset()
    m.delete_node(3)
    assert not m.node_deleted(1)
    assert m.node_deleted(3)


def test_path_build_and_nodes(five_node_graph):
    p = Path.build(five_node_graph, [0, 3, 5])
    assert p.arcs == (0, 3, 5)
    assert p.cost == 5.0
    assert p.nodes(five_node_graph) == (0, 1, 2, 4)
    assert len(p) == 3


def test_empty_path():
    g = Graph(1, [])
    p = Path.build(g, [])
    assert p.cost == 0.0
    assert p.nodes(g) == ()
    assert len(p) == 0
    assert is_simple(g, p)


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


def test_is_simple(five_node_graph):
    assert is_simple(five_node_graph, [0, 3, 5])
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (0, 1, 1.0)])
    assert not is_simple(g, [0, 1, 2, 3])
    loop = Graph(2, [(0, 1, 1.0), (1, 0, 1.0)])
    assert not is_simple(loop, [0, 1])
