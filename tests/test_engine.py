"""Deviation tree driver: frozen example, prune rules, differentials."""
from __future__ import annotations

import hashlib
from pathlib import Path as FilePath

import pytest

import kssp.engine
from kssp.engine import (
    ABORTED,
    COMPLETE,
    EXHAUSTED,
    SolveLimitExceeded,
    SolveOptions,
    SolveReport,
    _validate_report,
    k_shortest_paths,
    queue_max_cap,
    queue_min_ready,
)
from kssp.dimacs import load_dimacs
from kssp.graph import Graph
from kssp.gridgen import gen_grid, sample_pairs
from kssp.oracles import enumerate_simple_paths
from kssp.rng import SplitMix64

from conftest import COST_FAMILIES, cost_family, make_digraph, report_digest


@pytest.mark.parametrize("guided", [True, False])
def test_five_node_example_is_frozen(five_node_graph, guided):
    report = k_shortest_paths(five_node_graph, 0, 4, 4, SolveOptions(guided=guided))
    assert report.status == COMPLETE
    assert report.costs == [2.0, 3.0, 4.0, 5.0]
    assert [r.path.arcs for r in report.records] == [(1, 5), (0, 4), (2, 6), (0, 3, 5)]

    r0, r1, r2, r3 = report.records
    assert (r0.parent_index, r0.dev_pos, r0.source_pos, r0.prefix_cost) == (None, 0, 0, 0.0)
    assert r0.blocked == [0, 2]
    assert (r1.parent_index, r1.dev_node, r1.dev_pos) == (0, 0, 0)
    assert (r1.source_node, r1.source_pos, r1.prefix_cost) == (1, 1, 2.0)
    assert r1.blocked == [3]
    assert (r2.parent_index, r2.dev_node, r2.dev_pos) == (0, 0, 0)
    assert (r2.source_node, r2.source_pos, r2.prefix_cost) == (3, 1, 3.0)
    assert r2.blocked == []
    assert (r3.parent_index, r3.dev_node, r3.dev_pos) == (1, 1, 1)
    assert (r3.source_node, r3.source_pos, r3.prefix_cost) == (2, 2, 4.0)

    st = report.stats
    assert st.queries_attempted == 5
    assert st.init_queries == 1
    assert st.queries_failed == 2
    assert st.queries_succeeded == 3
    assert st.labels_extracted == (19 if guided else 20)
    assert st.wall_time_s > 0.0


MINI_RANKING = [  # (arcs, parent_index) of all 16 simple 0-9 paths of mini10.gr
    ((1, 4, 7, 10, 12), None),  # cost 9
    ((0, 2, 5, 8, 11), 0),
    ((1, 3, 5, 8, 11), 0),
    ((1, 4, 6, 8, 11), 0),
    ((1, 4, 7, 9, 11), 0),
    ((0, 2, 5, 15, 12), 1),  # cost 11
    ((1, 3, 5, 15, 12), 2),
    ((1, 4, 6, 15, 12), 3),
    ((0, 2, 14, 10, 12), 1),  # cost 12
    ((1, 3, 14, 10, 12), 2),
    ((0, 2, 14, 9, 11), 8),
    ((1, 3, 14, 9, 11), 9),
    ((0, 13, 7, 10, 12), 1),  # cost 14
    ((0, 13, 6, 8, 11), 12),
    ((0, 13, 7, 9, 11), 12),
    ((0, 13, 6, 15, 12), 13),  # cost 16
]


@pytest.mark.parametrize("k", [4, 16])
@pytest.mark.parametrize(
    "options",
    [
        SolveOptions(),
        SolveOptions(guided=False),
        SolveOptions(prune_queue_min=False),
        SolveOptions(prune_queue_max=False, prune_queue_min=False),
    ],
)
def test_equal_cost_paths_keep_their_frozen_order(options, k):
    # equal-cost candidates leave the queue in the order they were pushed
    with open(FilePath(__file__).parent / "data" / "mini10.gr") as f:
        g = load_dimacs(f)
    report = k_shortest_paths(g, 0, 9, k, options)
    assert report.status == COMPLETE
    assert [(r.path.arcs, r.parent_index) for r in report.records] == MINI_RANKING[:k]


def test_report_properties(five_node_graph):
    report = k_shortest_paths(five_node_graph, 0, 4, 2)
    assert [p.cost for p in report.paths] == report.costs == [2.0, 3.0]


def test_k_equal_one_skips_the_query_machinery(five_node_graph):
    report = k_shortest_paths(five_node_graph, 0, 4, 1)
    assert report.status == COMPLETE
    assert report.costs == [2.0]
    assert report.stats.queries_attempted == 0
    assert report.stats.init_queries == 0


@pytest.mark.parametrize("k, options", [(1, SolveOptions()), (4, SolveOptions(guided=False))])
def test_plain_first_path_needs_no_reverse_sweep(five_node_graph, monkeypatch, k, options):
    def refuse(g, t):
        raise AssertionError("reverse sweep on a solve that cannot use it")

    monkeypatch.setattr("kssp.engine.ReverseSweep", refuse)
    report = k_shortest_paths(five_node_graph, 0, 4, k, options)
    assert report.costs == [2.0, 3.0, 4.0, 5.0][:k]


# report_digest over FROZEN_SOLVES, taken before the reverse sweep became resumable
FROZEN_SOLVES_DIGEST = "9e0ab3079f37572ddda9a8fb0b1e88d6deb68eb0b7ecd42bc2c54f4e0bc9a1c6"


def frozen_solves():
    """Seeded 64x64 grid pairs at k=50, then every cost family of 300 digraphs at k=2 and 5."""
    g = gen_grid(64, 64, seed=11)
    for s, t in sample_pairs(SplitMix64(12), g.node_count, 5):
        yield g, s, t, 50
    for seed in range(300):
        base = make_digraph(seed)
        for family in COST_FAMILIES:
            for k in (2, 5):
                yield cost_family(base, family), 0, base.node_count - 1, k


def test_solves_keep_their_frozen_records():
    """Records, status and counters stay bit-identical wherever the potential is settled lazily."""
    digests = [report_digest(k_shortest_paths(g, s, t, k)) for g, s, t, k in frozen_solves()]
    assert len(digests) == 5 + 300 * 3 * 2
    assert hashlib.sha256(" ".join(digests).encode()).hexdigest() == FROZEN_SOLVES_DIGEST


def test_label_budget_is_exact_under_a_lazily_settled_sweep(monkeypatch):
    g, s, t, k = next(frozen_solves())
    sweeps = []

    class Recorded(kssp.engine.ReverseSweep):
        __slots__ = ("calls",)

        def __init__(self, g, t):
            super().__init__(g, t)
            self.calls = 0
            sweeps.append(self)

        def settle(self, key, node=None):
            self.calls += 1
            super().settle(key, node)

    monkeypatch.setattr("kssp.engine.ReverseSweep", Recorded)
    full = k_shortest_paths(g, s, t, k)
    # the queries settled the sweep further, and the solve never finished it
    (sweep,) = sweeps
    assert sweep.calls > 2
    assert sweep.horizon < float("inf")
    budget = full.stats.labels_extracted
    exact = k_shortest_paths(g, s, t, k, SolveOptions(label_budget=budget))
    assert report_digest(exact) == report_digest(full)
    with pytest.raises(SolveLimitExceeded):
        k_shortest_paths(g, s, t, k, SolveOptions(label_budget=budget - 1))


def test_costs_that_overflow_to_infinity_solve_as_unguided():
    # the label at node 1 is keyed 1e308 + 1e308, which overflows to inf
    g = Graph(3, [(0, 2, 0.0), (0, 1, 1e308), (1, 2, 1e308)])
    guided = k_shortest_paths(g, 0, 2, 2, SolveOptions(validate=True))
    plain = k_shortest_paths(g, 0, 2, 2, SolveOptions(guided=False, validate=True))
    assert guided.costs == [0.0, float("inf")]
    assert report_digest(guided) == report_digest(plain)


def test_unreachable_target_ends_before_any_query():
    g = Graph(4, [(0, 1, 1.0), (2, 3, 1.0), (3, 1, 1.0)])
    report = k_shortest_paths(g, 0, 3, 5)
    assert report.status == EXHAUSTED
    assert report.records == []
    assert report.stats.queries_attempted == 0


def test_no_path_is_exhausted():
    g = Graph(3, [(0, 1, 1.0)])
    report = k_shortest_paths(g, 0, 2, 3)
    assert report.status == EXHAUSTED
    assert report.records == []


def test_fewer_paths_than_k_is_exhausted(five_node_graph):
    report = k_shortest_paths(five_node_graph, 0, 4, 6, SolveOptions(validate=True))
    assert report.status == EXHAUSTED
    assert report.costs == [2.0, 3.0, 4.0, 5.0]


def test_argument_validation(five_node_graph):
    with pytest.raises(ValueError, match="must differ"):
        k_shortest_paths(five_node_graph, 2, 2, 1)
    with pytest.raises(ValueError, match="at least 1"):
        k_shortest_paths(five_node_graph, 0, 4, 0)
    with pytest.raises(ValueError, match="out of range"):
        k_shortest_paths(five_node_graph, 0, 9, 1)
    with pytest.raises(ValueError, match="out of range"):
        k_shortest_paths(five_node_graph, -1, 4, 1)


def test_label_budget_aborts_with_partial_report(five_node_graph):
    with pytest.raises(SolveLimitExceeded) as exc:
        k_shortest_paths(five_node_graph, 0, 4, 4, SolveOptions(label_budget=5))
    assert exc.value.kind in ("iterations", "label-budget")
    report = exc.value.report
    assert report.status == ABORTED
    assert len(report.records) >= 1
    assert report.costs[0] == 2.0


def test_zero_timeout_aborts(five_node_graph):
    with pytest.raises(SolveLimitExceeded) as exc:
        k_shortest_paths(five_node_graph, 0, 4, 4, SolveOptions(timeout_s=0.0))
    assert exc.value.kind == "deadline"
    assert exc.value.report.status == ABORTED


def candidates(*costs):
    """A sorted candidate list as the driver keeps it: (cost, push counter, record)."""
    return sorted((c, i, None) for i, c in enumerate(costs))


def test_queue_max_cap():
    three = candidates(4.0, 3.5, 5.25)
    assert queue_max_cap(4, three, 6) == 5.25
    assert queue_max_cap(3, three, 6) == 5.25
    assert queue_max_cap(2, three, 6) is None
    tied = candidates(3.5, 4.0, 4.0)
    assert queue_max_cap(3, tied, 6) == 4.0
    assert queue_max_cap(3, candidates(3.5, 4.0), 6) is None
    assert queue_max_cap(0, [], 0) is None


def test_queue_min_ready():
    tied_head = candidates(2.0, 5.0, 2.0, 2.0)
    assert queue_min_ready(7, tied_head, 10)
    assert not queue_min_ready(6, tied_head, 10)
    two = candidates(3.0, 2.0)
    assert not queue_min_ready(7, two, 10)
    assert queue_min_ready(9, two, 10)
    # a tie elsewhere does not count toward the cheapest tier
    tied_tail = candidates(1.0, 4.0, 4.0)
    assert not queue_min_ready(8, tied_tail, 10)
    assert queue_min_ready(9, tied_tail, 10)
    assert not queue_min_ready(7, [], 7)


def test_differential_against_enumeration():
    checked = 0
    for seed in range(60):
        g = make_digraph(seed)
        s, t = 0, g.node_count - 1
        expected = enumerate_simple_paths(g, s, t)
        k = len(expected) + 2 if expected else 3
        guided = k_shortest_paths(g, s, t, k, SolveOptions(validate=True))
        plain = k_shortest_paths(g, s, t, k, SolveOptions(guided=False, validate=True))
        want = [p.cost for p in expected[:k]]
        assert guided.costs == want
        assert plain.costs == want
        assert guided.status == EXHAUSTED
        assert plain.status == EXHAUSTED
        if expected:
            checked += 1
            capped = k_shortest_paths(g, s, t, max(1, len(expected) - 1))
            assert capped.status == COMPLETE
            assert capped.costs == want[: max(1, len(expected) - 1)]
    assert checked >= 40


def test_prune_rules_never_change_costs():
    for seed in range(30):
        g = make_digraph(seed)
        s, t = 0, g.node_count - 1
        k = 12
        runs = {}
        for pmax in (True, False):
            for pmin in (True, False):
                opts = SolveOptions(prune_queue_max=pmax, prune_queue_min=pmin)
                report = k_shortest_paths(g, s, t, k, opts)
                runs[(pmax, pmin)] = report
                if not pmax:
                    assert report.stats.capped_queries == 0
        baseline = runs[(False, False)].costs
        for report in runs.values():
            assert report.costs == baseline


def test_query_budget_holds_on_small_instances():
    for seed in range(40):
        g = make_digraph(seed)
        s, t = 0, g.node_count - 1
        for k in (2, 5, 9):
            report = k_shortest_paths(g, s, t, k)
            assert report.stats.queries_attempted <= max(0, 2 * k - 4) + 1


def test_validate_report_catches_corruption(five_node_graph):
    report = k_shortest_paths(five_node_graph, 0, 4, 4)
    good = SolveReport(list(report.records), report.status, report.stats)
    _validate_report(five_node_graph, good)
    bad = SolveReport(list(report.records), report.status, report.stats)
    bad.records[1], bad.records[2] = bad.records[2], bad.records[1]
    with pytest.raises(AssertionError, match="cost order|prefix"):
        _validate_report(five_node_graph, bad)
    dup = SolveReport([report.records[0], report.records[0]], report.status, report.stats)
    with pytest.raises(AssertionError, match="duplicates"):
        _validate_report(five_node_graph, dup)
