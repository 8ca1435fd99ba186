"""Deviation tree driver: frozen example, prune rules, differentials."""
from __future__ import annotations

import copy
import gc
import hashlib
import pickle
import sys
import threading
import tracemalloc
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path as FilePath

import pytest

import kssp.engine
from kssp.engine import (
    ABORTED,
    COMPLETE,
    EXHAUSTED,
    PathRecord,
    SolveLimitExceeded,
    SolveOptions,
    SolveReport,
    _validate_report,
    k_shortest_paths,
    queue_max_cap,
)
from kssp.biobjective import Deviation, Workspace, build_query, find_best_deviation
from kssp.dijkstra import ReverseSweep
from kssp.dimacs import load_dimacs
from kssp.graph import Graph, Path, path_cost, prune_limit, successor
from kssp.gridgen import gen_grid
from kssp.oracles import enumerate_simple_paths, yen_k_shortest

from conftest import (
    COST_FAMILIES, IntLike, cost_family, cost_free_digest, frozen_solves, make_digraph,
    report_digest, road_solves, solve_digest,
)
# the gate grids have one derivation, which perfbench/instances.py reads from that file
from test_acceptance import GRID_K, grid_instances


@pytest.mark.parametrize("guided", [True, False])
def test_five_node_example_is_frozen(five_node_graph, guided):
    report = k_shortest_paths(five_node_graph, 0, 4, 4, SolveOptions(guided=guided))
    assert report.status == COMPLETE
    assert report.costs == [2.0, 3.0, 4.0, 5.0]
    assert [r.path.arcs for r in report.records] == [(1, 5), (0, 4), (2, 6), (0, 3, 5)]

    r0, r1, r2, r3 = report.records
    assert (r0.parent_index, r0.dev_pos, r0.source_pos, r0.prefix_cost) == (None, 0, 0, 0.0)
    assert r0.blocked == [0, 2]
    assert (r1.parent_index, r1.dev_pos, r1.source_pos, r1.prefix_cost) == (0, 0, 1, 2.0)
    assert r1.blocked == [3]
    assert (r2.parent_index, r2.dev_pos, r2.source_pos, r2.prefix_cost) == (0, 0, 1, 3.0)
    assert r2.blocked == []
    assert (r3.parent_index, r3.dev_pos, r3.source_pos, r3.prefix_cost) == (1, 1, 2, 4.0)
    # each deviation arc runs from the deviation node to the source node
    g = five_node_graph
    assert [(g.arc_tail[r.suffix[0]], g.arc_head[r.suffix[0]]) for r in (r1, r2, r3)] == [(0, 1), (0, 3), (1, 2)]

    st = report.stats
    assert st.queries_attempted == 5
    assert st.init_queries == 1
    assert st.queries_failed == 2
    assert st.queries_succeeded == 3
    # guided, the two asks that would fail have no deviation, so their bounds
    # are infinite and they are dropped without a search, and the tree answers
    # the other three
    assert st.capped_queries == (2 if guided else 0)
    assert st.tree_answers == (3 if guided else 0)
    assert st.labels_extracted == (0 if guided else 20)
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


# report_digest over frozen_solves(), retaken when search labels began at their prefix's cost,
# twice when a prune rule changed counters and blocked lists only: the trimmed queue with
# skipped first asks, then asks deferred behind their bounds; when tree answers changed counters, and
# when asks began to be tree-answered as they are made
FROZEN_SOLVES_DIGEST = "d95a9832bbe123577dfec41157fa5428606e477e76f65a31050f05c681c232c5"


def test_solves_keep_their_frozen_records():
    """Records, status and counters stay bit-identical to the frozen solves.

    The digest was retaken once every search label started at its
    prefix's cost. Then 17 of the 1805 solves changed records (4 tenths,
    13 huge) and 46 changed counters; the 64x64 grid and integer solves
    stayed bit-identical. 5 changed their cost list, each to the one
    enumerate_simple_paths gives, and 12 changed only tie order or tree
    shape. Against enumeration, 2 solves misrank, down from 7. It was
    retaken again when the queue began to keep only its k - n cheapest
    candidates and first asks began to be skipped on their reference
    bound; ``records_digest`` shows the records unchanged across that.
    It was retaken once more when asks began to wait behind their
    blocked-aware bounds: 115 solves, the 64x64 grid ones among them,
    changed counters or blocked lists, and ``records_digest`` again
    shows the records unchanged. It was retaken when guided queries began
    to be answered from the sweep's tree: 360 solves count tree answers
    and fewer labels, and every record and blocked list stayed as it was.
    It was retaken when a guided ask began to be answered from the tree
    when it is made: asks the deferring driver never searched now queue
    candidates and block their arcs, so counters and blocked lists moved,
    and ``records_digest`` shows the records unchanged.
    """
    digests = [solve_digest(g, s, t, k) for g, s, t, k in frozen_solves()]
    assert len(digests) == 5 + 300 * 3 * 2
    assert hashlib.sha256(" ".join(digests).encode()).hexdigest() == FROZEN_SOLVES_DIGEST


# report_digest over road_solves(), then cost_free_digest over the same solves
FROZEN_ROAD_DIGEST = "bd02bcb130899777735ce19e0fbe4e78380615e395d65f7678db5fd3d77b671e"
FROZEN_ROAD_COST_FREE_DIGEST = "213bb17f76795f0a831bfe492d4fc184abb4247886a52345557bb433e2a1a00b"


def test_road_scale_solves_keep_their_frozen_records():
    """Records, status and counters stay bit-identical where queries settle the sweep on demand."""
    solved = [(g, k_shortest_paths(g, s, t, k)) for g, s, t, k in road_solves()]
    frozen_digests = ((report_digest, FROZEN_ROAD_DIGEST), (cost_free_digest, FROZEN_ROAD_COST_FREE_DIGEST))
    for digest, frozen in frozen_digests:
        joined = " ".join(digest(g, r) for g, r in solved)
        assert hashlib.sha256(joined.encode()).hexdigest() == frozen, digest.__name__


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
    assert report_digest(g, exact) == report_digest(g, full)
    with pytest.raises(SolveLimitExceeded):
        k_shortest_paths(g, s, t, k, SolveOptions(label_budget=budget - 1))


def overflow_digraph(seed: int) -> Graph:
    """``make_digraph(seed, 4, 9, 0.45)`` with costs 0-2 raised to 1e308 and the rest taken to 0-4."""
    g = make_digraph(seed, 4, 9, 0.45)
    return Graph(g.node_count, [(u, v, 1e308 if c < 3 else (c - 3) % 5) for u, v, c in g.arcs()])


def test_costs_that_overflow_to_infinity_solve_as_unguided():
    inf = float("inf")
    # the label at node 1 is keyed 1e308 + 1e308, which overflows to inf
    g = Graph(3, [(0, 2, 0.0), (0, 1, 1e308), (1, 2, 1e308)])
    guided = k_shortest_paths(g, 0, 2, 2, SolveOptions(validate=True))
    plain = k_shortest_paths(g, 0, 2, 2, SolveOptions(guided=False, validate=True))
    assert guided.costs == [0.0, inf]
    assert report_digest(g, guided) == report_digest(g, plain)
    # a reverse sweep would never reach node 0, so it would see no path at all
    g = Graph(3, [(0, 1, 1e308), (1, 2, 1e308)])
    assert k_shortest_paths(g, 0, 2, 2).costs == [inf]
    assert yen_k_shortest(g, 0, 2, 2, accelerated=True).costs == [inf]
    overflowing = 0
    for seed in range(600):
        g = overflow_digraph(seed)
        s, t = 0, g.node_count - 1
        want = [p.cost for p in enumerate_simple_paths(g, s, t)[:12]]
        assert k_shortest_paths(g, s, t, 12, SolveOptions(validate=True)).costs == want, seed
        assert yen_k_shortest(g, s, t, 12, accelerated=True).costs == want, seed
        overflowing += inf in want
    assert overflowing > 100


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
    for timeout_s in (float("nan"), -1.0):
        with pytest.raises(ValueError, match="timeout"):
            k_shortest_paths(five_node_graph, 0, 4, 4, SolveOptions(timeout_s=timeout_s))
    with pytest.raises(ValueError, match="label budget"):
        k_shortest_paths(five_node_graph, 0, 4, 4, SolveOptions(label_budget=-5))


@pytest.mark.parametrize("k", [3.0, 2.5, float("inf"), "3", None])
def test_a_k_that_is_not_an_int_is_rejected_before_any_search(five_node_graph, monkeypatch, k):
    monkeypatch.setattr(kssp.engine, "reverse_distances", None)
    monkeypatch.setattr(kssp.engine, "shortest_path", None)
    with pytest.raises(ValueError, match="^k must be an int, got "):
        k_shortest_paths(five_node_graph, 0, 4, k)


@pytest.mark.parametrize("budget", [float("nan"), 0.5, 3.0, float("inf"), "3"])
def test_a_label_budget_that_is_not_an_int_is_rejected_before_any_search(
    five_node_graph, monkeypatch, budget
):
    # a NaN budget never strikes, and 0.5 strikes after one label
    monkeypatch.setattr(kssp.engine, "ReverseSweep", None)
    monkeypatch.setattr(kssp.engine, "shortest_path", None)
    with pytest.raises(ValueError, match="^label budget must be an int, got "):
        k_shortest_paths(five_node_graph, 0, 4, 4, SolveOptions(label_budget=budget))


@pytest.mark.parametrize("timeout_s", ["1", [1], Decimal("1"), 1j])
def test_a_timeout_that_is_not_a_real_number_is_rejected_before_any_search(
    five_node_graph, monkeypatch, timeout_s
):
    # text, a list and a complex number would fail the range check, and a Decimal the deadline sum, as TypeError
    monkeypatch.setattr(kssp.engine, "ReverseSweep", None)
    monkeypatch.setattr(kssp.engine, "shortest_path", None)
    with pytest.raises(ValueError, match="^timeout must be a nonnegative number of seconds, got "):
        k_shortest_paths(five_node_graph, 0, 4, 4, SolveOptions(timeout_s=timeout_s))


def test_int_like_limits_and_endpoints_solve_as_their_ints(five_node_graph):
    g = five_node_graph
    got = k_shortest_paths(g, IntLike(0), IntLike(4), IntLike(3))
    assert report_digest(g, got) == solve_digest(g, 0, 4, 3)
    g = mini10()
    reports = []
    for budget in (IntLike(5), 5):
        with pytest.raises(SolveLimitExceeded) as exc:
            k_shortest_paths(g, 0, 9, 4, SolveOptions(label_budget=budget))
        reports.append(report_digest(g, exc.value.report))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("s, t", [(0.0, 4), (0, 4.0), ("0", 4), (0, None)])
def test_an_endpoint_that_is_not_an_int_is_rejected_before_any_search(
    five_node_graph, monkeypatch, s, t
):
    monkeypatch.setattr(kssp.engine, "ReverseSweep", None)
    monkeypatch.setattr(kssp.engine, "shortest_path", None)
    with pytest.raises(ValueError, match="^endpoints must be ints, got "):
        k_shortest_paths(five_node_graph, s, t, 3)


def test_k_may_be_a_bool(five_node_graph):
    assert k_shortest_paths(five_node_graph, 0, 4, True).costs == [2.0]


def mini10() -> Graph:
    """``tests/data/mini10.gr``, whose tied paths leave guided queries to the search.

    The guided five-node example answers every query from the tree, so
    its solves extract no label for a budget to strike at.
    """
    with open(FilePath(__file__).parent / "data" / "mini10.gr") as f:
        return load_dimacs(f)


def test_a_label_budget_may_be_a_bool():
    g = mini10()
    reports = []
    for budget in (True, 1):
        with pytest.raises(SolveLimitExceeded) as exc:
            k_shortest_paths(g, 0, 9, 4, SolveOptions(label_budget=budget))
        assert exc.value.kind == "iterations"
        reports.append(report_digest(g, exc.value.report))
    assert reports[0] == reports[1]


def test_label_budget_aborts_with_partial_report():
    with pytest.raises(SolveLimitExceeded) as exc:
        k_shortest_paths(mini10(), 0, 9, 4, SolveOptions(label_budget=5))
    assert exc.value.kind == "iterations"
    report = exc.value.report
    assert report.status == ABORTED
    assert len(report.records) >= 1
    assert report.costs[0] == 9.0


def test_zero_timeout_aborts(five_node_graph):
    with pytest.raises(SolveLimitExceeded) as exc:
        k_shortest_paths(five_node_graph, 0, 4, 4, SolveOptions(timeout_s=0.0))
    assert exc.value.kind == "deadline"
    assert exc.value.report.status == ABORTED


@pytest.mark.parametrize("timeout_s", [10**400, Fraction(10**400, 3), float("inf")])
def test_a_timeout_beyond_the_float_range_never_strikes(five_node_graph, timeout_s):
    # 10**400 added to the clock as it is would raise OverflowError
    for options in (SolveOptions(timeout_s=timeout_s), SolveOptions(guided=False, timeout_s=timeout_s)):
        assert k_shortest_paths(five_node_graph, 0, 4, 4, options).costs == [2.0, 3.0, 4.0, 5.0]


def limited_solve_digest(g: Graph, s: int, t: int, k: int, options: SolveOptions) -> tuple:
    """``report_digest`` of a solve, with the kind of limit that aborted it, if one did."""
    try:
        return None, solve_digest(g, s, t, k, options)
    except SolveLimitExceeded as exc:
        return exc.kind, report_digest(g, exc.report)


def test_solves_on_kept_scratch_match_solves_on_a_fresh_graph():
    g = gen_grid(30, 30, seed=7)
    solves = [
        (31, 868, 40, SolveOptions()),
        (868, 31, 1, SolveOptions()),
        (450, 29, 40, SolveOptions(guided=False)),
        (29, 870, 100, SolveOptions(label_budget=0)),  # at k=60 the tree answers every query
        (870, 29, 40, SolveOptions(timeout_s=0.0)),
        (5, 894, 60, SolveOptions(validate=True)),
        (31, 868, 40, SolveOptions()),
    ]
    kinds = []
    kept = []
    for s, t, k, options in solves:
        fresh = limited_solve_digest(gen_grid(30, 30, seed=7), s, t, k, options)
        assert limited_solve_digest(g, s, t, k, options) == fresh, (s, t, k, options)
        kinds.append(fresh[0])
        kept.append(g._scratch[0])
    assert kinds == [None, None, None, "iterations", "deadline", None, None]
    # every guided solve took and gave back the one pair the first made
    ((ws, sweep),) = g._scratch
    assert all(pair[0] is ws and pair[1] is sweep for pair in kept)


def test_concurrent_solves_on_one_graph_match_sequential_ones(monkeypatch):
    g = gen_grid(40, 40, seed=8)
    pairs = [(5, 1590, 60), (1560, 38, 60)]
    sequential = [solve_digest(g, s, t, k) for s, t, k in pairs]
    # both solves meet at their first path, so each holds a pair of its own
    meet = threading.Barrier(2, timeout=60)
    first_path = kssp.engine.shortest_path

    def meet_first(*args, **kwargs):
        meet.wait()
        return first_path(*args, **kwargs)

    monkeypatch.setattr(kssp.engine, "shortest_path", meet_first)
    concurrent = [None, None]

    def solve(i: int) -> None:
        concurrent[i] = solve_digest(g, *pairs[i])

    threads = [threading.Thread(target=solve, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert concurrent == sequential
    assert len(g._scratch) == 2
    assert g._scratch[0][0] is not g._scratch[1][0]


def test_a_second_guided_solve_allocates_no_scratch():
    g = gen_grid(100, 100, seed=9)
    growth = []
    tracemalloc.start()
    try:
        for _ in range(2):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            k_shortest_paths(g, 120, 9870, 20)
            growth.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    ((ws, sweep),) = g._scratch
    lists = (
        ws.mask.node_stamp, ws.mask.arc_stamp, ws.frontiers, ws.frontier_stamp, ws.queued, ws.queued_stamp,
        ws.dropped, sweep.dist, sweep.tree, sweep.sidetrack, sweep._tentative,
    )
    assert growth[0] - growth[1] >= sum(map(sys.getsizeof, lists))


def test_a_memory_error_in_a_query_gives_back_a_pair_with_its_blanks_made(monkeypatch):
    fresh = solve_digest(gen_grid(30, 30, seed=7), 868, 31, 40)
    # a guided query is first tried as a tree answer, then searched
    for name in ("tree_answer", "find_best_deviation"):
        g = gen_grid(30, 30, seed=7)
        held = []

        def out_of_memory(query, *args, **kwargs):
            # the blanks that giving the pair back resets from exist before the error
            held.append((query.workspace, query.sweep, query.workspace._blank, query.sweep._blanks))
            raise MemoryError

        with monkeypatch.context() as m:
            m.setattr(kssp.engine, name, out_of_memory)
            with pytest.raises(SolveLimitExceeded) as exc:
                k_shortest_paths(g, 868, 31, 40)
        # running out of memory is a limit, whose report holds the paths accepted so far
        report = exc.value.report
        assert exc.value.kind == "memory" and report.status == ABORTED
        if name == "tree_answer":  # the first query's
            assert len(report.records) == 1 and report.stats.queries_attempted == 0
        else:  # the first search, after the queries answered from the tree
            assert report.stats.tree_answers > 0 and report.stats.labels_extracted == 0
        ((ws, sweep),) = g._scratch
        ((ws_held, sweep_held, blank, blanks),) = held
        assert ws is ws_held and sweep is sweep_held
        assert ws._blank is blank is not None and sweep._blanks is blanks is not None
        assert solve_digest(g, 868, 31, 40) == fresh


def _out_of_memory(*args, **kwargs):
    raise MemoryError


# what runs out of memory before the first ask: a new pair's arrays, the sweep's reset, the first
# path; and whether a solve before it left a pair in the pool
BEFORE_THE_FIRST_ASK = [
    pytest.param(kssp.engine, "Workspace", False, id="new-workspace"),
    pytest.param(kssp.engine, "ReverseSweep", False, id="new-sweep"),
    pytest.param(kssp.engine.ReverseSweep, "restart", False, id="restart-new-pair"),
    pytest.param(kssp.engine.ReverseSweep, "restart", True, id="restart-pooled-pair"),
    pytest.param(kssp.engine, "shortest_path", False, id="first-path-new-pair"),
    pytest.param(kssp.engine, "shortest_path", True, id="first-path-pooled-pair"),
]


@pytest.mark.parametrize("owner, name, pooled", BEFORE_THE_FIRST_ASK)
def test_a_memory_error_before_the_first_ask_is_a_limit_with_no_path(monkeypatch, owner, name, pooled):
    g = gen_grid(30, 30, seed=7)
    if pooled:
        k_shortest_paths(g, 0, 899, 5)
    kept = list(g._scratch)
    with monkeypatch.context() as m:
        m.setattr(owner, name, _out_of_memory)
        with pytest.raises(SolveLimitExceeded) as exc:
            k_shortest_paths(g, 31, 868, 40)
    report = exc.value.report
    assert exc.value.kind == "memory" and report.status == ABORTED
    assert report.records == [] and report.stats.queries_attempted == 0
    if name in ("Workspace", "ReverseSweep"):  # what was made of the new pair is dropped
        assert g._scratch == []
    else:  # a pair that exists goes back to the pool
        assert len(g._scratch) == 1 and g._scratch[: len(kept)] == kept
    fresh = solve_digest(gen_grid(30, 30, seed=7), 31, 868, 40)
    assert solve_digest(g, 31, 868, 40) == fresh


def test_a_pair_that_cannot_be_reset_is_dropped_and_the_solve_stands(monkeypatch):
    g = gen_grid(30, 30, seed=7)
    k_shortest_paths(g, 0, 899, 5)
    with monkeypatch.context() as m:
        m.setattr(kssp.engine.Workspace, "forget", _out_of_memory)
        got = solve_digest(g, 31, 868, 40)
    assert g._scratch == []
    assert got == solve_digest(gen_grid(30, 30, seed=7), 31, 868, 40)


def test_a_memory_error_making_an_unguided_workspace_reports_the_first_path(monkeypatch):
    g = gen_grid(12, 12, seed=5)
    first = k_shortest_paths(g, 0, 143, 1, SolveOptions(guided=False)).records[0].path
    monkeypatch.setattr(kssp.engine, "Workspace", _out_of_memory)
    with pytest.raises(SolveLimitExceeded) as exc:
        k_shortest_paths(g, 0, 143, 20, SolveOptions(guided=False))
    assert exc.value.kind == "memory"
    assert [r.path for r in exc.value.report.records] == [first]


def test_a_memory_error_mid_solve_reports_the_paths_accepted_so_far(monkeypatch):
    g = gen_grid(12, 12, seed=5)
    full = k_shortest_paths(g, 0, 143, 200, SolveOptions(guided=False))
    calls = 0

    def out_of_memory_at_the_60th(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == 60:
            raise MemoryError
        return find_best_deviation(*args, **kwargs)

    monkeypatch.setattr(kssp.engine, "find_best_deviation", out_of_memory_at_the_60th)
    with pytest.raises(SolveLimitExceeded) as exc:
        k_shortest_paths(g, 0, 143, 200, SolveOptions(guided=False))
    report = exc.value.report
    assert exc.value.kind == "memory" and report.status == ABORTED
    assert report.stats.queries_attempted == 59
    n = len(report.records)
    assert 20 < n < 200
    assert [(r.path.arcs, r.path.cost) for r in report.records] == [(p.arcs, p.cost) for p in full.paths[:n]]


def test_a_graph_and_its_pool_are_freed_without_a_cyclic_collection():
    gc.collect()
    g = gen_grid(10, 10, seed=3)
    k_shortest_paths(g, 0, 99, 5)
    ((ws, sweep),) = g._scratch
    # a kept pair refers to no graph, so nothing of g is left for the collector
    assert ws.graph is None and sweep.graph is None
    del g, ws, sweep
    assert gc.collect() == 0


def test_a_copy_keeps_a_pool_of_its_own():
    g = gen_grid(10, 10, seed=3)
    k_shortest_paths(g, 0, 99, 5)
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin._scratch == []
        assert list(twin.arcs()) == list(g.arcs())
        assert (twin.out_arcs, twin.in_arcs) == (g.out_arcs, g.in_arcs)
        assert solve_digest(twin, 0, 99, 5) == solve_digest(g, 0, 99, 5)
    assert len(g._scratch) == 1


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


RANKERS = {
    "deviation": k_shortest_paths,
    "deviation-unguided": lambda g, s, t, k: k_shortest_paths(g, s, t, k, SolveOptions(guided=False)),
    "yen": yen_k_shortest,
    "yen-accelerated": lambda g, s, t, k: yen_k_shortest(g, s, t, k, accelerated=True),
}
# The seeds of 0-499 each case still misranks, with the cause as a comment.
# Every search label is a left fold from s; what remains is ROADMAP Open
# item 1: float folds are not exact, and only exact costs empty these lists.
# Pinning the exact seeds makes one more or one fewer misranked seed fail.
STILL_MISRANKED = {
    # a guided key adds a potential folded from t, which can round a cost gap away
    ("deviation", "tenths"): [427],
    ("deviation", "huge"): [34, 94, 116, 148, 238, 258, 309, 350, 389, 413, 427, 432, 450, 490],
    # behind 2^53, which of two suffixes is cheaper depends on the prefix
    ("deviation-unguided", "huge"): [432],
    # A* on a rounded potential can close a node early
    ("yen-accelerated", "huge"): [116, 148, 238, 350, 389, 427, 450, 490],
}


@pytest.mark.parametrize(
    "solver, family", [(solver, family) for solver in RANKERS for family in COST_FAMILIES]
)
def test_every_simple_path_ranks_as_enumeration_does(solver, family):
    solve = RANKERS[solver]
    mismatches = []
    for seed in range(500):
        g = cost_family(make_digraph(seed, 5, 9, 0.4), family)
        s, t = 0, g.node_count - 1
        want = [p.cost for p in enumerate_simple_paths(g, s, t)]
        if want and solve(g, s, t, len(want)).costs != want:
            mismatches.append(seed)
    assert mismatches == STILL_MISRANKED.get((solver, family), [])


def test_query_budget_holds_on_small_instances():
    for seed in range(40):
        g = make_digraph(seed)
        s, t = 0, g.node_count - 1
        for k in (2, 5, 9):
            report = k_shortest_paths(g, s, t, k)
            assert report.stats.queries_attempted <= max(0, 2 * k - 4) + 1


def test_a_record_deeper_than_the_recursion_limit_builds_its_path():
    # record j deviates from record j - 1 at arc index j, each with its own
    # copy of the rest of arcs 0 .. n-1, so every record's path is all of them
    n = sys.getrecursionlimit() + 100
    rec = PathRecord(parent=None, parent_index=None, dev_pos=0, suffix=tuple(range(n)), cost=1.0, prefix_cost=0.0)
    for j in range(1, n):
        rec = PathRecord(
            parent=rec, parent_index=j - 1, dev_pos=j, suffix=tuple(range(j, n)), cost=1.0, prefix_cost=0.0
        )
    assert rec.path == Path(tuple(range(n)), 1.0)
    assert list(rec.segments(rec.source_pos)) == [(n - 1,)] + [(j,) for j in range(n - 2, -1, -1)]
    # neither repr nor == walks the chain
    assert repr(rec).startswith(f"PathRecord(parent_index={n - 2}, ")
    assert rec == replace(rec, parent=None)


def test_validate_report_needs_each_deviation_arc_blocked_in_its_parent(five_node_graph):
    report = k_shortest_paths(five_node_graph, 0, 4, 4)
    # path 3 leaves path 1 by arc 3, which record 1 must block
    report.records[1].blocked.remove(3)
    with pytest.raises(AssertionError, match="path 3's deviation arc is not blocked in record 1"):
        _validate_report(five_node_graph, 0, 4, report)


@pytest.mark.parametrize("guided", [True, False])
def test_build_query_checks_each_query_only_under_validate(monkeypatch, guided):
    calls = {"build_query": 0, "find_best_deviation": 0, "tree_answer": 0}

    def counted(name):
        original = getattr(kssp.engine, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(kssp.engine, name, call)

    counted("build_query")
    counted("find_best_deviation")
    counted("tree_answer")
    g = gen_grid(20, 20, seed=3)
    tree_answers = k_shortest_paths(g, 0, 399, 50, SolveOptions(guided=guided)).stats.tree_answers
    assert calls["build_query"] == 0 and calls["find_best_deviation"] > 0
    assert (tree_answers > 0) == (calls["tree_answer"] > 0) == guided
    searches = calls["find_best_deviation"]
    asks = calls["tree_answer"]  # every guided ask, whether answered, dropped or deferred
    # under validate each guided ask builds its query when it is made, a searched one again
    # when its turn comes, and the search also checks each tree answer
    k_shortest_paths(g, 0, 399, 50, SolveOptions(guided=guided, validate=True))
    assert calls == {
        "build_query": asks + searches, "find_best_deviation": 2 * searches + tree_answers, "tree_answer": 2 * asks
    }


def tree_answered_solves():
    """Gate grids 0-2, 20 road pairs, ``frozen_solves()`` and every cost family of 500 digraphs to exhaustion."""
    yield from ((g, s, t, GRID_K) for g, s, t in grid_instances(3))
    yield from road_solves(20)
    yield from frozen_solves()
    for seed in range(500):
        for family in COST_FAMILIES:
            g = cost_family(make_digraph(seed, 5, 9, 0.4), family)
            yield g, 0, g.node_count - 1, 60


def test_every_tree_answer_is_the_search_answer(monkeypatch):
    """A query answered from the sweep's tree gets every field of the answer the search gives it.

    The search runs on a sweep of its own, under the query's cap, so the
    solve goes on exactly as it would without the check.
    """
    answer_from_tree = kssp.engine.tree_answer
    own: dict[tuple, ReverseSweep] = {}
    answered = {"grid": 0, "road": 0, "digraph": 0}

    def compared(query, cost_cap=None):
        dev, bound = answer_from_tree(query, cost_cap)
        if dev is not None:
            g = query.workspace.graph
            key = (id(g), query.target)
            if key not in own:
                own.clear()
                own[key] = ReverseSweep(g, query.target)
            checked = replace(query, sweep=own[key])
            assert find_best_deviation(checked, cost_cap)[0] == dev
            answered["road" if g.node_count > 10_000 else "grid" if g.node_count > 10 else "digraph"] += 1
        return dev, bound

    monkeypatch.setattr(kssp.engine, "tree_answer", compared)
    for g, s, t, k in tree_answered_solves():
        k_shortest_paths(g, s, t, k)
    assert answered["grid"] > 3_000 and answered["road"] > 1_500 and answered["digraph"] > 3_000, answered


def settled_query(g: Graph, s: int, t: int, ref, prefix_cost=0.0, masked=()):
    """The guided query along ``ref`` from s, with the ``masked`` nodes masked, on a sweep settled to the end."""
    ws = Workspace(g)
    sweep = ReverseSweep(g, t)
    sweep.settle(float("inf"))
    ws.mask.reset()
    for v in masked:
        ws.mask.delete_node(v)
    return build_query(ws, s, t, ref, prefix_cost, sweep)


def test_a_lone_cheapest_sidetrack_is_answered_from_the_tree():
    # reference 0-1-2-3; the sidetrack 0->4 and 4's tree path 4-2-3, which takes the reference's last arc
    g = Graph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 4, 1.5), (4, 2, 1.0)])
    query = settled_query(g, 0, 3, (0, 1, 2))
    dev, bound = kssp.engine.tree_answer(query)
    assert dev == Deviation(ref_index=0, suffix=(3, 4, 2), cost=3.5, overlap=1, source_cost=1.5)
    assert bound == 3.5  # the price of the sidetrack 0->4, the only option
    assert find_best_deviation(query)[0] == dev
    # a cap at or below the answer's prune limit leaves it to the search, behind the same bound
    assert kssp.engine.tree_answer(query, 3.5) == (None, 3.5)
    assert kssp.engine.tree_answer(query, successor(prune_limit(g, 3.5))) == (dev, 3.5)


@pytest.mark.parametrize(
    "g, t, ref, prefix_cost, masked",
    [
        # 0-3-2 and 0-4-2 both cost 3
        (Graph(5, [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.5), (3, 2, 1.5), (0, 4, 1.0), (4, 2, 2.0)]), 2, (0, 1), 0.0, ()),
        # the cheapest sidetrack 1->4 leads back to node 1 over 4-5-1
        (Graph(6, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (1, 4, 0.25), (4, 5, 0.25), (5, 1, 0.25), (4, 3, 5.0)]),
         3, (1, 2), 0.0, ()),
        # the cheapest sidetrack 1->4 leads on through node 0, masked before the source 1
        (Graph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (1, 4, 0.5), (4, 0, 0.25), (0, 2, 0.5), (4, 3, 5.0)]),
         3, (1, 2), 1.0, (0,)),
    ],
    ids=["tied", "re-enters-the-reference", "re-enters-the-prefix"],
)
def test_a_query_the_tree_cannot_certify_is_left_to_the_search(g, t, ref, prefix_cost, masked):
    query = settled_query(g, g.arc_tail[ref[0]], t, ref, prefix_cost, masked)
    assert kssp.engine.tree_answer(query)[0] is None
    dev, stats = find_best_deviation(query)
    assert dev is not None and stats.outcome == "found"


def test_the_tree_answers_three_quarters_of_the_searched_queries_on_the_gate_grids(monkeypatch):
    """Of the queries answered or searched, the tree answers 91.4% on grid 0 and 87.9% on grids 0-2.

    The least option out of a reference node is mostly a bounce, an arc
    to a node whose tree arc leads straight back, such as the U-turn to
    the node before; no simple path takes it and then that tree arc.
    ``ReverseSweep.options_of`` prices a bounce by its head's sidetrack
    instead: without that, 71.9% and 69.9%. Without skipping the arcs back
    into the reference so far, 90.1% and 84.1%.
    """
    search = kssp.engine.find_best_deviation
    searched = 0

    def counted(query, cost_cap=None, **limits):
        nonlocal searched
        searched += 1
        return search(query, cost_cap, **limits)

    monkeypatch.setattr(kssp.engine, "find_best_deviation", counted)
    answered = 0
    for i, (g, s, t) in enumerate(grid_instances(3)):
        answered += k_shortest_paths(g, s, t, GRID_K).stats.tree_answers
        if i == 0:
            assert answered >= (answered + searched) * 3 / 4, (answered, searched)
    assert answered >= (answered + searched) * 3 / 4, (answered, searched)


def test_a_tree_answer_the_search_does_not_give_fails_validation(five_node_graph, monkeypatch):
    answer_from_tree = kssp.engine.tree_answer

    def miscounted(query, cost_cap=None):
        dev, bound = answer_from_tree(query, cost_cap)
        return None if dev is None else dev._replace(overlap=dev.overlap + 1), bound

    monkeypatch.setattr(kssp.engine, "tree_answer", miscounted)
    # the overlap goes into no record, so only the cross-check sees it
    assert k_shortest_paths(five_node_graph, 0, 4, 4).costs == [2.0, 3.0, 4.0, 5.0]
    with pytest.raises(AssertionError, match=r"^tree answer Deviation\(.*\) differs from the search's Deviation\("):
        k_shortest_paths(five_node_graph, 0, 4, 4, SolveOptions(validate=True))


@pytest.mark.parametrize("guided", [True, False])
def test_a_regenerated_deviation_arc_fails_validation(five_node_graph, repeated_answers, guided):
    with pytest.raises(AssertionError, match="^deviation arc regenerated for the same parent$"):
        k_shortest_paths(five_node_graph, 0, 4, 4, SolveOptions(guided=guided, validate=True))


def test_validate_changes_no_record_and_no_counter(monkeypatch):
    """``validate`` only re-checks: every query's reference, each answer and the finished report.

    Gate grids 0-2 at GRID_K, 20 road pairs and ``frozen_solves()``,
    guided, and the latter's seeded digraphs of every cost family
    unguided too, give bit-identical records, status and counters with
    and without it. The report check is caught, so that a report it
    rejects is compared too: the only breach allowed is the cost order of
    a solve that ROADMAP item 1's float folds misrank.
    """
    breaches = []

    def caught(g, s, t, report):
        try:
            _validate_report(g, s, t, report)
        except AssertionError as exc:
            breaches.append(str(exc))

    monkeypatch.setattr("kssp.engine._validate_report", caught)
    solves = [(g, s, t, GRID_K, True) for g, s, t in grid_instances(3)]
    solves += [(*solve, True) for solve in road_solves(20)]
    # unguided only on the digraphs: an unguided 64x64 grid solve takes seconds
    solves += [
        (g, s, t, k, guided)
        for g, s, t, k in frozen_solves()
        for guided in (True, False)
        if guided or g.node_count <= 10
    ]
    misranked = 0
    for i, (g, s, t, k, guided) in enumerate(solves):
        plain = k_shortest_paths(g, s, t, k, SolveOptions(guided=guided))
        checked = k_shortest_paths(g, s, t, k, SolveOptions(guided=guided, validate=True))
        assert report_digest(g, checked) == report_digest(g, plain), (i, guided)
        if breaches:
            assert "breaks cost order" in breaches.pop() and plain.costs != sorted(plain.costs), (i, guided)
            misranked += 1
    print(f"validate: {len(solves)} solves bit-identical, {misranked} misranked by float folds")


def test_validate_report_catches_corruption(five_node_graph):
    report = k_shortest_paths(five_node_graph, 0, 4, 4)
    good = SolveReport(list(report.records), report.status, report.stats)
    _validate_report(five_node_graph, 0, 4, good)
    bad = SolveReport(list(report.records), report.status, report.stats)
    bad.records[1], bad.records[2] = bad.records[2], bad.records[1]
    with pytest.raises(AssertionError, match="cost order|prefix"):
        _validate_report(five_node_graph, 0, 4, bad)
    dup = SolveReport([report.records[0], report.records[0]], report.status, report.stats)
    with pytest.raises(AssertionError, match="duplicates"):
        _validate_report(five_node_graph, 0, 4, dup)


@pytest.mark.parametrize(
    "path, message",
    [
        (Path((1, 4), 0.5), "not a walk"),  # 0->2 then 1->4
        (Path((5,), 1.0), "does not run from 0 to 4"),
        (Path((1,), 1.0), "does not run from 0 to 4"),
        (Path((1, 5), 2.5), "fold to 2.0"),
    ],
)
def test_validate_report_checks_each_record_against_the_graph(five_node_graph, path, message):
    report = k_shortest_paths(five_node_graph, 0, 4, 1)
    # the root's suffix is its whole path
    bad = SolveReport([replace(report.records[0], suffix=path.arcs, cost=path.cost)], report.status, report.stats)
    with pytest.raises(AssertionError, match=message):
        _validate_report(five_node_graph, 0, 4, bad)


def test_validate_report_rejects_a_walk_that_repeats_a_node():
    g = Graph(3, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0)])
    report = k_shortest_paths(g, 0, 2, 1)
    walk = (0, 1, 0, 2)
    bad = SolveReport([replace(report.records[0], suffix=walk, cost=path_cost(g, walk))], report.status, report.stats)
    with pytest.raises(AssertionError, match="path 0 is not simple"):
        _validate_report(g, 0, 2, bad)


@pytest.mark.parametrize(
    "idx, fields, message",
    [
        (1, {"parent_index": 1}, "path 1 has a later parent"),
        # path 3 is (0, 3, 5), the child of path 1 = (0, 4) at arc index 1
        (3, {"dev_pos": 0}, "path 3 deviates inside its parent's prefix"),
        # a dev_pos past the deviation arc's tail, the deviation node, breaks the walk
        (3, {"dev_pos": 2}, "path 3 is not a walk"),
        # path 0 is (1, 5) over nodes 0, 2 and 4; arc 6 leaves node 3
        (0, {"blocked": [0, 0]}, "record 0 has duplicate blocked arcs"),
        (0, {"blocked": [6]}, "record 0 blocks an arc off the path"),
        # a suffix that goes on along the parent's path deviates nowhere: arc 4 is path 1's
        (3, {"suffix": (4,), "cost": 3.0}, "path 3 duplicates an earlier path"),
        # path 2 = (2, 6) leaves path 0 at s; a suffix from node 3 does not
        (2, {"suffix": (6,)}, "path 2 does not run from 0 to 4"),
        # path 3 pays 2.0 for arc 0 and 2.0 for arc 3 before its source, node 2
        (3, {"prefix_cost": 3.0}, r"path 3 has prefix cost 3\.0, its first 2 arcs fold to 4\.0"),
        (0, {"dev_pos": 1}, "path 0 is a root that deviates at arc 1"),
        (3, {"parent": None}, "path 3 is not linked to record 1"),
        # arc 5 is path 0's own arc from node 2 to node 4
        (0, {"blocked": [0, 2, 5]}, "record 0 blocks an arc of its own path"),
    ],
)
def test_validate_report_checks_the_deviation_tree(five_node_graph, idx, fields, message):
    report = k_shortest_paths(five_node_graph, 0, 4, 4)
    _validate_report(five_node_graph, 0, 4, report)
    records = list(report.records)
    records[idx] = replace(records[idx], **fields)
    with pytest.raises(AssertionError, match=message):
        _validate_report(five_node_graph, 0, 4, SolveReport(records, report.status, report.stats))
