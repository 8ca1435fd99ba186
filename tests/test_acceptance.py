"""Acceptance gate: one test per headline property of the solver.

Each test here is a complete statement of one promised behavior, with
its tolerance written into the assertions: exact golden outputs for the
two worked examples, exact agreement with the reference solvers over
large seeded sweeps, the per-solve query budget, the structural
invariants of the biobjective search, and the file format round trip
with an optional road-network smoke run.
"""
from __future__ import annotations

import hashlib
import heapq
import io
import os
import time
from dataclasses import replace
from math import exp, fsum, log
from pathlib import Path as FilePath

import pytest

from kssp.biobjective import BiCost, build_query, find_best_deviation, Workspace
from kssp.dijkstra import ReverseSweep, prune_limit, shortest_path
from kssp.dimacs import dump_dimacs, load_dimacs
from kssp.engine import COMPLETE, EXHAUSTED, SolveOptions, k_shortest_paths, queue_max_cap
from kssp.graph import Graph, Path, path_cost
from kssp.gridgen import gen_grid, sample_pairs, seeded_grids
from kssp.oracles import enumerate_simple_paths, yen_k_shortest
from kssp.rng import SplitMix64

from conftest import (
    COST_FAMILIES, cost_family, cost_free_digest, frozen_solves, make_digraph, observe_search,
    records_digest, report_digest, road_solves,
)

GRID_MASTER_SEED = 7
GRID_COUNT = 20
GRID_SIDE = 100
GRID_K = 1000
GRID_SOLVES = 3  # timed solves per instance; the best one is held to the bound


def grid_instances(count: int = GRID_COUNT):
    """The seeded grid benchmark: (graph, source, target) per instance."""
    for _, g, pair_rng in seeded_grids(GRID_SIDE, GRID_SIDE, count, GRID_MASTER_SEED):
        s, t = sample_pairs(pair_rng, g.node_count, 1)[0]
        yield g, s, t


def geomean(values):
    return exp(fsum(log(v) for v in values) / len(values))


def budget_ok(stats, k: int) -> bool:
    return stats.queries_attempted <= max(0, 2 * k - 4) + 1


def test_driver_example_exact_and_under_one_millisecond(five_node_graph):
    g = five_node_graph
    report = k_shortest_paths(g, 0, 4, 4)
    assert report.status == COMPLETE
    assert report.costs == [2.0, 3.0, 4.0, 5.0]
    assert [r.path.arcs for r in report.records] == [(1, 5), (0, 4), (2, 6), (0, 3, 5)]
    # deviation records: where each path leaves its parent and restarts
    dev_source = [(r.dev_node, r.source_node) for r in report.records[1:]]
    assert dev_source == [(0, 1), (0, 3), (1, 2)]
    assert [r.parent_index for r in report.records] == [None, 0, 0, 1]
    assert budget_ok(report.stats, 4)

    best = min(
        _timed_solve(g) for _ in range(5)
    )
    assert best < 1e-3, f"solve took {best * 1e6:.0f} us"
    print(f"driver example: exact records, best of 5 solves {best * 1e6:.0f} us")


def _timed_solve(g) -> float:
    t0 = time.perf_counter()
    k_shortest_paths(g, 0, 4, 4)
    return time.perf_counter() - t0


def test_deviation_query_example_trace_exact(six_node_graph):
    g = six_node_graph
    query = build_query(g, 0, 5, (0, 1, 2, 3))
    (dev, stats), seen = observe_search(query)
    ws = query.workspace

    # both detour labels at node 4 become permanent
    assert [lab[:2] for lab in seen.frontiers[4]] == [(1.0, 3), (2.0, 1)]
    # the (3, 3) extension into node 2 dies against the frontier minimum 2,
    # so the (4, 1) one that comes after it is what node 2 still has queued
    assert seen.frontiers[2][-1][1] == 2
    assert ws.queued_stamp[2] == ws.serial
    assert ws.queued[2][4][:2] == (4.0, 1)
    # the second path is returned with cost 2 and overlap 2
    assert dev is not None
    assert dev.bicost == BiCost(2.0, 2)
    assert stats.outcome == "found"
    print(f"query trace: {stats.iterations} extractions, result {tuple(dev.bicost)}")


def test_solver_oracle_and_enumeration_agree_on_1000_digraphs():
    t0 = time.perf_counter()
    agreed = 0
    seed = 0
    while agreed < 1000:
        assert seed < 1600, "not enough solvable seeded instances"
        g = make_digraph(seed)
        seed += 1
        s, t = 0, g.node_count - 1
        expected = enumerate_simple_paths(g, s, t)
        if not expected:
            continue
        want = [p.cost for p in expected]
        k = len(expected)
        solved = k_shortest_paths(g, s, t, k, SolveOptions(validate=True))
        reference = yen_k_shortest(g, s, t, k)
        assert solved.costs == want
        assert reference.costs == want
        assert solved.status == reference.status == COMPLETE
        assert budget_ok(solved.stats, k)

        # one step past exhaustion must agree as well
        over = k_shortest_paths(g, s, t, k + 2)
        assert over.costs == want
        assert over.status == EXHAUSTED
        assert budget_ok(over.stats, k + 2)
        agreed += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"sweep took {elapsed:.1f} s"
    print(f"oracle sweep: {agreed} instances from {seed} seeds in {elapsed:.1f} s")


def test_grid_benchmark_matches_reference_within_bands(host_clock):
    """Each instance solves in under 1 s on a nominal host, best of 3.

    The host is shared and its speed drifts, so each solve is timed
    between two runs of a reference kernel that does not call kssp, and
    scaled to a host where that kernel takes its nominal time (see
    ``conftest.HostClock``).
    """
    success_means = []
    failed_means = []
    worst = (0.0, 0.0, 0.0)  # (scaled, raw, host factor) of the slowest best solve
    for i, (g, s, t) in enumerate(grid_instances()):
        reports = []
        timings = []
        before = host_clock.kernel_s()
        for _ in range(GRID_SOLVES):
            reports.append(k_shortest_paths(g, s, t, GRID_K))
            after = host_clock.kernel_s()
            raw = reports[-1].stats.wall_time_s
            factor = host_clock.factor(before, after)
            timings.append((raw * factor, raw, factor))
            before = after
        report = reports[0]
        # the best of several solves must not hide a nondeterministic one
        for other in reports[1:]:
            assert other.records == report.records, f"instance {i}: repeated solve differs"
            assert other.status == report.status
            assert replace(other.stats, wall_time_s=0.0) == replace(report.stats, wall_time_s=0.0)

        reference = yen_k_shortest(g, s, t, GRID_K, accelerated=True)
        assert report.costs == reference.costs
        assert report.status == reference.status == COMPLETE
        assert budget_ok(report.stats, GRID_K)

        best = min(timings)
        line = (
            f"grid instance {i}: best of {GRID_SOLVES} solves {best[0]:.3f} s at nominal "
            f"speed (raw {best[1]:.3f} s, host factor {best[2]:.3f})"
        )
        print(line)
        assert best[0] < 1.0, line
        worst = max(worst, best)
        st = report.stats
        success_means.append(st.mean_success_iterations)
        if st.mean_failed_iterations is not None:
            failed_means.append(st.mean_failed_iterations)

    succ = geomean(success_means)
    fail = geomean(failed_means)
    assert 10.0 <= succ <= 60.0, f"successful-query iteration geomean {succ:.1f}"
    assert 8.0 <= fail <= 40.0, f"failed-query iteration geomean {fail:.1f}"
    print(
        f"grid benchmark: {GRID_COUNT} instances equal to reference, worst best-of-"
        f"{GRID_SOLVES} solve {worst[0]:.3f} s at nominal speed (raw {worst[1]:.3f} s, "
        f"host factor {worst[2]:.3f}), iteration geomeans {succ:.1f}/{fail:.1f}"
    )


# report_digest of gate instances 0 and 4 at GRID_K with default options
FROZEN_GRID_DIGESTS = {
    0: "9383193fff8e17482d73c26aa7fa4d83c84d7152612f6cf58a7e19b7dcd194bb",
    4: "5c607da8617fe31d74372d30f0393553d49aaebcc9291e9d3cc41aac556aa130",
}
# cost_free_digest of the same solves, which exact costs must leave unchanged
FROZEN_GRID_COST_FREE_DIGESTS = {
    0: "361ec56920ac718ad7273f1114e724a04e18947a32bb82347f26cec6fd5a3f1c",
    4: "e41e9b28eae170dad1f6d11597733ab195a59d5bba3471d700cd9041043fc7d6",
}


def test_gate_grids_keep_their_frozen_records():
    """Speed-ups must leave every record, the status and the counters bit-identical."""
    for i, (g, s, t) in enumerate(grid_instances()):
        if i in FROZEN_GRID_DIGESTS:
            report = k_shortest_paths(g, s, t, GRID_K)
            assert report_digest(report) == FROZEN_GRID_DIGESTS[i], f"grid instance {i}"
            assert cost_free_digest(report) == FROZEN_GRID_COST_FREE_DIGESTS[i], f"grid instance {i}"
        if i == max(FROZEN_GRID_DIGESTS):
            break


# records_digest over gate grids 0 and 4 at GRID_K, frozen_solves() and road_solves()
FROZEN_RECORDS_DIGEST = "8e6305be898b80bd7de132205d56d8d5efee0784960885c13b5d6c6e8ace41e0"


def test_records_keep_their_frozen_paths_costs_and_tree():
    """Every path, its cost bits and its place in the deviation tree stay as frozen.

    Unlike the digests above this one hashes no counters and no
    ``blocked`` lists, which a prune rule that skips more work changes,
    so it must hold unedited across such a rule.
    """
    solves = [(g, s, t, GRID_K) for i, (g, s, t) in zip(range(5), grid_instances()) if i in (0, 4)]
    solves += [*frozen_solves(), *road_solves()]
    reports = [k_shortest_paths(g, s, t, k) for g, s, t, k in solves]
    assert records_digest(reports) == FROZEN_RECORDS_DIGEST


def test_the_queue_holds_only_candidates_that_can_still_be_output(monkeypatch):
    """Every cap is read off at most k - n queued candidates, n the paths accepted so far."""
    calls = 0

    def checked(solution_count, candidates, k):
        nonlocal calls
        calls += 1
        assert len(candidates) <= k - solution_count, (solution_count, len(candidates), k)
        return queue_max_cap(solution_count, candidates, k)

    monkeypatch.setattr("kssp.engine.queue_max_cap", checked)
    g, s, t = next(grid_instances())
    for g, s, t, k in [(g, s, t, GRID_K), *frozen_solves()]:
        k_shortest_paths(g, s, t, k)
    assert calls > 5_000


def test_no_deviation_costs_less_than_its_reference_bound(monkeypatch):
    """A query's reference bound never passes its cheapest deviation's cost, up to rounding slack.

    Every query of guided solves of gate grid 0, of 300 digraphs in every
    cost family, and of 60 digraphs with 2^53 added to the arcs out of
    the source runs once more without a cap: on the engine's own mask,
    and with nothing masked, as masks only remove deviations. Where it
    finds a deviation of cost D, ``deviation_bound`` over its reference
    is at most ``prune_limit(g, D)``. A first ask that the engine skipped
    on the bound must find nothing below its cap.
    """
    bound_of = ReverseSweep.deviation_bound
    workspaces: list[tuple[Workspace, Workspace]] = []  # the engine's, and one never masked
    caps: list[float | None] = []
    pending: list[float | None] = []  # the cheapest cost of a first ask taken to the bound
    counts = {"found": 0, "skipped": 0}

    def cheapest(query) -> float | None:
        costs = []
        for ws in workspaces[-1]:
            dev, _ = find_best_deviation(replace(query, workspace=ws))
            if dev is not None:
                costs.append(dev.bicost.cost)
        bound = bound_of(query.sweep, query.source, query.ref_arcs, query.prefix_cost)
        for cost in costs:
            assert bound <= prune_limit(query.workspace.graph, cost), (bound, cost)
        counts["found"] += len(costs)
        return costs[0] if len(costs) == 2 else None

    def end_of_ask() -> None:
        # a first ask that went no further than the bound was skipped
        if pending:
            cost = pending.pop()
            counts["skipped"] += 1
            assert cost is None or cost >= caps[-1], (cost, caps[-1])

    def workspace(g):
        workspaces.append((Workspace(g), Workspace(g)))
        return workspaces[-1][0]

    def cap(solution_count, candidates, k):
        end_of_ask()
        caps.append(queue_max_cap(solution_count, candidates, k))
        return caps[-1]

    def bound(sweep, node, arcs, start):
        query = build_query(sweep.graph, node, sweep.target, arcs, workspaces[-1][0], start, sweep)
        pending.append(cheapest(query))
        return bound_of(sweep, node, arcs, start)

    def search(query, cost_cap=None, **limits):
        if pending:
            pending.clear()  # the first ask went on to its search
        else:
            cheapest(query)
        return find_best_deviation(query, cost_cap, **limits)

    monkeypatch.setattr("kssp.engine.Workspace", workspace)
    monkeypatch.setattr("kssp.engine.queue_max_cap", cap)
    monkeypatch.setattr("kssp.engine.find_best_deviation", search)
    monkeypatch.setattr(ReverseSweep, "deviation_bound", bound)
    solves = [(*next(grid_instances()), GRID_K)]
    for seed in range(300):
        base = make_digraph(seed)
        for family in COST_FAMILIES:
            solves.append((cost_family(base, family), 0, base.node_count - 1, 40))
    for seed in range(60):
        # the search's left folds drop the small costs behind 2^53 that the
        # bound's right-folded distances keep, so the bound may exceed D
        base = make_digraph(seed, 6, 12, 0.4)
        arcs = [(u, v, c + 2.0**53 if u == 0 else c) for u, v, c in base.arcs()]
        solves.append((Graph(base.node_count, arcs), 0, base.node_count - 1, 8))
    for g, s, t, k in solves:
        k_shortest_paths(g, s, t, k)
        end_of_ask()
    assert counts["found"] > 10_000 and counts["skipped"] > 300, counts


def gate_grid_label_counts(monkeypatch) -> dict[str, int]:
    """Solve gate grid 0 at GRID_K and sum the label counts of its queries.

    ``root_steps`` counts the labels settled by the walk from each query's
    root label. That walk runs while the heap is still empty, so when it
    stops its bounds become the heap through ``heapify``, the first of them
    set aside at the query source's only label; when it ends the query
    instead, every label but the root was the walk's.
    """
    totals = {"iterations": 0, "tree_steps": 0, "root_steps": 0}
    first_heap: list[tuple] = []

    def heapify(heap):
        if not first_heap:
            first_heap.append(heap[0])
            first_heap.append(len(heap))
        heapq.heapify(heap)

    def counted(query, cost_cap=None, **limits):
        first_heap.clear()
        dev, stats = find_best_deviation(query, cost_cap, **limits)
        totals["iterations"] += stats.iterations
        totals["tree_steps"] += stats.tree_steps
        if first_heap and first_heap[0][1:4] == (-1, query.source, 0):
            totals["root_steps"] += first_heap[1]
        elif stats.iterations == stats.tree_steps + 1:
            totals["root_steps"] += stats.tree_steps
        return dev, stats

    monkeypatch.setattr("kssp.biobjective.heapify", heapify)
    monkeypatch.setattr("kssp.engine.find_best_deviation", counted)
    g, s, t = next(grid_instances())
    k_shortest_paths(g, s, t, GRID_K)
    return totals


def test_the_tree_walk_settles_four_fifths_of_the_labels_on_a_gate_grid(monkeypatch):
    """A walk that always stops keeps every answer but loses the speed; it settles 96.1% on grid 0."""
    totals = gate_grid_label_counts(monkeypatch)
    assert totals["tree_steps"] >= totals["iterations"] * 4 / 5, totals


def test_the_prelude_settles_half_of_the_labels_on_a_gate_grid(monkeypatch):
    """The walk from each query's root, which took over the reference prelude, settles 61.0%."""
    totals = gate_grid_label_counts(monkeypatch)
    assert totals["root_steps"] >= totals["iterations"] / 2, totals


def test_the_tree_answers_a_fifth_of_the_labels_on_a_gate_grid(monkeypatch):
    """The walks from later labels, which took over the tree answers, settle 35.2% of grid 0."""
    totals = gate_grid_label_counts(monkeypatch)
    assert totals["tree_steps"] - totals["root_steps"] >= totals["iterations"] / 5, totals


# sha256 over every query's QueryStats: gate grid 0 at GRID_K, then road_solves()
FROZEN_QUERY_STATS_DIGEST = "fb39d22cb9617235ff4f7c0e97643351349732b89471a4b75580c31a9626ec32"


def test_every_query_keeps_its_frozen_stats(monkeypatch):
    """Per-query counters, ``tree_steps`` included, which ``report_digest`` does not see."""
    rows = []

    def recorded(query, cost_cap=None, **limits):
        dev, stats = find_best_deviation(query, cost_cap, **limits)
        rows.append((stats.iterations, stats.target_extractions, stats.outcome, stats.tree_steps))
        return dev, stats

    monkeypatch.setattr("kssp.engine.find_best_deviation", recorded)
    g, s, t = next(grid_instances())
    k_shortest_paths(g, s, t, GRID_K)
    for g, s, t, k in road_solves():
        k_shortest_paths(g, s, t, k)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == FROZEN_QUERY_STATS_DIGEST, len(rows)


def test_query_budget_never_exceeded():
    checked = 0
    for seed in range(150):
        g = make_digraph(seed)
        s, t = 0, g.node_count - 1
        total = len(enumerate_simple_paths(g, s, t))
        for k in (2, 3, 9, total + 2):
            if k < 2:
                continue
            report = k_shortest_paths(g, s, t, k)
            assert budget_ok(report.stats, k), (seed, k, report.stats.queries_attempted)
            checked += 1
    g = gen_grid(20, 20, seed=3)
    report = k_shortest_paths(g, 0, g.node_count - 1, 150)
    assert budget_ok(report.stats, 150)
    checked += 1
    print(f"query budget: {checked} solves within 2k-4 plus initialization")


def test_search_structural_invariants():
    checked = 0
    for seed in range(200, 340):
        g = make_digraph(seed)
        s, t = 0, g.node_count - 1
        ref, _ = shortest_path(g, s, t)
        if ref is None or not ref.arcs:
            continue
        checked += 1
        ws = Workspace(g)
        ell = len(ref.arcs)
        for sweep in (None, ReverseSweep(g, t)):
            query = build_query(g, s, t, ref.arcs, ws, sweep=sweep)
            (dev, stats), seen = observe_search(query)

            # extraction order is nondecreasing in the queue key, and in
            # plain mode that key is the (cost, overlap) lex order
            assert seen.keys == sorted(seen.keys)
            if sweep is None:
                pairs = [(c, o) for c, o, _ in seen.extracted]
                assert pairs == sorted(pairs)
            # at most one queued label per node, at most two target pops
            assert seen.max_live_per_node <= 1
            assert seen.queue_consistent
            assert stats.target_extractions <= 2
            # permanent labels per node: a Pareto frontier of size <= l
            # away from the target (<= 2 at the target)
            for node, labels in seen.frontiers.items():
                overlaps = [lab[1] for lab in labels]
                assert all(a > b for a, b in zip(overlaps, overlaps[1:]))
                assert len(labels) <= (2 if node == t else ell)
                costs = [lab[0] for lab in labels]
                assert costs == sorted(costs)
            # the frontiers hold this query's own labels, one per extraction,
            # none left over from the query before it on this workspace
            permanent = sum(len(labels) for labels in seen.frontiers.values())
            assert permanent == len(seen.extracted)
            if stats.outcome != "cost-capped":
                assert permanent == stats.iterations
            # any found deviation reconstructs to a simple distinct path
            if dev is not None:
                full = ref.arcs[: dev.ref_index] + dev.suffix
                assert len(set(Path(full, dev.bicost.cost).nodes(g))) == len(full) + 1
                assert full != ref.arcs
                assert path_cost(g, full) == dev.bicost.cost
    assert checked >= 90
    print(f"structural suite: {checked} instances, plain and guided")


def test_graph_file_round_trip():
    mini = FilePath(__file__).parent / "data" / "mini10.gr"
    text = mini.read_text()
    g = load_dimacs(text)
    assert g.node_count == 10
    assert g.arc_count == 16
    buf = io.StringIO()
    dump_dimacs(g, buf)
    assert list(load_dimacs(buf.getvalue()).arcs()) == list(g.arcs())
    report = k_shortest_paths(g, 0, 9, 4)
    reference = yen_k_shortest(g, 0, 9, 4)
    assert report.costs == reference.costs == [9.0, 9.0, 9.0, 9.0]
    print("file round trip: 10-node fixture stable, solvers agree")


def test_road_network_smoke():
    road = os.environ.get("KSSP_NY_GR")
    path = FilePath(road) if road else FilePath(__file__).parent.parent / "data" / "USA-road-d.NY.gr"
    if not path.is_file():
        pytest.skip("road network file not present; set KSSP_NY_GR to enable")
    with open(path) as f:
        ny = load_dimacs(f)
    assert ny.node_count == 264346
    assert ny.arc_count == 733846
    s, t = SplitMix64(0).distinct_pair(ny.node_count)
    report = k_shortest_paths(ny, s, t, 100)
    assert report.status == COMPLETE
    assert len(report.records) == 100
    costs = report.costs
    assert costs == sorted(costs)
    seen = set()
    for rec in report.records:
        assert len(set(rec.path.nodes(ny))) == len(rec.path.arcs) + 1
        assert rec.path.arcs not in seen
        seen.add(rec.path.arcs)
    print(f"road smoke: k=100 between {s} and {t} complete")
