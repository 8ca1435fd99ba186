"""Benchmark plumbing: determinism, aggregation, CSV round trips."""
from __future__ import annotations

import io
from dataclasses import replace

import pytest

from kssp.bench import (
    ResultRow,
    bench_graph,
    bench_grid,
    geometric_mean,
    read_rows,
    run_algorithm,
    row_from_report,
    summarize,
    write_rows,
    write_summary,
)
from kssp.gridgen import gen_grid

from conftest import IntLike


def test_run_algorithm_dispatch(five_node_graph):
    for algorithm in ("deviation", "yen", "yen-accelerated"):
        report = run_algorithm(five_node_graph, 0, 4, 3, algorithm)
        assert report.costs == [2.0, 3.0, 4.0]
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_algorithm(five_node_graph, 0, 4, 3, "dfs")


def test_run_algorithm_turns_limits_into_aborted_reports():
    g = gen_grid(6, 6, seed=1)
    report = run_algorithm(g, 0, 35, 50, "deviation", label_budget=1)
    assert report.status == "aborted"
    row = row_from_report("x", "deviation", 50, report)
    assert not row.solved
    assert row.paths >= 1


@pytest.mark.parametrize("algorithm", ["yen", "yen-accelerated"])
def test_a_label_budget_beside_yen_is_rejected_before_any_solve(monkeypatch, algorithm):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr("kssp.bench.k_shortest_paths", no_solve)
    monkeypatch.setattr("kssp.bench.yen_k_shortest", no_solve)
    g = gen_grid(6, 6, seed=0)
    message = f"label budget applies only to the deviation solver, not '{algorithm}'"
    with pytest.raises(ValueError, match=message):
        run_algorithm(g, 0, 35, 50, algorithm, label_budget=1)
    with pytest.raises(ValueError, match=message):
        bench_graph(g, "g", 1, 5, 0, ("deviation", algorithm), label_budget=1)
    with pytest.raises(ValueError, match=message):
        bench_grid(4, 4, 1, 1, 5, 0, ("deviation", algorithm), label_budget=1)


def test_row_from_report(five_node_graph):
    report = run_algorithm(five_node_graph, 0, 4, 4, "deviation")
    row = row_from_report("five-p0", "deviation", 4, report)
    assert row.instance == "five-p0"
    assert row.solved
    assert row.paths == 4
    assert row.kth_cost == 5.0
    assert row.queries == 5
    assert row.queries_failed == 2
    assert row.iter_success_mean is not None
    assert row.time_s > 0.0


def test_row_from_empty_report():
    from kssp.graph import Graph

    g = Graph(3, [(0, 1, 1.0)])
    report = run_algorithm(g, 0, 2, 2, "deviation")
    row = row_from_report("none-p0", "deviation", 2, report)
    assert not row.solved
    assert row.paths == 0
    assert row.kth_cost is None
    assert row.iter_success_mean is None


def _strip_times(rows):
    return [replace(row, time_s=0.0) for row in rows]


def test_bench_graph_is_deterministic_mod_time(five_node_graph):
    a = bench_graph(five_node_graph, "five", 3, 3, 17, ("deviation", "yen"))
    b = bench_graph(five_node_graph, "five", 3, 3, 17, ("deviation", "yen"))
    assert len(a) == 6
    assert _strip_times(a) == _strip_times(b)
    assert a[0].instance == "five-p0"
    assert {row.algorithm for row in a} == {"deviation", "yen"}


def test_bench_sweeps_run_int_like_limits_as_their_ints(five_node_graph):
    got = bench_graph(five_node_graph, "five", 2, IntLike(3), 17, label_budget=IntLike(4))
    want = bench_graph(five_node_graph, "five", 2, 3, 17, label_budget=4)
    assert _strip_times(got) == _strip_times(want)
    assert all(type(row.k) is int for row in got)
    got = bench_grid(3, 3, 1, 1, IntLike(2), 5, label_budget=IntLike(6))
    assert _strip_times(got) == _strip_times(bench_grid(3, 3, 1, 1, 2, 5, label_budget=6))


def test_bench_grid_shapes_and_ids():
    rows = bench_grid(4, 4, 2, 2, 3, 7, ("deviation", "yen-accelerated"))
    assert len(rows) == 8
    assert rows[0].instance == "grid4x4-c0-p0"
    assert rows[-1].instance == "grid4x4-c1-p1"
    assert all(row.solved for row in rows)
    dev = [r for r in rows if r.algorithm == "deviation"]
    yen = [r for r in rows if r.algorithm == "yen-accelerated"]
    assert [r.kth_cost for r in dev] == [r.kth_cost for r in yen]


def test_adding_pairs_keeps_the_same_grids():
    one = bench_grid(3, 3, 2, 1, 2, 5)
    two = bench_grid(3, 3, 2, 2, 2, 5)
    assert [r.kth_cost for r in one] == [r.kth_cost for r in two if r.instance.endswith("p0")]


def test_geometric_mean():
    assert geometric_mean([]) is None
    assert geometric_mean([None, 0.0, -3.0]) is None
    assert geometric_mean([4.0]) == pytest.approx(4.0)
    assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
    assert geometric_mean([1e-9, 1e9]) == pytest.approx(1.0)
    assert geometric_mean([2.0, None, 8.0]) == pytest.approx(4.0)


def test_summarize_groups_by_algorithm_and_k(five_node_graph):
    rows = bench_graph(five_node_graph, "five", 2, 3, 1, ("deviation", "yen"))
    rows += bench_graph(five_node_graph, "five", 2, 2, 1, ("deviation",))
    summary = summarize(rows)
    keys = [(entry["algorithm"], entry["k"]) for entry in summary]
    assert keys == [("deviation", 2), ("deviation", 3), ("yen", 3)]
    assert all(entry["instances"] == 2 for entry in summary)
    assert all(entry["geomean_time_s"] > 0 for entry in summary)


def test_rows_round_trip_through_csv(five_node_graph, tmp_path):
    rows = bench_graph(five_node_graph, "five", 2, 4, 9, ("deviation",))
    rows.append(
        ResultRow(
            instance="manual",
            algorithm="yen",
            k=3,
            solved=False,
            paths=0,
            kth_cost=None,
            queries=1,
            queries_failed=1,
            iter_success_mean=None,
            iter_failed_mean=4.5,
            time_s=0.25,
        )
    )
    dest = str(tmp_path / "rows.csv")
    write_rows(dest, rows)
    assert read_rows(dest) == rows

    buf = io.StringIO()
    write_rows(buf, rows)
    assert read_rows(io.StringIO(buf.getvalue())) == rows


def test_read_rows_on_header_only():
    header = "instance,algorithm,k,solved,paths,kth_cost,queries,queries_failed,iter_success_mean,iter_failed_mean,time_s\n"
    assert read_rows(io.StringIO(header)) == []


def test_write_summary():
    summary = [
        {
            "algorithm": "deviation",
            "k": 5,
            "instances": 2,
            "solved": 2,
            "geomean_time_s": 0.5,
            "geomean_iter_success": 12.0,
            "geomean_iter_failed": None,
        }
    ]
    buf = io.StringIO()
    write_summary(buf, summary)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("algorithm,k,instances,solved,")
    assert lines[1] == "deviation,5,2,2,0.5,12.0,"
