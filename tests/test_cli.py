"""Command line surface: output, exit codes, and generated files."""
from __future__ import annotations

import json
from pathlib import Path as FilePath

import pytest

from kssp.cli import main
from kssp.dimacs import dump_dimacs, load_dimacs
from kssp.engine import SolveLimitExceeded
from kssp.oracles import enumerate_simple_paths, yen_k_shortest

from conftest import UNALLOCATABLE_COUNTS, cost_family, make_digraph, run_capped

MINI = str(FilePath(__file__).parent / "data" / "mini10.gr")

MINI_LINES = [
    "cost 9 nodes 0 2 4 6 8 9",
    "cost 9 nodes 0 1 3 5 7 9",
    "cost 9 nodes 0 2 3 5 7 9",
    "cost 9 nodes 0 2 4 5 7 9",
]


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse exits on its own usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def test_solve_graph_file(capsys):
    code, out, err = run(capsys, "solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "4")
    assert code == 0
    assert out == MINI_LINES
    assert "4 of 4 paths, status complete" in err


def test_solve_is_unaffected_by_flag_combinations(capsys):
    base = run(capsys, "solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "4")
    for extra in (
        ["--unguided"],
        ["--validate"],
        ["--unguided", "--validate"],
    ):
        code, out, _ = run(
            capsys, "solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "4", *extra
        )
        assert code == 0
        assert out == base[1]


def test_solve_grid(capsys):
    code, out, err = run(
        capsys, "solve", "--grid", "3x3", "--seed", "5", "-s", "0", "-t", "8", "-k", "3"
    )
    assert code == 0
    assert len(out) == 3
    assert all(line.startswith("cost ") for line in out)
    costs = [float(line.split()[1]) for line in out]
    assert costs == sorted(costs)


def test_solve_check_agrees(capsys):
    code, out, err = run(
        capsys, "solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "4", "--check"
    )
    assert code == 0
    assert "exhaustive enumeration agrees" in err


GRID5_ARGS = ("solve", "--grid", "5x5", "-s", "0", "-t", "24")


def test_solve_check_compares_with_yen_above_the_enumeration_limit(capsys):
    _, plain, _ = run(capsys, *GRID5_ARGS, "-k", "2")
    code, out, err = run(capsys, *GRID5_ARGS, "-k", "2", "--check")
    assert code == 0
    assert out == plain
    assert "cross-check: yen agrees" in err


def test_solve_algo_both_is_gone(capsys):
    code, out, err = run(
        capsys, "solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "4", "--algo", "both"
    )
    assert code == 2
    assert out == []
    assert "invalid choice: 'both'" in err


@pytest.mark.parametrize(
    "argv, reference",
    [
        (("solve", "--graph", MINI, "-s", "0", "-t", "9"), "exhaustive enumeration"),
        (GRID5_ARGS, "yen"),
    ],
)
def test_solve_check_mismatch_prints_the_solver_paths_and_exits_4(
    capsys, monkeypatch, argv, reference
):
    # each fake reference finds one path fewer than asked for
    def short_enumeration(g, s, t, max_paths):
        return enumerate_simple_paths(g, s, t, max_paths=max_paths - 1)

    def short_yen(g, s, t, k, **kwargs):
        return yen_k_shortest(g, s, t, k - 1, **kwargs)

    monkeypatch.setattr("kssp.cli.enumerate_simple_paths", short_enumeration)
    monkeypatch.setattr("kssp.cli.yen_k_shortest", short_yen)
    _, plain, _ = run(capsys, *argv, "-k", "4")
    code, out, err = run(capsys, *argv, "-k", "4", "--check")
    assert code == 4
    assert out == plain
    lines = err.splitlines()
    assert lines[0] == f"cross-check mismatch against {reference}:"
    solver = [float(line.split()[1]) for line in plain]
    assert lines[1:] == [f"  solver:    {solver}", f"  reference: {solver[:3]}"]


def test_solve_check_prints_the_solver_paths_when_yen_aborts(capsys, monkeypatch):
    def timed_out_yen(g, s, t, k, **kwargs):
        raise SolveLimitExceeded("deadline", yen_k_shortest(g, s, t, 1))

    _, plain, _ = run(capsys, *GRID5_ARGS, "-k", "4")
    monkeypatch.setattr("kssp.cli.yen_k_shortest", timed_out_yen)
    code, out, err = run(capsys, *GRID5_ARGS, "-k", "4", "--check")
    assert code == 1
    assert out == plain
    assert err == "cross-check aborted (deadline): yen found 1 of 4 paths\n"


def test_solve_yen_modes(capsys):
    for algo in ("yen", "yen-accelerated"):
        code, out, _ = run(
            capsys, "solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "4", "--algo", algo
        )
        assert code == 0
        assert [line.split()[1] for line in out] == ["9", "9", "9", "9"]


def test_solve_brute(capsys):
    code, out, err = run(
        capsys, "solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "4", "--algo", "brute"
    )
    assert code == 0
    g = load_dimacs(FilePath(MINI).read_text())
    expected = enumerate_simple_paths(g, 0, 9, max_paths=4)
    assert [float(line.split()[1]) for line in out] == [p.cost for p in expected]
    assert [
        [int(tok) for tok in line.split()[3:]] for line in out
    ] == [list(p.nodes(g)) for p in expected]


def test_solve_brute_rejects_large_graphs(capsys):
    code, _, err = run(
        capsys, "solve", "--grid", "4x4", "-s", "0", "-t", "15", "-k", "2", "--algo", "brute"
    )
    assert code == 2
    assert "limited to 14 nodes" in err


def test_solve_exhausted_exit_code(capsys):
    code, out, err = run(capsys, "solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "100")
    assert code == 3
    assert len(out) == 16
    assert "16 of 100 paths, status exhausted-early" in err


def test_solve_aborted_exit_code(capsys):
    code, out, err = run(
        capsys,
        "solve", "--grid", "6x6", "-s", "0", "-t", "35", "-k", "50", "--label-budget", "1",
    )
    assert code == 1
    assert len(out) >= 1
    assert "aborted" in err


def test_solve_failed_validation_exit_code(capsys, monkeypatch):
    def failing_check(g, s, t, report):
        raise AssertionError("path 15 breaks cost order")

    monkeypatch.setattr("kssp.engine._validate_report", failing_check)
    code, out, err = run(
        capsys, "solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "4", "--validate"
    )
    assert code == 4
    assert out == []
    assert err == "validation failed: path 15 breaks cost order\n"
    # without --validate the self-check never runs
    code, out, _ = run(capsys, "solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "4")
    assert code == 0
    assert out == MINI_LINES


@pytest.mark.parametrize("algo", ["yen", "yen-accelerated", "brute"])
@pytest.mark.parametrize(
    "extra",
    [["--label-budget", "1"], ["--validate"], ["--unguided"]],
)
def test_solve_rejects_deviation_options_for_other_solvers(capsys, algo, extra):
    code, out, err = run(
        capsys, "solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "4", "--algo", algo, *extra
    )
    assert code == 2
    assert out == []
    assert err == f"error: {extra[0]} applies only to the deviation solver, not --algo {algo}\n"


def test_solve_rejects_a_timeout_for_brute_force(capsys):
    # nor a cross-check, since brute force is the check
    for extra in (["--timeout-s", "0.000001"], ["--check"]):
        code, out, err = run(
            capsys, "solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "16", "--algo", "brute",
            *extra,
        )
        assert code == 2
        assert out == []
        assert err == (
            f"error: {extra[0]} applies only to the deviation and Yen solvers, not --algo brute\n"
        )


def test_bench_rejects_a_label_budget_for_yen(capsys):
    code, out, err = run(
        capsys, "bench", "--grid", "6x6", "-k", "5", "--algo", "deviation", "--algo", "yen",
        "--label-budget", "1",
    )
    assert code == 2
    assert out == []
    assert err == "error: --label-budget applies only to the deviation solver, not --algo yen\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--graph", "x.gr", "--grid", "2x2", "-s", "0", "-t", "1"),
        ("solve", "-s", "0", "-t", "1"),
        ("solve", "--grid", "nope", "-s", "0", "-t", "1"),
        ("solve", "--graph", "/definitely/not/here.gr", "-s", "0", "-t", "1"),
        ("solve", "--grid", "3x3", "-s", "0", "-t", "8", "-k", "0"),
        ("solve", "--grid", "3x3", "-s", "0", "-t", "0", "-k", "2"),
        ("solve", "--grid", "3x3", "-s", "0", "-t", "8", "-k", "3", "--timeout-s", "nan"),
        ("solve", "--grid", "3x3", "-s", "0", "-t", "8", "-k", "3", "--timeout-s", "-1"),
        ("solve", "--grid", "3x3", "-s", "0", "-t", "8", "-k", "3", "--algo", "yen",
         "--timeout-s", "nan"),
        ("solve", "--grid", "3x3", "-s", "0", "-t", "8", "-k", "3", "--label-budget", "-5"),
        ("gen", "--grid", "3x3", "--costs", "-1", "--out", "out"),
        ("gen", "--grid", "3x3", "--pairs", "-2", "--out", "out"),
        ("gen", "--grid", "3x3", "--costs", "0", "--pairs", "-2", "--out", "out"),
        ("bench", "--grid", "3x3", "--pairs", "-1"),
        # checked up front, though with no grid or no pair nothing is solved
        ("bench", "--grid", "3x3", "--costs", "0", "-k", "0", "--csv", "rows.csv"),
        ("bench", "--grid", "3x3", "--costs", "0", "--pairs", "-2", "--csv", "rows.csv"),
        ("bench", "--grid", "3x3", "--costs", "0", "--timeout-s", "-1", "--csv", "rows.csv"),
        ("bench", "--grid", "3x3", "--costs", "0", "--timeout-s", "nan", "--csv", "rows.csv"),
        ("bench", "--graph", MINI, "--pairs", "0", "-k", "0", "--csv", "rows.csv"),
        # the prune rules always run and have no switch
        ("solve", "--grid", "3x3", "-s", "0", "-t", "8", "-k", "3", "--no-prune-max"),
        # the shape and cost bounds are checked before the directory is made,
        # and a pair that cannot be drawn is found before it is made
        ("gen", "--grid", "0x0", "--out", "out"),
        ("gen", "--grid", "1x1", "--pairs", "1", "--out", "out"),
        ("gen", "--grid", "2x2", "--cost-low", "5", "--cost-high", "1", "--out", "out"),
        ("gen", "--grid", "2x2", "--cost-low", "nan", "--out", "out"),
        ("gen", "--grid", "0x0", "--costs", "0", "--out", "out"),
        ("bench", "--grid", "0x0", "--costs", "0"),
        # a negative low or an infinite high bound is refused even where no draw falls outside
        ("gen", "--grid", "2x2", "--cost-low", "-1", "--out", "out"),
        ("gen", "--grid", "2x2", "--costs", "0", "--cost-high", "inf", "--out", "out"),
    ],
)
def test_usage_errors_exit_2(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)  # gen and bench write relative to the working directory
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err
    assert list(tmp_path.iterdir()) == []  # no output directory, manifest or CSV


def test_a_cost_beyond_the_float_range_exits_2(tmp_path, capsys):
    graph = tmp_path / "huge.gr"
    graph.write_text("p sp 2 1\na 1 2 " + "9" * 400 + "\n")
    code, out, err = run(capsys, "solve", "--graph", str(graph), "-s", "0", "-t", "1")
    assert code == 2
    assert out == []
    assert err.startswith("error: line 2: arc cost must be finite")
    assert err.count("\n") == 1


def test_decimal_costs_solve_in_cost_order(tmp_path, capsys):
    # seed 70 once printed 1.2000000000000002 before 1.2, and --validate exited 4
    g = cost_family(make_digraph(70, 5, 9, 0.4), "tenths")
    graph = tmp_path / "tenths.gr"
    with open(graph, "w") as f:
        dump_dimacs(g, f)
    code, out, _ = run(capsys, "solve", "--graph", str(graph), "-s", "0", "-t", "8", "-k", "20", "--validate")
    assert code == 0
    want = [p.cost for p in enumerate_simple_paths(g, 0, 8)[:20]]
    assert [float(line.split()[1]) for line in out] == want


@pytest.mark.xfail(strict=True, reason="ROADMAP Open item 1: a cost fold can overflow to inf")
def test_a_path_cost_beyond_the_float_range_is_not_printed_as_inf(tmp_path, capsys):
    graph = tmp_path / "overflow.gr"
    graph.write_text("p sp 3 3\na 1 3 0\na 1 2 1e308\na 2 3 1e308\n")
    _, out, _ = run(capsys, "solve", "--graph", str(graph), "-s", "0", "-t", "2", "-k", "3")
    assert not any(line.startswith("cost inf ") for line in out)


def test_report_on_a_csv_without_bench_columns_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "other.csv"
    csv_path.write_text("a,b\n1,2\n")
    code, out, err = run(capsys, "report", "--csv", str(csv_path))
    assert code == 2
    assert out == []
    assert err.startswith("error: not a bench CSV: missing columns instance, algorithm, k,")
    assert err.count("\n") == 1


def report_with_cell(tmp_path, capsys, column: str, cell: str | None):
    """``kssp report`` on a bench CSV whose row 3 has ``cell`` in ``column``, or ends before it."""
    csv_path = tmp_path / "rows.csv"
    code, _, _ = run(
        capsys, "bench", "--grid", "4x4", "--costs", "2", "-k", "3", "--csv", str(csv_path)
    )
    assert code == 0
    rows = csv_path.read_text().splitlines()
    i = rows[0].split(",").index(column)
    fields = rows[2].split(",")
    rows[2] = ",".join(fields[:i] if cell is None else fields[:i] + [cell] + fields[i + 1 :])
    csv_path.write_text("\n".join(rows) + "\n")
    return run(capsys, "report", "--csv", str(csv_path))


@pytest.mark.parametrize("bad", ["True", "yes", ""])
def test_report_on_a_csv_with_a_bad_solved_cell_exits_2(tmp_path, capsys, bad):
    code, out, err = report_with_cell(tmp_path, capsys, "solved", bad)
    assert code == 2
    assert out == []
    assert err == f"error: not a bench CSV: row 3, column solved: must be true or false, got {bad!r}\n"


@pytest.mark.parametrize(
    "column, bad, reason",
    [
        ("k", "x", "invalid literal for int() with base 10: 'x'"),
        ("kth_cost", "abc", "could not convert string to float: 'abc'"),
        ("time_s", None, "the row has fewer cells than the header"),
    ],
)
def test_report_names_the_row_and_column_of_a_bad_cell(tmp_path, capsys, column, bad, reason):
    code, out, err = report_with_cell(tmp_path, capsys, column, bad)
    assert code == 2
    assert out == []
    assert err == f"error: not a bench CSV: row 3, column {column}: {reason}\n"


@pytest.mark.parametrize("row", [1, 3])
def test_report_names_the_row_of_a_cell_beyond_the_csv_field_limit(tmp_path, capsys, row):
    csv_path = tmp_path / "rows.csv"
    code, _, _ = run(
        capsys, "bench", "--grid", "4x4", "--costs", "2", "-k", "3", "--csv", str(csv_path)
    )
    assert code == 0
    rows = csv_path.read_text().splitlines()
    rows[row - 1] += "," + "x" * 200_000
    csv_path.write_text("\n".join(rows) + "\n")
    code, out, err = run(capsys, "report", "--csv", str(csv_path))
    assert code == 2
    assert out == []
    assert err == f"error: not a bench CSV: row {row}: field larger than field limit (131072)\n"


def test_bad_subcommand_usage_is_an_argparse_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_gen_writes_reproducible_instances(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code, _, err = run(
            capsys,
            "gen", "--grid", "3x4", "--costs", "2", "--pairs", "2",
            "--seed", "11", "--out", str(out),
        )
        assert code == 0
        assert "wrote 2 instance(s)" in err

    names = sorted(p.name for p in out_a.iterdir())
    assert names == ["grid3x4-c0.gr", "grid3x4-c1.gr", "manifest.json"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["rows"] == 3
    assert manifest["cols"] == 4
    assert manifest["seed"] == 11
    assert len(manifest["instances"]) == 2
    for entry in manifest["instances"]:
        assert len(entry["pairs"]) == 2
        g = load_dimacs((out_a / entry["file"]).read_text())
        assert g.node_count == 12
        assert g.arc_count == 34
        assert all(s != t and 0 <= s < 12 and 0 <= t < 12 for s, t in entry["pairs"])


def test_bench_to_csv_and_report(tmp_path, capsys):
    csv_path = str(tmp_path / "rows.csv")
    code, _, err = run(
        capsys,
        "bench", "--grid", "4x4", "--costs", "2", "--pairs", "1", "-k", "3",
        "--seed", "3", "--algo", "deviation", "--algo", "yen", "--csv", csv_path,
    )
    assert code == 0
    assert "wrote 4 row(s)" in err

    code, out, _ = run(capsys, "report", "--csv", csv_path)
    assert code == 0
    assert out[0].startswith("algorithm,k,instances,solved,")
    assert len(out) == 3
    assert out[1].startswith("deviation,3,2,2,")
    assert out[2].startswith("yen,3,2,2,")


def test_bench_to_stdout(capsys):
    code, out, _ = run(
        capsys, "bench", "--graph", MINI, "--pairs", "2", "-k", "3", "--seed", "1"
    )
    assert code == 0
    assert out[0].startswith("instance,algorithm,k,")
    assert len(out) == 3
    assert out[1].startswith("mini10-p0,deviation,3,")


@pytest.mark.parametrize("count", UNALLOCATABLE_COUNTS)
def test_a_node_count_too_large_to_allocate_exits_2(tmp_path, count):
    graph = tmp_path / "huge.gr"
    graph.write_text(f"p sp {count} 2\na 1 2 1\na 2 5 1\n")
    done = run_capped("-m", "kssp.cli", "solve", "--graph", str(graph), "-s", "0", "-t", "4")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: node_count {count} is too large to allocate\n"
