"""Command line surface: output, exit codes, and generated files."""
from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path as FilePath

import pytest

from kssp.cli import main
from kssp.dimacs import dump_dimacs, load_dimacs
from kssp.engine import SolveLimitExceeded, SolveReport
from kssp.gridgen import gen_grid
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
    # the paper's per-query measures: 25 labels over 4 found queries, 6 in the failed one
    assert "5 queries (1 failed), mean labels 6.25 per found query, 6.00 per failed, " in err


@pytest.mark.parametrize(
    "extra, code, count, status",
    [([], 0, 4, "4 of 4 paths, status complete"), (["--check"], 0, 4, "cross-check: exhaustive enumeration agrees"),
     (["--label-budget", "1"], 1, 1, "aborted (iterations): 1 of 4 paths found")],
    ids=["complete", "checked", "aborted"],
)
def test_solve_prints_records_without_a_list_of_every_path(capsys, monkeypatch, extra, code, count, status):
    # after a MemoryError such a list may not fit, so the printed paths come from the records
    def no_list(report):
        raise AssertionError("SolveReport.paths was read")

    monkeypatch.setattr(SolveReport, "paths", property(no_list))
    got = run(capsys, "solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "4", *extra)
    assert got[:2] == (code, MINI_LINES[:count])
    assert status in got[2]


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


def test_solve_grid(capsys, tmp_path):
    code, _, _ = run(capsys, "gen", "--grid", "3x3", "--seed", "5", "--out", str(tmp_path))
    assert code == 0
    graph = str(tmp_path / "grid3x3-c0.gr")
    code, out, err = run(capsys, "solve", "--graph", graph, "-s", "0", "-t", "8", "-k", "3")
    assert code == 0
    assert len(out) == 3
    assert all(line.startswith("cost ") for line in out)
    costs = [float(line.split()[1]) for line in out]
    assert costs == sorted(costs)


def test_solve_reads_its_instance_only_from_a_file(capsys):
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    usage = capsys.readouterr().out
    assert "--graph" in usage
    assert "--grid" not in usage and "--seed" not in usage
    code, _, err = run(capsys, "solve", "-s", "0", "-t", "9")
    assert code == 2
    assert "the following arguments are required: --graph" in err


def test_solve_check_agrees(capsys):
    code, out, err = run(
        capsys, "solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "4", "--check"
    )
    assert code == 0
    assert "exhaustive enumeration agrees" in err


GRID5 = "grid5x5.gr"  # the 5x5 grid of cost seed 0, which in_grid5_dir writes to the working directory
GRID5_ARGS = ("solve", "--graph", GRID5, "-s", "0", "-t", "24")


@pytest.fixture
def in_grid5_dir(tmp_path, monkeypatch):
    """Run in a fresh directory holding GRID5, as ``kssp gen`` writes grids to files for solve."""
    with open(tmp_path / GRID5, "w") as f:
        dump_dimacs(gen_grid(5, 5, seed=0), f)
    monkeypatch.chdir(tmp_path)


def test_solve_check_compares_with_yen_above_the_enumeration_limit(capsys, in_grid5_dir):
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
    capsys, monkeypatch, in_grid5_dir, argv, reference
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


def test_solve_check_prints_the_solver_paths_when_yen_aborts(capsys, monkeypatch, in_grid5_dir):
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


def test_solve_brute_rejects_large_graphs(capsys, in_grid5_dir):
    code, _, err = run(capsys, *GRID5_ARGS, "-k", "2", "--algo", "brute")
    assert code == 2
    assert "limited to 14 nodes" in err


def test_solve_exhausted_exit_code(capsys):
    code, out, err = run(capsys, "solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "100")
    assert code == 3
    assert len(out) == 16
    assert "16 of 100 paths, status exhausted-early" in err


def test_solve_aborted_exit_code(capsys, in_grid5_dir):
    code, out, err = run(capsys, *GRID5_ARGS, "-k", "50", "--label-budget", "1")
    assert code == 1
    assert len(out) >= 1
    assert "aborted" in err


def test_yen_out_of_memory_before_any_path_exits_1(capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("kssp.oracles.shortest_path", out_of_memory)
    code, out, err = run(capsys, "solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "4", "--algo", "yen")
    assert (code, out, err) == (1, [], "aborted (memory): 0 of 4 paths found\n")


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


@pytest.mark.parametrize(
    "argv",
    [
        # solve reads its instance only from --graph; gen writes grids
        ("solve", "--graph", "x.gr", "--grid", "2x2", "-s", "0", "-t", "1"),
        ("solve", "-s", "0", "-t", "1"),
        ("gen", "--grid", "nope", "--out", "out"),
        ("solve", "--graph", "/definitely/not/here.gr", "-s", "0", "-t", "1"),
        ("solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "0", "--algo", "brute"),
        ("solve", "--graph", MINI, "-s", "0", "-t", "0", "-k", "2"),
        ("solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "3", "--check", "--timeout-s", "nan"),
        ("solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "3", "--timeout-s", "-1"),
        ("solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "3", "--algo", "yen",
         "--timeout-s", "nan"),
        ("solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "3", "--label-budget", "-5"),
        ("gen", "--grid", "3x3", "--costs", "-1", "--out", "out"),
        ("gen", "--grid", "3x3", "--pairs", "-2", "--out", "out"),
        ("gen", "--grid", "3x3", "--costs", "0", "--pairs", "-2", "--out", "out"),
        ("solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "-1"),
        ("solve", "--graph", MINI, "-s", "0", "-t", "10"),
        ("solve", "--graph", MINI, "-s", "-1", "-t", "9"),
        ("solve", "--graph", MINI, "-s", "0", "-t", "9", "--algo", "yen-accelerated",
         "--timeout-s", "-1"),
        ("solve", "--graph", MINI, "-s", "0", "-t", "9", "--timeout-s", "nan"),
        ("solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "0"),
        ("solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "0", "--algo", "yen"),
        # solve has no seed: a grid's cost seed is gen's business
        ("solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "2", "--seed", "5"),
        # the prune rules always run and have no switch
        ("solve", "--graph", MINI, "-s", "0", "-t", "9", "-k", "3", "--no-prune-max"),
        # the shape and cost bounds are checked before the directory is made,
        # and a pair that cannot be drawn is found before it is made
        ("gen", "--grid", "0x0", "--out", "out"),
        ("gen", "--grid", "1x1", "--pairs", "1", "--out", "out"),
        ("gen", "--grid", "2x2", "--cost-low", "5", "--cost-high", "1", "--out", "out"),
        ("gen", "--grid", "2x2", "--cost-low", "nan", "--out", "out"),
        ("gen", "--grid", "0x0", "--costs", "0", "--out", "out"),
        ("solve", "--graph", os.devnull, "-s", "0", "-t", "1"),
        # a negative low or an infinite high bound is refused even where no draw falls outside
        ("gen", "--grid", "2x2", "--cost-low", "-1", "--out", "out"),
        ("gen", "--grid", "2x2", "--costs", "0", "--cost-high", "inf", "--out", "out"),
    ],
)
def test_usage_errors_exit_2(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)  # gen writes relative to the working directory
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err
    assert list(tmp_path.iterdir()) == []  # no output directory or manifest


@pytest.mark.parametrize("flag, what", [("--pairs", "pair"), ("--costs", "grid")])
def test_a_count_no_list_can_hold_exits_2_before_any_draw(capsys, monkeypatch, tmp_path, flag, what):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "gen", "--grid", "2x2", flag, str(10**400), "--out", "out")
    assert code == 2
    assert out == []
    assert err == f"error: {what} count must be at most {sys.maxsize}\n"
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("algo", ["deviation", "yen-accelerated"])
def test_a_path_whose_cost_overflows_is_still_found(tmp_path, capsys, algo):
    # a reverse sweep never reaches node 0, as its distance overflows
    graph = tmp_path / "overflow.gr"
    graph.write_text("p sp 3 2\na 1 2 1e308\na 2 3 1e308\n")
    argv = ("solve", "--graph", str(graph), "-s", "0", "-t", "2", "-k", "2", "--algo", algo)
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert out[0] == "cost inf nodes 0 1 2"


@pytest.mark.xfail(strict=True, reason="ROADMAP Open item 1: a cost fold can overflow to inf")
def test_a_path_cost_beyond_the_float_range_is_not_printed_as_inf(tmp_path, capsys):
    graph = tmp_path / "overflow.gr"
    graph.write_text("p sp 3 3\na 1 3 0\na 1 2 1e308\na 2 3 1e308\n")
    _, out, _ = run(capsys, "solve", "--graph", str(graph), "-s", "0", "-t", "2", "-k", "3")
    assert not any(line.startswith("cost inf ") for line in out)


def test_bad_subcommand_usage_is_an_argparse_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["bench", "report"])
def test_the_cli_offers_only_gen_and_solve(capsys, monkeypatch, tmp_path, command):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, command, "--csv", "rows.csv")
    assert code == 2
    assert out == []
    assert f"invalid choice: '{command}'" in err
    assert re.search(r"\(choose from '?gen'?, '?solve'?\)", err)
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("count", UNALLOCATABLE_COUNTS)
def test_a_node_count_too_large_to_allocate_exits_2(tmp_path, count):
    graph = tmp_path / "huge.gr"
    graph.write_text(f"p sp {count} 2\na 1 2 1\na 2 5 1\n")
    done = run_capped("-m", "kssp.cli", "solve", "--graph", str(graph), "-s", "0", "-t", "4")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: node_count {count} is too large to allocate\n"


def test_a_grid_too_large_to_allocate_exits_2(tmp_path):
    # its arc arrays run out of the child's address space before any node list is made
    done = run_capped("-m", "kssp.cli", "gen", "--grid", "99999x99999", "--out", str(tmp_path / "out"))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: grid 99999x99999 is too large to allocate\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmPeak from /proc")
@pytest.mark.parametrize("option", ["--pairs", "--costs"])
def test_a_count_too_large_to_allocate_exits_2(tmp_path, option):
    # its pair list or cost seeds pass check_count but not the cap, a small
    # gen's peak plus 16 MiB, which they fill within a second
    small = run_capped("-c", PEAK_VM, "gen", "--grid", "2x2", "--out", str(tmp_path / "small"))
    assert small.returncode == 0, small.stderr
    cap_bytes = int(small.stderr.splitlines()[-1]) * 1024 + 2**24
    count = "1000000000000"
    done = run_capped("-m", "kssp.cli", "gen", "--grid", "2x2", option, count, "--out", str(tmp_path / "out"),
                      cap_bytes=cap_bytes, timeout=30)
    assert done.returncode == 2, done.stderr[-2000:]
    assert done.stdout == ""
    pairs, costs = (count, "1") if option == "--pairs" else ("0", count)
    assert done.stderr == f"error: grid count {costs} with {pairs} pairs per grid is too large to allocate\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("shape", ["1x100000000000000000000", "100000000000000000000x1"])
def test_a_grid_side_past_the_index_range_exits_2(tmp_path, shape):
    # its arc count passes sys.maxsize, so the first allocation fails at once
    done = run_capped("-m", "kssp.cli", "gen", "--grid", shape, "--out", str(tmp_path / "out"), timeout=20)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: grid {shape} is too large to allocate\n"
    assert not (tmp_path / "out").exists()


# run main(argv[1:]) and then report the child's peak address space, which is
# what RLIMIT_AS caps, on a last stderr line
PEAK_VM = """
import sys
from kssp.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as f:
    print(next(line for line in f if line.startswith("VmPeak:")).split()[1], file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmPeak from /proc")
def test_a_solve_that_runs_out_of_memory_prints_its_paths_and_exits_1(tmp_path):
    # ROADMAP item 14's case: with k far past what the queue ever holds, no
    # cap prunes and every candidate is kept until memory runs out
    assert main(["gen", "--grid", "20x20", "--seed", "3", "--out", str(tmp_path)]) == 0
    solve = ["solve", "--graph", str(tmp_path / "grid20x20-c0.gr"), "-s", "0", "-t", "399"]
    # the cap is a small solve's peak plus 32 MiB: a lower one can leave the
    # interpreter itself no room, and a higher one takes longer to fill
    small = run_capped("-c", PEAK_VM, *solve, "-k", "100")
    assert small.returncode == 0, small.stderr
    peak_kib = int(small.stderr.splitlines()[-1])
    done = run_capped("-m", "kssp.cli", *solve, "-k", "3000000", cap_bytes=peak_kib * 1024 + 2**25, timeout=30)
    assert done.returncode == 1, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert done.stderr == f"aborted (memory): {len(lines)} of 3000000 paths found\n"
    assert len(lines) > 1000
    costs = [float(line.split()[1]) for line in lines]
    assert costs == sorted(costs)
    assert all(line.split()[3] == "0" and line.split()[-1] == "399" for line in lines)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmPeak from /proc")
def test_every_memory_cap_ends_in_a_documented_exit(tmp_path):
    assert main(["gen", "--grid", "256x256", "--out", str(tmp_path)]) == 0
    graph = str(tmp_path / "grid256x256-c0.gr")
    solve = ["solve", "-s", "0", "-t", "65535", "-k", "2", "--graph"]

    def peak_kib(path: str) -> int:
        done = run_capped("-c", PEAK_VM, *solve, path)
        return int(done.stderr.splitlines()[-1])

    # below the peak of a run that reads no file the interpreter cannot import
    # kssp at all, and a cap a little above a whole solve's peak must let it finish
    low = peak_kib(str(tmp_path / "missing.gr")) + 2048
    high = peak_kib(graph) + 2048
    caps = [low + (high - low) * i // 11 for i in range(12)]
    codes = []
    for cap in caps:
        done = run_capped("-m", "kssp.cli", *solve, graph, cap_bytes=cap * 1024, timeout=10)
        assert "Traceback" not in done.stderr, (cap, done.stderr[-2000:])
        out, err = done.stdout.splitlines(), done.stderr.splitlines()
        if done.returncode == 0:
            assert len(out) == 2 and len(err) == 1 and err[0].startswith("2 of 2 paths"), (cap, done.stderr)
        elif done.returncode == 1:
            assert err == [f"aborted (memory): {len(out)} of 2 paths found"], (cap, done.stderr)
        else:
            assert done.returncode == 2 and out == [], (cap, done.returncode, done.stderr)
            assert len(err) == 1 and err[0].startswith("error: "), (cap, done.stderr)
        codes.append(done.returncode)
    assert codes[0] == 2 and codes[-1] == 0, list(zip(caps, codes))
