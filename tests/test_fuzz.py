"""Seeded fuzzing of ``kssp solve --graph`` and of the Python solvers' arguments.

Each case edits ``tests/data/mini10.gr`` a few times, drawn from
:class:`kssp.rng.SplitMix64`: a token becomes one of ``TOKENS``, or a
line is dropped, doubled or has one bit of one byte flipped. The CLI
then solves the file in-process, with and without ``--check``, and
a quarter of the cases under a zero ``--timeout-s``. Every
case must end in an exit code the CLI documents, 0 to 4, never in an
exception, and an exit 2 must print one ``error:`` line and nothing
else. No case declares more than ``NODE_CAP`` nodes, so none allocates
more than a few lists per node; the huge counts are ``run_capped``'s:
one capped child solves a file per count in ``NODE_COUNTS``, from 0 to
``10**400``, under the same rules, and no case may print a traceback.

The Python entry points ``k_shortest_paths`` and ``yen_k_shortest`` get
k, timeout, label budget and endpoints drawn from ``ARGUMENTS``, each
call on the same graph, so guided solves reuse the graph's scratch. A
call must return or raise ``ValueError`` (``GraphError`` is one), or
``SolveLimitExceeded`` when a limit strikes.

``gen`` and ``solve`` get whole argument vectors: each option is given
or left out, its value drawn from its usual values or from
``ARGV_TOKENS``, and switches, ``--algo brute`` and an unknown flag are
mixed in. They run in-process, with argparse's ``SystemExit`` caught.
Every run must exit 0 to 4 without an exception, an exit 2 must print
exactly one line with ``error:``, and an exit 0 under ``--check`` must
say that the reference agrees. The grids ``gen`` draws are 8x8 at most,
and ``solve`` reads graphs of at most a few hundred simple paths, so a
k of ``10**400`` ends when they are all found.
"""
from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path as FilePath

from kssp.cli import main
from kssp.dimacs import dump_dimacs, load_dimacs
from kssp.engine import SolveLimitExceeded, SolveOptions, k_shortest_paths
from kssp.gridgen import gen_grid
from kssp.oracles import yen_k_shortest
from kssp.rng import SplitMix64

from conftest import IntLike, run_capped

MINI = FilePath(__file__).parent / "data" / "mini10.gr"
# a NaN, an overflowing, a negative, an underscored and a zero number, and
# non-ASCII digits (Arabic-Indic 3 and fullwidth 10) that int() and float() read
TOKENS = [b"nan", b"1e309", b"-1", b"1_0", b"0", "٣".encode(), "１０".encode()]
NODE_CAP = 64
CASES = 600


def mutate(rng: SplitMix64, lines: list[bytes]) -> list[bytes]:
    """``lines`` after one or two edits, and in half the cases with the problem line's arc count made true."""
    lines = list(lines)
    for _ in range(1 + rng.below(2)):
        if not lines:
            break
        i = rng.below(len(lines))
        edit = rng.below(4)
        if edit == 0:
            tokens = lines[i].split(b" ")
            tokens[rng.below(len(tokens))] = TOKENS[rng.below(len(TOKENS))]
            lines[i] = b" ".join(tokens)
        elif edit == 1:
            del lines[i]
        elif edit == 2:
            lines.insert(i, lines[i])
        elif lines[i]:
            flipped = bytearray(lines[i])
            flipped[rng.below(len(flipped))] ^= 1 << rng.below(8)
            lines[i] = bytes(flipped)
    if rng.below(2):  # recount the arcs, so a dropped or doubled arc line reaches the solver
        arcs = sum(line.split()[:1] == [b"a"] for line in lines)
        lines = [b"p sp %s %d" % (line.split()[2], arcs) if is_problem_line(line) else line for line in lines]
    return lines


def is_problem_line(line: bytes) -> bool:
    fields = line.split()
    return len(fields) == 4 and fields[0] == b"p"


def declared_nodes(data: bytes) -> int:
    """The largest node count a problem line of ``data`` declares, split into lines as the loader does."""
    text = data.decode("utf-8", errors="replace").replace("\r\n", "\n").replace("\r", "\n")
    most = 0
    for line in text.split("\n"):
        fields = line.split()
        if len(fields) == 4 and fields[0] == "p":
            try:
                most = max(most, int(fields[2]))
            except ValueError:
                pass
    return most


def test_mutated_graph_files_end_in_a_documented_exit_code(tmp_path, capsys):
    rng = SplitMix64(2029)
    original = MINI.read_bytes().split(b"\n")
    graph = tmp_path / "case.gr"
    failures = []
    codes = [0] * 5
    for case in range(CASES):
        data = b"\n".join(mutate(rng, original))
        while declared_nodes(data) > NODE_CAP:
            data = b"\n".join(mutate(rng, original))
        graph.write_bytes(data)
        argv = ["solve", "--graph", str(graph), "-s", "0", "-t", "9", "-k", str(1 + rng.below(20))]
        if case % 2:
            argv.append("--check")
        if rng.below(4) == 0:
            argv += ["--timeout-s", "0"]
        try:
            code = main(argv)
        except Exception:
            code = traceback.format_exc()
        err = capsys.readouterr().err
        if code not in range(5) or code == 2 and not (err.startswith("error: ") and err.count("\n") == 1):
            failures.append((case, argv[8:], data, code, err))
        else:
            codes[code] += 1
    assert failures == []
    # the mutants reach the solver and its limits, not only the loader's refusals
    assert codes[0] > CASES // 10 and codes[1] > CASES // 20 and codes[2] > CASES // 10


# ints and their stand-ins, then values past the float range, NaN, a negative
# zero, text, a whole float and None
ARGUMENTS = [0, 1, 2, 3, 9, 40, -1, True, False, IntLike(5), 10**400, -(10**400), float("nan"),
             float("inf"), -0.0, 0.5, 2.0, "1", None]
CALLS = 500


def draw(rng: SplitMix64, usual: list) -> object:
    """One of ``usual`` in three cases of four, else any of ``ARGUMENTS``."""
    pool = usual if rng.below(4) else ARGUMENTS
    return pool[rng.below(len(pool))]


def test_python_entry_points_return_or_raise_the_documented_errors():
    rng = SplitMix64(2030)
    g = load_dimacs(MINI.read_text())
    nodes = list(range(g.node_count))
    failures = []
    outcomes = {"returned": 0, "ValueError": 0, "SolveLimitExceeded": 0}
    for case in range(CALLS):
        k = draw(rng, [1, 2, 5, 30])
        timeout_s = draw(rng, [None, None, 60.0])
        budget = draw(rng, [None, None, 10**6])
        s, t = draw(rng, nodes), draw(rng, nodes)
        options = SolveOptions(
            guided=rng.below(4) > 0, timeout_s=timeout_s, label_budget=budget, validate=rng.below(2) == 1
        )
        accelerated = rng.below(2) == 1
        for name, call in (
            ("k_shortest_paths", lambda: k_shortest_paths(g, s, t, k, options)),
            ("yen_k_shortest", lambda: yen_k_shortest(g, s, t, k, accelerated=accelerated, timeout_s=timeout_s)),
        ):
            try:
                report = call()
            except (ValueError, SolveLimitExceeded) as exc:
                outcomes[type(exc).__name__ if isinstance(exc, SolveLimitExceeded) else "ValueError"] += 1
                continue
            except Exception:
                failures.append((case, name, k, timeout_s, budget, s, t, traceback.format_exc()))
                continue
            outcomes["returned"] += 1
            if report.costs != sorted(report.costs):
                failures.append((case, name, k, timeout_s, budget, s, t, report.costs))
    assert failures == []
    # the draws reach the solvers and their limits, not only the argument checks
    assert outcomes["returned"] > CALLS // 4 and outcomes["ValueError"] > CALLS // 4, outcomes
    assert outcomes["SolveLimitExceeded"] > 0, outcomes
    # every guided solve gave its scratch back, and no two ran at once
    assert len(g._scratch) == 1


# option values that are no number, past the float or int range, negative or
# zero; None leaves the value out, so the next token or the end follows
HUGE = str(10**400)
ARGV_TOKENS = ["nan", "-1", "1e309", HUGE, "0", None, "--bogus"]
RUNS = 1000


def argv_for(
    rng: SplitMix64, command: str, required: int, options: dict[str, tuple[list, list]], switches: list[str]
) -> list[str]:
    """``command`` with its options and switches drawn.

    The first ``required`` options are required: each is left out in one
    case of sixteen. The others are given in one case of two, and each
    switch in one of three. An option's value comes from its usual
    values in seven cases of eight, else from its pool of bad tokens.
    One vector in sixteen ends in an unknown flag.
    """
    argv = [command]
    for i, (flag, (usual, bad)) in enumerate(options.items()):
        if rng.below(16 if i < required else 2) == 0:
            continue
        pool = usual if rng.below(8) else bad
        value = pool[rng.below(len(pool))]
        argv += [flag] if value is None else [flag, value]
    argv += [switch for switch in switches if rng.below(3) == 0]
    if rng.below(16) == 0:
        argv.append("--bogus")
    return argv


def test_drawn_argument_vectors_end_in_a_documented_exit_code(tmp_path, capsys):
    rng = SplitMix64(2031)
    grid = tmp_path / "grid4x4.gr"
    with open(grid, "w") as f:
        dump_dimacs(gen_grid(4, 4, seed=7), f)
    nodes = [str(v) for v in range(16)]
    failures = []
    codes = [0] * 5
    agreed = 0
    for run in range(RUNS):
        if rng.below(2):
            out = str(tmp_path / f"gen{run}")
            argv = argv_for(rng, "gen", 2, {
                "--grid": (["1x1", "1x2", "3x3", "2x8", "8x8"], ARGV_TOKENS + ["8x", "0x3", "x"]),
                "--out": ([out], [None, str(grid)]),
                "--costs": (["0", "1", "2"], ARGV_TOKENS),
                "--pairs": (["0", "1", "3"], ARGV_TOKENS),
                "--seed": (["0", "5"], ARGV_TOKENS),
                "--cost-low": (["0", "1"], ARGV_TOKENS),
                "--cost-high": (["10", "2.5"], ARGV_TOKENS),
            }, [])
        else:
            argv = argv_for(rng, "solve", 3, {
                "--graph": ([str(MINI), str(grid)], [None, str(tmp_path / "missing.gr"), str(tmp_path)]),
                "-t": (nodes, ARGV_TOKENS),
                "-s": (nodes, ARGV_TOKENS),
                "-k": (["1", "3", "40", HUGE], ARGV_TOKENS),
                "--algo": (["deviation", "yen", "yen-accelerated", "brute"], ARGV_TOKENS),
                "--timeout-s": (["60", "0"], ARGV_TOKENS),
                "--label-budget": (["1000000", "5"], ARGV_TOKENS),
            }, ["--check", "--unguided", "--validate"])
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the vector
            code = exc.code
        except Exception:
            code = traceback.format_exc()
        err = capsys.readouterr().err
        errors = sum("error:" in line for line in err.splitlines())
        if (
            code not in range(5)
            or code == 2 and errors != 1
            or code == 0 and "--check" in argv and " agrees\n" not in err
        ):
            failures.append((run, argv, code, err))
        else:
            codes[code] += 1
            agreed += code == 0 and "--check" in argv
    assert failures == []
    # the vectors reach both commands' work, a limit and the cross-check, not only refusals
    assert codes[0] > RUNS // 10 and codes[1] > 0 and codes[2] > RUNS // 4 and codes[3] > 0, codes
    assert agreed > 0


# node counts from none through one past the index range, each declared with 0
# arcs and with one arc 1 -> 2; the large ones must fail to allocate, not run on
NODE_COUNTS = [0, 1, 2, 2**20, 2**31, 10**12, sys.maxsize, 2**64 + 1, 10**400]
# solve each graph file named in argv in-process, its output captured, and
# print one [exit code or traceback, stdout, stderr] per file as JSON
SOLVE_EACH = """
import contextlib, io, json, sys, traceback
from kssp.cli import main
results = []
for graph in sys.argv[1:]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["solve", "--graph", graph, "-s", "0", "-t", "1"])
        except Exception:
            code = traceback.format_exc()
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_declared_node_counts_end_in_a_documented_exit_code(tmp_path):
    graphs = []
    for n in NODE_COUNTS:
        for arcs in ("", "a 1 2 1\n"):
            graphs.append(tmp_path / f"n{len(graphs)}.gr")
            graphs[-1].write_text(f"p sp {n} {arcs.count('a')}\n{arcs}")
    done = run_capped("-c", SOLVE_EACH, *map(str, graphs), timeout=30)
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)
    failures = [
        (graph.read_text(), code, err)
        for graph, (code, out, err) in zip(graphs, results)
        if code not in range(4) or code == 2 and (out or err.count("\n") != 1 or not err.startswith("error: "))
    ]
    assert failures == []
    codes = [code for code, _, _ in results]
    # 2 nodes, and 2**20, solve to exit 0 with the arc and to 3 without; every other count is refused
    assert codes == [2, 2, 2, 2, 3, 0, 3, 0] + [2] * 10
