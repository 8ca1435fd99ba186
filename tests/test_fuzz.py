"""Seeded fuzzing of ``kssp solve --graph`` and of the Python solvers' arguments.

Each case edits ``tests/data/mini10.gr`` a few times, drawn from
:class:`kssp.rng.SplitMix64`: a token becomes one of ``TOKENS``, or a
line is dropped, doubled or has one bit of one byte flipped. The CLI
then solves the file in-process, with and without ``--check``, and
a quarter of the cases under a zero ``--timeout-s``. Every
case must end in an exit code the CLI documents, 0 to 4, never in an
exception, and an exit 2 must print one ``error:`` line and nothing
else. No case declares more than ``NODE_CAP`` nodes, so none allocates
more than a few lists per node; the huge counts are ``run_capped``'s.

The Python entry points ``k_shortest_paths`` and ``yen_k_shortest`` get
k, timeout, label budget and endpoints drawn from ``ARGUMENTS``, each
call on the same graph, so guided solves reuse the graph's scratch. A
call must return or raise ``ValueError`` (``GraphError`` is one), or
``SolveLimitExceeded`` when a limit strikes.
"""
from __future__ import annotations

import traceback
from pathlib import Path as FilePath

from kssp.cli import main
from kssp.dimacs import load_dimacs
from kssp.engine import SolveLimitExceeded, SolveOptions, k_shortest_paths
from kssp.oracles import yen_k_shortest
from kssp.rng import SplitMix64

from conftest import IntLike

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
