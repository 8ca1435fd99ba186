"""Seeded mutation fuzzing of ``kssp solve --graph``.

Each case edits ``tests/data/mini10.gr`` a few times, drawn from
:class:`kssp.rng.SplitMix64`: a token becomes one of ``TOKENS``, or a
line is dropped, doubled or has one bit of one byte flipped. The CLI
then solves the file in-process, with and without ``--check``, and
a quarter of the cases under a zero ``--timeout-s``. Every
case must end in an exit code the CLI documents, 0 to 4, never in an
exception, and an exit 2 must print one ``error:`` line and nothing
else. No case declares more than ``NODE_CAP`` nodes, so none allocates
more than a few lists per node; the huge counts are ``run_capped``'s.
"""
from __future__ import annotations

import traceback
from pathlib import Path as FilePath

from kssp.cli import main
from kssp.rng import SplitMix64

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
