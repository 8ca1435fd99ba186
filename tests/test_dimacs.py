"""Graph file parsing, exact round trips, and path line formatting."""
from __future__ import annotations

import io
from pathlib import Path as FilePath

import pytest

from kssp.cli import main
from kssp.dimacs import (
    DimacsError,
    dump_dimacs,
    dumps_dimacs,
    format_cost,
    format_path_line,
    load_dimacs,
    parse_path_line,
    write_paths,
)
from kssp.graph import Graph, Path

MINI = FilePath(__file__).parent / "data" / "mini10.gr"


def test_load_from_string():
    g = load_dimacs("c hello\np sp 3 2\na 1 2 5\na 2 3 1.5\n")
    assert g.node_count == 3
    assert g.arc_count == 2
    assert g.arc(0) == (0, 1, 5.0)
    assert g.arc(1) == (1, 2, 1.5)


def test_load_from_stream():
    g = load_dimacs(io.StringIO("p sp 2 1\na 1 2 3\n"))
    assert g.arc(0) == (0, 1, 3.0)


def test_blank_lines_and_comments_are_skipped():
    g = load_dimacs("\nc x\n\np sp 2 1\nc y\na 1 2 1\n\n")
    assert g.arc_count == 1


def test_fixture_file_loads():
    g = load_dimacs(MINI.read_text())
    assert g.node_count == 10
    assert g.arc_count == 16
    assert g.arc(0) == (0, 1, 3.0)
    assert g.arc(15) == (5, 8, 2.0)


@pytest.mark.parametrize(
    "text, bad_line",
    [
        ("a 1 2 3\n", 1),
        ("p sp 2 1\np sp 2 1\n", 2),
        ("p sp x 1\n", 1),
        ("p sp 2 -1\n", 1),
        ("p tw 2 1\n", 1),
        ("p sp 2 1\na 1 3 1\n", 2),
        ("p sp 2 1\na 0 2 1\n", 2),
        ("p sp 2 1\na 1 2\n", 2),
        ("p sp 2 1\na 1 2 x\n", 2),
        ("p sp 2 1\na 1 2 -4\n", 2),
        ("p sp 2 1\na 1 2 inf\n", 2),
        ("p sp 2 1\na 1 2 nan\n", 2),
        pytest.param("p sp 2 1\na 1 2 " + "9" * 400 + "\n", 2, id="int-beyond-float-range"),
        pytest.param("p sp 2 1\na 1 2 -" + "9" * 400 + "\n", 2, id="negative-int-beyond-range"),
        ("p sp 2 1\na 1 2 1\na 2 1 1\n", 3),
        ("p sp 2 1\nq foo\n", 2),
        ("p sp 2 2\na 1 2 1\n", 2),
        ("c only a comment\n", 1),
        ("", 1),
    ],
)
def test_parse_errors_carry_line_numbers(text, bad_line):
    with pytest.raises(DimacsError) as exc:
        load_dimacs(text)
    assert exc.value.line_no == bad_line
    assert f"line {bad_line}:" in str(exc.value)


INTEGER_TOKENS = [
    str(2**53 - 1),
    str(2**53),
    str(2**53 + 1),
    str(2**53 + 3),
    str(2**64 + 1),
    str(2**1024 - 2**970 - 1),  # the largest integer that rounds to a finite float
    "9" * 300,
    "007",
    "+7",
    "1_000",
]
DECIMAL_TOKENS = ["0.1", "8.833108082136427", "2.5e3", "5e-324", "1e-400"]


@pytest.mark.parametrize(
    "token, expected",
    [(tok, float(int(tok))) for tok in INTEGER_TOKENS]
    + [(tok, float(tok)) for tok in DECIMAL_TOKENS],
)
def test_cost_tokens_load_correctly_rounded(token, expected):
    g = load_dimacs(f"p sp 2 1\na 1 2 {token}\n")
    assert g.arc_cost[0].hex() == expected.hex()


def test_negative_zero_cost_loads_and_solves_as_zero(tmp_path, capsys):
    assert load_dimacs("p sp 2 1\na 1 2 -0\n").arc_cost[0].hex() == "-0x0.0p+0"
    text = MINI.read_text()
    outputs = []
    for zero in ("0", "-0"):
        graph = tmp_path / f"zero{zero}.gr"
        graph.write_text(text.replace("a 1 3 1\n", f"a 1 3 {zero}\n"))
        argv = ["solve", "--graph", str(graph), "-s", "0", "-t", "9", "-k", "16"]
        assert main(argv + ["--algo", "both", "--validate"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("cost 8 nodes 0 2 4 6 8 9\n")


def test_format_cost():
    assert format_cost(3.0) == "3"
    assert format_cost(0.0) == "0"
    assert format_cost(0.25) == "0.25"
    assert format_cost(8.833108082136427) == "8.833108082136427"


def test_integer_file_round_trips_byte_identical():
    text = MINI.read_text()
    assert dumps_dimacs(load_dimacs(text)) == "p sp 10 16\n" + "".join(
        line + "\n" for line in text.splitlines() if line.startswith("a")
    )
    again = dumps_dimacs(load_dimacs(dumps_dimacs(load_dimacs(text))))
    assert again == dumps_dimacs(load_dimacs(text))


def test_real_costs_round_trip_exactly():
    g = Graph(3, [(0, 1, 0.1), (1, 2, 8.833108082136427), (0, 2, 7.0)])
    h = load_dimacs(dumps_dimacs(g))
    assert list(h.arcs()) == list(g.arcs())
    assert dumps_dimacs(h) == dumps_dimacs(g)


def test_dump_to_stream_matches_dumps():
    g = Graph(2, [(0, 1, 1.0)])
    buf = io.StringIO()
    dump_dimacs(g, buf)
    assert buf.getvalue() == dumps_dimacs(g)


def test_path_lines(five_node_graph):
    p = Path.build(five_node_graph, [1, 5])
    line = format_path_line(five_node_graph, p)
    assert line == "cost 2 nodes 0 2 4"
    cost, nodes = parse_path_line(line)
    assert cost == 2.0
    assert nodes == [0, 2, 4]


def test_path_line_with_real_cost(five_node_graph):
    g = Graph(2, [(0, 1, 2.5)])
    assert format_path_line(g, Path.build(g, [0])) == "cost 2.5 nodes 0 1"


def test_parse_path_line_rejects_garbage():
    with pytest.raises(ValueError):
        parse_path_line("paths 3 over 0 1")
    with pytest.raises(ValueError):
        parse_path_line("cost 3")


def test_write_paths(five_node_graph):
    buf = io.StringIO()
    paths = [Path.build(five_node_graph, [1, 5]), Path.build(five_node_graph, [0, 4])]
    write_paths(five_node_graph, paths, buf)
    assert buf.getvalue() == "cost 2 nodes 0 2 4\ncost 3 nodes 0 1 4\n"
