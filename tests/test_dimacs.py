"""Graph file parsing, exact round trips, and path line formatting."""
from __future__ import annotations

import io
from pathlib import Path as FilePath

import pytest

import kssp.dimacs
from kssp.cli import main
from kssp.dimacs import (
    BLOCK_CHARS,
    DimacsError,
    dump_dimacs,
    format_cost,
    format_path_line,
    load_dimacs,
    write_paths,
)
from kssp.graph import Graph, GraphError, Path, path_cost
from kssp.gridgen import gen_grid
from kssp.rng import SplitMix64

MINI = FilePath(__file__).parent / "data" / "mini10.gr"


def test_load_from_string():
    g = load_dimacs("c hello\np sp 3 2\na 1 2 5\na 2 3 1.5\n")
    assert g.node_count == 3
    assert g.arc_count == 2
    assert list(g.arcs()) == [(0, 1, 5.0), (1, 2, 1.5)]


def test_load_from_stream():
    g = load_dimacs(io.StringIO("p sp 2 1\na 1 2 3\n"))
    assert list(g.arcs()) == [(0, 1, 3.0)]


def test_blank_lines_and_comments_are_skipped():
    g = load_dimacs("\nc x\n\np sp 2 1\nc y\na 1 2 1\n\n")
    assert g.arc_count == 1


def test_fixture_file_loads():
    g = load_dimacs(MINI.read_text())
    assert g.node_count == 10
    assert g.arc_count == 16
    assert list(g.arcs())[::15] == [(0, 1, 3.0), (5, 8, 2.0)]


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


@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_only_line_breaks_end_a_line(sep):
    """str.splitlines() also breaks at these; a DIMACS line does not."""
    g = load_dimacs(f"c note{sep}more\np sp 2 1\na 1 2 1\n")
    assert list(g.arcs()) == [(0, 1, 1.0)]
    with pytest.raises(DimacsError, match="^line 3: bad arc cost 'x'$"):
        load_dimacs(f"c note{sep}more\np sp 2 1\na 1 2 x\n")


@pytest.mark.parametrize("eol", ["\r\n", "\r"])
def test_carriage_returns_end_lines_as_in_a_text_stream(eol):
    text = eol.join(["c x", "p sp 2 1", "a 1 2 {}", ""])
    for source in (text.format(1), io.StringIO(text.format(1))):
        assert list(load_dimacs(source).arcs()) == [(0, 1, 1.0)]
    with pytest.raises(DimacsError, match="^line 3: bad arc cost 'x'$"):
        load_dimacs(text.format("x"))


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
        assert main(argv + ["--check", "--validate"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("cost 8 nodes 0 2 4 6 8 9\n")


def test_format_cost():
    assert format_cost(3.0) == "3"
    assert format_cost(0.0) == "0"
    assert format_cost(-0.0) == "-0"
    assert format_cost(0.25) == "0.25"
    assert format_cost(8.833108082136427) == "8.833108082136427"


def test_integer_file_round_trips_byte_identical():
    text = MINI.read_text()
    buf = io.StringIO()
    dump_dimacs(load_dimacs(text), buf)
    assert buf.getvalue() == "p sp 10 16\n" + "".join(
        line + "\n" for line in text.splitlines() if line.startswith("a")
    )


def test_real_costs_round_trip_exactly():
    g = Graph(3, [(0, 1, 0.1), (1, 2, 8.833108082136427), (0, 2, 7.0), (1, 0, -0.0)])
    buf = io.StringIO()
    dump_dimacs(g, buf)
    h = load_dimacs(buf.getvalue())
    assert list(h.arcs()) == list(g.arcs())
    # -0.0 == 0.0, so the sign is compared by the bits
    assert [w.hex() for _, _, w in h.arcs()] == [w.hex() for _, _, w in g.arcs()]


def test_dump_to_stream_matches_dumps():
    g = Graph(2, [(0, 1, 1.0)])
    buf = io.StringIO()
    dump_dimacs(g, buf)
    assert buf.getvalue() == "p sp 2 1\na 1 2 1\n"


def test_path_lines(five_node_graph):
    p = Path((1, 5), path_cost(five_node_graph, [1, 5]))
    assert format_path_line(five_node_graph, p) == "cost 2 nodes 0 2 4"


def test_path_line_with_real_cost(five_node_graph):
    g = Graph(2, [(0, 1, 2.5)])
    assert format_path_line(g, Path((0,), path_cost(g, [0]))) == "cost 2.5 nodes 0 1"


def test_write_paths(five_node_graph):
    buf = io.StringIO()
    paths = [Path(arcs, path_cost(five_node_graph, arcs)) for arcs in ((1, 5), (0, 4))]
    write_paths(five_node_graph, paths, buf)
    assert buf.getvalue() == "cost 2 nodes 0 2 4\ncost 3 nodes 0 1 4\n"


# a grid whose dump spans several blocks, with one cost of -0
BLOCKS_GRID = gen_grid(46, 46, seed=8)
NEG_ZERO_ARC = BLOCKS_GRID.arc_count // 2 + 17


def blocks_grid() -> tuple[Graph, list[str]]:
    """The grid with arc ``NEG_ZERO_ARC`` at cost -0, and its DIMACS lines (arc a on line a + 2)."""
    g = BLOCKS_GRID
    cost = list(g.arc_cost)
    cost[NEG_ZERO_ARC] = -0.0
    buf = io.StringIO()
    dump_dimacs(g, buf)
    lines = buf.getvalue().splitlines()
    lines[NEG_ZERO_ARC + 1] = lines[NEG_ZERO_ARC + 1].rsplit(" ", 1)[0] + " -0"
    return Graph(g.node_count, zip(g.arc_tail, g.arc_head, cost)), lines


def assert_same_graph(got: Graph, want: Graph) -> None:
    assert got.node_count == want.node_count
    assert got.arc_tail == want.arc_tail
    assert got.arc_head == want.arc_head
    assert [w.hex() for w in got.arc_cost] == [w.hex() for w in want.arc_cost]
    assert got.out_arcs == want.out_arcs
    assert got.in_arcs == want.in_arcs


def load_in_blocks(source: str | io.StringIO, block_chars: int, monkeypatch) -> Graph:
    with monkeypatch.context() as patched:
        patched.setattr(kssp.dimacs, "BLOCK_CHARS", block_chars)
        return load_dimacs(source)


def load_line_by_line(source: str | io.StringIO, monkeypatch) -> Graph:
    """The per-line parse alone: a block of 1 character holds one line, too short a run to read in bulk."""
    return load_in_blocks(source, 1, monkeypatch)


def outcome(source: str | io.StringIO, block_chars: int, monkeypatch) -> tuple | str:
    """The loaded graph's arrays, or the error message."""
    try:
        g = load_in_blocks(source, block_chars, monkeypatch)
    except DimacsError as exc:
        return str(exc)
    return g.arc_tail, g.arc_head, [w.hex() for w in g.arc_cost], g.out_arcs, g.in_arcs


def first_block_before(lines: list[str], index: int) -> int:
    """The block size at which the first block of ``"\\n".join(lines)`` ends just before ``lines[index]``."""
    return sum(map(len, lines[:index])) + index


def test_a_dump_spanning_several_blocks_loads_bit_identical(monkeypatch):
    want, lines = blocks_grid()
    text = "\n".join(lines) + "\n"
    assert len(text) > 3 * BLOCK_CHARS
    got = load_dimacs(text)
    assert got.arc_cost[NEG_ZERO_ARC].hex() == "-0x0.0p+0"
    assert_same_graph(got, want)
    assert_same_graph(load_dimacs(io.StringIO(text)), want)
    assert_same_graph(load_line_by_line(text, monkeypatch), want)
    assert_same_graph(load_line_by_line(io.StringIO(text), monkeypatch), want)


# two costs that sum past 2**1020, and two that sum to it exactly
@pytest.mark.parametrize("big, folds", [("1e308", False), (str(2**1019), True)])
def test_a_loaded_graph_knows_whether_its_cost_folds_stay_in_range(big, folds, monkeypatch):
    # four arc lines make a bulk run, and line by line each takes the per-line parse
    text = f"p sp 5 4\na 1 2 {big}\na 2 3 {big}\na 3 4 0\na 4 5 0\n"
    for g in (load_dimacs(text), load_line_by_line(text, monkeypatch)):
        assert g.arc_cost == [float(big), float(big), 0.0, 0.0]
        assert g.folds_in_range is folds


def test_a_loaded_graph_shares_one_int_object_per_node(monkeypatch):
    buf = io.StringIO()
    dump_dimacs(gen_grid(20, 30, seed=2), buf)
    text = buf.getvalue()
    # a comment after arc lines 0, 2, 10, 12, ...: runs of 2 lines read line by line, runs of 8 in bulk
    mixed = "".join(line + ("c\n" if i % 10 in (1, 3) else "") for i, line in enumerate(text.splitlines(True)))
    for g in (load_dimacs(text), load_dimacs(mixed), load_line_by_line(text, monkeypatch)):
        ends = g.arc_tail + g.arc_head
        assert sorted(set(ends)) == list(range(600))
        assert len({id(v) for v in ends}) == 600


def _spaced(line: str) -> str:
    return "  " + line


def _tabbed(line: str) -> str:
    return line.replace(" ", "\t")


def _padded_ids(line: str) -> str:
    _, u, v, w = line.split()
    return f"a 00{u} +{v} {w}"


# arc indexes: right after the problem line, and in the middle of the file
PLACES = [0, BLOCKS_GRID.arc_count // 2]


@pytest.mark.parametrize("place", PLACES, ids=["after-p-line", "mid-file"])
@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda line: "c a comment\n" + line, id="comment"),
        pytest.param(lambda line: "\n" + line, id="blank"),
        pytest.param(_spaced, id="leading-spaces"),
        pytest.param(_tabbed, id="tabs"),
        pytest.param(_padded_ids, id="007-and-+7-ids"),
    ],
)
def test_lines_outside_the_bulk_shape_load_the_same_graph(place, edit, monkeypatch):
    want, lines = blocks_grid()
    lines[place + 1] = edit(lines[place + 1])
    text = "\n".join(lines) + "\n"
    for variant in (text, text.replace("\n", "\r\n")):
        assert_same_graph(load_dimacs(variant), want)
        assert_same_graph(load_line_by_line(variant, monkeypatch), want)


@pytest.mark.parametrize("edge", ["before", "after"], ids=["first-in-block", "last-in-block"])
@pytest.mark.parametrize(
    "arc, bad, message",
    [
        (0, "a 1 2 x", "bad arc cost 'x'"),
        (1000, "a 1 2 -4", "arc cost must be nonnegative, got '-4'"),
        (2000, "a 1 99999 1", "node id out of range 1..2116: (1, 99999)"),
        (3000, "a 1 2 nan", "arc cost must be finite, got 'nan'"),
        (4000, "a 1 2", "malformed arc line 'a 1 2'"),
        (5000, "a 1 2 3 4", "malformed arc line 'a 1 2 3 4'"),
        (6000, "a 0x1 2 3", "malformed arc line 'a 0x1 2 3'"),
        (8279, "as 1 2 3", "unrecognized line 'as 1 2 3'"),
    ],
    ids=["bad-cost-first-arc", "negative-cost", "id-out-of-range", "nan-cost", "short-line", "long-line",
         "hex-id", "not-an-arc-last-line"],
)
def test_a_bad_line_at_a_block_edge_keeps_its_line_number(arc, bad, message, edge, monkeypatch):
    _, lines = blocks_grid()
    lines[arc + 1] = bad
    text = "\n".join(lines)
    # a block edge just before the bad line, or just after it
    block_chars = first_block_before(lines, arc + 1 + (edge == "after"))
    for load in (lambda t: load_in_blocks(t, block_chars, monkeypatch), lambda t: load_line_by_line(t, monkeypatch)):
        with pytest.raises(DimacsError) as exc:
            load(text)
        assert exc.value.line_no == arc + 2
        assert str(exc.value) == f"line {arc + 2}: {message}"


@pytest.mark.parametrize("at_edge", [False, True], ids=["default-blocks", "pair-ends-a-block"])
@pytest.mark.parametrize("arc", [0, 2000, 6000])
@pytest.mark.parametrize(
    "first, second",
    [
        ("a 1 2 3 a 2 1 3", ""),  # 8 tokens and 0 tokens: 4 a line on average
        ("a 1 2", "a a 2 1 3"),  # an "a" in every 4th token slot
    ],
)
def test_lines_of_the_wrong_length_are_refused_inside_a_block(arc, first, second, at_edge, monkeypatch):
    _, lines = blocks_grid()
    lines[arc + 1 : arc + 3] = [first, second]
    text = "\n".join(lines)
    block_chars = first_block_before(lines, arc + 3) if at_edge else BLOCK_CHARS
    for load in (lambda t: load_in_blocks(t, block_chars, monkeypatch), lambda t: load_line_by_line(t, monkeypatch)):
        with pytest.raises(DimacsError) as exc:
            load(text)
        assert str(exc.value) == f"line {arc + 2}: malformed arc line {first!r}"


@pytest.mark.parametrize("between", [[], ["c past the count"]], ids=["in-the-run", "after-a-comment"])
def test_an_arc_line_past_the_declared_count_is_refused_where_it_stands(between, monkeypatch):
    g = BLOCKS_GRID
    _, lines = blocks_grid()
    for declared in (1000, 4000, g.arc_count - 1):
        lines[0] = f"p sp {g.node_count} {declared}"
        kept = lines[: declared + 1] + between + [lines[declared + 1]]
        # the default blocks, a block that ends with the last declared arc, and one line a block
        for block_chars in (BLOCK_CHARS, first_block_before(kept, declared + 1), 1):
            with pytest.raises(DimacsError) as exc:
                load_in_blocks("\n".join(kept), block_chars, monkeypatch)
            assert str(exc.value) == f"line {len(kept)}: more than {declared} arc lines"


def handed_to_bulk(text: str, monkeypatch) -> tuple[Graph | str, list[str]]:
    """The load's graph or error message, and each text the bulk reader was handed."""
    handed: list[str] = []
    read_arcs = kssp.dimacs._read_arcs

    def recording(run: str, *args) -> bool:
        handed.append(run)
        return read_arcs(run, *args)

    with monkeypatch.context() as patched:
        patched.setattr(kssp.dimacs, "_read_arcs", recording)
        try:
            return load_dimacs(text), handed
        except DimacsError as exc:
            return str(exc), handed


def test_the_bulk_reader_is_handed_each_character_at_most_once(monkeypatch):
    want, lines = blocks_grid()
    text = "\n".join(lines) + "\n"
    got, handed = handed_to_bulk(text, monkeypatch)
    assert_same_graph(got, want)
    assert "".join(handed) == text[len(lines[0]) + 1 :]  # every arc line, in bulk and once

    # a comment after every arc line: every run is one line, read line by line
    interleaved = "".join(line + "\nc\n" for line in lines)
    got, handed = handed_to_bulk(interleaved, monkeypatch)
    assert_same_graph(got, want)
    assert handed == []

    # runs of about 500 arc lines, each ending in a bad line: a retry from each line after it would be quadratic
    for arc in range(499, len(lines) - 1, 500):
        lines[arc + 1] += " 4"
        lines.insert(arc + 2, "c")
    text = "\n".join(lines)
    got, handed = handed_to_bulk(text, monkeypatch)
    assert got == outcome(text, 1, monkeypatch)
    assert got.startswith("line 501: malformed arc line")
    assert sum(map(len, handed)) <= len(text)


def test_running_out_of_memory_while_reading_is_a_graph_error(monkeypatch):
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(kssp.dimacs, "_read_arcs", out_of_memory)
    _, lines = blocks_grid()
    with pytest.raises(GraphError, match="^the graph is too large to allocate$") as exc:
        load_dimacs("\n".join(lines))
    # raised once the MemoryError, and the parse's frames with their lists, are gone
    assert exc.value.__context__ is None


def test_a_crlf_split_between_two_reads_of_a_stream_reads_as_its_lf_twin(monkeypatch):
    buf = io.StringIO()
    dump_dimacs(gen_grid(4, 5, seed=2), buf)
    lines = ["c crlf twin"] + buf.getvalue().splitlines()
    for bad in (None, "a 1 2 x"):
        if bad is not None:
            lines[-3] = bad
        lf = "\n".join(lines) + "\n"
        crlf = lf.replace("\n", "\r\n")
        want = outcome(lf, BLOCK_CHARS, monkeypatch)
        # each size ends a block's read between the \r and the \n of one line break
        for block_chars in [i + 1 for i, ch in enumerate(crlf) if ch == "\r"]:
            for newline in ("\n", ""):
                assert outcome(io.StringIO(crlf, newline=newline), block_chars, monkeypatch) == want
        assert isinstance(want, str) == (bad is not None)


LINE_EDITS = [
    lambda line: "c " + line,
    lambda line: "",
    lambda line: " " + line,
    lambda line: line.replace(" ", "\t", 1),
    lambda line: line + " 5",
    lambda line: line.rsplit(" ", 1)[0],
    lambda line: line.replace("a ", "a 0", 1),
    lambda line: line.replace("a ", "a +", 1),
    lambda line: line.rsplit(" ", 1)[0] + " -1",
    lambda line: line.rsplit(" ", 1)[0] + " nan",
    lambda line: line.rsplit(" ", 1)[0] + " -0",
    lambda line: line.rsplit(" ", 1)[0] + " 1e400",
    lambda line: "a 21 1 1",
    lambda line: "a 0 1 1",
    lambda line: "a a 1 2",
    lambda line: "ab" + line[1:],
    lambda line: "p sp 20 31",
    lambda line: line + "\na 1 2 3",
]


# blocks of about 4, 5 and 7 lines of the dump, and the default size
@pytest.mark.parametrize("seed, block_chars", [(4, 90), (5, 115), (7, 160), (4096, BLOCK_CHARS)])
def test_seeded_edits_load_as_they_do_line_by_line(seed, block_chars, monkeypatch):
    """Whatever a file holds, bulk reading gives the per-line parse's graph or error."""
    rng = SplitMix64(seed)
    buf = io.StringIO()
    dump_dimacs(gen_grid(4, 5, seed=2), buf)
    lines = buf.getvalue().splitlines()

    errors = 0
    for _ in range(200):
        edited = list(lines)
        if rng.below(4) == 0:  # declare one arc too few or too many
            edited[0] = f"p sp 20 {len(lines) - 2 + 2 * rng.below(2)}"
        for _ in range(rng.below(4)):
            i = rng.below(len(edited))
            edited[i] = LINE_EDITS[rng.below(len(LINE_EDITS))](edited[i])
        text = "\n".join(edited)
        want = outcome(text, 1, monkeypatch)
        assert outcome(text, block_chars, monkeypatch) == want, text
        assert outcome(io.StringIO(text), block_chars, monkeypatch) == want, text
        errors += isinstance(want, str)
    assert 40 < errors < 160, errors  # both outcomes are well covered
