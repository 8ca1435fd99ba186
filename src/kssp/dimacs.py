r"""Readers and writers for the DIMACS shortest path format and path dumps.

Graph files follow the 9th DIMACS Implementation Challenge ``.gr`` layout:

    c  free-form comment
    p sp <node_count> <arc_count>
    a <tail> <head> <cost>        (node ids are 1-based)

The challenge files carry nonnegative integer costs. This reader also
accepts nonnegative decimal reals so generated grid instances, whose
costs are uniform doubles, travel through the same format. Each cost
token is read with one ``float()``, so integers are exact up to 2^53
and correctly rounded beyond; the costs the writer prints survive the
round trip exactly.

The reader streams its source a block of whole lines at a time. A
stream gives ``read(BLOCK_CHARS)`` and then, by ``readline``, the rest
of that block's last line; a string is sliced into the same blocks. So
a load holds one block of the text at a time, never the whole file, and
needs about the memory of the graph it builds. Only a line break ends a
line: ``\r\n`` and ``\r`` read as ``\n``, as in a text-mode stream,
and a block ends at a ``\n``, so no ``\r\n`` is split between two
blocks.

Within a block, one regex search finds the next run of at least
``BULK_MIN_LINES`` arc lines, lines that start with ``a`` and a space
or tab, and a second finds the line break that ends the run. A run of
no more lines than arcs still due is split once. If it has four tokens
a line, every node id in range and every cost finite and nonnegative,
all its arcs are taken at once: the costs are converted by ``float``
over the whole run and each distinct id token by ``int`` once. Every
other line gets the per-line parse: comments, blank lines, leading
spaces, a run shorter than ``BULK_MIN_LINES``, a run that reaches past
the declared arc count, and each line of a run that holds a bad line,
which then raises that line's error. A line goes at most once to each
parse, so a load takes time linear in the file, and a file reads as it
would line by line, with the same errors and line numbers.

Both reads check each arc as it is taken, so ``Graph._from_checked``
makes the graph from the loader's own lists without a second check or
copy. A node id is looked up in ``_NodeIds``, which takes an ``int()``
of each distinct token within ``1 .. node_count``, so all arcs that
name a node by one token share one int object; a cost is a ``float()``
that ``_parse_cost`` or, for a bulk run, ``valid_costs`` found finite
and nonnegative; each arc appends one tail, head and cost, and the node
count is an ``int()`` of at least 0. Only the cost sum is taken again,
for ``folds_in_range``.

Path dumps are one line per path:

    cost <cost> nodes <v0> <v1> ... <vk>

with 0-based node ids, matching the in-memory graph.
"""
from __future__ import annotations

import math
import re
from typing import IO, Iterable, Iterator

from .graph import Graph, GraphError, Path, valid_costs

BLOCK_CHARS = 1 << 16  # characters a block reads before it ends its last line; 1 makes each line a block
BULK_MIN_LINES = 4  # a shorter run of arc lines reads faster line by line

# the line break before a run of at least BULK_MIN_LINES arc lines, and the one that ends a run;
# led by a literal, a search skips ahead to each line break at C speed
_RUN_START = re.compile(r"\n" + r"a[ \t][^\n]*\n" * BULK_MIN_LINES)
_RUN_END = re.compile(r"\n(?!a[ \t])")


class DimacsError(ValueError):
    """Parse failure; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _parse_cost(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DimacsError(line_no, f"bad arc cost {token!r}") from None
    if not math.isfinite(value):
        raise DimacsError(line_no, f"arc cost must be finite, got {token!r}")
    if value < 0.0:
        raise DimacsError(line_no, f"arc cost must be nonnegative, got {token!r}")
    return value


def _blocks(source: str | IO[str]) -> Iterator[str]:
    """Yield ``source`` in blocks of whole lines: ``BLOCK_CHARS`` characters and the rest of the last line."""
    size = BLOCK_CHARS
    if isinstance(source, str):
        start = 0
        while start < len(source):
            end = source.find("\n", start + size - 1) + 1 or len(source)
            yield source[start:end]
            start = end
    else:
        while block := source.read(size):
            if not block.endswith("\n"):
                block += source.readline()
            yield block


def load_dimacs(source: str | IO[str]) -> Graph:
    """Parse a ``.gr`` file from a string or text stream into a Graph.

    Raises :class:`DimacsError` for a bad file, and :class:`GraphError`
    for a graph too large to allocate.
    """
    try:
        return _parse(source)
    except MemoryError:  # raised below, once the parse's frames and the lists they hold are freed
        pass
    raise GraphError("the graph is too large to allocate")


def _parse(source: str | IO[str]) -> Graph:
    node_count = -1
    arc_count = -1
    node_ids = _NodeIds(0)
    tail: list[int] = []
    head: list[int] = []
    cost: list[float] = []
    line_no = 0
    for block in _blocks(source):
        # led by a line break, so that a run at the block's first line is found too
        block = "\n" + block
        if "\r" in block:
            block = block.replace("\r\n", "\n").replace("\r", "\n")
        pos = 1  # the per-line parse reads from here to the next run of arc lines
        found = 1  # that starts here or later
        while pos < len(block):
            run = _RUN_START.search(block, found - 1)
            start = run.start() + 1 if run else len(block)
            lines = block[pos:start].split("\n")
            if not lines[-1]:
                lines.pop()  # a final line break starts no line
            for line in lines:
                line_no += 1
                line = line.strip()
                if not line or line.startswith("c"):
                    continue
                fields = line.split()
                kind = fields[0]
                if kind == "p":
                    if node_count >= 0:
                        raise DimacsError(line_no, "duplicate problem line")
                    if len(fields) != 4 or fields[1] != "sp":
                        raise DimacsError(line_no, f"malformed problem line {line!r}")
                    try:
                        node_count = int(fields[2])
                        arc_count = int(fields[3])
                    except ValueError:
                        raise DimacsError(line_no, f"malformed problem line {line!r}") from None
                    if node_count < 0 or arc_count < 0:
                        raise DimacsError(line_no, "problem line counts must be nonnegative")
                    node_ids = _NodeIds(node_count)
                elif kind == "a":
                    if node_count < 0:
                        raise DimacsError(line_no, "arc line before problem line")
                    if len(fields) != 4:
                        raise DimacsError(line_no, f"malformed arc line {line!r}")
                    if len(tail) >= arc_count:
                        raise DimacsError(line_no, f"more than {arc_count} arc lines")
                    try:
                        u = node_ids[fields[1]]
                        v = node_ids[fields[2]]
                    except ValueError:
                        raise _bad_ids(line_no, line, node_count) from None
                    tail.append(u)
                    head.append(v)
                    cost.append(_parse_cost(fields[3], line_no))
                else:
                    raise DimacsError(line_no, f"unrecognized line {line!r}")
            if run is None:
                break
            end = _RUN_END.search(block, run.end() - 1)
            pos = found = end.end() if end else len(block)
            count = block.count("\n", start, pos - 1) + 1
            # a run past the declared count fails there, so it reads line by line
            if count <= arc_count - len(tail) and _read_arcs(block[start:pos], count, node_ids, tail, head, cost):
                line_no += count
            else:  # too long, or it holds a bad line: the per-line parse reads or refuses each
                pos = start
    last_line = line_no or 1
    if node_count < 0:
        raise DimacsError(last_line, "missing problem line")
    if len(tail) != arc_count:
        raise DimacsError(last_line, f"expected {arc_count} arc lines, found {len(tail)}")
    return Graph._from_checked(node_count, tail, head, cost)


def _bad_ids(line_no: int, line: str, node_count: int) -> DimacsError:
    """The error of an arc line whose node ids ``_NodeIds`` refused."""
    _, u, v, _ = line.split()
    try:
        ids = int(u), int(v)
    except ValueError:
        return DimacsError(line_no, f"malformed arc line {line!r}")
    return DimacsError(line_no, f"node id out of range 1..{node_count}: {ids}")


def _read_arcs(
    text: str, lines: int, node_ids: _NodeIds, tail: list[int], head: list[int], cost: list[float]
) -> bool:
    """Append the arcs of ``text``, ``lines`` lines that all start with an ``a`` token, if all are valid.

    A valid arc line reads the same here as in the per-line parse. On
    False nothing was appended.
    """
    tokens = text.split()
    # Every line starts with "a", so with 4 tokens a line on average, a
    # line of any other length puts some line's "a" into an id or cost
    # slot, and it fails to convert below.
    if len(tokens) != 4 * lines:
        return False
    try:
        tails = list(map(node_ids.__getitem__, tokens[1::4]))
        heads = list(map(node_ids.__getitem__, tokens[2::4]))
        costs = list(map(float, tokens[3::4]))
    except ValueError:
        return False
    if not valid_costs(costs):
        return False
    tail += tails
    head += heads
    cost += costs
    return True


class _NodeIds(dict):
    """Maps a 1-based node id token to its 0-based id, filled on first sight.

    A token is accepted exactly when ``int()`` takes it and the node is in
    range, so ``007`` and ``+7`` both map to 6. A bad or out-of-range
    token raises ValueError.
    """

    __slots__ = ("node_count",)

    def __init__(self, node_count: int) -> None:
        super().__init__()
        self.node_count = node_count

    def __missing__(self, token: str) -> int:
        node = int(token)
        if not 1 <= node <= self.node_count:
            raise ValueError(token)
        self[token] = node = node - 1  # one object, returned now and stored for every later lookup
        return node


def format_cost(value: float) -> str:
    """Integral costs print as integers, -0 as ``-0``; everything else via repr (exact)."""
    if float(value).is_integer():
        return f"{value:.0f}"
    return repr(float(value))


def dump_dimacs(g: Graph, stream: IO[str]) -> None:
    """Write a Graph in ``.gr`` layout, arcs in arc id order."""
    stream.write(f"p sp {g.node_count} {g.arc_count}\n")
    for u, v, w in g.arcs():
        stream.write(f"a {u + 1} {v + 1} {format_cost(w)}\n")


def format_path_line(g: Graph, path: Path) -> str:
    nodes = " ".join(str(v) for v in path.nodes(g))
    return f"cost {format_cost(path.cost)} nodes {nodes}"


def write_paths(g: Graph, paths: Iterable[Path], stream: IO[str]) -> None:
    for p in paths:
        stream.write(format_path_line(g, p) + "\n")
