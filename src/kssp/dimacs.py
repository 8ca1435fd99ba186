"""Readers and writers for the DIMACS shortest path format and path dumps.

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

The arc block is read in bulk. A run of lines that start with ``a``
and a space or tab (at most ``BLOCK_LINES`` of them, and never more
than the arcs still due) is joined and split once. If it has four tokens a line,
every node id in range and every cost finite and nonnegative, all its
arcs are taken at once: the costs are converted by ``float`` over the
whole run and each distinct id token by ``int`` once. Every other line
gets the per-line parse: comments, blank lines, leading spaces, an arc
line past the declared count, a run shorter than ``BULK_MIN_LINES``,
and each line of a run that holds a bad line, which then raises that
line's error. So a file reads as it would line by line, with the same
errors and line numbers, and bulk reading resumes at the next run.

Both reads check each arc as it is taken, so ``Graph._from_checked``
makes the graph from the loader's own lists without a second check or
copy. A node id is an ``int()`` of its token within ``1 .. node_count``,
read per line or through ``_NodeIds``; a cost is a ``float()`` that
``_parse_cost`` or, for a bulk run, ``valid_costs`` found finite and
nonnegative; each arc appends one tail, head and cost, and the node
count is an ``int()`` of at least 0. Only the cost sum is taken again,
for ``folds_in_range``.

Path dumps are one line per path:

    cost <cost> nodes <v0> <v1> ... <vk>

with 0-based node ids, matching the in-memory graph.
"""
from __future__ import annotations

import math
from itertools import repeat
from typing import IO, Iterable

from .graph import Graph, Path, valid_costs

BLOCK_LINES = 4096  # arc lines joined and split at once; 0 reads every line alone
BULK_MIN_LINES = 4  # a shorter run of arc lines reads faster line by line


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


def load_dimacs(source: str | IO[str]) -> Graph:
    """Parse a ``.gr`` file from a string or text stream into a Graph."""
    text = source if isinstance(source, str) else source.read()
    # only line breaks end a line, not \f or \x1c as in splitlines(); \r\n and \r read as \n
    lines = (text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text).split("\n")
    del text  # a read stream's text is not kept beside its lines
    if not lines[-1]:
        lines.pop()  # a final line break starts no line
    # one byte a line, 1 where it starts with "a" and a space or tab: runs of
    # arc lines are byte runs
    arc_marks = bytes(map(str.startswith, lines, repeat(("a ", "a\t"))))
    bulk_run = b"\1" * BULK_MIN_LINES
    next_run = arc_marks.find(bulk_run)

    node_count = -1
    arc_count = -1
    node_ids = _NodeIds(0)
    tail: list[int] = []
    head: list[int] = []
    cost: list[float] = []
    i = 0
    while i < len(lines):
        if i == next_run:
            # no more lines than arcs due, so none before the problem line
            stop = min(len(lines), i + BLOCK_LINES, i + arc_count - len(tail))
            end = arc_marks.find(b"\0", i, stop)
            if end >= 0:
                stop = end
            if stop - i >= BULK_MIN_LINES and _read_arcs(lines[i:stop], node_ids, tail, head, cost):
                i = stop
                next_run = arc_marks.find(bulk_run, i)
                continue
            # too short, or it holds a bad line: the per-line parse reads or refuses each
            next_run = arc_marks.find(bulk_run, stop)
        line_no = i + 1
        line = lines[i].strip()
        i += 1
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
                u = int(fields[1])
                v = int(fields[2])
            except ValueError:
                raise DimacsError(line_no, f"malformed arc line {line!r}") from None
            if not (1 <= u <= node_count and 1 <= v <= node_count):
                raise DimacsError(line_no, f"node id out of range 1..{node_count}: ({u}, {v})")
            tail.append(u - 1)
            head.append(v - 1)
            cost.append(_parse_cost(fields[3], line_no))
        else:
            raise DimacsError(line_no, f"unrecognized line {line!r}")
    last_line = len(lines) or 1
    del lines, arc_marks  # the graph is built without them
    if node_count < 0:
        raise DimacsError(last_line, "missing problem line")
    if len(tail) != arc_count:
        raise DimacsError(last_line, f"expected {arc_count} arc lines, found {len(tail)}")
    return Graph._from_checked(node_count, tail, head, cost)


def _read_arcs(
    chunk: list[str], node_ids: _NodeIds, tail: list[int], head: list[int], cost: list[float]
) -> bool:
    """Append the arcs of ``chunk``, whose lines all start with an ``a`` token, if all are valid.

    A valid arc line reads the same here as in the per-line parse. On
    False nothing was appended.
    """
    tokens = " ".join(chunk).split()
    # Every line starts with "a", so with 4 tokens a line on average, a
    # line of any other length puts some line's "a" into an id or cost
    # slot, and it fails to convert below.
    if len(tokens) != 4 * len(chunk):
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

    A token is accepted exactly when the per-line parse accepts it, so
    ``007`` and ``+7`` both map to 6. A bad or out-of-range token raises
    ValueError.
    """

    __slots__ = ("node_count",)

    def __init__(self, node_count: int) -> None:
        super().__init__()
        self.node_count = node_count

    def __missing__(self, token: str) -> int:
        node = int(token)
        if not 1 <= node <= self.node_count:
            raise ValueError(token)
        self[token] = node - 1
        return node - 1


def format_cost(value: float) -> str:
    """Integral costs print as integers; everything else via repr (exact)."""
    if float(value).is_integer():
        return str(int(value))
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
