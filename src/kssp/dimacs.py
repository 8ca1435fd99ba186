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

Path dumps are one line per path:

    cost <cost> nodes <v0> <v1> ... <vk>

with 0-based node ids, matching the in-memory graph.
"""
from __future__ import annotations

import math
from typing import IO, Iterable

from .graph import Graph, Path


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
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source.read().splitlines()

    node_count = -1
    arc_count = -1
    arcs: list[tuple[int, int, float]] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
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
        elif kind == "a":
            if node_count < 0:
                raise DimacsError(line_no, "arc line before problem line")
            if len(fields) != 4:
                raise DimacsError(line_no, f"malformed arc line {line!r}")
            if len(arcs) >= arc_count:
                raise DimacsError(line_no, f"more than {arc_count} arc lines")
            try:
                u = int(fields[1])
                v = int(fields[2])
            except ValueError:
                raise DimacsError(line_no, f"malformed arc line {line!r}") from None
            if not (1 <= u <= node_count and 1 <= v <= node_count):
                raise DimacsError(line_no, f"node id out of range 1..{node_count}: ({u}, {v})")
            arcs.append((u - 1, v - 1, _parse_cost(fields[3], line_no)))
        else:
            raise DimacsError(line_no, f"unrecognized line {line!r}")
    if node_count < 0:
        raise DimacsError(len(lines) or 1, "missing problem line")
    if len(arcs) != arc_count:
        raise DimacsError(len(lines) or 1, f"expected {arc_count} arc lines, found {len(arcs)}")
    return Graph(node_count, arcs)


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


def dumps_dimacs(g: Graph) -> str:
    from io import StringIO

    buf = StringIO()
    dump_dimacs(g, buf)
    return buf.getvalue()


def format_path_line(g: Graph, path: Path) -> str:
    nodes = " ".join(str(v) for v in path.nodes(g))
    return f"cost {format_cost(path.cost)} nodes {nodes}"


def parse_path_line(line: str) -> tuple[float, list[int]]:
    """Inverse of :func:`format_path_line`; returns (cost, node ids)."""
    fields = line.split()
    if len(fields) < 3 or fields[0] != "cost" or fields[2] != "nodes":
        raise ValueError(f"malformed path line {line!r}")
    return float(fields[1]), [int(tok) for tok in fields[3:]]


def write_paths(g: Graph, paths: Iterable[Path], stream: IO[str]) -> None:
    for p in paths:
        stream.write(format_path_line(g, p) + "\n")
