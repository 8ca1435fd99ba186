"""Immutable directed graph with nonnegative arc costs, plus path primitives.

Nodes are dense integer ids ``0 .. node_count-1``. Arcs are integer ids
into parallel tail/head/cost arrays, so parallel arcs are first-class and
every path is a sequence of arc ids rather than node ids. Forward and
reverse adjacency lists are both kept because the solvers walk arcs in
either direction.

The graph itself is never mutated. Temporary deletions are expressed
through a :class:`Mask` overlay whose epoch counter makes clearing all
deletions an O(1) operation.

The cost model lives here alone. Costs are IEEE float64 and compared
exactly. A path's cost is folded left to right over its arcs from ``ZERO``,
so any two components that compute the cost of the same arc sequence obtain
the identical float and "equal cost" is well defined across the code base.
Searches that start part way along a path begin at its prefix's fold, so
every label in every search is a left fold from s and is the cost reported.
``successor(x)`` is the least cost above x. ``prune_limit`` argues its
slack for every lower bound cut on it, and
:func:`kssp.dijkstra.shortest_path` for its ``prune`` mode;
``WALK_SHRINK`` is argued at :func:`kssp.biobjective.find_best_deviation`.
"""
from __future__ import annotations

import gc
import math
import operator
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Iterator, Sequence

ZERO = 0.0  # the start of every cost fold
WALK_SHRINK = 1.0 - 2.0**-50  # scales a tree walk's bound down past its roundings


def successor(x: float) -> float:
    """The least cost above ``x``."""
    return math.nextafter(x, math.inf)


def prune_limit(g: Graph, h: float) -> float:
    """The largest label plus distance to the target kept under ``prune``, for a first path of cost ``h``.

    The same slack covers every lower bound the solvers cut on. Take a
    walk of at most 2n - 2 arcs, a prefix and a simple path, with exact
    cost E; its left fold D is at least E shrunk by
    ``(1 - 2**-53)**(2n - 2)``. Bound it by a left fold of its first arcs
    plus at most a right fold of the rest: an arc cost plus a reverse
    sweep's distance, the least right fold over the head's paths, or
    anything less, such as the sweep's horizon. The bound is at most E
    grown by ``(1 + 2**-53)**(2n - 1)``, so it exceeds D by at most
    ``(4n - 3) * 2**-53 * D`` plus second-order terms, within the
    ``(4n + 8) * 2**-53 * D`` slack here; a bound that rounds one sum
    more stays within it too. As the limit is monotone in D, a bound
    above ``prune_limit(g, cap)`` rules out every walk at or below
    ``cap``; at ``cap`` infinity the limit is infinite and rules out
    nothing. The sweep's distances and horizon only grow, so a bound
    stays one while it goes on.
    """
    return h + h * (2 * g.node_count + 4) * 2.0**-52


class GraphError(ValueError):
    """Raised for structurally invalid graph input."""


class PathError(ValueError):
    """Raised when an arc sequence is not a path in the given graph."""


class Graph:
    """Directed graph, frozen after construction.

    Args:
        node_count: number of nodes; ids are ``0 .. node_count-1``.
        arcs: iterable of ``(tail, head, cost)`` triples. Arc ids are
            assigned in iteration order.

    The constructor checks each arc once, in order, and raises
    :class:`GraphError` naming the first bad one. It keeps the endpoints
    as ints and the costs as floats, and then fills the adjacency lists.
    The DIMACS reader and the grid generator, whose arcs are valid as
    they are made, hand their own arrays straight to that last step
    through :meth:`_from_checked`.

    ``folds_in_range`` is False when the float costs sum past ``2**1020``;
    the guided solve and accelerated Yen then run their plain searches,
    where an infinite distance cannot hide a node. Below it no solver
    float overflows: a label, distance, key, bound, prune limit or cap
    rounds a sum over at most two simple paths and an arc, at most twice
    the exact cost sum S, scaled by under ``1 + 2**-6`` in a prune limit.
    With under ``2**45`` nodes and arcs, its roundings and the computed
    sum's move it under 1%, so it stays below ``2**1021 * 1.04``.

    ``_scratch`` is the pool of solver scratch that
    :func:`kssp.engine.k_shortest_paths` keeps between guided solves: one
    workspace and reverse sweep per solve running at once, freed with the
    graph.
    """

    __slots__ = (
        "node_count", "arc_tail", "arc_head", "arc_cost", "out_arcs", "in_arcs", "folds_in_range", "_scratch"
    )

    def __init__(self, node_count: int, arcs: Iterable[tuple[int, int, float]]) -> None:
        try:
            node_count = operator.index(node_count)
        except TypeError:
            raise GraphError(f"node_count must be an int, got {node_count!r}") from None
        if node_count < 0:
            raise GraphError("node_count must be nonnegative")
        tail: list[int] = []
        head: list[int] = []
        cost: list[float] = []
        # one check per arc, its endpoints before its cost, so the first bad arc is named
        for a, arc in enumerate(arcs):
            try:
                u, v, w = arc
            except (TypeError, ValueError):
                raise GraphError(f"arc {a}: not a (tail, head, cost) triple: {arc!r}") from None
            try:
                u, v = operator.index(u), operator.index(v)
            except TypeError:
                raise GraphError(f"arc {a}: endpoint is not an int: ({u!r}, {v!r})") from None
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise GraphError(f"arc {a}: endpoint out of range: ({u}, {v})")
            try:
                w = math.ldexp(w, 0)  # float(w), but refusing text
            except OverflowError:
                w = math.inf  # an int beyond the float range
            except (TypeError, ValueError):
                raise GraphError(f"arc {a}: cost is not a number: {w!r}") from None
            if not 0.0 <= w < math.inf:  # a NaN compares false
                raise GraphError(f"arc {a}: cost must be finite and nonnegative, got {w!r}")
            tail.append(u)
            head.append(v)
            cost.append(w)
        self._link(node_count, tail, head, cost)

    @classmethod
    def _from_checked(cls, node_count: int, tail: list[int], head: list[int], cost: list[float]) -> "Graph":
        """The graph of arrays that already pass every check of ``Graph(...)``, taken as its own.

        This is the one trusted way in, for a maker that checks or builds
        each arc as it makes it: :func:`kssp.dimacs.load_dimacs` and
        :func:`kssp.gridgen.gen_grid`. The caller vouches for the arrays:
        ``node_count`` is an int of at least 0, ``tail`` and ``head`` hold
        ints in ``0 .. node_count-1``, ``cost`` holds finite nonnegative
        floats, and all three have one length. So nothing is copied,
        converted or checked again; only the cost sum is taken, for
        ``folds_in_range``.
        """
        g = cls.__new__(cls)
        g._link(node_count, tail, head, cost)
        return g

    def _link(self, node_count: int, tail: list[int], head: list[int], cost: list[float]) -> None:
        """Keep the arrays and fill both adjacency lists, with the cyclic GC paused.

        Every graph is made here. Each node gets two new lists, so a
        256x256 grid makes 131,072 of them, and with the GC running they
        set off about 170 young, 15 middle and one full collection, each
        walking the lists made so far. None of them can free anything the
        fill makes: a per-node list holds only arc ids, which are ints and
        refer to nothing, and the two outer lists hold only per-node
        lists, so no object made here can reach itself, and none is
        garbage while the graph lives. The pause only defers the
        collections that fall due; the switch is process-wide, so it
        defers other threads' too. The first allocation after it runs one
        young collection over the new lists. ``gc.isenabled()`` is
        restored as it was found, also when a node count or arc count too
        large to allocate raises :class:`GraphError`. Either allocation
        failure frees both outer lists first, so the error leaves no
        per-node list alive.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            folds_in_range = sum(cost) <= 2.0**1020  # in the pause, so its list iterator cannot set off a collection
            try:  # one allocation each, so a count too large fails before any per-node list
                out_arcs: list = [None] * node_count
                in_arcs: list = [None] * node_count
                scratch: list = []  # made in the pause, so it cannot set off a collection either
                for lists in (out_arcs, in_arcs):  # one side's lists in a row, as a search walks one side
                    for v in range(node_count):
                        lists[v] = []
            except (OverflowError, MemoryError):
                out_arcs = in_arcs = lists = None  # free the lists, or building the error fails too
                raise GraphError(f"node_count {node_count} is too large to allocate") from None
            try:
                for a, u, v in zip(count(), tail, head):
                    out_arcs[u].append(a)
                    in_arcs[v].append(a)
            except MemoryError:
                out_arcs = in_arcs = lists = None  # free every per-node list before the error is built
                raise GraphError(
                    f"a graph of {node_count} nodes and {len(tail)} arcs is too large to allocate"
                ) from None
        finally:
            if enabled:
                gc.enable()
        self.node_count = node_count
        self.arc_tail = tail
        self.arc_head = head
        self.arc_cost = cost
        self.out_arcs = out_arcs
        self.in_arcs = in_arcs
        self.folds_in_range = folds_in_range
        self._scratch = scratch

    def __reduce__(self):
        # a copy or a pickle takes the arrays, and starts with a scratch pool of its own
        return Graph._from_checked, (self.node_count, self.arc_tail, self.arc_head, self.arc_cost)

    @property
    def arc_count(self) -> int:
        return len(self.arc_tail)

    def arcs(self) -> Iterator[tuple[int, int, float]]:
        """Iterate all arcs as ``(tail, head, cost)`` in arc id order."""
        for a in range(len(self.arc_tail)):
            yield self.arc_tail[a], self.arc_head[a], self.arc_cost[a]

    def __repr__(self) -> str:
        return f"Graph(nodes={self.node_count}, arcs={self.arc_count})"


def valid_costs(cost: Sequence[float]) -> bool:
    """True iff every cost is finite and nonnegative (a NaN makes the sum NaN)."""
    return min(cost, default=0.0) >= 0.0 and max(cost, default=0.0) < math.inf and not math.isnan(sum(cost))


class Mask:
    """Epoch-stamped node and arc deletions over a fixed graph.

    A node or arc counts as deleted iff its stamp equals the current
    epoch, so :meth:`reset` clears every deletion by bumping the epoch.
    The stamp arrays and the epoch are public on purpose: the search hot
    loops read them, and :mod:`kssp.engine` writes node stamps, directly
    instead of paying a method call per arc or node.
    """

    __slots__ = ("node_stamp", "arc_stamp", "epoch")

    def __init__(self, g: Graph) -> None:
        self.node_stamp = [0] * g.node_count
        self.arc_stamp = [0] * g.arc_count
        self.epoch = 1

    def reset(self) -> None:
        self.epoch += 1

    def delete_node(self, v: int) -> None:
        self.node_stamp[v] = self.epoch

    def delete_arc(self, a: int) -> None:
        self.arc_stamp[a] = self.epoch


@dataclass(frozen=True)
class Path:
    """A walk stored as a tuple of arc ids with its cached cost.

    The cached cost is the left-to-right fold over the arc costs, or for
    a search given a ``start``, that fold continued from the prefix's
    cost.
    """

    arcs: tuple[int, ...]
    cost: float

    def nodes(self, g: Graph) -> tuple[int, ...]:
        """Node sequence of the walk; empty paths have no nodes."""
        if not self.arcs:
            return ()
        out = [g.arc_tail[self.arcs[0]]]
        out.extend(g.arc_head[a] for a in self.arcs)
        return tuple(out)

    def __len__(self) -> int:
        return len(self.arcs)


def check_endpoints(g: Graph, s: int, t: int) -> tuple[int, int]:
    """Return s and t as ints; raise ValueError unless they are two distinct nodes of g.

    A float id, even a whole one, is refused, as it indexes no list; an
    int-like object, one with ``__index__``, stands for its int.
    """
    try:
        s, t = operator.index(s), operator.index(t)
    except TypeError:
        raise ValueError(f"endpoints must be ints, got s={s!r}, t={t!r}") from None
    n = g.node_count
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"endpoint out of range: s={s}, t={t}, nodes={n}")
    if s == t:
        raise ValueError("source and target must differ")
    return s, t


def path_cost(g: Graph, path: Path | Sequence[int]) -> float:
    """Validate an arc sequence and fold its cost left to right.

    Raises:
        PathError: if an arc id is out of range or two consecutive arcs
            are not incident (head of one != tail of the next).
    """
    arcs = path.arcs if isinstance(path, Path) else path
    cost = ZERO
    prev_head = -1
    arc_count = g.arc_count
    for i, a in enumerate(arcs):
        if not (0 <= a < arc_count):
            raise PathError(f"arc id {a} out of range at position {i}")
        if i > 0 and g.arc_tail[a] != prev_head:
            raise PathError(
                f"arcs at positions {i - 1} and {i} are not incident: "
                f"head {prev_head} vs tail {g.arc_tail[a]}"
            )
        prev_head = g.arc_head[a]
        cost += g.arc_cost[a]
    return cost
