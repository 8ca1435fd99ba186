"""Seeded generators for grid benchmark instances.

A rows x cols grid has one node per cell, id ``row * cols + col``, and a
pair of antiparallel arcs per neighboring cell pair (4-neighborhood).
Each arc draws its own independent uniform cost, so the two directions
of an edge differ.

Arc order is part of the format and must not change: cells are visited
in row-major order, each cell first emits its east edge then its south
edge, and each edge emits the forward arc before the backward arc. The
costs are then drawn one per arc in arc id order. This makes instances
reproducible from (rows, cols, cost bounds, seed) alone.
"""
from __future__ import annotations

import math
import operator
import sys
from collections.abc import Iterator

from .graph import Graph, GraphError
from .rng import SplitMix64


def gen_grid(
    rows: int,
    cols: int,
    cost_low: float = 0.0,
    cost_high: float = 10.0,
    seed: int = 0,
) -> Graph:
    """Build a seeded grid instance.

    Arc count is ``2 * (rows * (cols - 1) + cols * (rows - 1))``.

    The arcs go to the graph unchecked, as each is valid when made.
    ``check_grid`` gives int ``rows`` and ``cols`` of at least 1, so
    ``row`` holds the ids of row ``r`` and ``below`` those of row
    ``r + 1``, or none in the last row: every endpoint is an int below
    ``rows * cols``. Row ``r`` fills the ``4 * cols - 2`` slots from
    ``r * (4 * cols - 2)`` on when a row lies below it: four stride-4
    slices of ``cols - 1`` ids, one per cell before the last, and then the
    last cell's south pair. The last row fills the ``2 * cols - 2`` slots
    left with two stride-2 slices of ``cols - 1`` ids. The rows' slots add
    up to the arc count, so every slot is filled once. An east arc joins
    ``row[c]`` and ``row[c + 1]``, as ``row[:-1]`` and ``row[1:]`` meet
    slot for slot, so it stays in its row; a south arc joins ``row[c]``
    and ``below[c]``, the cell under it in the next row. Each draw is
    ``low + (high - low) * x`` with ``check_grid``'s floats
    ``0 <= low <= high < inf`` and ``0 <= x <= 1 - 2**-53``, a float that
    meets no infinity or NaN and never goes below 0. It passes ``high`` by
    at most the rounding error of ``high - low``, half an ulp of ``high``,
    so it could overflow only with that full half ulp below the largest
    float. That error needs ``high - low >= 2**1023``, where ``x`` first
    rounds the product a whole ulp below it.
    """
    rows, cols, cost_low, cost_high = check_grid(rows, cols, cost_low, cost_high)
    step = 4 * cols - 2  # the slots of a row with a row below
    try:
        # one allocation each, so a grid too large fails before any row is made;
        # past the index range that is an OverflowError
        tail: list = [None] * (2 * (rows * (cols - 1) + cols * (rows - 1)))
        head = tail[:]
        # one int object per node, shared by all its arcs: each row's ids are
        # made once, while the row above it is visited, and no list holds them all
        below = list(range(cols))
        for r in range(rows):
            row, below = below, list(range((r + 1) * cols, min(r + 2, rows) * cols))
            west, east = row[:-1], row[1:]
            o = r * step
            if below:  # each cell's east pair, then its south pair
                e = o + step - 2
                tail[o:e:4] = head[o + 1:e:4] = tail[o + 2:e:4] = head[o + 3:e:4] = west
                tail[o + 1:e:4] = head[o:e:4] = east
                tail[o + 3:e:4] = head[o + 2:e:4] = below[:-1]
                tail[e] = head[e + 1] = row[-1]
                tail[e + 1] = head[e] = below[-1]
            else:  # the last row's east pairs
                tail[o::2] = head[o + 1::2] = west
                tail[o + 1::2] = head[o::2] = east
        cost = SplitMix64(seed).uniforms(len(tail), cost_low, cost_high)
    except (OverflowError, MemoryError):
        tail = head = None  # free the lists, or building the error fails too
        raise GraphError(f"grid {rows}x{cols} is too large to allocate") from None
    return Graph._from_checked(rows * cols, tail, head, cost)


def check_grid(rows: int, cols: int, cost_low: float, cost_high: float) -> tuple[int, int, float, float]:
    """Return the shape as ints and the cost bounds as floats; raise GraphError for bad ones.

    The shape must be two ints of at least 1. The bounds must be numbers
    in the float range, not text, ordered (so neither is NaN),
    ``cost_low`` nonnegative and ``cost_high`` finite, even where no arc
    or no grid is drawn. An int bound up to ``2**53`` becomes the float of
    the same value, so its draws keep their bits.
    """
    try:
        rows, cols = operator.index(rows), operator.index(cols)
    except TypeError:
        raise GraphError(f"grid shape must be ints, got {rows!r}x{cols!r}") from None
    if rows < 1 or cols < 1:
        raise GraphError("grid needs at least one row and one column")
    try:  # float(), but refusing text, and an int beyond the float range
        cost_low, cost_high = math.ldexp(cost_low, 0), math.ldexp(cost_high, 0)
    except (TypeError, ValueError, OverflowError):
        raise GraphError(f"cost bounds must be numbers in the float range, got {cost_low!r} and {cost_high!r}") from None
    if not cost_low <= cost_high:
        raise GraphError("cost_low must not exceed cost_high")
    if cost_low < 0.0:
        raise GraphError(f"cost_low must be nonnegative, got {cost_low!r}")
    if not math.isfinite(cost_high):
        raise GraphError(f"cost_high must be finite, got {cost_high!r}")
    return rows, cols, cost_low, cost_high


def seeded_grids(
    rows: int, cols: int, count: int, seed: int, cost_low: float = 0.0, cost_high: float = 10.0
) -> Iterator[tuple[int, Graph, SplitMix64]]:
    """Yield ``(cost seed, grid, pair stream)`` for ``count`` seeded grids.

    The master ``seed`` draws every cost seed first, then one pair seed
    per grid, so drawing more pairs from a grid's stream never changes
    which grids are built. This order is part of the format too. Bad
    arguments raise ValueError at the call, before any grid is built.
    """
    count = check_count(count, "grid")
    rows, cols, cost_low, cost_high = check_grid(rows, cols, cost_low, cost_high)
    master = SplitMix64(seed)
    cost_seeds = [master.next_u64() for _ in range(count)]
    pair_seeds = [master.next_u64() for _ in range(count)]
    return (
        (cost_seed, gen_grid(rows, cols, cost_low, cost_high, cost_seed), SplitMix64(pair_seed))
        for cost_seed, pair_seed in zip(cost_seeds, pair_seeds)
    )


def check_count(count: int, what: str) -> int:
    """Return ``count`` as an int; raise ValueError, naming ``what``, unless it is an int >= 0.

    A count above ``sys.maxsize`` is refused too, as no list can hold
    that many draws; the error does not print it, as its digits may be
    too many for ``str``.
    """
    try:
        count = operator.index(count)
    except TypeError:
        raise ValueError(f"{what} count must be an int, got {count!r}") from None
    if count < 0:
        raise ValueError(f"{what} count must be at least 0, got {count}")
    if count > sys.maxsize:
        raise ValueError(f"{what} count must be at most {sys.maxsize}")
    return count


def sample_pairs(rng: SplitMix64, node_count: int, count: int) -> list[tuple[int, int]]:
    """Draw ``count`` source/target pairs, each two distinct uniform nodes."""
    return [rng.distinct_pair(node_count) for _ in range(check_count(count, "pair"))]
