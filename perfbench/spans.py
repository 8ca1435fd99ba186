"""Span tracing from the benchmark's side of each layer boundary.

:class:`Tracer` swaps the names ``kssp.engine`` calls into the other
layers for timing wrappers, plus the set-up entry points, and puts the
original objects back on exit. A span is a list ``[name, start, end,
parent, solve, tag, count]``; spans stay in memory until the run writes
them out. ``tag`` is the query outcome for the biobjective search, and
``count`` is labels extracted per query, pops per first-path search and
paths per solve.

A layer's self time is its span's duration minus the durations of its
direct children; the wrapped calls never nest inside each other, so
the children of a solve do not overlap.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from statistics import median
from time import perf_counter

import kssp.dimacs
import kssp.engine
import kssp.gridgen

SOLVE = "engine.k_shortest_paths"
SEARCH = "biobjective.find_best_deviation"
FIRST_PATH = "dijkstra.shortest_path"
REVERSE = "dijkstra.reverse_distances"
WORKSPACE = "biobjective.Workspace"
BUILD_QUERY = "biobjective.build_query"
GEN = "gridgen.gen_grid"
LOAD = "dimacs.load_dimacs"

# (module, attribute, span name, how to read the tag and count from the result)
TARGETS = (
    (kssp.engine, "k_shortest_paths", SOLVE, lambda r: (None, len(r.records))),
    (kssp.engine, "find_best_deviation", SEARCH, lambda r: (r[1].outcome, r[1].iterations)),
    (kssp.engine, "shortest_path", FIRST_PATH, lambda r: (None, r[1])),
    (kssp.engine, "reverse_distances", REVERSE, None),
    (kssp.engine, "Workspace", WORKSPACE, None),
    (kssp.engine, "build_query", BUILD_QUERY, None),
    (kssp.gridgen, "gen_grid", GEN, None),
    (kssp.dimacs, "load_dimacs", LOAD, None),
)
ORIGINALS = {(module, attr): getattr(module, attr) for module, attr, _, _ in TARGETS}


def assert_untraced() -> None:
    """Raise if any traced name is not the original object."""
    for (module, attr), original in ORIGINALS.items():
        if getattr(module, attr) is not original:
            raise RuntimeError(f"{module.__name__}.{attr} is still wrapped")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._solves = 0

    def _wrap(self, fn, name: str, read):
        spans = self.spans
        open_ = self._open
        root = name == SOLVE

        def wrapper(*args, **kwargs):
            if root:
                self._solves += 1
            parent = open_[-1] if open_ else None
            span = [name, 0.0, 0.0, parent, self._solves if (root or parent is not None) else None, None, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()
            if read is not None:
                span[5], span[6] = read(result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        try:
            for module, attr, name, read in TARGETS:
                setattr(module, attr, self._wrap(ORIGINALS[(module, attr)], name, read))
            yield self
        finally:
            for (module, attr), original in ORIGINALS.items():
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures from one run's spans.

    Times are totals over the run divided by the number of calls (or of
    solves, for the per-outcome search split); shares are fractions of
    summed solve time, and engine, biobjective and dijkstra shares add
    up to one.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    child_time: dict[int, float] = {}
    setup: dict[str, list[float]] = {GEN: [], LOAD: []}
    for name, start, end, parent, _, tag, count in spans:
        key = f"{name}:{tag}" if tag is not None else name
        d = end - start
        total[key] = total.get(key, 0.0) + d
        calls[key] = calls.get(key, 0) + 1
        if count is not None:
            counts[key] = counts.get(key, 0) + count
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + d
        if name in setup:
            setup[name].append(d)
    solve_self = sum(
        (end - start) - child_time.get(i, 0.0)
        for i, (name, start, end, *_) in enumerate(spans)
        if name == SOLVE
    )

    def t(key):
        return total.get(key, 0.0)

    def n(key):
        return calls.get(key, 0)

    def c(key):
        return counts.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    found, exhausted, capped = (f"{SEARCH}:{o}" for o in ("found", "exhausted", "cost-capped"))
    solve_t = t(SOLVE)
    solves = n(SOLVE)
    queries = n(found) + n(exhausted) + n(capped)
    search_t = t(found) + t(exhausted) + t(capped)
    failed_n = n(exhausted) + n(capped)
    return {
        "engine.self_share": ratio(solve_self, solve_t),
        "engine.self_us_per_query": 1e6 * ratio(solve_self, queries),
        "engine.queries_per_path": ratio(queries, c(SOLVE)),
        "biobjective.share": ratio(search_t + t(BUILD_QUERY) + t(WORKSPACE), solve_t),
        "biobjective.search_share": ratio(search_t, solve_t),
        "biobjective.found_ms": 1e3 * ratio(t(found), solves),
        "biobjective.exhausted_ms": 1e3 * ratio(t(exhausted), solves),
        "biobjective.capped_ms": 1e3 * ratio(t(capped), solves),
        "biobjective.us_per_extraction": 1e6 * ratio(search_t, c(found) + c(exhausted) + c(capped)),
        "biobjective.extractions_found_mean": ratio(c(found), n(found)),
        "biobjective.extractions_failed_mean": ratio(c(exhausted) + c(capped), failed_n),
        "biobjective.found_share": ratio(n(found), queries),
        "biobjective.build_query_us": 1e6 * ratio(t(BUILD_QUERY), n(BUILD_QUERY)),
        "biobjective.workspace_ms": 1e3 * ratio(t(WORKSPACE), n(WORKSPACE)),
        "dijkstra.share": ratio(t(REVERSE) + t(FIRST_PATH), solve_t),
        "dijkstra.reverse_ms": 1e3 * ratio(t(REVERSE), n(REVERSE)),
        "dijkstra.first_path_ms": 1e3 * ratio(t(FIRST_PATH), n(FIRST_PATH)),
        "dijkstra.first_path_pops": ratio(c(FIRST_PATH), n(FIRST_PATH)),
        "gridgen.gen_s": median(setup[GEN]) if setup[GEN] else 0.0,
        "dimacs.load_s": median(setup[LOAD]) if setup[LOAD] else 0.0,
    }
