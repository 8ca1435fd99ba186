"""Shared fixtures: worked examples, search observers, a digraph factory, a host-speed clock."""
from __future__ import annotations

import gc
import hashlib
import heapq
import importlib.util
import math
import os
import resource
import subprocess
import sys
from collections import Counter
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path as FilePath
from statistics import harmonic_mean
from time import perf_counter
from typing import NamedTuple

import pytest

from kssp import biobjective, engine
from kssp.dijkstra import ReverseSweep
from kssp.engine import k_shortest_paths
from kssp.graph import Graph
from kssp.gridgen import gen_grid, sample_pairs, seeded_grids
from kssp.rng import SplitMix64

SRC = FilePath(__file__).resolve().parent.parent / "src"
# node counts whose adjacency lists cannot be allocated under run_capped: past the
# index range, past the size check of a list, past any address space, and one whose
# two outer lists fit under the cap but whose per-node lists do not; only a capped
# child may try them
UNALLOCATABLE_COUNTS = [2**64 + 1, 2**62, 10**12, 3 * 10**7]


def run_capped(*args: str, cap_bytes: int = 2**30, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run ``python args`` with kssp from src/, in a child capped at ``cap_bytes`` of address space.

    A case that may allocate per node runs there, so a regression ends in
    the child's MemoryError, not in exhausting the host's memory. The
    child is killed, and the test fails, after ``timeout`` seconds.
    """

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *args], preexec_fn=cap, env=env, capture_output=True, text=True, timeout=timeout
    )


class IntLike:
    """An int stand-in that has only ``__index__``, as a numpy integer does."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __index__(self) -> int:
        return self.value


@pytest.fixture
def five_node_graph() -> Graph:
    """Diamond with a detour; the four cheapest 0-to-4 paths cost 2, 3, 4, 5."""
    return Graph(
        5,
        [
            (0, 1, 2.0),
            (0, 2, 1.0),
            (0, 3, 3.0),
            (1, 2, 2.0),
            (1, 4, 1.0),
            (2, 4, 1.0),
            (3, 4, 1.0),
        ],
    )


@pytest.fixture
def six_node_graph() -> Graph:
    """Zero-cost spine 0-1-2-3-5 with two paid detours through node 4.

    The spine is the unique shortest 0-to-5 path; the cheapest path that
    differs from it leaves the spine at node 2 and costs 2.
    """
    return Graph(
        6,
        [
            (0, 1, 0.0),
            (1, 2, 0.0),
            (2, 3, 0.0),
            (3, 5, 0.0),
            (1, 4, 2.0),
            (3, 4, 1.0),
            (4, 2, 2.0),
            (2, 5, 2.0),
        ],
    )


class SearchCounts(NamedTuple):
    """A query's stats, widened by two counts the search does not keep, read from outside it."""

    iterations: int
    target_extractions: int  # labels made permanent at the target
    outcome: str
    tree_steps: int  # of the iterations, labels the tree walk settled


def count_search(query, cost_cap=None, *, before_pop=None, **limits):
    """``find_best_deviation(query, cost_cap, **limits)`` with its stats as :class:`SearchCounts`.

    For the length of the call the search's ``heappop`` is wrapped;
    ``before_pop``, if given, sees the heap before every pop. A pop is
    live when a workspace queue slot holds the entry; the others are
    superseded candidates and tree-walk bounds. Every label the search
    settles is either a live pop or a step of a tree walk, so
    ``tree_steps`` is ``iterations`` less the live pops. A target
    extraction is a label made permanent at the target, so
    ``target_extractions`` is the size of the target's frontier.
    """
    ws = query.workspace
    queued = ws.queued
    q_stamp = ws.queued_stamp
    serial = ws.serial + 1  # the one the search is about to take
    live_pops = 0

    def watched_heappop(heap: list[tuple]) -> tuple:
        nonlocal live_pops
        if before_pop is not None:
            before_pop(heap)
        e = heapq.heappop(heap)
        if q_stamp[e[2]] == serial and queued[e[2]] is e:
            live_pops += 1
        return e

    biobjective.heappop = watched_heappop
    try:
        dev, stats = biobjective.find_best_deviation(query, cost_cap, **limits)
    finally:
        biobjective.heappop = heapq.heappop
    assert ws.serial == serial
    t = query.target
    at_target = len(ws.frontiers[t]) if ws.frontier_stamp[t] == serial else 0
    return dev, SearchCounts(stats.iterations, at_target, stats.outcome, stats.iterations - live_pops)


@dataclass
class SearchTrace:
    """What one deviation search did, read from outside it by :func:`observe_search`.

    ``extracted`` holds (cost, overlap, node) per label made permanent,
    in order, and ``keys`` the queue key of each. ``frontiers`` maps
    each node to its permanent labels, the search's ``(cost, overlap,
    via_arc, via_index)`` tuples. ``max_live_per_node`` and
    ``queue_consistent`` come from recounting the heap before every pop.
    """

    extracted: list[tuple[float, int, int]] = field(default_factory=list)
    keys: list[float] = field(default_factory=list)
    frontiers: dict[int, list[tuple]] = field(default_factory=dict)
    max_live_per_node: int = 0
    queue_consistent: bool = True


def observe_search(query, cost_cap=None, **limits):
    """:func:`count_search`, and a :class:`SearchTrace` of the search.

    Returns ``(result, trace)``. Before each pop the search makes, the
    observer counts the heap entries still live, those a workspace queue
    slot holds, per node, and checks their total against the slots that
    hold a candidate; the entry about to pop is the heap's first, and it
    records that entry if it is live. The permanent labels are read off
    the workspace once the search returns. Every live pop's label is
    made permanent, except a last one that the cost cap strikes. The
    tree walk then settles a chain of labels that were never popped,
    each over the tree arc of the node before and linked to the label
    before by ``via_index``. So the extraction order is each live pop
    followed by its chain, and every key is ``cost + pot[node]``, with
    ``pot`` the sweep's ``dist`` or zero.
    """
    ws = query.workspace
    g = ws.graph
    queued = ws.queued
    q_stamp = ws.queued_stamp
    serial = ws.serial + 1  # the one the search is about to take
    trace = SearchTrace()
    popped: list[tuple] = []

    def recount(heap: list[tuple]) -> None:
        live = Counter(e[2] for e in heap if q_stamp[e[2]] == serial and queued[e[2]] is e)
        trace.max_live_per_node = max(trace.max_live_per_node, *live.values(), 0)
        slots = sum(1 for v, e in enumerate(queued) if e is not None and q_stamp[v] == serial)
        if sum(live.values()) != slots:
            trace.queue_consistent = False

    def before_pop(heap: list[tuple]) -> None:
        recount(heap)
        e = heap[0]
        if q_stamp[e[2]] == serial and queued[e[2]] is e:
            popped.append(e)

    result = count_search(query, cost_cap, before_pop=before_pop, **limits)
    if result[1].outcome == "exhausted":
        recount([])  # the heap ran empty, so no queue slot may hold a candidate

    frontiers = trace.frontiers
    for v in range(g.node_count):
        if ws.frontier_stamp[v] == serial:
            frontiers[v] = ws.frontiers[v]
    where = {id(lab): (v, i) for v, labels in frontiers.items() for i, lab in enumerate(labels)}
    popped_labels = {id(e[4]) for e in popped}
    sweep = query.sweep
    pot = sweep.dist if sweep is not None else [0.0] * g.node_count
    tree = sweep.tree if sweep is not None else [-1] * g.node_count
    for e in popped:
        if id(e[4]) not in where:
            assert e is popped[-1] and result[1].outcome == "cost-capped"
            continue
        v, i = where[id(e[4])]
        assert e[0] == e[4][0] + pot[v]
        while True:
            cost, overlap = frontiers[v][i][:2]
            trace.extracted.append((cost, overlap, v))
            trace.keys.append(cost + pot[v])
            a = tree[v]
            if a < 0:
                break
            step = [
                j
                for j, nxt in enumerate(frontiers.get(g.arc_head[a], ()))
                if nxt[2] == a and nxt[3] == i and id(nxt) not in popped_labels
            ]
            if not step:
                break
            (i,) = step
            v = g.arc_head[a]
    assert len(trace.extracted) == len(where), "a permanent label the order misses"
    return result, trace


@pytest.fixture
def repeated_answers(monkeypatch) -> None:
    """Make every later answer to a record's ask, from the tree or the search, the record's first.

    A record asked again after its first deviation was queued then gets
    that deviation back, whose arc the record has already blocked: the
    fault the engine's own checks look for under ``validate``. A first
    answer from the tree is kept as the search would have returned it,
    so that the cross-check of later tree answers under ``validate``
    agrees with them.
    """
    first: dict[tuple, tuple] = {}
    answer_from_tree = engine.tree_answer

    def repeat_tree(query, *args):
        key = (query.source, query.ref_arcs, query.prefix_cost)
        if key not in first:
            dev, bound = answer_from_tree(query, *args)
            if dev is None:
                return None, bound  # the search answers this ask first
            first[key] = (dev, biobjective.QueryStats(0, "found"))
        return first[key][0], -math.inf

    def repeat(query, *args, **kwargs):
        key = (query.source, query.ref_arcs, query.prefix_cost)
        if key not in first:
            first[key] = biobjective.find_best_deviation(query, *args, **kwargs)
        return first[key]

    monkeypatch.setattr("kssp.engine.tree_answer", repeat_tree)
    monkeypatch.setattr("kssp.engine.find_best_deviation", repeat)


def make_digraph(seed: int, min_nodes: int = 4, max_nodes: int = 10, density: float = 0.3) -> Graph:
    """Seeded random digraph with integer costs 0..9.

    Node count is uniform in [min_nodes, max_nodes]; every ordered pair
    gets an arc with the given probability. Fully determined by the
    arguments, so tests can reference instances by seed alone.
    """
    rng = SplitMix64(seed)
    n = min_nodes + rng.below(max_nodes - min_nodes + 1)
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.uniform(0.0, 1.0) < density:
                arcs.append((u, v, float(rng.below(10))))
    return Graph(n, arcs)


COST_FAMILIES = ("integers", "tenths", "huge")


def cost_family(g: Graph, family: str) -> Graph:
    """``g`` with integer costs as they are, times 0.1, or plus 2^53 on arcs into the last node.

    Tenths are not exact in float and 2^53 leaves no room for odd
    integers, so the last two families exercise rounding in every fold.
    """
    last = g.node_count - 1
    arcs = [(g.arc_tail[a], g.arc_head[a], g.arc_cost[a]) for a in range(g.arc_count)]
    if family == "tenths":
        arcs = [(u, v, c * 0.1) for u, v, c in arcs]
    elif family == "huge":
        arcs = [(u, v, c + 2.0**53 if v == last else c) for u, v, c in arcs]
    return Graph(g.node_count, arcs)


@pytest.fixture
def digraph_factory():
    return make_digraph


def tree_place(g: Graph, r) -> tuple:
    """A record's place in the deviation tree: parent, deviation node and index, source node and index.

    The two nodes are the tail and head of the record's deviation arc,
    ``suffix[0]``; the root deviates nowhere, so both of its are s.
    """
    arc = r.suffix[0]
    dev_node = g.arc_tail[arc]
    source_node = dev_node if r.parent is None else g.arc_head[arc]
    return r.parent_index, dev_node, r.dev_pos, source_node, r.source_pos


def report_digest(g: Graph, report) -> str:
    """sha256 over every record, the status and the stats up to ``wall_time_s``.

    Costs enter as float hex, so two reports share a digest only when
    they are bit-identical, down to tie order and the deviation tree.
    """
    rows = [
        (r.path.arcs, r.path.cost.hex(), r.prefix_cost.hex(), *tree_place(g, r), tuple(r.blocked))
        for r in report.records
    ]
    return _digest(rows, report)


def solve_digest(g: Graph, s: int, t: int, k: int, options=None) -> str:
    """:func:`report_digest` of ``k_shortest_paths(g, s, t, k, options)``."""
    return report_digest(g, k_shortest_paths(g, s, t, k, options))


def cost_free_digest(g: Graph, report) -> str:
    """sha256 like :func:`report_digest` over everything but ``cost`` and ``prefix_cost``.

    Exact arithmetic may change the bits of a cost but not which paths
    are found or how the search gets there, so this digest must stay
    equal across such a change while the cost-hashing ones move.
    """
    rows = [(r.path.arcs, *tree_place(g, r), tuple(r.blocked)) for r in report.records]
    return _digest(rows, report)


def records_digest(solved) -> str:
    """sha256 over the records and status of each ``(graph, report)`` pair, without ``blocked`` or stats.

    A prune rule that skips more work may change the counters and which
    deviation arcs a record has blocked, but never a path, its cost or
    its place in the deviation tree; this digest checks exactly that.
    """
    rows = [
        (
            [(r.path.arcs, r.path.cost.hex(), r.prefix_cost.hex(), *tree_place(g, r)) for r in report.records],
            report.status,
        )
        for g, report in solved
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _digest(rows: list[tuple], report) -> str:
    stats = astuple(replace(report.stats, wall_time_s=0.0))
    return hashlib.sha256(repr((rows, report.status, stats)).encode()).hexdigest()


def frozen_solves():
    """Seeded 64x64 grid pairs at k=50, then every cost family of 300 digraphs at k=2 and 5."""
    g = gen_grid(64, 64, seed=11)
    for s, t in sample_pairs(SplitMix64(12), g.node_count, 5):
        yield g, s, t, 50
    for seed in range(300):
        base = make_digraph(seed)
        for family in COST_FAMILIES:
            for k in (2, 5):
                yield cost_family(base, family), 0, base.node_count - 1, k


def road_solves(count: int = 3):
    """The first ``count`` pairs of the benchmark's 256x256 road grid (master seed 512) at k=100."""
    ((_, g, pair_rng),) = seeded_grids(256, 256, 1, 512)
    for s, t in sample_pairs(pair_rng, g.node_count, count):
        yield g, s, t, 100


def record_ask_labels(g: Graph, s: int, t: int, records) -> tuple[list[int], list[int]]:
    """Labels that the search extracts on two asks of each output record, found and failed.

    Each record is asked guided, with the nodes before its source masked:
    once with nothing blocked and no cap, as when it is first output,
    counted if the search finds a deviation; and once with its output
    children's deviation arcs blocked, under the last record's cost as
    the cap, counted if it finds none. Both sets depend on the records
    alone, not on which asks a solve searched, answered from the tree or
    dropped.
    """
    ws = biobjective.Workspace(g)
    sweep = ReverseSweep(g, t)
    children: dict[int, list[int]] = {}
    for r in records:
        if r.parent_index is not None:
            children.setdefault(r.parent_index, []).append(r.suffix[0])
    found: list[int] = []
    failed: list[int] = []
    for i, r in enumerate(records):
        arcs = r.path.arcs
        source = r.path.nodes(g)[r.source_pos]
        for blocked, cap, kept in (((), None, found), (children.get(i, ()), records[-1].cost, failed)):
            ws.mask.reset()
            for a in arcs[: r.source_pos]:
                ws.mask.delete_node(g.arc_tail[a])
            for a in blocked:
                ws.mask.delete_arc(a)
            query = biobjective.build_query(ws, source, t, arcs[r.source_pos :], r.prefix_cost, sweep)
            dev, stats = biobjective.find_best_deviation(query, cap)
            if (dev is not None) == (kept is found):
                kept.append(stats.iterations)
    return found, failed


def _load_host_kernel():
    """``perfbench/hostspeed.py``, loaded by path: the benchmark's host-speed kernel."""
    path = FilePath(__file__).resolve().parent.parent / "perfbench" / "hostspeed.py"
    spec = importlib.util.spec_from_file_location("perfbench_hostspeed", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Reference-kernel time taken as the nominal host speed: about its time on
# a quiet 2-core x86-64 host with Python 3.11.
HOST_NOMINAL_S = 0.015
HOST_KERNEL_TOTAL = 27514660.0  # distance sum the kernel must return


class HostClock:
    """Scales wall times to a host where the reference kernel takes HOST_NOMINAL_S.

    The kernel is the benchmark's, from ``perfbench/hostspeed.py``: a
    pure-Python heap Dijkstra over a pinned grid that does not call
    ``kssp``, the same kind of interpreter work as a solve, so it slows
    down with the host but not with a change to the solver. Time it
    right before and right after a timed call and pass both to
    :meth:`factor`.
    """

    def __init__(self) -> None:
        self._kernel = _load_host_kernel()
        self._adj = self._kernel._grid()

    def kernel_s(self) -> float:
        """Time one kernel run, after a collection so no leftover garbage lands in it."""
        gc.collect()
        t0 = perf_counter()
        total = self._kernel._dijkstra(self._adj)
        elapsed = perf_counter() - t0
        assert total == HOST_KERNEL_TOTAL, f"reference kernel returned {total!r}"
        return elapsed

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Nominal kernel time over the harmonic mean of the two adjacent ones."""
        return HOST_NOMINAL_S / harmonic_mean([before, after])


@pytest.fixture(scope="session")
def host_clock() -> HostClock:
    return HostClock()
