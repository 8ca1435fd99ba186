"""Biobjective label-setting search for the cheapest deviation from a path.

Given a reference path from ``source`` to ``target`` that is a shortest
path in the (masked) graph, the search finds the cheapest simple
source-to-target path that differs from it, and returns its suffix from
the first node where the two part ways. The solver in :mod:`kssp.engine`
asks this question once or twice per output path.

Mechanism. Every partial path is scored with two objectives: its scalar
cost and its overlap, the number of reference arcs it uses. Labels are
extracted in lexicographic order of (cost, overlap), so per node the
permanent labels form a small Pareto frontier: cost strictly increasing,
overlap strictly decreasing. Because extraction order is monotone, full
Pareto dominance collapses to one integer comparison per check: a new
label at a node is dominated iff its overlap is at least the overlap of
the node's most recent permanent label. The comparison is not strict,
which also kills walks that close a cycle (their prefix label at the
revisited node is at least as good), so simplicity never needs an
explicit check.

The queue holds at most one candidate label per node. When a node's
candidate is extracted, its replacement is rebuilt lazily as the best
nondominated extension over the node's incoming arcs; a cursor per
incoming arc, kept for the length of one search, remembers how far into
the predecessor's permanent list the scan has advanced, and never has to
back up because dominated stays dominated. When a freshly permanent
label is pushed along an outgoing arc it replaces the neighbor's queued
candidate only if strictly lexicographically smaller.

Most rebuilds would find nothing, so a node keeps the least overlap of
the extensions dropped from its queue slot (pushes that lost to the
queued candidate, and candidates that were replaced) and scans only
when that overlap is below its frontier minimum. No other extension can
qualify. Each permanent label is pushed once along every unmasked
outgoing arc whose head can reach the target (other heads are never
extracted). There it was dominated, and stays so; or it was dropped;
or it was extracted and sits in the head's frontier, at or above the
minimum. Target labels are never pushed, but the only one that does not
end the search is the reference, whose overlap is the reference's arc
count, which no frontier minimum exceeds. A skipped scan leaves the
cursors behind, which changes nothing: whatever they would have passed
stays dominated.

The reference path itself reaches the target with overlap equal to its
arc count; every other path reaching the target scores a smaller
overlap. The search therefore stops at the second target extraction at
the latest, and earlier if a cost-equal rival is extracted first.

Guided mode. The caller may supply a :class:`kssp.dijkstra.ReverseSweep`
toward the target over the unmasked graph, shared by all queries of a
solve; its ``dist`` holds exact distances to the target. The queue then
orders labels by cost plus that distance at the label's node instead of
plain cost. Masking only removes routes, so the potential never
overestimates the remaining cost and the answer is unchanged; the
search just spreads far less. The potential is a per-node constant, so
every per-node property above carries over verbatim, and it is zero at
the target, so target extractions still arrive in plain (cost, overlap)
order. Nodes that cannot reach the target at all are never enqueued.
Without a sweep the order is plain lex (cost, overlap); the search runs
it as an all-zero potential, which keeps one code path and adds exactly
0.0 to every key. The sweep may be settled only part of the way; the
search then settles it further whenever it needs a distance it lacks
(see :func:`find_best_deviation`).

Tree walk. A guided query's sweep keeps a shortest-path tree toward
the target (``ReverseSweep.tree``), and most of a query's labels just
follow it: the labels of the reference while it follows the tree, and,
once a label has left the reference (Feng's "yellow" node, a sidetrack
in Eppstein's terms), the labels of the tree path from there to the
target. Each such label would push every out-arc of its node, and few
of those pushes are ever popped. So right after the loop makes a label
permanent, the search walks the tree from its node and settles the
labels along it in the loop's own settle block, for as long as the loop
would take them next. For every node it leaves it sets aside one bound in
place of the node's other pushes: a key no such push falls below,
sorting before any entry of equal key. Once the walk stops, the bounds
go into the heap and the loop pushes from the last label settled; when
the loop pops a bound, it makes that node's deferred pushes then,
through its usual push code. Extraction order, results, iteration
counts and target extractions are those of the plain loop (see
:func:`find_best_deviation`); ``QueryStats.tree_steps`` counts the
labels the walk settled, more than four in five on grids.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import NamedTuple

from .dijkstra import ReverseSweep
from .graph import Graph, Mask

# scales a tree walk's bound down past the roundings argued in find_best_deviation
_SHRINK = 1.0 - 2.0**-50


class BiCost(NamedTuple):
    cost: float
    overlap: int


class Workspace:
    """Per-solve scratch shared across queries: the mask and the per-node search state.

    The per-node frontiers, queue slots and dropped-extension overlaps
    live here as arrays validated against ``serial``, so a query resets
    in time proportional to what it touched, not graph size. A node's
    frontier list is created the first time a query makes a label
    permanent there. What belongs to one query stays with it: its
    reference arcs on the :class:`DeviationQuery`, and the rebuild
    cursors in :func:`find_best_deviation`.
    """

    __slots__ = (
        "graph",
        "mask",
        "frontiers",
        "frontier_stamp",
        "queued",
        "queued_stamp",
        "serial",
        "zero_potential",
        "dropped",
    )

    def __init__(self, g: Graph) -> None:
        self.graph = g
        self.mask = Mask(g)
        self.frontiers: list[list[tuple] | None] = [None] * g.node_count
        self.frontier_stamp = [0] * g.node_count
        self.queued: list[tuple | None] = [None] * g.node_count
        self.queued_stamp = [0] * g.node_count
        self.serial = 0
        self.zero_potential: list[float] | None = None
        self.dropped: list[float] = [0.0] * g.node_count


@dataclass
class DeviationQuery:
    """One search instance: masked graph (the workspace's), reference path, cost context.

    ``prefix_cost`` is the left-to-right cost fold of the solver-side
    prefix in front of ``source``. It is the root label's cost, so every
    label cost continues that fold and is the fold of the whole walk from
    the solver's origin. ``sweep``, a reverse sweep toward
    ``target`` over the unmasked graph, switches the queue to guided
    order (see the module docstring).
    """

    workspace: Workspace
    source: int
    target: int
    ref_arcs: tuple[int, ...]
    prefix_cost: float = 0.0
    sweep: ReverseSweep | None = None


def build_query(
    g: Graph,
    source: int,
    target: int,
    ref_arcs: tuple[int, ...] | list[int],
    workspace: Workspace | None = None,
    prefix_cost: float = 0.0,
    sweep: ReverseSweep | None = None,
) -> DeviationQuery:
    """Validate the instance and bundle it into a query.

    The reference path must run from source to target through the masked
    graph; a masked reference would make the search answer a different
    question than the caller asked. So would a workspace or a sweep of
    another graph, or a sweep toward another target.
    """
    if sweep is not None and (sweep.graph is not g or sweep.target != target):
        raise ValueError("the sweep must run over the query's graph toward its target")
    ws = workspace if workspace is not None else Workspace(g)
    if ws.graph is not g:
        raise ValueError("the workspace must belong to the query's graph")
    # stamps read directly, as in the search: this check runs on every query
    mask_epoch = ws.mask.epoch
    node_stamp = ws.mask.node_stamp
    arc_stamp = ws.mask.arc_stamp
    arc_tail = g.arc_tail
    arc_head = g.arc_head
    if node_stamp[source] == mask_epoch:
        raise ValueError("query source is masked")
    node = source
    for i, a in enumerate(ref_arcs):
        if arc_tail[a] != node:
            raise ValueError(f"reference arc {i} does not continue the path")
        node = arc_head[a]
        if arc_stamp[a] == mask_epoch or node_stamp[node] == mask_epoch:
            raise ValueError(f"reference arc {i} is masked")
    if node != target:
        raise ValueError("reference path does not end at the target")
    return DeviationQuery(ws, source, target, tuple(ref_arcs), prefix_cost, sweep)


def reconstruct(g: Graph, label: tuple, frontiers: list[list[tuple]]) -> list[tuple]:
    """The label chain to ``label`` by predecessor links: entry i came over arc i.

    The root is left out, so ``entry[2]`` is the walk's arc i and its
    cost the fold up to that arc's head. ``frontiers`` is the workspace's
    per-node list of permanent labels.
    """
    chain: list[tuple] = []
    cur = label
    while cur[2] != -1:
        chain.append(cur)
        cur = frontiers[g.arc_tail[cur[2]]][cur[3]]
    chain.reverse()
    return chain


@dataclass(frozen=True)
class Deviation:
    """Result of a successful query.

    ``suffix`` holds the arcs from the deviation node, starting with the
    deviation arc, to the target. ``bicost`` scores the path the search
    found; its cost is the left-to-right fold of the whole path, prefix
    included, the cost the caller reports, and ``source_cost`` that fold
    up to the deviation arc's head. ``ref_index`` counts the reference
    arcs shared before the deviation.
    """

    arc: int
    ref_index: int
    suffix: tuple[int, ...]
    bicost: BiCost
    source_cost: float


class QueryStats(NamedTuple):
    iterations: int
    target_extractions: int
    outcome: str  # "found" | "exhausted" | "cost-capped"
    tree_steps: int  # of the iterations, labels the tree walk settled


class SearchLimit(RuntimeError):
    """Raised when an iteration budget or deadline cuts a query short."""

    def __init__(self, kind: str) -> None:
        super().__init__(f"search limit reached: {kind}")
        self.kind = kind


def find_best_deviation(
    query: DeviationQuery,
    cost_cap: float | None = None,
    *,
    deadline: float | None = None,
    iteration_budget: int | None = None,
) -> tuple[Deviation | None, QueryStats]:
    """Run the search; returns (deviation or None, stats).

    Once an extracted label's cost, which includes the query's prefix
    cost, reaches ``cost_cap`` (None: no cap), the query aborts. The cap
    thus compares the very fold the caller ranks candidates by. That is
    sound in both queue orders, because every completion still ahead
    costs at least the current extraction's scalar cost: in plain order
    extraction is cost-monotone, and in guided order the key is a lower
    bound on completion cost and never falls below the scalar cost. A
    capped or exhausted query returns None.

    The deviation is read off the found label's chain: its label over
    arc i has overlap i + 1 exactly when arcs 0..i are the reference's,
    as the simple reference leaves its node i only by arc i. So the first
    chain label with another overlap came over the deviation arc; the
    found path's smaller overlap guarantees one.

    The query's sweep may be partly settled: its ``dist``, the potential,
    holds exact distances at settled nodes and infinity elsewhere. Before
    the search reads the potential of a node without one, it settles the
    sweep until that node is settled, or to the end if the node cannot
    reach the target. Settled values are bit-identical to the fully
    settled sweep's (see :class:`kssp.dijkstra.ReverseSweep`), so every
    potential the search reads is final and the search runs exactly as
    under a sweep settled to the end. It reads the potential of the root,
    finite as :func:`build_query` checks the reference runs from it to the
    target, and of each node it extends a label to; a node it extracts or
    rebuilds was enqueued, so it was read before. The zero potential of
    a query without a sweep has no infinite entry, so it never asks.

    Tree walk. Let the loop have just made the label L = (c, o) at node
    v permanent, with its cost below the cap, and let no rebuild be
    pending at v: its least dropped overlap is at least o. (The target's
    tree arc is -1, so no walk starts there.) The plain loop would now
    push L over each of v's out-arcs. A step of the walk from v defers
    all of these pushes but the one over the tree arc a = tree[v], and
    sets aside in their place the bound B = (c + s)(1 - 2^-50) as the
    entry ``(B, -1, v, i, a)``, where i indexes L in v's frontier and
    s, memoized per node by
    ``sweep.sidetrack_of``, is the least cost(b) + dist[head] over v's
    out-arcs b other than a, with the sweep's horizon standing in for an
    unsettled head. No deferred push keys below B: a push over b keys at
    fl(fl(c + cost(b)) + dist), which is at least
    (c + cost(b) + dist)(1 - u)^2 for u = 2^-53, while s is at most
    (1 + u) times the least exact sum, as masks only remove arcs and the
    horizon never decreases; the scale by 1 - 2^-50 covers these
    roundings and its own (sums that fall below the normal range are
    exact). The overlap -1 sorts a bound before any entry of equal key.
    When the loop pops a bound, it runs its push block from label i of v
    over v's out-arcs but a.

    The walk then settles L' = (c', o'), the push of L over a to w, in
    the block that settles a popped label: it counts it, makes the
    budget and deadline checks and makes it permanent at w, and goes on
    from L'. It does so only while L' keys strictly below the heap's top
    key and every bound set aside so far; neither a nor w is masked; L' is not
    dominated at w; c' is below the cost cap, so that the loop, not the
    walk, stops on a capped label; and no rebuild would be pending at w:
    the least overlap dropped at w, with that of the queued candidate L'
    replaces, is at least o'. At the first step that fails, and at the
    target, the walk stops: the bounds set aside go into the heap, and
    the loop's push block and rebuild check run from the last label
    settled. A found answer ends the query there.

    Why the order is the plain loop's. The plain loop extracts, at each
    step, the least entry over all nodes of each node's least
    nondominated extension of the permanent labels, and at one node key
    order is (cost, overlap) order. With deferral, the extensions behind
    a bound still in the heap are left out until it pops; dropped
    overlaps and rebuilds cover all others as before, and a rebuild
    that finds a deferred one only brings it in early. So if the plain
    loop's next label E is deferred, its bound B sits in the heap at or
    below E, and every queued candidate is no less than its node's least
    extension, so no less than E: B pops, pushing E, before anything is
    extracted. Otherwise E is its node's candidate and is extracted
    next. None of this asks which label a bound stands for. A step of
    the walk is such an extraction: L' keys below every heap entry and
    every bound, so it is the next entry the loop would pop; it is not
    dominated, and it replaces any queued candidate at w, which keys at
    or above the heap top, so above L', and, as fl(x + p) is monotone in
    x, costs more than c'. No rebuild runs at
    the node left: at v it was ruled out on entry, at each later node
    before settling, and the pushes from a node change no dropped
    overlap of its own, as a push to itself is dominated. Extraction
    order, the answer, ``iterations``, ``target_extractions`` and
    ``outcome`` are therefore the plain loop's; ``tree_steps`` counts
    the labels the walk settled. One choice the argument leaves open: of
    two extensions equal in cost and overlap at one node, the loop
    keeps the one offered first, and a deferred push comes later than
    in the plain loop. The differential tests compare answers, and the
    hand-built ones every permanent label, to catch a twin kept
    differently. The search keeps no record of its own order: the tests
    read it from outside, from the live heap pops, each followed by the
    walk's chain of labels, and the permanent labels left in the
    workspace.
    """
    ws = query.workspace
    g = ws.graph
    out_arcs = g.out_arcs
    in_arcs = g.in_arcs
    arc_head = g.arc_head
    arc_tail = g.arc_tail
    arc_cost = g.arc_cost
    node_stamp = ws.mask.node_stamp
    arc_stamp = ws.mask.arc_stamp
    epoch = ws.mask.epoch
    ref = frozenset(query.ref_arcs)
    target = query.target
    ref_len = len(query.ref_arcs)
    prefix_cost = query.prefix_cost
    sweep = query.sweep
    if sweep is not None:
        pot = sweep.dist
    else:
        if ws.zero_potential is None:
            ws.zero_potential = [0.0] * g.node_count
        pot = ws.zero_potential
    unreachable = float("inf")

    ws.serial += 1
    serial = ws.serial
    frontiers = ws.frontiers
    f_stamp = ws.frontier_stamp
    queued = ws.queued
    q_stamp = ws.queued_stamp
    cursors: dict[int, int] = {}  # per in-arc, how far rebuilds have scanned its tail's list
    dropped = ws.dropped
    counter = 0
    iterations = 0
    tree_steps = 0
    t_hits = 0
    outcome = "exhausted"
    found = None
    if sweep is not None and pot[query.source] == unreachable:
        sweep.settle(0.0, query.source)
    tree = sweep.tree if sweep is not None else None
    sidetrack = sweep.sidetrack if sweep is not None else None
    shrink = _SHRINK

    entry = (prefix_cost + pot[query.source], 0, query.source, 0, (prefix_cost, 0, -1, -1))
    queued[query.source] = entry
    q_stamp[query.source] = serial
    dropped[query.source] = unreachable
    heap = [entry]

    aside: list[tuple] = []  # the bounds a tree walk sets aside, until it stops
    while heap:
        e = heappop(heap)
        node = e[2]
        if q_stamp[node] != serial or queued[node] is not e:
            if e[1] >= 0:
                continue  # superseded by a cheaper candidate for this node
            # a bound of a tree walk: push from the label it names over the arcs
            # it stands for
            last_idx = e[3]
            lab = frontiers[node][last_idx]
            ecost = lab[0]
            eover = lab[1]
            f = None
            arcs = [a for a in out_arcs[node] if a != e[4]]
        else:
            queued[node] = None
            lab = e[4]
            ecost = lab[0]
            eover = e[1]
            # the tree walk of the docstring goes on from the popped label only
            # if no rebuild is pending at its node
            a = tree[node] if tree is not None and dropped[node] >= eover else -1
            limit = heap[0][0] if heap else unreachable
            while True:
                # settle lab at node: the popped label, then each step of the walk
                iterations += 1
                if iteration_budget is not None and iterations > iteration_budget:
                    raise SearchLimit("iterations")
                if deadline is not None and iterations % 256 == 0 and perf_counter() > deadline:
                    raise SearchLimit("deadline")
                if cost_cap is not None and ecost >= cost_cap:
                    outcome = "cost-capped"
                    break
                if f_stamp[node] == serial:
                    f = frontiers[node]
                    f.append(lab)
                else:
                    f_stamp[node] = serial
                    frontiers[node] = f = [lab]
                last_idx = len(f) - 1
                # take the tree extension next while the loop would, setting aside
                # one bound for the other pushes of the node left
                if a < 0 or arc_stamp[a] == epoch:
                    break
                w = arc_head[a]
                if node_stamp[w] == epoch:
                    break
                side = sidetrack[node]
                if side < 0.0:
                    side = sweep.sidetrack_of(node)
                side = (ecost + side) * shrink
                if side < limit:
                    limit = side
                nc = ecost + arc_cost[a]
                if not nc + pot[w] < limit or (cost_cap is not None and nc >= cost_cap):
                    break
                no = eover + 1 if a in ref else eover
                if f_stamp[w] == serial and no >= frontiers[w][-1][1]:
                    break
                if q_stamp[w] == serial:
                    least = dropped[w]
                    cur = queued[w]
                    if cur is not None and cur[1] < least:
                        least = cur[1]  # the candidate the label replaces
                    if least < no:
                        break  # w would need a rebuild
                else:
                    least = unreachable
                    q_stamp[w] = serial
                queued[w] = None
                dropped[w] = least
                aside.append((side, -1, node, last_idx, a))
                tree_steps += 1
                lab = (nc, no, a, last_idx)
                node = w
                ecost = nc
                eover = no
                a = tree[w]
            if outcome == "cost-capped":
                break
            if node == target:
                t_hits += 1
                if eover < ref_len:
                    found = lab
                    break
                # the reference itself; record it, never propagate target labels
                arcs = ()
            else:
                arcs = out_arcs[node]
            if aside:
                if heap:
                    for b in aside:
                        heappush(heap, b)
                    aside.clear()
                else:
                    heap, aside = aside, heap
                    heapify(heap)
        for a in arcs:
            if arc_stamp[a] == epoch:
                continue
            w = arc_head[a]
            if node_stamp[w] == epoch:
                continue
            if pot[w] == unreachable:
                if sweep.horizon == unreachable:
                    continue
                sweep.settle(0.0, w)
                if pot[w] == unreachable:
                    continue
            no = eover + 1 if a in ref else eover
            if f_stamp[w] == serial and no >= frontiers[w][-1][1]:
                continue
            nc = ecost + arc_cost[a]
            if q_stamp[w] == serial:
                cur = queued[w]
            else:
                cur = None
                q_stamp[w] = serial
                dropped[w] = unreachable  # nothing dropped at w yet
            if cur is None or nc < cur[4][0] or (nc == cur[4][0] and no < cur[1]):
                if cur is not None and cur[1] < dropped[w]:
                    dropped[w] = cur[1]  # the replaced candidate
                counter += 1
                key = nc + pot[w]
                ne = (key, no, w, counter, (nc, no, a, last_idx))
                queued[w] = ne
                heappush(heap, ne)
            elif no < dropped[w]:
                dropped[w] = no  # this push lost to the queued candidate
        # rebuild this node's next queued candidate from incoming cursors;
        # only an extension dropped from its queue slot can beat vmin
        if f is not None and dropped[node] < f[-1][1]:
            vmin = f[-1][1]
            best = None
            for a in in_arcs[node]:
                u = arc_tail[a]
                if f_stamp[u] != serial or arc_stamp[a] == epoch or node_stamp[u] == epoch:
                    continue
                fu = frontiers[u]
                i = cursors.get(a, 0)
                n_u = len(fu)
                ra = 1 if a in ref else 0
                while i < n_u and fu[i][1] + ra >= vmin:
                    i += 1
                cursors[a] = i
                if i == n_u:
                    continue
                lu = fu[i]
                lab = (lu[0] + arc_cost[a], lu[1] + ra, a, i)
                if best is None or lab[:2] < best[:2]:
                    best = lab
            if best is not None:
                counter += 1
                ne = (best[0] + pot[node], best[1], node, counter, best)
                queued[node] = ne
                q_stamp[node] = serial
                heappush(heap, ne)

    if found is None:
        return None, QueryStats(iterations, t_hits, outcome, tree_steps)
    chain = reconstruct(g, found, frontiers)
    i = 0
    while chain[i][1] == i + 1:
        i += 1
    via = chain[i]
    suffix = tuple(step[2] for step in chain[i:])
    result = Deviation(via[2], i, suffix, BiCost(found[0], found[1]), via[0])
    return result, QueryStats(iterations, t_hits, "found", tree_steps)
