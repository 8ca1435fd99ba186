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
incoming arc remembers how far into the predecessor's permanent list the
scan has advanced, and never has to back up because dominated stays
dominated. When a freshly permanent label is pushed along an outgoing
arc it replaces the neighbor's queued candidate only if strictly
lexicographically smaller.

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

Guided mode. The caller may supply a potential: exact distances to the
target in the unmasked graph, from one reverse run shared by all
queries of a solve. The queue then orders labels by cost plus potential
at the label's node instead of plain cost. Masking only removes routes,
so the potential never overestimates the remaining cost and the answer
is unchanged; the search just spreads far less. The potential is a
per-node constant, so every per-node property above carries over
verbatim, and it is zero at the target, so target extractions still
arrive in plain (cost, overlap) order. Nodes that cannot reach the
target at all are never enqueued. Without a potential the order is
plain lex (cost, overlap); the search runs it as an all-zero potential,
which keeps one code path and adds exactly 0.0 to every key. The
reverse run may also be settled only part of the way; the search then
settles it further whenever it needs a distance it lacks (see
:func:`find_best_deviation`).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from time import perf_counter
from typing import NamedTuple

from .dijkstra import ReverseSweep
from .graph import Graph, Mask, Path


class BiCost(NamedTuple):
    cost: float
    overlap: int


class Label(NamedTuple):
    """A permanent or queued partial path at some node.

    ``via_arc`` is the arc that reached the node (-1 for the root at the
    query source) and ``via_index`` the position of the predecessor label
    in the permanent list of that arc's tail.

    The search itself stores plain ``(cost, overlap, via_arc, via_index)``
    tuples in this field order, which are cheaper to build in the hot
    loop; :attr:`SearchDebug.frontiers` still hands back ``Label``
    instances.
    """

    cost: float
    overlap: int
    via_arc: int
    via_index: int


class Workspace:
    """Per-solve scratch shared across queries: mask, stamps, search state.

    The reference-arc membership test must be O(1) and resettable without
    touching all arcs, so it uses the same epoch trick as :class:`Mask`.
    The per-node frontiers, queue slots and dropped-extension overlaps and
    the per-arc cursors of the search live here too, as arrays validated
    against ``serial``, so a query resets in time proportional to what it
    touched, not graph size. A node's frontier list is created the first
    time a query makes a label permanent there.
    """

    __slots__ = (
        "graph",
        "mask",
        "ref_stamp",
        "ref_epoch",
        "frontiers",
        "frontier_stamp",
        "queued",
        "queued_stamp",
        "cursors",
        "cursor_stamp",
        "serial",
        "zero_potential",
        "dropped",
    )

    def __init__(self, g: Graph) -> None:
        self.graph = g
        self.mask = Mask(g)
        self.ref_stamp = [0] * g.arc_count
        self.ref_epoch = 0
        self.frontiers: list[list[tuple] | None] = [None] * g.node_count
        self.frontier_stamp = [0] * g.node_count
        self.queued: list[tuple | None] = [None] * g.node_count
        self.queued_stamp = [0] * g.node_count
        self.cursors = [0] * g.arc_count
        self.cursor_stamp = [0] * g.arc_count
        self.serial = 0
        self.zero_potential: list[float] | None = None
        self.dropped: list[float] = [0.0] * g.node_count


@dataclass
class DeviationQuery:
    """One search instance: masked graph, reference path, cost context.

    ``prefix_cost`` is the cost of the solver-side prefix in front of
    ``source``; the search itself never adds it to labels, it only feeds
    the optional cost cap check. ``potential`` optionally holds exact
    distances to the target in the unmasked graph, one per node, and
    switches the queue to guided order (see the module docstring).
    """

    graph: Graph
    workspace: Workspace
    source: int
    target: int
    ref_arcs: tuple[int, ...]
    prefix_cost: float = 0.0
    potential: list[float] | None = None

    @property
    def ref_len(self) -> int:
        return len(self.ref_arcs)


def build_query(
    g: Graph,
    source: int,
    target: int,
    ref_arcs: tuple[int, ...] | list[int],
    workspace: Workspace | None = None,
    prefix_cost: float = 0.0,
    potential: list[float] | None = None,
) -> DeviationQuery:
    """Stamp the reference arcs and validate the instance.

    The reference path must run from source to target through the masked
    graph; a masked reference would make the search answer a different
    question than the caller asked.
    """
    if potential is not None and len(potential) != g.node_count:
        raise ValueError("potential must hold one distance per node")
    ws = workspace if workspace is not None else Workspace(g)
    ws.ref_epoch += 1
    epoch = ws.ref_epoch
    stamp = ws.ref_stamp
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
        stamp[a] = epoch
        if arc_tail[a] != node:
            raise ValueError(f"reference arc {i} does not continue the path")
        node = arc_head[a]
        if arc_stamp[a] == mask_epoch or node_stamp[node] == mask_epoch:
            raise ValueError(f"reference arc {i} is masked")
    if node != target:
        raise ValueError("reference path does not end at the target")
    return DeviationQuery(g, ws, source, target, tuple(ref_arcs), prefix_cost, potential)


def reconstruct(
    g: Graph, label: tuple, frontiers: list[list[tuple]] | dict[int, list[tuple]]
) -> Path:
    """Follow predecessor links back to the query source.

    ``frontiers`` maps node to permanent labels, as the search's array or
    an equivalent mapping. Labels are indexed in :class:`Label` field
    order, so the search's plain tuples and ``Label`` instances both
    work. The label's cost was accumulated front to back along the walk,
    so it equals the left-to-right cost fold of the returned path
    exactly.
    """
    arcs: list[int] = []
    cur = label
    while cur[2] != -1:
        arcs.append(cur[2])
        cur = frontiers[g.arc_tail[cur[2]]][cur[3]]
    arcs.reverse()
    return Path(tuple(arcs), label[0])


def first_deviation(
    g: Graph, source: int, ref_arcs: tuple[int, ...], found_arcs: tuple[int, ...]
) -> tuple[int, int, int]:
    """Locate where ``found_arcs`` first leaves the reference.

    Returns ``(deviation node, deviation arc, index)`` where index is the
    number of shared leading arcs; the suffix from the deviation node is
    ``found_arcs[index:]``. Identical sequences, or one being a prefix of
    the other, violate the contract.
    """
    for i, (ra, fa) in enumerate(zip(ref_arcs, found_arcs)):
        if ra != fa:
            node = source if i == 0 else g.arc_head[ref_arcs[i - 1]]
            return node, fa, i
    raise ValueError("paths do not deviate: one is a prefix of the other")


@dataclass(frozen=True)
class Deviation:
    """Result of a successful query.

    ``suffix`` starts at the deviation node with the deviation arc and
    ends at the target; ``bicost`` scores the full source-to-target path
    the search found (prefix cost in front of the source not included).
    ``ref_index`` counts the reference arcs shared before the deviation.
    """

    node: int
    arc: int
    ref_index: int
    suffix: Path
    bicost: BiCost


class QueryStats(NamedTuple):
    iterations: int
    target_extractions: int
    outcome: str  # "found" | "exhausted" | "cost-capped"


class SearchLimit(RuntimeError):
    """Raised when an iteration budget or deadline cuts a query short."""

    def __init__(self, kind: str) -> None:
        super().__init__(f"search limit reached: {kind}")
        self.kind = kind


@dataclass
class SearchDebug:
    """Optional instrumentation; slows the search, used by tests.

    ``extracted`` records (cost, overlap, node) per extraction in order;
    ``extracted_keys`` the matching queue keys, equal to the costs when
    no potential is set; ``dominated`` the extensions skipped at
    propagation time; ``enqueued`` every entry pushed into the queue.
    With ``verify_queue`` set, each iteration recounts the live queue
    entries per node and checks their total against the nodes whose
    workspace slot holds a candidate. ``frontiers`` holds the permanent
    labels per node as :class:`Label` instances once the search
    returns.
    """

    verify_queue: bool = True
    extracted: list[tuple[float, int, int]] = field(default_factory=list)
    extracted_keys: list[float] = field(default_factory=list)
    dominated: list[tuple[float, int, int]] = field(default_factory=list)
    enqueued: list[tuple[float, int, int]] = field(default_factory=list)
    max_live_per_node: int = 0
    queue_consistent: bool = True
    frontiers: dict[int, list[Label]] | None = None


def find_best_deviation(
    query: DeviationQuery,
    cost_cap: float | None = None,
    *,
    debug: SearchDebug | None = None,
    deadline: float | None = None,
    iteration_budget: int | None = None,
    sweep: ReverseSweep | None = None,
) -> tuple[Deviation | None, QueryStats]:
    """Run the search; returns (deviation or None, stats).

    Once the extracted scalar cost plus the query's prefix cost reaches
    ``cost_cap`` (None: no cap), the query aborts. That is sound in both
    queue orders, because every completion still ahead costs at least
    the current extraction's scalar cost: in plain order extraction is
    cost-monotone, and in guided order the key is a lower bound on
    completion cost and never falls below the scalar cost. A capped or
    exhausted query returns None.

    ``sweep`` lets the potential be a partly settled
    :class:`kssp.dijkstra.ReverseSweep` whose ``dist`` is the query's
    potential: exact distances at settled nodes, infinity elsewhere.
    Before the search reads the potential of a node without one, it
    settles the sweep until that node is settled, or to the end if the
    node cannot reach the target. Settled values are bit-identical to
    the fully settled sweep's (see :class:`kssp.dijkstra.ReverseSweep`),
    so every potential the search reads is final and the search runs
    exactly as under :func:`kssp.dijkstra.reverse_distances`. It reads
    the potential of the root and of each node it extends a label to;
    a node it extracts or rebuilds was enqueued, so it was read before.
    """
    g = query.graph
    out_arcs = g.out_arcs
    in_arcs = g.in_arcs
    arc_head = g.arc_head
    arc_tail = g.arc_tail
    arc_cost = g.arc_cost
    ws = query.workspace
    node_stamp = ws.mask.node_stamp
    arc_stamp = ws.mask.arc_stamp
    epoch = ws.mask.epoch
    ref_stamp = ws.ref_stamp
    ref_epoch = ws.ref_epoch
    target = query.target
    ref_len = query.ref_len
    prefix_cost = query.prefix_cost
    pot = query.potential
    if pot is None:
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
    cursors = ws.cursors
    c_stamp = ws.cursor_stamp
    dropped = ws.dropped
    heap: list[tuple] = []
    counter = 0
    iterations = 0
    t_hits = 0
    outcome = "exhausted"
    result: Deviation | None = None
    if sweep is not None:
        if sweep.dist is not pot:
            raise ValueError("the sweep must hold the query's potential")
        if pot[query.source] == unreachable:
            sweep.settle(0.0, query.source)

    root_key = pot[query.source]
    if root_key == unreachable:
        return None, QueryStats(0, 0, outcome)
    entry = (root_key, 0, query.source, 0, (0.0, 0, -1, -1))
    queued[query.source] = entry
    q_stamp[query.source] = serial
    dropped[query.source] = unreachable
    heap.append(entry)
    if debug is not None:
        debug.enqueued.append((0.0, 0, query.source))

    while heap:
        e = heappop(heap)
        node = e[2]
        if q_stamp[node] != serial or queued[node] is not e:
            continue  # superseded by a cheaper candidate for this node
        queued[node] = None
        iterations += 1
        if iteration_budget is not None and iterations > iteration_budget:
            raise SearchLimit("iterations")
        if deadline is not None and iterations % 256 == 0 and perf_counter() > deadline:
            raise SearchLimit("deadline")
        lab = e[4]
        ecost = lab[0]
        eover = e[1]
        if cost_cap is not None and prefix_cost + ecost >= cost_cap:
            outcome = "cost-capped"
            break
        if f_stamp[node] == serial:
            f = frontiers[node]
            f.append(lab)
        else:
            f_stamp[node] = serial
            frontiers[node] = f = [lab]
        if debug is not None:
            debug.extracted.append((ecost, eover, node))
            debug.extracted_keys.append(e[0])
        if node == target:
            t_hits += 1
            if eover < ref_len:
                found = reconstruct(g, lab, frontiers)
                dev_node, dev_arc, idx = first_deviation(g, query.source, query.ref_arcs, found.arcs)
                suffix_arcs = found.arcs[idx:]
                suffix_cost = 0.0
                for a in suffix_arcs:
                    suffix_cost += arc_cost[a]
                result = Deviation(
                    node=dev_node,
                    arc=dev_arc,
                    ref_index=idx,
                    suffix=Path(suffix_arcs, suffix_cost),
                    bicost=BiCost(ecost, eover),
                )
                outcome = "found"
                break
            # the reference itself; record it, never propagate target labels
        else:
            last_idx = len(f) - 1
            for a in out_arcs[node]:
                if arc_stamp[a] == epoch:
                    continue
                w = arc_head[a]
                if node_stamp[w] == epoch:
                    continue
                if pot[w] == unreachable:
                    if sweep is None or sweep.horizon == unreachable:
                        continue
                    sweep.settle(0.0, w)
                    if pot[w] == unreachable:
                        continue
                no = eover + 1 if ref_stamp[a] == ref_epoch else eover
                if f_stamp[w] == serial and no >= frontiers[w][-1][1]:
                    if debug is not None:
                        debug.dominated.append((ecost + arc_cost[a], no, w))
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
                    if debug is not None:
                        debug.enqueued.append((nc, no, w))
                elif no < dropped[w]:
                    dropped[w] = no  # this push lost to the queued candidate
        # rebuild this node's next queued candidate from incoming cursors;
        # only an extension dropped from its queue slot can beat vmin
        vmin = f[-1][1]
        if dropped[node] < vmin:
            best_c = 0.0
            best_o = 0
            best_arc = -1
            best_idx = -1
            have = False
            for a in in_arcs[node]:
                u = arc_tail[a]
                if f_stamp[u] != serial or arc_stamp[a] == epoch or node_stamp[u] == epoch:
                    continue
                fu = frontiers[u]
                i = cursors[a] if c_stamp[a] == serial else 0
                n_u = len(fu)
                ra = 1 if ref_stamp[a] == ref_epoch else 0
                while i < n_u and fu[i][1] + ra >= vmin:
                    i += 1
                cursors[a] = i
                c_stamp[a] = serial
                if i == n_u:
                    continue
                lu = fu[i]
                cc = lu[0] + arc_cost[a]
                co = lu[1] + ra
                if not have or cc < best_c or (cc == best_c and co < best_o):
                    best_c = cc
                    best_o = co
                    best_arc = a
                    best_idx = i
                    have = True
            if have:
                counter += 1
                key = best_c + pot[node]
                ne = (key, best_o, node, counter, (best_c, best_o, best_arc, best_idx))
                queued[node] = ne
                q_stamp[node] = serial
                heappush(heap, ne)
                if debug is not None:
                    debug.enqueued.append((best_c, best_o, node))
        if debug is not None and debug.verify_queue:
            live: dict[int, int] = {}
            for other in heap:
                w = other[2]
                if q_stamp[w] == serial and queued[w] is other:
                    live[w] = live.get(w, 0) + 1
            if live:
                debug.max_live_per_node = max(debug.max_live_per_node, max(live.values()))
            slots = sum(
                1 for v in range(g.node_count) if q_stamp[v] == serial and queued[v] is not None
            )
            if sum(live.values()) != slots:
                debug.queue_consistent = False

    if debug is not None:
        debug.frontiers = {
            v: [Label._make(lab) for lab in frontiers[v]]
            for v in range(g.node_count)
            if f_stamp[v] == serial
        }
    return result, QueryStats(iterations, t_hits, outcome)
