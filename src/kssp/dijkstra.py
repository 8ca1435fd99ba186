"""Scalar shortest-path searches on arc-weighted digraphs.

Costs of returned paths are left-to-right folds of their arc costs, the
same convention used everywhere else in the package, so equal paths
always carry bit-identical costs.
"""
from __future__ import annotations

from heapq import heappop, heappush
from math import inf

from .graph import Graph, Mask, Path


def prune_limit(g: Graph, h: float) -> float:
    """Largest label plus distance to the target that :func:`shortest_path` keeps under ``prune``.

    That is ``h + h * (2n + 4) * 2**-52`` for a first path of cost ``h``
    on n nodes; the slack covers rounding (see :func:`shortest_path`).
    """
    return h + h * (2 * g.node_count + 4) * 2.0**-52


def shortest_path(
    g: Graph,
    source: int,
    target: int,
    *,
    mask: Mask | None = None,
    potential: list[float] | None = None,
    bound: float | None = None,
    prune: list[float] | None = None,
) -> tuple[Path | None, int]:
    """Cheapest simple path from source to target, with the pop count.

    Ties break deterministically on node id. ``mask`` hides deleted
    nodes and arcs. ``potential`` turns the search into A*; entries must
    never overestimate the remaining cost to the target (exact reverse
    distances from an unmasked graph qualify, infinity marks nodes that
    cannot reach it). When costs are not exact in float, rounding makes
    such a potential slightly inconsistent, so A* may close a node early
    and return a path one rounding error above the cheapest. ``bound``
    abandons any label whose lower bound meets it, so a return of None
    then means no path cheaper than the bound, not necessarily no path
    at all.

    ``prune`` takes :func:`reverse_distances` of the same unmasked graph
    toward ``target``. The search then returns exactly the plain
    search's path, cost and tie choice while popping little more than
    that path: the pop order stays (cost, node id), and the only change
    is that a node v is never pushed with a label d for which
    ``d + prune[v] > limit``, where ``limit = prune_limit(g, h)``,
    ``h = prune[source]`` and n is the node count. The ``dist`` of a
    :class:`ReverseSweep` settled up to that limit serves as well: its
    settled entries are the full distances, and every other entry
    exceeds the limit in both lists, so ``d + prune[v] > limit`` holds
    for it whatever d is.

    Why this is exact: with nonnegative costs the rounded sum x + c is
    monotone in x and never below x, so the plain search labels every
    node with the least left-to-right fold over all paths to it, and the
    pruned search, whose labels are folds too, can only tie or exceed
    that. Let P be the plain search's path. d and ``prune[v]`` are folds
    of at most n - 1 nonnegative terms, each within a factor
    ``1 +- (n - 1) * 2**-53`` of its exact sum, and h is no less than
    the exact cheapest cost shrunk by that factor. So for every node v
    of P, ``d + prune[v]`` exceeds h by at most ``(4n - 3) * 2**-53 * h``
    plus second-order terms, within the slack of ``(4n + 8) * 2**-53 * h``
    for graphs below 2**26 nodes. The nodes of P are therefore pushed
    with their plain labels and pop in the same order relative to each
    other and to the target. The ``via`` arc of a node of P comes from
    its predecessor on P; any other predecessor that ties for that label
    pops later in the plain search and no earlier in the pruned one, so
    it cannot take the ``via`` arc over. Masks make true distances grow,
    so ``prune`` must not be combined with one.
    """
    node_stamp = arc_stamp = None
    epoch = 0
    if mask is not None:
        node_stamp = mask.node_stamp
        arc_stamp = mask.arc_stamp
        epoch = mask.epoch
        if node_stamp[source] == epoch or node_stamp[target] == epoch:
            return None, 0
    h0 = 0.0
    if potential is not None:
        h0 = potential[source]
        if h0 == inf:
            return None, 0
    if bound is not None and h0 >= bound:
        return None, 0
    limit = inf
    if prune is not None:
        h = prune[source]
        if h == inf:
            return None, 0
        limit = prune_limit(g, h)

    dist: dict[int, float] = {source: 0.0}
    via: dict[int, int] = {}
    done: set[int] = set()
    heap: list[tuple[float, int]] = [(h0, source)]
    pops = 0
    arc_cost = g.arc_cost
    arc_head = g.arc_head
    out_arcs = g.out_arcs
    while heap:
        f, u = heappop(heap)
        if u in done:
            continue
        if bound is not None and f >= bound:
            break
        pops += 1
        if u == target:
            arcs: list[int] = []
            v = u
            while v != source:
                a = via[v]
                arcs.append(a)
                v = g.arc_tail[a]
            arcs.reverse()
            return Path(tuple(arcs), dist[target]), pops
        done.add(u)
        du = dist[u]
        hu = potential[u] if potential is not None else 0.0
        for a in out_arcs[u]:
            if arc_stamp is not None and arc_stamp[a] == epoch:
                continue
            v = arc_head[a]
            if v in done:
                continue
            if node_stamp is not None and node_stamp[v] == epoch:
                continue
            dv = du + arc_cost[a]
            old = dist.get(v)
            if old is not None and old <= dv:
                continue
            if prune is not None and dv + prune[v] > limit:
                continue
            hv = potential[v] if potential is not None else 0.0
            if hv == inf:
                continue
            fv = dv + hv
            if bound is not None and fv >= bound:
                continue
            dist[v] = dv
            via[v] = a
            heappush(heap, (fv, v))
    return None, pops


class ReverseSweep:
    """Dijkstra from the target over reversed arcs, settled only as far as asked.

    ``dist`` holds the exact cost to the target of every settled node and
    infinity for all others, so it can go straight to a search as a
    potential or as ``prune``. :meth:`settle` resumes the same heap loop
    where the last call stopped. ``horizon`` is a lower bound on the cost
    to the target of every node not yet settled: the heap top, or
    infinity once the sweep is done.

    Why settled values are exact: stopping early only truncates the pop
    sequence of the sweep run to completion, and a node's distance is
    fixed when it pops, so every settled value is bit-identical to
    :func:`reverse_distances`. Why the horizon bounds the rest: with
    nonnegative costs the rounded sum d + c is monotone in d and never
    below d, so no push is keyed below the pop that made it and pop keys
    never decrease. An unsettled node will pop at or above the current
    heap top; stale entries of settled nodes only lower that top.
    """

    __slots__ = ("graph", "target", "dist", "horizon", "_tentative", "_heap")

    def __init__(self, g: Graph, target: int) -> None:
        self.graph = g
        self.target = target
        self.dist = [inf] * g.node_count
        self.horizon = 0.0
        self._tentative = [inf] * g.node_count
        self._tentative[target] = 0.0
        self._heap: list[tuple[float, int]] = [(0.0, target)]

    def settle(self, key: float, node: int | None = None) -> None:
        """Settle every node at most ``key`` from the target, and go on until ``node`` is settled.

        ``node`` stays unsettled only when it cannot reach the target,
        and the sweep is then done.
        """
        dist = self.dist
        tentative = self._tentative
        heap = self._heap
        g = self.graph
        arc_cost = g.arc_cost
        arc_tail = g.arc_tail
        in_arcs = g.in_arcs
        # the target settles on the first pop, so without a node only the key stops
        stop = self.target if node is None else node
        while heap:
            if heap[0][0] > key and dist[stop] != inf:
                break
            d, v = heappop(heap)
            if dist[v] != inf:
                continue
            dist[v] = d
            for a in in_arcs[v]:
                u = arc_tail[a]
                if dist[u] != inf:
                    continue
                du = d + arc_cost[a]
                if du < tentative[u]:
                    tentative[u] = du
                    heappush(heap, (du, u))
        self.horizon = heap[0][0] if heap else inf


def reverse_distances(g: Graph, target: int) -> list[float]:
    """Exact cost from every node to the target, infinity if unreachable.

    Suitable as an A* potential for forward searches toward the same
    target, including searches that additionally mask nodes or arcs,
    since removals only make true distances larger.
    """
    sweep = ReverseSweep(g, target)
    sweep.settle(inf)
    return sweep.dist
