"""Scalar shortest-path searches on arc-weighted digraphs.

Costs follow the model of :mod:`kssp.graph`: returned paths carry left
folds of their arc costs, continued from the prefix's fold where a search
starts part way along a path.
"""
from __future__ import annotations

from heapq import heappop, heappush
from math import inf

from .graph import ZERO, Graph, Mask, Path, prune_limit

OPTIONS_KEPT = 1024  # nodes whose options ReverseSweep.options_of keeps at once


def shortest_path(
    g: Graph,
    source: int,
    target: int,
    *,
    mask: Mask | None = None,
    potential: list[float] | None = None,
    cap: float | None = None,
    prune: list[float] | None = None,
    start: float = ZERO,
) -> tuple[Path | None, int]:
    """Cheapest simple path from source to target, with the pop count.

    Ties break deterministically on node id. ``mask`` hides deleted
    nodes and arcs. ``potential`` turns the search into A*; entries must
    never overestimate the remaining cost to the target (exact reverse
    distances from an unmasked graph qualify, infinity marks nodes that
    cannot reach it). When costs are not exact in float, rounding makes
    such a potential slightly inconsistent, so A* may close a node early
    and return a path one rounding error above the cheapest.

    ``start`` is the cost folded in front of ``source``, such as a spur
    path's root. Labels continue that fold, so the returned cost and
    ``cap`` refer to the whole walk from the prefix's first node.

    ``cap`` drops each label whose key, label plus potential, exceeds
    ``prune_limit(g, cap)``, so None means that no path costs at most
    ``cap``, and a path a little above it may still come back. No path
    at or below it is lost: as :func:`kssp.graph.prune_limit` argues, a
    left-folded label plus a right-folded potential exceeds a
    completion's cost D by less than ``prune_limit(g, D)``'s slack, and
    the limit is monotone in D. The slack is relative, so scaling every
    cost by a power of two cuts the same labels.

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
    so ``prune`` must not be combined with one, nor with a ``start``.
    """
    node_stamp = arc_stamp = None
    epoch = 0
    if mask is not None:
        node_stamp = mask.node_stamp
        arc_stamp = mask.arc_stamp
        epoch = mask.epoch
        if node_stamp[source] == epoch or node_stamp[target] == epoch:
            return None, 0
    h0 = ZERO
    if potential is not None:
        h0 = potential[source]
        if h0 == inf:
            return None, 0
    cut = inf if cap is None else prune_limit(g, cap)
    if start + h0 > cut:
        return None, 0
    limit = inf
    if prune is not None:
        h = prune[source]
        if h == inf:
            return None, 0
        limit = prune_limit(g, h)

    dist: dict[int, float] = {source: start}
    via: dict[int, int] = {}
    done: set[int] = set()
    heap: list[tuple[float, int]] = [(start + h0, source)]
    pops = 0
    arc_cost = g.arc_cost
    arc_head = g.arc_head
    out_arcs = g.out_arcs
    zero = ZERO
    # every entry keys at most ``cut``: the source is checked above, and so is each push
    while heap:
        _, u = heappop(heap)
        if u in done:
            continue
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
            hv = potential[v] if potential is not None else zero
            if hv == inf:
                continue
            fv = dv + hv
            if fv > cut:
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

    ``tree`` holds one arc per node, the last arc that lowered its
    tentative distance, and -1 where none did (the target, and nodes not
    reached). A settled node u other than the target popped at the value
    that arc gave it, so ``dist[u] == arc_cost[a] + dist[head]`` bit for
    bit, with the head settled before u; the tree arcs of settled nodes
    therefore lead to the target along a shortest path whose right fold
    is ``dist``. ``sidetrack`` memoizes :meth:`sidetrack_of` per node for
    the biobjective search, -1.0 until computed (see
    :func:`kssp.biobjective.find_best_deviation`), and ``options`` memoizes
    :meth:`options_of` for the engine's tree answers.

    Why settled values are exact: stopping early only truncates the pop
    sequence of the sweep run to completion, and a node's distance is
    fixed when it pops, so every settled value is bit-identical to
    :func:`reverse_distances`. Why the horizon bounds the rest: with
    nonnegative costs the rounded sum d + c is monotone in d and never
    below d, so no push is keyed below the pop that made it and pop keys
    never decrease. An unsettled node will pop at or above the current
    heap top; stale entries of settled nodes only lower that top.

    Why the relaxation needs no test that its tail u is unsettled. A
    settled u popped at ``tentative[u]``, its least push, so ``dist[u] ==
    tentative[u]``; a relaxation from a node v settled after it has
    ``d = dist[v] >= dist[u]``, as pop keys never decrease, and
    ``fl(d + c) >= d``. So the ``< tentative[u]`` test refuses it, and
    neither a value nor a ``tree`` arc moves. The loop condition is the
    stop test: it goes on while the heap top is within ``key`` or the
    node asked for is unsettled.

    :meth:`restart` points a sweep at another target of the same graph
    and resets its arrays in place, so a solver can keep one sweep per
    graph instead of allocating four node-sized lists per solve.
    """

    __slots__ = (
        "graph", "target", "dist", "horizon", "tree", "sidetrack", "options", "_tentative", "_heap", "_blanks"
    )

    def __init__(self, g: Graph, target: int) -> None:
        self.graph = g
        self.dist = [inf] * g.node_count
        self.tree = [-1] * g.node_count
        self.sidetrack = [-1.0] * g.node_count
        self.options: dict[int, tuple[float, int, float, int, float]] = {}
        self._tentative = [inf] * g.node_count
        self._blanks: tuple[tuple, tuple, tuple] | None = None
        self._aim(target)

    def _aim(self, target: int) -> None:
        self.target = target
        self.horizon = ZERO
        self._tentative[target] = ZERO
        self._heap: list[tuple[float, int]] = [(ZERO, target)]

    def restart(self, target: int) -> None:
        """Forget every settled node and start over toward ``target``, as a new sweep would.

        The arrays are reset in place by slice assignment from blank
        tuples made at the first restart and kept, so a restart makes no
        node-sized object.
        """
        blanks = self._blanks
        if blanks is None:
            n = self.graph.node_count
            blanks = self._blanks = ((inf,) * n, (-1,) * n, (-1.0,) * n)
        unreached, no_arc, unknown = blanks
        self.dist[:] = unreached
        self._tentative[:] = unreached
        self.tree[:] = no_arc
        self.sidetrack[:] = unknown
        self.options.clear()
        self._aim(target)

    def settle(self, key: float, node: int | None = None) -> None:
        """Settle every node at most ``key`` from the target, and go on until ``node`` is settled.

        ``node`` stays unsettled only when it cannot reach the target,
        and the sweep is then done.
        """
        dist = self.dist
        tree = self.tree
        tentative = self._tentative
        heap = self._heap
        g = self.graph
        arc_cost = g.arc_cost
        arc_tail = g.arc_tail
        in_arcs = g.in_arcs
        # the target settles on the first pop, so without a node only the key stops
        stop = self.target if node is None else node
        while heap and (heap[0][0] <= key or dist[stop] == inf):
            d, v = heappop(heap)
            if dist[v] != inf:
                continue
            dist[v] = d
            for a in in_arcs[v]:
                u = arc_tail[a]
                du = d + arc_cost[a]
                if du < tentative[u]:
                    tentative[u] = du
                    tree[u] = a
                    heappush(heap, (du, u))
        self.horizon = heap[0][0] if heap else inf

    def sidetrack_of(self, v: int) -> float:
        """Compute, memoize in ``sidetrack`` and return the sidetrack bound of settled node v.

        That is the least ``arc_cost[b] + dist[head]`` over v's out-arcs b
        other than ``tree[v]``, with the horizon standing in for an
        unsettled head, and infinity if there is none. As the horizon never
        decreases, the value stays a lower bound on the same sum for the
        distances settled later.
        """
        g = self.graph
        arc_head = g.arc_head
        arc_cost = g.arc_cost
        dist = self.dist
        a = self.tree[v]
        side = inf
        for b in g.out_arcs[v]:
            if b != a:
                d = dist[arc_head[b]]
                if d == inf:
                    d = self.horizon
                d += arc_cost[b]
                if d < side:
                    side = d
        self.sidetrack[v] = side
        return side

    def options_of(self, v: int) -> tuple[float, int, float, int, float]:
        """Compute, memoize in ``options`` and return the least three options out of settled node v.

        An option is one of v's out-arcs b other than ``tree[v]``, valued
        at ``arc_cost[b] + dist[head]``, with the horizon standing in for
        an unsettled head, as in :meth:`sidetrack_of`. A bounce, an option
        whose head's tree arc leads straight back to v, is valued at
        ``arc_cost[b] + sidetrack[head]`` instead: a simple path from v
        over b cannot go back to v, so it leaves the head over another
        arc. Either way the value is a lower bound on the exact cost of
        every simple path from v to the target that starts with b, up to
        the roundings of its sums, and stays one as the sweep goes on.

        The result is ``(v1, b1, v2, b2, v3)``: the least value and its
        arc, the next and its arc, and the third value, taken in out-arc
        order among equal values, with infinity and arc -1 where v has
        fewer options. The memo is cleared when it holds
        ``OPTIONS_KEPT`` nodes, so it never grows past that, and at each
        :meth:`restart`. :func:`kssp.engine.tree_answer` reads it.
        """
        g = self.graph
        arc_head = g.arc_head
        arc_cost = g.arc_cost
        dist = self.dist
        tree = self.tree
        horizon = self.horizon
        a = tree[v]
        v1 = v2 = v3 = inf
        b1 = b2 = -1
        for b in g.out_arcs[v]:
            if b != a:
                w = arc_head[b]
                d = dist[w]
                if d == inf:
                    d = horizon
                elif (back := tree[w]) >= 0 and arc_head[back] == v:
                    # a simple path through b cannot take w's tree arc back to v
                    d = self.sidetrack[w]
                    if d < 0:
                        d = self.sidetrack_of(w)
                d += arc_cost[b]
                if d < v1:
                    v1, b1, v2, b2, v3 = d, b, v1, b1, v2
                elif d < v2:
                    v2, b2, v3 = d, b, v2
                elif d < v3:
                    v3 = d
        memo = self.options
        if len(memo) >= OPTIONS_KEPT:
            memo.clear()
        memo[v] = entry = (v1, b1, v2, b2, v3)
        return entry


def reverse_distances(g: Graph, target: int) -> list[float]:
    """Exact cost from every node to the target, infinity if unreachable.

    Suitable as an A* potential for forward searches toward the same
    target, including searches that additionally mask nodes or arcs,
    since removals only make true distances larger.
    """
    sweep = ReverseSweep(g, target)
    sweep.settle(inf)
    return sweep.dist
