"""Reference solvers used to cross-check the main driver.

Both solvers here favor transparency over speed. ``yen_k_shortest`` is
the classic spur-based algorithm: every accepted path is re-searched at
every position along it, with prefix nodes masked and the continuation
arcs of already accepted paths blocked. ``enumerate_simple_paths`` is
plain exhaustive search. Their cost sequences are authoritative in
tests; the main driver must reproduce them exactly.
"""
from __future__ import annotations

import operator
from bisect import insort
from dataclasses import dataclass
from time import perf_counter

from .dijkstra import reverse_distances, shortest_path
from .engine import ABORTED, COMPLETE, EXHAUSTED, SolveLimitExceeded, SolveStats, check_limits
from .graph import ZERO, Graph, Mask, Path, check_endpoints


@dataclass
class YenReport:
    """The paths :func:`yen_k_shortest` found, in output order, with status and stats."""

    paths: list[Path]
    status: str
    stats: SolveStats

    @property
    def costs(self) -> list[float]:
        return [p.cost for p in self.paths]


def yen_k_shortest(
    g: Graph, s: int, t: int, k: int, *, accelerated: bool = False, timeout_s: float | None = None
) -> YenReport:
    """k cheapest simple s-t paths by repeated spur searches.

    The candidate list is trimmed to the number of still missing paths;
    anything at least as expensive as its worst kept entry can never be
    needed, because replacements only ever cost more, so once the list
    is full each spur search takes its worst entry's cost as ``cap``.
    That cap's slack is relative: scaling every cost by a power of two
    changes neither the paths nor the stats. With ``accelerated`` exact
    reverse distances prune the first search and serve the spur searches
    as an A* potential. No device changes the returned cost sequence. In
    the stats, spur searches count as queries and their pop counts as
    iterations; a failed search that ran with a cap counts as capped
    even if it would also have failed without it. A graph failing
    ``Graph.folds_in_range`` gets the plain searches. Yen keeps no
    deviation tree, so the report holds bare paths; a timeout, or
    running out of memory, raises
    :class:`kssp.engine.SolveLimitExceeded` carrying the partial report.
    """
    s, t = check_endpoints(g, s, t)
    k, timeout_s, _ = check_limits(k, timeout_s)

    t_start = perf_counter()
    deadline = t_start + timeout_s if timeout_s is not None else None
    stats = SolveStats()
    paths: list[Path] = []

    def finish(status: str) -> YenReport:
        stats.wall_time_s = perf_counter() - t_start
        return YenReport(paths, status, stats)

    trie: dict[int, dict] = {}
    seen: set[tuple[int, ...]] = set()
    arc_cost = g.arc_cost
    cands: list[tuple[float, int, tuple[int, ...]]] = []
    push_counter = 0

    def admit(arcs: tuple[int, ...]) -> None:
        seen.add(arcs)
        cur = trie
        for a in arcs:
            cur = cur.setdefault(a, {})

    # the set-up is in the try too: a MemoryError there ends the solve with
    # the paths found so far, none or the first
    try:
        potential = reverse_distances(g, t) if accelerated and g.folds_in_range else None
        # A* on a rounded potential can close a node early; pruning cannot
        p1, pops = shortest_path(g, s, t, prune=potential)
        stats.init_queries = 1
        stats.add_query(pops, p1 is not None)
        if p1 is None:
            return finish(EXHAUSTED)
        paths.append(p1)
        mask = Mask(g)
        admit(p1.arcs)

        while len(paths) < k:
            arcs = paths[-1].arcs
            nodes = paths[-1].nodes(g)
            room = k - len(paths)
            mask.reset()
            cursor = trie
            root_cost = ZERO
            for j in range(len(arcs)):
                if j > 0:
                    mask.delete_node(nodes[j - 1])
                    root_cost += arc_cost[arcs[j - 1]]
                    cursor = cursor[arcs[j - 1]]
                # Arcs blocked at earlier positions keep their deletion
                # stamps, which is harmless: their tails are masked now.
                for a in cursor:
                    mask.delete_arc(a)
                if deadline is not None and (j & 31) == 0 and perf_counter() > deadline:
                    raise SolveLimitExceeded("deadline", finish(ABORTED))
                cap = cands[-1][0] if len(cands) >= room else None
                spur, pops = shortest_path(g, nodes[j], t, mask=mask, potential=potential, cap=cap, start=root_cost)
                stats.add_query(pops, spur is not None, cap is not None)
                if spur is None:
                    continue
                cand_arcs = arcs[:j] + spur.arcs
                if cand_arcs in seen:
                    continue
                seen.add(cand_arcs)
                cost = spur.cost
                if len(cands) >= room and cost >= cands[-1][0]:
                    continue
                push_counter += 1
                insort(cands, (cost, push_counter, cand_arcs))
                if len(cands) > room:
                    del cands[room:]
            if not cands:
                return finish(EXHAUSTED)
            cost, _, cand_arcs = cands.pop(0)
            paths.append(Path(cand_arcs, cost))
            admit(cand_arcs)
    except MemoryError:
        # the report needs none of the candidates, the seen paths or the trie:
        # drop them first, or building it can fail too
        cands.clear()
        seen.clear()
        trie.clear()
        raise SolveLimitExceeded("memory", finish(ABORTED)) from None
    return finish(COMPLETE)


def enumerate_simple_paths(
    g: Graph, s: int, t: int, max_paths: int = 1_000_000
) -> list[Path]:
    """Every simple s-t path, sorted by cost with arc ids as tie-break.

    Exhaustive and exponential; meant for small graphs in tests and
    checks. When more than ``max_paths`` paths exist only the cheapest
    ``max_paths`` are returned (ties resolved toward smaller arc ids); a
    ``max_paths`` that is not an int of at least 1 raises ValueError first.
    """
    s, t = check_endpoints(g, s, t)
    try:
        max_paths = operator.index(max_paths)
    except TypeError:
        raise ValueError(f"max_paths must be an int, got {max_paths!r}") from None
    if max_paths < 1:
        raise ValueError("max_paths must be at least 1")

    found: list[tuple[float, tuple[int, ...]]] = []
    stack: list[int] = []
    visited = {s}
    out_arcs = g.out_arcs
    arc_head = g.arc_head
    arc_cost = g.arc_cost
    compact_at = max_paths + 4096

    def walk(u: int, cost: float) -> None:
        if u == t:
            found.append((cost, tuple(stack)))
            if len(found) >= compact_at:
                found.sort()
                del found[max_paths:]
            return
        for a in out_arcs[u]:
            v = arc_head[a]
            if v in visited:
                continue
            visited.add(v)
            stack.append(a)
            walk(v, cost + arc_cost[a])
            stack.pop()
            visited.remove(v)

    walk(s, ZERO)
    found.sort()
    del found[max_paths:]
    return [Path(arcs, cost) for cost, arcs in found]
