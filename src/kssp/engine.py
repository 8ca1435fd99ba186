"""Driver producing the k cheapest pairwise distinct simple s-t paths.

The first path comes from a scalar shortest-path search. Every further
path is the cheapest deviation from an already accepted path, found by
the biobjective search in :mod:`kssp.biobjective`. Accepted paths and
pending candidates form a tree: each candidate remembers its parent, the
node where it leaves the parent (deviation node, at some position along
the path) and the first node of its own new suffix (source node).

Every query is of one kind, Roditty's second-shortest-path question
asked of one record: its cheapest deviation not generated before. The
search restarts at the record's source node with every node strictly
before it on the path masked away, so the fixed prefix cannot be
re-entered, and with the deviation arcs of the record's earlier
children blocked, so it must find a new one. After extracting a path
from the candidate queue the driver asks it of two records: the
extracted path, which has no children yet, and its parent.

Generated deviation arcs are recorded per parent (``blocked``), which
keeps all candidates structurally distinct. Two prune rules cut
work without changing the returned cost sequence: a query aborts early
once it provably cannot beat the most expensive queued candidate while
the queue already holds enough paths (cost cap), and the run ends early
when the cheapest queued cost tier alone suffices to fill the remaining
output slots.

Queued candidates sit in one list of ``(cost, push counter, record)``
tuples kept sorted with ``insort``. The driver pops the cheapest from
the front, so equal costs leave in push order. The same list serves
both prune rules: its last entry is the most expensive candidate, and
one bisection counts the tier that ties with the cheapest.

By default the driver computes exact distances to the target with one
reverse scalar search over the unmasked graph, a
:class:`kssp.dijkstra.ReverseSweep` settled only as far as the solve
looks. It first settles until the source is settled and then up to the
first path's prune limit, which bounds the first-path search: it pops
little more than the path itself yet returns exactly the plain search's
path (see :func:`kssp.dijkstra.shortest_path`). The sweep then goes to
every biobjective query, whose potential is its ``dist``. Queries
expand only nodes that can still lead to the target cheaply instead of
flooding a cost ball around their source, which changes iteration
counts and extraction order but provably never the returned paths. A
query that needs the distance of a node the sweep has not settled yet
settles the sweep on up to that node (see
:func:`kssp.biobjective.find_best_deviation`). Settled distances never
change, so every query reads exactly the fully settled distances, while
a solve settles only the nodes its queries touch. ``guided=False``
switches the queries to plain lexicographic order. Unguided solves and
k=1 build no sweep and keep the plain first-path search.
"""
from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING

from .biobjective import SearchLimit, Workspace, build_query, find_best_deviation
# reverse_distances is not called here, but perfbench/spans.py looks this name
# up on import; drop it once the benchmark traces ReverseSweep.settle instead
from .dijkstra import ReverseSweep, prune_limit, reverse_distances, shortest_path
from .graph import Graph, Path, PathError, check_endpoints, path_cost

if TYPE_CHECKING:
    from .oracles import YenReport

COMPLETE = "complete"
EXHAUSTED = "exhausted-early"
ABORTED = "aborted"


@dataclass
class SolveOptions:
    """Knobs for one solve.

    ``guided`` gives every query a reverse sweep as its potential,
    settled on demand (same results, far fewer iterations);
    ``label_budget`` caps the total labels extracted across all queries;
    ``validate`` checks the finished report against the contract.
    """

    guided: bool = True
    timeout_s: float | None = None
    label_budget: int | None = None
    validate: bool = False


@dataclass
class PathRecord:
    """An accepted or queued path with its position in the deviation tree.

    ``dev_pos`` is the arc index of the deviation node along the path
    (identical along the shared prefix of parent and child), and
    ``source_pos`` the index of the first suffix node, which is
    ``dev_pos + 1`` everywhere except the root record where both are 0.
    ``prefix_cost`` caches the left-to-right cost fold of
    ``path.arcs[:source_pos]``, the root label cost of the record's
    queries. ``blocked`` collects the deviation arcs of its children.
    """

    path: Path
    parent_index: int | None
    dev_node: int
    dev_pos: int
    source_node: int
    source_pos: int
    prefix_cost: float
    blocked: list[int] = field(default_factory=list)


@dataclass
class SolveStats:
    queries_attempted: int = 0  # includes the initialization query
    init_queries: int = 0
    queries_failed: int = 0
    capped_queries: int = 0
    success_iterations: int = 0
    failed_iterations: int = 0
    labels_extracted: int = 0
    wall_time_s: float = 0.0

    def add_query(self, iterations: int, found: bool, capped: bool = False) -> None:
        """Count one query that extracted ``iterations`` labels; ``capped`` counts only if it failed."""
        self.queries_attempted += 1
        self.labels_extracted += iterations
        if found:
            self.success_iterations += iterations
            return
        self.queries_failed += 1
        self.failed_iterations += iterations
        if capped:
            self.capped_queries += 1

    @property
    def queries_succeeded(self) -> int:
        return self.queries_attempted - self.queries_failed

    @property
    def mean_success_iterations(self) -> float | None:
        n = self.queries_succeeded
        return self.success_iterations / n if n else None

    @property
    def mean_failed_iterations(self) -> float | None:
        n = self.queries_failed
        return self.failed_iterations / n if n else None


@dataclass
class SolveReport:
    records: list[PathRecord]
    status: str
    stats: SolveStats

    @property
    def paths(self) -> list[Path]:
        return [r.path for r in self.records]

    @property
    def costs(self) -> list[float]:
        return [r.path.cost for r in self.records]


class SolveLimitExceeded(RuntimeError):
    """Timeout or label budget hit; carries the partial report of the raising solver."""

    def __init__(self, kind: str, report: SolveReport | YenReport) -> None:
        super().__init__(f"solve aborted: {kind}")
        self.kind = kind
        self.report = report


def check_limits(k: int, timeout_s: float | None, label_budget: int | None = None) -> None:
    """Raise ValueError for k below 1, a NaN or negative timeout, or a negative label budget.

    A NaN deadline would never strike, and a negative limit would abort
    a solve as if it had run out.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if timeout_s is not None and not timeout_s >= 0.0:
        raise ValueError(f"timeout must be a nonnegative number of seconds, got {timeout_s}")
    if label_budget is not None and label_budget < 0:
        raise ValueError(f"label budget must be nonnegative, got {label_budget}")


def queue_max_cap(solution_count: int, candidates: list[tuple], k: int) -> float | None:
    """Cost cap for in-query pruning, or None while it would be unsound.

    ``candidates`` is the driver's sorted candidate list. Only once queued
    candidates plus accepted paths already cover k can a query whose
    results all cost at least the worst queued candidate be aborted.
    """
    if candidates and solution_count + len(candidates) >= k:
        return candidates[-1][0]
    return None


def queue_min_ready(solution_count: int, candidates: list[tuple], k: int) -> bool:
    """True when the cheapest cost tier alone fills the remaining slots.

    Every future candidate costs at least the current cheapest queued
    cost, so the run may stop and drain the queue. Push counters are
    finite, so ``(cheapest, inf)`` sorts right after the cheapest tier.
    """
    if not candidates:
        return False
    return solution_count + bisect_right(candidates, (candidates[0][0], float("inf"))) >= k


def k_shortest_paths(
    g: Graph, s: int, t: int, k: int, options: SolveOptions | None = None
) -> SolveReport:
    """Solve for the k cheapest simple s-t paths in nondecreasing cost order.

    Returns a report whose status is ``complete`` when k paths exist and
    ``exhausted-early`` when the instance has fewer. Raises
    :class:`SolveLimitExceeded` when a timeout or label budget strikes.
    """
    opts = options or SolveOptions()
    check_endpoints(g, s, t)
    check_limits(k, opts.timeout_s, opts.label_budget)

    t_start = perf_counter()
    deadline = t_start + opts.timeout_s if opts.timeout_s is not None else None
    stats = SolveStats()
    records: list[PathRecord] = []

    def finish(status: str) -> SolveReport:
        stats.wall_time_s = perf_counter() - t_start
        report = SolveReport(records, status, stats)
        if opts.validate and status != ABORTED:
            _validate_report(g, s, t, report)
        return report

    def limit(kind: str) -> SolveLimitExceeded:
        return SolveLimitExceeded(kind, finish(ABORTED))

    # k=1 and unguided solves read no potential, and settling a sweep as far
    # as s costs about as much as the plain search it would prune
    sweep = None
    if opts.guided and k > 1:
        sweep = ReverseSweep(g, t)
        sweep.settle(0.0, s)
        sweep.settle(prune_limit(g, sweep.dist[s]))
    p1, _ = shortest_path(g, s, t, prune=sweep.dist if sweep is not None else None)
    if p1 is None:
        return finish(EXHAUSTED)
    records.append(PathRecord(p1, None, s, 0, s, 0, 0.0))
    if k == 1:
        return finish(COMPLETE)

    ws = Workspace(g)
    cands: list[tuple[float, int, PathRecord]] = []
    push_counter = 0
    seen_candidates: set[tuple[int, ...]] | None = set() if opts.validate else None
    arc_tail = g.arc_tail

    def ask(origin_index: int) -> None:
        """Queue the cheapest deviation from record ``origin_index`` not generated before."""
        nonlocal push_counter
        origin = records[origin_index]
        mask = ws.mask
        mask.reset()
        arcs = origin.path.arcs
        sp = origin.source_pos
        # the nodes strictly before the source are the tails of the prefix arcs
        node_stamp = mask.node_stamp
        epoch = mask.epoch
        for a in arcs[:sp]:
            node_stamp[arc_tail[a]] = epoch
        for a in origin.blocked:
            mask.delete_arc(a)
        query = build_query(g, origin.source_node, t, arcs[sp:], ws, origin.prefix_cost, sweep)
        cap = queue_max_cap(len(records), cands, k)
        budget = None if opts.label_budget is None else opts.label_budget - stats.labels_extracted
        try:
            dev, qstats = find_best_deviation(query, cap, deadline=deadline, iteration_budget=budget)
        except SearchLimit as exc:
            raise limit(exc.kind) from exc
        stats.add_query(qstats.iterations, dev is not None, qstats.outcome == "cost-capped")
        if dev is None:
            return
        if dev.arc in origin.blocked:
            raise RuntimeError("deviation arc regenerated for the same parent")
        dev_pos = sp + dev.ref_index
        arcs = arcs[:dev_pos] + dev.suffix
        if seen_candidates is not None:
            if arcs in seen_candidates:
                raise RuntimeError("duplicate candidate generated")
            seen_candidates.add(arcs)
        cost = dev.bicost.cost
        rec = PathRecord(
            path=Path(arcs, cost),
            parent_index=origin_index,
            dev_node=dev.node,
            dev_pos=dev_pos,
            source_node=g.arc_head[dev.arc],
            source_pos=dev_pos + 1,
            prefix_cost=dev.source_cost,
        )
        origin.blocked.append(dev.arc)
        push_counter += 1
        insort(cands, (cost, push_counter, rec))

    stats.init_queries = 1
    ask(0)

    while len(records) < k:
        if deadline is not None and perf_counter() > deadline:
            raise limit("deadline")
        if queue_min_ready(len(records), cands, k):
            records.extend(entry[2] for entry in cands[: k - len(records)])
            return finish(COMPLETE)
        if not cands:
            return finish(EXHAUSTED)
        rec = cands.pop(0)[2]
        records.append(rec)
        if len(records) == k:
            return finish(COMPLETE)
        ask(len(records) - 1)
        ask(rec.parent_index)
    return finish(COMPLETE)


def _validate_report(g: Graph, s: int, t: int, report: SolveReport) -> None:
    """Check the report against the contract; raise AssertionError at the first breach.

    Every record must be a simple s-t walk whose cost is exactly the left
    fold of its arc costs, distinct from the ones before it and no
    cheaper, and must sit in the deviation tree as its fields claim.
    """
    records = report.records
    last_cost = None
    seen_paths: set[tuple[int, ...]] = set()
    for idx, rec in enumerate(records):
        try:
            fold = path_cost(g, rec.path)
        except PathError as exc:
            raise AssertionError(f"path {idx} is not a walk: {exc}") from None
        nodes = rec.path.nodes(g)
        if not nodes or (nodes[0], nodes[-1]) != (s, t):
            raise AssertionError(f"path {idx} does not run from {s} to {t}")
        if rec.path.cost != fold:
            raise AssertionError(f"path {idx} costs {rec.path.cost!r}, its arcs fold to {fold!r}")
        node_set = set(nodes)
        if len(node_set) != len(nodes):
            raise AssertionError(f"path {idx} is not simple")
        if rec.path.arcs in seen_paths:
            raise AssertionError(f"path {idx} duplicates an earlier path")
        seen_paths.add(rec.path.arcs)
        if last_cost is not None and rec.path.cost < last_cost:
            raise AssertionError(f"path {idx} breaks cost order")
        last_cost = rec.path.cost
        if rec.parent_index is not None:
            if rec.parent_index >= idx:
                raise AssertionError(f"path {idx} has a later parent")
            parent = records[rec.parent_index]
            if rec.dev_pos < parent.source_pos:
                raise AssertionError(f"path {idx} deviates inside its parent's prefix")
            if rec.path.arcs[: rec.dev_pos] != parent.path.arcs[: rec.dev_pos]:
                raise AssertionError(f"path {idx} does not share its parent's prefix")
        if len(set(rec.blocked)) != len(rec.blocked):
            raise AssertionError(f"record {idx} has duplicate blocked arcs")
        for a in rec.blocked:
            if g.arc_tail[a] not in node_set:
                raise AssertionError(f"record {idx} blocks an arc off the path")
