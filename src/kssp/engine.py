"""Driver producing the k cheapest pairwise distinct simple s-t paths.

The first path comes from a scalar shortest-path search. Every further
path is the cheapest deviation from an already accepted path, found by
the biobjective search in :mod:`kssp.biobjective`. Accepted paths and
pending candidates form a tree: each candidate remembers its parent, the
node where it leaves the parent (deviation node, at some position along
the path) and the first node of its own new suffix (source node). After
extracting a path from the candidate queue the driver asks at most two
queries:

* a child of the extracted path: search restarted at its source node,
  with every node strictly before the source on the path masked away so
  the fixed prefix cannot be re-entered;
* the next sibling: the same kind of query against the parent, with the
  deviation arcs of the parent's previously generated children blocked
  so the search must find a new one.

Generated deviation arcs are recorded per parent (``blocked``), which
keeps all candidates structurally distinct. Two optional prune rules cut
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
path (see :func:`kssp.dijkstra.shortest_path`). The distances then go
to every biobjective query as a potential. Queries expand only nodes
that can still lead to the target cheaply instead of flooding a cost
ball around their source, which changes iteration counts and extraction
order but provably never the returned paths. A query that needs the
distance of a node the sweep has not settled yet settles the sweep on
up to that node (see :func:`kssp.biobjective.find_best_deviation`).
Settled distances never change, so every query reads exactly the fully
settled distances, while a solve settles only the nodes its queries
touch. ``guided=False`` switches the queries to plain lexicographic
order. Unguided solves and k=1 build no sweep and keep the plain
first-path search.
"""
from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from time import perf_counter

from .biobjective import Deviation, SearchLimit, Workspace, build_query, find_best_deviation
# reverse_distances is not called here, but perfbench/spans.py looks this name
# up on import; drop it once the benchmark traces ReverseSweep.settle instead
from .dijkstra import ReverseSweep, prune_limit, reverse_distances, shortest_path
from .graph import Graph, Path, is_simple

COMPLETE = "complete"
EXHAUSTED = "exhausted-early"
ABORTED = "aborted"


@dataclass
class SolveOptions:
    """Knobs for one solve.

    ``guided`` feeds every query exact reverse distances as a potential,
    settled on demand (same results, far fewer iterations); the prune
    flags toggle the two cost-sequence-neutral prune rules;
    ``label_budget`` caps the total labels extracted across all queries;
    ``validate`` runs structural checks on the finished report.
    """

    guided: bool = True
    prune_queue_max: bool = True
    prune_queue_min: bool = True
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
    ``path.arcs[:source_pos]``. ``blocked`` collects the deviation arcs
    of this record's generated children.
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
    """Timeout or label budget hit; carries the partial report."""

    def __init__(self, kind: str, report: SolveReport) -> None:
        super().__init__(f"solve aborted: {kind}")
        self.kind = kind
        self.report = report


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
    n = g.node_count
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"endpoint out of range: s={s}, t={t}, nodes={n}")
    if s == t:
        raise ValueError("source and target must differ")
    if k < 1:
        raise ValueError("k must be at least 1")

    t_start = perf_counter()
    deadline = t_start + opts.timeout_s if opts.timeout_s is not None else None
    stats = SolveStats()
    records: list[PathRecord] = []

    def finish(status: str) -> SolveReport:
        stats.wall_time_s = perf_counter() - t_start
        report = SolveReport(records, status, stats)
        if opts.validate and status != ABORTED:
            _validate_report(g, report)
        return report

    def limit(kind: str) -> SolveLimitExceeded:
        return SolveLimitExceeded(kind, finish(ABORTED))

    # k=1 and unguided solves read no potential, and settling a sweep as far
    # as s costs about as much as the plain search it would prune
    sweep = None
    potential = None
    if opts.guided and k > 1:
        sweep = ReverseSweep(g, t)
        sweep.settle(0.0, s)
        sweep.settle(prune_limit(g, sweep.dist[s]))
        potential = sweep.dist
    p1, _ = shortest_path(g, s, t, prune=potential)
    if p1 is None:
        return finish(EXHAUSTED)
    records.append(PathRecord(p1, None, s, 0, s, 0, 0.0))
    if k == 1:
        return finish(COMPLETE)

    ws = Workspace(g)
    cands: list[tuple[float, int, PathRecord]] = []
    push_counter = 0
    seen_candidates: set[tuple[int, ...]] | None = set() if opts.validate else None
    arc_cost = g.arc_cost
    arc_tail = g.arc_tail

    def run_query(origin_index: int, use_blocked: bool) -> Deviation | None:
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
        if use_blocked:
            for a in origin.blocked:
                mask.delete_arc(a)
        query = build_query(
            g, origin.source_node, t, arcs[sp:], ws, origin.prefix_cost, potential
        )
        cap = queue_max_cap(len(records), cands, k) if opts.prune_queue_max else None
        budget = None
        if opts.label_budget is not None:
            budget = opts.label_budget - stats.labels_extracted
            if budget <= 0:
                raise limit("label-budget")
        try:
            dev, qstats = find_best_deviation(
                query, cap, deadline=deadline, iteration_budget=budget, sweep=sweep
            )
        except SearchLimit as exc:
            raise limit(exc.kind) from exc
        stats.queries_attempted += 1
        stats.labels_extracted += qstats.iterations
        if dev is None:
            stats.queries_failed += 1
            stats.failed_iterations += qstats.iterations
            if qstats.outcome == "cost-capped":
                stats.capped_queries += 1
        else:
            stats.success_iterations += qstats.iterations
        return dev

    def add_candidate(origin_index: int, dev: Deviation) -> None:
        nonlocal push_counter
        origin = records[origin_index]
        if dev.arc in origin.blocked:
            raise RuntimeError("deviation arc regenerated for the same parent")
        dev_pos = origin.source_pos + dev.ref_index
        source_pos = dev_pos + 1
        arcs = origin.path.arcs[:dev_pos] + dev.suffix.arcs
        # the fold up to the origin's source is cached; continue it from there
        cost = origin.prefix_cost
        prefix_cost = 0.0
        for i in range(origin.source_pos, len(arcs)):
            cost += arc_cost[arcs[i]]
            if i + 1 == source_pos:
                prefix_cost = cost
        if seen_candidates is not None:
            if arcs in seen_candidates:
                raise RuntimeError("duplicate candidate generated")
            seen_candidates.add(arcs)
        rec = PathRecord(
            path=Path(arcs, cost),
            parent_index=origin_index,
            dev_node=dev.node,
            dev_pos=dev_pos,
            source_node=g.arc_head[dev.arc],
            source_pos=source_pos,
            prefix_cost=prefix_cost,
        )
        origin.blocked.append(dev.arc)
        push_counter += 1
        insort(cands, (cost, push_counter, rec))

    stats.init_queries = 1
    dev = run_query(0, use_blocked=False)
    if dev is not None:
        add_candidate(0, dev)

    while len(records) < k:
        if deadline is not None and perf_counter() > deadline:
            raise limit("deadline")
        if opts.prune_queue_min and queue_min_ready(len(records), cands, k):
            records.extend(entry[2] for entry in cands[: k - len(records)])
            return finish(COMPLETE)
        if not cands:
            return finish(EXHAUSTED)
        rec = cands.pop(0)[2]
        records.append(rec)
        if len(records) == k:
            return finish(COMPLETE)
        extracted_index = len(records) - 1
        dev = run_query(extracted_index, use_blocked=False)
        if dev is not None:
            add_candidate(extracted_index, dev)
        parent_index = rec.parent_index
        assert parent_index is not None
        dev = run_query(parent_index, use_blocked=True)
        if dev is not None:
            add_candidate(parent_index, dev)
    return finish(COMPLETE)


def _validate_report(g: Graph, report: SolveReport) -> None:
    """Structural checks used by tests and ``--check`` style runs."""
    records = report.records
    last_cost = None
    seen_paths: set[tuple[int, ...]] = set()
    for idx, rec in enumerate(records):
        if not is_simple(g, rec.path):
            raise AssertionError(f"path {idx} is not simple")
        if rec.path.arcs in seen_paths:
            raise AssertionError(f"path {idx} duplicates an earlier path")
        seen_paths.add(rec.path.arcs)
        if last_cost is not None and rec.path.cost < last_cost:
            raise AssertionError(f"path {idx} breaks cost order")
        last_cost = rec.path.cost
        if rec.parent_index is not None:
            parent = records[rec.parent_index]
            if rec.parent_index >= idx:
                raise AssertionError(f"path {idx} has a later parent")
            if rec.dev_pos < parent.source_pos:
                raise AssertionError(f"path {idx} deviates inside its parent's prefix")
            if rec.path.arcs[: rec.dev_pos] != parent.path.arcs[: rec.dev_pos]:
                raise AssertionError(f"path {idx} does not share its parent's prefix")
        if len(set(rec.blocked)) != len(rec.blocked):
            raise AssertionError(f"record {idx} has duplicate blocked arcs")
        path_nodes = set(rec.path.nodes(g))
        for a in rec.blocked:
            if g.arc_tail[a] not in path_nodes:
                raise AssertionError(f"record {idx} blocks an arc off the path")
