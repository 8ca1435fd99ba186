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
keeps all candidates structurally distinct. With n paths accepted, the
queue keeps only its k - n cheapest candidates, as Yen's does. A
dropped candidate has k - n candidates ahead of it, cheaper or equal
and pushed earlier; that threshold never rises, and no path of the
dropped candidate's subtree costs less, so none of them could be
output. Three prune rules cut work without changing the returned
paths:

- a query aborts once it provably cannot beat the last queued
  candidate while the queue holds k - n of them (cost cap);
- a guided ask is not searched when it is made: it stays pending
  behind its bound, the least sidetrack along its reference with the
  record's blocked arcs left out
  (:meth:`kssp.dijkstra.ReverseSweep.deviation_bound`), until that
  bound could reach the queue front. An ask whose bound passes the
  cap's prune limit when it is made is dropped and counts as a capped
  query with no labels; an ask still pending when the run ends is not
  counted at all;
- the run ends early when the cheapest queued cost tier alone fills
  the remaining output slots.

Queued candidates sit in one list of ``(cost, push counter, record)``
tuples kept sorted with ``insort``. The driver pops the cheapest from
the front, so equal costs leave in push order. The same list serves
every prune rule: once it holds k - n candidates its last entry is the
cap, and the run stops when that cap ties with the cheapest. Pending
asks sit in a heap of ``(bound, push counter, record index)``: each
takes its push counter when it is made, pending asks are searched
lowest bound first, and a candidate found is queued under its ask's
counter. The walk that computes a bound stops as soon as it falls
within the front's prune limit, and the ask is then keyed at -inf,
which is still a lower bound; the partial minimum would not be.

Why deferring changes no output. Let F be the front's cost. Before the
early-stop check and before each pop, the driver searches every
pending ask whose bound B is at most ``prune_limit(g, F)``, and any
while no candidate is queued. An ask left pending has
``B > prune_limit(g, F)``, while its answer D has
``B <= prune_limit(g, D)`` (see ``deviation_bound``); as that limit is
monotone in its cost, D > F. So no pending answer ties the front, let
alone precedes it, and each pop takes the candidate an eager driver,
one that searches every ask when it is made, would take. At an early
stop the queue is full and all of it costs F, so a pending answer
would be trimmed at once. An ask's answer is the same whenever it is
searched: the record gains no blocked arc while its ask is pending, as
only the ask's own candidate could give it one, and no search's answer
depends on how far the sweep has settled. Its push counter keeps equal
costs in the eager driver's order. A late search's cap still cuts only
answers that would be trimmed, except that an answer equal to the cap
sorts before a last candidate pushed after the ask; the search then
runs under ``successor(cap)``. Unguided solves have no sweep, so
every bound is -inf and each ask is searched at the next check, in push
order, under the cap it would have met when made: they run as the eager
driver does, counters included.

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
switches the queries to plain lexicographic order. Unguided solves, k=1
and graphs failing ``Graph.folds_in_range`` build no sweep and keep the
plain first-path search, so no guided cap is infinite.

A guided solve takes its workspace and sweep as a pair from a pool kept
on the graph, and gives it back on every exit, aborted or failed ones
included, so a graph asked many pairs allocates its node arrays once
per solve running at once, not once per solve. The sweep restarts
toward the new target in place (:meth:`kssp.dijkstra.ReverseSweep.restart`);
the workspace's stamps only grow, so it needs no reset, and it drops
its past frontiers when given back. A new pair makes the blank tuples
both resets copy from before its solve starts, so giving a pair back
builds no blank, even after a ``MemoryError``. A pair in the pool
refers to no graph, so dropping a graph frees its pool at once. The
answer of a solve never depends on whether its pair is new.
"""
from __future__ import annotations

import operator
from bisect import insort
from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import inf
from numbers import Real
from time import perf_counter
from typing import TYPE_CHECKING

from .biobjective import SearchLimit, Workspace, build_query, find_best_deviation
# reverse_distances is not called here, but perfbench/spans.py looks this name
# up on import; drop it once the benchmark traces ReverseSweep.settle instead
from .dijkstra import ReverseSweep, reverse_distances, shortest_path
from .graph import ZERO, Graph, Path, PathError, check_endpoints, path_cost, prune_limit, successor

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
    capped_queries: int = 0  # includes asks dropped on their bound, with 0 labels
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


def check_limits(
    k: int, timeout_s: float | None, label_budget: int | None = None
) -> tuple[int, float | None, int | None]:
    """Return k and the label budget as ints and the timeout as a float;
    raise ValueError for a k that is not an int of at least 1, a timeout
    that is not a real number (such as text), NaN or negative, or a label
    budget that is not a nonnegative int.

    A NaN deadline or budget would never strike, a fractional budget
    would strike a label early, and a negative limit would abort a solve
    as if it had run out. A timeout beyond the float range, such as
    ``10**400``, becomes infinity, which never strikes, so that adding it
    to the clock cannot overflow. An int-like object, one with
    ``__index__``, is accepted, and the solvers go on with the int it
    stands for.
    """
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"k must be an int, got {k!r}") from None
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if timeout_s is not None:
        if not (isinstance(timeout_s, Real) and timeout_s >= 0.0):
            raise ValueError(f"timeout must be a nonnegative number of seconds, got {timeout_s!r}")
        try:
            timeout_s = float(timeout_s)
        except OverflowError:
            timeout_s = inf
    if label_budget is not None:
        try:
            label_budget = operator.index(label_budget)
        except TypeError:
            raise ValueError(f"label budget must be an int, got {label_budget!r}") from None
        if label_budget < 0:
            raise ValueError(f"label budget must be nonnegative, got {label_budget}")
    return k, timeout_s, label_budget


def queue_max_cap(solution_count: int, candidates: list[tuple], k: int) -> float | None:
    """Cost cap for in-query pruning, or None while it would be unsound.

    ``candidates`` is the driver's sorted candidate list. Only once queued
    candidates plus accepted paths already cover k can a query whose
    results all cost at least the last queued candidate be aborted. The
    driver keeps no more than the k - ``solution_count`` cheapest, so the
    cap is the (k - n)-th cheapest queued cost, the tightest sound one.
    """
    if candidates and solution_count + len(candidates) >= k:
        return candidates[-1][0]
    return None


def k_shortest_paths(
    g: Graph, s: int, t: int, k: int, options: SolveOptions | None = None
) -> SolveReport:
    """Solve for the k cheapest simple s-t paths in nondecreasing cost order.

    Returns a report whose status is ``complete`` when k paths exist and
    ``exhausted-early`` when the instance has fewer. Raises
    :class:`SolveLimitExceeded` when a timeout or label budget strikes.
    """
    opts = options or SolveOptions()
    s, t = check_endpoints(g, s, t)
    k, timeout_s, label_budget = check_limits(k, opts.timeout_s, opts.label_budget)
    t_start = perf_counter()
    # k=1 and unguided solves read no potential, and settling a sweep as far
    # as s costs about as much as the plain search it would prune
    if not (opts.guided and k > 1 and g.folds_in_range):
        return _solve(g, s, t, k, opts, timeout_s, label_budget, t_start, None, None)
    # the solve's scratch comes from g's pool and goes back to it on every exit;
    # pop and append are each one atomic step, so no two solves share a pair
    try:
        ws, sweep = g._scratch.pop()
    except IndexError:  # none kept yet, or other solves hold them all
        ws, sweep = Workspace(g), ReverseSweep(g, t)
        # a first forget or restart makes the blanks it resets from: make them
        # here, so that the finally below builds none after a MemoryError
        ws.forget()
    ws.graph = sweep.graph = g
    sweep.restart(t)
    try:
        return _solve(g, s, t, k, opts, timeout_s, label_budget, t_start, ws, sweep)
    finally:
        # a kept pair refers to no graph, so a graph is freed as soon as it is
        # dropped, pool included, without waiting for a cyclic collection
        ws.forget()
        ws.graph = sweep.graph = None
        g._scratch.append((ws, sweep))


def _solve(
    g: Graph, s: int, t: int, k: int, opts: SolveOptions, timeout_s: float | None, label_budget: int | None,
    t_start: float, ws: Workspace | None, sweep: ReverseSweep | None,
) -> SolveReport:
    """The body of :func:`k_shortest_paths`, guided by ``sweep`` unless it is None."""
    deadline = t_start + timeout_s if timeout_s is not None else None
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

    if sweep is not None:
        sweep.settle(ZERO, s)
        sweep.settle(prune_limit(g, sweep.dist[s]))
    p1, _ = shortest_path(g, s, t, prune=sweep.dist if sweep is not None else None)
    if p1 is None:
        return finish(EXHAUSTED)
    records.append(PathRecord(p1, None, s, 0, s, 0, ZERO))
    if k == 1:
        return finish(COMPLETE)

    if ws is None:
        ws = Workspace(g)
    cands: list[tuple[float, int, PathRecord]] = []
    pending: list[tuple[float, int, int]] = []  # a heap of (bound, push counter, record index)
    push_counter = 0
    seen_candidates: set[tuple[int, ...]] | None = set() if opts.validate else None
    arc_tail = g.arc_tail

    def ask(origin_index: int) -> None:
        """Take the next push counter for record ``origin_index``'s query; defer it or drop it."""
        nonlocal push_counter
        push_counter += 1
        bound = -inf
        if sweep is not None:
            origin = records[origin_index]
            ref = origin.path.arcs[origin.source_pos:]
            # an ask whose bound falls within the front's limit is searched at the next check
            front_limit = prune_limit(g, cands[0][0]) if cands else inf
            bound = sweep.deviation_bound(ref, origin.prefix_cost, origin.blocked, front_limit)
            cap = queue_max_cap(len(records), cands, k)
            if cap is not None and bound > prune_limit(g, cap):
                stats.add_query(0, False, True)  # nothing it could find would stay queued
                return
        heappush(pending, (bound, push_counter, origin_index))

    def run(counter: int, origin_index: int) -> None:
        """Queue record ``origin_index``'s cheapest deviation not generated before, as ``counter``."""
        cap = queue_max_cap(len(records), cands, k)
        # an answer equal to the cap sorts before a last candidate pushed after the ask
        if cap is not None and cands[-1][1] > counter:
            cap = successor(cap)
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
        query = build_query(ws, origin.source_node, t, arcs[sp:], origin.prefix_cost, sweep)
        budget = None if label_budget is None else label_budget - stats.labels_extracted
        try:
            dev, qstats = find_best_deviation(query, cap, deadline=deadline, iteration_budget=budget)
        except SearchLimit as exc:
            raise limit(exc.kind) from exc
        stats.add_query(qstats.iterations, dev is not None, qstats.outcome == "cost-capped")
        if dev is None:
            return
        dev_arc = dev.suffix[0]
        if dev_arc in origin.blocked:
            raise RuntimeError("deviation arc regenerated for the same parent")
        dev_pos = sp + dev.ref_index
        arcs = arcs[:dev_pos] + dev.suffix
        if seen_candidates is not None:
            if arcs in seen_candidates:
                raise RuntimeError("duplicate candidate generated")
            seen_candidates.add(arcs)
        rec = PathRecord(
            Path(arcs, dev.cost), origin_index, arc_tail[dev_arc], dev_pos,
            g.arc_head[dev_arc], dev_pos + 1, dev.source_cost,
        )
        origin.blocked.append(dev_arc)
        insort(cands, (dev.cost, counter, rec))
        # the candidates past the first k - n can never be output
        del cands[k - len(records):]

    stats.init_queries = 1
    ask(0)

    # the queue holds k - n candidates at most, so no pop takes the k-th path
    while True:
        if deadline is not None and perf_counter() > deadline:
            raise limit("deadline")
        # search every pending ask whose answer might tie or precede the front;
        # its bound is then within the cap's prune limit too, as no cap is below the front
        while pending and (not cands or pending[0][0] <= prune_limit(g, cands[0][0])):
            _, counter, origin_index = heappop(pending)
            run(counter, origin_index)
        if not cands:
            return finish(EXHAUSTED)
        if queue_max_cap(len(records), cands, k) == cands[0][0]:
            records.extend(entry[2] for entry in cands)
            return finish(COMPLETE)
        rec = cands.pop(0)[2]
        records.append(rec)
        ask(len(records) - 1)
        ask(rec.parent_index)


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
