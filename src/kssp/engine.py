"""Driver producing the k cheapest pairwise distinct simple s-t paths.

The first path comes from a scalar shortest-path search. Every further
path is the cheapest deviation from an already accepted path, found by
the biobjective search in :mod:`kssp.biobjective`. Accepted paths and
pending candidates form a tree, and each is stored as a node of it, a
:class:`PathRecord`: its parent, the position where it leaves the
parent's path and its own new suffix, which starts with the deviation
arc. That arc runs from the deviation node to the source node, the
first node the record's queries search from; the graph gives both, so
neither is stored. Each path is its parent's path up to the deviation
node followed by its suffix, as Eppstein stores each path as its parent
plus one sidetrack, so each arc is stored once, in the record that first
took it, and a whole path is built only when it is read.

Every query is of one kind, Roditty's second-shortest-path question
asked of one record: its cheapest deviation not generated before. The
search restarts at the record's source node with every node strictly
before it on the path masked away, so the fixed prefix cannot be
re-entered, and with the deviation arcs of the record's earlier
children blocked, so it must find a new one. After extracting a path
from the candidate queue the driver asks it of two records: the
extracted path, which has no children yet, and its parent. A query is
built straight from the record's fields, which meet by construction
what :func:`kssp.biobjective.build_query` checks; ``validate`` re-checks
each query with it, checks that no answer repeats a deviation arc or a
candidate, and checks the finished report.

Generated deviation arcs are recorded per parent (``blocked``), which
keeps all candidates structurally distinct. With n paths accepted, the
queue keeps only its k - n cheapest candidates, as Yen's does. A
dropped candidate has k - n candidates ahead of it, cheaper or equal
and pushed earlier; that threshold never rises, and no path of the
dropped candidate's subtree costs less, so none of them could be
output. Four prune rules cut work without changing the returned
paths:

- a query aborts once it provably cannot beat the last queued
  candidate while the queue holds k - n of them (cost cap);
- a guided ask is first tried as a tree answer when it is made, and a
  query the sweep's tree answers is not searched (see Tree answers
  below);
- any other guided ask is not searched when it is made: it stays
  pending behind its bound, the least price of a usable option on the
  tree answer's walk, until that bound could reach the queue front. An
  ask whose bound passes the cap's prune limit when it is made is
  dropped and counts as a capped query with no labels; an ask still
  pending when the run ends is not counted at all;
- the run ends early when the cheapest queued cost tier alone fills
  the remaining output slots.

Queued candidates sit in one list of ``(cost, push counter, record)``
tuples kept sorted with ``insort``. The driver pops the cheapest from
the front, so equal costs leave in push order. The same list serves
every prune rule: once it holds k - n candidates its last entry is the
cap, and the run stops when that cap ties with the cheapest. Pending
asks sit in a heap of ``(bound, push counter, record index)``: each
takes its push counter when it is made, pending asks are searched
lowest bound first, and a candidate, whether the tree gives it when the
ask is made or a search later, is queued under its ask's counter.

Why deferring changes no output. Let F be the front's cost. Before the
early-stop check and before each pop, the driver searches every
pending ask whose bound B is at most ``prune_limit(g, F)``, and any
while no candidate is queued. An ask left pending has
``B > prune_limit(g, F)``, while its answer D has
``B <= prune_limit(g, D)`` (see Tree answers); as that limit is
monotone in its cost, D > F. So no pending answer ties the front, let
alone precedes it, and each pop takes the candidate an eager driver,
one that answers every ask when it is made, would take; a tree answer
is queued just as that driver queues it. At an early stop the queue is
full and all of it costs F, so a pending answer would be trimmed at
once. An ask's answer is the same whenever it is
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

Tree answers. Almost every answer has one shape: the reference up to a
node x_j, one sidetrack (x_j, w), then w's path in the sweep's tree. So
a guided query is given to :func:`tree_answer` when it is asked, which
reads that path off the tree and proves it the search's answer, and
only a query it cannot prove is deferred and searched. Let the
reference x_0 .. x_m = t follow ``sweep.tree``, and let c_j be the left
fold of the prefix cost and the reference arcs up to x_j, the cost a
search label at x_j carries. An option at x_j is an out-arc b of x_j
other than its tree arc, a blocked arc, or an arc into a masked node or
into x_0 .. x_j, the U-turn to x_{j-1} among them; it is priced at c_j
plus its value from :meth:`kssp.dijkstra.ReverseSweep.options_of`, a
lower bound on every simple path from x_j that starts with b. That memo keeps the least two
values of each node with their arcs and the third value, so the least
usable option at x_j and a lower bound on the next one take no scan of
its arcs; a node whose option cannot lower the least two priced so far
is not even looked at. The candidate P* leaves at the x_j* of the least
priced option b* = (x_j*, w) and goes on along w's tree path, which must
avoid the masked nodes, x_0 .. x_j* and the blocked arcs, so P* is a
simple deviation. D* is its left fold, bit for bit the cost of the
search label that would reach t along it. P* is accepted only if
``prune_limit(g, D*)`` is below the cost cap and each of these exceeds
L = ``prune_limit(g, prune_limit(g, D*))``: the priced options at every
other x_j, the next option at x_j*, and c_y + ``sidetrack[y]`` at each
node y of w's tree path before t, with c_y the fold of P* up to y.

Why an accepted P* is the search's answer. Take another simple
deviation Q of cost D (a left fold too). It leaves the reference at some
x_j over an arc b; as Q is simple and the query masks them, b is an
option there. If (x_j, b) is not (x_j*, b*), D is at least the exact sum
that option's price rounds; otherwise Q follows w's tree path up to some
y and leaves it over another arc, and D is at least the exact sum that
c_y + ``sidetrack[y]`` rounds. As :func:`kssp.graph.prune_limit`
argues, such a computed sum exceeds D by less than the slack of
``prune_limit(g, D)`` (a bounce's price, see ``options_of``, rounds one
sum more, which the slack covers as well); each exceeds L, and the
limit is monotone, so D > ``prune_limit(g, D*)``. Every label of P*'s
chain keys at its fold plus its node's distance, at most
``prune_limit(g, D*)`` by the argument of
:func:`kssp.dijkstra.shortest_path`. The search extracts in the
plain loop's order (see :func:`kssp.biobjective.find_best_deviation`),
and until P*'s label at t is extracted a label of P*'s chain, or one at
the same node with no more cost and overlap, waits in it; so every
label extracted before keys at most ``prune_limit(g, D*)``, and costs
no more, as potentials are nonnegative. None reaches the cap, and a
label at t keys at its cost, so no deviation but P* reaches t first:
the search returns P*, whose ``ref_index`` is j*, suffix b* and w's tree
path, cost D*, overlap j* plus the reference arcs of that tree path
(all of them after the node where it rejoins the reference) and source
cost the fold up to w.

The least price the walk finds is the bound B of an ask the tree does
not answer. Every simple deviation of cost D leaves over an option whose
price is at least B, so by the same argument ``B <= prune_limit(g, D)``.
Where the source is not settled or the reference leaves the tree, the
walk gives up and B is -inf; a reference from t has no deviation, and
B is inf. The sweep's values only grow, so B stays a bound while the
ask waits. A tree answer extracts no labels: the stats count it as a
found query with none, in ``tree_answers``, so ``label_budget`` counts
only the labels of searches. Under ``validate`` the search
answers each tree-answered query again, on a sweep of its own so that
the solve's sweep stays as it is without the check, and must agree on
every field. Unguided solves have no tree and search every query.

A guided solve takes its workspace and sweep as a pair from a pool kept
on the graph, and gives it back on every exit, aborted or failed ones
included, so a graph asked many pairs allocates its node arrays once
per solve running at once, not once per solve. The sweep restarts
toward the new target in place (:meth:`kssp.dijkstra.ReverseSweep.restart`);
the workspace's stamps only grow, so it needs no reset, and it drops
its past frontiers when given back, from a blank tuple made with the
workspace, so giving a pair back builds no blank, even after a
``MemoryError``. A pair in the pool refers to no graph, so dropping a
graph frees its pool at once. The answer of a solve never depends on
whether its pair is new.

Running out of memory is a limit too. With a k far beyond what the
queue ever holds, no cap prunes and every candidate is kept, so a long
solve can exhaust memory. One handler covers the whole solve, from
taking the pair to the last pop: a ``MemoryError`` first drops the
queued candidates and the pending asks, the memory the report does not
need, and then raises :class:`SolveLimitExceeded` with kind ``memory``
and the paths accepted so far, as a deadline does; none before the
first path is found. A new pair that is not whole is dropped.
"""
from __future__ import annotations

import operator
from bisect import insort
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain
from math import inf
from numbers import Real
from time import perf_counter
from typing import TYPE_CHECKING, Iterator

from .biobjective import Deviation, DeviationQuery, SearchLimit, Workspace, build_query, find_best_deviation
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
    settled on demand (same results, far fewer iterations), and lets a
    query be answered from the sweep's tree without a search;
    ``label_budget`` caps the total labels the searches extract across
    all queries, which tree answers leave alone, as they extract none;
    ``validate`` checks each query, each candidate and the finished
    report against the contract and raises AssertionError at a breach.
    """

    guided: bool = True
    timeout_s: float | None = None
    label_budget: int | None = None
    validate: bool = False


@dataclass(slots=True)
class PathRecord:
    """An accepted or queued path as a node of the deviation tree.

    The path is the ``parent`` record's path up to arc index ``dev_pos``
    followed by ``suffix``, which runs from the deviation arc to t. The
    deviation node is that arc's tail and the source node its head, at
    arc index ``source_pos``, which is ``dev_pos + 1``; a record keeps
    neither node, which ``g.arc_tail`` and ``g.arc_head`` of
    ``suffix[0]`` give. The root record has no parent, ``dev_pos`` and
    ``source_pos`` 0, s as its deviation and source node, and its whole
    path as ``suffix``. ``parent_index`` is the parent's place in the
    report. ``cost`` is the left-to-right cost fold of the path and
    ``prefix_cost`` that fold of its first ``source_pos`` arcs, the root
    label cost of the record's queries. ``blocked`` collects the
    deviation arcs of its children.
    """

    # parent_index stands for the parent in repr and ==, which would otherwise walk the chain
    parent: PathRecord | None = field(repr=False, compare=False)
    parent_index: int | None
    dev_pos: int
    suffix: tuple[int, ...]
    cost: float
    prefix_cost: float
    blocked: list[int] = field(default_factory=list)

    @property
    def source_pos(self) -> int:
        return 0 if self.parent is None else self.dev_pos + 1

    @property
    def path(self) -> Path:
        """The whole path, built from the suffixes up the parent chain."""
        segments = list(self.segments(self.dev_pos + len(self.suffix)))
        return Path(tuple(chain.from_iterable(reversed(segments))), self.cost)

    def segments(self, end: int) -> Iterator[tuple[int, ...]]:
        """Yield the path's first ``end`` arcs, one slice per record up the parent chain, last first.

        A loop, not a recursion: the chain is as deep as k allows.
        """
        rec = self
        while end:
            yield rec.suffix[: end - rec.dev_pos]
            end, rec = rec.dev_pos, rec.parent


@dataclass
class SolveStats:
    queries_attempted: int = 0  # includes the initialization query
    init_queries: int = 0
    queries_failed: int = 0
    capped_queries: int = 0  # includes asks dropped on their bound, with 0 labels
    tree_answers: int = 0  # found queries answered from the sweep's tree, with 0 labels
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
        """Mean labels per found query that was searched; a tree answer extracts none."""
        n = self.queries_succeeded - self.tree_answers
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
        return [r.cost for r in self.records]


class SolveLimitExceeded(RuntimeError):
    """Timeout, label budget or memory ran out; carries the partial report of the raising solver.

    ``kind`` is ``deadline``, ``iterations`` or ``memory``.
    """

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


def tree_answer(query: DeviationQuery, cost_cap: float | None = None) -> tuple[Deviation | None, float]:
    """The answer ``find_best_deviation(query, cost_cap)`` gives, read off the sweep's tree, or None; and a bound.

    None means that the candidate fails the certificate of the module
    docstring, or that there is none: the reference leaves the tree, or
    no usable option at the least priced node is one the memo names, or
    the option's head is not settled. The bound is the least price of a
    usable option, at most ``prune_limit(g, D)`` for every deviation of
    cost D (see Tree answers): -inf where the source is not settled or
    the reference leaves the tree, and inf for an empty reference, as a
    path from the target has no deviation. The query must be guided.
    """
    ref = query.ref_arcs
    if not ref:
        return None, inf
    sweep = query.sweep
    v = query.source
    dist = sweep.dist
    if dist[v] == inf:
        return None, -inf
    ws = query.workspace
    g = ws.graph
    arc_head = g.arc_head
    arc_cost = g.arc_cost
    mask = ws.mask
    node_stamp = mask.node_stamp
    arc_stamp = mask.arc_stamp
    epoch = mask.epoch
    tree = sweep.tree
    memo = sweep.options
    options_of = sweep.options_of
    pos: dict[int, int] = {}  # reference node -> its index
    c = query.prefix_cost
    least = rest = next_least = inf
    j_least = arc_least = -1
    c_least = c
    for j, a in enumerate(ref):
        if a != tree[v]:
            return None, -inf
        pos[v] = j
        options = memo.get(v) or options_of(v)
        # no usable option is below the least, so only one below rest can count
        if c + options[0] < rest:
            v1, b1, v2, b2, v3 = options
            # the least usable option and a lower bound on the next, from the memo's
            # first arcs that are not blocked, into a masked node or back into the
            # reference so far, as the U-turn to the node before is
            if b1 >= 0 and arc_stamp[b1] != epoch and node_stamp[h := arc_head[b1]] != epoch and h not in pos:
                side, arc = v1, b1
                if b2 >= 0 and arc_stamp[b2] != epoch and node_stamp[h := arc_head[b2]] != epoch and h not in pos:
                    after = v2
                else:
                    after = v3
            elif b2 >= 0 and arc_stamp[b2] != epoch and node_stamp[h := arc_head[b2]] != epoch and h not in pos:
                side, arc, after = v2, b2, v3
            else:
                side, arc, after = v3, -1, v3
            side += c
            if side < least:
                if least < rest:
                    rest = least
                least, j_least, arc_least, c_least, next_least = side, j, arc, c, c + after
            elif side < rest:
                rest = side
        c += arc_cost[a]
        v = arc_head[a]
    if arc_least < 0:
        return None, least  # no usable option, or none the memo names
    w = arc_head[arc_least]
    if dist[w] == inf:
        return None, least
    # the candidate: the reference up to x_j*, its least sidetrack, then the tree path from its head
    source_cost = c = c_least + arc_cost[arc_least]
    suffix = [arc_least]
    overlap = j_least
    target = query.target
    sidetrack = sweep.sidetrack
    y = w
    while y != target:
        if node_stamp[y] == epoch:
            return None, least
        j = pos.get(y)
        if j is not None:
            if j <= j_least:
                return None, least
            overlap += 1  # the tree path from a later reference node is the reference
        side = sidetrack[y]
        if side < 0:
            side = sweep.sidetrack_of(y)
        side += c
        if side < rest:
            rest = side
        a = tree[y]
        if arc_stamp[a] == epoch:
            return None, least
        suffix.append(a)
        c += arc_cost[a]
        y = arc_head[a]
    limit = prune_limit(g, c)
    if cost_cap is not None and not limit < cost_cap:
        return None, least
    if min(rest, next_least) > prune_limit(g, limit):
        return Deviation(j_least, tuple(suffix), c, overlap, source_cost), least
    return None, least


def k_shortest_paths(
    g: Graph, s: int, t: int, k: int, options: SolveOptions | None = None
) -> SolveReport:
    """Solve for the k cheapest simple s-t paths in nondecreasing cost order.

    Returns a report whose status is ``complete`` when k paths exist and
    ``exhausted-early`` when the instance has fewer. Raises
    :class:`SolveLimitExceeded` when a timeout or label budget strikes or
    memory runs out.
    """
    opts = options or SolveOptions()
    s, t = check_endpoints(g, s, t)
    k, timeout_s, label_budget = check_limits(k, opts.timeout_s, opts.label_budget)
    t_start = perf_counter()
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

    cands: list[tuple[float, int, PathRecord]] = []
    pending: list[tuple[float, int, int]] = []  # a heap of (bound, push counter, record index)
    push_counter = 0
    seen_candidates: set[tuple[int, ...]] | None = set() if opts.validate else None
    arc_tail = g.arc_tail
    make_query = build_query if opts.validate else DeviationQuery  # see masked_query
    ws: Workspace | None = None
    sweep: ReverseSweep | None = None  # the solve is guided iff it has one
    check_sweep: ReverseSweep | None = None  # the tree answers' cross-check under validate

    def masked_query(origin_index: int) -> DeviationQuery:
        """Mask record ``origin_index``'s prefix nodes and blocked arcs on the workspace, and build its query.

        The query is built directly: it cannot fail :func:`build_query`'s
        check, which runs only under ``validate``. The record is a simple
        s-t path and the reference is its ``suffix[source_pos - dev_pos:]``,
        its arcs from the source node to t. The masked nodes are the tails
        of the prefix arcs before the source, so the path's simplicity keeps
        the source and every node of the reference unmasked. Each blocked
        arc is a child's deviation arc, which leaves a path node by an arc
        not on the path, so no reference arc is masked. The sweep is the
        solve's own, toward t over g. ``_validate_report`` checks these
        facts of the records. The workspace is shared, so a deferred ask is
        masked again when its turn comes.
        """
        origin = records[origin_index]
        mask = ws.mask
        mask.reset()
        sp = origin.source_pos
        # the nodes strictly before the source are the tails of the prefix arcs
        node_stamp = mask.node_stamp
        epoch = mask.epoch
        for a in chain.from_iterable(origin.segments(sp)):
            node_stamp[arc_tail[a]] = epoch
        for a in origin.blocked:
            mask.delete_arc(a)
        source = g.arc_head[origin.suffix[0]] if sp else s
        return make_query(ws, source, t, origin.suffix[sp - origin.dev_pos :], origin.prefix_cost, sweep)

    def queue(counter: int, origin_index: int, dev: Deviation) -> None:
        """Queue ``dev``, record ``origin_index``'s answer, as a candidate under push counter ``counter``."""
        origin = records[origin_index]
        dev_arc = dev.suffix[0]
        rec = PathRecord(origin, origin_index, origin.source_pos + dev.ref_index, dev.suffix, dev.cost, dev.source_cost)
        if seen_candidates is not None:
            if dev_arc in origin.blocked:
                raise AssertionError("deviation arc regenerated for the same parent")
            if (arcs := rec.path.arcs) in seen_candidates:
                raise AssertionError("duplicate candidate generated")
            seen_candidates.add(arcs)
        origin.blocked.append(dev_arc)
        insort(cands, (dev.cost, counter, rec))
        # the candidates past the first k - n can never be output
        del cands[k - len(records):]

    def ask(origin_index: int) -> None:
        """Take the next push counter for record ``origin_index``'s query; tree-answer, defer or drop it."""
        nonlocal push_counter
        push_counter += 1
        bound = -inf
        if sweep is not None:
            cap = queue_max_cap(len(records), cands, k)
            query = masked_query(origin_index)
            dev, bound = tree_answer(query, cap)
            if dev is not None:
                stats.tree_answers += 1
                stats.add_query(0, True)
                if seen_candidates is not None:
                    check_tree_answer(query, cap, dev)
                queue(push_counter, origin_index, dev)
                return
            if cap is not None and bound > prune_limit(g, cap):
                stats.add_query(0, False, True)  # nothing it could find would stay queued
                return
        heappush(pending, (bound, push_counter, origin_index))

    def check_tree_answer(query: DeviationQuery, cap: float | None, dev: Deviation) -> None:
        """Raise AssertionError unless the search answers ``query`` with ``dev``.

        The search runs on a sweep of its own, so the check leaves the
        solve's sweep, and with it every later tree answer, as it is
        without ``validate``; no search's answer depends on how far its
        sweep has settled.
        """
        nonlocal check_sweep
        if check_sweep is None:
            check_sweep = ReverseSweep(g, t)
        query = DeviationQuery(ws, query.source, t, query.ref_arcs, query.prefix_cost, check_sweep)
        searched, _ = find_best_deviation(query, cap)
        if searched != dev:
            raise AssertionError(f"tree answer {dev} differs from the search's {searched}")

    def run(counter: int, origin_index: int) -> None:
        """Search record ``origin_index``'s cheapest deviation not generated before, and queue it as ``counter``."""
        cap = queue_max_cap(len(records), cands, k)
        # an answer equal to the cap sorts before a last candidate pushed after the ask
        if cap is not None and cands[-1][1] > counter:
            cap = successor(cap)
        query = masked_query(origin_index)
        budget = None if label_budget is None else label_budget - stats.labels_extracted
        try:
            dev, qstats = find_best_deviation(query, cap, deadline=deadline, iteration_budget=budget)
        except SearchLimit as exc:
            raise limit(exc.kind) from exc
        stats.add_query(qstats.iterations, dev is not None, qstats.outcome == "cost-capped")
        if dev is not None:
            queue(counter, origin_index, dev)

    try:
        # k=1 and unguided solves read no potential, and settling a sweep as far
        # as s costs about as much as the plain search it would prune
        if opts.guided and k > 1 and g.folds_in_range:
            # pop and append are each one atomic step, so no two solves share a pair
            try:
                ws, sweep = g._scratch.pop()
            except IndexError:  # none kept yet, or other solves hold them all
                ws, sweep = Workspace(g), ReverseSweep(g, t)
            ws.graph = sweep.graph = g
            sweep.restart(t)
            sweep.settle(ZERO, s)
            sweep.settle(prune_limit(g, sweep.dist[s]))
        p1, _ = shortest_path(g, s, t, prune=sweep.dist if sweep is not None else None)
        if p1 is None:
            return finish(EXHAUSTED)
        records.append(PathRecord(None, None, 0, p1.arcs, p1.cost, ZERO))
        if k == 1:
            return finish(COMPLETE)
        if ws is None:
            ws = Workspace(g)

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
    except MemoryError:
        # the report needs neither the queued candidates nor the pending asks:
        # drop them first, or building it can fail too
        cands.clear()
        pending.clear()
        raise limit("memory") from None
    finally:
        if sweep is not None:
            # a kept pair refers to no graph, so a graph is freed as soon as it is
            # dropped, pool included, without waiting for a cyclic collection
            ws.graph = sweep.graph = None
            try:
                ws.forget()
                g._scratch.append((ws, sweep))
            except MemoryError:  # a pair that cannot be reset is dropped, and the solve's outcome stands
                pass


def _validate_report(g: Graph, s: int, t: int, report: SolveReport) -> None:
    """Check the report against the contract; raise AssertionError at the first breach.

    Every record must be a simple s-t walk whose cost is exactly the left
    fold of its arc costs, distinct from the ones before it and no
    cheaper, and must sit in the deviation tree as its fields claim. Its
    deviation arc must be blocked in its parent, and no arc it blocks may
    lie on its own path: with simplicity, that is what keeps every query
    the engine builds valid without :func:`build_query`'s check. The
    parent chain builds the path, so a record's place in the tree is
    checked before its path is built.
    """
    records = report.records
    last_cost = None
    seen_paths: set[tuple[int, ...]] = set()
    for idx, rec in enumerate(records):
        parent = None
        if rec.parent_index is not None:
            if rec.parent_index >= idx:
                raise AssertionError(f"path {idx} has a later parent")
            parent = records[rec.parent_index]
            if rec.dev_pos < parent.source_pos:
                raise AssertionError(f"path {idx} deviates inside its parent's prefix")
        elif rec.dev_pos:
            raise AssertionError(f"path {idx} is a root that deviates at arc {rec.dev_pos}")
        if rec.parent is not parent:
            raise AssertionError(f"path {idx} is not linked to record {rec.parent_index}")
        path = rec.path
        try:
            fold = path_cost(g, path)
        except PathError as exc:
            raise AssertionError(f"path {idx} is not a walk: {exc}") from None
        nodes = path.nodes(g)
        if not nodes or (nodes[0], nodes[-1]) != (s, t):
            raise AssertionError(f"path {idx} does not run from {s} to {t}")
        if rec.cost != fold:
            raise AssertionError(f"path {idx} costs {rec.cost!r}, its arcs fold to {fold!r}")
        node_set = set(nodes)
        if len(node_set) != len(nodes):
            raise AssertionError(f"path {idx} is not simple")
        if path.arcs in seen_paths:
            raise AssertionError(f"path {idx} duplicates an earlier path")
        seen_paths.add(path.arcs)
        if last_cost is not None and rec.cost < last_cost:
            raise AssertionError(f"path {idx} breaks cost order")
        last_cost = rec.cost
        if parent is not None and rec.suffix[0] not in parent.blocked:
            raise AssertionError(f"path {idx}'s deviation arc is not blocked in record {rec.parent_index}")
        prefix_fold = path_cost(g, path.arcs[: rec.source_pos])
        if rec.prefix_cost != prefix_fold:
            raise AssertionError(f"path {idx} has prefix cost {rec.prefix_cost!r}, its first "
                                 f"{rec.source_pos} arcs fold to {prefix_fold!r}")
        if len(set(rec.blocked)) != len(rec.blocked):
            raise AssertionError(f"record {idx} has duplicate blocked arcs")
        # a query masks the blocked arcs, so none may be a reference arc
        path_arcs = set(path.arcs)
        for a in rec.blocked:
            if g.arc_tail[a] not in node_set:
                raise AssertionError(f"record {idx} blocks an arc off the path")
            if a in path_arcs:
                raise AssertionError(f"record {idx} blocks an arc of its own path")
