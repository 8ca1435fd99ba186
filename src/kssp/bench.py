"""Benchmark runs over seeded instances, with CSV output and summaries.

Grid instances come from :func:`kssp.gridgen.seeded_grids`, so adding
more query pairs never changes which grids are built. Rows identify their
instance as ``grid<R>x<C>-c<i>-p<j>`` (cost draw i, pair draw j) or
``<name>-p<j>`` for a fixed input graph.
"""
from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, fields
from math import exp, fsum, log
from typing import IO, Iterable, Sequence

from .engine import (
    COMPLETE,
    SolveLimitExceeded,
    SolveOptions,
    SolveReport,
    check_limits,
    k_shortest_paths,
)
from .graph import Graph
from .gridgen import check_pair_count, sample_pairs, seeded_grids
from .oracles import YenReport, yen_k_shortest
from .rng import SplitMix64

ALGORITHMS = ("deviation", "yen", "yen-accelerated")


@dataclass
class ResultRow:
    instance: str
    algorithm: str
    k: int
    solved: bool
    paths: int
    kth_cost: float | None
    queries: int
    queries_failed: int
    iter_success_mean: float | None
    iter_failed_mean: float | None
    time_s: float


def _check_algorithms(algorithms: Iterable[str], label_budget: int | None) -> None:
    """Raise ValueError for an unknown algorithm, or a label budget beside Yen, which has none."""
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm: {algorithm!r}")
        if label_budget is not None and algorithm != "deviation":
            raise ValueError(
                f"a label budget applies only to the deviation solver, not {algorithm!r}"
            )


def run_algorithm(
    g: Graph,
    s: int,
    t: int,
    k: int,
    algorithm: str,
    *,
    timeout_s: float | None = None,
    label_budget: int | None = None,
) -> SolveReport | YenReport:
    """Run one solver; limit violations come back as an aborted report."""
    _check_algorithms((algorithm,), label_budget)
    try:
        if algorithm == "deviation":
            opts = SolveOptions(timeout_s=timeout_s, label_budget=label_budget)
            return k_shortest_paths(g, s, t, k, opts)
        accelerated = algorithm == "yen-accelerated"
        return yen_k_shortest(g, s, t, k, accelerated=accelerated, timeout_s=timeout_s)
    except SolveLimitExceeded as exc:
        return exc.report


def row_from_report(
    instance: str, algorithm: str, k: int, report: SolveReport | YenReport
) -> ResultRow:
    st = report.stats
    paths = report.paths
    return ResultRow(
        instance=instance,
        algorithm=algorithm,
        k=k,
        solved=report.status == COMPLETE,
        paths=len(paths),
        kth_cost=paths[-1].cost if paths else None,
        queries=st.queries_attempted,
        queries_failed=st.queries_failed,
        iter_success_mean=st.mean_success_iterations,
        iter_failed_mean=st.mean_failed_iterations,
        time_s=st.wall_time_s,
    )


def _bench_pairs(
    g: Graph, name: str, pair_rng: SplitMix64, pairs: int, k: int,
    algorithms: Sequence[str], timeout_s: float | None, label_budget: int | None,
) -> list[ResultRow]:
    """Rows for ``pairs`` s-t pairs drawn from ``pair_rng``, ids ``<name>-p<j>``."""
    rows: list[ResultRow] = []
    for pi, (s, t) in enumerate(sample_pairs(pair_rng, g.node_count, pairs)):
        for algorithm in algorithms:
            report = run_algorithm(
                g, s, t, k, algorithm, timeout_s=timeout_s, label_budget=label_budget
            )
            rows.append(row_from_report(f"{name}-p{pi}", algorithm, k, report))
    return rows


def bench_graph(
    g: Graph,
    name: str,
    pairs: int,
    k: int,
    seed: int,
    algorithms: Sequence[str] = ("deviation",),
    *,
    timeout_s: float | None = None,
    label_budget: int | None = None,
) -> list[ResultRow]:
    _check_algorithms(algorithms, label_budget)
    k, label_budget = check_limits(k, timeout_s, label_budget)
    check_pair_count(pairs)
    rng = SplitMix64(seed)
    return _bench_pairs(g, name, rng, pairs, k, algorithms, timeout_s, label_budget)


def bench_grid(
    rows_n: int,
    cols_n: int,
    costs: int,
    pairs: int,
    k: int,
    seed: int,
    algorithms: Sequence[str] = ("deviation",),
    *,
    timeout_s: float | None = None,
    label_budget: int | None = None,
) -> list[ResultRow]:
    _check_algorithms(algorithms, label_budget)
    k, label_budget = check_limits(k, timeout_s, label_budget)
    check_pair_count(pairs)
    out: list[ResultRow] = []
    for ci, (_, g, pair_rng) in enumerate(seeded_grids(rows_n, cols_n, costs, seed)):
        name = f"grid{rows_n}x{cols_n}-c{ci}"
        out += _bench_pairs(g, name, pair_rng, pairs, k, algorithms, timeout_s, label_budget)
    return out


def geometric_mean(values: Iterable[float | None]) -> float | None:
    """Geometric mean over the positive entries, None when there are none.

    Zero, negative and missing entries carry no usable signal for a
    multiplicative average and are left out rather than clamped.
    """
    logs = [log(v) for v in values if v is not None and v > 0]
    if not logs:
        return None
    return exp(fsum(logs) / len(logs))


def summarize(rows: Iterable[ResultRow]) -> list[dict[str, object]]:
    """Aggregate rows per (algorithm, k) with geometric means."""
    groups: dict[tuple[str, int], list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.algorithm, row.k), []).append(row)
    out: list[dict[str, object]] = []
    for (algorithm, k), members in sorted(groups.items()):
        out.append(
            {
                "algorithm": algorithm,
                "k": k,
                "instances": len(members),
                "solved": sum(1 for r in members if r.solved),
                "geomean_time_s": geometric_mean(r.time_s for r in members),
                "geomean_iter_success": geometric_mean(
                    r.iter_success_mean for r in members
                ),
                "geomean_iter_failed": geometric_mean(
                    r.iter_failed_mean for r in members
                ),
            }
        )
    return out


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_rows(dest: str | IO[str], rows: Iterable[ResultRow]) -> None:
    if isinstance(dest, str):
        with open(dest, "w", newline="") as f:
            write_rows(f, rows)
        return
    writer = csv.writer(dest)
    writer.writerow([f.name for f in fields(ResultRow)])
    for row in rows:
        writer.writerow([_cell(v) for v in asdict(row).values()])


def _parse_bool(cell: str) -> bool:
    if cell not in ("true", "false"):
        raise ValueError(f"must be true or false, got {cell!r}")
    return cell == "true"


# how read_rows parses a cell, by the type its ResultRow field is annotated with
_CELL_PARSERS = {
    "str": str,
    "int": int,
    "bool": _parse_bool,
    "float": float,
    "float | None": lambda cell: float(cell) if cell else None,
}


def read_rows(src: str | IO[str]) -> list[ResultRow]:
    """The rows of a bench CSV; a bad cell raises ValueError naming its row and column.

    Rows are numbered as a spreadsheet shows them: the header is row 1.
    """
    if isinstance(src, str):
        with open(src, newline="") as f:
            return read_rows(f)
    reader = csv.DictReader(src)
    columns = fields(ResultRow)
    n = 1  # the row the reader is on
    try:
        missing = [f.name for f in columns if f.name not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"not a bench CSV: missing columns {', '.join(missing)}")
        rows = []
        n = 2
        for raw in reader:
            cells = {}
            for f in columns:
                cell = raw[f.name]
                try:
                    if cell is None:
                        raise ValueError("the row has fewer cells than the header")
                    cells[f.name] = _CELL_PARSERS[f.type](cell)
                except ValueError as exc:
                    raise ValueError(f"not a bench CSV: row {n}, column {f.name}: {exc}") from None
            rows.append(ResultRow(**cells))
            n += 1
    except csv.Error as exc:  # such as a cell beyond the csv module's field size limit
        raise ValueError(f"not a bench CSV: row {n}: {exc}") from None
    return rows


def write_summary(dest: IO[str], summary: list[dict[str, object]]) -> None:
    names = [
        "algorithm",
        "k",
        "instances",
        "solved",
        "geomean_time_s",
        "geomean_iter_success",
        "geomean_iter_failed",
    ]
    writer = csv.writer(dest)
    writer.writerow(names)
    for entry in summary:
        writer.writerow([_cell(entry[name]) for name in names])
