"""k cheapest simple paths between two nodes of an arc-weighted digraph.

The main entry point is :func:`k_shortest_paths`, a deviation-tree
driver whose repeated subproblem, the cheapest simple deviation from a
known path, is solved by a biobjective label search over (cost, overlap
with the path). Reference solvers, a DIMACS loader, a seeded grid
generator and a benchmark harness round out the package.
"""
from .biobjective import (
    BiCost,
    Deviation,
    DeviationQuery,
    QueryStats,
    SearchDebug,
    SearchLimit,
    Workspace,
    build_query,
    find_best_deviation,
)
from .dijkstra import reverse_distances, shortest_path
from .dimacs import (
    DimacsError,
    dump_dimacs,
    dumps_dimacs,
    format_path_line,
    load_dimacs,
    parse_path_line,
    write_paths,
)
from .engine import (
    ABORTED,
    COMPLETE,
    EXHAUSTED,
    PathRecord,
    SolveLimitExceeded,
    SolveOptions,
    SolveReport,
    SolveStats,
    k_shortest_paths,
)
from .graph import Graph, GraphError, Mask, Path, PathError, is_simple, path_cost
from .gridgen import gen_grid, sample_pairs
from .oracles import enumerate_simple_paths, yen_k_shortest
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "BiCost",
    "Deviation",
    "DeviationQuery",
    "QueryStats",
    "SearchDebug",
    "SearchLimit",
    "Workspace",
    "build_query",
    "find_best_deviation",
    "reverse_distances",
    "shortest_path",
    "DimacsError",
    "dump_dimacs",
    "dumps_dimacs",
    "format_path_line",
    "load_dimacs",
    "parse_path_line",
    "write_paths",
    "ABORTED",
    "COMPLETE",
    "EXHAUSTED",
    "PathRecord",
    "SolveLimitExceeded",
    "SolveOptions",
    "SolveReport",
    "SolveStats",
    "k_shortest_paths",
    "Graph",
    "GraphError",
    "Mask",
    "Path",
    "PathError",
    "is_simple",
    "path_cost",
    "gen_grid",
    "sample_pairs",
    "enumerate_simple_paths",
    "yen_k_shortest",
    "SplitMix64",
    "__version__",
]
