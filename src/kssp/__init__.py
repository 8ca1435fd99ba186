"""k cheapest simple paths between two nodes of an arc-weighted digraph.

The package root exports the solver, :func:`k_shortest_paths`: a
deviation-tree driver whose repeated subproblem, the cheapest simple
deviation from a known path, is solved by a biobjective label search
over (cost, overlap with the path). The reference solvers, DIMACS
loader and seeded grid generator are imported from their modules:
``kssp.oracles``, ``kssp.dimacs`` and ``kssp.gridgen``.
"""
from .engine import SolveLimitExceeded, SolveOptions, SolveReport, k_shortest_paths
from .graph import Graph, Path

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "Path",
    "k_shortest_paths",
    "SolveOptions",
    "SolveReport",
    "SolveLimitExceeded",
    "__version__",
]
