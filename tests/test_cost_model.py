"""The cost model is named in ``kssp.graph`` and nowhere else.

Every other module of ``src/kssp`` starts its cost folds from
``graph.ZERO``, steps past a cap with ``graph.successor`` and takes its
rounding slacks from ``graph``, so a change of the cost type changes one
module. These tests parse each of the other modules and fail on a float
literal, a ``nextafter`` and a ``float()`` of text. The floats that are
no costs are listed in ``ALLOWED``, one entry per occurrence, and an
entry that no longer matches fails too.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kssp"

# (module, qualified function, literal) of each float that is no cost
ALLOWED = [
    # time values: a solve's wall time and a timeout's lower bound
    ("engine.py", "SolveStats", 0.0),
    ("engine.py", "check_limits", 0.0),
    # the sidetrack memo's "not computed yet" sentinel and its tests
    ("dijkstra.py", "ReverseSweep.__init__", -1.0),
    ("dijkstra.py", "ReverseSweep.restart", -1.0),
    ("dijkstra.py", "ReverseSweep.deviation_bound", 0.0),
    ("biobjective.py", "find_best_deviation", 0.0),
    # input validation of a cost and of a grid's cost bounds
    ("dimacs.py", "_parse_cost", 0.0),
    ("gridgen.py", "check_grid", 0.0),
    # the cost-bound defaults of the grid generator and the command line
    ("gridgen.py", "gen_grid", 0.0),
    ("gridgen.py", "gen_grid", 10.0),
    ("gridgen.py", "seeded_grids", 0.0),
    ("gridgen.py", "seeded_grids", 10.0),
    ("cli.py", "build_parser", 0.0),
    ("cli.py", "build_parser", 10.0),
    # the scale of SplitMix64's 53-bit draw
    ("rng.py", "SplitMix64.uniform", 2.0),
]


def cost_model_sites(module: str, source: str) -> list[tuple[str, str, object]]:
    """``(module, qualified function, site)`` for each float literal, ``nextafter`` and ``float()`` of text.

    A float literal's site is its value, with a unary minus taken in;
    the others' are ``"nextafter"`` and ``'float("...")'``. Code outside
    any function or class is in ``"<module>"``.
    """
    sites: list[tuple[str, str, object]] = []
    scope: list[str] = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) and is_float(node.operand):
            site = -node.operand.value
        elif is_float(node):
            site = node.value
        elif "nextafter" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
            site = "nextafter"  # a name, an attribute or an import
        elif is_float_of_text(node):
            site = f"float({node.args[0].value!r})"
        else:
            site = None
        if site is not None:
            sites.append((module, ".".join(scope) or "<module>", site))
            if isinstance(node, ast.UnaryOp):
                return
        named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        if named:
            scope.append(node.name)
        for child in ast.iter_child_nodes(node):
            visit(child)
        if named:
            scope.pop()

    visit(ast.parse(source))
    return sites


def is_float(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def is_float_of_text(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
        and bool(node.args)
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    )


def test_no_module_but_graph_spells_out_the_cost_model():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "graph.py")
    assert len(modules) >= 8, modules
    found = Counter(site for p in modules for site in cost_model_sites(p.name, p.read_text()))
    allowed = Counter(ALLOWED)
    assert found - allowed == Counter(), "a float cost outside kssp.graph; use its names or list a non-cost"
    assert allowed - found == Counter(), "an ALLOWED entry that no longer exists"


def test_the_guard_sees_each_kind_of_site():
    source = (
        "import math\n"
        "from math import inf, nextafter\n"
        "x = 0.0\n"
        "class C:\n"
        "    def f(self, cap):\n"
        "        def g():\n"
        "            return -1.0 + 2\n"
        "        return math.nextafter(cap, float('inf')), 0\n"
    )
    assert cost_model_sites("m.py", source) == [
        ("m.py", "<module>", "nextafter"),
        ("m.py", "<module>", 0.0),
        ("m.py", "C.f.g", -1.0),
        ("m.py", "C.f", "nextafter"),
        ("m.py", "C.f", "float('inf')"),
    ]
