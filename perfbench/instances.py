"""Pinned instance families of the benchmark workloads.

Every instance is derived from fixed master seeds, so the workload seed
given to ``run.py`` only decides the order in which a run visits a
fixed pool. That keeps the frozen reference cost sequences valid for
any workload seed and gives every run the same mix of instances.

* ``grid100-k1000``: the acceptance gate's twenty 100x100 grids at
  k=1000 (master seed 7, all cost seeds drawn before the pair seeds).
  :func:`check_grid_derivation` rebuilds them with the derivation read
  from ``tests/test_acceptance.py`` and compares them instance by
  instance.
* ``road256-k100``: one 256x256 grid (65,536 nodes, 261,120 arcs)
  with sixty s-t pairs at k=100, written once as DIMACS and loaded
  back, as a user would load a road network.
* ``digraphs-exhaust``: the acceptance digraph scheme (n uniform in
  4..10, density 0.3, s=0, t=n-1) in three cost families, with k one
  past exhaustion. Its references come from enumeration at run time, so
  the workload seed picks the instance seeds as well.
"""
from __future__ import annotations

import ast
import hashlib
import json
from array import array
from pathlib import Path

from kssp import gridgen
from kssp.rng import SplitMix64

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GATE_FILE = ROOT / "tests" / "test_acceptance.py"
REFERENCES_FILE = BENCH_DIR / "references.json"
OUT_DIR = BENCH_DIR / "out"

GRID_MASTER_SEED = 7
GRID_COUNT = 20
GRID_SIDE = 100
GRID_K = 1000

ROAD_MASTER_SEED = 512
ROAD_SIDE = 256
ROAD_PAIRS = 60
ROAD_K = 100

DIGRAPH_SEEDS = 1000  # instance seeds per workload seed, each in every family
DIGRAPH_FAMILIES = ("integers", "tenths", "huge")
HUGE = 2.0**53


class InputMismatch(RuntimeError):
    """The pinned inputs differ from the gate's or from the frozen ones."""


def grid_seeds() -> list[tuple[int, int]]:
    """(cost seed, pair seed) per grid instance, in the gate's draw order."""
    master = SplitMix64(GRID_MASTER_SEED)
    cost_seeds = [master.next_u64() for _ in range(GRID_COUNT)]
    pair_seeds = [master.next_u64() for _ in range(GRID_COUNT)]
    return list(zip(cost_seeds, pair_seeds))


def grid_pair(pair_seed: int) -> tuple[int, int]:
    return gridgen.sample_pairs(SplitMix64(pair_seed), GRID_SIDE * GRID_SIDE, 1)[0]


def road_seeds() -> tuple[int, int]:
    """(cost seed, pair seed) of the road-scale grid."""
    master = SplitMix64(ROAD_MASTER_SEED)
    return master.next_u64(), master.next_u64()


def road_pairs(pair_seed: int) -> list[tuple[int, int]]:
    return gridgen.sample_pairs(SplitMix64(pair_seed), ROAD_SIDE * ROAD_SIDE, ROAD_PAIRS)


def digraph_arcs(seed: int) -> tuple[int, list[tuple[int, int, int]]]:
    """Node count and integer-cost arcs, drawn like ``conftest.make_digraph``."""
    rng = SplitMix64(seed)
    n = 4 + rng.below(7)
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.uniform(0.0, 1.0) < 0.3:
                arcs.append((u, v, rng.below(10)))
    return n, arcs


def family_arcs(family: str, n: int, arcs: list[tuple[int, int, int]]) -> list[tuple[int, int, float]]:
    """The arcs of one cost family: integers 0..9, tenths, or 2^53 added into t."""
    if family == "integers":
        return [(u, v, float(c)) for u, v, c in arcs]
    if family == "tenths":
        return [(u, v, c * 0.1) for u, v, c in arcs]
    t = n - 1
    return [(u, v, float(c) + HUGE if v == t else float(c)) for u, v, c in arcs]


def shuffled(items: list, rng: SplitMix64) -> list:
    """Fisher-Yates permutation driven by the workload seed's stream."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def graph_digest(g) -> str:
    h = hashlib.sha256()
    h.update(array("q", g.arc_tail).tobytes())
    h.update(array("q", g.arc_head).tobytes())
    h.update(array("d", g.arc_cost).tobytes())
    return h.hexdigest()


def costs_digest(costs: list[float]) -> str:
    """Digest of the exact float64 bits of a cost sequence."""
    return hashlib.sha256(array("d", costs).tobytes()).hexdigest()


def load_references() -> dict:
    with open(REFERENCES_FILE) as f:
        return json.load(f)


def check_grid_derivation(graph_digests: list[str]) -> None:
    """Raise unless instance i here is the acceptance gate's instance i.

    The gate's ``grid_instances`` is compiled from the test file together
    with its upper-case constants and ``kssp`` imports, without importing
    the test module itself. Each gate graph must match the frozen digest
    of instance i (tails, heads and costs), which every run also checks
    against the graph it generates, and (s, t) must match this module's
    derivation.
    """
    tree = ast.parse(GATE_FILE.read_text(), str(GATE_FILE))
    body = [
        node
        for node in tree.body
        if (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kssp"))
        or (isinstance(node, ast.Assign) and all(isinstance(t, ast.Name) and t.id.isupper() for t in node.targets))
        or (isinstance(node, ast.FunctionDef) and node.name == "grid_instances")
    ]
    ns: dict = {}
    exec(compile(ast.Module(body=body, type_ignores=[]), str(GATE_FILE), "exec"), ns)
    if "grid_instances" not in ns:
        raise InputMismatch(f"{GATE_FILE} defines no grid_instances")
    if (ns.get("GRID_COUNT"), ns.get("GRID_K")) != (GRID_COUNT, GRID_K):
        raise InputMismatch("the gate's grid count or k differs from the benchmark's")
    matched = 0
    for i, ((g, s, t), (_, pair_seed)) in enumerate(zip(ns["grid_instances"](), grid_seeds())):
        if graph_digest(g) != graph_digests[i] or grid_pair(pair_seed) != (s, t):
            raise InputMismatch(f"grid instance {i} differs from the acceptance gate's")
        matched += 1
    if matched != GRID_COUNT:
        raise InputMismatch(f"the gate derives {matched} grids, the benchmark {GRID_COUNT}")
