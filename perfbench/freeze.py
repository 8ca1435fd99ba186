#!/usr/bin/env python3
"""Regenerate ``references.json``: the frozen reference outputs.

For every pinned grid and road instance this solves the instance once
with ``kssp.oracles.yen_k_shortest(accelerated=True)`` and stores the
SHA-256 of the graph (arc tails, heads and costs) and of the exact
float64 bits of the returned cost sequence, with its length and its
first and last cost. Run it from the repository root:

    python3 perfbench/freeze.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kssp.gridgen import gen_grid  # noqa: E402
from kssp.oracles import yen_k_shortest  # noqa: E402

import instances as inst  # noqa: E402


def reference(g, s: int, t: int, k: int) -> dict:
    costs = yen_k_shortest(g, s, t, k, accelerated=True).costs
    return {
        "st": [s, t],
        "count": len(costs),
        "first": costs[0],
        "last": costs[-1],
        "costs_sha256": inst.costs_digest(costs),
    }


def main() -> None:
    out = {"command": "python3 perfbench/freeze.py", "solver": "kssp.oracles.yen_k_shortest(accelerated=True)"}
    grid = []
    for i, (cost_seed, pair_seed) in enumerate(inst.grid_seeds()):
        g = gen_grid(inst.GRID_SIDE, inst.GRID_SIDE, seed=cost_seed)
        s, t = inst.grid_pair(pair_seed)
        grid.append({"graph_sha256": inst.graph_digest(g), **reference(g, s, t, inst.GRID_K)})
        print(f"grid {i}: {grid[-1]['count']} paths", file=sys.stderr)
    out["grid100-k1000"] = grid

    cost_seed, pair_seed = inst.road_seeds()
    g = gen_grid(inst.ROAD_SIDE, inst.ROAD_SIDE, seed=cost_seed)
    pairs = []
    for i, (s, t) in enumerate(inst.road_pairs(pair_seed)):
        pairs.append(reference(g, s, t, inst.ROAD_K))
        print(f"road pair {i}: {pairs[-1]['count']} paths", file=sys.stderr)
    out["road256-k100"] = {"graph_sha256": inst.graph_digest(g), "pairs": pairs}

    with open(inst.REFERENCES_FILE, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
