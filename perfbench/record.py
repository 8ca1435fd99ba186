#!/usr/bin/env python3
"""Run the benchmark over several seeds and record the figures.

For each workload this runs ``run.py`` once per seed with tracing off,
one process at a time in seed order, then once with tracing on (first
seed). The seeds alternate between two sets, A and B, as a comparison
of two commits would, so a host slowdown lasting minutes falls on both
sets. It writes every run's result and, per set and metric, the median,
the quartiles from ``statistics.quantiles(n=4)`` and the spread: the
distance between the quartiles as a share of the median. Per metric it
also gives how much worse set B's median is than set A's, as a share
of A's. Run it from the repository root:

    python3 perfbench/record.py --seeds 1-20 --out perfbench/baseline.json

Workloads default to the ones ``BENCHMARK.json`` lists; the run length
is its ``run_seconds``. Every result must carry exactly the metric
names ``BENCHMARK.json`` lists for its mode.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "trace": trace, "wall_s": round(wall, 2), "result": result}


def summarize(runs: list[dict], bounds: dict[str, float | None]) -> dict:
    out = {}
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        mid = median(values)
        entry = {"median": mid, "values": values}
        if len(values) >= 2:
            q1, _, q3 = quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / mid if mid else None)
        if bound is not None:
            entry["bound"] = bound
        out[name] = entry
    return out


def worse_share(a: float, b: float, better: str) -> float:
    """How much worse b is than a, as a share of a (negative when better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description="Record benchmark figures over several seeds.")
    p.add_argument("--workload", action="append", help="default: every workload in BENCHMARK.json")
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-20"),
                   help="inclusive range, e.g. 1-20; alternate seeds form sets A and B")
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    seconds = spec["run_seconds"]
    e2e = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    layer = {m["name"]: None for m in spec["per_layer"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "run_seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(workload, json.dumps(runs[-1]), file=sys.stderr, flush=True)
        traced = run_once(workload, args.seeds[0], seconds, 1)
        print(workload, json.dumps(traced), file=sys.stderr, flush=True)
        for r, names in [(r, e2e) for r in runs] + [(traced, layer)]:
            if set(r["result"]["metrics"]) != set(names):
                raise SystemExit(f"{workload} seed {r['seed']}: metric names differ from BENCHMARK.json")
        sets = {"A": summarize(runs[0::2], e2e), "B": summarize(runs[1::2], e2e)}
        b_worse = {name: worse_share(sets["A"][name]["median"], sets["B"][name]["median"], better[name])
                   for name in e2e}
        record["workloads"][workload] = {
            "runs": runs,
            "summary": {"all": summarize(runs, e2e), **sets, "B_worse_than_A": b_worse},
            "traced_run": traced,
        }
        for name, bound in e2e.items():
            print(f"{workload} {name}: spread A {sets['A'][name].get('spread')} B {sets['B'][name].get('spread')}, "
                  f"B worse by {b_worse[name]:+.3f}, bound {bound}")
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
