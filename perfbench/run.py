#!/usr/bin/env python3
"""Closed-loop benchmark of ``kssp.engine.k_shortest_paths``.

One process, one solve at a time, no threads. A run builds its pinned
instances (timed as set-up), solves them in the order the workload seed
draws, checks every output outside the timed region and prints the
metrics, the last stdout line being one JSON object::

    python3 perfbench/run.py --workload grid100-k1000 --seed 1 --seconds 45 --trace 0

With ``--trace 0`` the metrics are the end-to-end ones, each timing
corrected for the host's speed during the run (see ``hostspeed.py``);
the raw wall times are printed beside them. With
``--trace 1`` every instance is solved untraced, traced (spans around
each layer call, see ``spans.py``) and by accelerated Yen, and the
metrics are the per-layer ones; the spans are written to
``perfbench/out/``.

A run visits its pool in whole passes, so every seed measures the same
instance mix. The pass count is ``--seconds``, less the workload's
once-per-run set-up, over its pass time (instance builds, solves and
checks; three times that under tracing), at least one. Both nominal
times were measured on a 2-core x86-64 host when the benchmark was
defined, so an untraced run takes about ``--seconds`` there. Only a
host slowed down past ``STOP_AFTER_S`` cuts a run short of its passes.

Exit status: 0 with a result line, 2 when kssp cannot be imported from
``src/`` next to this directory, 3 when the pinned inputs no longer
match the acceptance gate's or their frozen references, so no result
can be vouched for.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid100-k1000", "road256-k100", "digraphs-exhaust")

END_TO_END = {
    "solve_p50_ms": "ms",
    "solve_tail_ms": "ms",
    "paths_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# biobjective.exhausted_ms is printed but not part of the result: almost
# every road256-k100 query finds a deviation or is capped, so it reads
# about 0 there.
PER_LAYER = {
    "engine.self_share": "share",
    "engine.self_us_per_query": "us",
    "engine.queries_per_path": "count",
    "biobjective.share": "share",
    "biobjective.search_share": "share",
    "biobjective.found_ms": "ms",
    "biobjective.capped_ms": "ms",
    "biobjective.us_per_extraction": "us",
    "biobjective.extractions_found_mean": "count",
    "biobjective.extractions_failed_mean": "count",
    "biobjective.found_share": "share",
    "biobjective.build_query_us": "us",
    "biobjective.workspace_ms": "ms",
    "dijkstra.share": "share",
    "dijkstra.reverse_ms": "ms",
    "dijkstra.first_path_ms": "ms",
    "dijkstra.first_path_pops": "count",
    "gridgen.gen_s": "s",
    "dimacs.load_s": "s",
    "oracles.yen_ratio": "ratio",
    "trace.overhead_share": "share",
}
# solve_tail_ms is the highest percentile with TAIL_BEYOND solves beyond
# it when that is at least p75; with fewer than 4 * TAIL_BEYOND solves it
# is p75, so that a single slow solve cannot set it.
TAIL_BEYOND = 10
# No new instance starts after this many seconds, so that a run on a
# slowed-down host still ends well within 180 s.
STOP_AFTER_S = 120.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def check_paths(g, s, t, report, want_status, want_len):
    """First structural defect of a report, or None.

    Every path must be a simple s-t walk whose reported cost is the left
    fold of its arc costs, paths must be pairwise distinct, and costs
    nondecreasing.
    """
    if report.status != want_status or len(report.records) != want_len:
        return f"status {report.status} with {len(report.records)} paths, expected {want_status} with {want_len}"
    seen = set()
    prev = float("-inf")
    for i, rec in enumerate(report.records):
        arcs = rec.path.arcs
        node = s
        visited = {s}
        cost = 0.0
        for a in arcs:
            if g.arc_tail[a] != node:
                return f"path {i} is not a walk from s"
            node = g.arc_head[a]
            if node in visited:
                return f"path {i} is not simple"
            visited.add(node)
            cost += g.arc_cost[a]
        if node != t:
            return f"path {i} does not end at t"
        if cost != rec.path.cost:
            return f"path {i} reports cost {rec.path.cost!r}, its arcs sum to {cost!r}"
        if arcs in seen:
            return f"path {i} repeats an earlier path"
        if cost < prev:
            return f"path {i} costs {cost!r}, less than the path before it"
        seen.add(arcs)
        prev = cost
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import kssp
    except ImportError as exc:
        print(f"run.py: cannot import kssp from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(kssp.__file__).resolve().parent != ROOT / "src" / "kssp":
        print(f"run.py: imported kssp from {kssp.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import instances

    try:
        return run(args)
    except instances.InputMismatch as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3


def run(args) -> int:
    from kssp import dimacs, engine, gridgen, oracles
    from kssp.graph import Graph
    from kssp.rng import SplitMix64

    import hostspeed
    import instances as inst
    import spans

    t_run = perf_counter()
    tracer = spans.Tracer() if args.trace else None
    scope = tracer.installed if tracer else nullcontext
    inst.OUT_DIR.mkdir(exist_ok=True)

    def round_trip(g, name):
        """Write a graph as DIMACS and load it back (load traced, file removed)."""
        path = inst.OUT_DIR / f"{name}.gr"
        with open(path, "w") as f:
            dimacs.dump_dimacs(g, f)
        try:
            return load_timed(path)
        finally:
            path.unlink()

    def load_timed(path):
        with open(path) as f, scope():
            t0 = perf_counter()
            g = dimacs.load_dimacs(f)
            return g, (t0, perf_counter())

    def frozen_check(ref, g, s, t, report):
        """Structural check, then the frozen accelerated-Yen cost sequence."""
        err = check_paths(g, s, t, report, engine.COMPLETE, ref["count"])
        if err is None and inst.costs_digest(report.costs) != ref["costs_sha256"]:
            err = f"cost sequence differs from the frozen reference (first {ref['first']!r}, last {ref['last']!r})"
        return err

    class Grid:
        run_setup_s, pass_s = 1.0, 18.0
        collect = True

        def __init__(self):
            self.refs = inst.load_references()["grid100-k1000"]
            inst.check_grid_derivation([r["graph_sha256"] for r in self.refs])
            self.seeds = inst.grid_seeds()
            self.cases = list(range(inst.GRID_COUNT))
            self.setups = []

        def build(self, i):
            cost_seed, pair_seed = self.seeds[i]
            with scope():
                t0 = perf_counter()
                g = gridgen.gen_grid(inst.GRID_SIDE, inst.GRID_SIDE, seed=cost_seed)
                self.setups.append((t0, perf_counter()))
            if tracer:
                g, _ = round_trip(g, "grid")
            if inst.graph_digest(g) != self.refs[i]["graph_sha256"]:
                raise inst.InputMismatch(f"grid instance {i} differs from the frozen one")
            s, t = inst.grid_pair(pair_seed)
            return g, s, t, inst.GRID_K

        def check(self, i, g, s, t, report):
            return frozen_check(self.refs[i], g, s, t, report)

    class Road:
        # generating and writing the graph, then three timed loads
        run_setup_s, pass_s = 6.0, 42.0
        collect = True

        def __init__(self):
            refs = inst.load_references()["road256-k100"]
            self.refs = refs["pairs"]
            cost_seed, pair_seed = inst.road_seeds()
            self.pairs = inst.road_pairs(pair_seed)
            if [tuple(r["st"]) for r in self.refs] != self.pairs:
                raise inst.InputMismatch("road pairs differ from the frozen ones")
            with scope():
                g = gridgen.gen_grid(inst.ROAD_SIDE, inst.ROAD_SIDE, seed=cost_seed)
            path = inst.OUT_DIR / "road.gr"
            with open(path, "w") as f:
                dimacs.dump_dimacs(g, f)
            self.setups = []
            try:
                for _ in range(1 if tracer else 3):
                    g = None
                    host.sample()
                    gc.collect()
                    g, span = load_timed(path)
                    self.setups.append(span)
            finally:
                path.unlink()
            if inst.graph_digest(g) != refs["graph_sha256"]:
                raise inst.InputMismatch("road graph differs from the frozen one")
            self.g = g
            self.cases = list(range(inst.ROAD_PAIRS))

        def build(self, i):
            s, t = self.pairs[i]
            return self.g, s, t, inst.ROAD_K

        def check(self, i, g, s, t, report):
            return frozen_check(self.refs[i], g, s, t, report)

    class Digraphs:
        # sub-millisecond solves: a full collection per solve would dominate the run
        run_setup_s, pass_s = 0.0, 1.5
        collect = False

        def __init__(self):
            base = args.seed * inst.DIGRAPH_SEEDS
            self.cases = [(seed, fam) for seed in range(base, base + inst.DIGRAPH_SEEDS) for fam in inst.DIGRAPH_FAMILIES]
            self.arcs = {}
            self.expected = {}
            self.setups = []

        def build(self, case):
            if case not in self.arcs:
                n, arcs = inst.digraph_arcs(case[0])
                self.arcs[case] = (n, inst.family_arcs(case[1], n, arcs))
            n, arcs = self.arcs[case]
            t0 = perf_counter()
            g = Graph(n, arcs)
            self.setups.append((t0, perf_counter()))
            if case not in self.expected:
                self.expected[case] = [p.cost for p in oracles.enumerate_simple_paths(g, 0, n - 1)]
            return g, 0, n - 1, len(self.expected[case]) + 2

        def check(self, case, g, s, t, report):
            want = self.expected[case]
            err = check_paths(g, s, t, report, engine.EXHAUSTED, len(want))
            if err is None and report.costs != want:
                err = "cost sequence differs from enumeration"
            return err

    workload = {"grid100-k1000": Grid, "road256-k100": Road, "digraphs-exhaust": Digraphs}[args.workload]
    host = hostspeed.HostSpeed(workload.collect)
    w = workload()
    passes = max(1, round((args.seconds - w.run_setup_s) / (w.pass_s * (3 if tracer else 1))))
    rng = SplitMix64(args.seed)

    solves = []  # (start, end) of each untraced solve
    traced_time = 0.0
    yen_time = 0.0
    paths_ok = 0
    attempted = 0
    failed = 0
    reported = 0

    def solve(g, s, t, k, traced):
        if w.collect:
            gc.collect()
        if not traced:
            spans.assert_untraced()
        with scope() if traced else nullcontext():
            t0 = perf_counter()
            report = engine.k_shortest_paths(g, s, t, k)
            return report, (t0, perf_counter())

    schedule = [case for _ in range(passes) for case in inst.shuffled(w.cases, rng)]
    visited = 0
    for case in schedule:
        if perf_counter() - t_run > STOP_AFTER_S and solves:
            break
        g, s, t, k = w.build(case)
        order = (False,) if tracer is None else ((False, True) if visited % 2 == 0 else (True, False))
        visited += 1
        host.sample()
        for traced in order:
            attempted += 1
            try:
                report, span = solve(g, s, t, k, traced)
                err = w.check(case, g, s, t, report)
            except Exception:
                report, span, err = None, None, traceback.format_exc()
            if span is not None:
                if traced:
                    traced_time += span[1] - span[0]
                else:
                    solves.append(span)
            if err is None:
                if not traced:
                    paths_ok += len(report.records)
                continue
            failed += 1
            if reported < 5:
                reported += 1
                print(f"failed solve {case} s={s} t={t} k={k}: {err}", file=sys.stderr)
        if tracer:
            if w.collect:
                gc.collect()
            t0 = perf_counter()
            oracles.yen_k_shortest(g, s, t, k, accelerated=True)
            yen_time += perf_counter() - t0
        del g

    host.finish()
    n = len(solves)
    total = sum(end - start for start, end in solves)
    beyond = min(TAIL_BEYOND, n // 4)
    tail_rank = 100.0 * (n - beyond) / n
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {visited} of {len(schedule)} "
          f"scheduled instances ({passes} passes), {n} untraced solves, {perf_counter() - t_run:.1f} s")
    print(f"check: {attempted - failed}/{attempted} solves passed every output check")
    print(f"failed_share {failed / attempted:.6g} share")
    f = host.factor()
    print(f"host factor {f:.4f}: nominal {hostspeed.NOMINAL_S * 1e3:g} ms over the harmonic mean of "
          f"{len(host.samples)} reference-kernel times, {1e3 * hostspeed.NOMINAL_S / f:.4g} ms")
    if tracer:
        values = spans.layer_metrics(tracer.spans)
        values["oracles.yen_ratio"] = total / yen_time
        values["trace.overhead_share"] = traced_time / total - 1.0
        tracer.write(inst.OUT_DIR / f"spans-{args.workload}.jsonl")
        split = values["engine.self_share"] + values["biobjective.share"] + values["dijkstra.share"]
        print(f"layer split of solve time: engine {values['engine.self_share']:.4f} + biobjective "
              f"{values['biobjective.share']:.4f} + dijkstra {values['dijkstra.share']:.4f} = {split:.4f}")
        print(f"biobjective.exhausted_ms {values['biobjective.exhausted_ms']:.6g} ms")
        units = PER_LAYER
    else:
        def timings(duration):
            times = sorted(duration(start, end) for start, end in solves)
            return {
                "solve_p50_ms": 1e3 * median(times),
                "solve_tail_ms": 1e3 * times[n - beyond - 1],
                "paths_per_s": paths_ok / sum(times),
                "setup_s": median(duration(start, end) for start, end in w.setups),
            }

        raw = timings(lambda start, end: end - start)
        print("raw wall: " + ", ".join(f"{name} {v:.6g}" for name, v in raw.items()))
        values = timings(host.corrected)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"solve_tail_ms is p{tail_rank:.4g} of n={n}; setup_s is the median of {len(w.setups)} set-ups")
        units = END_TO_END
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
