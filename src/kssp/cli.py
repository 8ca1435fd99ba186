"""Command line front end.

Subcommands: ``gen`` writes seeded grid instances as DIMACS files,
``solve`` reads one DIMACS file and prints the k cheapest simple paths
of it with any solver, then a status line: query counts, mean labels
per found and per failed query, wall time. Node ids on the command line
and in path output are 0-based (DIMACS file ids minus one).

Exit codes of ``solve``: 0 all k paths found, 1 aborted by a limit
(a deadline, the label budget, or memory running out, with the paths
found so far printed and one ``aborted (KIND)`` line), 2 bad usage or
input, 3 fewer than k paths exist, 4 cross-check mismatch or failed
``--validate`` self-check. Exit codes of ``gen``: 0 written, 2 bad
usage or input, or a grid, or the cost seeds and pairs of all grids,
too large to allocate.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .dimacs import DimacsError, dump_dimacs, load_dimacs, write_paths
from .engine import COMPLETE, SolveLimitExceeded, SolveOptions, SolveReport, k_shortest_paths
from .graph import Graph, GraphError
from .gridgen import check_count, sample_pairs, seeded_grids
from .oracles import YenReport, enumerate_simple_paths, yen_k_shortest

BRUTE_NODE_LIMIT = 14
# options only the deviation solver reads
DEVIATION_FLAGS = ("--unguided", "--label-budget", "--validate")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _parse_grid(text: str) -> tuple[int, int]:
    rows, sep, cols = text.partition("x")
    if not sep or not rows.isdigit() or not cols.isdigit():
        raise ValueError(f"grid must look like ROWSxCOLS, got {text!r}")
    return int(rows), int(cols)


def _reject_flags(
    args: argparse.Namespace, flags: tuple[str, ...], readers: str, given: str
) -> None:
    """Raise ValueError for the first of ``flags`` given beside an option that would ignore it.

    ``readers`` names what does read them and ``given`` the option given,
    for the message.
    """
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value is not False:
            raise ValueError(f"{flag} applies only to {readers}, not {given}")


def cmd_gen(args: argparse.Namespace) -> int:
    rows, cols = _parse_grid(args.grid)
    check_count(args.pairs, "pair")  # here, as with --costs 0 no grid draws pairs
    entries = []
    try:
        grids = seeded_grids(rows, cols, args.costs, args.seed, args.cost_low, args.cost_high)
        for ci, (cost_seed, g, pair_rng) in enumerate(grids):
            pairs = sample_pairs(pair_rng, g.node_count, args.pairs)
            os.makedirs(args.out, exist_ok=True)  # once a grid and its pairs exist
            filename = f"grid{rows}x{cols}-c{ci}.gr"
            with open(os.path.join(args.out, filename), "w") as f:
                dump_dimacs(g, f)
            entries.append(
                {
                    "file": filename,
                    "cost_seed": cost_seed,
                    "pairs": [[s, t] for s, t in pairs],
                }
            )
    except MemoryError:
        entries = pairs = None  # free the drawn pairs, or building the error fails too
        raise ValueError(f"grid count {args.costs} with {args.pairs} pairs per grid is too large to allocate") from None
    manifest = {
        "rows": rows,
        "cols": cols,
        "costs": args.costs,
        "pairs": args.pairs,
        "seed": args.seed,
        "cost_low": args.cost_low,
        "cost_high": args.cost_high,
        "instances": entries,
    }
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    _note(f"wrote {args.costs} instance(s) and manifest.json to {args.out}")
    return 0


def _write_found(g: Graph, report: SolveReport | YenReport) -> int:
    """Print the paths of ``report`` and return their count.

    A deviation report's paths are taken from its records one at a time,
    not from a list of them all: after a MemoryError such a list may not
    fit.
    """
    if isinstance(report, SolveReport):
        write_paths(g, (r.path for r in report.records), sys.stdout)
        return len(report.records)
    write_paths(g, report.paths, sys.stdout)
    return len(report.paths)


def cmd_solve(args: argparse.Namespace) -> int:
    if args.algo != "deviation":
        _reject_flags(args, DEVIATION_FLAGS, "the deviation solver", f"--algo {args.algo}")
    if args.algo == "brute":  # exhaustive enumeration has no deadline and is the check itself
        solvers = "the deviation and Yen solvers"
        _reject_flags(args, ("--timeout-s", "--check"), solvers, "--algo brute")
    with open(args.graph) as f:
        g = load_dimacs(f)
    s, t, k = args.source, args.target, args.k

    if args.algo == "brute":
        if g.node_count > BRUTE_NODE_LIMIT:
            raise ValueError(
                f"brute force is limited to {BRUTE_NODE_LIMIT} nodes, graph has {g.node_count}"
            )
        paths = enumerate_simple_paths(g, s, t, max_paths=k)
        write_paths(g, paths, sys.stdout)
        _note(f"brute force: {len(paths)} of {k} requested paths")
        return 0 if len(paths) == k else 3

    opts = SolveOptions(
        guided=not args.unguided,
        timeout_s=args.timeout_s,
        label_budget=args.label_budget,
        validate=args.validate,
    )
    try:
        if args.algo == "deviation":
            report = k_shortest_paths(g, s, t, k, opts)
        else:
            report = yen_k_shortest(
                g, s, t, k, accelerated=args.algo == "yen-accelerated", timeout_s=args.timeout_s
            )
    except SolveLimitExceeded as exc:
        found = _write_found(g, exc.report)
        _note(f"aborted ({exc.kind}): {found} of {k} paths found")
        return 1
    except AssertionError as exc:
        if not args.validate:
            raise
        _note(f"validation failed: {exc}")
        return 4

    if args.check:  # enumeration where it is affordable, plain Yen beyond
        if g.node_count <= BRUTE_NODE_LIMIT:
            name = "exhaustive enumeration"
            expected = [p.cost for p in enumerate_simple_paths(g, s, t, max_paths=k)]
        else:
            name = "yen"
            try:
                expected = yen_k_shortest(g, s, t, k, timeout_s=args.timeout_s).costs
            except SolveLimitExceeded as exc:
                _write_found(g, report)
                found = len(exc.report.paths)
                _note(f"cross-check aborted ({exc.kind}): yen found {found} of {k} paths")
                return 1
        if report.costs != expected:
            _write_found(g, report)
            _note(f"cross-check mismatch against {name}:")
            _note(f"  solver:    {report.costs}")
            _note(f"  reference: {expected}")
            return 4
        _note(f"cross-check: {name} agrees")

    count = _write_found(g, report)
    st = report.stats
    found, failed = (
        "-" if mean is None else f"{mean:.2f}"
        for mean in (st.mean_success_iterations, st.mean_failed_iterations)
    )
    _note(
        f"{count} of {k} paths, status {report.status}, "
        f"{st.queries_attempted} queries ({st.queries_failed} failed), "
        f"mean labels {found} per found query, {failed} per failed, "
        f"{st.wall_time_s:.6f}s"
    )
    return 0 if report.status == COMPLETE else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kssp", description="k shortest simple paths toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write seeded grid instances to a directory")
    p.add_argument("--grid", required=True, metavar="RxC", help="grid shape, e.g. 100x100")
    p.add_argument("--costs", type=int, default=1, help="number of cost draws")
    p.add_argument("--pairs", type=int, default=0, help="query pairs per instance in the manifest")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cost-low", type=float, default=0.0)
    p.add_argument("--cost-high", type=float, default=10.0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="print the k cheapest simple paths of one instance")
    p.add_argument("--graph", required=True, help="DIMACS shortest path file, such as gen writes")
    p.add_argument("-s", "--source", type=int, required=True, help="0-based node id")
    p.add_argument("-t", "--target", type=int, required=True, help="0-based node id")
    p.add_argument("-k", "--k", type=int, default=1)
    algos = ("deviation", "yen", "yen-accelerated", "brute")
    p.add_argument("--algo", choices=algos, default="deviation")
    p.add_argument(
        "--check",
        action="store_true",
        help=f"compare costs with enumeration up to {BRUTE_NODE_LIMIT} nodes, plain Yen above",
    )
    p.add_argument(
        "--unguided",
        action="store_true",
        help="order queries by plain cost instead of the reverse-distance potential",
    )
    p.add_argument("--timeout-s", type=float, default=None)
    p.add_argument("--label-budget", type=int, default=None)
    p.add_argument("--validate", action="store_true", help="run structural self-checks")
    p.set_defaults(func=cmd_solve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DimacsError, GraphError, OSError, ValueError) as exc:
        _note(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
