"""Command-line front end: solve, bound, generate, check, oracle.

`main` parses the flags and, for every command but `generate`, builds the
graph and the side-size window once.  Each `cmd_*` returns its report and
exit code; `main` alone emits the report: one JSON object on stdout, written
first to the --json file when one is given.  Exit code 0 on success, 2 when a
solve stops at a resource limit, 1 on input errors (bad flags and instances
too large to allocate included), which print `error: ...` to stderr and
nothing to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings

import numpy as np

from .bnb import BnbConfig, solve
from .graph import (
    PartitionSpec,
    WeightedGraph,
    gen_debruijn,
    gen_mixed,
    gen_planar,
    gen_random,
    gen_toroidal,
    load_graph,
    save_edge_list,
)
from .optimality import check_local_min, descent_direction
from .oracle import brute_force
from .qp import make_qp

GEN_KINDS = "toroidal:HxK planar:HxK mixed:HxK random:NxDENSITY debruijn:ORDER"


def build_instance(args) -> WeightedGraph:
    if args.gen:
        return generate_from_spec(args.gen, args.seed)
    if args.input:
        return load_graph(args.input, format=args.format)
    raise ValueError("either --input or --gen is required")


def generate_from_spec(spec: str, seed: int) -> WeightedGraph:
    kind, _, rest = spec.partition(":")
    if kind != "debruijn" and seed < 0:  # de Bruijn graphs take no seed
        raise ValueError(f"--seed must be a non-negative integer, got {seed}")
    try:
        if kind in ("toroidal", "planar", "mixed"):
            h, k = (int(v) for v in rest.split("x"))
            fn = {"toroidal": gen_toroidal, "planar": gen_planar, "mixed": gen_mixed}[kind]
            return fn(h, k, seed)
        if kind == "random":
            n_txt, dens_txt = rest.split("x")
            return gen_random(int(n_txt), float(dens_txt), seed)
        if kind == "debruijn":
            return gen_debruijn(int(rest))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad --gen spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown generator {kind!r} (expected one of: {GEN_KINDS})")


def resolve_spec(args, n: int) -> PartitionSpec:
    if args.bisection:
        if args.l is not None or args.u is not None:
            raise ValueError("provide --l and --u, or --bisection, not both")
        return PartitionSpec(l=n // 2, u=(n + 1) // 2)
    if args.l is None or args.u is None:
        raise ValueError("provide --l and --u, or --bisection")
    return PartitionSpec(l=args.l, u=args.u)


def emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    print(text)


def cmd_solve(args, graph: WeightedGraph, spec: PartitionSpec):
    config = BnbConfig(bound=args.bound, max_nodes=args.max_nodes, time_limit=args.time_limit)
    sol = solve(graph, spec, config)
    report = {
        "command": "solve",
        "n": graph.n,
        "density_percent": round(graph.density_percent(), 3),
        "bound_variant": args.bound,
        "l": spec.l,
        "u": spec.u,
        "seed": args.seed,
        "opt_value": sol.value,
        "partition": {"v0": sol.v0, "v1": sol.v1},
        "node_count": sol.node_count,
        "wall_time_s": round(sol.wall_time, 6),
        "status": sol.status,
        "root_lb": sol.root_bound,
        "lower_bound": sol.lower_bound,
        "shift_warning": sol.shift.warning,
        "relaxations_converged": sol.all_relaxations_converged,
        "incumbent_trace": [[int(k), float(v)] for k, v in sol.incumbent_trace],
    }
    return report, 0 if sol.status == "optimal" else 2


def cmd_bound(args, graph: WeightedGraph, spec: PartitionSpec):
    # the oracle first: its size guard then fails before either root solve runs
    opt = brute_force(graph, spec)[0] if args.oracle else None
    # the root node of the search: its certified bound, and its candidate too
    lb1, lb2 = (
        solve(graph, spec, BnbConfig(bound=kind, max_nodes=1)).root_bound
        for kind in ("eig", "sdp")
    )
    report = {
        "command": "bound",
        "n": graph.n,
        "density_percent": round(graph.density_percent(), 3),
        "l": spec.l,
        "u": spec.u,
        "lb1": lb1,
        "lb2": lb2,
    }
    if args.oracle:
        report["opt"] = opt
    return report, 0


def cmd_generate(args):
    graph = generate_from_spec(args.gen, args.seed)
    save_edge_list(graph, args.out)
    report = {
        "command": "generate",
        "gen": args.gen,
        "seed": args.seed,
        "n": graph.n,
        "m": graph.num_edges,
        "path": args.out,
    }
    return report, 0


def cmd_check(args, graph: WeightedGraph, spec: PartitionSpec):
    qp = make_qp(graph, spec)
    with warnings.catch_warnings():  # numpy warns on an empty file, rejected below
        warnings.simplefilter("ignore", UserWarning)
        x = np.loadtxt(args.point, ndmin=2, dtype=float)
    if min(x.shape) > 1 or x.size != graph.n:
        raise ValueError(f"point file holds a {x.shape[0]}x{x.shape[1]} table, "
                         f"expected one row or one column of {graph.n} values")
    x = x.ravel()
    assessment = check_local_min(qp, x)
    move = descent_direction(qp, x, assessment)
    report = {
        "command": "check",
        "n": graph.n,
        "l": spec.l,
        "u": spec.u,
        "value": qp.value(x),
        "lambda": assessment.lam,
        "p1": assessment.p1,
        "p2": assessment.p2,
        "p3": assessment.p3,
        "p4": assessment.p4,
        "local_min": assessment.local_min,
        "c1": assessment.c1,
        "c2": assessment.c2,
        "c3": assessment.c3,
        "strict": assessment.strict,
        "witness": list(assessment.witness) if assessment.witness else None,
        "descent_direction": None,
    }
    if move is not None:
        d, alpha = move
        report["descent_direction"] = {"direction": d.tolist(), "alpha_max": alpha}
    return report, 0


def cmd_oracle(args, graph: WeightedGraph, spec: PartitionSpec):
    t0 = time.perf_counter()
    opt, side = brute_force(graph, spec)
    report = {
        "command": "oracle",
        "n": graph.n,
        "l": spec.l,
        "u": spec.u,
        "opt_value": opt,
        "x": side.tolist(),
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    return report, 0


class _Parser(argparse.ArgumentParser):
    """Bad flags raise ValueError, so main reports them as input errors."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def make_parser() -> argparse.ArgumentParser:
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", help="also write the JSON report to this path")
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--input", help="graph file path")
    instance.add_argument("--format", choices=("el", "mtx"),
                          help="input format (default: by extension)")
    instance.add_argument("--gen", help=f"generate an instance, one of: {GEN_KINDS}")
    instance.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    instance.add_argument("--l", type=int, help="lower side-size bound")
    instance.add_argument("--u", type=int, help="upper side-size bound")
    instance.add_argument("--bisection", action="store_true",
                          help="use l = floor(n/2), u = ceil(n/2)")

    parser = _Parser(
        prog="qpcut",
        description="Exact edge-weighted graph bisection (min-cut with side-size bounds).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[instance, report],
                       help="run the branch-and-bound solver")
    p.add_argument("--bound", choices=("sdp", "eig"), default="sdp",
                   help="lower-bound variant (default sdp)")
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--time-limit", type=float, default=None, help="seconds")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("bound", parents=[instance, report],
                       help="compare the two root lower bounds")
    p.add_argument("--oracle", action="store_true",
                   help="also report the exhaustive optimum (n <= 24)")
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("generate", parents=[report],
                       help="write a generated instance to a file")
    p.add_argument("--gen", required=True, help=f"one of: {GEN_KINDS}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output edge-list path")

    p = sub.add_parser("check", parents=[instance, report],
                       help="classify a point file against the optimality conditions")
    p.add_argument("--point", required=True, help="text file with n coordinate values")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("oracle", parents=[instance, report],
                       help="exhaustive optimum for small instances")
    p.set_defaults(fn=cmd_oracle)
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        if args.command == "generate":
            report, code = cmd_generate(args)
        else:
            graph = build_instance(args)
            report, code = args.fn(args, graph, resolve_spec(args, graph.n))
        emit(report, args)
        return code
    # an instance too large to allocate surfaces as numpy's MemoryError subclass
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
