"""Command-line front end: solve, bound, generate, check, oracle.

Every subcommand prints one JSON object to stdout (and optionally writes it
first to a file with --json).  Exit code 0 on success, 2 when a solve stops
at a resource limit, 1 on input errors, bad flags included, which print
`error: ...` to stderr and nothing to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .bnb import BnbConfig, solve
from .graph import (
    GraphFormatError,
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
from .optimality import check_strict, descent_direction
from .oracle import brute_force
from .qp import make_qp

GEN_KINDS = "toroidal:HxK planar:HxK mixed:HxK random:NxDENSITY debruijn:ORDER"


def build_instance(args) -> WeightedGraph:
    if getattr(args, "gen", None):
        return generate_from_spec(args.gen, getattr(args, "seed", 0))
    if getattr(args, "input", None):
        return load_graph(args.input, format=getattr(args, "format", None))
    raise ValueError("either --input or --gen is required")


def generate_from_spec(spec: str, seed: int) -> WeightedGraph:
    kind, _, rest = spec.partition(":")
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
    if getattr(args, "bisection", False):
        return PartitionSpec(l=n // 2, u=(n + 1) // 2)
    if args.l is None or args.u is None:
        raise ValueError("provide --l and --u, or --bisection")
    return PartitionSpec(l=args.l, u=args.u)


def emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2)
    if getattr(args, "json", None):
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _input_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="graph file path")
    p.add_argument("--format", choices=("el", "mtx"), help="input format (default: by extension)")
    p.add_argument("--gen", help=f"generate an instance, one of: {GEN_KINDS}")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p.add_argument("--l", type=int, help="lower side-size bound")
    p.add_argument("--u", type=int, help="upper side-size bound")
    p.add_argument("--bisection", action="store_true",
                   help="use l = floor(n/2), u = ceil(n/2)")


def cmd_solve(args) -> int:
    graph = build_instance(args)
    spec = resolve_spec(args, graph.n)
    config = BnbConfig(bound=args.bound, max_nodes=args.max_nodes, time_limit=args.time_limit)
    sol = solve(graph, spec, config)
    emit(
        {
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
            "psd_tol": sol.shift.psd_tol,
            "relaxations_converged": sol.all_relaxations_converged,
            "incumbent_trace": [[int(k), float(v)] for k, v in sol.incumbent_trace],
        },
        args,
    )
    return 0 if sol.status == "optimal" else 2


def cmd_bound(args) -> int:
    graph = build_instance(args)
    spec = resolve_spec(args, graph.n)
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
        opt, _ = brute_force(graph, spec)
        report["opt"] = opt
    emit(report, args)
    return 0


def cmd_generate(args) -> int:
    graph = generate_from_spec(args.gen, args.seed)
    save_edge_list(graph, args.out)
    emit(
        {
            "command": "generate",
            "gen": args.gen,
            "seed": args.seed,
            "n": graph.n,
            "m": graph.num_edges,
            "path": args.out,
        },
        args,
    )
    return 0


def cmd_check(args) -> int:
    graph = build_instance(args)
    spec = resolve_spec(args, graph.n)
    qp = make_qp(graph, spec)
    x = np.loadtxt(args.point, ndmin=1, dtype=float)
    if x.shape != (graph.n,):
        raise ValueError(f"point file holds {x.size} values, expected {graph.n}")
    assessment = check_strict(qp, x)
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
    emit(report, args)
    return 0


def cmd_oracle(args) -> int:
    graph = build_instance(args)
    spec = resolve_spec(args, graph.n)
    t0 = time.perf_counter()
    opt, side = brute_force(graph, spec)
    emit(
        {
            "command": "oracle",
            "n": graph.n,
            "l": spec.l,
            "u": spec.u,
            "opt_value": opt,
            "x": side.tolist(),
            "wall_time_s": round(time.perf_counter() - t0, 6),
        },
        args,
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """Bad flags raise ValueError, so main reports them as input errors."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qpcut",
        description="Exact edge-weighted graph bisection (min-cut with side-size bounds).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the branch-and-bound solver")
    _input_arguments(p)
    p.add_argument("--bound", choices=("sdp", "eig"), default="sdp",
                   help="lower-bound variant (default sdp)")
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--time-limit", type=float, default=None, help="seconds")
    p.add_argument("--json", help="also write the JSON report to this path")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("bound", help="compare the two root lower bounds")
    _input_arguments(p)
    p.add_argument("--oracle", action="store_true",
                   help="also report the exhaustive optimum (n <= 24)")
    p.add_argument("--json")
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("generate", help="write a generated instance to a file")
    p.add_argument("--gen", required=True, help=f"one of: {GEN_KINDS}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output edge-list path")
    p.add_argument("--json")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("check", help="classify a point file against the optimality conditions")
    _input_arguments(p)
    p.add_argument("--point", required=True, help="text file with n coordinate values")
    p.add_argument("--json")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("oracle", help="exhaustive optimum for small instances")
    _input_arguments(p)
    p.add_argument("--json")
    p.set_defaults(fn=cmd_oracle)
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return args.fn(args)
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
