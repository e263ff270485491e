"""Command-line front end.

Verbs: bounds, construct, analyze, schedule, run, adversarial, certify, scan.
Reports are line-oriented key=value text by default; ``--json`` switches any
verb to a single JSON document on stdout.  Rationals print as p/q in lowest
terms.  Exit status: 0 success, 2 usage or input error, 3 capacity error.
``certify`` gives each row a verdict and never stops at one; the one table
:data:`pargreedy.bounds.VERDICTS` gives each verdict but ``pass`` its
summary key, whether a zero count is printed, and its exit status (1 for a
row that failed, was inapplicable or had an undefined ratio), and the suite
exits with the lowest status among its rows.

:func:`main` builds its argument parser at its first call and reuses it for
every later call in the process, so in-process callers pay for it once and
importing this module builds nothing.  Parsing leaves no state on the
parser: every call gets a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional

from . import bounds as bounds_mod
from . import graphmetrics, serialize, suites
from .adversarial import curvature_witness, p_additive_witness, sequential_half_witness
from .errors import EXIT_CAPACITY, EXIT_INPUT, EXIT_OK, CapacityError, InputError
from .greedy import POLICIES, brute_force_optimum, run_greedy, run_parallel_greedy
from .objective import as_fraction, check_properties
from .structure import (
    complement_turan_graph,
    earliest_schedule,
    induced_graph,
    normalize_assignment,
    optimal_assignment,
    optimal_graph,
    turan_graph,
    validate_assignment,
)


def _emit(pairs: list[tuple[str, object]], as_json: bool) -> None:
    if as_json:
        print(json.dumps(dict(pairs), default=str))
    else:
        print(" ".join(f"{k}={v}" for k, v in pairs))


def _comma_list(text: str) -> list[str]:
    """The nonempty parts of a comma-separated flag value, stripped."""
    return [part for part in map(str.strip, text.split(",")) if part]


def _parse_lambdas(text: str) -> list[Fraction]:
    out = [as_fraction(part, "--lambdas") for part in _comma_list(text)]
    if not out:
        raise InputError("--lambdas: expected a comma-separated list of rationals")
    return out


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pargreedy",
        description="Parallel greedy submodular maximization: constructions, "
                    "exact graph invariants, adversarial witnesses and bound certification.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("bounds", help="closed-form competitive-ratio bounds")
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--in", dest="graph_path", metavar="GRAPH.json")
    p.add_argument("--lambda", dest="lam", metavar="P/Q", help="total curvature")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("construct", help="build graphs and assignments")
    p.add_argument("kind", choices=("graph", "assignment"))
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--family", choices=("optimal", "turan", "complement-turan"),
                   default="optimal")
    p.add_argument("--r", type=int, help="class count for the turan families")
    p.add_argument("--from-assignment", dest="from_assignment", metavar="P.json",
                   help="induced information graph of an assignment")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("analyze", help="exact invariants of a graph, assignment or instance")
    p.add_argument("kind", choices=("graph", "assignment", "instance"))
    p.add_argument("--in", dest="path", required=True, metavar="FILE")
    p.add_argument("--p", type=int, help="also report p-pseudo-independence")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("schedule", help="earliest feasible iteration per agent")
    p.add_argument("--in", dest="path", required=True, metavar="GRAPH.json")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("run", help="run the greedy algorithm on an instance")
    p.add_argument("--instance", required=True, metavar="INSTANCE.json")
    p.add_argument("--graph", metavar="GRAPH.json")
    p.add_argument("--assignment", metavar="P.json")
    p.add_argument("--policy", choices=POLICIES, default="worst")
    p.add_argument("--ratio", action="store_true",
                   help="also brute-force the optimum and report the ratio")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("adversarial", help="generate a worst-case witness instance")
    p.add_argument("--family", choices=("curvature", "p-additive", "sequential-half"),
                   required=True)
    p.add_argument("--graph", metavar="GRAPH.json")
    p.add_argument("--lambda", dest="lam", metavar="P/Q")
    p.add_argument("--p", type=int)
    p.add_argument("--out", metavar="WITNESS.json")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("certify", help="verify bounds against enumerated ratios")
    p.add_argument("--suite", choices=("witnesses", "random"))
    p.add_argument("--alpha-max", type=int, default=3)
    p.add_argument("--lambdas", default="0,1/2,1")
    p.add_argument("--p-max", type=int)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--seed", type=int, help="required for --suite random")
    p.add_argument("--witness", action="append", default=[], metavar="WITNESS.json",
                   help="certify stored witness files")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("scan", help="export bound curves as CSV plot data")
    p.add_argument("--curve", choices=("curvature-bounds",), required=True)
    p.add_argument("--r", required=True, metavar="R1,R2,...")
    p.add_argument("--lambda-steps", type=int, default=100)
    p.add_argument("--out", default="csv", metavar="FILE|csv|json")
    return parser


def _cmd_bounds(args) -> int:
    pairs: list[tuple[str, object]] = []
    lam = as_fraction(args.lam, "--lambda") if args.lam is not None else None
    if args.graph_path:
        graph = serialize.load_graph(args.graph_path)
        gb = bounds_mod.graph_ratio_bounds(graph)
        pairs += [("lower", gb.lower), ("upper", gb.upper)]
        if gb.refined_upper is not None:
            pairs.append(("refined_upper", gb.refined_upper))
        if lam is not None:
            cb = bounds_mod.curvature_graph_bounds(graph, lam)
            pairs += [("curvature_lower", cb.lower), ("curvature_upper", cb.upper)]
    elif args.n is not None and args.q is not None:
        pairs.append(("rho", bounds_mod.rho(args.n, args.q)))
        if lam is not None:
            eb = bounds_mod.curvature_eta_bounds(args.n, args.q, lam)
            pairs += [("lower", eb.lower), ("upper", eb.upper)]
    else:
        raise InputError("bounds: provide either --n and --q, or --in GRAPH.json")
    _emit(pairs, args.json)
    return EXIT_OK


def _cmd_construct(args) -> int:
    pairs: list[tuple[str, object]] = []
    if args.kind == "assignment":
        if args.n is None or args.q is None:
            raise InputError("construct assignment: requires --n and --q")
        assignment = optimal_assignment(args.n, args.q)
        built, to_obj, save = assignment, serialize.assignment_to_obj, serialize.save_assignment
        pairs += [("n", assignment.n), ("q", assignment.q),
                  ("P", ",".join(map(str, assignment.P)))]
    else:
        if args.from_assignment:
            graph = induced_graph(serialize.load_assignment(args.from_assignment))
        elif args.family == "optimal":
            if args.n is None or args.q is None:
                raise InputError("construct graph --family optimal: requires --n and --q")
            graph = optimal_graph(args.n, args.q)
        else:
            if args.n is None or args.r is None:
                raise InputError(f"construct graph --family {args.family}: requires --n and --r")
            builder = turan_graph if args.family == "turan" else complement_turan_graph
            graph = builder(args.n, args.r)
        built, to_obj, save = graph, serialize.graph_to_obj, serialize.save_graph
        pairs += [("n", graph.n), ("edges", graph.edge_count)]
    if args.out:
        save(built, args.out)
        pairs.append(("out", args.out))
        _emit(pairs, args.json)
    elif args.json:
        print(json.dumps(to_obj(built), sort_keys=True))
    else:
        _emit(pairs, False)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    pairs: list[tuple[str, object]] = []
    if args.kind == "graph":
        graph = serialize.load_graph(args.path)
        alpha = graphmetrics.independence_number(graph)
        theta = graphmetrics.clique_cover_number(graph)
        omega = graphmetrics.clique_number(graph)
        depth = earliest_schedule(graph).depth
        pairs += [("alpha", alpha.value), ("theta", theta.value),
                  ("omega", omega.value), ("feasible_q", depth),
                  ("edges", graph.edge_count)]
        if args.p is not None:
            ap = graphmetrics.pseudo_independence_number(graph, args.p).value
            sib = graphmetrics.has_p_sibling(graph, args.p)
            pairs += [("alpha_p", ap), ("p_sibling", "true" if sib else "false")]
    elif args.kind == "assignment":
        assignment = serialize.load_unchecked_assignment(args.path)
        violation = validate_assignment(assignment)
        if violation is None:
            norm = normalize_assignment(assignment)
            pairs += [("ok", "true"), ("n", assignment.n), ("q", assignment.q),
                      ("depth", max(norm.P, default=1)),
                      ("induced_edges", induced_graph(assignment).edge_count)]
        else:
            pairs += [("ok", "false"), ("violation", violation.kind),
                      ("agents", ",".join(map(str, violation.agents))),
                      ("detail", violation.detail)]
    else:
        f, agents = serialize.load_instance(args.path)
        report = check_properties(f)
        pairs += [("kind", f.kind), ("ground", len(f.ground)), ("agents", agents.n),
                  ("normalized", str(report.normalized).lower()),
                  ("monotone", str(report.monotone).lower()),
                  ("submodular", str(report.submodular).lower())]
        if report.curvature is not None:
            pairs.append(("curvature", report.curvature))
        if report.counterexample is not None:
            pairs.append(("violated", report.counterexample.prop))
    _emit(pairs, args.json)
    return EXIT_OK


def _cmd_schedule(args) -> int:
    graph = serialize.load_graph(args.path)
    sched = earliest_schedule(graph)
    _emit([("P", ",".join(map(str, sched.levels))), ("depth", sched.depth)], args.json)
    return EXIT_OK


def _cmd_run(args) -> int:
    f, agents = serialize.load_instance(args.instance)
    if (args.graph is None) == (args.assignment is None):
        raise InputError("run: provide exactly one of --graph or --assignment")
    if args.graph:
        graph = serialize.load_graph(args.graph)
        result = run_greedy(f, agents, graph, args.policy)
    else:
        assignment = serialize.load_assignment(args.assignment)
        result = run_parallel_greedy(f, agents, assignment, args.policy)
    outcomes = result if isinstance(result, tuple) else (result,)

    rows = []
    for o in outcomes:
        pairs: list[tuple[str, object]] = [
            ("value", o.value),
            ("profile", ",".join("-" if d is None else d for d in o.profile)),
            ("marginals", ",".join(str(m) for m in o.per_agent_marginal)),
            ("resolutions", o.resolutions_explored),
            ("depth", o.schedule.depth),
        ]
        rows.append(pairs)
    if args.ratio:
        _, opt = brute_force_optimum(f, agents)
        for pairs, o in zip(rows, outcomes):
            pairs.append(("optimum", opt))
            if opt != 0:
                pairs.append(("ratio", o.value / opt))
    if args.json:
        print(json.dumps([dict(pairs) for pairs in rows], default=str))
    else:
        for pairs in rows:
            _emit(pairs, False)
    return EXIT_OK


def _cmd_adversarial(args) -> int:
    if args.family == "sequential-half":
        witness = sequential_half_witness()
    elif args.family == "curvature":
        if args.graph is None or args.lam is None:
            raise InputError("adversarial --family curvature: requires --graph and --lambda")
        witness = curvature_witness(serialize.load_graph(args.graph),
                                    as_fraction(args.lam, "--lambda"))
    else:
        if args.graph is None or args.p is None:
            raise InputError("adversarial --family p-additive: requires --graph and --p")
        witness = p_additive_witness(serialize.load_graph(args.graph), args.p)
    pairs: list[tuple[str, object]] = [
        ("predicted_ratio", witness.predicted_ratio),
        ("bound_ref", witness.source),
        ("agents", witness.agents.n),
        ("ground", len(witness.objective.ground)),
    ]
    if args.out:
        serialize.save_witness(witness, args.out)
        pairs.append(("out", args.out))
    _emit(pairs, args.json)
    return EXIT_OK


def _cmd_certify(args) -> int:
    entries = []
    if args.witness:
        for k, path in enumerate(args.witness):
            w = serialize.load_witness(path)
            entries.append(suites.witness_entry(w, f"file-{k}-{path}", f"file-{k}"))
    if args.suite == "witnesses":
        entries += suites.standard_witness_entries(
            args.alpha_max, _parse_lambdas(args.lambdas), args.p_max)
    elif args.suite == "random":
        if args.seed is None:
            raise InputError("certify --suite random: --seed is required for reproducibility")
        entries += suites.random_cover_entries(args.seed, args.count, args.n_max)
    if not entries:
        raise InputError("certify: nothing to certify (use --suite or --witness)")
    report = bounds_mod.certify(entries)
    if args.json:
        print(json.dumps(report.to_json_obj()))
    else:
        for line in report.to_lines():
            print(line)
    return report.exit_status


def _cmd_scan(args) -> int:
    r_values = []
    for part in _comma_list(args.r):
        try:
            r_values.append(int(part))
        except ValueError:
            raise InputError(f"--r: expected integers, got {part!r}") from None
    if not r_values or any(r < 1 for r in r_values):
        raise InputError("--r: expected positive integers")
    steps = args.lambda_steps
    if steps < 1:
        raise InputError("--lambda-steps: must be at least 1")

    rows = []
    for r in r_values:
        for k in range(steps + 1):
            lam = Fraction(k, steps)
            # structure-level bounds at ceil(n/q) = r, e.g. (n, q) = (r, 1)
            rb = bounds_mod.curvature_eta_bounds(r, 1, lam)
            rows.append((r, lam, rb.lower, rb.upper))

    if args.out == "json":
        print(json.dumps([{"r": r, "lambda": str(lam), "lower": str(lo), "upper": str(up)}
                          for r, lam, lo, up in rows]))
        return EXIT_OK
    # every field is an int or a p/q rational, so none needs CSV quoting
    text = "r,lambda,lower,upper\n" + "".join(f"{r},{lam},{lo},{up}\n" for r, lam, lo, up in rows)
    if args.out == "csv":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"rows={len(rows)} out={args.out}")
    return EXIT_OK


_COMMANDS = {
    "bounds": _cmd_bounds,
    "construct": _cmd_construct,
    "analyze": _cmd_analyze,
    "schedule": _cmd_schedule,
    "run": _cmd_run,
    "adversarial": _cmd_adversarial,
    "certify": _cmd_certify,
    "scan": _cmd_scan,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        # inputs are read through serialize, which raises InputError, so
        # this is an output file that cannot be written; it names the path
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
