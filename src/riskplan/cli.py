"""Command line front end.

    riskplan --domain ski.sexp --problem trip.sexp --emit plan-json --emit dot

Exit status: 0 when a plan meeting the mass target is found, 1 for usage,
parse, or validation errors, 2 when planning fails (the best bound reached
is reported).  Emitted files are byte-identical across runs with the same
inputs, flags, and seed: JSON keys are sorted and nothing records wall
time.  Files land in --out, else $RISKPLAN_OUTPUT_DIR, else the working
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .conditional import plan_document
from .domain import (DomainSyntaxError, DomainValidationError, GroundingError,
                     ground, parse_domain, parse_problem, validate_problem)
from .errors import PlanningFailure, RiskplanError
from .linear import plan_linear
from .nonlinear import plan_nonlinear
from .plangraph import to_dot
from .probmodel import net_to_dot
from .search import DEFAULT_NODE_BUDGET
from .simulator import simulate_document

__all__ = ["build_parser", "run", "main"]

OUTPUT_DIR_ENV = "RISKPLAN_OUTPUT_DIR"
EMISSIONS = ("plan-json", "dot", "trace", "simulate")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; 2 means "planning failed" here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="riskplan",
                description="Plan under uncertainty to a target success "
                            "probability.")
    p.add_argument("--domain", required=True, type=Path,
                   help="domain file (operators, prior clauses)")
    p.add_argument("--problem", required=True, type=Path,
                   help="problem file (init, goal, epsilon)")
    p.add_argument("--planner", choices=("linear", "nonlinear"),
                   default="linear")
    p.add_argument("--model", choices=("simple", "kbmc"), default="kbmc",
                   help="how branch masses are computed: independent "
                        "outcomes, or the belief net built while planning")
    p.add_argument("--epsilon", type=float, default=None,
                   help="override the problem's failure budget; must be "
                        "in [0, 1)")
    p.add_argument("--seed", type=int, default=0,
                   help="random seed for --emit simulate, in [0, 2**64)")
    p.add_argument("--trials", type=int, default=10000,
                   help="Monte Carlo trials for --emit simulate")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help="search nodes to expand before giving up")
    p.add_argument("--emit", action="append", choices=EMISSIONS, default=[],
                   help="artifact to write (repeatable)")
    p.add_argument("--out", type=Path, default=None,
                   help=f"output directory (default ${OUTPUT_DIR_ENV} "
                        "or the working directory)")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.epsilon is not None and not 0.0 <= args.epsilon < 1.0:
        parser.error(f"--epsilon must be in [0, 1), got {args.epsilon}")
    if args.trials < 1 or args.node_budget < 1:
        parser.error("--trials and --node-budget must be positive")
    if not 0 <= args.seed < 2**64:  # a Philox key word
        parser.error(f"--seed must be in [0, 2**64), got {args.seed}")
    return run(args)


def run(args: argparse.Namespace) -> int:
    """Run the command line ``build_parser`` parsed; returns the exit
    status."""
    try:
        domain = parse_domain(args.domain.read_text())
        problem = parse_problem(args.problem.read_text())
        gdomain = ground(domain)
        problem = problem.with_priors(gdomain.clauses)
    except (OSError, DomainSyntaxError, DomainValidationError,
            GroundingError) as e:
        print(f"riskplan: {e}", file=sys.stderr)
        return 1

    diags = validate_problem(problem, gdomain)
    for d in diags:
        print(f"riskplan: {d}", file=sys.stderr)
    if any(d.level == "error" for d in diags):
        return 1

    events: list[dict] = []
    trace = events.append if "trace" in args.emit else None
    planner = plan_linear if args.planner == "linear" else plan_nonlinear
    try:
        result = planner(gdomain, problem, model=args.model,
                         epsilon=args.epsilon,
                         node_budget=args.node_budget, trace=trace)
    except PlanningFailure as e:
        b = e.best_bound
        print(f"no plan: {e}", file=sys.stderr)
        if b is not None:
            print(f"best bound: achieved {b.achieved_mass:.6g}, "
                  f"potential {b.potential_mass:.6g}, "
                  f"target {1 - b.epsilon:.6g}")
        return 2
    except RiskplanError as e:
        print(f"riskplan: {e}", file=sys.stderr)
        return 1

    bound = result.bound
    doc = plan_document(result, problem, args.model)
    branches = sum(1 for s in result.conditional.steps_used().values()
                   if s.kind in ("cond", "obs"))
    print(f"plan: achieved {bound.achieved_mass:.6g} "
          f"(target {1 - bound.epsilon:.6g}, epsilon {bound.epsilon:.6g})")
    print(f"steps: {len(result.conditional.steps_used())}  "
          f"branch points: {branches}  "
          f"uncovered contexts: {len(result.conditional.uncovered)}  "
          f"expanded: {result.stats['expanded']}")

    written = _emit(args, result, doc, events)
    for path in written:
        print(f"wrote {path}")
    return 0


def _emit(args: argparse.Namespace, result, doc: dict,
          events: list[dict]) -> list[Path]:
    if not args.emit:
        return []
    out = args.out or Path(os.environ.get(OUTPUT_DIR_ENV, "."))
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def write(name: str, text: str):
        path = out / name
        path.write_text(text)
        written.append(path)

    if "plan-json" in args.emit:
        write("plan.json", json.dumps(doc, sort_keys=True, indent=2) + "\n")
    if "dot" in args.emit:
        write("plan.dot", to_dot(result.graph))
        if args.model == "kbmc":
            write("net.dot", net_to_dot(result.model))
    if "trace" in args.emit:
        write("trace.jsonl",
              "".join(json.dumps(e, sort_keys=True) + "\n" for e in events))
    if "simulate" in args.emit:
        report = simulate_document(doc, trials=args.trials, seed=args.seed)
        write("simulate.json",
              json.dumps(report, sort_keys=True, indent=2) + "\n")
    return written


if __name__ == "__main__":
    sys.exit(main())
