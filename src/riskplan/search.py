"""The ε-safe best-first search both planners run.

A planner supplies the root of its plan shape and an ``expand`` function
with its refinement moves; everything else is shared.  The frontier is
ordered by potential mass, then by workload (steps plus unresolved flaws,
so lean plans come before padded ones), then newest first.  A node whose
potential falls below 1 - epsilon can never be repaired, because refining
a plan only shrinks context masses, so it is pruned.  Acceptance needs only
the *achieved* mass: branches that still have flaws are abandoned as
give-up leaves and reported as uncovered contexts.

Each popped node's model is built once and handed both to ``expand`` and,
on acceptance, to the result.  Models are not kept on the frontier: a
child's model is built to bound it and then dropped.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Callable, Iterable

from .domain import GroundDomain, GroundOperator, Problem
from .errors import PlanningFailure
from .plangraph import PlanGraph, canonical_key, extract_conditional_plan
from .probmodel import (PlanResult, SuccessBound, model_for_plan,
                        success_bound)

__all__ = ["best_first", "DEFAULT_NODE_BUDGET"]

DEFAULT_NODE_BUDGET = 10000

TraceFn = Callable[[dict], None]


def best_first(planner: str, root: PlanGraph,
               expand: Callable[..., Iterable[PlanGraph]],
               gdomain: GroundDomain, problem: Problem, *, model: str,
               epsilon: float | None, node_budget: int,
               trace: TraceFn | None) -> PlanResult:
    """Search from ``root`` for a plan whose finished branches carry mass
    at least 1 - epsilon.  Raises PlanningFailure (carrying the best bound
    seen) when the frontier empties or the node budget runs out.
    ``expand(plan, bound, model, gdomain, model_name)`` gives a popped
    node's children; ``model`` is its belief net or ``"simple"``."""
    eps = problem.epsilon if epsilon is None else epsilon
    started = time.monotonic()
    stats = {"planner": planner, "expanded": 0, "generated": 1,
             "pruned": 0, "deduplicated": 0}

    root_bound = _bound(root, problem, model, eps)
    # (key, plan, its bound, goals its parent had completed)
    heap: list[tuple[tuple, PlanGraph, SuccessBound, int]] = []
    counter = itertools.count()
    seen = {canonical_key(root)}
    heapq.heappush(heap, ((-root_bound.potential_mass, _workload(root),
                           -next(counter)),
                          root, root_bound, len(root_bound.completed)))
    best = root_bound

    while heap:
        _key, plan, bound, parent_done = heapq.heappop(heap)
        if trace:
            trace({"event": "node-expanded", "n": stats["expanded"],
                   "achieved": bound.achieved_mass,
                   "potential": bound.potential_mass,
                   "steps": len(plan.steps),
                   "openGoals": len(plan.open_goals),
                   "openInfluences": len(plan.open_influences)})
            if len(bound.completed) > parent_done:
                trace({"event": "branch-completed",
                       "completed": list(bound.completed),
                       "achieved": bound.achieved_mass})
        if _better(bound, best):
            best = bound
            if trace:
                trace({"event": "bound-updated",
                       "achieved": best.achieved_mass,
                       "potential": best.potential_mass})
        if not bound.accepted and stats["expanded"] >= node_budget:
            break
        m = model_for_plan(plan, problem, model)
        if bound.accepted:
            stats["elapsed"] = time.monotonic() - started
            conditional = extract_conditional_plan(
                plan, covered=list(bound.completed))
            return PlanResult(conditional, plan, bound, m, stats)
        stats["expanded"] += 1

        for child in expand(plan, bound, m, gdomain, model):
            key = canonical_key(child)
            if key in seen:
                stats["deduplicated"] += 1
                continue
            seen.add(key)
            stats["generated"] += 1
            cbound = _bound(child, problem, model, eps)
            if not cbound.viable:
                stats["pruned"] += 1
                continue
            heapq.heappush(heap, ((-cbound.potential_mass, _workload(child),
                                   -next(counter)),
                                  child, cbound, len(bound.completed)))

    stats["elapsed"] = time.monotonic() - started
    reason = ("node budget exhausted" if heap else "search space exhausted")
    raise PlanningFailure(
        f"no plan reaches mass {1 - eps:.6g} ({reason}); "
        f"best achieved {best.achieved_mass:.6g}, "
        f"potential {best.potential_mass:.6g}",
        best_bound=best, stats=stats)


def _bound(plan: PlanGraph, problem: Problem, model: str,
           eps: float) -> SuccessBound:
    return success_bound(plan, model_for_plan(plan, problem, model), eps)


def _better(a: SuccessBound, b: SuccessBound) -> bool:
    return (a.achieved_mass, a.potential_mass) > (b.achieved_mass,
                                                  b.potential_mass)


def _workload(plan: PlanGraph) -> int:
    return (len(plan.steps) + 2 * len(plan.open_goals)
            + 2 * len(plan.open_influences))


# ---------------------------------------------------------------------------
# helpers both planners' refinement moves use


def _priceable(op: GroundOperator, model: str) -> bool:
    """Under the simple model a chance step needs its own outcome
    distribution; skip operators the model cannot price."""
    if model == "simple" and op.kind in ("cond", "obs"):
        return op.simple_distribution is not None
    return True


def _det_sets(op: GroundOperator, var: str) -> bool:
    """A deterministic step that forces ``var`` to a value."""
    return op.kind == "det" and var in op.effect_values(None)


def _step_source(plan: PlanGraph, op: GroundOperator,
                 model: str) -> str | None:
    """What a new step's outcome labels bind to: None for a step without
    outcomes.  Observations share the observed variable under the network
    model (so re-observation agrees with itself); other chance steps label
    their own fresh step id."""
    if op.kind not in ("cond", "obs"):
        return None
    if op.kind == "obs" and model == "kbmc":
        return op.observes
    return f"s{plan.next_index}"
