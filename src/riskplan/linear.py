"""Linear planner: best-first search over tree-shaped conditional plans.

Plans are built by regression.  Every search node is a complete plan graph
whose steps form a tree rooted at start; conditional and observation steps
fork the tree, other steps sit on an edge.  Resolving an open precondition
may link it to start, to an existing ancestor, or to a new step inserted on
*any* edge of the path from start to the consumer.  Offering every position
matters: interleaved goals (stack a on b, b on c) have no solution if new
steps may only appear directly above their consumer.

The best-first search itself (frontier order, pruning, acceptance) lives
in :mod:`riskplan.search`; this module supplies the tree-shaped root and
the refinement moves.
"""

from __future__ import annotations

from typing import Iterable

from .domain import GroundDomain, GroundOperator, Problem, Proposition
from .errors import WouldCreateCycle
from .plangraph import (Label, Link, PlanGraph, START_ID, add_link,
                        make_root_plan, tree_insert)
# unused here since plans carry their threats, but bench/test_bench.py
# expects the name bound in this module
from .plangraph import find_threats  # noqa: F401
from .probmodel import PlanResult, SuccessBound, select_goal_node
from .search import (DEFAULT_NODE_BUDGET, TraceFn, _det_sets, _priceable,
                     _step_source, best_first)

__all__ = ["plan_linear"]


def plan_linear(gdomain: GroundDomain, problem: Problem, *,
                model: str = "kbmc", epsilon: float | None = None,
                node_budget: int = DEFAULT_NODE_BUDGET,
                trace: TraceFn | None = None) -> PlanResult:
    """Search for a conditional plan whose finished branches carry mass at
    least 1 - epsilon.  Raises PlanningFailure (carrying the best bound
    seen) when the frontier empties or the node budget runs out."""
    return best_first("linear", make_root_plan(problem, "tree"), _expand,
                      gdomain, problem, model=model, epsilon=epsilon,
                      node_budget=node_budget, trace=trace)


# ---------------------------------------------------------------------------
# expansion


def _expand(plan: PlanGraph, bound: SuccessBound, m, gdomain: GroundDomain,
            model: str) -> Iterable[PlanGraph]:
    """Children of a search node: all ways to resolve one chosen flaw on the
    heaviest unfinished branch (influences before preconditions)."""
    gid = select_goal_node(plan, m, bound.completed)
    if gid is None:
        return []
    gctx = plan.steps[gid].context
    infl = sorted(((sid, v) for sid, v in plan.open_influences
                   if plan.steps[sid].context <= gctx),
                  key=lambda it: (plan.steps[it[0]].sort_key(), it[1]))
    if infl:
        return _resolve_influence(plan, gdomain, model, *infl[0])
    goals = sorted(((sid, p) for sid, p in plan.open_goals
                    if plan.steps[sid].context <= gctx),
                   key=lambda it: (plan.steps[it[0]].sort_key(), str(it[1])))
    if not goals:
        return []
    return _resolve_precondition(plan, gdomain, model, *goals[0])


def _safe(plan: PlanGraph | None) -> list[PlanGraph]:
    """Keep a candidate only if it is internally consistent: tree plans
    cannot reorder steps, so any threat is fatal and pruned right here."""
    if plan is None or plan.threats:
        return []
    return [plan]


def _path_edges(plan: PlanGraph, sid: str) -> list[tuple[str, str]]:
    path = plan.tree_path(sid)
    return list(zip(path, path[1:]))


def _determined_value(plan: PlanGraph, sid: str, var: str) -> str | None:
    """The value of ``var`` already fixed at ``sid``: an outcome label bound
    to the variable, or a deterministic effect of an ancestor."""
    for lab in plan.steps[sid].context:
        if lab.source == var:
            return lab.outcome
    value = None
    for wid in plan.tree_path(sid)[:-1]:  # chance steps have no det effects
        value = plan.steps[wid].operator.effect_values(None).get(var, value)
    return value


def _redundant_observation(plan: PlanGraph, op: GroundOperator, child: str,
                           model: str) -> bool:
    """Observing a variable that is already settled at the insertion point
    (or observed again in the subtree below) can never split any mass."""
    if op.kind != "obs" or model != "kbmc":
        return False
    var = op.observes
    if _determined_value(plan, child, var) is not None:
        return True
    for below in plan.subtree_ids(child) | {child}:
        if plan.steps[below].operator.observes == var:
            return True
    return False


def _insert_producer(plan: PlanGraph, op: GroundOperator, outcome: str | None,
                     parent: str, child: str, model: str
                     ) -> tuple[PlanGraph, str] | None:
    """Insert op on the tree edge parent->child, continuing the existing
    subtree under ``outcome`` when the op is chancy."""
    if not _priceable(op, model):
        return None
    if _redundant_observation(plan, op, child, model):
        return None
    source = _step_source(plan, op, model)
    influences = op.influences if op.kind == "cond" else ()
    try:
        plan2, sid, _leaves = tree_insert(plan, op, parent, child,
                                          chosen_outcome=outcome,
                                          source=source,
                                          influences=influences)
    except WouldCreateCycle:
        return None
    return plan2, sid


def _link_establisher(plan: PlanGraph, producer: str, prop: Proposition,
                      consumer: str) -> PlanGraph | None:
    try:
        plan2 = add_link(plan, Link("causal", producer, consumer, prop))
    except WouldCreateCycle:
        return None
    return plan2.without_open_goal((consumer, prop))


def _resolve_precondition(plan: PlanGraph, gdomain: GroundDomain, model: str,
                          sid: str, prop: Proposition) -> list[PlanGraph]:
    out: list[PlanGraph] = []
    ctx = plan.steps[sid].context

    # reuse an ancestor (start included); a chancy ancestor only serves if
    # the consumer already sits in the establishing outcome's branch
    for wid in plan.tree_path(sid)[:-1]:
        w = plan.steps[wid]
        for o in w.operator.establishing_outcomes(prop):
            if o is not None and Label(w.source, o) not in ctx:
                continue
            out.extend(_safe(_link_establisher(plan, wid, prop, sid)))

    # or insert a fresh producer anywhere on the path
    for op in gdomain.operators:
        for o in op.establishing_outcomes(prop):
            for parent, child in _path_edges(plan, sid):
                made = _insert_producer(plan, op, o, parent, child, model)
                if made is None:
                    continue
                plan2, new_id = made
                out.extend(_safe(_link_establisher(plan2, new_id, prop, sid)))
    return out


def _resolve_influence(plan: PlanGraph, gdomain: GroundDomain, model: str,
                       sid: str, var: str) -> list[PlanGraph]:
    """Discharge one influence: it may already be settled in this branch,
    may be pledged unknown (an ignorance link from start), or may be pinned
    down first by inserting an observer or a forcing action on the path."""
    if _determined_value(plan, sid, var) is not None:
        return [plan.without_open_influence((sid, var))]

    out: list[PlanGraph] = []
    try:
        pledged = add_link(plan, Link("ignorance", START_ID, sid, var))
        out.extend(_safe(pledged.without_open_influence((sid, var))))
    except WouldCreateCycle:
        pass

    for op in gdomain.operators:
        observes = (op.kind == "obs" and op.observes == var
                    and model == "kbmc")
        if not (observes or _det_sets(op, var)):
            continue
        outcomes = list(op.outcomes) if op.kind == "obs" else [None]
        for o in outcomes:
            for parent, child in _path_edges(plan, sid):
                made = _insert_producer(plan, op, o, parent, child, model)
                if made is None:
                    continue
                plan2, _new = made
                if _determined_value(plan2, sid, var) is None:
                    continue
                out.extend(_safe(plan2.without_open_influence((sid, var))))
    return out
