"""Nonlinear planner: partial-order search over dag-shaped plan graphs.

Steps are only ordered where a link demands it, so threats are real flaws
here rather than generation-time prunes.  Each search node resolves one
flaw, taken in priority order:

  threats > open preconditions > open influences > uncovered contexts

and within a class heaviest context mass first.  Threats admit the classic
moves (demote the clobberer before the producer, promote it past the
consumer) plus conditioning: put the clobberer and the link's consumer
under different outcomes of some chancy step.  Causal support from a
conditional producer conditions the consumer with the producing outcome's
label, which keeps every branch's steps mutually compatible and makes
extraction well defined.  Plans that still fall short of mass 1 - epsilon
once flawless may grow a new goal step for an uncovered outcome context, or
insert an observation of a variable d-connected to one they are acting in
ignorance of, refining branch masses.  The best-first search around these
moves is the one in :mod:`riskplan.search`.
"""

from __future__ import annotations

from .domain import GroundDomain, GroundOperator, Problem, Proposition
from .errors import WouldCreateCycle
from .plangraph import (Label, Link, PlanGraph, START_ID, Threat, add_link,
                        condition_step, dag_add_goal, dag_add_step,
                        make_root_plan, uncovered_outcome_contexts)
from .probmodel import (PlanResult, SuccessBound, context_probability,
                        d_connected)
from .search import (DEFAULT_NODE_BUDGET, _det_sets, _priceable,
                     _step_source, best_first)

__all__ = ["plan_nonlinear"]


def plan_nonlinear(gdomain: GroundDomain, problem: Problem, *,
                   model: str = "kbmc", epsilon: float | None = None,
                   node_budget: int = DEFAULT_NODE_BUDGET,
                   trace=None) -> PlanResult:
    """Partial-order counterpart of plan_linear; same contract."""
    return best_first("nonlinear", make_root_plan(problem, "dag"), _expand,
                      gdomain, problem, model=model, epsilon=epsilon,
                      node_budget=node_budget, trace=trace)


# ---------------------------------------------------------------------------
# flaw choice


def _expand(plan: PlanGraph, _bound: SuccessBound, m, gdomain: GroundDomain,
            model: str) -> list[PlanGraph]:
    threats = plan.threats
    if threats:
        def tkey(t: Threat):
            ctx = plan.steps[t.step].context | plan.steps[t.link.consumer].context
            return (-context_probability(plan, ctx, m),
                    plan.steps[t.step].sort_key(), t.link.text(),
                    t.outcome or "")
        return _resolve_threat(plan, min(threats, key=tkey))

    if plan.open_goals:
        def gkey(item):
            sid, prop = item
            return (-context_probability(plan, plan.steps[sid].context, m),
                    plan.steps[sid].sort_key(), str(prop))
        sid, prop = min(plan.open_goals, key=gkey)
        return _resolve_precondition(plan, gdomain, model, sid, prop)

    if plan.open_influences:
        def ikey(item):
            sid, var = item
            return (-context_probability(plan, plan.steps[sid].context, m),
                    plan.steps[sid].sort_key(), var)
        sid, var = min(plan.open_influences, key=ikey)
        return _resolve_influence(plan, gdomain, model, sid, var)

    out: list[PlanGraph] = []
    for ctx in sorted(uncovered_outcome_contexts(plan),
                      key=lambda c: (-context_probability(plan, c, m),
                                     sorted(c))):
        made = _cover_context(plan, ctx)
        if made is not None:
            out.append(made)
    out.extend(_collect_information(plan, m, gdomain, model))
    return out


# ---------------------------------------------------------------------------
# label plumbing


def _label_producer(plan: PlanGraph, holder: str, lab: Label) -> str:
    """The step that put ``lab`` into ``holder``'s context (falls back to
    the canonically first step bound to the label's source)."""
    for l in plan.links:
        if l.kind == "conditioning" and l.consumer == holder \
                and l.payload == lab:
            return l.producer
    return _source_step(plan, lab.source)


def _source_step(plan: PlanGraph, source: str) -> str:
    """The canonically first step bound to ``source``, else start."""
    return next((st.id for st in plan.step_list() if st.source == source),
                START_ID)


def _context_pairs(plan: PlanGraph, ctx) -> list[tuple[Label, str]]:
    return [(lab, _source_step(plan, lab.source)) for lab in sorted(ctx)]


def _join_branch(plan: PlanGraph, sid: str, producer: str,
                 outcome: str | None) -> PlanGraph | None:
    """Condition ``sid`` so the producer definitely runs whenever sid does:
    sid takes on the producer's context labels, plus the producing outcome's
    label when support comes from one outcome of a chancy step."""
    w = plan.steps[producer]
    pairs = [(lab, _label_producer(plan, producer, lab))
             for lab in sorted(w.context - plan.steps[sid].context)]
    if outcome is not None:
        lab = Label(w.source, outcome)
        if lab not in plan.steps[sid].context:
            pairs.append((lab, producer))
    if not pairs:
        return plan
    return condition_step(plan, sid, pairs)


# ---------------------------------------------------------------------------
# resolutions


def _resolve_threat(plan: PlanGraph, threat: Threat) -> list[PlanGraph]:
    out: list[PlanGraph] = []
    v = threat.step
    link = threat.link

    def try_order(a: str, b: str):
        if a == START_ID and b == START_ID:
            return
        try:
            out.append(add_link(plan, Link("ordering", a, b)))
        except WouldCreateCycle:
            pass

    if link.kind == "ignorance":
        # the pledge holds if the revealer runs strictly after the consumer
        try_order(link.consumer, v)
    else:
        if link.producer != START_ID:
            try_order(v, link.producer)  # demotion
        try_order(link.consumer, v)      # promotion

    # conditioning: separate the clobberer from the consumer by outcome
    w = link.consumer
    for a in plan.step_list():
        if a.source is None or a.id in (v, w):
            continue
        for ov in a.operator.outcomes:
            for ow in a.operator.outcomes:
                if ov == ow:
                    continue
                p1 = condition_step(plan, v, [(Label(a.source, ov), a.id)])
                if p1 is None:
                    continue
                p2 = condition_step(p1, w, [(Label(a.source, ow), a.id)])
                if p2 is not None:
                    out.append(p2)
    return out


def _observed_somewhere(plan: PlanGraph, var: str) -> bool:
    return any(st.operator.observes == var for st in plan.step_list())


def _add_step_for(plan: PlanGraph, op: GroundOperator, sid: str,
                  model: str) -> tuple[PlanGraph, str] | None:
    """New step inheriting the consumer's context."""
    if not _priceable(op, model):
        return None
    if op.kind == "obs" and model == "kbmc" \
            and _observed_somewhere(plan, op.observes):
        return None  # reuse the existing observer instead
    source = _step_source(plan, op, model)
    influences = op.influences if op.kind == "cond" else ()
    pairs = _context_pairs(plan, plan.steps[sid].context)
    try:
        return dag_add_step(plan, op, pairs, source=source,
                            influences=influences)
    except WouldCreateCycle:
        return None


def _resolve_precondition(plan: PlanGraph, gdomain: GroundDomain, model: str,
                          sid: str, prop: Proposition) -> list[PlanGraph]:
    out: list[PlanGraph] = []

    for w in plan.step_list():  # reuse, start included
        if w.id == sid or w.kind == "goal" or plan.ordered_before(sid, w.id):
            continue
        for o in w.operator.establishing_outcomes(prop):
            p2 = _join_branch(plan, sid, w.id, o)
            if p2 is None:
                continue
            try:
                p2 = add_link(p2, Link("causal", w.id, sid, prop))
            except WouldCreateCycle:
                continue
            out.append(p2.without_open_goal((sid, prop)))

    for op in gdomain.operators:  # fresh producer
        for o in op.establishing_outcomes(prop):
            made = _add_step_for(plan, op, sid, model)
            if made is None:
                continue
            p2, nid = made
            if o is not None:
                p2x = condition_step(
                    p2, sid, [(Label(p2.steps[nid].source, o), nid)])
                if p2x is None:
                    continue
                p2 = p2x
            try:
                p2 = add_link(p2, Link("causal", nid, sid, prop))
            except WouldCreateCycle:
                continue
            out.append(p2.without_open_goal((sid, prop)))
    return out


def _resolve_influence(plan: PlanGraph, gdomain: GroundDomain, model: str,
                       sid: str, var: str) -> list[PlanGraph]:
    ctx = plan.steps[sid].context
    if any(lab.source == var for lab in ctx):
        return [plan.without_open_influence((sid, var))]
    for w in plan.step_list():
        if _det_sets(w.operator, var) and w.context <= ctx \
                and plan.ordered_before(w.id, sid):
            p2 = add_link(plan, Link("influence", w.id, sid, var))
            return [p2.without_open_influence((sid, var))]

    out: list[PlanGraph] = []
    try:  # act in ignorance
        pledged = add_link(plan, Link("ignorance", START_ID, sid, var))
        out.append(pledged.without_open_influence((sid, var)))
    except WouldCreateCycle:
        pass

    # settle the variable first: an observation (each outcome is its own
    # commitment) or a forcing action
    if model == "kbmc":
        candidates: list[tuple[PlanGraph, str, GroundOperator]] = []
        existing = [st for st in plan.step_list()
                    if st.operator.observes == var]
        if existing:
            candidates = [(plan, st.id, st.operator) for st in existing]
        else:
            for op in gdomain.operators:
                if op.kind == "obs" and op.observes == var:
                    made = _add_step_for(plan, op, sid, model)
                    if made is not None:
                        candidates.append((made[0], made[1], op))
        for base, oid, op in candidates:
            for o in op.outcomes:
                p2 = condition_step(base, sid, [(Label(var, o), oid)])
                if p2 is None:
                    continue
                try:
                    p2 = add_link(p2, Link("influence", oid, sid, var))
                except WouldCreateCycle:
                    continue
                out.append(p2.without_open_influence((sid, var)))

    for op in gdomain.operators:  # force it
        if not _det_sets(op, var):
            continue
        made = _add_step_for(plan, op, sid, model)
        if made is None:
            continue
        p2, nid = made
        try:
            p2 = add_link(p2, Link("influence", nid, sid, var))
        except WouldCreateCycle:
            continue
        out.append(p2.without_open_influence((sid, var)))
    return out


def _cover_context(plan: PlanGraph, ctx) -> PlanGraph | None:
    pairs = _context_pairs(plan, ctx)
    try:
        p2, _gid = dag_add_goal(plan, pairs)
    except WouldCreateCycle:
        return None
    return p2


def _collect_information(plan: PlanGraph, net, gdomain: GroundDomain,
                         model: str) -> list[PlanGraph]:
    """Refinement move: for a step acting in ignorance of X, observing any
    P' still d-connected to X (given what its branch already fixes) splits
    the branch into contexts with different success odds."""
    if model != "kbmc":
        return []
    out: list[PlanGraph] = []
    for link in sorted(plan.links, key=Link.text):
        if link.kind != "ignorance":
            continue
        sid, x = link.consumer, link.payload
        ctx = plan.steps[sid].context
        fixed = [lab.source for lab in ctx if lab.source in net.variables]
        for op in gdomain.operators:
            p_var = op.observes
            if op.kind != "obs" or p_var == x or p_var not in net.variables:
                continue
            if any(lab.source == p_var for lab in ctx):
                continue
            if _observed_somewhere(plan, p_var):
                continue
            if not d_connected(net, p_var, x, fixed):
                continue
            made = _add_step_for(plan, op, sid, model)
            if made is None:
                continue
            p2, nid = made
            for o in op.outcomes:
                p3 = condition_step(p2, sid, [(Label(p_var, o), nid)])
                if p3 is None:
                    continue
                try:
                    p3 = add_link(p3, Link("influence", nid, sid, p_var))
                except WouldCreateCycle:
                    continue
                out.append(p3)
    return out
