"""Probability models over plan contexts.

Two models share one interface.  The *simple* model treats every
conditional step's outcome as an independent draw from the distribution on
its operator, so a context's probability is a plain product.  The *network*
model maintains a belief net built incrementally while planning: prior
clauses declare world variables up front, each conditional step adds a node
whose parents are its open influences, and observation steps bind their
outcome labels to an existing variable (no node is added, which is what
makes re-observation consistent).  Context probabilities are then exact
joint marginals; both an enumeration oracle and a variable-elimination fast
path are provided and must agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .domain import (DependencyCycle, GroundOperator, Problem,
                     dependency_order)
from .errors import (InconsistentLabels, LabelWithoutDistribution,
                     MissingCptRow, MissingInfluenceVariable,
                     OutcomeSpaceMismatch, OverlappingGoalContexts,
                     UnknownVariable, ZeroProbabilityContext)
from .plangraph import (ConditionalPlan, Label, PlanGraph, complete_goal_ids,
                        context_consistent, contexts_compatible,
                        uncovered_outcome_contexts)

__all__ = [
    "NetVariable",
    "BeliefNet",
    "SuccessBound",
    "PlanResult",
    "build_initial_net",
    "add_conditional_node",
    "joint_probability",
    "conditional_outcome_probability",
    "d_connected",
    "simple_context_probability",
    "context_probability",
    "net_for_plan",
    "model_for_plan",
    "success_bound",
    "select_goal_node",
    "plan_document",
    "net_to_dot",
]

MASS_TOL = 1e-12  # numeric slack when comparing accumulated masses


@dataclass(frozen=True)
class NetVariable:
    space: tuple[str, ...]
    parents: tuple[str, ...]
    cpt: Mapping[tuple[str, ...], float]  # keyed (own outcome, *parent outcomes)


@dataclass(frozen=True)
class BeliefNet:
    variables: Mapping[str, NetVariable]

    def with_variable(self, name: str, nv: NetVariable) -> "BeliefNet":
        if name in self.variables:
            raise UnknownVariable(f"variable {name} already in the net")
        for p in nv.parents:
            if p not in self.variables:
                raise MissingInfluenceVariable(
                    f"variable {name} depends on {p}, not in the net")
        d = dict(self.variables)
        d[name] = nv
        return BeliefNet(d)

    def topological_order(self) -> list[str]:
        return dependency_order(
            sorted(self.variables),
            {v: nv.parents for v, nv in self.variables.items()})


def build_initial_net(problem: Problem) -> BeliefNet:
    """Net over the prior-governed variables only.  Propositions known true
    or false in the initial state are facts, not random variables."""
    by_var = {c.var: c for c in problem.priors}
    try:
        order = dependency_order(sorted(by_var),
                                 {v: c.parents for v, c in by_var.items()})
    except DependencyCycle as e:
        v, p = e.args[0][-2:]
        raise MissingInfluenceVariable(
            f"variable {v} depends on {p}, not in the net") from None
    return BeliefNet({v: NetVariable(by_var[v].space, by_var[v].parents,
                                     by_var[v].cpt) for v in order})


def add_conditional_node(net: BeliefNet, node_id: str, op: GroundOperator,
                         known_values: Mapping[str, str] | None = None
                         ) -> tuple[BeliefNet, tuple[str, ...]]:
    """Add the outcome variable of a conditional step.

    Influences whose value is known in the initial state contribute no arc;
    the distribution is conditioned on the known value instead.  Every other
    declared influence becomes a parent arc and is returned as open (the
    planner must commit to observing it or acting in ignorance of it).
    """
    known_values = known_values or {}
    parents: list[str] = []
    fixed: list[tuple[int, str]] = []  # (position in op.influences, value)
    for i, v in enumerate(op.influences):
        if v in known_values:
            fixed.append((i, known_values[v]))
        elif v in net.variables:
            parents.append(v)
        else:
            raise MissingInfluenceVariable(
                f"step {node_id}: influence {v} is neither known nor in the net")
    if op.cpt is not None:
        fixed_pos = {i: val for i, val in fixed}
        cpt: dict[tuple[str, ...], float] = {}
        for key, p in op.cpt.items():
            tail = key[1:]
            if all(tail[i] == val for i, val in fixed_pos.items()):
                new_tail = tuple(t for i, t in enumerate(tail)
                                 if i not in fixed_pos)
                cpt[(key[0],) + new_tail] = p
        _check_total(cpt, op.outcomes,
                     [net.variables[p].space for p in parents],
                     f"step {node_id}")
    else:
        if op.simple_distribution is None:
            raise LabelWithoutDistribution(
                f"step {node_id}: operator {op.name} has no distribution")
        cpt = {(o,): p for o, p in op.simple_distribution.items()}
    nv = NetVariable(tuple(op.outcomes), tuple(parents), cpt)
    return net.with_variable(node_id, nv), tuple(parents)


def _check_total(cpt, outcomes, parent_spaces, where: str):
    for tail in itertools.product(*parent_spaces):
        for o in outcomes:
            if (o,) + tail not in cpt:
                raise MissingCptRow(f"{where}: no row for {(o,) + tail}")


# ---------------------------------------------------------------------------
# exact inference


def _as_evidence(net: BeliefNet, labels: Iterable[Label]) -> dict[str, str]:
    ev: dict[str, str] = {}
    for lab in labels:
        if lab.source not in net.variables:
            raise UnknownVariable(f"label on unknown variable {lab.source}")
        if lab.outcome not in net.variables[lab.source].space:
            raise OutcomeSpaceMismatch(
                f"{lab.source} has no outcome {lab.outcome!r}")
        if ev.setdefault(lab.source, lab.outcome) != lab.outcome:
            raise InconsistentLabels(
                f"labels assign {lab.source} two outcomes")
        ev[lab.source] = lab.outcome
    return ev


def joint_probability(net: BeliefNet, labels: Iterable[Label],
                      method: str = "ve") -> float:
    """Exact probability that every label's variable takes its outcome.

    ``method`` is ``ve`` (variable elimination, the default) or
    ``enumerate`` (the brute-force oracle the fast path is tested against).
    """
    ev = _as_evidence(net, labels)
    if not net.variables:
        return 1.0
    if method == "enumerate":
        return _joint_enumerate(net, ev)
    if method == "ve":
        return _joint_ve(net, ev)
    raise ValueError(f"unknown method {method!r}")


def _joint_enumerate(net: BeliefNet, ev: Mapping[str, str]) -> float:
    order = net.topological_order()
    total = 0.0
    assign: dict[str, str] = {}

    def rec(i: int, weight: float):
        nonlocal total
        if i == len(order):
            total += weight
            return
        v = order[i]
        nv = net.variables[v]
        choices = (ev[v],) if v in ev else nv.space
        for out in choices:
            key = (out,) + tuple(assign[p] for p in nv.parents)
            if key not in nv.cpt:
                raise MissingCptRow(f"{v}: no row for {key}")
            assign[v] = out
            rec(i + 1, weight * nv.cpt[key])
        del assign[v]

    rec(0, 1.0)
    return total


class _Factor:
    __slots__ = ("vars", "table")

    def __init__(self, vars: tuple[str, ...], table: np.ndarray):
        self.vars = vars
        self.table = table


def _factor_for(net: BeliefNet, v: str) -> _Factor:
    nv = net.variables[v]
    shape = [len(nv.space)] + [len(net.variables[p].space) for p in nv.parents]
    table = np.empty(shape, dtype=float)
    spaces = [nv.space] + [net.variables[p].space for p in nv.parents]
    for idx in itertools.product(*(range(len(s)) for s in spaces)):
        key = tuple(spaces[d][i] for d, i in enumerate(idx))
        if key not in nv.cpt:
            raise MissingCptRow(f"{v}: no row for {key}")
        table[idx] = nv.cpt[key]
    return _Factor((v,) + nv.parents, table)


def _restrict(f: _Factor, v: str, index: int) -> _Factor:
    ax = f.vars.index(v)
    return _Factor(f.vars[:ax] + f.vars[ax + 1:], np.take(f.table, index, ax))


def _expand(f: _Factor, vs: tuple[str, ...], sizes: Mapping[str, int]) -> np.ndarray:
    perm = [f.vars.index(v) for v in vs if v in f.vars]
    t = np.transpose(f.table, perm)
    shape = [sizes[v] if v in f.vars else 1 for v in vs]
    return t.reshape(shape)


def _multiply(fs: Sequence[_Factor], sizes: Mapping[str, int]) -> _Factor:
    vs = tuple(dict.fromkeys(v for f in fs for v in f.vars))
    table = _expand(fs[0], vs, sizes)
    for f in fs[1:]:
        table = table * _expand(f, vs, sizes)
    return _Factor(vs, table)


def _joint_ve(net: BeliefNet, ev: Mapping[str, str]) -> float:
    sizes = {v: len(nv.space) for v, nv in net.variables.items()}
    factors: list[_Factor] = []
    for v in net.variables:
        f = _factor_for(net, v)
        for evar, eout in ev.items():
            if evar in f.vars:
                f = _restrict(f, evar, net.variables[evar].space.index(eout))
        factors.append(f)
    hidden = sorted(v for v in net.variables if v not in ev)
    while hidden:
        # min-degree: eliminate the variable whose bucket touches the
        # fewest other variables
        def degree(v: str) -> tuple[int, str]:
            cluster = {u for f in factors if v in f.vars for u in f.vars}
            return (len(cluster) - 1, v)

        v = min(hidden, key=degree)
        hidden.remove(v)
        bucket = [f for f in factors if v in f.vars]
        rest = [f for f in factors if v not in f.vars]
        prod = _multiply(bucket, sizes)
        summed = _Factor(tuple(u for u in prod.vars if u != v),
                         np.sum(prod.table, axis=prod.vars.index(v)))
        factors = rest + [summed]
    result = 1.0
    for f in factors:
        result *= float(f.table)  # all scalars now
    return result


def conditional_outcome_probability(net: BeliefNet, outcome: Label,
                                    context: Iterable[Label],
                                    method: str = "ve") -> float:
    """P(outcome | context) as a ratio of joints; the context must have
    positive probability."""
    base = joint_probability(net, context, method)
    if base <= 0.0:
        raise ZeroProbabilityContext(
            "conditioning on a zero-probability context")
    return joint_probability(net, list(context) + [outcome], method) / base


def d_connected(net: BeliefNet, x: str, y: str,
                observed: Iterable[str] = ()) -> bool:
    """True when information about x can change beliefs about y given the
    observed variables (standard active-trail reachability)."""
    if x == y:
        return True
    obs = {v for v in observed if v in net.variables}
    parents = {v: net.variables[v].parents for v in net.variables}
    children: dict[str, list[str]] = {v: [] for v in net.variables}
    for v, ps in parents.items():
        for p in ps:
            children[p].append(v)
    anc = set()
    stack = list(obs)
    while stack:
        v = stack.pop()
        for p in parents[v]:
            if p not in anc:
                anc.add(p)
                stack.append(p)
    visited: set[tuple[str, str]] = set()
    frontier: list[tuple[str, str]] = [(x, "up")]
    while frontier:
        v, d = frontier.pop()
        if (v, d) in visited:
            continue
        visited.add((v, d))
        if v == y and v not in obs:
            return True
        if d == "up" and v not in obs:
            frontier.extend((p, "up") for p in parents[v])
            frontier.extend((c, "down") for c in children[v])
        elif d == "down":
            if v not in obs:
                frontier.extend((c, "down") for c in children[v])
            if v in obs or v in anc:
                frontier.extend((p, "up") for p in parents[v])
    return False


# ---------------------------------------------------------------------------
# context mass under either model


def simple_context_probability(plan: PlanGraph, context: Iterable[Label]) -> float:
    """Independence model: multiply each label's outcome probability from
    the distribution on its own step."""
    if not context_consistent(context):
        raise InconsistentLabels("context assigns a variable two outcomes")
    prob = 1.0
    for lab in context:
        step = plan.steps.get(lab.source)
        if step is None:
            raise LabelWithoutDistribution(
                f"label source {lab.source} is not a step of this plan")
        dist = step.operator.simple_distribution
        if dist is None:
            raise LabelWithoutDistribution(
                f"step {lab.source} ({step.operator.name}) carries no "
                "outcome distribution")
        if lab.outcome not in dist:
            raise OutcomeSpaceMismatch(
                f"step {lab.source} has no outcome {lab.outcome!r}")
        prob *= dist[lab.outcome]
    return prob


def context_probability(plan: PlanGraph, context: Iterable[Label],
                        model) -> float:
    """``model`` is the string ``"simple"`` or a BeliefNet.  Inconsistent
    contexts name unreachable branches, so their mass is 0 rather than an
    error."""
    if not context_consistent(context):
        return 0.0
    if model == "simple":
        return simple_context_probability(plan, context)
    return joint_probability(model, context)


def net_for_plan(plan: PlanGraph, problem: Problem) -> BeliefNet:
    """The belief net a plan graph denotes: the problem's priors plus one
    node per conditional step.  Observation steps add nothing; their labels
    bind to the observed variable.  An influence whose value the plan has
    pinned down before the step runs (known initially, which is what the
    start step sets, or set deterministically by an earlier step of the
    same branch) selects CPT rows instead of drawing an arc."""
    net = build_initial_net(problem)
    steps = plan.step_list()  # start first; chance steps set nothing det
    for st in steps:
        if st.kind != "cond":
            continue
        kv: dict[str, str] = {}
        for w in steps:
            if plan.ordered_before(w.id, st.id) and w.context <= st.context:
                kv.update(w.operator.effect_values(None))
        net, _parents = add_conditional_node(net, st.id, st.operator, kv)
    return net


def model_for_plan(plan: PlanGraph, problem: Problem, model_name: str):
    """Dispatch helper: the value context_probability expects."""
    if model_name == "simple":
        return "simple"
    if model_name == "kbmc":
        return net_for_plan(plan, problem)
    raise ValueError(f"unknown model {model_name!r}")


# ---------------------------------------------------------------------------
# success bounds


@dataclass(frozen=True)
class SuccessBound:
    """achieved_mass counts branches that are finished end to end;
    potential_mass adds every still-open branch at its full context mass
    (an optimistic ceiling, clamped to 1)."""

    achieved_mass: float
    potential_mass: float
    epsilon: float
    completed: tuple = ()  # goal step ids

    @property
    def accepted(self) -> bool:
        return self.achieved_mass >= (1.0 - self.epsilon) - MASS_TOL

    @property
    def viable(self) -> bool:
        return self.potential_mass >= (1.0 - self.epsilon) - MASS_TOL


def success_bound(plan: PlanGraph, model, epsilon: float) -> SuccessBound:
    goals = plan.goal_steps()
    for i in range(len(goals)):
        for j in range(i + 1, len(goals)):
            if contexts_compatible(goals[i].context, goals[j].context):
                raise OverlappingGoalContexts(
                    f"goal steps {goals[i].id} and {goals[j].id} overlap")
    complete = set(complete_goal_ids(plan))
    achieved = 0.0
    for g in goals:
        if g.id in complete:
            achieved += context_probability(plan, g.context, model)
    potential = achieved
    for g in goals:
        if g.id not in complete:
            potential += context_probability(plan, g.context, model)
    for ctx in uncovered_outcome_contexts(plan):
        potential += context_probability(plan, ctx, model)
    return SuccessBound(achieved, min(1.0, potential), epsilon,
                        tuple(sorted(complete)))


def select_goal_node(plan: PlanGraph, model,
                     completed: Iterable[str]) -> str | None:
    """The unfinished goal step with the most probability mass at stake;
    ties go to the canonically first step.  ``completed`` holds the ids of
    the finished goal steps, as in the plan's SuccessBound."""
    complete = set(completed)
    best: tuple[float, tuple[int, int]] | None = None
    best_id: str | None = None
    for g in plan.goal_steps():
        if g.id in complete:
            continue
        mass = context_probability(plan, g.context, model)
        key = (-mass, g.sort_key())
        if best is None or key < best:
            best = key
            best_id = g.id
    return best_id


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class PlanResult:
    """What a planner hands back: the executable conditional plan, the plan
    graph it came from, the bound that justified acceptance, the model the
    masses were computed under, and search statistics."""

    conditional: ConditionalPlan
    graph: PlanGraph
    bound: SuccessBound
    model: object  # "simple" or the final BeliefNet
    stats: Mapping[str, object]


def plan_document(result: PlanResult, problem: Problem,
                  model_name: str) -> dict:
    """A self-contained JSON-ready report: everything needed to inspect or
    simulate the plan without the original domain files."""
    doc = result.conditional.to_json_dict()
    used = set(result.conditional.steps_used()) | {"start"}
    links = []
    for link in result.graph.links:
        if link.producer in used and link.consumer in used:
            payload = link.payload
            if payload is not None and not isinstance(payload, str):
                payload = payload.text()
            links.append({"kind": link.kind, "producer": link.producer,
                          "consumer": link.consumer, "payload": payload})
    links.sort(key=lambda r: (r["kind"], r["producer"], r["consumer"],
                              r["payload"] or ""))
    doc["links"] = links
    doc["achievedMass"] = result.bound.achieved_mass
    doc["potentialMass"] = result.bound.potential_mass
    doc["epsilon"] = result.bound.epsilon
    doc["model"] = model_name
    doc["init"] = {"true": [p.text() for p in sorted(problem.known_true)],
                   "false": [p.text() for p in sorted(problem.known_false)]}
    doc["priors"] = [
        {"var": c.var, "space": list(c.space), "parents": list(c.parents),
         "cpt": [[list(k), p] for k, p in sorted(c.cpt.items())]}
        for c in sorted(problem.priors, key=lambda c: c.var)]
    # wall-clock time would break byte-identical reruns
    doc["stats"] = {k: v for k, v in result.stats.items() if k != "elapsed"}
    return doc


# ---------------------------------------------------------------------------
# export


def net_to_dot(net: BeliefNet) -> str:
    lines = ["digraph beliefnet {", "  node [shape=ellipse];"]
    for v in net.topological_order():
        lines.append(f'  "{v}";')
    for v in net.topological_order():
        for p in net.variables[v].parents:
            lines.append(f'  "{p}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
