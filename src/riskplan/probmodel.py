"""Probability models over plan contexts.

Two models share one interface.  The *simple* model treats every
conditional step's outcome as an independent draw from the distribution on
its operator, so a context's probability is a plain product.  The *network*
model maintains a belief net built incrementally while planning: prior
clauses declare world variables up front, each conditional step adds a node
whose parents are its open influences, and observation steps bind their
outcome labels to an existing variable (no node is added, which is what
makes re-observation consistent).  Every net variable is a
``GroundClause``: a prior clause as grounded, or a conditional step's
outcome under the step's id.  Context probabilities are then exact joint
marginals, by variable elimination over each variable's ``rows``;
``joint_by_enumeration``, which reads each ``cpt``, is its oracle.

A search asks the same few nets the same questions many times.  Nets are
immutable, so one search keeps one net object per distinct net (see
``net_for_plan``), and each net compiles its factor tables once and
remembers every joint it has answered.  ``_joint_ve`` and
``joint_by_enumeration`` stay callable without the memo, as the oracles the
shortcuts are tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .domain import (GroundClause, GroundOperator, Problem, dependency_order,
                     ordered_clauses)
from .errors import (InconsistentLabels, LabelWithoutDistribution,
                     MissingCptRow, MissingInfluenceVariable, ModelError,
                     OutcomeSpaceMismatch, OverlappingGoalContexts,
                     UnknownVariable, ZeroProbabilityContext)
from .conditional import ConditionalPlan, Label
from .plangraph import (PlanGraph, _canonical_topo, complete_goal_ids,
                        context_consistent, contexts_compatible,
                        uncovered_outcome_contexts)

__all__ = [
    "BeliefNet",
    "SuccessBound",
    "PlanResult",
    "build_initial_net",
    "add_conditional_node",
    "joint_probability",
    "joint_by_enumeration",
    "conditional_outcome_probability",
    "d_connected",
    "simple_context_probability",
    "context_probability",
    "net_for_plan",
    "model_for_plan",
    "success_bound",
    "select_goal_node",
    "net_to_dot",
]

MASS_TOL = 1e-12  # numeric slack when comparing accumulated masses


@dataclass(frozen=True)
class BeliefNet:
    """A belief net over named variables, in the order they were added.
    Each variable is a ``GroundClause``: a prior clause, or the outcome of
    a conditional step, keyed by its ``var``.

    Nets are immutable: adding a variable makes a new net.  One net object
    can therefore be shared by every search node that denotes it, and it
    owns what inference learns about it: the factor table of each variable,
    compiled on first use, and the joint of each evidence set variable
    elimination has answered.  Both caches are left out of eq and repr."""

    variables: Mapping[str, GroundClause]
    _factors: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    _joints: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def with_variable(self, clause: GroundClause) -> "BeliefNet":
        if clause.var in self.variables:
            raise UnknownVariable(f"variable {clause.var} already in the net")
        for p in clause.parents:
            if p not in self.variables:
                raise MissingInfluenceVariable(
                    f"variable {clause.var} depends on {p}, not in the net")
        return BeliefNet({**self.variables, clause.var: clause})

    def topological_order(self) -> list[str]:
        return dependency_order(
            sorted(self.variables),
            {v: nv.parents for v, nv in self.variables.items()})


def build_initial_net(problem: Problem) -> BeliefNet:
    """Net over the prior-governed variables only, in ``ordered_clauses``
    order.  Propositions known true or false in the initial state are
    facts, not random variables.  Raises ModelError on a clause set
    ``ordered_clauses`` refuses."""
    return BeliefNet({c.var: c for c in ordered_clauses(problem.priors,
                                                        ModelError)})


def add_conditional_node(net: BeliefNet, node_id: str, op: GroundOperator,
                         known_values: Mapping[str, str] | None = None
                         ) -> BeliefNet:
    """Add the outcome variable of a conditional step, its table read from
    the operator's rows (``GroundOperator.outcome_rows``).

    A row variable whose value is known in the initial state contributes
    no arc; the rows are restricted to the known value instead.  Every
    other row variable (a declared influence) becomes a parent arc (an
    open influence: the planner must commit to observing it or acting in
    ignorance of it).
    """
    known_values = known_values or {}
    parents: list[str] = []
    fixed: dict[int, str] = {}  # position in op.row_vars -> value
    for i, v in enumerate(op.row_vars):
        if v in known_values:
            fixed[i] = known_values[v]
        elif v in net.variables:
            parents.append(v)
        else:
            raise MissingInfluenceVariable(
                f"step {node_id}: influence {v} is neither known nor in the net")
    if not op.outcome_rows:
        raise LabelWithoutDistribution(
            f"step {node_id}: operator {op.name} has no distribution")
    rows = {tuple(t for i, t in enumerate(tail) if i not in fixed): row
            for tail, row in op.outcome_rows.items()
            if all(tail[i] == val for i, val in fixed.items())}
    for tail in itertools.product(*(net.variables[p].space for p in parents)):
        if tail not in rows:
            raise MissingCptRow(
                f"step {node_id}: no row for {(op.outcomes[0],) + tail}")
    cpt = {(o,) + tail: p for tail, row in rows.items()
           for o, p in zip(op.outcomes, row)}
    return net.with_variable(GroundClause(node_id, tuple(op.outcomes),
                                          tuple(parents), cpt))


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


def joint_probability(net: BeliefNet, labels: Iterable[Label]) -> float:
    """Exact probability that every label's variable takes its outcome, by
    variable elimination; ``joint_by_enumeration`` is its oracle.  The
    answer is kept on the net, so asking it again costs a lookup."""
    ev = _as_evidence(net, labels)
    if not net.variables:
        return 1.0
    key = frozenset(ev.items())
    p = net._joints.get(key)
    if p is None:
        p = net._joints[key] = _joint_ve(net, ev)
    return p


def joint_by_enumeration(net: BeliefNet, labels: Iterable[Label]) -> float:
    """``joint_probability`` by brute force over every assignment the
    labels allow, each weighted by its ``cpt`` entries; nothing is kept.
    Every ``cpt`` cell is looked for first, visited or not, so a net that
    lacks one raises MissingCptRow, as ``joint_probability`` does."""
    ev = _as_evidence(net, labels)
    order = net.topological_order()
    for v in order:
        nv = net.variables[v]
        for tail in itertools.product(*(net.variables[p].space
                                        for p in nv.parents)):
            for out in nv.space:
                if (out,) + tail not in nv.cpt:
                    raise MissingCptRow(f"{v}: no row for {(out,) + tail}")
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
    """``v``'s rows as a factor, compiled once per net.  Its table is
    C-contiguous and read-only: elimination makes new arrays from it."""
    f = net._factors.get(v)
    if f is not None:
        return f
    nv = net.variables[v]
    spaces = [net.variables[p].space for p in nv.parents]
    rows = []
    for tail in itertools.product(*spaces):
        row = nv.rows.get(tail)
        if row is None:
            raise MissingCptRow(f"{v}: no row for {(nv.space[0],) + tail}")
        rows.append(row)
    table = np.ascontiguousarray(np.array(rows, dtype=float).T).reshape(
        [len(nv.space)] + [len(s) for s in spaces])
    table.flags.writeable = False
    f = net._factors[v] = _Factor((v,) + nv.parents, table)
    return f


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
                                    context: Iterable[Label]) -> float:
    """P(outcome | context) as a ratio of joints; the context must have
    positive probability."""
    context = tuple(context)  # read twice
    base = joint_probability(net, context)
    if base <= 0.0:
        raise ZeroProbabilityContext(
            "conditioning on a zero-probability context")
    return joint_probability(net, context + (outcome,)) / base


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


def net_for_plan(plan: PlanGraph, problem: Problem,
                 nets: dict | None = None) -> BeliefNet:
    """The belief net a plan graph denotes: the problem's priors plus one
    node per conditional step.  Observation steps add nothing; their labels
    bind to the observed variable.  An influence whose value the plan has
    pinned down before the step runs selects CPT rows instead of drawing an
    arc.  The pinned values come from the steps ordered before the step in
    its branch, applied in the order ``_canonical_topo`` runs them: the
    start step's initial facts, each det step's effects, and a chance
    step's effects under the outcome the step's context names (a chance
    step whose outcome the context leaves open pins nothing).

    For fixed priors the net depends only on the plan's *signature*: its
    conditional steps in ``step_list`` order, each as (step id, operator
    name, the pinned values of the operator's influences).  Order matters,
    because the order of ``net.variables`` fixes the factor order of
    variable elimination and so the last bit of every joint.  ``nets``, kept
    by the caller for one problem's search, maps each signature prefix to
    its net; a plan whose signature is there gets that very net object, and
    its memoized answers with it.  Without ``nets`` the net is built from
    scratch."""
    if nets is None:
        nets = {}
    net = nets.get(())
    if net is None:
        net = nets[()] = build_initial_net(problem)
    key: tuple = ()  # the signature of the steps taken so far
    steps = plan.step_list()
    for st in steps:
        if st.kind != "cond":
            continue
        kv: dict[str, str] = {}
        before = [w.id for w in steps
                  if plan.ordered_before(w.id, st.id) and w.context <= st.context]
        for w in map(plan.steps.get, _canonical_topo(plan, before)):
            for o in w.operator.runs:  # None alone for det and start steps
                if o is None or Label(w.source, o) in st.context:
                    kv.update(w.operator.effect_values(o))
        op = st.operator
        pinned = tuple((v, kv[v]) for v in op.influences if v in kv)
        # ground operator names are unique, so a name stands for its operator
        key += ((st.id, op.name, pinned),)
        grown = nets.get(key)
        if grown is None:
            grown = nets[key] = add_conditional_node(net, st.id, op,
                                                     dict(pinned))
        net = grown
    return net


def model_for_plan(plan: PlanGraph, problem: Problem, model_name: str,
                   nets: dict | None = None):
    """Dispatch helper: the value context_probability expects.  ``nets``
    is net_for_plan's per-search cache."""
    if model_name == "simple":
        return "simple"
    if model_name == "kbmc":
        return net_for_plan(plan, problem, nets)
    raise ValueError(f"unknown model {model_name!r}")


# ---------------------------------------------------------------------------
# success bounds


@dataclass(frozen=True)
class SuccessBound:
    """achieved_mass counts branches that are finished end to end;
    potential_mass adds every still-open branch at its full context mass
    (an optimistic ceiling, clamped to 1).  ``masses`` maps every goal-step
    and uncovered outcome context to its mass, priced once for the node;
    ``uncovered`` holds the uncovered outcome contexts in
    ``uncovered_outcome_contexts`` order."""

    achieved_mass: float
    potential_mass: float
    epsilon: float
    completed: tuple = ()  # goal step ids
    masses: Mapping = field(default_factory=dict, compare=False)
    uncovered: tuple = field(default=(), compare=False)

    @property
    def accepted(self) -> bool:
        return self.achieved_mass >= (1.0 - self.epsilon) - MASS_TOL


def success_bound(plan: PlanGraph, model, epsilon: float) -> SuccessBound:
    goals = plan.goal_steps()
    for a, b in itertools.combinations(goals, 2):
        if contexts_compatible(a.context, b.context):
            raise OverlappingGoalContexts(
                f"goal steps {a.id} and {b.id} overlap")
    complete = set(complete_goal_ids(plan))
    done = [g.context for g in goals if g.id in complete]
    uncovered = tuple(uncovered_outcome_contexts(plan))
    still_open = [g.context for g in goals if g.id not in complete]
    still_open += uncovered
    # all distinct: goals do not overlap, and uncovered contexts meet no goal
    masses = {ctx: context_probability(plan, ctx, model)
              for ctx in done + still_open}
    achieved = 0.0
    for ctx in done:
        achieved += masses[ctx]
    potential = achieved
    for ctx in still_open:
        potential += masses[ctx]
    return SuccessBound(achieved, min(1.0, potential), epsilon,
                        tuple(sorted(complete)), masses, uncovered)


def select_goal_node(plan: PlanGraph, bound: SuccessBound) -> str | None:
    """The unfinished goal step with the most probability mass at stake;
    ties go to the canonically first step.  The finished goals and the
    masses are read from the plan's bound: nothing is priced here."""
    unfinished = [g for g in plan.goal_steps() if g.id not in bound.completed]
    best = min(unfinished, default=None,
               key=lambda g: (-bound.masses[g.context], g.sort_key()))
    return best.id if best else None


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
