"""Plan graphs: steps, contexts, links, threats, and executable extraction.

A plan is a set of steps connected by links.  Five link kinds all imply
ordering (producer strictly before consumer):

* ``causal``       producer establishes a proposition some consumer needs;
                   doubles as a protection interval.
* ``conditioning`` the consumer runs only under a named outcome of the
                   producer; the outcome label joins the consumer's context.
* ``ordering``     bare precedence.
* ``influence``    the producer's observed value refines the consumer's
                   outcome distribution.
* ``ignorance``    a pledge to act without learning a variable; only the
                   start step may produce one.  It protects the interval
                   from any step that would reveal the variable.

A step's *context* is the set of outcome labels under which it executes.
Two contexts are compatible when their union assigns no variable two
different outcomes.  Plans are immutable; every mutation returns a fresh
graph, and the ordering closure is recomputed only when the steps, links
or tree change.  Threats are derived once per graph (``PlanGraph.threats``).

Plans come in two shapes.  ``tree`` plans keep an explicit parent map
(each step has one parent; conditional steps fan out per outcome), which
is what the linear planner maintains.  ``dag`` plans order steps only as
far as links require.  All queries here work on either shape.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .domain import (DependencyCycle, GroundOperator, Problem, Proposition,
                     dependency_order, prop_from_text)
from .errors import (IgnoranceNotFromStart, IncompletePlan, MalformedPlan,
                     OverlappingGoalContexts, PlanGraphError, WouldCreateCycle)

__all__ = [
    "Label",
    "Step",
    "Link",
    "PlanGraph",
    "Threat",
    "contexts_compatible",
    "context_consistent",
    "add_link",
    "find_threats",
    "linearizations",
    "extract_conditional_plan",
    "uncovered_outcome_contexts",
    "complete_goal_ids",
    "make_root_plan",
    "tree_insert",
    "dag_add_step",
    "dag_add_goal",
    "condition_step",
    "canonical_key",
    "to_dot",
    "ConditionalPlan",
    "ActionNode",
    "BranchNode",
    "GoalLeaf",
    "GiveUpLeaf",
]

START_ID = "start"


@dataclass(frozen=True, order=True)
class Label:
    """One outcome of one variable (or of one conditional step's family)."""

    source: str  # net variable id
    outcome: str

    def text(self) -> str:
        return f"{self.source}={self.outcome}"


Context = frozenset  # of Label


def context_consistent(ctx: Iterable[Label]) -> bool:
    seen: dict[str, str] = {}
    for lab in ctx:
        if seen.setdefault(lab.source, lab.outcome) != lab.outcome:
            return False
    return True


def contexts_compatible(a: Iterable[Label], b: Iterable[Label]) -> bool:
    """True when the union of the two label sets is consistent.  The empty
    context is compatible with everything."""
    return context_consistent(set(a) | set(b))


def _ctx_text(ctx: frozenset) -> str:
    return "{" + ", ".join(lab.text() for lab in sorted(ctx)) + "}"


@dataclass(frozen=True)
class Step:
    id: str
    index: int
    operator: GroundOperator
    context: frozenset = frozenset()
    source: str | None = None  # variable id carrying this step's outcome labels

    @property
    def kind(self) -> str:
        return self.operator.kind

    def sort_key(self) -> tuple[int, int]:
        """Canonical order: fewer labels first, then insertion order."""
        return (len(self.context), self.index)


@dataclass(frozen=True)
class Link:
    kind: str  # causal | conditioning | ordering | influence | ignorance
    producer: str
    consumer: str
    payload: object = None  # Proposition | Label | variable id | None

    def text(self) -> str:
        pl = ""
        if isinstance(self.payload, Proposition):
            pl = self.payload.text()
        elif isinstance(self.payload, Label):
            pl = self.payload.text()
        elif self.payload is not None:
            pl = str(self.payload)
        return f"{self.producer} -[{self.kind}{' ' + pl if pl else ''}]-> {self.consumer}"


@dataclass(frozen=True)
class Threat:
    """``step`` endangers ``link``; for conditional steps ``outcome`` names
    the offending alternative."""

    step: str
    link: Link
    outcome: str | None = None


@dataclass(frozen=True, eq=True)
class PlanGraph:
    shape: str  # tree | dag
    steps: Mapping[str, Step]
    links: frozenset
    open_goals: frozenset  # of (step id, Proposition)
    open_influences: frozenset  # of (step id, variable id)
    goal_literals: tuple
    next_index: int
    tree: Mapping[str, tuple] | None  # child id -> (parent id, edge outcome)
    after: Mapping[str, frozenset]  # derived: strict ordering closure

    # -- queries ----------------------------------------------------------

    @cached_property
    def threats(self) -> list[Threat]:
        """``find_threats(self)``, computed on first use and kept: the graph
        never changes."""
        return find_threats(self)

    def step_list(self) -> list[Step]:
        return sorted(self.steps.values(), key=Step.sort_key)

    def goal_steps(self) -> list[Step]:
        return [s for s in self.step_list() if s.kind == "goal"]

    def ordered_before(self, a: str, b: str) -> bool:
        return b in self.after.get(a, frozenset())

    def possibly_between(self, v: str, a: str, b: str) -> bool:
        """Could v sit strictly between a and b in some linearization?"""
        if v in (a, b):
            return False
        return not self.ordered_before(v, a) and not self.ordered_before(b, v)

    def tree_path(self, sid: str) -> list[str]:
        """Steps from start down to sid, inclusive (tree plans only)."""
        assert self.tree is not None
        path = [sid]
        while path[-1] != START_ID:
            path.append(self.tree[path[-1]][0])
        path.reverse()
        return path

    def tree_children(self, sid: str) -> list[tuple[str, str | None]]:
        assert self.tree is not None
        return sorted((c, o) for c, (p, o) in self.tree.items() if p == sid)

    def subtree_ids(self, root: str) -> set[str]:
        out = {root}
        frontier = [root]
        while frontier:
            cur = frontier.pop()
            for c, _o in self.tree_children(cur):
                out.add(c)
                frontier.append(c)
        return out

    # -- functional updates ------------------------------------------------

    def _rebuild(self, **kw) -> "PlanGraph":
        """A copy with ``kw`` replaced and the ordering closure recomputed;
        for updates that add steps, links or tree edges."""
        after = _ordering_closure(kw.get("steps", self.steps),
                                  kw.get("links", self.links),
                                  kw.get("tree", self.tree))
        return replace(self, after=after, **kw)

    def with_step(self, step: Step) -> "PlanGraph":
        steps = dict(self.steps)
        steps[step.id] = step
        return self._rebuild(steps=steps,
                             next_index=max(self.next_index, step.index + 1))

    def with_context(self, sid: str, ctx: frozenset) -> "PlanGraph":
        steps = dict(self.steps)
        steps[sid] = replace(steps[sid], context=ctx)
        return replace(self, steps=steps)  # same ids: same closure

    def without_open_goal(self, item) -> "PlanGraph":
        return replace(self, open_goals=self.open_goals - {item})

    def without_open_influence(self, item) -> "PlanGraph":
        return replace(self, open_influences=self.open_influences - {item})


def _ordering_closure(steps, links, tree) -> dict[str, frozenset]:
    succ: dict[str, set] = {sid: set() for sid in steps}
    for l in links:
        if l.producer != l.consumer:
            succ[l.producer].add(l.consumer)
    if tree:
        for child, (parent, _o) in tree.items():
            succ[parent].add(child)
    for sid in steps:
        if sid != START_ID:
            succ[START_ID].add(sid)
    try:
        order = dependency_order(steps, succ)
    except DependencyCycle as e:
        raise WouldCreateCycle(f"ordering cycle through {e.args[0][-1]}") from None
    after: dict[str, frozenset] = {}
    for v in order:
        acc: set = set()
        for w in succ[v]:
            acc.add(w)
            acc |= after[w]
        after[v] = frozenset(acc)
    return after


# ---------------------------------------------------------------------------
# construction


def _start_operator(problem: Problem) -> GroundOperator:
    adds = tuple(sorted(problem.known_true)) + tuple(
        p.negate() for p in sorted(problem.known_false))
    return GroundOperator(name="start", kind="start", add=adds)


def _goal_operator(goals: Sequence[Proposition]) -> GroundOperator:
    return GroundOperator(name="goal", kind="goal", preconditions=tuple(goals))


def make_root_plan(problem: Problem, shape: str) -> PlanGraph:
    """Start step plus a single universal-context goal step whose
    preconditions are the problem goals."""
    start = Step(START_ID, 0, _start_operator(problem))
    goal = Step("s1", 1, _goal_operator(problem.goals))
    steps = {start.id: start, goal.id: goal}
    tree = {goal.id: (START_ID, None)} if shape == "tree" else None
    links = frozenset() if shape == "tree" else frozenset(
        {Link("ordering", START_ID, goal.id)})
    plan = PlanGraph(
        shape=shape, steps=steps, links=links,
        open_goals=frozenset((goal.id, g) for g in problem.goals),
        open_influences=frozenset(), goal_literals=tuple(problem.goals),
        next_index=2, tree=tree,
        after=_ordering_closure(steps, links, tree))
    return plan


# ---------------------------------------------------------------------------
# links


def add_link(plan: PlanGraph, link: Link) -> PlanGraph:
    if link.producer not in plan.steps or link.consumer not in plan.steps:
        raise PlanGraphError(f"link endpoints missing: {link.text()}")
    if link.kind == "ignorance" and link.producer != START_ID:
        raise IgnoranceNotFromStart(
            f"ignorance of {link.payload} must originate at start, "
            f"not {link.producer}")
    if link in plan.links:
        return plan
    return plan._rebuild(links=plan.links | {link})  # raises WouldCreateCycle


# ---------------------------------------------------------------------------
# threats


def find_threats(plan: PlanGraph) -> list[Threat]:
    """Steps that could undo a causal link or break an ignorance pledge.

    ``v`` threatens causal link ``(s, P, w)`` iff v is neither endpoint,
    could sit between them, and some effect set of v (its deterministic
    effects, or one outcome's effects plus that outcome's label) deletes P
    while staying context-compatible with both endpoints.  ``v`` threatens
    ignorance link ``(start, X, w)`` iff v could precede w, is
    context-compatible with w, and observing or executing v would reveal
    X's value.
    """
    threats: list[Threat] = []
    for link in sorted(plan.links, key=Link.text):
        if link.kind == "causal":
            s, w, prop = link.producer, link.consumer, link.payload
            sctx = plan.steps[s].context
            wctx = plan.steps[w].context
            for v in plan.step_list():
                if not plan.possibly_between(v.id, s, w):
                    continue
                if v.kind in ("det", "start"):
                    variants: list[str | None] = [None]
                else:
                    variants = list(v.operator.outcomes)
                for o in variants:
                    if prop not in v.operator.effective_deletes(o):
                        continue
                    vctx = set(v.context)
                    if o is not None and v.source is not None:
                        vctx.add(Label(v.source, o))
                    if contexts_compatible(vctx, sctx) and \
                            contexts_compatible(vctx, wctx):
                        threats.append(Threat(v.id, link, o))
        elif link.kind == "ignorance":
            w, varid = link.consumer, link.payload
            wctx = plan.steps[w].context
            for v in plan.step_list():
                if v.id in (START_ID, w) or plan.ordered_before(w, v.id):
                    continue
                if not v.operator.touches_variable(varid):
                    continue
                if contexts_compatible(v.context, wctx):
                    threats.append(Threat(v.id, link, None))
    return threats


# ---------------------------------------------------------------------------
# context conditioning (dag plans)


def condition_step(plan: PlanGraph, sid: str,
                   label_pairs: Iterable[tuple[Label, str]]) -> PlanGraph | None:
    """Restrict ``sid`` (and, transitively, everything that depends on its
    effects) to the given outcome labels.  Each label comes with the step
    that produced it so a conditioning link records the dependence and the
    implied ordering.  Returns None when the restriction is contradictory
    or would create an ordering cycle."""
    queue: list[tuple[str, tuple[tuple[Label, str], ...]]] = [
        (sid, tuple(label_pairs))]
    while queue:
        cur, pairs = queue.pop()
        step = plan.steps[cur]
        fresh = [(lab, prod) for lab, prod in pairs if lab not in step.context]
        if not fresh:
            continue
        merged = step.context | {lab for lab, _p in fresh}
        if not context_consistent(merged):
            return None
        plan = plan.with_context(cur, frozenset(merged))
        for lab, prod in fresh:
            if prod != cur:
                try:
                    plan = add_link(plan, Link("conditioning", prod, cur, lab))
                except WouldCreateCycle:
                    return None
        consumers = {l.consumer for l in plan.links
                     if l.kind in ("causal", "conditioning")
                     and l.producer == cur and l.consumer != cur}
        for c in sorted(consumers):
            queue.append((c, tuple(fresh)))
    return plan


# ---------------------------------------------------------------------------
# step insertion helpers


def dag_add_step(plan: PlanGraph, op: GroundOperator,
                 context_pairs: Iterable[tuple[Label, str]],
                 source: str | None = None,
                 influences: Iterable[str] = ()) -> tuple[PlanGraph, str]:
    """Add a step to a dag plan: inherits the given context (with
    conditioning links), is ordered after start, and opens its
    preconditions and influences."""
    index = plan.next_index
    sid = f"s{index}"
    step = Step(sid, index, op, frozenset(), source)
    plan = plan.with_step(step)
    plan = add_link(plan, Link("ordering", START_ID, sid))
    pairs = list(context_pairs)
    if pairs:
        out = condition_step(plan, sid, pairs)
        if out is None:
            raise PlanGraphError("new step context is contradictory")
        plan = out
    plan = replace(
        plan,
        open_goals=plan.open_goals | {(sid, p) for p in op.preconditions},
        open_influences=plan.open_influences | {(sid, v) for v in influences})
    return plan, sid


def dag_add_goal(plan: PlanGraph,
                 context_pairs: Iterable[tuple[Label, str]]) -> tuple[PlanGraph, str]:
    op = _goal_operator(plan.goal_literals)
    return dag_add_step(plan, op, context_pairs)


def tree_insert(plan: PlanGraph, op: GroundOperator, parent: str, child: str,
                chosen_outcome: str | None = None, source: str | None = None,
                influences: Iterable[str] = ()
                ) -> tuple[PlanGraph, str, list[str]]:
    """Insert a step on the tree edge parent -> child.

    For conditional/observation operators the existing subtree under
    ``child`` continues under ``chosen_outcome`` (every step in it gains
    that label) and each other still-consistent outcome gets a fresh goal
    leaf.  Returns (plan, new step id, new goal leaf ids).
    """
    assert plan.tree is not None and plan.tree[child][0] == parent
    index = plan.next_index
    sid = f"s{index}"
    edge_out = plan.tree[child][1]
    ctx = plan.steps[child].context
    if op.kind in ("cond", "obs"):
        assert chosen_outcome in op.outcomes
    steps = dict(plan.steps)
    steps[sid] = Step(sid, index, op, ctx, source)
    tree = dict(plan.tree)
    tree[sid] = (parent, edge_out)
    tree[child] = (sid, chosen_outcome)
    plan2 = plan._rebuild(
        steps=steps, tree=tree, next_index=index + 1,
        open_goals=plan.open_goals | {(sid, p) for p in op.preconditions},
        open_influences=plan.open_influences | {(sid, v) for v in influences})
    new_goals: list[str] = []
    if op.kind in ("cond", "obs"):
        lab = Label(source, chosen_outcome)
        for below in plan2.subtree_ids(child):
            st = plan2.steps[below]
            plan2 = plan2.with_context(below, st.context | {lab})
        for o in op.outcomes:
            if o == chosen_outcome:
                continue
            leaf_ctx = ctx | {Label(source, o)}
            if not context_consistent(leaf_ctx):
                continue
            gidx = plan2.next_index
            gid = f"s{gidx}"
            leaf = Step(gid, gidx, _goal_operator(plan2.goal_literals),
                        frozenset(leaf_ctx))
            plan2 = plan2.with_step(leaf)
            t2 = dict(plan2.tree)
            t2[gid] = (sid, o)
            plan2 = plan2._rebuild(
                tree=t2,
                open_goals=plan2.open_goals | {(gid, g)
                                               for g in plan2.goal_literals})
            new_goals.append(gid)
    return plan2, sid, new_goals


# ---------------------------------------------------------------------------
# linearizations


def _branch_ids(plan: PlanGraph, ctx: frozenset) -> list[str]:
    return [s.id for s in plan.step_list()
            if s.kind != "start" and s.context <= ctx]


def linearizations(plan: PlanGraph, context: frozenset | None = None
                   ) -> Iterator[tuple[str, ...]]:
    """All total orders of one branch consistent with the ordering closure.

    With no context given, iterates the goal steps in canonical order and
    yields each goal's branch linearizations in turn.
    """
    if context is None:
        for g in plan.goal_steps():
            yield from linearizations(plan, g.context)
        return
    ids = _branch_ids(plan, context)
    idset = set(ids)
    preds = {i: {p for p in idset if plan.ordered_before(p, i)} for i in ids}

    def rec(placed: tuple[str, ...], remaining: set[str]) -> Iterator[tuple[str, ...]]:
        if not remaining:
            yield placed
            return
        done = set(placed)
        ready = sorted(i for i in remaining if preds[i] <= done)
        for i in ready:
            yield from rec(placed + (i,), remaining - {i})

    yield from rec((), idset)


# ---------------------------------------------------------------------------
# executable plans


@dataclass(frozen=True)
class ActionNode:
    step_id: str
    op: GroundOperator
    child: object


@dataclass(frozen=True)
class BranchNode:
    step_id: str
    op: GroundOperator
    source: str
    children: Mapping[str, object]  # outcome -> node


@dataclass(frozen=True)
class GoalLeaf:
    step_id: str
    context: frozenset
    goals: tuple


@dataclass(frozen=True)
class GiveUpLeaf:
    context: frozenset


@dataclass(frozen=True)
class ConditionalPlan:
    """The executable shape of a plan: a chain of actions branching at each
    conditional/observation step, ending in goal or give-up leaves."""

    root: object
    goal_contexts: tuple  # of frozenset[Label]
    uncovered: tuple  # of frozenset[Label]

    def leaves(self) -> Iterator[object]:
        return _leaves(self.root)

    def steps_used(self) -> dict[str, GroundOperator]:
        out: dict[str, GroundOperator] = {}

        def walk(node):
            if isinstance(node, ActionNode):
                out[node.step_id] = node.op
                walk(node.child)
            elif isinstance(node, BranchNode):
                out[node.step_id] = node.op
                for ch in node.children.values():
                    walk(ch)
        walk(self.root)
        return out

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        def node_json(node) -> dict:
            if isinstance(node, ActionNode):
                return {"type": "action", "step": node.step_id,
                        "next": node_json(node.child)}
            if isinstance(node, BranchNode):
                return {"type": "branch", "step": node.step_id,
                        "source": node.source,
                        "children": {o: node_json(c)
                                     for o, c in sorted(node.children.items())}}
            if isinstance(node, GoalLeaf):
                return {"type": "goal", "step": node.step_id,
                        "context": _ctx_json(node.context),
                        "goals": [g.text() for g in node.goals]}
            return {"type": "giveup", "context": _ctx_json(node.context)}

        return {
            "steps": [dict(_op_json(op), id=sid)
                      for sid, op in sorted(self.steps_used().items())],
            "branches": node_json(self.root),
            "contexts": [_ctx_json(c) for c in self.goal_contexts],
            "uncoveredContexts": [_ctx_json(c) for c in self.uncovered],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConditionalPlan":
        try:
            ops = {rec["id"]: _op_from_json(rec) for rec in data["steps"]}

            def node(rec) -> object:
                t = rec["type"]
                if t == "action":
                    return ActionNode(rec["step"], ops[rec["step"]],
                                      node(rec["next"]))
                if t == "branch":
                    return BranchNode(rec["step"], ops[rec["step"]],
                                      rec["source"],
                                      {o: node(c)
                                       for o, c in rec["children"].items()})
                if t == "goal":
                    return GoalLeaf(rec["step"], _ctx_from_json(rec["context"]),
                                    tuple(prop_from_text(g)
                                          for g in rec["goals"]))
                if t == "giveup":
                    return GiveUpLeaf(_ctx_from_json(rec["context"]))
                raise KeyError(t)

            return cls(node(data["branches"]),
                       tuple(_ctx_from_json(c) for c in data["contexts"]),
                       tuple(_ctx_from_json(c)
                             for c in data["uncoveredContexts"]))
        except (KeyError, TypeError, ValueError) as e:
            raise MalformedPlan(f"cannot decode plan: {e}") from e


def _leaves(node) -> Iterator[object]:
    """The leaves under ``node``, each branch's outcomes in declared order."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, ActionNode):
            stack.append(node.child)
        elif isinstance(node, BranchNode):
            stack.extend(node.children[o] for o in reversed(node.op.outcomes)
                         if o in node.children)
        else:
            yield node


def _ctx_json(ctx: frozenset) -> list[list[str]]:
    return [[lab.source, lab.outcome] for lab in sorted(ctx)]


def _ctx_from_json(rows) -> frozenset:
    return frozenset(Label(src, out) for src, out in rows)


def _op_json(op: GroundOperator) -> dict:
    out: dict = {"name": op.name, "kind": op.kind,
                 "pre": [p.text() for p in op.preconditions]}
    if op.kind in ("det", "start"):
        out["add"] = [p.text() for p in op.add]
        out["del"] = [p.text() for p in op.delete]
    elif op.kind in ("cond", "obs"):
        out["outcomes"] = {
            o: {"add": [p.text() for p in op.outcome_adds.get(o, ())],
                "del": [p.text() for p in op.outcome_dels.get(o, ())]}
            for o in op.outcomes}
        if op.simple_distribution is not None:
            out["dist"] = dict(op.simple_distribution)
        if op.influences:
            out["influences"] = list(op.influences)
        if op.cpt is not None:
            out["cpt"] = [[list(k), p] for k, p in sorted(op.cpt.items())]
        if op.observes is not None:
            out["observes"] = op.observes
    return out


def _op_from_json(rec: dict) -> GroundOperator:
    lits = lambda xs: tuple(prop_from_text(x) for x in xs)
    kw: dict = dict(name=rec["name"], kind=rec["kind"],
                    preconditions=lits(rec.get("pre", ())))
    if rec["kind"] in ("det", "start"):
        kw["add"] = lits(rec.get("add", ()))
        kw["delete"] = lits(rec.get("del", ()))
    else:
        fam = rec["outcomes"]
        kw["outcomes"] = tuple(fam)
        kw["outcome_adds"] = {o: lits(v.get("add", ())) for o, v in fam.items()}
        kw["outcome_dels"] = {o: lits(v.get("del", ())) for o, v in fam.items()}
        if "dist" in rec:
            kw["simple_distribution"] = dict(rec["dist"])
        kw["influences"] = tuple(rec.get("influences", ()))
        if "cpt" in rec:
            kw["cpt"] = {tuple(k): p for k, p in rec["cpt"]}
        kw["observes"] = rec.get("observes")
    return GroundOperator(**kw)


# ---------------------------------------------------------------------------
# extraction


def complete_goal_ids(plan: PlanGraph) -> list[str]:
    """Goal steps whose branch no remaining flaw can touch."""
    flaws = [plan.steps[sid].context for sid, _p in plan.open_goals]
    flaws += [plan.steps[sid].context for sid, _v in plan.open_influences]
    for t in plan.threats:
        vctx = plan.steps[t.step].context
        wctx = plan.steps[t.link.consumer].context
        if t.outcome is not None and plan.steps[t.step].source:
            vctx = vctx | {Label(plan.steps[t.step].source, t.outcome)}
        flaws.append(frozenset(vctx | wctx))
    out = []
    for g in plan.goal_steps():
        if all(not contexts_compatible(f, g.context) for f in flaws):
            out.append(g.id)
    return out


def uncovered_outcome_contexts(plan: PlanGraph,
                               covered: Iterable[str] | None = None
                               ) -> list[frozenset]:
    """Outcome continuations of conditional steps that no (covered) goal
    step can serve."""
    goal_ctxs = [plan.steps[g].context for g in
                 (covered if covered is not None
                  else [s.id for s in plan.goal_steps()])]
    seen: set[frozenset] = set()
    out: list[frozenset] = []
    for st in plan.step_list():
        if st.kind not in ("cond", "obs") or st.source is None:
            continue
        for o in st.operator.outcomes:
            ctx = st.context | {Label(st.source, o)}
            if not context_consistent(ctx):
                continue
            if any(contexts_compatible(ctx, g) for g in goal_ctxs):
                continue
            fz = frozenset(ctx)
            if fz not in seen:
                seen.add(fz)
                out.append(fz)
    return out


def _canonical_topo(plan: PlanGraph, ids: Iterable[str]) -> list[str]:
    idset = set(ids)
    preds = {i: {p for p in idset if plan.ordered_before(p, i)} for i in idset}
    order: list[str] = []
    placed: set[str] = set()
    while len(order) < len(idset):
        ready = [i for i in idset - placed if preds[i] <= placed]
        nxt = min(ready, key=lambda i: plan.steps[i].sort_key())
        order.append(nxt)
        placed.add(nxt)
    return order


def extract_conditional_plan(plan: PlanGraph,
                             covered: Iterable[str] | None = None
                             ) -> ConditionalPlan:
    """Turn a plan graph into its executable branching form.

    ``covered`` names the goal steps whose branches must be emitted
    (default: all).  Raises IncompletePlan if an open goal, open influence,
    or live threat is context-compatible with a covered goal.  Outcome
    continuations that reach no covered goal become give-up leaves.
    """
    goals = {s.id: s for s in plan.goal_steps()}
    covered_ids = list(covered) if covered is not None else list(goals)
    for a in range(len(covered_ids)):
        for b in range(a + 1, len(covered_ids)):
            if contexts_compatible(goals[covered_ids[a]].context,
                                   goals[covered_ids[b]].context):
                raise OverlappingGoalContexts(
                    f"goal steps {covered_ids[a]} and {covered_ids[b]} have "
                    "compatible contexts")
    complete = set(complete_goal_ids(plan))
    for gid in covered_ids:
        if gid not in complete:
            raise IncompletePlan(f"branch of goal {gid} still has an open flaw")
    covered_ctxs = [goals[g].context for g in covered_ids]
    include = [sid for sid, st in plan.steps.items()
               if st.kind != "start"
               and (st.kind != "goal" or sid in covered_ids)
               and any(contexts_compatible(st.context, c) for c in covered_ctxs)]
    root = _build_branch(plan, _canonical_topo(plan, include), covered_ctxs,
                         frozenset(), 0)
    return ConditionalPlan(
        root=root,
        goal_contexts=tuple(goals[g].context for g in covered_ids),
        uncovered=tuple(leaf.context for leaf in _leaves(root)
                        if isinstance(leaf, GiveUpLeaf)))


def _build_branch(plan: PlanGraph, order: Sequence[str],
                  covered_ctxs: Sequence[frozenset], ctx: frozenset, pos: int):
    """The executable node for context ``ctx``, reading steps from
    ``order[pos:]``."""
    while pos < len(order):
        sid = order[pos]
        st = plan.steps[sid]
        pos += 1
        if not st.context <= ctx:
            continue
        if st.kind == "goal":
            return GoalLeaf(sid, st.context, st.operator.preconditions)
        if st.kind in ("cond", "obs"):
            children = {}
            for o in st.operator.outcomes:
                c2 = ctx | {Label(st.source, o)}
                if not context_consistent(c2):
                    continue
                if any(contexts_compatible(c2, g) for g in covered_ctxs):
                    children[o] = _build_branch(plan, order, covered_ctxs,
                                                frozenset(c2), pos)
                else:
                    children[o] = GiveUpLeaf(frozenset(c2))
            return BranchNode(sid, st.operator, st.source, children)
        return ActionNode(sid, st.operator,
                          _build_branch(plan, order, covered_ctxs, ctx, pos))
    return GiveUpLeaf(frozenset(ctx))


# ---------------------------------------------------------------------------
# canonical form & export


def canonical_key(plan: PlanGraph) -> str:
    parts = []
    for st in sorted(plan.steps.values(), key=lambda s: s.index):
        parts.append(f"{st.id}={st.operator.name}"
                     f"@{_ctx_text(st.context)}")
    parts.append("L:" + ";".join(sorted(l.text() for l in plan.links)))
    if plan.tree:
        parts.append("T:" + ";".join(
            f"{p}>{c}:{o}" for c, (p, o) in sorted(plan.tree.items())))
    parts.append("G:" + ";".join(sorted(f"{sid}|{p.text()}"
                                        for sid, p in plan.open_goals)))
    parts.append("I:" + ";".join(sorted(f"{sid}|{v}"
                                        for sid, v in plan.open_influences)))
    return "\n".join(parts)


_EDGE_STYLE = {
    "causal": 'style=solid',
    "ordering": 'style=dashed',
    "conditioning": 'style=solid color=darkgreen',
    "influence": 'style=dotted',
    "ignorance": 'color="black:invis:black"',
}


def to_dot(plan: PlanGraph) -> str:
    """Graphviz rendering: causal links solid, ordering dashed, conditioning
    labeled with the outcome, influence dotted, ignorance double-lined."""
    lines = ["digraph plan {", "  rankdir=LR;", "  node [shape=box];"]
    for st in sorted(plan.steps.values(), key=lambda s: s.index):
        shape = {"start": "ellipse", "goal": "doublecircle"}.get(st.kind, "box")
        label = st.operator.name
        if st.context:
            label += "\\n" + _ctx_text(st.context)
        lines.append(f'  "{st.id}" [shape={shape} label="{label}"];')
    for l in sorted(plan.links, key=Link.text):
        style = _EDGE_STYLE[l.kind]
        lab = ""
        if l.kind == "causal":
            lab = l.payload.text()
        elif l.kind == "conditioning":
            lab = l.payload.outcome
        elif l.kind in ("influence", "ignorance"):
            lab = f"unk({l.payload})" if l.kind == "ignorance" else str(l.payload)
        attr = f"[{style}" + (f' label="{lab}"' if lab else "") + "]"
        lines.append(f'  "{l.producer}" -> "{l.consumer}" {attr};')
    if plan.tree:
        for child, (parent, o) in sorted(plan.tree.items()):
            if o is None:
                lines.append(f'  "{parent}" -> "{child}" [style=dashed];')
            else:
                lines.append(
                    f'  "{parent}" -> "{child}" '
                    f'[style=solid color=darkgreen label="{o}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
