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
graph.  Updates only add steps, links and tree edges and only grow
contexts, so a child's facts follow from its parent's.  Adding a -> b
gives ``{b} | after[b]`` to a and to every step ordered before a.  A
plan's threats are a set, derived once per graph (``PlanGraph.threats``):
a graph derived from one whose threats are known keeps those threats that
still hold and checks only its new links against every step and its old
links against its new steps, as UCPOP does (Penberthy & Weld, KR 1992).
In a tree plan a new link is checked only against the steps on the tree
path down to its consumer, and a causal link skips at once every step
whose operator's ``clobbers`` lacks the link's proposition; an old causal
link whose proposition no new step clobbers is not visited at all.
``has_threat`` runs the same check but stops at the first threat, and a
plan it clears keeps the empty set as its threats.  ``_ordering_closure``
and ``find_threats`` are the from-scratch paths: roots use them, and the
tests hold every shortcut to them.

Plans come in two shapes.  ``tree`` plans keep an explicit parent map
(each step has one parent; conditional steps fan out per outcome), which
is what the linear planner maintains.  A tree plan's links run from tree
ancestors: ``add_link`` and ``condition_step`` refuse any other, so
``after[x]`` is exactly the set of steps below x.  ``dag`` plans (``tree``
is None) order steps only as far as links require.  All queries here work
on either shape.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .conditional import (ActionNode, BranchNode, ConditionalPlan, GiveUpLeaf,
                          GoalLeaf, Label, _leaves)
from .domain import (DependencyCycle, GroundOperator, Problem, Proposition,
                     dependency_order)
from .errors import (IgnoranceNotFromStart, IncompletePlan,
                     OverlappingGoalContexts, PlanGraphError, WouldCreateCycle)

__all__ = [
    "Step",
    "Link",
    "PlanGraph",
    "Threat",
    "contexts_compatible",
    "context_consistent",
    "add_link",
    "find_threats",
    "has_threat",
    "linearizations",
    "extract_conditional_plan",
    "uncovered_outcome_contexts",
    "complete_goal_ids",
    "make_root_plan",
    "tree_insert",
    "dag_add_step",
    "condition_step",
    "canonical_key",
    "to_dot",
]

START_ID = "start"


def context_consistent(ctx: Iterable[Label]) -> bool:
    seen: dict[str, str] = {}
    for lab in ctx:
        if seen.setdefault(lab.source, lab.outcome) != lab.outcome:
            return False
    return True


def contexts_compatible(a: Iterable[Label], b: Iterable[Label]) -> bool:
    """True when the union of the two label sets is consistent.  The empty
    context is compatible with everything."""
    if not a or not b:
        return True
    return context_consistent(itertools.chain(a, b))


def _ctx_text(ctx: frozenset) -> str:
    return "{" + ", ".join(lab.text() for lab in sorted(ctx)) + "}"


# A dataclass, not a tuple like Label and Link: its fields are read far
# more often than it is built, a NamedTuple's field reads are slower than
# a dataclass's, and as a NamedTuple it showed no consistent gain on the
# N-road bench.
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

    def grown(self, labels: frozenset) -> "Step":
        """This step with ``labels`` added to its context; a context only
        grows."""
        return Step(self.id, self.index, self.operator, self.context | labels,
                    self.source)


class Link(NamedTuple):
    """An edge of the plan from ``producer`` to ``consumer``.

    A tuple of its fields: it equals and hashes as the plain tuple
    ``(kind, producer, consumer, payload)``."""

    kind: str  # causal | conditioning | ordering | influence | ignorance
    producer: str
    consumer: str
    payload: object = None  # Proposition | Label | variable id | None

    def text(self) -> str:
        pl = ""
        if isinstance(self.payload, (Proposition, Label)):
            pl = self.payload.text()
        elif self.payload is not None:
            pl = str(self.payload)
        return f"{self.producer} -[{self.kind}{' ' + pl if pl else ''}]-> {self.consumer}"


class Threat(NamedTuple):
    """``step`` endangers ``link``; for conditional steps ``outcome`` names
    the offending alternative.

    A tuple of its fields: it equals and hashes as the plain tuple
    ``(step, link, outcome)``."""

    step: str
    link: Link
    outcome: str | None = None


@dataclass(frozen=True)
class _ThreatBasis:
    """What a derived plan's threats start from: the threat set of the plan
    it was derived from, and the step ids and links added since.  It holds
    no plan, so a chain of derived plans keeps no ancestor alive."""

    threats: frozenset  # of Threat
    steps: frozenset  # of step id
    links: frozenset  # of Link


@dataclass(frozen=True, eq=True)
class PlanGraph:
    steps: Mapping[str, Step]
    links: frozenset
    open_goals: frozenset  # of (step id, Proposition)
    open_influences: frozenset  # of (step id, variable id)
    goal_op: GroundOperator  # every goal step's operator: the problem goals
    tree: Mapping[str, tuple] | None  # child id -> (parent id, edge outcome)
    after: Mapping[str, frozenset]  # derived: strict ordering closure
    _basis: _ThreatBasis | None = field(default=None, compare=False,
                                        repr=False)

    # -- queries ----------------------------------------------------------

    @property
    def next_index(self) -> int:
        """The index of the next step added: steps are never removed, and
        each takes the next index in turn."""
        return len(self.steps)

    @cached_property
    def threats(self) -> frozenset[Threat]:
        """The set of the plan's threats, ``find_threats(self)``, computed
        on first use and kept: the graph never changes."""
        if self._basis is None:
            return find_threats(self)
        return frozenset(_threat_candidates(self, self._basis))

    @cached_property
    def _step_order(self) -> tuple[Step, ...]:
        return tuple(sorted(self.steps.values(), key=Step.sort_key))

    def step_list(self) -> tuple[Step, ...]:
        """The steps in canonical order (``Step.sort_key``), sorted once
        per plan."""
        return self._step_order

    @cached_property
    def _goal_order(self) -> tuple[Step, ...]:
        return tuple(s for s in self._step_order if s.kind == "goal")

    def goal_steps(self) -> tuple[Step, ...]:
        """The goal steps in canonical order, found once per plan."""
        return self._goal_order

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

    # -- functional updates ------------------------------------------------

    def _derive(self, new_steps: frozenset = frozenset(),
                new_links: frozenset = frozenset(), **kw) -> "PlanGraph":
        """A copy with ``kw`` replaced that adds the steps ``new_steps`` and
        the links ``new_links``.  Its threats start from this plan's, if
        they are known (a cached property lives in the instance dict), or
        from this plan's own basis.  The copy takes the declared fields
        straight from this plan's instance dict, so it inherits none of
        this plan's cached properties."""
        if "threats" in self.__dict__:
            basis = _ThreatBasis(self.threats, new_steps, new_links)
        elif self._basis is not None:
            b = self._basis
            basis = _ThreatBasis(b.threats, b.steps | new_steps,
                                 b.links | new_links)
        else:
            basis = None
        child = object.__new__(PlanGraph)
        state, mine = child.__dict__, self.__dict__
        for name in _PLAN_FIELDS:
            state[name] = mine[name]
        state.update(kw)
        state["_basis"] = basis
        return child

    def without_open_influence(self, item) -> "PlanGraph":
        return self._derive(open_influences=self.open_influences - {item})


# the fields ``PlanGraph._derive`` copies: all but ``_basis``
_PLAN_FIELDS = tuple(f.name for f in fields(PlanGraph) if f.name != "_basis")


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


def _with_order(after: Mapping[str, frozenset], a: str, b: str
                ) -> Mapping[str, frozenset]:
    """The closure ``after`` with a ordered before b: a and every step
    before a gain ``{b} | after[b]``.  Raises WouldCreateCycle when b is
    already before a."""
    if a == b or b in after[a]:
        return after
    if a in after[b]:
        raise WouldCreateCycle(f"ordering cycle through {a}")
    gain = after[b] | {b}
    return {x: succ | gain if x == a or a in succ else succ
            for x, succ in after.items()}


def _after_start(after: Mapping[str, frozenset], ids: Sequence[str]
                 ) -> dict[str, frozenset]:
    """The closure ``after`` with the new steps ``ids``, each ordered after
    start and before nothing."""
    out = dict(after)
    for sid in ids:
        out[sid] = frozenset()
    out[START_ID] = out[START_ID] | set(ids)
    return out


# ---------------------------------------------------------------------------
# construction


def _start_operator(problem: Problem) -> GroundOperator:
    adds = tuple(sorted(problem.known_true)) + tuple(
        p.negate() for p in sorted(problem.known_false))
    return GroundOperator(name="start", kind="start", add=adds)


def make_root_plan(problem: Problem, shape: str) -> PlanGraph:
    """Start step plus a single universal-context goal step whose
    preconditions are the problem goals.  Every goal step the plan's
    descendants add shares the root goal's operator."""
    start = Step(START_ID, 0, _start_operator(problem))
    goal = Step("s1", 1, GroundOperator(name="goal", kind="goal",
                                        preconditions=tuple(problem.goals)))
    steps = {start.id: start, goal.id: goal}
    tree = {goal.id: (START_ID, None)} if shape == "tree" else None
    links = frozenset() if shape == "tree" else frozenset(
        {Link("ordering", START_ID, goal.id)})
    plan = PlanGraph(
        steps=steps, links=links,
        open_goals=frozenset((goal.id, g) for g in problem.goals),
        open_influences=frozenset(), goal_op=goal.operator, tree=tree,
        after=_ordering_closure(steps, links, tree))
    return plan


# ---------------------------------------------------------------------------
# links


def add_link(plan: PlanGraph, link: Link) -> PlanGraph:
    """``plan`` with ``link`` added.  A causal link discharges its
    consumer's open precondition."""
    if link.producer not in plan.steps or link.consumer not in plan.steps:
        raise PlanGraphError(f"link endpoints missing: {link.text()}")
    if link.kind == "ignorance" and link.producer != START_ID:
        raise IgnoranceNotFromStart(
            f"ignorance of {link.payload} must originate at start, "
            f"not {link.producer}")
    if plan.tree and link.consumer not in plan.after[link.producer]:
        raise PlanGraphError(f"not from a tree ancestor: {link.text()}")
    if link in plan.links:
        return plan
    after = _with_order(plan.after, link.producer, link.consumer)
    open_goals = plan.open_goals
    if link.kind == "causal":
        open_goals = open_goals - {(link.consumer, link.payload)}
    return plan._derive(new_links=frozenset({link}),
                        links=plan.links | {link}, after=after,
                        open_goals=open_goals)


# ---------------------------------------------------------------------------
# threats


def find_threats(plan: PlanGraph) -> frozenset[Threat]:
    """Steps that could undo a causal or influence link or break an
    ignorance pledge.

    ``v`` threatens causal link ``(s, P, w)`` iff v is neither endpoint,
    could sit between them, and some effect set of v (its deterministic
    effects, or one outcome's effects plus that outcome's label) deletes P
    while staying context-compatible with both endpoints.  ``v``
    threatens influence link ``(s, X, w)`` on the same terms when such an
    effect set writes the variable X, whose value at w the link fixes.
    ``v`` threatens ignorance link ``(start, X, w)`` iff v could precede
    w, is context-compatible with w, and observing or executing v would
    reveal X's value.  The threats are a set: no reader needs an order.
    """
    steps = plan.step_list()
    return frozenset(t for link in plan.links
                     for t in _link_threats(plan, link, steps))


def _link_threats(plan: PlanGraph, link: Link,
                  steps: Iterable[Step]) -> Iterator[Threat]:
    """The threats to ``link`` from ``steps``."""
    if link.kind in ("causal", "influence"):
        s, w, item = link.producer, link.consumer, link.payload
        causal = link.kind == "causal"
        sctx = plan.steps[s].context
        wctx = plan.steps[w].context
        for v in steps:
            op = v.operator
            if causal and item not in op.clobbers or \
                    not plan.possibly_between(v.id, s, w):
                continue
            for o in op.runs:
                # a run that deletes the proposition, or writes the variable
                if item not in (op.effective_deletes(o) if causal
                                else op.effect_values(o)):
                    continue
                vctx = set(v.context)
                if o is not None and v.source is not None:
                    vctx.add(Label(v.source, o))
                if contexts_compatible(vctx, sctx) and \
                        contexts_compatible(vctx, wctx):
                    yield Threat(v.id, link, o)
    elif link.kind == "ignorance":
        w, varid = link.consumer, link.payload
        wctx = plan.steps[w].context
        for v in steps:
            if v.id in (START_ID, w) or plan.ordered_before(w, v.id):
                continue
            if not v.operator.touches_variable(varid):
                continue
            if contexts_compatible(v.context, wctx):
                yield Threat(v.id, link, None)


def _threat_candidates(plan: PlanGraph, basis: _ThreatBasis
                       ) -> Iterator[Threat]:
    """``find_threats(plan)``, one by one, from the threats of a plan it
    was derived from.  Derived plans only add steps and links and only grow
    contexts and orderings, so a step that did not threaten a link there
    does not threaten it here: it is enough to keep the old threats that
    still hold, check the new links against every step, and check the old
    links against the new steps.

    In a tree plan a new link need only be checked against the tree path
    down to its consumer.  Below the consumer every step runs after it.
    Any other step left that path at a chance step, under another of its
    outcomes, so its context and the consumer's hold two different labels
    of that chance step and cannot be compatible.  An old causal link
    whose proposition no new step clobbers is skipped, as
    ``_link_threats`` would skip each new step."""
    for t in basis.threats:
        if t in _link_threats(plan, t.link, (plan.steps[t.step],)):
            yield t
    for link in basis.links:
        if plan.tree is None:
            steps = plan.step_list()
        else:
            steps = [plan.steps[sid] for sid in plan.tree_path(link.consumer)]
        yield from _link_threats(plan, link, steps)
    if basis.steps:
        fresh = [plan.steps[sid] for sid in basis.steps]
        clobbered = frozenset().union(*(v.operator.clobbers for v in fresh))
        for link in plan.links - basis.links:
            if link.kind != "causal" or link.payload in clobbered:
                yield from _link_threats(plan, link, fresh)


def has_threat(plan: PlanGraph) -> bool:
    """``bool(plan.threats)``, stopping at the first threat a derived plan
    meets.  A plan found to have none keeps the empty set as its
    threats."""
    if "threats" in plan.__dict__ or plan._basis is None:
        return bool(plan.threats)
    for _t in _threat_candidates(plan, plan._basis):
        return True
    plan.__dict__["threats"] = frozenset()
    return False


# ---------------------------------------------------------------------------
# context conditioning


def condition_step(plan: PlanGraph, sid: str,
                   label_pairs: Iterable[tuple[Label, str]]) -> PlanGraph | None:
    """Restrict ``sid`` (and, transitively, everything that depends on its
    effects) to the given outcome labels.  Each label comes with the step
    that produced it so a conditioning link records the dependence and the
    implied ordering.  Returns None when the restriction is contradictory,
    would create an ordering cycle or link a tree plan's step from off its
    tree path, and ``plan`` itself when every label is already there."""
    grown: dict[str, Step] = {}  # step id -> the step with its grown context
    links, after = plan.links, plan.after
    queue: list[tuple[str, tuple[tuple[Label, str], ...]]] = [
        (sid, tuple(label_pairs))]
    while queue:
        cur, pairs = queue.pop()
        step = grown.get(cur) or plan.steps[cur]
        fresh = [(lab, prod) for lab, prod in pairs if lab not in step.context]
        if not fresh:
            continue
        grown[cur] = step.grown(frozenset(lab for lab, _p in fresh))
        if not context_consistent(grown[cur].context):
            return None
        for lab, prod in fresh:
            link = Link("conditioning", prod, cur, lab)
            if prod != cur and link not in links:
                if plan.tree and cur not in after[prod]:
                    return None
                try:
                    after = _with_order(after, prod, cur)
                except WouldCreateCycle:
                    return None
                links = links | {link}
        consumers = {l.consumer for l in links
                     if l.kind in ("causal", "conditioning")
                     and l.producer == cur and l.consumer != cur}
        for c in sorted(consumers):
            queue.append((c, tuple(fresh)))
    if not grown:
        return plan
    return plan._derive(new_links=links - plan.links, links=links,
                        after=after, steps={**plan.steps, **grown})


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
    first = Link("ordering", START_ID, sid)
    plan = plan._derive(
        new_steps=frozenset({sid}), new_links=frozenset({first}),
        steps={**plan.steps, sid: Step(sid, index, op, frozenset(), source)},
        links=plan.links | {first}, after=_after_start(plan.after, [sid]),
        open_goals=plan.open_goals | {(sid, p) for p in op.preconditions},
        open_influences=plan.open_influences | {(sid, v) for v in influences})
    pairs = list(context_pairs)
    if pairs:
        out = condition_step(plan, sid, pairs)
        if out is None:
            raise PlanGraphError("new step context is contradictory")
        plan = out
    return plan, sid


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
    ctx = plan.steps[child].context
    steps = dict(plan.steps)
    steps[sid] = Step(sid, index, op, ctx, source)
    tree = dict(plan.tree)
    tree[sid] = (parent, tree[child][1])
    tree[child] = (sid, chosen_outcome)  # parent -> child still holds
    open_goals = plan.open_goals | {(sid, p) for p in op.preconditions}
    new_goals: list[str] = []
    if op.kind in ("cond", "obs"):
        assert chosen_outcome in op.outcomes
        lab = Label(source, chosen_outcome)
        for below in plan.after[child] | {child}:
            steps[below] = steps[below].grown(frozenset({lab}))
        for o in op.outcomes:
            leaf_ctx = ctx | {Label(source, o)}
            if o == chosen_outcome or not context_consistent(leaf_ctx):
                continue
            gidx = index + 1 + len(new_goals)
            gid = f"s{gidx}"
            steps[gid] = Step(gid, gidx, plan.goal_op, frozenset(leaf_ctx))
            tree[gid] = (sid, o)
            open_goals |= {(gid, g) for g in plan.goal_op.preconditions}
            new_goals.append(gid)
    new_ids = [sid, *new_goals]
    after = _after_start(plan.after, new_ids)
    for a, b in [(parent, sid), (sid, child), *((sid, g) for g in new_goals)]:
        after = _with_order(after, a, b)
    plan = plan._derive(
        new_steps=frozenset(new_ids), steps=steps, tree=tree, after=after,
        open_goals=open_goals,
        open_influences=plan.open_influences | {(sid, v) for v in influences})
    return plan, sid, new_goals


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


def uncovered_outcome_contexts(plan: PlanGraph) -> list[frozenset]:
    """Outcome continuations of conditional steps that no goal step can
    serve."""
    goal_ctxs = [g.context for g in plan.goal_steps()]
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
    """``ids`` in an order the ordering closure allows, taking at each
    point the ready step that is least by ``Step.sort_key`` (Kahn's
    algorithm with a heap)."""
    idset = set(ids)
    succ = {i: plan.after[i] & idset for i in idset}
    waiting = dict.fromkeys(idset, 0)  # step id -> its unplaced predecessors
    for later in succ.values():
        for s in later:
            waiting[s] += 1
    ready = [(plan.steps[i].sort_key(), i) for i, n in waiting.items()
             if n == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        _key, nxt = heapq.heappop(ready)
        order.append(nxt)
        for s in succ[nxt]:
            waiting[s] -= 1
            if waiting[s] == 0:
                heapq.heappush(ready, (plan.steps[s].sort_key(), s))
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


def canonical_key(plan: PlanGraph) -> tuple:
    """The search's duplicate key: each step's (id, operator name, context)
    in index order, the links, the tree edges (child, (parent, outcome))
    by child, the open goals and the open influences.

    It holds the plan's own frozensets, so it costs a tuple per step and no
    text.  Two plans share a key only if they are the same plan.  No search
    has yet met a duplicate (``deduplicated`` stays 0); the key stays until
    that check is deleted together with the benchmark's trace of it."""
    steps = sorted(plan.steps.values(), key=lambda s: s.index)
    return (tuple((st.id, st.operator.name, st.context) for st in steps),
            plan.links,
            () if plan.tree is None else tuple(sorted(plan.tree.items())),
            plan.open_goals, plan.open_influences)


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
