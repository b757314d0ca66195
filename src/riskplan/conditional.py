"""The extracted plan: its branch tree, its replay program, its document.

A ``ConditionalPlan`` is the tree ``plangraph.extract_conditional_plan``
builds from a finished plan graph.  Its ``replay`` program, compiled on
first use, is the only form of it the simulator reads, for Monte Carlo
trials and for the exact check alike.  A ``ReplayBlock`` stands for a
maximal run of action steps and the branch or leaf that ends it: a trial
tests the block's preconditions, and a goal leaf's goals, as one set of
(variable, value) pairs against the state, applies the run's merged
effects in one update, then reads the observed variable or draws the
outcome that picks the next block.  A leaf block holds the result every
trial reaching it returns, since the draws on the way to a block are the
same in every trial.  Only a trial whose block check fails walks the
block's steps one at a time, to name the step that fails.  A tree holding
anything but plan nodes is refused when it is compiled.

``plan_document`` writes a plan document (the CLI's ``plan.json``): the
tree, the links it uses, its masses, and the problem's ``init`` facts and
``priors``.  ``document_text`` gives its JSON text, and
``read_plan_document`` is its one reader.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, NamedTuple

from .domain import (GroundClause, GroundOperator, Problem, _check_row_groups,
                     _Literals, complete_clauses, literal_values)
from .errors import DomainSyntaxError, DomainValidationError, MalformedPlan

__all__ = [
    "Label",
    "ActionNode",
    "BranchNode",
    "GoalLeaf",
    "GiveUpLeaf",
    "ConditionalPlan",
    "TrialResult",
    "ReplayBlock",
    "ReplayProgram",
    "PlanDocument",
    "plan_document",
    "document_text",
    "read_plan_document",
]


class Label(NamedTuple):
    """One outcome of one variable (or of one conditional step's family).

    A tuple of its fields: it equals, hashes and sorts as the plain tuple
    ``(source, outcome)``."""

    source: str  # net variable id
    outcome: str

    def text(self) -> str:
        return f"{self.source}={self.outcome}"


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

    @cached_property
    def replay(self) -> "ReplayProgram":
        """The plan compiled for replay, built on first use; see
        ``ReplayBlock``.  Raises MalformedPlan at a node of no plan type."""
        reads: set = set()
        start, depth = _compile_block(self.root, reads)
        return ReplayProgram(start, depth, frozenset(reads))

    def steps_used(self) -> dict[str, GroundOperator]:
        """The steps on the tree, in depth-first preorder."""
        out: dict[str, GroundOperator] = {}
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, ActionNode):
                out[node.step_id] = node.op
                stack.append(node.child)
            elif isinstance(node, BranchNode):
                out[node.step_id] = node.op
                stack.extend(reversed(node.children.values()))
        return out

    def to_json_dict(self) -> dict:
        """The plan as JSON data; MalformedPlan at a node of no plan type."""
        return {
            "steps": [dict(_op_json(op), id=sid)
                      for sid, op in sorted(self.steps_used().items())],
            "branches": _node_json(self.root),
            "contexts": [_ctx_json(c) for c in self.goal_contexts],
            "uncoveredContexts": [_ctx_json(c) for c in self.uncovered],
        }


@dataclass(frozen=True)
class TrialResult:
    """What one replay of a plan in one world ends with."""

    success: bool
    leaf: str  # goal | giveup | aborted
    violations: tuple[str, ...] = ()
    outcomes: tuple[tuple[str, str], ...] = ()  # (step id, outcome) draws


class ReplayBlock(NamedTuple):
    """One block of a plan's replay program: a run of action steps and the
    node that ends it, with what a trial reads there worked out ahead.
    Every trial that reaches a block took the same branch outcomes on the
    way, its ``path``.  The exact check walks the same blocks: it first
    branches on the prior variables in ``reads`` that have no value yet,
    then does what a trial does, summing over a chance block's arms.

    ``kind`` says what a trial does once the block's ``check`` holds and
    its ``effects`` are applied:

    * ``"obs"``: look up the value of the variable ``read`` in ``arms``,
      value -> next block;
    * ``"chance"``: draw an outcome by bisecting the cut row that ``rows``
      (the operator's ``outcome_cuts``) gives for the values of the
      variables ``read`` (its ``row_vars``), and take that outcome's block
      in ``arms``, one per outcome in declared order (None for an outcome
      the plan does not cover);
    * ``"goal"``, ``"giveup"``: return ``verdict``, the success at a goal
      leaf or the failure at a give-up leaf.
    """

    kind: str
    # The (variable, value) pairs the state must hold on entry for every
    # precondition of the run and of a branch end, or every goal of a goal
    # end, to hold in its turn: those on variables that nothing earlier in
    # the block writes (the others are decided when the block is built).
    # ``_UNMET`` when the block writes a value a later step does not want.
    check: frozenset
    # the effects of the outcome that led here, then of the run, merged
    effects: Mapping[str, str]
    read: object
    rows: Mapping | None
    arms: Mapping | tuple | None
    verdict: TrialResult | None
    # (ActionNode, its precondition pairs, its effects) of each run step,
    # the outcome that led here first as (None, frozenset(), effects):
    # walked one at a time only to find what fails ``check``, or what holds
    # before a read
    run: tuple
    # (variable, k) for each variable the block reads before it writes it,
    # in the order a walk of the steps reads them: each run step's
    # preconditions, then the end's, then its observed variable or its
    # ``row_vars``, or a goal end's goals.  ``k`` counts the ``run`` entries
    # before the reader; the exact check branches on such a variable of the
    # prior net only once those entries hold.
    reads: tuple
    end: object
    path: tuple  # the (step id, outcome) draws made on the way here


class ReplayProgram(NamedTuple):
    start: ReplayBlock
    chance_depth: int  # the most chance steps on any path of the plan
    # the variables of every block's ``reads``: a trial looks up no other
    # variable before it writes it, so two worlds that agree on these give
    # every trial the same result
    reads: frozenset


# a pair no state holds: no state has the key
_UNMET = frozenset({(object(), None)})


def _require(pairs, written: Mapping[str, str], check: set, reads: list,
             k: int) -> bool:
    """Adds to ``check`` each pair whose variable ``written`` lacks, and
    that variable to ``reads`` as read at ``k``; False when ``written``
    gives one of them another value."""
    met = True
    for pair in pairs:
        var, want = pair
        if var in written:
            met = met and written[var] == want
        else:
            check.add(pair)
            reads.append((var, k))
    return met


def _compile_block(node, program_reads: set, path: tuple = (),
                   entry: Mapping[str, str] | None = None
                   ) -> tuple[ReplayBlock, int]:
    """The replay block that starts at ``node``, reached by the draws
    ``path`` whose last outcome wrote ``entry``, and the most chance steps
    on a path from ``node`` on (a chance step counts once whether or not
    the plan covers the outcome it draws).  Adds the variables of each
    block's ``reads`` to ``program_reads``.  Every child of a branch is
    compiled, whatever its name; a chance end keeps those of its outcomes,
    in declared order."""
    written = dict(entry or {})
    run = [(None, frozenset(), entry)] if entry else []
    check: set = set()
    reads: list = []
    met = True
    while isinstance(node, ActionNode):
        op = node.op
        met = _require(op.precondition_values, written, check, reads,
                       len(run)) and met
        effects = op.effect_values(None)
        run.append((node, frozenset(op.precondition_values), effects))
        written.update(effects)
        node = node.child
    read = rows = arms = verdict = None
    depth = 0
    if isinstance(node, BranchNode):
        op = node.op
        k = len(run)
        met = _require(op.precondition_values, written, check, reads,
                       k) and met
        reads += [(v, k) for v in (op.row_vars if op.observes is None
                                   else (op.observes,)) if v not in written]
        arms = {}
        for o, child in node.children.items():
            if child is not None:
                arms[o], d = _compile_block(
                    child, program_reads, path + ((node.step_id, o),),
                    op.effect_values(o))
                depth = max(depth, d)
        if op.kind == "obs":
            kind, read = "obs", op.observes
        else:
            kind, read, rows = "chance", op.row_vars, op.outcome_cuts
            arms = tuple(map(arms.get, op.outcomes))
            depth += 1
    elif isinstance(node, GoalLeaf):
        kind, verdict = "goal", TrialResult(True, "goal", (), path)
        met = _require(literal_values(node.goals), written, check, reads,
                       len(run)) and met
    elif isinstance(node, GiveUpLeaf):
        kind, verdict = "giveup", TrialResult(False, "giveup", (), path)
    else:
        raise MalformedPlan(f"unknown node {node!r}")
    program_reads.update(var for var, _ in reads)
    return ReplayBlock(kind, frozenset(check) if met else _UNMET, written,
                       read, rows, arms, verdict, tuple(run), tuple(reads),
                       node, path), depth


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


# ---------------------------------------------------------------------------
# plan documents


def plan_document(result, problem: Problem, model_name: str) -> dict:
    """A self-contained JSON-ready report of a planner's ``PlanResult``:
    everything needed to inspect or simulate the plan without the original
    domain files."""
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


def document_text(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, byte for byte, for
    JSON data nested to any depth: dicts with string keys, lists, strings,
    numbers, booleans and None.  A plan document nests one record per
    action step, and ``json`` recurses once per level, so containers are
    written here from an explicit stack, and only values that hold no
    container go through ``json.dumps``."""
    parts: list[str] = []
    # per open container: its (separator and key, value) entries still to
    # write, and its closing text
    stack = [(iter([("", doc)]), "")]
    while stack:
        entries, close = stack[-1]
        entry = next(entries, None)
        if entry is None:
            parts.append(close)
            stack.pop()
            continue
        prefix, value = entry
        parts.append(prefix)
        pad = "\n" + "  " * len(stack)
        if isinstance(value, dict) and value:
            opener, closer = "{", "}"
            entries = [(f",{pad}{json.dumps(k)}: ", value[k])
                       for k in sorted(value)]
        elif isinstance(value, (list, tuple)) and value:
            opener, closer = "[", "]"
            entries = [(f",{pad}", v) for v in value]
        else:
            parts.append(json.dumps(value))
            continue
        entries[0] = (entries[0][0][1:], entries[0][1])  # no separator
        parts.append(opener)
        stack.append((iter(entries), pad[:-2] + closer))
    return "".join(parts)


class PlanDocument(NamedTuple):
    """What ``read_plan_document`` decodes from a plan document."""

    plan: ConditionalPlan
    priors: list  # of GroundClause, in dependency order
    known_true: list  # of Proposition
    known_false: list  # of Proposition
    achieved_mass: object  # the analytic mass the document records, or None


def read_plan_document(doc: dict) -> PlanDocument:
    """The plan, prior clauses, ``init`` facts and recorded mass of a plan
    document, or of a tree alone as ``to_json_dict`` writes it.  Raises
    MalformedPlan when it cannot be decoded.  Each distinct literal text
    is read once, by one pattern match when ``Proposition.text()`` wrote
    it.  Each step's operator is built once, by one constructor call that
    writes every field, derived ones too, once through
    ``object.__setattr__``: none is left to be worked out on first read,
    since a lazy field would make every later read of any operator field,
    by the replay or a search, several times slower.  A chain of action
    steps is read in a loop, so its depth is not bounded by the
    interpreter's recursion limit."""
    read = _read_document(doc)
    return read._replace(priors=complete_clauses(read.priors, MalformedPlan))


def _read_document(doc: dict) -> PlanDocument:
    """``read_plan_document`` but for the one check of the prior clauses:
    they are built from their records as given, for a caller that checks
    them itself (``estimate_success``)."""
    literals = _Literals()
    try:
        ops = {rec["id"]: _op_from_json(rec, literals)
               for rec in doc["steps"]}
        plan = ConditionalPlan(
            _node_from_json(doc["branches"], ops, literals),
            tuple(_ctx_from_json(c) for c in doc["contexts"]),
            tuple(_ctx_from_json(c) for c in doc["uncoveredContexts"]))
        priors = _document_priors(doc.get("priors", ()))
        init = doc.get("init", {})
        return PlanDocument(plan, priors,
                            [literals[s] for s in init.get("true", ())],
                            [literals[s] for s in init.get("false", ())],
                            doc.get("achievedMass"))
    except (AttributeError, KeyError, TypeError, ValueError,
            DomainSyntaxError, DomainValidationError) as e:
        raise MalformedPlan(f"cannot decode plan document: {e}") from e


def _document_priors(records) -> list[GroundClause]:
    """The prior clauses of a plan document, in the order given: their
    variables and outcomes are strings, and each clause's ``row_fault`` is
    looked for here, so that a probability that is no number raises
    TypeError while the document is decoded.  ``complete_clauses`` raises
    a fault found, and checks the set."""
    priors = []
    for r in records:
        names = [r["var"], *r["space"], *r["parents"]]
        if not all(isinstance(x, str) for x in names):
            raise MalformedPlan(f"prior {r['var']!r}: variables and outcomes "
                                "must be strings")
        clause = GroundClause(r["var"], tuple(r["space"]),
                              tuple(r["parents"]),
                              {tuple(k): p for k, p in r["cpt"]})
        clause.row_fault  # kept on the clause for complete_clauses
        priors.append(clause)
    return priors


def _node_json(node) -> dict:
    # a run of action steps is walked in a loop and its records nested
    # from the end back, so a long chain needs no frame per step
    chain = []
    while isinstance(node, ActionNode):
        chain.append(node.step_id)
        node = node.child
    if isinstance(node, BranchNode):
        rec = {"type": "branch", "step": node.step_id,
               "source": node.source,
               "children": {o: _node_json(c)
                            for o, c in sorted(node.children.items())}}
    elif isinstance(node, GoalLeaf):
        rec = {"type": "goal", "step": node.step_id,
               "context": _ctx_json(node.context),
               "goals": [g.text() for g in node.goals]}
    elif isinstance(node, GiveUpLeaf):
        rec = {"type": "giveup", "context": _ctx_json(node.context)}
    else:
        raise MalformedPlan(f"unknown node {node!r}")
    for step_id in reversed(chain):
        rec = {"type": "action", "step": step_id, "next": rec}
    return rec


def _node_from_json(rec, ops: Mapping[str, GroundOperator],
                    literals: _Literals) -> object:
    """The plan node ``rec`` encodes; ``ops`` maps step ids to their
    decoded operators, and ``literals`` reads goal texts.  A chain of
    ``action`` records is read in a loop and its nodes built from the end
    back; only a branch recurses, once per child."""
    chain = []  # (step id, operator) of each action record on the way
    while rec["type"] == "action":
        step_id = rec["step"]
        chain.append((step_id, ops[step_id]))
        rec = rec["next"]
    t = rec["type"]
    if t == "branch":
        node = BranchNode(rec["step"], ops[rec["step"]], rec["source"],
                          {o: _node_from_json(c, ops, literals)
                           for o, c in rec["children"].items()})
    elif t == "goal":
        node = GoalLeaf(rec["step"], _ctx_from_json(rec["context"]),
                        tuple(map(literals.__getitem__, rec["goals"])))
    elif t == "giveup":
        node = GiveUpLeaf(_ctx_from_json(rec["context"]))
    else:
        raise KeyError(t)
    for step_id, op in reversed(chain):
        node = ActionNode(step_id, op, node)
    return node


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


def _op_from_json(rec: dict, literals: _Literals) -> GroundOperator:
    get = literals.__getitem__
    name, kind = rec["name"], rec["kind"]
    pre = tuple(map(get, rec.get("pre", ())))
    if kind in ("det", "start"):
        return GroundOperator(name, kind, pre,
                              tuple(map(get, rec.get("add", ()))),
                              tuple(map(get, rec.get("del", ()))))
    where = f"step {rec['id']}"
    fam = rec["outcomes"]
    if not fam:
        raise ValueError(f"{where} has no outcomes")
    outcomes = tuple(fam)
    adds = {o: tuple(map(get, v.get("add", ()))) for o, v in fam.items()}
    dels = {o: tuple(map(get, v.get("del", ()))) for o, v in fam.items()}
    influences = tuple(rec.get("influences", ()))
    observes = rec.get("observes")
    if not isinstance(observes, (str, type(None))) or not all(
            isinstance(v, str) for v in influences):
        raise TypeError(f"{where}: variables are named by strings")
    # distributions get the checks a domain's get
    dist = cpt = None
    if "dist" in rec:
        dist = {o: rec["dist"][o] for o in fam}
        _check_row_groups({(o,): p for o, p in dist.items()}, outcomes,
                          where)
    if "cpt" in rec:
        cpt = {tuple(k): p for k, p in rec["cpt"]}
        _check_row_groups(cpt, outcomes, where)
    return GroundOperator(name, kind, pre, (), (), outcomes, adds, dels,
                          dist, influences, cpt, observes)
