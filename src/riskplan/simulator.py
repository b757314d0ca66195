"""Execute conditional plans against sampled or enumerated worlds.

A world is a full assignment to the prior variables, drawn by ancestral
sampling.  Execution walks the plan tree keeping one mutable value per
variable: observation steps read the variable's *current* value (so a road
someone plowed reads clear even if the weather said otherwise), conditional
steps draw their outcome from their table given the current values of their
influences, and deterministic steps just rewrite state.  Reaching a goal
leaf with all goals true is success; a give-up leaf, a missing branch, or
any violation is failure.

Trials are reproducible: trial ``t`` of seed ``s`` uses a Philox stream
keyed by ``(s, t)``, independent of how many trials run or in what order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import sqrt
from typing import Iterable, Mapping, Sequence

import numpy as np

from .domain import (DependencyCycle, GroundClause, GroundOperator,
                     Proposition, _check_row_groups, dependency_order,
                     missing_cpt_rows, prop_from_text, var_id)
from .errors import DomainSyntaxError, DomainValidationError, MalformedPlan
from .plangraph import (ActionNode, BranchNode, ConditionalPlan, GiveUpLeaf,
                        GoalLeaf)

__all__ = [
    "TrialResult",
    "sample_world",
    "execute_plan",
    "estimate_success",
    "exhaustive_success",
    "simulate_document",
    "EXHAUSTIVE_WORLD_LIMIT",
]

EXHAUSTIVE_WORLD_LIMIT = 4096  # 12 binary variables


@dataclass(frozen=True)
class TrialResult:
    success: bool
    leaf: str  # goal | giveup | aborted
    violations: tuple[str, ...] = ()
    outcomes: tuple[tuple[str, str], ...] = ()  # (step id, outcome) draws


def _rng_for(seed: int, trial: int) -> np.random.Generator:
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _topo_clauses(priors: Sequence[GroundClause]) -> list[GroundClause]:
    by_var = {c.var: c for c in priors}
    try:
        order = dependency_order(sorted(by_var),
                                 {v: c.parents for v, c in by_var.items()})
    except DependencyCycle as e:
        raise MalformedPlan("prior clauses are cyclic: "
                            + " -> ".join(e.args[0])) from None
    return [by_var[v] for v in order]


def sample_world(priors: Sequence[GroundClause],
                 rng: np.random.Generator) -> dict[str, str]:
    """One world by ancestral sampling, drawing the clauses in the order
    given: each must come after its parents, as ``GroundDomain.clauses``
    do."""
    world: dict[str, str] = {}
    for c in priors:
        try:
            tail = tuple(world[p] for p in c.parents)
        except KeyError as e:
            raise MalformedPlan(f"prior clause {c.var} comes before its "
                                f"parent {e.args[0]}") from None
        probs = [c.cpt[(o,) + tail] for o in c.space]
        world[c.var] = c.space[_draw(rng, probs)]
    return world


def _draw(rng: np.random.Generator, probs: Sequence[float]) -> int:
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i
    return len(probs) - 1


def _init_values(world: Mapping[str, str],
                 known_true: Iterable[Proposition],
                 known_false: Iterable[Proposition]) -> dict[str, str]:
    values = dict(world)
    for p in known_true:
        values[var_id(p)] = "true"
    for p in known_false:
        values[var_id(p)] = "false"
    return values


def _holds(values: Mapping[str, str], prop: Proposition) -> bool:
    v = values.get(var_id(prop.positive))
    want = "false" if prop.negated else "true"
    return v == want


def _outcome_distribution(op: GroundOperator, values: Mapping[str, str]
                          ) -> list[float] | None:
    """Probabilities over op.outcomes in declared order, or None when the
    current state cannot supply them."""
    if op.cpt is not None:
        tail = tuple(values.get(v, "") for v in op.influences)
        probs = []
        for o in op.outcomes:
            p = op.cpt.get((o,) + tail)
            if p is None:
                return None
            probs.append(p)
        return probs
    if op.simple_distribution is not None:
        return [op.simple_distribution[o] for o in op.outcomes]
    return None


def execute_plan(conditional: ConditionalPlan, world: Mapping[str, str],
                 known_true: Iterable[Proposition] = (),
                 known_false: Iterable[Proposition] = (),
                 rng: np.random.Generator | None = None) -> TrialResult:
    """One execution of the plan in the given world.  ``rng`` supplies the
    outcome draws of conditional steps (and must be given if any exist)."""
    values = _init_values(world, known_true, known_false)
    violations: list[str] = []
    outcomes: list[tuple[str, str]] = []
    node = conditional.root
    while True:
        if isinstance(node, (ActionNode, BranchNode)):
            op = node.op
            for pre in op.preconditions:
                if not _holds(values, pre):
                    violations.append(
                        f"step {node.step_id} ({op.name}) requires {pre}")
            if violations:
                return TrialResult(False, "aborted", tuple(violations),
                                   tuple(outcomes))
        if isinstance(node, ActionNode):
            values.update(node.op.effect_values(None))
            node = node.child
        elif isinstance(node, BranchNode):
            op = node.op
            if op.kind == "obs":
                got = values.get(op.observes)
                if got is None:
                    violations.append(
                        f"step {node.step_id} observes {op.observes}, "
                        "which has no value")
                    return TrialResult(False, "aborted", tuple(violations),
                                       tuple(outcomes))
            else:
                probs = _outcome_distribution(op, values)
                if probs is None:
                    violations.append(
                        f"step {node.step_id} ({op.name}) has no "
                        "distribution for the current state")
                    return TrialResult(False, "aborted", tuple(violations),
                                       tuple(outcomes))
                if rng is None:
                    raise ValueError("conditional steps need an rng")
                got = op.outcomes[_draw(rng, probs)]
            outcomes.append((node.step_id, got))
            values.update(op.effect_values(got))
            nxt = node.children.get(got)
            if nxt is None:
                violations.append(
                    f"step {node.step_id} came out {got!r}, which the plan "
                    "never anticipated")
                return TrialResult(False, "aborted", tuple(violations),
                                   tuple(outcomes))
            node = nxt
        elif isinstance(node, GoalLeaf):
            for g in node.goals:
                if not _holds(values, g):
                    violations.append(f"goal {g} does not hold at the end")
            ok = not violations
            return TrialResult(ok, "goal", tuple(violations), tuple(outcomes))
        elif isinstance(node, GiveUpLeaf):
            return TrialResult(False, "giveup", (), tuple(outcomes))
        else:
            raise MalformedPlan(f"unknown node {node!r}")


def estimate_success(conditional: ConditionalPlan,
                     priors: Sequence[GroundClause],
                     known_true: Iterable[Proposition] = (),
                     known_false: Iterable[Proposition] = (),
                     trials: int = 10000, seed: int = 0) -> dict:
    """Monte Carlo success frequency with its binomial standard error."""
    kt, kf = tuple(known_true), tuple(known_false)
    priors = _topo_clauses(priors)
    successes = 0
    giveups = 0
    violation_count = 0
    samples: list[str] = []
    for t in range(trials):
        rng = _rng_for(seed, t)
        world = sample_world(priors, rng)
        r = execute_plan(conditional, world, kt, kf, rng)
        successes += r.success
        giveups += r.leaf == "giveup"
        violation_count += len(r.violations)
        if r.violations and len(samples) < 5:
            samples.extend(r.violations[:5 - len(samples)])
    est = successes / trials if trials else 0.0
    se = sqrt(est * (1.0 - est) / trials) if trials else 0.0
    return {"trials": trials, "seed": seed, "successes": successes,
            "giveups": giveups, "estimate": est, "stderr": se,
            "violations": violation_count, "violationSamples": samples}


def exhaustive_success(conditional: ConditionalPlan,
                       priors: Sequence[GroundClause],
                       known_true: Iterable[Proposition] = (),
                       known_false: Iterable[Proposition] = ()) -> float:
    """Exact success probability by enumerating every world and every
    chance-step outcome.  Refuses joints larger than 2^12."""
    clauses = _topo_clauses(priors)
    combos = 1
    for c in clauses:
        combos *= len(c.space)
    if combos > EXHAUSTIVE_WORLD_LIMIT:
        raise ValueError(
            f"{combos} worlds exceed the exhaustive limit "
            f"({EXHAUSTIVE_WORLD_LIMIT})")
    kt, kf = tuple(known_true), tuple(known_false)

    def walk(node, values: dict[str, str], weight: float) -> float:
        if weight <= 0.0:
            return 0.0
        if isinstance(node, ActionNode):
            if not all(_holds(values, p) for p in node.op.preconditions):
                return 0.0
            values.update(node.op.effect_values(None))
            return walk(node.child, values, weight)
        if isinstance(node, BranchNode):
            op = node.op
            if not all(_holds(values, p) for p in op.preconditions):
                return 0.0
            if op.kind == "obs":
                got = values.get(op.observes)
                child = node.children.get(got)
                if child is None:
                    return 0.0
                v2 = dict(values)
                v2.update(op.effect_values(got))
                return walk(child, v2, weight)
            probs = _outcome_distribution(op, values)
            if probs is None:
                return 0.0
            total = 0.0
            for o, p in zip(op.outcomes, probs):
                child = node.children.get(o)
                if child is None or p == 0.0:
                    continue
                v2 = dict(values)
                v2.update(op.effect_values(o))
                total += walk(child, v2, weight * p)
            return total
        if isinstance(node, GoalLeaf):
            return weight if all(_holds(values, g) for g in node.goals) else 0.0
        return 0.0  # give up

    total = 0.0
    spaces = [c.space for c in clauses]
    for combo in itertools.product(*spaces):
        world = {c.var: o for c, o in zip(clauses, combo)}
        w = 1.0
        for c in clauses:
            w *= c.cpt[(world[c.var],) + tuple(world[p] for p in c.parents)]
        if w == 0.0:
            continue
        total += walk(conditional.root,
                      _init_values(world, kt, kf), w)
    return total


def simulate_document(doc: dict, trials: int = 10000, seed: int = 0) -> dict:
    """Run Monte Carlo on a self-contained plan document (the plan-json
    emission), without the original domain files."""
    conditional = ConditionalPlan.from_json_dict(doc)
    try:
        priors = _document_priors(doc.get("priors", ()))
        init = doc.get("init", {})
        kt = [prop_from_text(s) for s in init.get("true", ())]
        kf = [prop_from_text(s) for s in init.get("false", ())]
    except (AttributeError, KeyError, TypeError, ValueError,
            DomainSyntaxError, DomainValidationError) as e:
        raise MalformedPlan(f"cannot decode plan document: {e}") from e
    report = estimate_success(conditional, priors, kt, kf, trials, seed)
    report["analyticMass"] = doc.get("achievedMass")
    return report


def _document_priors(records) -> list[GroundClause]:
    """The prior clauses of a plan document, in dependency order, checked
    as a domain's clauses are: variables and outcomes are strings, outcome
    spaces are nonempty and distinct, every variable has one clause and
    every parent a clause, and each clause's rows pass
    ``_check_row_groups`` and cover every assignment to its parents."""
    priors = []
    for r in records:
        names = [r["var"], *r["space"], *r["parents"]]
        if not all(isinstance(x, str) for x in names):
            raise MalformedPlan(f"prior {r['var']!r}: variables and outcomes "
                                "must be strings")
        priors.append(GroundClause(r["var"], tuple(r["space"]),
                                   tuple(r["parents"]),
                                   {tuple(k): p for k, p in r["cpt"]}))
    by_var = {c.var: c for c in priors}
    if len(by_var) != len(priors):
        raise MalformedPlan("two prior clauses govern one variable")
    for c in priors:
        if not c.space or len(set(c.space)) != len(c.space):
            raise MalformedPlan(f"prior {c.var}: outcomes must be distinct "
                                "and at least one")
        for p in c.parents:
            if p not in by_var:
                raise MalformedPlan(f"prior {c.var} depends on undeclared {p}")
    priors = _topo_clauses(priors)
    for c in priors:
        _check_row_groups(c.cpt, c.space, f"prior {c.var}")
        missing = missing_cpt_rows(c.cpt, c.space,
                                   [by_var[p].space for p in c.parents])
        if missing:
            raise MalformedPlan(f"prior {c.var}: no row for {missing[0]}")
    return priors
