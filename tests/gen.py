"""Random nets, random domains, an independent execution oracle, the
reference Monte Carlo estimator, and lookups on ground operators and
domains that only the tests need.

Everything here is deliberately written against public data shapes only
(no planner or simulator internals), so the property suites check the
product code from the outside.
"""

from __future__ import annotations

import itertools
import random
from math import sqrt

import numpy as np

from riskplan.conditional import (ActionNode, BranchNode, GiveUpLeaf,
                                  GoalLeaf, Label)
from riskplan.domain import var_id
from riskplan.plangraph import START_ID, contexts_compatible
from riskplan.domain import GroundClause
from riskplan.probmodel import BeliefNet

JOINT_LIMIT = 8192  # keep brute-force enumeration of a random net cheap


def adds_for(op, outcome):
    """The literals a ground operator adds when it runs under ``outcome``
    (None = det), as declared."""
    return op.add if outcome is None else op.outcome_adds.get(outcome, ())


def deletes_for(op, outcome):
    """The literals a ground operator deletes under ``outcome``, as
    declared."""
    return op.delete if outcome is None else op.outcome_dels.get(outcome, ())


def operator_named(gdomain, name: str):
    """The ground operator called ``name``."""
    return next(op for op in gdomain.operators if op.name == name)


def random_net(rng: random.Random, max_vars: int = 12) -> BeliefNet:
    """A random belief net: parents only from earlier variables, so acyclic
    by construction; spaces of 2 or 3 outcomes; strictly positive CPTs."""
    n = rng.randint(1, max_vars)
    variables: dict[str, GroundClause] = {}
    names = [f"v{i}" for i in range(n)]
    joint = 1
    for i, name in enumerate(names):
        size = rng.choice((2, 2, 2, 3))
        if joint * size > JOINT_LIMIT:
            size = 2
        joint *= size
        space = tuple(f"o{j}" for j in range(size))
        pool = names[:i]
        parents = tuple(sorted(rng.sample(pool, min(len(pool),
                                                    rng.randint(0, 3)))))
        cpt: dict[tuple[str, ...], float] = {}
        for tail in itertools.product(*(variables[p].space for p in parents)):
            weights = [rng.random() + 1e-3 for _ in space]
            total = sum(weights)
            for o, w in zip(space, weights):
                cpt[(o,) + tail] = w / total
        variables[name] = GroundClause(name, space, parents, cpt)
    return BeliefNet(variables)


def random_evidence(rng: random.Random, net: BeliefNet,
                    max_labels: int = 3) -> list:
    names = sorted(net.variables)
    k = rng.randint(0, min(max_labels, len(names)))
    return [Label(v, rng.choice(net.variables[v].space))
            for v in rng.sample(names, k)]


# ---------------------------------------------------------------------------
# generated planning domains


def independent_domain(rng: random.Random) -> tuple[str, str]:
    """Chancy stages whose outcome odds are intrinsic to the operator and
    nothing is shared, so the network model must collapse to plain products.
    A couple of prior variables that no operator touches are thrown in to
    exercise marginalization."""
    stages = rng.randint(1, 3)
    ops: list[str] = []
    fully_recoverable = True
    ok_probs = []
    for i in range(stages):
        p_ok = round(rng.uniform(0.55, 0.95), 3)
        ok_probs.append(p_ok)
        outs = [f"(ok (prob {p_ok!r}) (add (p{i + 1})))"]
        rest = 1.0 - p_ok
        if rng.random() < 0.4:
            p_bad = round(rest * rng.uniform(0.3, 0.7), 4)
            outs.append(f"(bad (prob {p_bad!r}) (add (r{i})))")
            outs.append(f"(ugly (prob {rest - p_bad!r}))")
            fully_recoverable = False  # nothing recovers from ugly
        else:
            outs.append(f"(bad (prob {rest!r}) (add (r{i})))")
        ops.append(f"(operator try-{i}\n  (kind cond)\n  (pre (p{i}))\n"
                   f"  (outcomes {' '.join(outs)}))")
        if rng.random() < 0.7:
            ops.append(f"(operator fix-{i}\n  (kind det)\n  (pre (r{i}))\n"
                       f"  (add (p{i + 1}))\n  (del (r{i})))")
        else:
            fully_recoverable = False
    clauses = []
    for j in range(rng.randint(1, 2)):
        q = round(rng.uniform(0.1, 0.9), 3)
        clauses.append(f"(clause (head (w{j}) (true false))\n"
                       f"  (cpt ((true) {q!r}) ((false) {1.0 - q!r})))")
    domain = "\n\n".join(ops + clauses) + "\n"

    all_ok = 1.0
    for p in ok_probs:
        all_ok *= p
    cover_all = fully_recoverable and rng.random() < 0.5
    if cover_all and stages <= 2:
        epsilon = 0.0  # forces covering every recovery branch
    else:
        epsilon = min(0.999, 1.0 - all_ok + 1e-9)
    negs = " ".join(f"(not (p{i}))" for i in range(1, stages + 1))
    negs += " " + " ".join(f"(not (r{i}))" for i in range(stages))
    problem = (f"(problem\n  (init (p0) {negs})\n  (goal (p{stages}))\n"
               f"  (epsilon {epsilon!r}))\n")
    return domain, problem


def _chancy_chain(rng: random.Random) -> tuple[str, str]:
    p_ok = round(rng.uniform(0.5, 0.95), 3)
    domain = f"""\
(operator try
  (kind cond)
  (pre (p0))
  (outcomes (ok (prob {p_ok!r}) (add (p1)))
            (bad (prob {1.0 - p_ok!r}) (add (r0)))))

(operator fix
  (kind det)
  (pre (r0))
  (add (p1))
  (del (r0)))

(operator finish
  (kind det)
  (pre (p1))
  (add (p2))
  (del (p1)))
"""
    eps = rng.choice((0.0, round(1.0 - p_ok + 1e-6, 6)))
    problem = f"""\
(problem
  (init (p0) (not (p1)) (not (p2)) (not (r0)))
  (goal (p2))
  (epsilon {eps!r}))
"""
    return domain, problem


def _observe_then_act(rng: random.Random) -> tuple[str, str]:
    q = round(rng.uniform(0.15, 0.85), 3)
    domain = f"""\
(operator look
  (kind obs)
  (observes (x))
  (outcomes (true (add (x)))
            (false (del (x)))))

(operator go-high
  (kind det)
  (pre (x))
  (add (g)))

(operator go-low
  (kind det)
  (pre (not (x)))
  (add (g)))

(clause (head (x) (true false))
  (cpt ((true) {q!r}) ((false) {1.0 - q!r})))
"""
    problem = """\
(problem
  (init (not (g)))
  (goal (g))
  (epsilon 0))
"""
    return domain, problem


def _influence_walk(rng: random.Random) -> tuple[str, str]:
    q = round(rng.uniform(0.2, 0.8), 3)
    a_hi = round(rng.uniform(0.7, 0.99), 3)
    a_lo = round(rng.uniform(0.3, 0.6), 3)
    marginal = q * a_hi + (1.0 - q) * a_lo
    eps = min(0.999, round(1.0 - marginal + 0.05, 6))
    domain = f"""\
(operator walk
  (kind cond)
  (outcomes (arrive (add (g)))
            (slip))
  (influences (x))
  (cpt ((arrive true) {a_hi!r}) ((slip true) {1.0 - a_hi!r})
       ((arrive false) {a_lo!r}) ((slip false) {1.0 - a_lo!r})))

(operator forecast
  (kind obs)
  (observes (x))
  (outcomes (true) (false)))

(clause (head (x) (true false))
  (cpt ((true) {q!r}) ((false) {1.0 - q!r})))
"""
    problem = f"""\
(problem
  (init (not (g)))
  (goal (g))
  (epsilon {eps!r}))
"""
    return domain, problem


def _two_doors(rng: random.Random) -> tuple[str, str]:
    # kick is a decoy that clobbers d1; forces threat handling
    domain = """\
(operator unlock
  (kind det)
  (add (d1)))

(operator kick
  (kind det)
  (add (d2))
  (del (d1)))

(operator open-one
  (kind det)
  (pre (d1))
  (add (g)))

(operator open-two
  (kind det)
  (pre (d2))
  (add (g)))
"""
    problem = """\
(problem
  (init (not (d1)) (not (d2)) (not (g)))
  (goal (g))
  (epsilon 0))
"""
    return domain, problem


def influence_family(rng: random.Random) -> tuple[str, str]:
    """A chance step ``fly`` whose odds depend on x, and det steps that
    write x: ``setx`` sets it, ``unsetx`` clears it.  Each may also make
    true a goal, which it then always does, or the precondition ``fly`` may
    have, so that a plan may need a writer of x that the influence it
    prices does not want.  x is known either way or has a prior clause.
    Some problems have no plan: nothing makes the precondition of fly."""
    hi = round(rng.uniform(0.6, 0.95), 3)
    lo = round(rng.uniform(0.05, 0.4), 3)
    pre = rng.choice(("", "(pre (a))", "(pre (b))"))
    goals = ["(done)"] + [g for g in ("(a)", "(b)") if rng.random() < 0.5]
    set_a = rng.random() < 0.5 or "(a)" in goals
    add_b = rng.random() < 0.5 or "(b)" in goals
    domain = f"""\
(operator fly (kind cond) {pre}
  (outcomes (ok (add (done))) (fail))
  (influences (x))
  (cpt ((ok true) {hi!r}) ((fail true) {1.0 - hi!r})
       ((ok false) {lo!r}) ((fail false) {1.0 - lo!r})))
(operator setx (kind det) (add (x){" (a)" if set_a else ""}))
(operator unsetx (kind det) (del (x)){" (add (b))" if add_b else ""})
"""
    init = ["(not (done))", "(not (a))", "(not (b))"]
    x = rng.choice(("true", "false", "prior"))
    if x == "prior":
        q = round(rng.uniform(0.1, 0.9), 3)
        domain += (f"(clause (head (x) (true false))\n"
                   f"  (cpt ((true) {q!r}) ((false) {1.0 - q!r})))\n")
    else:
        init.append("(x)" if x == "true" else "(not (x))")
    epsilon = rng.choice((0.3, 0.5, 0.7, 0.9, 0.95))
    problem = (f"(problem (init {' '.join(init)}) (goal {' '.join(goals)})"
               f" (epsilon {epsilon!r}))\n")
    return domain, problem


SOLVABLE_TEMPLATES = (_chancy_chain, _observe_then_act, _influence_walk,
                      _two_doors)


def solvable_domain(rng: random.Random) -> tuple[str, str]:
    """One of four shapes, all at most 6 operators over at most 4 boolean
    variables, each solvable at its stated epsilon."""
    return rng.choice(SOLVABLE_TEMPLATES)(rng)


# ---------------------------------------------------------------------------
# independent execution oracle


def _topo(clauses):
    by_var = {c.var: c for c in clauses}
    order, seen = [], set()

    def visit(v):
        if v in seen:
            return
        seen.add(v)
        for p in by_var[v].parents:
            visit(p)
        order.append(by_var[v])

    for v in sorted(by_var):
        visit(v)
    return order


def _truth(values, prop) -> bool:
    t = values[var_id(prop.positive)] == "true"
    return not t if prop.negated else t


def exhaustive_check(conditional, priors, known_true=(), known_false=()):
    """Walk every world and every chance outcome of the executable plan.

    Returns ``(success_mass, violations)`` where violations counts paths of
    positive probability on which some step ran without its preconditions.
    Independent of the simulator: only the plan node shapes are shared.
    """
    clauses = _topo(priors)
    violations = 0

    def walk(node, values, weight) -> float:
        nonlocal violations
        if weight == 0.0:
            return 0.0
        if isinstance(node, GoalLeaf):
            return weight if all(_truth(values, g) for g in node.goals) else 0.0
        if isinstance(node, GiveUpLeaf):
            return 0.0
        op = node.op
        if not all(_truth(values, p) for p in op.preconditions):
            violations += 1
            return 0.0
        if isinstance(node, ActionNode):
            v2 = dict(values)
            for p in op.delete:
                v2[var_id(p.positive)] = "true" if p.negated else "false"
            for p in op.add:
                v2[var_id(p.positive)] = "false" if p.negated else "true"
            return walk(node.child, v2, weight)
        assert isinstance(node, BranchNode)
        if op.kind == "obs":
            got = values[op.observes]
            outs = [(got, 1.0)]
        elif op.cpt is not None:
            row = tuple(values[v] for v in op.influences)
            outs = [(o, op.cpt[(o,) + row]) for o in op.outcomes]
        else:
            outs = [(o, op.simple_distribution[o]) for o in op.outcomes]
        total = 0.0
        for o, p in outs:
            child = node.children.get(o)
            if child is None or p == 0.0:
                continue
            v2 = dict(values)
            for q in op.outcome_dels.get(o, ()):
                v2[var_id(q.positive)] = "true" if q.negated else "false"
            for q in op.outcome_adds.get(o, ()):
                v2[var_id(q.positive)] = "false" if q.negated else "true"
            total += walk(child, v2, weight * p)
        return total

    mass = 0.0
    for combo in itertools.product(*(c.space for c in clauses)):
        world = {c.var: o for c, o in zip(clauses, combo)}
        w = 1.0
        for c in clauses:
            w *= c.cpt[(world[c.var],) + tuple(world[p] for p in c.parents)]
        values = dict(world)
        values.update({var_id(p): "true" for p in known_true})
        values.update({var_id(p): "false" for p in known_false})
        mass += walk(conditional.root, values, w)
    return mass, violations


# ---------------------------------------------------------------------------
# reference Monte Carlo estimator


def _draw(rng, probs) -> int:
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i
    return len(probs) - 1


def _holds(values, prop) -> bool:
    want = "false" if prop.negated else "true"
    return values.get(var_id(prop.positive)) == want


def outcome_probs(op, values):
    """The probabilities of ``op``'s outcomes in declared order, read from
    its cpt at the current values of its influences, else from its
    ``(prob ...)`` map; None when the state has no row."""
    if op.cpt is not None:
        tail = tuple(values.get(v, "") for v in op.influences)
        probs = [op.cpt.get((o,) + tail) for o in op.outcomes]
        return None if None in probs else probs
    if op.simple_distribution is not None:
        return [op.simple_distribution[o] for o in op.outcomes]
    return None


def _reference_trial(conditional, clauses, kt, kf, rng):
    """``(success, leaf, violations)`` of one trial: the world by ancestral
    sampling, then the plan walked with one draw per chance step."""
    values = {}
    for c in clauses:
        tail = tuple(values[p] for p in c.parents)
        values[c.var] = c.space[_draw(rng, [c.cpt[(o,) + tail]
                                            for o in c.space])]
    values.update({var_id(p): "true" for p in kt})
    values.update({var_id(p): "false" for p in kf})
    node = conditional.root
    while True:
        if isinstance(node, GoalLeaf):
            bad = tuple(f"goal {g} does not hold at the end"
                        for g in node.goals if not _holds(values, g))
            return not bad, "goal", bad
        if isinstance(node, GiveUpLeaf):
            return False, "giveup", ()
        op = node.op
        bad = tuple(f"step {node.step_id} ({op.name}) requires {pre}"
                    for pre in op.preconditions if not _holds(values, pre))
        if bad:
            return False, "aborted", bad
        if isinstance(node, ActionNode):
            values.update(op.effect_values(None))
            node = node.child
            continue
        if op.kind == "obs":
            got = values.get(op.observes)
            if got is None:
                return False, "aborted", (
                    f"step {node.step_id} observes {op.observes}, "
                    "which has no value",)
        else:
            probs = outcome_probs(op, values)
            if probs is None:
                return False, "aborted", (
                    f"step {node.step_id} ({op.name}) has no "
                    "distribution for the current state",)
            got = op.outcomes[_draw(rng, probs)]
        values.update(op.effect_values(got))
        if got not in node.children:
            return False, "aborted", (
                f"step {node.step_id} came out {got!r}, which the plan "
                "never anticipated",)
        node = node.children[got]


def reference_estimate(conditional, priors, known_true=(), known_false=(),
                       trials=10000, seed=0) -> dict:
    """Monte Carlo as the simulator ran it with one generator per trial:
    trial ``t`` draws from ``np.random.Generator(np.random.Philox(key=[seed,
    t]))``, and each outcome is the first whose running sum exceeds the
    draw.  ``estimate_success`` must return this report exactly."""
    clauses = _topo(priors)
    kt, kf = tuple(known_true), tuple(known_false)
    successes = giveups = violation_count = 0
    samples: list[str] = []
    for t in range(trials):
        key = np.array([seed, t], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        ok, leaf, bad = _reference_trial(conditional, clauses, kt, kf, rng)
        successes += ok
        giveups += leaf == "giveup"
        violation_count += len(bad)
        if bad and len(samples) < 5:
            samples.extend(bad[:5 - len(samples)])
    est = successes / trials if trials else 0.0
    se = sqrt(est * (1.0 - est) / trials) if trials else 0.0
    return {"trials": trials, "seed": seed, "successes": successes,
            "giveups": giveups, "estimate": est, "stderr": se,
            "violations": violation_count, "violationSamples": samples}


def ignorance_breaches(graph) -> list[tuple[str, str, str]]:
    """Steps that could reveal a pledged-unknown variable before the step
    the pledge protects: (revealing step, protected step, variable)."""
    out = []
    for link in graph.links:
        if link.kind != "ignorance":
            continue
        protected, var = link.consumer, link.payload
        pctx = graph.steps[protected].context
        for st in graph.step_list():
            if st.id in (START_ID, protected):
                continue
            if graph.ordered_before(protected, st.id):
                continue
            if st.operator.touches_variable(var) and \
                    contexts_compatible(st.context, pctx):
                out.append((st.id, protected, var))
    return sorted(out)
