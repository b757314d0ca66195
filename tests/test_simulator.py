"""Execution harness: single trials, Monte Carlo, exhaustive enumeration."""

import bisect
import dataclasses
import functools
import gc
import itertools
import json
import random
import re
import warnings
from collections import Counter

import numpy as np
import pytest

from riskplan import domain, simulator
from riskplan.conditional import (ActionNode, BranchNode, ConditionalPlan,
                                  GiveUpLeaf, GoalLeaf, plan_document,
                                  read_plan_document)
from riskplan.errors import MalformedPlan
from riskplan.linear import plan_linear
from riskplan.nonlinear import plan_nonlinear
from riskplan.simulator import (EXHAUSTIVE_WORLD_LIMIT, _TRIAL_CHUNK,
                                TrialResult,
                                _philox_uniforms, estimate_success,
                                execute_plan,
                                exhaustive_success, sample_world,
                                simulate_document)
from riskplan.worlds import (det_chain, load_texts, nroad_world,
                             press_button, ski_world, slippery_walk, sussman)

from .gen import (exhaustive_check, outcome_probs, reference_estimate,
                  solvable_domain)

WORLDS = {
    "det_chain": det_chain(3),
    "press_button": press_button(),
    "slippery_walk": slippery_walk(),
    "ski_world": ski_world(),
    "sussman": sussman(),
}


def _planned(name):
    gdom, prob = load_texts(*WORLDS[name])
    return prob, plan_linear(gdom, prob)


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_exhaustive_matches_analytic_mass(name):
    prob, res = _planned(name)
    got = exhaustive_success(res.conditional, prob.priors,
                             prob.known_true, prob.known_false)
    assert got == pytest.approx(res.bound.achieved_mass, abs=1e-9)


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_exhaustive_agrees_with_independent_walker(name):
    prob, res = _planned(name)
    ours = exhaustive_success(res.conditional, prob.priors,
                              prob.known_true, prob.known_false)
    theirs, violations = exhaustive_check(res.conditional, prob.priors,
                                          prob.known_true, prob.known_false)
    assert violations == 0
    assert ours == pytest.approx(theirs, abs=1e-12)


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_monte_carlo_within_three_sigma(name):
    prob, res = _planned(name)
    report = estimate_success(res.conditional, prob.priors,
                              prob.known_true, prob.known_false,
                              trials=20000, seed=11)
    assert report["violations"] == 0
    spread = max(3 * report["stderr"], 1e-9)
    assert abs(report["estimate"] - res.bound.achieved_mass) <= spread


def test_monte_carlo_is_deterministic_per_seed():
    prob, res = _planned("ski_world")
    a = estimate_success(res.conditional, prob.priors, prob.known_true,
                         prob.known_false, trials=500, seed=3)
    b = estimate_success(res.conditional, prob.priors, prob.known_true,
                         prob.known_false, trials=500, seed=3)
    c = estimate_success(res.conditional, prob.priors, prob.known_true,
                         prob.known_false, trials=500, seed=4)
    assert a == b
    assert a != c


def test_sample_world_follows_priors():
    prob, _ = _planned("ski_world")
    rng = np.random.Generator(np.random.Philox(key=np.array([1, 0],
                                                            dtype=np.uint64)))
    n = 4000
    hits = sum(sample_world(prob.priors, rng)["blizzard"] == "true"
               for _ in range(n))
    assert abs(hits / n - 0.1) < 0.02


def test_execute_plan_goal_and_giveup_paths():
    prob, res = _planned("ski_world")
    kt, kf = prob.known_true, prob.known_false
    clear = {"blizzard": "false", "clear(b,snowbird)": "true",
             "clear(c,parkcity)": "true"}
    blocked = {"blizzard": "true", "clear(b,snowbird)": "false",
               "clear(c,parkcity)": "false"}
    r = execute_plan(res.conditional, clear, kt, kf)
    assert r.success and r.leaf == "goal" and r.violations == ()
    assert ("s3", "true") in r.outcomes or any(o == "true"
                                               for _s, o in r.outcomes)
    r2 = execute_plan(res.conditional, blocked, kt, kf)
    assert not r2.success and r2.leaf == "giveup"


def test_execute_plan_flags_violated_precondition():
    prob, res = _planned("det_chain")
    # a world where the chain's first precondition is already false
    r = execute_plan(res.conditional, {}, (), prob.known_false)
    assert not r.success
    assert r.leaf == "aborted"
    assert any("requires" in v for v in r.violations)


def test_execute_plan_requires_rng_for_chance():
    prob, res = _planned("press_button")
    with pytest.raises(ValueError):
        execute_plan(res.conditional, {}, prob.known_true, prob.known_false,
                     rng=None)


def test_exhaustive_refuses_huge_joint(monkeypatch):
    """Priors the plan never reads are summed out, not branched on: 13 of
    them (8,192 worlds, more than the limit) give the oracle's mass.  A
    walk that branches into more prior assignments than the limit still
    raises."""
    from riskplan.domain import GroundClause
    priors = tuple(
        GroundClause(f"v{i}", ("true", "false"), (),
                     {("true",): 0.5, ("false",): 0.5})
        for i in range(13))
    assert 2 ** 13 > EXHAUSTIVE_WORLD_LIMIT
    prob, res = _planned("det_chain")
    args = (res.conditional, priors, prob.known_true, prob.known_false)
    assert exhaustive_success(*args) == pytest.approx(
        exhaustive_check(*args)[0], abs=1e-12)
    gdom, prob = load_texts(*nroad_world(3))
    res = plan_nonlinear(gdom, prob)
    monkeypatch.setattr(simulator, "EXHAUSTIVE_WORLD_LIMIT", 2)
    with pytest.raises(ValueError, match=r"exceed the exhaustive limit \(2\)"):
        exhaustive_success(res.conditional, prob.priors, prob.known_true,
                           prob.known_false)


def _walk_and_oracle(res, prob):
    """The exact check's mass and ``exhaustive_check``'s, after holding
    the check to the node walk on the plan and its variants."""
    _assert_exact_like_node_walk(res.conditional, prob)
    args = (res.conditional, prob.priors, prob.known_true, prob.known_false)
    return exhaustive_success(*args), exhaustive_check(*args)[0]


# ---------------------------------------------------------------------------
# The node walk ``exhaustive_success`` ran before the exact check read the
# replay program: every isinstance dispatch and precondition loop as it
# was.  The block walk must return the same mass bit for bit, after
# branching into as many prior assignments.


def _oracle_exact(conditional, priors, known_true=(), known_false=()):
    """The node walk's success mass, and the number of prior assignments
    it branched into; it has no limit."""
    walk = simulator._Walk({c.var: c for c in domain.ordered_clauses(
        priors, MalformedPlan)})
    mass = _oracle_exact_mass(
        conditional.root, {},
        simulator._init_values({}, known_true, known_false), 1.0, walk)
    return mass, walk.branches


def _oracle_met(wanted, values):
    return all(values.get(v) == want for v, want in wanted)


def _oracle_exact_mass(node, world, values, weight, walk):
    clauses = walk.clauses
    while True:
        if clauses:
            var = _oracle_unset_read(node, values, clauses)
            if var is not None:
                return _oracle_branch(node, var, world, values, weight, walk)
        if isinstance(node, ActionNode):
            op = node.op
            if not _oracle_met(op.precondition_values, values):
                return 0.0
            values.update(op.effect_values(None))
            node = node.child
            continue
        if isinstance(node, GoalLeaf):
            return weight if _oracle_met(domain.literal_values(node.goals),
                                         values) else 0.0
        if not isinstance(node, BranchNode):
            return 0.0  # give up
        op = node.op
        if not _oracle_met(op.precondition_values, values):
            return 0.0
        if op.kind == "obs":
            got = values.get(op.observes)
            node = node.children.get(got)
            if node is None:
                return 0.0
            values.update(op.effect_values(got))
            continue
        probs = outcome_probs(op, values)
        if probs is None:
            return 0.0
        total = 0.0
        for o, p in zip(op.outcomes, probs):
            child = node.children.get(o)
            if child is None or p == 0.0:
                continue
            v2 = dict(values)
            v2.update(op.effect_values(o))
            total += _oracle_exact_mass(child, world, v2, weight * p, walk)
        return total


def _oracle_unset_read(node, values, clauses):
    """A prior variable that ``node`` reads and ``values`` has no value
    for, else None.  A step reads its preconditions, its observed variable
    and its influences; a goal leaf reads its goals."""
    if isinstance(node, GoalLeaf):
        pairs, extra = domain.literal_values(node.goals), ()
    elif isinstance(node, (ActionNode, BranchNode)):
        op = node.op
        pairs = op.precondition_values
        extra = op.influences if op.observes is None else (op.observes,)
    else:
        return None
    for v, _want in pairs:
        if v not in values and v in clauses:
            return v
    for v in extra:
        if v not in values and v in clauses:
            return v
    return None


def _oracle_branch(node, var, world, values, weight, walk):
    c = walk.clauses[simulator._undrawn_ancestor(var, world, walk.clauses)]
    tail = tuple(world[p] for p in c.parents)
    total = 0.0
    for o in c.space:
        p = c.cpt[(o,) + tail]
        if p == 0.0:
            continue
        walk.branches += 1
        w2 = dict(world)
        w2[c.var] = o
        v2 = dict(values)
        v2.setdefault(c.var, o)
        total += _oracle_exact_mass(node, w2, v2, weight * p, walk)
    return total


def _exact_and_branches(conditional, priors, known_true=(), known_false=()):
    """``exhaustive_success`` and the number of prior assignments its walk
    branched into."""
    walks = []
    make = simulator._Walk

    def recorded(clauses):
        walks.append(make(clauses))
        return walks[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_Walk", recorded)
        mass = exhaustive_success(conditional, priors, known_true, known_false)
    return mass, walks[0].branches


def _assert_exact_like_node_walk(conditional, prob):
    """Equal masses and branch counts on the plan, on the plan with all
    but one outcome of its first branch unplanned, and on the plan with a
    negated goal added to each goal leaf; each with the problem's priors
    and known facts, and with each of those dropped in turn."""
    plans = [conditional]
    if any(isinstance(n, BranchNode) for n in _nodes(conditional.root)):
        plans.append(dataclasses.replace(
            conditional, root=_drop_outcome(conditional.root)))
    if prob.goals:
        extra = (prob.goals[0].negate(),)
        plans.append(dataclasses.replace(
            conditional, root=_more_goals(conditional.root, extra)))
    kt, kf = prob.known_true, prob.known_false
    facts = ((prob.priors, kt, kf), (prob.priors, (), kf),
             (prob.priors, kt, ()), ((), kt, kf))
    for plan in plans:
        for args in facts:
            assert _exact_and_branches(plan, *args) == \
                _oracle_exact(plan, *args)


def test_exact_walk_matches_oracle_on_worlds_and_random_domains():
    """Every ``WORLDS`` plan and the plans of 100 random solvable domains,
    under both planners."""
    problems = [load_texts(*WORLDS[name]) for name in sorted(WORLDS)]
    problems += [load_texts(*solvable_domain(random.Random(13000 + i)))
                 for i in range(100)]
    for gdom, prob in problems:
        for planner in (plan_linear, plan_nonlinear):
            walk, oracle = _walk_and_oracle(
                planner(gdom, prob, node_budget=10_000), prob)
            assert abs(walk - oracle) <= 1e-12, planner.__name__


@pytest.mark.parametrize("n", range(3, 12))
def test_exact_walk_matches_oracle_on_nroad(n):
    gdom, prob = load_texts(*nroad_world(n))
    walk, oracle = _walk_and_oracle(plan_nonlinear(gdom, prob), prob)
    assert abs(walk - oracle) <= 1e-12


@pytest.mark.parametrize("n", range(12, 21))
def test_exact_walk_scales_past_the_old_limit_on_nroad(n):
    """N-road with 13 to 21 prior variables, which the oracle cannot
    enumerate: checking three roads fails only when all three are closed.
    Every N-road plan from N=10 on checks roads r0, r8 and r9, so the plan
    found at N=12 stands for the larger sizes too (planning N=20 takes
    seconds)."""
    plan = _nroad_plan_12()
    _gdom, prob = load_texts(*nroad_world(n))
    got = exhaustive_success(plan, prob.priors, prob.known_true,
                             prob.known_false)
    assert abs(got - (0.1 * (1 - 0.7 ** 3) + 0.9 * (1 - 0.1 ** 3))) <= 1e-12


@functools.cache
def _nroad_plan_12():
    gdom, prob = load_texts(*nroad_world(12))
    return plan_nonlinear(gdom, prob).conditional


def test_exact_walk_keeps_prior_draws_apart_from_current_values():
    """A step sets the prior ``x`` before anything reads it.  The chance
    step reads the current ``x``, but the prior ``y`` keeps the row of
    ``x``'s draw, as a sampled world does; a known fact on ``x`` acts the
    same way."""
    from riskplan.domain import GroundClause, GroundOperator, Proposition
    x, y, won = Proposition("x", ()), Proposition("y", ()), Proposition(
        "won", ())
    priors = (
        GroundClause("x", ("true", "false"), (),
                     {("true",): 0.3, ("false",): 0.7}),
        GroundClause("y", ("true", "false"), ("x",),
                     {("true", "true"): 0.9, ("false", "true"): 0.1,
                      ("true", "false"): 0.2, ("false", "false"): 0.8}))
    set_x = GroundOperator("set-x", "det", add=(x,))
    look = GroundOperator("look-y", "obs", outcomes=("true", "false"),
                          observes="y", outcome_adds={"true": (y,)},
                          outcome_dels={"false": (y,)})
    gamble = GroundOperator(
        "gamble", "cond", outcomes=("win", "lose"), influences=("x",),
        cpt={("win", "true"): 0.5, ("lose", "true"): 0.5,
             ("win", "false"): 0.1, ("lose", "false"): 0.9},
        outcome_adds={"win": (won,)})
    goal = GoalLeaf("s9", frozenset(), (won, y))
    root = ActionNode("s1", set_x, BranchNode("s2", look, "s2", {
        "true": BranchNode("s3", gamble, "s3", {"win": goal})}))
    plan = ConditionalPlan(root, (frozenset(),), ())
    want = (0.3 * 0.9 + 0.7 * 0.2) * 0.5
    for known in ((), (x,)):
        got = exhaustive_success(plan, priors, known)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(exhaustive_check(plan, priors, known)[0],
                                    abs=1e-12)


_X, _Y, _Z, _DONE = (domain.Proposition(v) for v in ("x", "y", "z", "done"))
_XYZ = tuple(domain.GroundClause(v, ("true", "false"), (),
                                 {("true",): 0.3, ("false",): 0.7})
             for v in "xyz")


def _det(name, pre=(), add=()):
    return domain.GroundOperator(name, "det", preconditions=pre, add=add)


def _run_plan(*ops, goals=()):
    """One run of the steps ``ops``, then a goal leaf on ``goals``."""
    node = GoalLeaf("g", frozenset(), goals)
    for i in reversed(range(len(ops))):
        node = ActionNode(f"s{i}", ops[i], node)
    return ConditionalPlan(node, (frozenset(),), ())


# plan, its block's reads, the node walk's mass and branch count
_GUARDED = {
    # branching on every read up front would take 2 + 4 + 8 = 14 branches
    "early_failure": (
        _run_plan(_det("a", (_X,)), _det("b", (_Y,), (_DONE,)),
                  goals=(_DONE, _Z)),
        (("x", 0), ("y", 1), ("z", 2)), 0.3 * 0.3 * 0.3, 6),
    # the second step's x is written in the block: it is read only once
    "written": (
        _run_plan(_det("a", (_X.negate(),), (_X,)), _det("b", (_X,)),
                  _det("c", (_Y,))),
        (("x", 0), ("y", 2)), 0.7 * 0.3, 4),
    # the third step wants the x the second wrote false: the block's check
    # cannot hold, and z is never reached
    "unmet": (
        _run_plan(_det("a", (_Y,)), _det("b", (), (_X,)),
                  _det("c", (_X.negate(),)), _det("d", (_Z,))),
        (("y", 0), ("z", 3)), 0.0, 2),
}


@pytest.mark.parametrize("name", sorted(_GUARDED))
def test_exact_walk_branches_only_past_steps_that_hold(name, monkeypatch):
    """A read is branched on only where the run steps before it hold, as
    in the node walk; the limit refuses the plan exactly when the node
    walk's branch count exceeds it."""
    plan, reads, mass, branches = _GUARDED[name]
    assert plan.replay.start.reads == reads
    want = _oracle_exact(plan, _XYZ)
    assert want == (pytest.approx(mass, abs=1e-15), branches)
    assert _exact_and_branches(plan, _XYZ) == want
    monkeypatch.setattr(simulator, "EXHAUSTIVE_WORLD_LIMIT", branches)
    assert exhaustive_success(plan, _XYZ) == want[0]
    monkeypatch.setattr(simulator, "EXHAUSTIVE_WORLD_LIMIT", branches - 1)
    with pytest.raises(ValueError, match=rf"^{branches} prior assignments "
                       rf"exceed the exhaustive limit \({branches - 1}\)$"):
        exhaustive_success(plan, _XYZ)


def test_prior_with_undeclared_parent_raises_malformed_plan():
    """A clause ``y`` whose parent ``x`` has no clause is rejected with
    the text documents get, by both checks called directly."""
    from riskplan.domain import GroundClause, Proposition
    y = Proposition("y", ())
    priors = (GroundClause("y", ("true", "false"), ("x",),
                           {("true", "true"): 0.9, ("false", "true"): 0.1,
                            ("true", "false"): 0.2,
                            ("false", "false"): 0.8}),)
    plan = ConditionalPlan(GoalLeaf("s1", frozenset(), (y,)),
                           (frozenset(),), ())
    text = "^clause for y depends on undeclared x$"
    with pytest.raises(MalformedPlan, match=text):
        exhaustive_success(plan, priors)
    with pytest.raises(MalformedPlan, match=text):
        estimate_success(plan, priors, trials=10)


def test_prior_missing_cpt_rows_raise_malformed_plan():
    """A clause ``y | x`` without the ``x=false`` rows is refused with the
    text a plan document gets, by the exact check and the estimate called
    directly, before any trial runs."""
    from riskplan.domain import GroundClause, Proposition
    x, y = Proposition("x", ()), Proposition("y", ())
    priors = (GroundClause("x", ("true", "false"), (),
                           {("true",): 0.5, ("false",): 0.5}),
              GroundClause("y", ("true", "false"), ("x",),
                           {("true", "true"): 0.9, ("false", "true"): 0.1}))
    plan = ConditionalPlan(GoalLeaf("s1", frozenset(), (x, y)),
                           (frozenset(),), ())
    text = r"^prior y: no row for \('true', 'false'\)$"
    with pytest.raises(MalformedPlan, match=text):
        exhaustive_success(plan, priors)
    for trials in (0, 10):
        with pytest.raises(MalformedPlan, match=text):
            estimate_success(plan, priors, trials=trials, seed=0)
    gdom, prob = load_texts(*ski_world())
    doc = json.loads(json.dumps(plan_document(plan_linear(gdom, prob), prob,
                                              "kbmc")))
    child = next(r for r in doc["priors"] if r["parents"])
    child["cpt"] = [row for row in child["cpt"] if row[0][1] == "true"]
    with pytest.raises(MalformedPlan, match=f"^prior {re.escape(child['var'])}"
                       r": no row for \('true', 'false'\)$"):
        simulate_document(doc, trials=10, seed=0)


def test_duplicate_prior_clauses_raise_malformed_plan():
    """Two clauses for one variable are refused with one text by the exact
    check, the estimate and a plan document, in either order."""
    from riskplan.domain import GroundClause
    a, b = (GroundClause("x", ("true", "false"), (),
                         {("true",): p, ("false",): 1 - p})
            for p in (0.2, 0.9))
    plan = _run_plan(goals=(_X,))
    text = "^two clauses govern variable x$"
    for priors in ((a, b), (b, a)):
        with pytest.raises(MalformedPlan, match=text):
            exhaustive_success(plan, priors)
        with pytest.raises(MalformedPlan, match=text):
            estimate_success(plan, priors, trials=10)
    gdom, prob = load_texts(*ski_world())
    doc = json.loads(json.dumps(plan_document(plan_linear(gdom, prob), prob,
                                              "kbmc")))
    doc["priors"].append(doc["priors"][0])
    with pytest.raises(MalformedPlan, match="^two clauses govern variable "
                       + doc["priors"][0]["var"] + "$"):
        simulate_document(doc, trials=10, seed=0)


def test_simulate_document_roundtrip():
    gdom, prob = load_texts(*ski_world())
    res = plan_linear(gdom, prob)
    doc = json.loads(json.dumps(plan_document(res, prob, "kbmc"),
                                sort_keys=True))
    report = simulate_document(doc, trials=2000, seed=0)
    assert report["analyticMass"] == pytest.approx(0.9091, abs=1e-9)
    assert report["violations"] == 0
    spread = max(3 * report["stderr"], 1e-9)
    assert abs(report["estimate"] - 0.9091) <= spread


def _relay_document(n: int) -> dict:
    """A valid plan document of ``n`` det hops: step ``sI`` turns (legI-1)
    into (legI), and the goal is (legN)."""
    steps = [{"name": f"hop{i}", "kind": "det", "pre": [f"(leg{i - 1})"],
              "add": [f"(leg{i})"], "del": [f"(leg{i - 1})"], "id": f"s{i}"}
             for i in range(1, n + 1)]
    node = {"type": "goal", "step": "g", "context": [],
            "goals": [f"(leg{n})"]}
    for i in range(n, 0, -1):
        node = {"type": "action", "step": f"s{i}", "next": node}
    return {"steps": sorted(steps, key=lambda r: r["id"]), "branches": node,
            "contexts": [[]], "uncoveredContexts": [], "achievedMass": 1.0,
            "init": {"true": ["(leg0)"],
                     "false": [f"(leg{i})" for i in range(1, n + 1)]},
            "priors": []}


def test_deep_documents_decode_without_recursion():
    """A chain of action steps far deeper than the interpreter's recursion
    limit is read, replayed and written back."""
    doc = _relay_document(1200)
    read = read_plan_document(doc)
    assert len(read.plan.steps_used()) == 1200
    assert exhaustive_success(read.plan, read.priors, read.known_true,
                              read.known_false) == 1.0
    report = simulate_document(doc, trials=50, seed=0)
    assert report["estimate"] == 1.0 and report["violations"] == 0
    written = read.plan.to_json_dict()
    # == on the nested records themselves would recurse as deep as the chain
    assert _chain(written.pop("branches")) == _chain(doc["branches"])
    assert written == {k: doc[k] for k in ("steps", "contexts",
                                           "uncoveredContexts")}


def _chain(rec) -> list[dict]:
    """The records of a chain of action records, each without its
    ``next``, then the record that ends the chain."""
    out = []
    while rec["type"] == "action":
        out.append({k: v for k, v in rec.items() if k != "next"})
        rec = rec["next"]
    return out + [rec]


# warm-up deletes (not (x)), so x is true when the hike runs: the planners
# must price the hike's CPT row for x=true, as execution does
DEL_NOT_DOMAIN = """
(operator warm (kind det) (add (ready)) (del (not (x))))
(operator hike (kind cond) (pre (ready)) (outcomes (summit (add (top))) (fail))
  (influences (x))
  (cpt ((summit true) 0.99) ((fail true) 0.01)
       ((summit false) 0.5) ((fail false) 0.5)))
"""
DEL_NOT_PROBLEM = """
(problem (init (not (x)) (not (ready)) (not (top))) (goal (top))
         (epsilon 0.4))
"""


@pytest.mark.parametrize("planner", [plan_linear, plan_nonlinear])
def test_delete_of_negation_priced_as_executed(planner):
    gdom, prob = load_texts(DEL_NOT_DOMAIN, DEL_NOT_PROBLEM)
    res = planner(gdom, prob)
    exact = exhaustive_success(res.conditional, prob.priors,
                               prob.known_true, prob.known_false)
    assert res.bound.achieved_mass == pytest.approx(exact, abs=1e-12)
    assert exact == pytest.approx(0.99, abs=1e-12)


def test_solves_leave_no_cyclic_garbage():
    gdom, prob = load_texts(*sussman())
    gc.collect()
    gc.disable()
    try:
        plan_nonlinear(gdom, prob)
        res = plan_linear(gdom, prob)
        estimate_success(res.conditional, prob.priors, prob.known_true,
                         prob.known_false, trials=200, seed=0)
        exhaustive_success(res.conditional, prob.priors, prob.known_true,
                           prob.known_false)
        res.conditional.steps_used()
        simulate_document(plan_document(res, prob, "kbmc"), trials=200)
    finally:
        garbage = gc.collect()
        gc.enable()
    assert garbage < 100


def test_cyclic_document_priors_rejected():
    gdom, prob = load_texts(*ski_world())
    doc = plan_document(plan_linear(gdom, prob), prob, "kbmc")
    by_var = {r["var"]: r for r in doc["priors"]}
    by_var["blizzard"]["parents"] = ["clear(b,snowbird)"]
    with pytest.raises(MalformedPlan, match="^clause set is cyclic: "):
        simulate_document(doc, trials=10, seed=0)


# ``alpha`` sorts before ``zeta`` but depends on it
ALPHA = ("""
(operator see-alpha (kind obs) (observes (alpha))
  (outcomes (true (add (alpha))) (false (del (alpha)))))
(clause (head (zeta) (true false)) (cpt ((true) 0.3) ((false) 0.7)))
(clause (head (alpha) (true false)) (body (zeta))
  (cpt ((true true) 0.9) ((false true) 0.1)
       ((true false) 0.2) ((false false) 0.8)))
""", "(problem (init) (goal (alpha)) (epsilon 0.6))")


def test_monte_carlo_streams_are_pinned():
    # figures of the simulator that sorted the priors on every trial:
    # trial t of seed s still draws the same world and outcomes
    for world, want in ((ALPHA, (1216, 1784)), (ski_world(), (2724, 276))):
        gdom, prob = load_texts(*world)
        res = plan_linear(gdom, prob)
        for priors in (prob.priors, sorted(prob.priors, key=lambda c: c.var)):
            r = estimate_success(res.conditional, priors, prob.known_true,
                                 prob.known_false, trials=3000, seed=11)
            assert (r["successes"], r["giveups"]) == want
    gdom, prob = load_texts(*ALPHA)
    worlds = Counter()
    for t in range(400):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([5, t], dtype=np.uint64)))
        w = sample_world(prob.priors, rng)
        worlds[w["zeta"], w["alpha"]] += 1
    assert worlds == {("false", "false"): 217, ("true", "false"): 15,
                      ("false", "true"): 57, ("true", "true"): 111}


def test_sample_world_takes_clauses_in_the_order_given():
    gdom, prob = load_texts(*ALPHA)
    assert [c.var for c in gdom.clauses] == ["zeta", "alpha"]
    rng = np.random.Generator(np.random.Philox(key=np.array([0, 0],
                                                            dtype=np.uint64)))
    with pytest.raises(MalformedPlan,
                       match="^prior clause alpha comes before its parent "
                             "zeta$"):
        sample_world(sorted(prob.priors, key=lambda c: c.var), rng)


def _paths(node, path=()):
    """Every place in a JSON tree, parents before children."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


_DELETE = object()


def test_mutated_documents_raise_malformed_plan():
    # a plan document is outside input: whatever is wrong with it, the
    # simulator runs it or raises MalformedPlan.  Every place in the ski
    # document is replaced by each bad value in turn, or deleted.
    gdom, prob = load_texts(*ski_world())
    text = json.dumps(plan_document(plan_linear(gdom, prob), prob, "kbmc"))
    paths = [p for p in _paths(json.loads(text)) if p]
    assert len(paths) > 150
    for path in paths:
        for value in (None, -1, 1.5, "x", [], {}, _DELETE):
            doc = json.loads(text)
            owner = doc
            for key in path[:-1]:
                owner = owner[key]
            if value is _DELETE:
                del owner[path[-1]]
            else:
                owner[path[-1]] = value
            try:
                simulate_document(doc, trials=20, seed=0)
            except MalformedPlan:
                pass


@pytest.mark.parametrize("seed", [0, 1, 2026, 2**32 - 1, 2**32, 2**63,
                                  2**64 - 1])
def test_vectorized_philox_equals_numpy_philox(seed):
    """Every row equals numpy's generator, in chunks of 1, 50 and
    ``_TRIAL_CHUNK`` rows, at trial indices with bit 63 set and up to
    2**64 - 1, for rows that end inside and on a four-word block."""
    for first, n in ((2**64 - 1, 1), (2**63 - 25, 50),
                     (2**64 - _TRIAL_CHUNK, _TRIAL_CHUNK)):
        for k in [*range(1, 10), 16]:
            rows = _philox_uniforms(seed, first, n, k)
            assert rows.shape == (n, k)
            for i, row in enumerate(rows):
                gen = np.random.Generator(np.random.Philox(
                    key=np.array([seed, first + i], dtype=np.uint64)))
                assert (row == gen.random(k)).all(), (seed, k, first + i)


@pytest.mark.parametrize("seed", [2**63, 2**64 - 1])
def test_philox_wraps_its_keys_without_a_warning(seed):
    """Both key words wrap mod 2**64 over the ten rounds here (the seed
    plus nine increments, and trial indices up to 2**64 - 1), which a
    numpy ``uint64`` scalar sum would report as an overflow."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _philox_uniforms(seed, 2**64 - 50, 50, 9)
    assert rows.shape == (50, 9)


def _same_report(conditional, priors, kt=(), kf=(), trials=300, seed=0):
    got = estimate_success(conditional, priors, kt, kf, trials, seed)
    want = reference_estimate(conditional, priors, kt, kf, trials, seed)
    assert got == want
    return got


@pytest.mark.parametrize("name", sorted(WORLDS))
@pytest.mark.parametrize("planner", [plan_linear, plan_nonlinear])
def test_estimate_equals_reference_estimator(name, planner):
    gdom, prob = load_texts(*WORLDS[name])
    res = planner(gdom, prob)
    for seed in (0, 7, 2**64 - 1):
        _same_report(res.conditional, prob.priors, prob.known_true,
                     prob.known_false, seed=seed)


def test_estimate_equals_reference_on_generated_domains():
    for i in range(12):
        gdom, prob = load_texts(*solvable_domain(random.Random(9000 + i)))
        for planner in (plan_linear, plan_nonlinear):
            res = planner(gdom, prob, node_budget=10_000)
            _same_report(res.conditional, prob.priors, prob.known_true,
                         prob.known_false, trials=200, seed=i)
    # uniforms come in chunks of trials: cross two chunk boundaries
    gdom, prob = load_texts(*nroad_world(3))
    res = plan_nonlinear(gdom, prob)
    _same_report(res.conditional, prob.priors, prob.known_true,
                 prob.known_false, trials=2 * _TRIAL_CHUNK + 3, seed=5)


def test_each_trial_samples_its_own_stream(monkeypatch):
    """Trial t of seed s uses the world ``sample_world`` draws from Philox
    keyed (s, t), also past the first chunk of trials.  The worlds are
    recorded as ``sample_world`` makes them, one per class as each class
    first runs: each trial's class holds the world of the trial's own
    stream, and no two classes hold one world."""
    gdom, prob = load_texts(*nroad_world(3))
    res = plan_nonlinear(gdom, prob)
    assert res.conditional.replay.chance_depth == 0
    tables, chunks, worlds = [], [], []
    add = simulator._Classes.add

    def recorded(self, u):
        slots = add(self, u)
        tables.append(self)
        chunks.append(slots)
        return slots

    def sampled(priors, rng):
        worlds.append(sample_world(priors, rng))
        return dict(worlds[-1])

    monkeypatch.setattr(simulator._Classes, "add", recorded)
    monkeypatch.setattr(simulator, "sample_world", sampled)
    trials = 2 * _TRIAL_CHUNK + 3
    estimate_success(res.conditional, prob.priors, prob.known_true,
                     prob.known_false, trials=trials, seed=5)
    assert len(chunks) == 3 and len({id(t) for t in tables}) == 1
    assert len(worlds) == len(tables[0].counts)
    assert len({tuple(sorted(w.items())) for w in worlds}) == len(worlds)
    slots = np.concatenate(chunks).tolist()
    assert len(slots) == trials
    for t, s in enumerate(slots):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([5, t], dtype=np.uint64)))
        assert worlds[s] == sample_world(prob.priors, rng), t


def test_class_picks_are_the_sampler_picks():
    """The picks that group trials into classes are the outcomes
    ``sample_world`` draws from the same uniforms, for clauses of up to
    three parents and three outcomes, with uniforms on the cuts too."""
    from riskplan.domain import GroundClause

    def clause(var, space, parents=()):
        # a different row for every parent assignment
        tails = itertools.product(*[by_var[p].space for p in parents])
        cpt = {}
        for i, tail in enumerate(tails):
            weights = [1 + (i + j) % 4 for j in range(len(space))]
            for o, w in zip(space, weights):
                cpt[(o,) + tail] = w / sum(weights)
        by_var[var] = GroundClause(var, space, parents, cpt)
        return by_var[var]

    by_var = {}
    priors = [clause("a", ("a0", "a1")), clause("b", ("b0", "b1", "b2")),
              clause("c", ("c0", "c1", "c2"), ("b", "a")),
              clause("d", ("t", "f"), ("c", "a", "b"))]
    u = np.random.default_rng(0).random((600, 4))
    cuts = sorted({x for c in priors for row in c.cuts.values() for x in row})
    u[:len(cuts)] = np.array(cuts)[:, None]
    picks = simulator._prior_picks(simulator._cut_tables(priors), u)
    for row, got in zip(u.tolist(), picks.tolist()):
        source = simulator._Draws()
        source.random = iter(row).__next__
        world = sample_world(priors, source)
        assert [c.space[i] for c, i in zip(priors, got)] == \
            [world[c.var] for c in priors], row


def test_trial_classes_are_the_distinct_prior_picks():
    """Two trials share a class exactly when they picked the same outcome
    for every clause, with more clauses than one table of codes holds."""
    rng = np.random.default_rng(3)
    radices = [3] * 30 + [2] * 30  # 3**30 * 2**30 > 2**63
    base = np.stack([rng.integers(0, k, size=40) for k in radices], axis=1)
    picks = base[rng.integers(0, 40, size=3000)]
    members, inverse = simulator._class_of(picks, radices)
    rows = [tuple(r) for r in picks.tolist()]
    assert len({rows[m] for m in members.tolist()}) == len(members) == \
        len(set(rows))
    for t, r in enumerate(rows):
        assert rows[members[inverse[t]]] == r, t


def test_estimate_equals_reference_on_wide_and_narrow_clauses():
    """Class tables read clauses of one and of three outcomes, and a
    clause with two parents, given in no dependency order."""
    from riskplan.domain import GroundClause, Proposition
    x = GroundClause("x", ("only",), (), {("only",): 1.0})
    y = GroundClause("y", ("true", "false", "maybe"), ("x",),
                     {("true", "only"): 0.2, ("false", "only"): 0.5,
                      ("maybe", "only"): 0.3})
    z = GroundClause("z", ("true", "false"), ("y", "x"), {
        (o, b, "only"): p if o == "true" else 1 - p
        for b, p in (("true", 0.25), ("false", 0.6), ("maybe", 0.9))
        for o in ("true", "false")})
    plan = ConditionalPlan(GoalLeaf("s1", frozenset(), (Proposition("z"),)),
                           (frozenset(),), ())
    r = _same_report(plan, (z, y, x), trials=3000, seed=3)
    assert 0 < r["successes"] < 3000


def test_estimate_equals_reference_past_an_int64_class_code():
    # 70 binary clauses: 2**70 worlds, more than an int64 code can number
    from riskplan.domain import GroundClause, Proposition
    priors = [GroundClause(f"v{i}", ("true", "false"), (),
                           {("true",): 0.97, ("false",): 0.03})
              for i in range(70)]
    plan = ConditionalPlan(GoalLeaf("s1", frozenset(), tuple(
        Proposition(f"v{i}") for i in range(0, 70, 10))), (frozenset(),), ())
    _same_report(plan, priors, trials=400, seed=2)


def _drop_outcome(node):
    """``node`` with all but one outcome of its first branch unplanned."""
    if isinstance(node, BranchNode):
        first = sorted(node.children)[0]
        return dataclasses.replace(node,
                                   children={first: node.children[first]})
    return dataclasses.replace(node, child=_drop_outcome(node.child))


def _more_goals(node, extra):
    """``node`` with the goals ``extra`` added to each goal leaf."""
    if isinstance(node, GoalLeaf):
        return dataclasses.replace(node, goals=node.goals + extra)
    if isinstance(node, BranchNode):
        return dataclasses.replace(node, children={
            o: _more_goals(c, extra) for o, c in node.children.items()})
    if isinstance(node, ActionNode):
        return dataclasses.replace(node, child=_more_goals(node.child, extra))
    return node


def test_estimate_equals_reference_when_trials_break():
    # unmet preconditions, some only after chance draws: the violation
    # count and the first five samples, in order
    det_prob, det = _planned("det_chain")
    ski_prob, ski = _planned("ski_world")
    for plan, priors, kf in ((det.conditional, (), det_prob.known_false),
                             (ski.conditional, ski_prob.priors, ())):
        r = _same_report(plan, priors, (), kf)
        assert r["violations"] > 5 and len(r["violationSamples"]) == 5
    # an outcome the plan never anticipated
    cut = dataclasses.replace(ski.conditional,
                              root=_drop_outcome(ski.conditional.root))
    r = _same_report(cut, ski_prob.priors, ski_prob.known_true,
                     ski_prob.known_false)
    assert any("never anticipated" in v for v in r["violationSamples"])
    # a goal leaf whose later goal fails where its first goal holds
    extra = (ski_prob.goals[0].negate(),)
    greedy = dataclasses.replace(
        ski.conditional, root=_more_goals(ski.conditional.root, extra))
    r = _same_report(greedy, ski_prob.priors, ski_prob.known_true,
                     ski_prob.known_false)
    assert r["successes"] == 0 and r["violations"] > 0
    assert exhaustive_success(greedy, ski_prob.priors, ski_prob.known_true,
                              ski_prob.known_false) == 0.0
    # a variable with no value: rain has no prior here
    walk_prob, walk = _planned("slippery_walk")
    r = _same_report(walk.conditional, (), walk_prob.known_true,
                     walk_prob.known_false)
    assert r["violations"] == 300
    # no trials: no draws, so no seed check either
    r = _same_report(ski.conditional, ski_prob.priors, trials=0, seed=-1)
    assert r["trials"] == 0 and r["estimate"] == 0.0


def _violated_everywhere(node, extra):
    """``node`` with the goals ``extra`` added to each goal leaf, and each
    give-up leaf a goal leaf of ``extra``."""
    if isinstance(node, GiveUpLeaf):
        return GoalLeaf("gave-up", node.context, extra)
    if isinstance(node, BranchNode):
        return dataclasses.replace(node, children={
            o: _violated_everywhere(c, extra)
            for o, c in node.children.items()})
    if isinstance(node, ActionNode):
        return dataclasses.replace(
            node, child=_violated_everywhere(node.child, extra))
    return _more_goals(node, extra)


def test_estimate_equals_reference_where_every_trial_violates():
    """Every trial misses a goal that nothing sets, and which other goals
    it misses depends on its prior world: the samples are the first
    violations in trial order, also past two chunk boundaries."""
    gdom, prob = load_texts(*nroad_world(3))
    res = plan_nonlinear(gdom, prob)
    extra = (domain.Proposition("blizzard"),
             domain.Proposition("clear", ("b", "r2")),
             domain.Proposition("unreached"))
    plan = dataclasses.replace(
        res.conditional, root=_violated_everywhere(res.conditional.root,
                                                   extra))
    assert plan.replay.chance_depth == 0
    trials = 2 * _TRIAL_CHUNK + 3
    r = _same_report(plan, prob.priors, prob.known_true, prob.known_false,
                     trials=trials, seed=8)
    assert r["successes"] == 0 and r["violations"] >= trials
    assert len(set(r["violationSamples"])) > 1


def test_estimate_equals_reference_where_a_known_fact_overrides_a_prior():
    gdom, prob = load_texts(*nroad_world(3))
    res = plan_nonlinear(gdom, prob)
    r0 = domain.Proposition("clear", ("b", "r0"))
    for kt, kf in ((prob.known_true | {r0}, prob.known_false),
                   (prob.known_true, prob.known_false | {r0})):
        _same_report(res.conditional, prob.priors, kt, kf, trials=500,
                     seed=4)


@pytest.mark.parametrize("name", ["press_button", "slippery_walk"])
def test_estimate_equals_reference_on_chance_plans_past_two_chunks(name):
    prob, res = _planned(name)
    assert res.conditional.replay.chance_depth > 0
    _same_report(res.conditional, prob.priors, prob.known_true,
                 prob.known_false, trials=2 * _TRIAL_CHUNK + 3, seed=6)


@pytest.mark.parametrize("name", ["det_chain", "ski_world",
                                  "slippery_walk"])
def test_estimate_equals_reference_on_no_and_one_trial(name):
    # a plan that draws nothing, one with priors only, one with a chance
    # step
    prob, res = _planned(name)
    for trials in (0, 1):
        for seed in (0, 9):
            _same_report(res.conditional, prob.priors, prob.known_true,
                         prob.known_false, trials=trials, seed=seed)


@pytest.mark.parametrize("name", ["det_chain", "ski_world",
                                  "slippery_walk"])
def test_seed_past_philox_keys_raises_as_the_reference_does(name):
    prob, res = _planned(name)
    for estimate in (estimate_success, reference_estimate):
        with pytest.raises(OverflowError):
            estimate(res.conditional, prob.priors, prob.known_true,
                     prob.known_false, trials=3, seed=2**64)


def test_each_trial_class_runs_once(monkeypatch):
    """A plan with no chance step runs once per distinct prior world, not
    once per trial; a plan with a chance step runs once per trial."""
    runs = Counter()

    def counted(name):
        def wrapper(*args, **kwargs):
            runs[name] += 1
            return fn(*args, **kwargs)
        fn = getattr(simulator, name)
        return wrapper

    for name in ("sample_world", "execute_plan"):
        monkeypatch.setattr(simulator, name, counted(name))
    gdom, prob = load_texts(*nroad_world(3))
    res = plan_nonlinear(gdom, prob)
    estimate_success(res.conditional, prob.priors, prob.known_true,
                     prob.known_false, trials=4000, seed=1)
    assert 0 < runs["execute_plan"] <= 2 ** len(prob.priors)
    assert runs["sample_world"] == runs["execute_plan"]
    runs.clear()
    prob, res = _planned("press_button")
    estimate_success(res.conditional, prob.priors, prob.known_true,
                     prob.known_false, trials=4000, seed=1)
    assert runs == {"sample_world": 4000, "execute_plan": 4000}


def test_estimate_rejects_seeds_outside_philox_keys():
    prob, res = _planned("ski_world")
    for seed in (-1, 2**64):
        with pytest.raises(OverflowError):
            estimate_success(res.conditional, prob.priors, prob.known_true,
                             prob.known_false, trials=1, seed=seed)


def test_plans_that_draw_nothing_read_no_stream(monkeypatch):
    """det_chain has no prior and no chance step, so its trials build no
    uniforms; the report is still the reference's, for a plan that succeeds
    in every trial and for one that aborts in every trial, and its
    violation samples keep their order."""
    prob, res = _planned("det_chain")

    def no_stream(*args):
        raise AssertionError("a plan that draws nothing read the stream")

    monkeypatch.setattr(simulator, "_philox_uniforms", no_stream)
    ok = _same_report(res.conditional, prob.priors, prob.known_true,
                      prob.known_false, trials=2 * _TRIAL_CHUNK + 3, seed=3)
    assert ok["successes"] == ok["trials"]
    broken = _same_report(res.conditional, (), (), prob.known_false, seed=3)
    assert broken["successes"] == 0
    assert broken["violations"] > 5 and len(broken["violationSamples"]) == 5


def test_plans_that_draw_nothing_still_check_the_seed():
    prob, res = _planned("det_chain")
    for seed in (-1, 2**64):
        with pytest.raises(OverflowError):
            estimate_success(res.conditional, prob.priors, prob.known_true,
                             prob.known_false, trials=1, seed=seed)
    # no trials: no seed check, as for a plan that draws
    r = estimate_success(res.conditional, prob.priors, prob.known_true,
                         prob.known_false, trials=0, seed=-1)
    assert r["trials"] == 0 and r["estimate"] == 0.0


def _literal_texts(doc) -> list[str]:
    """Every literal text in the steps and goal leaves of a plan document."""
    texts = []
    for rec in doc["steps"]:
        for key in ("pre", "add", "del"):
            texts += rec.get(key, ())
        for eff in rec.get("outcomes", {}).values():
            texts += eff["add"] + eff["del"]
    stack = [doc["branches"]]
    while stack:
        node = stack.pop()
        texts += node.get("goals", ())
        stack += node.get("children", {}).values()
        stack += [node["next"]] if "next" in node else []
    return texts


@pytest.mark.parametrize("name", sorted(WORLDS))
@pytest.mark.parametrize("planner", [plan_linear, plan_nonlinear])
def test_documents_read_each_literal_text_once(name, planner, monkeypatch):
    """Decoding a plan document runs the literal reader once per distinct
    text, and the ``init`` facts of a replay share the steps' table; the
    decoded plan has the planned plan's steps and leaves."""
    gdom, prob = load_texts(*WORLDS[name])
    res = planner(gdom, prob)
    doc = json.loads(json.dumps(plan_document(res, prob, "kbmc")))
    reads = Counter()
    read = domain.prop_from_text

    def counted(text):
        reads[text] += 1
        return read(text)

    monkeypatch.setattr(domain, "prop_from_text", counted)
    plan = read_plan_document(doc).plan
    texts = _literal_texts(doc)
    once = Counter(set(texts + doc["init"]["true"] + doc["init"]["false"]))
    assert reads == once
    assert len(texts) > len(set(texts))  # some text is repeated
    assert plan.steps_used() == res.conditional.steps_used()
    assert list(plan.leaves()) == list(res.conditional.leaves())
    reads.clear()
    simulate_document(doc, trials=20)
    assert reads == once


@pytest.mark.parametrize("bad", [[["(at b)"]], [{}], [None], [5], ["(at"],
                                 ["(at b) (at c)"], 7])
@pytest.mark.parametrize("side", ["true", "false"])
def test_bad_init_literals_raise_malformed_plan(bad, side):
    gdom, prob = load_texts(*ski_world())
    doc = json.loads(json.dumps(plan_document(plan_linear(gdom, prob), prob,
                                              "kbmc")))
    doc["init"][side] = bad
    with pytest.raises(MalformedPlan, match="^cannot decode plan document"):
        simulate_document(doc, trials=10, seed=0)


def _planned_document(name, planner):
    gdom, prob = load_texts(*WORLDS[name])
    return json.loads(json.dumps(plan_document(planner(gdom, prob), prob,
                                               "kbmc")))


def test_documents_decode_without_the_reader(monkeypatch):
    """Every literal of a document the package writes is read by the
    pattern alone; a literal spaced by hand still goes through the
    reader."""
    read = domain._read_forms
    docs = [_planned_document(name, planner) for name in sorted(WORLDS)
            for planner in (plan_linear, plan_nonlinear)]
    doc = _planned_document("ski_world", plan_linear)

    def refuse(text):
        raise AssertionError(f"the reader was asked for {text!r}")

    monkeypatch.setattr(domain, "_read_forms", refuse)
    for planned in docs:
        read_plan_document(planned)
        simulate_document(planned, trials=20)
    want = read_plan_document(doc).known_true
    asked = []

    def counted(text):
        asked.append(text)
        return read(text)

    monkeypatch.setattr(domain, "_read_forms", counted)
    doc["init"]["true"] = ["( at  b )" if s == "(at b)" else s
                           for s in doc["init"]["true"]]
    assert read_plan_document(doc).known_true == want
    assert asked == ["( at  b )"]


def test_simulate_document_checks_its_priors_once(monkeypatch):
    """A replay of a document runs ``complete_clauses`` once, and bad
    document priors still raise the texts they raised when it ran twice."""
    from riskplan import conditional
    calls = []
    check = domain.complete_clauses

    def counted(clauses, error):
        calls.append(len(clauses))
        return check(clauses, error)

    for module in (conditional, simulator):
        monkeypatch.setattr(module, "complete_clauses", counted)
    for name in sorted(WORLDS):
        doc = _planned_document(name, plan_linear)
        calls.clear()
        simulate_document(doc, trials=20)
        assert calls == [len(doc["priors"])]
    doc = _planned_document("ski_world", plan_linear)
    assert doc["priors"]
    doc["priors"][0]["cpt"][0][1] = None
    with pytest.raises(MalformedPlan, match=r"^cannot decode plan document: "
                       "'<=' not supported between instances of 'float' and "
                       "'NoneType'$"):
        simulate_document(doc, trials=10)
    doc["priors"][0]["cpt"][0][1] = 1.5
    with pytest.raises(MalformedPlan, match=r"^prior blizzard: probability "
                       r"1\.5 out of range$"):
        simulate_document(doc, trials=10)
    with pytest.raises(ValueError, match="trials must be at least 0"):
        simulate_document(_planned_document("ski_world", plan_linear),
                          trials=-3)


# ---------------------------------------------------------------------------
# The node-walking replay that ``execute_plan`` and ``sample_world`` ran
# before plans were compiled to replay programs and clauses to cut rows:
# every isinstance dispatch, precondition loop and clamped pick as it was.
# The compiled replay must return equal results.


def _oracle_sums(table, outcomes, tail):
    """The running sums of ``table[(o,) + tail]`` over ``outcomes``, or
    None when some outcome lacks a row."""
    acc, sums = 0.0, []
    for o in outcomes:
        p = table.get((o,) + tail)
        if p is None:
            return None
        acc += p
        sums.append(acc)
    return sums


def _oracle_pick(sums, u) -> int:
    return min(bisect.bisect_right(sums, u), len(sums) - 1)


def _oracle_sample_world(priors, rng):
    world = {}
    for c in priors:
        try:
            tail = tuple(world[p] for p in c.parents)
        except KeyError as e:
            raise MalformedPlan(f"prior clause {c.var} comes before its "
                                f"parent {e.args[0]}") from None
        sums = _oracle_sums(c.cpt, c.space, tail)
        if sums is None:
            raise KeyError(tail)
        world[c.var] = c.space[_oracle_pick(sums, rng.random())]
    return world


def _oracle_thresholds(op, values):
    if op.cpt is not None:
        return _oracle_sums(op.cpt, op.outcomes, tuple(
            values.get(v, "") for v in op.influences))
    if op.simple_distribution:
        return _oracle_sums({(o,): p for o, p in
                             op.simple_distribution.items()},
                            op.outcomes, ())
    return None


def _oracle_holds(values, prop):
    var, want = domain.literal_value(prop)
    return values.get(var) == want


def _oracle_aborted(text, outcomes):
    return TrialResult(False, "aborted", (text,), tuple(outcomes))


def _oracle_execute_plan(conditional, world, known_true=(), known_false=(),
                         rng=None):
    values = simulator._init_values(world, known_true, known_false)
    outcomes = []
    node = conditional.root
    while True:
        if isinstance(node, (ActionNode, BranchNode)):
            op = node.op
            for var, want in op.precondition_values:
                if values.get(var) != want:
                    return TrialResult(False, "aborted", tuple(
                        f"step {node.step_id} ({op.name}) requires {pre}"
                        for pre in op.preconditions
                        if not _oracle_holds(values, pre)), tuple(outcomes))
        if isinstance(node, ActionNode):
            values.update(node.op.effect_values(None))
            node = node.child
        elif isinstance(node, BranchNode):
            op = node.op
            if op.kind == "obs":
                got = values.get(op.observes)
                if got is None:
                    return _oracle_aborted(
                        f"step {node.step_id} observes {op.observes}, "
                        "which has no value", outcomes)
            else:
                sums = _oracle_thresholds(op, values)
                if sums is None:
                    return _oracle_aborted(
                        f"step {node.step_id} ({op.name}) has no "
                        "distribution for the current state", outcomes)
                if rng is None:
                    raise ValueError("conditional steps need an rng")
                got = op.outcomes[_oracle_pick(sums, rng.random())]
            outcomes.append((node.step_id, got))
            values.update(op.effect_values(got))
            nxt = node.children.get(got)
            if nxt is None:
                return _oracle_aborted(
                    f"step {node.step_id} came out {got!r}, which the plan "
                    "never anticipated", outcomes)
            node = nxt
        elif isinstance(node, GoalLeaf):
            if all(values.get(v) == want
                   for v, want in domain.literal_values(node.goals)):
                return TrialResult(True, "goal", (), tuple(outcomes))
            return TrialResult(False, "goal", tuple(
                f"goal {g} does not hold at the end"
                for g in node.goals if not _oracle_holds(values, g)),
                tuple(outcomes))
        elif isinstance(node, GiveUpLeaf):
            return TrialResult(False, "giveup", (), tuple(outcomes))
        else:
            raise MalformedPlan(f"unknown node {node!r}")


def _philox(seed, t):
    return np.random.Generator(np.random.Philox(
        key=np.array([seed, t], dtype=np.uint64)))


def _assert_replays_like_oracle(conditional, priors=(), kt=(), kf=(),
                                trials=60, seed=0):
    """Trials 0.. of ``seed`` sample the oracle's worlds and end with the
    oracle's results; returns the results."""
    priors = domain.ordered_clauses(priors, MalformedPlan)
    results = []
    for t in range(trials):
        ours, theirs = _philox(seed, t), _philox(seed, t)
        world = sample_world(priors, ours)
        assert world == _oracle_sample_world(priors, theirs), t
        r = execute_plan(conditional, world, kt, kf, ours)
        assert r == _oracle_execute_plan(conditional, world, kt, kf,
                                         theirs), t
        assert ours.random() == theirs.random()  # as many draws taken
        results.append(r)
    return results


@pytest.mark.parametrize("name", sorted(WORLDS))
@pytest.mark.parametrize("planner", [plan_linear, plan_nonlinear])
def test_replay_equals_node_walk_on_worlds(name, planner):
    gdom, prob = load_texts(*WORLDS[name])
    plan = planner(gdom, prob).conditional
    args = (prob.priors, prob.known_true, prob.known_false)
    _assert_replays_like_oracle(plan, *args)
    if any(isinstance(n, BranchNode) for n in _nodes(plan.root)):
        cut = dataclasses.replace(plan, root=_drop_outcome(plan.root))
        results = _assert_replays_like_oracle(cut, *args)
        assert any("never anticipated" in v for r in results
                   for v in r.violations)
    # a goal that does not hold where the plan's goals do
    extra = (prob.goals[0].negate(),)
    greedy = dataclasses.replace(plan, root=_more_goals(plan.root, extra))
    results = _assert_replays_like_oracle(greedy, *args)
    assert any(r.leaf == "goal" and r.violations for r in results)


def _nodes(node):
    yield node
    if isinstance(node, ActionNode):
        yield from _nodes(node.child)
    elif isinstance(node, BranchNode):
        for child in node.children.values():
            yield from _nodes(child)


def test_replay_equals_node_walk_on_generated_domains():
    for i in range(12):
        gdom, prob = load_texts(*solvable_domain(random.Random(9000 + i)))
        for planner in (plan_linear, plan_nonlinear):
            plan = planner(gdom, prob, node_budget=10_000).conditional
            _assert_replays_like_oracle(plan, prob.priors, prob.known_true,
                                        prob.known_false, trials=40, seed=i)


def test_replay_equals_node_walk_where_trials_break():
    det_prob, det = _planned("det_chain")
    results = _assert_replays_like_oracle(det.conditional, (), (),
                                          det_prob.known_false)
    assert all("requires" in r.violations[0] for r in results)
    ski_prob, ski = _planned("ski_world")
    kt, kf = ski_prob.known_true, ski_prob.known_false
    blocked = {"blizzard": "true", "clear(b,snowbird)": "false",
               "clear(c,parkcity)": "false"}
    assert execute_plan(ski.conditional, blocked, kt, kf) == \
        _oracle_execute_plan(ski.conditional, blocked, kt, kf) == \
        TrialResult(False, "giveup", (), (("s3", "false"),))
    # the observed variable has no value: rain has no prior here
    walk_prob, walk = _planned("slippery_walk")
    results = _assert_replays_like_oracle(walk.conditional, (),
                                          walk_prob.known_true,
                                          walk_prob.known_false)
    assert all(r.leaf == "aborted" for r in results)
    x = domain.Proposition("x", ())
    gamble = domain.GroundOperator(
        "gamble", "cond", outcomes=("win", "lose"), influences=("x",),
        cpt={("win", "true"): 0.5, ("lose", "true"): 0.5})
    look = domain.GroundOperator(
        "look", "obs", outcomes=("true", "false"), observes="x",
        outcome_adds={"true": (x,)}, outcome_dels={"false": (x,)})
    win = GoalLeaf("s9", frozenset(), ())
    # no CPT row for x=false, nor for x unset
    plan = ConditionalPlan(BranchNode("s1", gamble, "s1", {"win": win}),
                           (frozenset(),), ())
    for kt, kf in (((), ()), ((), (x,)), ((x,), ())):
        _assert_replays_like_oracle(plan, (), kt, kf, trials=20)
    # an observation with no branch for the value it reads
    plan = ConditionalPlan(BranchNode("s1", look, "s1", {"true": win}),
                           (frozenset(),), ())
    for kt, kf in (((), ()), ((), (x,)), ((x,), ())):
        _assert_replays_like_oracle(plan, (), kt, kf, trials=3)


def test_replay_raises_as_node_walk_does():
    prob, res = _planned("press_button")
    for execute in (execute_plan, _oracle_execute_plan):
        with pytest.raises(ValueError, match="conditional steps need an rng"):
            execute(res.conditional, {}, prob.known_true, prob.known_false)
    prob, res = _planned("det_chain")
    root = res.conditional.root
    odd = dataclasses.replace(res.conditional, root=dataclasses.replace(
        root, child="not a node"))
    for execute in (execute_plan, _oracle_execute_plan):
        with pytest.raises(MalformedPlan, match="unknown node 'not a node'"):
            execute(odd, {}, prob.known_true, prob.known_false)
    # the exact check and the estimate refuse the plan as a trial does
    for check in (exhaustive_success, estimate_success):
        with pytest.raises(MalformedPlan, match="unknown node 'not a node'"):
            check(odd, prob.priors, prob.known_true, prob.known_false)


def test_tree_holding_a_non_node_is_not_encoded():
    """A plan document refuses a non-node with the text its replay gives,
    rather than writing it as a give-up leaf."""
    prob, res = _planned("det_chain")
    odd = dataclasses.replace(res.conditional, root=dataclasses.replace(
        res.conditional.root, child="not a node"))
    with pytest.raises(MalformedPlan, match="^unknown node 'not a node'$"):
        odd.to_json_dict()
    with pytest.raises(MalformedPlan, match="^unknown node 'not a node'$"):
        plan_document(dataclasses.replace(res, conditional=odd), prob,
                      "kbmc")


def test_chance_step_with_no_planned_outcome_aborts():
    """A chance step whose every outcome is unplanned still takes its
    draw: the trials abort, as the reference's do, where uniforms sized
    by the planned outcomes alone would run out."""
    flip = domain.GroundOperator("flip", "cond", outcomes=("h", "t"),
                                 simple_distribution={"h": 0.5, "t": 0.5})
    plan = ConditionalPlan(BranchNode("s1", flip, "s1", {}), (), ())
    assert plan.replay.chance_depth == 1
    r = _same_report(plan, (), trials=40, seed=2)
    assert r["violations"] == 40
    _assert_replays_like_oracle(plan, trials=40)


class _Fixed:
    """A generator whose every draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


_EDGE_ROWS = {
    "exact": (0.25, 0.25, 0.5),  # sums 0.25, 0.5, 1.0
    "below": (0.1,) * 10,  # the last sum is 1 - 2**-53
    "short": (0.7, 0.2, 0.1),  # the last sum is 1 - 2**-53
    "above": (0.2, 0.4, 0.3, 0.1),  # the last sum is 1 + 2**-52
    "one": (1.0,),
}


@pytest.mark.parametrize("name", sorted(_EDGE_ROWS))
def test_cut_rows_pick_as_the_clamped_running_sums(name):
    probs = _EDGE_ROWS[name]
    space = tuple(f"o{i}" for i in range(len(probs)))
    table = {(o,): p for o, p in zip(space, probs)}
    sums = _oracle_sums(table, space, ())
    assert domain.cut_rows(domain.distribution_rows(table, space)) == {
        (): sums[:-1]}
    if name == "below" or name == "short":
        assert sums[-1] == 1 - 2 ** -53
    if name == "above":
        assert sums[-1] == 1 + 2 ** -52
    edges = {0.0, 1 - 2 ** -53, *sums, *(np.nextafter(s, 0) for s in sums)}
    clause = domain.GroundClause("v", space, (), table)
    flip = domain.GroundOperator("flip", "cond", outcomes=space,
                                 simple_distribution=dict(zip(space, probs)))
    plan = ConditionalPlan(BranchNode("s1", flip, "s1", {
        o: GoalLeaf(f"g{o}", frozenset(), ()) for o in space}), (), ())
    us = sorted(u for u in edges if 0.0 <= u < 1.0)
    for u in us:
        want = space[_oracle_pick(sums, u)]
        assert sample_world([clause], _Fixed(u)) == {"v": want}, u
        assert execute_plan(plan, {}, rng=_Fixed(u)).outcomes == \
            (("s1", want),), u
    # the picks that group trials into classes
    picks = simulator._prior_picks(simulator._cut_tables([clause]),
                                   np.array(us)[:, None])
    assert [space[i] for i in picks[:, 0]] == \
        [space[_oracle_pick(sums, u)] for u in us]
    # u on a running sum picks the outcome after it
    if name == "exact":
        assert sample_world([clause], _Fixed(0.25)) == {"v": "o1"}
        assert sample_world([clause], _Fixed(0.5)) == {"v": "o2"}


# an outcome of probability 0.0 between two others: its cut repeats the
# one before it, so a uniform on that cut picks the outcome after it
_ZERO_SPACE = ("a", "z", "b")
_ZERO_PROBS = {"a": 0.5, "z": 0.0, "b": 0.5}


def _zero_outcome_plan(kind):
    """A plan that branches on ``_ZERO_SPACE``: on a prior variable x by
    observing it, or on a chance step's draw.  Arm a reaches the goal,
    arm z gives up and arm b misses a goal, so a report counts every trial
    that ran z as a give-up."""
    if kind == "prior":
        op = domain.GroundOperator("look", "obs", outcomes=_ZERO_SPACE,
                                   observes="x")
        priors = [domain.GroundClause("x", _ZERO_SPACE, (), {
            (o,): p for o, p in _ZERO_PROBS.items()})]
    else:
        op = domain.GroundOperator("flip", "cond", outcomes=_ZERO_SPACE,
                                   simple_distribution=_ZERO_PROBS)
        priors = []
    root = BranchNode("s1", op, "x" if kind == "prior" else "s1", {
        "a": GoalLeaf("ga", frozenset(), ()),
        "z": GiveUpLeaf(frozenset()),
        "b": GoalLeaf("gb", frozenset(), (_DONE,))})
    return ConditionalPlan(root, (frozenset(),), ()), priors


@pytest.mark.parametrize("kind", ["prior", "cond"])
def test_an_outcome_of_probability_zero_is_never_taken(kind, monkeypatch):
    """The exact walk never branches into an outcome of probability 0.0,
    as the node walk does not, and Monte Carlo never draws one: not on
    Philox streams, as the reference estimator does not, and not on a
    uniform exactly on the repeated cut."""
    plan, priors = _zero_outcome_plan(kind)
    assert _exact_and_branches(plan, priors) == _oracle_exact(plan, priors)
    # the walks count the prior assignments they branch into
    assert _oracle_exact(plan, priors) == (0.5, 2 if kind == "prior" else 0)
    entered = []
    exact_mass = simulator._exact_mass

    def recorded(block, *args):
        entered.append(block.end)
        return exact_mass(block, *args)

    monkeypatch.setattr(simulator, "_exact_mass", recorded)
    assert exhaustive_success(plan, priors) == 0.5
    monkeypatch.undo()
    assert GiveUpLeaf(frozenset()) not in entered
    for seed in (0, 3):
        assert _same_report(plan, priors, seed=seed)["giveups"] == 0
    # uniforms on the repeated cut 0.5 and just below it
    edges = (0.5, np.nextafter(0.5, 0))
    want = ["b", "a"]
    for u, o in zip(edges, want):
        world = sample_world(priors, _Fixed(u))
        r = execute_plan(plan, world, rng=_Fixed(u))
        assert r == _oracle_execute_plan(plan, world, rng=_Fixed(u))
        assert (world.get("x") if kind == "prior" else r.outcomes[0][1]) == o
    if kind == "prior":
        picks = simulator._prior_picks(simulator._cut_tables(priors),
                                       np.array(edges)[:, None])
        assert [_ZERO_SPACE[i] for i in picks[:, 0]] == want
    monkeypatch.setattr(simulator, "_philox_uniforms",
                        lambda seed, first, n, k: np.array(
                            [[edges[(first + i) % 2]] * k for i in range(n)]))
    report = estimate_success(plan, priors, trials=2 * _TRIAL_CHUNK + 3)
    assert report["giveups"] == 0
    assert report["successes"] == _TRIAL_CHUNK + 1  # the odd trials


def test_negative_trials_are_refused():
    prob, res = _planned("ski_world")
    with pytest.raises(ValueError, match="trials must be at least 0"):
        estimate_success(res.conditional, prob.priors, prob.known_true,
                         prob.known_false, trials=-3)
    doc = plan_document(res, prob, "kbmc")
    with pytest.raises(ValueError, match="trials must be at least 0"):
        simulate_document(doc, trials=-3)
