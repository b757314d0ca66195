"""Execution harness: single trials, Monte Carlo, exhaustive enumeration."""

import gc
import json

import numpy as np
import pytest

from riskplan.errors import MalformedPlan
from riskplan.linear import plan_linear
from riskplan.nonlinear import plan_nonlinear
from riskplan.probmodel import plan_document
from riskplan.simulator import (EXHAUSTIVE_WORLD_LIMIT, estimate_success,
                                execute_plan, exhaustive_success,
                                sample_world, simulate_document)
from riskplan.worlds import (det_chain, load_texts, press_button, ski_world,
                             slippery_walk, sussman)

from .gen import exhaustive_check

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


def test_exhaustive_refuses_huge_joint():
    from riskplan.domain import GroundClause
    priors = tuple(
        GroundClause(f"v{i}", ("true", "false"), (),
                     {("true",): 0.5, ("false",): 0.5})
        for i in range(13))
    assert 2 ** 13 > EXHAUSTIVE_WORLD_LIMIT
    prob, res = _planned("det_chain")
    with pytest.raises(ValueError):
        exhaustive_success(res.conditional, priors)


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
    finally:
        garbage = gc.collect()
        gc.enable()
    assert garbage < 100


def test_cyclic_document_priors_rejected():
    gdom, prob = load_texts(*ski_world())
    doc = plan_document(plan_linear(gdom, prob), prob, "kbmc")
    by_var = {r["var"]: r for r in doc["priors"]}
    by_var["blizzard"]["parents"] = ["clear(b,snowbird)"]
    with pytest.raises(MalformedPlan, match="prior clauses are cyclic"):
        simulate_document(doc, trials=10, seed=0)
