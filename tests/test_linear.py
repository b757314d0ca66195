"""Tree-shaped best-first planner on the bundled worlds."""

import pytest

from riskplan.conditional import (ActionNode, BranchNode, GiveUpLeaf,
                                  GoalLeaf, Label)
from riskplan.errors import PlanningFailure
from riskplan.linear import plan_linear
from riskplan.plangraph import find_threats
from riskplan.worlds import (det_chain, load_texts, press_button, ski_world,
                             slippery_walk, sussman)

from .gen import exhaustive_check
from .test_probmodel import ARM_DOMAIN

CBS = "clear(b,snowbird)"
CCP = "clear(c,parkcity)"


def names(conditional):
    return sorted(op.name for op in conditional.steps_used().values())


def leaf_kinds(conditional):
    return sorted(type(l).__name__ for l in conditional.leaves())


def test_det_chain_mass_one():
    gdom, prob = load_texts(*det_chain(3))
    res = plan_linear(gdom, prob)
    assert res.bound.achieved_mass == 1.0
    assert names(res.conditional) == ["step-0", "step-1", "step-2"]
    node, seen = res.conditional.root, []
    while isinstance(node, ActionNode):
        seen.append(node.op.name)
        node = node.child
    assert seen == ["step-0", "step-1", "step-2"]
    assert isinstance(node, GoalLeaf)


def test_press_button_single_branch():
    gdom, prob = load_texts(*press_button())
    for model in ("simple", "kbmc"):
        res = plan_linear(gdom, prob, model=model)
        assert res.bound.achieved_mass == pytest.approx(0.9, abs=1e-12)
        assert res.conditional.uncovered != ()


def test_slippery_walk_acts_in_ignorance():
    gdom, prob = load_texts(*slippery_walk())
    res = plan_linear(gdom, prob, model="kbmc")
    # 0.3 * 0.6 + 0.7 * 0.99
    assert res.bound.achieved_mass == pytest.approx(0.873, abs=1e-9)
    assert any(l.kind == "ignorance" and l.payload == "rain"
               for l in res.graph.links)
    mass, violations = exhaustive_check(res.conditional, prob.priors,
                                        prob.known_true, prob.known_false)
    assert violations == 0
    assert mass == pytest.approx(res.bound.achieved_mass, abs=1e-9)


def test_influence_pinned_by_a_chance_outcome():
    """fly runs only under arm's ok outcome, which sets x, so its branch is
    priced at P(ok | x): 0.5 * 0.9 meets epsilon 0.6."""
    gdom, prob = load_texts(ARM_DOMAIN, "(problem (init (not (x)) "
                            "(not (done))) (goal (done)) (epsilon 0.6))")
    res = plan_linear(gdom, prob)
    assert names(res.conditional) == ["arm", "fly"]
    assert res.bound.achieved_mass == pytest.approx(0.45, abs=1e-12)
    mass, violations = exhaustive_check(res.conditional, prob.priors,
                                        prob.known_true, prob.known_false)
    assert violations == 0
    assert mass == pytest.approx(res.bound.achieved_mass, abs=1e-12)


def test_ski_default_epsilon_takes_one_road():
    gdom, prob = load_texts(*ski_world())
    res = plan_linear(gdom, prob, model="kbmc")  # epsilon 0.1
    assert res.bound.achieved_mass == pytest.approx(0.9091, abs=1e-9)
    root = res.conditional.root
    assert isinstance(root, BranchNode)
    assert root.op.name == "check-road-b-snowbird"
    assert root.source == CBS
    assert isinstance(root.children["false"], GiveUpLeaf)
    true_side = root.children["true"]
    assert isinstance(true_side, ActionNode)
    assert true_side.op.name == "drive-b-snowbird"
    assert isinstance(true_side.child, GoalLeaf)
    assert res.conditional.uncovered == (frozenset({Label(CBS, "false")}),)


def test_ski_tight_epsilon_covers_both_resorts():
    gdom, prob = load_texts(*ski_world())
    res = plan_linear(gdom, prob, model="kbmc", epsilon=0.085)
    assert res.bound.achieved_mass == pytest.approx(0.9189991, abs=1e-9)
    assert names(res.conditional) == [
        "check-road-b-snowbird", "check-road-c-parkcity",
        "drive-b-c", "drive-b-snowbird", "drive-c-parkcity"]
    assert leaf_kinds(res.conditional) == \
        ["GiveUpLeaf", "GoalLeaf", "GoalLeaf"]
    assert res.conditional.uncovered == (
        frozenset({Label(CBS, "false"), Label(CCP, "false")}),)


def test_ski_epsilon_one_plans_nothing():
    gdom, prob = load_texts(*ski_world())
    res = plan_linear(gdom, prob, epsilon=1.0)
    assert isinstance(res.conditional.root, GiveUpLeaf)
    assert res.stats["expanded"] == 0
    assert res.bound.accepted


def test_ski_epsilon_zero_is_unattainable():
    gdom, prob = load_texts(*ski_world())
    with pytest.raises(PlanningFailure) as e:
        plan_linear(gdom, prob, epsilon=0.0, node_budget=500)
    best = e.value.best_bound
    assert best is not None
    assert best.achieved_mass <= 0.9189991 + 1e-9
    assert "no plan reaches" in str(e.value)


def test_sussman_anomaly():
    gdom, prob = load_texts(*sussman())
    res = plan_linear(gdom, prob)
    assert res.bound.achieved_mass == 1.0
    mass, violations = exhaustive_check(res.conditional, prob.priors,
                                        prob.known_true, prob.known_false)
    assert (mass, violations) == (1.0, 0)
    # interleaving is required: three moves minimum
    assert len(res.conditional.steps_used()) >= 3


def test_accepted_plans_carry_no_threats():
    for world in (det_chain(3), ski_world(), slippery_walk()):
        gdom, prob = load_texts(*world)
        res = plan_linear(gdom, prob)
        assert find_threats(res.graph) == set()


def test_no_redundant_reobservation():
    gdom, prob = load_texts(*ski_world())
    res = plan_linear(gdom, prob, epsilon=0.085)
    ops = [op.name for op in res.conditional.steps_used().values()]
    assert ops.count("check-road-b-snowbird") == 1
    assert ops.count("check-road-c-parkcity") == 1


def test_trace_reports_expansions_and_acceptance():
    gdom, prob = load_texts(*ski_world())
    events = []
    plan_linear(gdom, prob, epsilon=0.085, trace=events.append)
    kinds = {e["event"] for e in events}
    assert "node-expanded" in kinds
    assert "branch-completed" in kinds
    ns = [e["n"] for e in events if e["event"] == "node-expanded"]
    assert ns == sorted(ns)


def test_document_masses_are_consistent():
    from riskplan.conditional import plan_document
    gdom, prob = load_texts(*ski_world())
    res = plan_linear(gdom, prob)
    doc = plan_document(res, prob, "kbmc")
    assert doc["achievedMass"] == res.bound.achieved_mass
    assert doc["epsilon"] == 0.1
    assert "elapsed" not in doc["stats"]
    assert {r["var"] for r in doc["priors"]} == {"blizzard", CBS, CCP}
