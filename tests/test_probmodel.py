"""Belief nets, exact inference, context masses, success bounds.

The headline numbers (0.9091 and friends) are checked three ways: a
hand-rolled enumeration local to this file, the package's enumeration
oracle, and variable elimination.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskplan.conditional import Label
from riskplan.domain import GroundClause, GroundOperator, prop_from_text
from riskplan.errors import (InconsistentLabels, LabelWithoutDistribution,
                             MissingCptRow, MissingInfluenceVariable,
                             ModelError, OutcomeSpaceMismatch,
                             OverlappingGoalContexts, UnknownVariable,
                             ZeroProbabilityContext)
from riskplan.plangraph import (Link, add_link, complete_goal_ids,
                                condition_step, dag_add_step,
                                extract_conditional_plan, make_root_plan,
                                tree_insert, uncovered_outcome_contexts)
from riskplan.probmodel import (BeliefNet, _joint_ve,
                                add_conditional_node,
                                build_initial_net,
                                conditional_outcome_probability,
                                context_probability, d_connected,
                                joint_by_enumeration, joint_probability,
                                net_for_plan,
                                select_goal_node, simple_context_probability,
                                success_bound)
from riskplan.simulator import (_chunk_trials, estimate_success,
                                exhaustive_success)
from riskplan.worlds import load_texts, ski_world

from .gen import (operator_named, random_evidence, random_net,
                  reference_estimate)
from .test_plangraph import cond, det, lit, problem

CBS = "clear(b,snowbird)"
CCP = "clear(c,parkcity)"


@pytest.fixture(scope="module")
def ski():
    gdom, prob = load_texts(*ski_world())
    return gdom, prob, build_initial_net(prob)


def _ski_hand_joint(**fix):
    """Local three-variable enumeration, sharing nothing with the package."""
    p_clear = {True: 0.1, False: 0.999}  # P(road clear | blizzard)
    total = 0.0
    for bliz in (True, False):
        for cbs in (True, False):
            for ccp in (True, False):
                if fix.get("blizzard", bliz) != bliz:
                    continue
                if fix.get("cbs", cbs) != cbs:
                    continue
                if fix.get("ccp", ccp) != ccp:
                    continue
                w = 0.1 if bliz else 0.9
                w *= p_clear[bliz] if cbs else 1 - p_clear[bliz]
                w *= p_clear[bliz] if ccp else 1 - p_clear[bliz]
                total += w
    return total


def test_frozen_ski_numbers_match_hand_enumeration():
    assert _ski_hand_joint(cbs=True) == pytest.approx(0.9091, abs=1e-12)
    assert _ski_hand_joint(cbs=False, ccp=True) == \
        pytest.approx(0.0098991, abs=1e-12)
    assert _ski_hand_joint(cbs=False) == pytest.approx(0.0909, abs=1e-12)


@pytest.mark.parametrize("joint", [joint_by_enumeration, joint_probability],
                         ids=["enumerate", "ve"])
def test_ski_joint_probabilities(ski, joint):
    _gdom, _prob, net = ski
    assert joint(net, [Label(CBS, "true")]) == \
        pytest.approx(0.9091, abs=1e-12)
    assert joint(net, [Label(CBS, "false"), Label(CCP, "true")]) == \
        pytest.approx(0.0098991, abs=1e-12)
    assert joint(net, []) == pytest.approx(1.0, abs=1e-12)


def test_ski_conditional_probability(ski):
    _gdom, _prob, net = ski
    got = conditional_outcome_probability(
        net, Label(CCP, "true"), [Label(CBS, "false")])
    assert got == pytest.approx(0.0098991 / 0.0909, abs=1e-12)
    assert got == pytest.approx(0.10890099, abs=1e-8)
    # a one-shot iterator as the context gives the same answer
    assert conditional_outcome_probability(
        net, Label(CCP, "true"), iter([Label(CBS, "false")])) == got


def test_zero_probability_context_raises():
    net = BeliefNet({"x": GroundClause("x", ("true", "false"), (),
                                       {("true",): 1.0, ("false",): 0.0}),
                     "y": GroundClause("y", ("true", "false"), (),
                                       {("true",): 0.5, ("false",): 0.5})})
    with pytest.raises(ZeroProbabilityContext):
        conditional_outcome_probability(net, Label("y", "true"),
                                        [Label("x", "false")])


def test_evidence_validation(ski):
    _gdom, _prob, net = ski
    with pytest.raises(UnknownVariable):
        joint_probability(net, [Label("nosuch", "true")])
    with pytest.raises(OutcomeSpaceMismatch):
        joint_probability(net, [Label(CBS, "sideways")])
    with pytest.raises(InconsistentLabels):
        joint_probability(net, [Label(CBS, "true"), Label(CBS, "false")])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_enumeration_and_ve_agree_on_random_nets(seed):
    rng = random.Random(seed)
    net = random_net(rng, max_vars=8)
    ev = random_evidence(rng, net)
    a = joint_by_enumeration(net, ev)
    b = joint_probability(net, ev)
    assert a == pytest.approx(b, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_memoized_joint_equals_uncached_elimination(seed):
    """A net remembers its answers; each must be the bit-for-bit result of
    elimination on a fresh copy of the net, whatever was asked before."""
    rng = random.Random(seed)
    net = random_net(rng, max_vars=8)
    pool = [random_evidence(rng, net) for _ in range(4)]
    for _ in range(12):
        labels = rng.choice(pool)
        labels = rng.sample(labels, len(labels))  # same evidence, any order
        fresh = BeliefNet(dict(net.variables))
        ev = {lab.source: lab.outcome for lab in labels}
        assert joint_probability(net, labels) == _joint_ve(fresh, ev)
    assert len(net._joints) <= len(pool)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_joint_over_no_evidence_is_one(seed):
    net = random_net(random.Random(seed), max_vars=8)
    assert joint_probability(net, []) == pytest.approx(1.0, abs=1e-12)
    assert joint_by_enumeration(net, []) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_marginals_sum_to_one(seed):
    rng = random.Random(seed)
    net = random_net(rng, max_vars=8)
    v = rng.choice(sorted(net.variables))
    total = sum(joint_probability(net, [Label(v, o)])
                for o in net.variables[v].space)
    assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# net construction


def test_build_initial_net_orders_parents_first(ski):
    _gdom, _prob, net = ski
    order = net.topological_order()
    assert order.index("blizzard") < order.index(CBS)
    assert set(net.variables) == {"blizzard", CBS, CCP}


def test_build_initial_net_refuses_what_the_exact_check_refuses():
    """Two clauses for one variable, or a clause whose parent has none,
    raise ModelError with ``ground``'s text: the last clause does not win,
    and no bare KeyError escapes."""
    x = [GroundClause("x", ("true", "false"), (),
                      {("true",): p, ("false",): 1 - p}) for p in (0.2, 0.9)]
    y = GroundClause("y", ("true", "false"), ("x",),
                     {("true", "true"): 0.9, ("false", "true"): 0.1,
                      ("true", "false"): 0.2, ("false", "false"): 0.8})
    for priors in (x, x[::-1], [y, *x]):
        with pytest.raises(ModelError,
                           match="^two clauses govern variable x$"):
            build_initial_net(problem().with_priors(priors))
    with pytest.raises(ModelError,
                       match="^clause for y depends on undeclared x$"):
        build_initial_net(problem().with_priors([y]))
    assert list(build_initial_net(problem().with_priors([y, x[0]]))
                .variables) == ["x", "y"]


def test_add_conditional_node_with_open_influence():
    net = BeliefNet({"x": GroundClause("x", ("true", "false"), (),
                                       {("true",): 0.3, ("false",): 0.7})})
    op = GroundOperator(
        name="walk", kind="cond", outcomes=("arrive", "slip"),
        influences=("x",),
        cpt={("arrive", "true"): 0.6, ("slip", "true"): 0.4,
             ("arrive", "false"): 0.99, ("slip", "false"): 0.01})
    net2 = add_conditional_node(net, "s2", op)
    assert net2.variables["s2"].parents == ("x",)
    assert joint_probability(net2, [Label("s2", "arrive")]) == \
        pytest.approx(0.3 * 0.6 + 0.7 * 0.99, abs=1e-12)


def test_add_conditional_node_known_influence_selects_rows():
    net = BeliefNet({})
    op = GroundOperator(
        name="walk", kind="cond", outcomes=("arrive", "slip"),
        influences=("x",),
        cpt={("arrive", "true"): 0.6, ("slip", "true"): 0.4,
             ("arrive", "false"): 0.99, ("slip", "false"): 0.01})
    net2 = add_conditional_node(net, "s2", op, known_values={"x": "false"})
    assert net2.variables["s2"].parents == ()
    assert joint_probability(net2, [Label("s2", "arrive")]) == \
        pytest.approx(0.99, abs=1e-12)


@pytest.mark.parametrize("known", [{}, {"x": "false"}])
def test_conditional_nodes_read_operator_rows_and_cut_none(known):
    """A net node's table is the operator's rows, restricted to the known
    influences; no cut row is computed for it, by the net or by
    inference."""
    x = GroundClause("x", ("true", "false"), (),
                     {("true",): 0.3, ("false",): 0.7})
    walk = GroundOperator(
        name="walk", kind="cond", outcomes=("arrive", "slip"),
        influences=("x",),
        cpt={("arrive", "true"): 0.6, ("slip", "true"): 0.4,
             ("arrive", "false"): 0.99, ("slip", "false"): 0.01})
    flip = GroundOperator(name="flip", kind="cond", outcomes=("h", "t"),
                          simple_distribution={"t": 0.25, "h": 0.75})
    net = add_conditional_node(BeliefNet({} if known else {"x": x}), "s2",
                               walk, known)
    net = add_conditional_node(net, "s3", flip, known)
    want = {("arrive",): 0.99, ("slip",): 0.01} if known \
        else walk.cpt
    assert net.variables["s2"].cpt == want
    assert net.variables["s3"].cpt == {("h",): 0.75, ("t",): 0.25}
    joint_probability(net, [Label("s2", "arrive"), Label("s3", "h")])
    assert [v for v, c in net.variables.items() if c._cuts is not None] == []


def test_add_conditional_node_missing_influence():
    op = GroundOperator(name="walk", kind="cond", outcomes=("a", "b"),
                        influences=("ghost",),
                        cpt={("a", "true"): 0.5, ("b", "true"): 0.5})
    with pytest.raises(MissingInfluenceVariable):
        add_conditional_node(BeliefNet({}), "s2", op)


def test_add_conditional_node_incomplete_cpt():
    net = BeliefNet({"x": GroundClause("x", ("true", "false"), (),
                                       {("true",): 0.5, ("false",): 0.5})})
    op = GroundOperator(name="w", kind="cond", outcomes=("a", "b"),
                        influences=("x",),
                        cpt={("a", "true"): 0.5, ("b", "true"): 0.5})
    with pytest.raises(MissingCptRow):
        add_conditional_node(net, "s2", op)


def test_joint_of_a_net_whose_clause_lacks_a_row_raises():
    """A hand-built clause with no row for x=false: elimination, whose
    factor reads the clause's rows, names the row enumeration names."""
    tf = ("true", "false")
    net = BeliefNet({
        "x": GroundClause("x", tf, (), {("true",): 0.5, ("false",): 0.5}),
        "y": GroundClause("y", tf, ("x",), {("true", "true"): 0.4,
                                            ("false", "true"): 0.6})})
    for joint in (joint_probability, joint_by_enumeration):
        with pytest.raises(MissingCptRow,
                           match=r"^y: no row for \('true', 'false'\)$"):
            joint(net, [Label("y", "true")])


def test_enumeration_refuses_a_net_lacking_a_cell_it_need_not_visit():
    """y = true never reaches the cell (false, false) of y's table, which
    the net lacks; both joints refuse the net all the same."""
    tf = ("true", "false")
    net = BeliefNet({
        "x": GroundClause("x", tf, (), {("true",): 0.5, ("false",): 0.5}),
        "y": GroundClause("y", tf, ("x",), {("true", "true"): 0.4,
                                            ("false", "true"): 0.6,
                                            ("true", "false"): 0.7})})
    with pytest.raises(MissingCptRow,
                       match=r"^y: no row for \('false', 'false'\)$"):
        joint_by_enumeration(net, [Label("y", "true")])
    with pytest.raises(MissingCptRow,
                       match=r"^y: no row for \('true', 'false'\)$"):
        joint_probability(net, [Label("y", "true")])


# ---------------------------------------------------------------------------
# d-connection


def test_d_connection_fork_and_blocking(ski):
    _gdom, _prob, net = ski
    assert d_connected(net, CBS, CCP)  # common cause open
    assert not d_connected(net, CBS, CCP, observed=["blizzard"])
    assert d_connected(net, "blizzard", CBS)


def test_d_connection_collider():
    half = {("true",): 0.5, ("false",): 0.5}
    tf = ("true", "false")
    collider_cpt = {(c,) + pair: 0.5
                    for c in tf
                    for pair in itertools.product(tf, repeat=2)}
    net = BeliefNet({"a": GroundClause("a", tf, (), half),
                     "b": GroundClause("b", tf, (), half)})
    net = net.with_variable(GroundClause("c", tf, ("a", "b"), collider_cpt))
    assert not d_connected(net, "a", "b")
    assert d_connected(net, "a", "b", observed=["c"])


# ---------------------------------------------------------------------------
# context masses


def test_simple_context_probability_multiplies():
    plan = make_root_plan(problem(), "dag")
    flip = cond("flip", {"h": (["(p)"], ()), "t": ((), ())},
                dist={"h": 0.7, "t": 0.3})
    plan, c1 = dag_add_step(plan, flip, (), source=f"s{plan.next_index}")
    plan, c2 = dag_add_step(plan, flip, (), source=f"s{plan.next_index}")
    ctx = [Label(c1, "h"), Label(c2, "t")]
    assert simple_context_probability(plan, ctx) == \
        pytest.approx(0.21, abs=1e-12)
    assert context_probability(plan, ctx, "simple") == \
        pytest.approx(0.21, abs=1e-12)


def test_simple_model_requires_distribution():
    plan = make_root_plan(problem(), "dag")
    mute = GroundOperator(name="mute", kind="cond", outcomes=("a", "b"))
    plan, sid = dag_add_step(plan, mute, (), source=f"s{plan.next_index}")
    with pytest.raises(LabelWithoutDistribution):
        simple_context_probability(plan, [Label(sid, "a")])


def test_inconsistent_context_has_zero_mass():
    plan = make_root_plan(problem(), "dag")
    flip = cond("flip", {"h": ((), ()), "t": ((), ())})
    plan, c1 = dag_add_step(plan, flip, (), source=f"s{plan.next_index}")
    bad = [Label(c1, "h"), Label(c1, "t")]
    assert context_probability(plan, bad, "simple") == 0.0


def test_net_for_plan_uses_deterministic_establishment():
    """A det step that pins an influence before the chancy step runs should
    row-select the CPT instead of drawing an arc."""
    gdom, prob = load_texts(
        """
        (operator make-rain (kind det) (add (x)))
        (operator walk (kind cond)
          (outcomes (arrive (add (g))) (slip))
          (influences (x))
          (cpt ((arrive true) 0.6) ((slip true) 0.4)
               ((arrive false) 0.99) ((slip false) 0.01)))
        """,
        "(problem (init (not (x)) (not (g))) (goal (g)) (epsilon 1))")
    plan = make_root_plan(prob, "dag")
    plan, mid = dag_add_step(plan, operator_named(gdom, "make-rain"), ())
    plan, wid = dag_add_step(plan, operator_named(gdom, "walk"), (),
                             source=f"s{plan.next_index}")
    plan = add_link(plan, Link("ordering", mid, wid))
    net = net_for_plan(plan, prob)
    assert net.variables[wid].parents == ()
    assert joint_probability(net, [Label(wid, "arrive")]) == \
        pytest.approx(0.6, abs=1e-12)
    # without the establisher ordered first, x stays known-false from init
    plan2 = make_root_plan(prob, "dag")
    plan2, wid2 = dag_add_step(plan2, operator_named(gdom, "walk"), (),
                               source=f"s{plan2.next_index}")
    net2 = net_for_plan(plan2, prob)
    assert joint_probability(net2, [Label(wid2, "arrive")]) == \
        pytest.approx(0.99, abs=1e-12)


# fly's odds hang on x; setx and unsetx pin x before fly runs
_PIN_DOMAIN = """
(operator fly (kind cond) (outcomes (ok (add (done))) (fail))
  (influences (x))
  (cpt ((ok true) 0.9) ((fail true) 0.1) ((ok false) 0.1) ((fail false) 0.9)))
(operator setx (kind det) (add (x)))
(operator unsetx (kind det) (del (x)))
"""
_PIN_PROBLEM = "(problem (init (not (x)) (not (done))) (goal (done)) " \
    "(epsilon 1))"
# arm's ok outcome sets x, which fly needs
ARM_DOMAIN = """
(operator fly (kind cond) (pre (x)) (outcomes (ok (add (done))) (fail))
  (influences (x))
  (cpt ((ok true) 0.9) ((fail true) 0.1) ((ok false) 0.2) ((fail false) 0.8)))
(operator arm (kind cond)
  (outcomes (ok (prob 0.5) (add (x))) (fail (prob 0.5))))
"""


def _analytic_and_exact(plan, prob):
    """The plan's achieved mass under its net, and the exact success mass
    of the branches it completes."""
    bound = success_bound(plan, net_for_plan(plan, prob), prob.epsilon)
    conditional = extract_conditional_plan(plan, complete_goal_ids(plan))
    return bound.achieved_mass, exhaustive_success(
        conditional, prob.priors, prob.known_true, prob.known_false)


def _tree_fly(gdom, prob):
    """A tree plan start -> fly, fly's ok outcome supporting the goal and
    its influence on x settled."""
    plan = make_root_plan(prob, "tree")
    plan, fly, _leaves = tree_insert(plan, operator_named(gdom, "fly"),
                                     "start", "s1", "ok", source="s2",
                                     influences=("x",))
    plan = add_link(plan, Link("causal", fly, "s1", lit("(done)")))
    return plan.without_open_influence((fly, "x")), fly


def _tree_pin_plan():
    """start -> setx -> unsetx -> fly: x is false when fly runs, although
    unsetx (s4) comes before setx (s5) in step order."""
    gdom, prob = load_texts(_PIN_DOMAIN, _PIN_PROBLEM)
    plan, fly = _tree_fly(gdom, prob)
    plan, unset, _ = tree_insert(plan, operator_named(gdom, "unsetx"),
                                 "start", fly)
    plan, _set, _ = tree_insert(plan, operator_named(gdom, "setx"),
                                "start", unset)
    return plan, prob


def _dag_pin_plan():
    """unsetx ordered before setx, both before fly: x is true when fly
    runs, although setx has the lower index."""
    gdom, prob = load_texts(_PIN_DOMAIN, _PIN_PROBLEM)
    plan = make_root_plan(prob, "dag")
    plan, fly = dag_add_step(plan, operator_named(gdom, "fly"), (),
                             source="s2", influences=("x",))
    plan = condition_step(plan, "s1", [(Label(fly, "ok"), fly)])
    plan = add_link(plan, Link("causal", fly, "s1", lit("(done)")))
    plan = plan.without_open_influence((fly, "x"))
    plan, setx = dag_add_step(plan, operator_named(gdom, "setx"), ())
    plan, unsetx = dag_add_step(plan, operator_named(gdom, "unsetx"), ())
    plan = add_link(plan, Link("ordering", unsetx, setx))
    plan = add_link(plan, Link("ordering", setx, fly))
    return plan, prob


def _arm_plan():
    """arm's ok outcome sets x, and fly (which needs x) runs only there,
    so fly draws at P(ok | x) = 0.9: 0.5 * 0.9 in all."""
    gdom, prob = load_texts(ARM_DOMAIN, _PIN_PROBLEM)
    plan, fly = _tree_fly(gdom, prob)
    plan, arm, _ = tree_insert(plan, operator_named(gdom, "arm"), "start",
                               fly, "ok", source="s4")
    plan = add_link(plan, Link("causal", arm, fly, lit("(x)")))
    return plan, prob


def test_pinned_influence_follows_tree_execution_order():
    analytic, exact = _analytic_and_exact(*_tree_pin_plan())
    assert exact == pytest.approx(0.1, abs=1e-12)
    assert analytic == pytest.approx(exact, abs=1e-12)


def test_pinned_influence_follows_dag_ordering():
    analytic, exact = _analytic_and_exact(*_dag_pin_plan())
    assert exact == pytest.approx(0.9, abs=1e-12)
    assert analytic == pytest.approx(exact, abs=1e-12)


def test_pinned_influence_reads_a_chance_outcome_in_context():
    analytic, exact = _analytic_and_exact(*_arm_plan())
    assert exact == pytest.approx(0.45, abs=1e-12)
    assert analytic == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("build", [_tree_pin_plan, _dag_pin_plan, _arm_plan])
def test_pinned_influence_plans_replay_as_the_reference(build):
    """Monte Carlo over chance steps whose odds hang on a pinned influence
    reports what the reference estimator does, across two chunk boundaries
    at the chunk size for the plan's draws."""
    plan, prob = build()
    conditional = extract_conditional_plan(plan, complete_goal_ids(plan))
    assert conditional.replay.chance_depth >= 1
    draws = len(prob.priors) + conditional.replay.chance_depth
    args = (conditional, prob.priors, prob.known_true, prob.known_false,
            2 * _chunk_trials(draws) + 3, 5)
    report = estimate_success(*args)
    assert report == reference_estimate(*args)
    assert 0 < report["successes"] < report["trials"]


# ---------------------------------------------------------------------------
# success bounds


def _flip_plan_with_goal():
    plan = make_root_plan(problem(), "dag")
    flip = cond("flip", {"h": (["(g)"], ()), "t": ((), ())},
                dist={"h": 0.7, "t": 0.3})
    plan, cid = dag_add_step(plan, flip, (), source=f"s{plan.next_index}")
    plan = condition_step(plan, "s1", [(Label(cid, "h"), cid)])
    plan = add_link(plan, Link("causal", cid, "s1", lit("(g)")))
    return plan, cid


def _assert_masses_priced(plan, bound, model):
    """The bound holds each goal and uncovered context at the mass the
    model gives it, and nothing else."""
    ctxs = [g.context for g in plan.goal_steps()]
    ctxs += uncovered_outcome_contexts(plan)
    assert set(bound.masses) == set(ctxs)
    for ctx in ctxs:
        assert bound.masses[ctx] == context_probability(plan, ctx, model)


def test_success_bound_counts_completed_and_open():
    plan, cid = _flip_plan_with_goal()
    b = success_bound(plan, "simple", epsilon=0.3)
    _assert_masses_priced(plan, b, "simple")
    assert len(b.masses) == 2
    assert b.achieved_mass == pytest.approx(0.7, abs=1e-12)
    # the tails continuation is uncovered but still open
    assert b.potential_mass == pytest.approx(1.0, abs=1e-12)
    assert b.completed == ("s1",)
    assert b.accepted
    tight = success_bound(plan, "simple", epsilon=0.05)
    assert not tight.accepted


def test_success_bound_epsilon_one_accepts_anything():
    plan = make_root_plan(problem(), "dag")
    b = success_bound(plan, "simple", epsilon=1.0)
    _assert_masses_priced(plan, b, "simple")
    assert b.achieved_mass == 0.0
    assert b.accepted


def test_overlapping_goals_rejected():
    plan, cid = _flip_plan_with_goal()
    plan, gid = dag_add_step(
        plan, GroundOperator(name="goal", kind="goal",
                             preconditions=(lit("(g)"),)), ())
    with pytest.raises(OverlappingGoalContexts):
        success_bound(plan, "simple", epsilon=0.5)


def test_select_goal_node_prefers_mass():
    plan, cid = _flip_plan_with_goal()
    # cover the tails branch with a fresh (incomplete) goal
    plan, gid = dag_add_step(
        plan, GroundOperator(name="goal", kind="goal",
                             preconditions=(lit("(g)"),)),
        [(Label(cid, "t"), cid)])
    plan = plan._derive(open_goals=plan.open_goals | {(gid, lit("(g)"))})
    bound = success_bound(plan, "simple", epsilon=0.0)
    _assert_masses_priced(plan, bound, "simple")
    assert bound.completed == ("s1",)
    assert select_goal_node(plan, bound) == gid
