"""Partial-order planner: same worlds as the linear suite, plus link and
threat-resolution structure that only a dag plan exhibits."""

import random

import pytest

from riskplan.conditional import BranchNode, GiveUpLeaf, GoalLeaf, Label
from riskplan.domain import prop_from_text
from riskplan.errors import PlanningFailure
from riskplan.nonlinear import (_expand, _resolve_influence, _resolve_threat,
                                plan_nonlinear)
from riskplan.plangraph import (Link, START_ID, Threat, add_link,
                                dag_add_step, find_threats, linearizations,
                                make_root_plan)
from riskplan.probmodel import success_bound
from riskplan.simulator import exhaustive_success
from riskplan.worlds import (det_chain, load_texts, press_button, ski_world,
                             slippery_walk, sussman)

from .gen import (exhaustive_check, ignorance_breaches, operator_named,
                  solvable_domain)

CBS = "clear(b,snowbird)"
CCP = "clear(c,parkcity)"


def test_det_chain_mass_one():
    gdom, prob = load_texts(*det_chain(3))
    res = plan_nonlinear(gdom, prob)
    assert res.bound.achieved_mass == 1.0
    assert sorted(op.name for op in res.conditional.steps_used().values()) \
        == ["step-0", "step-1", "step-2"]


def test_press_button_both_models():
    gdom, prob = load_texts(*press_button())
    for model in ("simple", "kbmc"):
        res = plan_nonlinear(gdom, prob, model=model)
        assert res.bound.achieved_mass == pytest.approx(0.9, abs=1e-12)


def test_slippery_walk_ignorance_pledge():
    gdom, prob = load_texts(*slippery_walk())
    res = plan_nonlinear(gdom, prob, model="kbmc")
    assert res.bound.achieved_mass == pytest.approx(0.873, abs=1e-9)
    assert any(l.kind == "ignorance" and l.payload == "rain"
               for l in res.graph.links)
    assert ignorance_breaches(res.graph) == []


def test_ski_default_epsilon():
    gdom, prob = load_texts(*ski_world())
    res = plan_nonlinear(gdom, prob, model="kbmc")
    assert res.bound.achieved_mass == pytest.approx(0.9091, abs=1e-9)
    root = res.conditional.root
    assert isinstance(root, BranchNode)
    assert root.op.name == "check-road-b-snowbird"
    assert isinstance(root.children["false"], GiveUpLeaf)


def test_ski_link_discipline():
    gdom, prob = load_texts(*ski_world())
    res = plan_nonlinear(gdom, prob, model="kbmc")
    by_kind = {}
    for l in res.graph.links:
        by_kind.setdefault(l.kind, []).append(l)
    # the drive is conditioned on the observation coming out clear
    conds = [l for l in by_kind.get("conditioning", ())
             if l.payload == Label(CBS, "true")]
    assert conds, "no conditioning link for the clear outcome"
    causal = [l for l in by_kind["causal"]
              if str(l.payload) == "(at-resort)"]
    assert causal
    assert find_threats(res.graph) == set()


def test_ski_tight_epsilon_covers_both_resorts():
    gdom, prob = load_texts(*ski_world())
    res = plan_nonlinear(gdom, prob, model="kbmc", epsilon=0.085)
    assert res.bound.achieved_mass == pytest.approx(0.9189991, abs=1e-9)
    used = sorted(op.name for op in res.conditional.steps_used().values())
    assert used == ["check-road-b-snowbird", "check-road-c-parkcity",
                    "drive-b-c", "drive-b-snowbird", "drive-c-parkcity"]
    assert res.conditional.uncovered == (
        frozenset({Label(CBS, "false"), Label(CCP, "false")}),)


def test_ski_epsilon_one_plans_nothing():
    gdom, prob = load_texts(*ski_world())
    res = plan_nonlinear(gdom, prob, epsilon=1.0)
    assert isinstance(res.conditional.root, GiveUpLeaf)
    assert res.stats["expanded"] == 0


def test_budget_failure_carries_best_bound():
    gdom, prob = load_texts(*ski_world())
    with pytest.raises(PlanningFailure) as e:
        plan_nonlinear(gdom, prob, epsilon=0.0, node_budget=200)
    assert e.value.best_bound is not None
    assert e.value.stats["expanded"] <= 200


def test_sussman_anomaly():
    gdom, prob = load_texts(*sussman())
    res = plan_nonlinear(gdom, prob)
    assert res.bound.achieved_mass == 1.0
    mass, violations = exhaustive_check(res.conditional, prob.priors,
                                        prob.known_true, prob.known_false)
    assert (mass, violations) == (1.0, 0)
    assert find_threats(res.graph) == set()


def test_every_linearization_of_sussman_executes():
    """Partial orders must be safe under any consistent total order."""
    gdom, prob = load_texts(*sussman())
    res = plan_nonlinear(gdom, prob)
    count = 0
    for order in linearizations(res.graph):
        count += 1
        values = {}
        for p in prob.known_true:
            values[p.text()] = True
        for p in prob.known_false:
            values[p.text()] = False
        ok = True
        for sid in order:
            op = res.graph.steps[sid].operator
            if op.kind == "goal":
                continue
            for pre in op.preconditions:
                held = values.get(pre.positive.text(), False)
                if held == pre.negated:
                    ok = False
            for d in op.delete:
                values[d.positive.text()] = False
            for a in op.add:
                values[a.positive.text()] = True
        assert ok, f"linearization {order} violates a precondition"
        if count >= 50:
            break
    assert count >= 1


def test_threat_resolution_on_clobbering_domain():
    rng = random.Random(7)
    gdom, prob = load_texts(
        *[t for t in [solvable_domain(rng) for _ in range(10)]
          if "kick" in t[0]][0])
    res = plan_nonlinear(gdom, prob)
    assert res.bound.achieved_mass == 1.0
    assert find_threats(res.graph) == set()
    mass, violations = exhaustive_check(res.conditional, prob.priors,
                                        prob.known_true, prob.known_false)
    assert (mass, violations) == (1.0, 0)


def test_agreement_with_linear_on_ski():
    from riskplan.linear import plan_linear
    gdom, prob = load_texts(*ski_world())
    for eps in (0.1, 0.085):
        a = plan_linear(gdom, prob, epsilon=eps).bound.achieved_mass
        b = plan_nonlinear(gdom, prob, epsilon=eps).bound.achieved_mass
        assert a == pytest.approx(b, abs=1e-9)


# ---------------------------------------------------------------------------
# single moves on hand-built dag plans

_MOVES_DOMAIN = """
(operator make-p (kind det) (add (p)))
(operator use-p (kind det) (pre (p)) (add (g)))
(operator wreck (kind det) (del (p)))
(operator look (kind obs) (observes (x)) (outcomes (true) (false)))
(operator walk (kind cond) (outcomes (arrive (add (g))) (slip))
  (influences (x))
  (cpt ((arrive true) 0.6) ((slip true) 0.4)
       ((arrive false) 0.99) ((slip false) 0.01)))
(operator setx (kind det) (add (x)))
(clause (head (x) (true false)) (cpt ((true) 0.4) ((false) 0.6)))
"""


def _moves_world():
    return load_texts(_MOVES_DOMAIN,
                      "(problem (init (not (p)) (not (g))) (goal (g)) "
                      "(epsilon 0.1))")


def _new_links(parent, child):
    return child.links - parent.links


def test_threat_to_a_causal_link_is_demoted_or_promoted():
    gdom, prob = _moves_world()
    plan = make_root_plan(prob, "dag")
    plan, make = dag_add_step(plan, operator_named(gdom, "make-p"), ())
    plan, use = dag_add_step(plan, operator_named(gdom, "use-p"), ())
    plan, wreck = dag_add_step(plan, operator_named(gdom, "wreck"), ())
    link = Link("causal", make, use, prop_from_text("(p)"))
    plan = add_link(plan, link)
    assert plan.threats == {Threat(wreck, link)}
    demoted, promoted = _resolve_threat(plan, Threat(wreck, link))
    assert _new_links(plan, demoted) == {Link("ordering", wreck, make)}
    assert demoted.ordered_before(wreck, use)
    assert _new_links(plan, promoted) == {Link("ordering", use, wreck)}
    assert demoted.threats == promoted.threats == set()


def test_threat_to_an_ignorance_pledge_is_promoted():
    """An observer of x that could run before a step pledged ignorant of x
    is ordered after it; no chance step could separate the two."""
    gdom, prob = _moves_world()
    plan = make_root_plan(prob, "dag")
    plan, walk = dag_add_step(plan, operator_named(gdom, "walk"), (),
                              source="s2", influences=("x",))
    plan, look = dag_add_step(plan, operator_named(gdom, "look"), (),
                              source="x")
    pledge = Link("ignorance", START_ID, walk, "x")
    plan = add_link(plan, pledge)
    assert plan.threats == {Threat(look, pledge)}
    (promoted,) = _resolve_threat(plan, Threat(look, pledge))
    assert _new_links(plan, promoted) == {Link("ordering", walk, look)}
    assert promoted.threats == set()


# The ok branch reaches g by finish-a, which needs aq from prep-q; the bad
# branch reaches it by detour, which needs p from make-p.  prep-q deletes
# p.  The search places prep-q and finish-a before try conditions the
# goal on ok, so prep-q runs in every branch and threatens make-p -> detour
# once the bad branch is planned.
_SPLIT_DOMAIN = """
(operator try (kind cond)
  (outcomes (ok (prob 0.6) (add (k))) (bad (prob 0.4) (add (r)))))
(operator finish-a (kind det) (pre (aq) (k)) (add (g)))
(operator prep-q (kind det) (add (aq)) (del (p)))
(operator detour (kind det) (pre (p) (r)) (add (g)))
(operator make-p (kind det) (add (p)))
"""
_SPLIT_PROBLEM = ("(problem (init (not (g)) (not (k)) (not (r)) (not (p)) "
                  "(not (aq))) (goal (g)) (epsilon 0))")


@pytest.mark.parametrize("model", ["kbmc", "simple"])
def test_threat_resolved_by_conditioning_the_clobberer_apart(model):
    """prep-q's threat to make-p -> detour is resolved by conditioning
    prep-q on try=ok, apart from detour under try=bad, not by ordering.
    prep-q has no precondition and conditioning spreads only to a step's
    consumers, so only the threat's conditioning move gives it that
    label."""
    gdom, prob = load_texts(_SPLIT_DOMAIN, _SPLIT_PROBLEM)
    res = plan_nonlinear(gdom, prob, model=model)
    graph = res.graph
    ids = {st.operator.name: st.id for st in graph.step_list()}
    chance = graph.steps[ids["try"]]
    assert Link("conditioning", chance.id, ids["prep-q"],
                Label(chance.source, "ok")) in graph.links
    assert graph.steps[ids["detour"]].context == {Label(chance.source,
                                                        "bad")}
    assert not {l for l in graph.links if l.kind == "ordering"
                and l.producer != START_ID}
    assert res.bound.achieved_mass == 1.0
    assert exhaustive_success(res.conditional, prob.priors, prob.known_true,
                              prob.known_false) == 1.0


def test_influence_settled_by_a_label_is_discharged():
    gdom, prob = _moves_world()
    plan = make_root_plan(prob, "dag")
    plan, look = dag_add_step(plan, operator_named(gdom, "look"), (),
                              source="x")
    plan, walk = dag_add_step(plan, operator_named(gdom, "walk"),
                              [(Label("x", "true"), look)], source="s3",
                              influences=("x",))
    (child,) = _resolve_influence(plan, gdom, "kbmc", walk, "x")
    assert child.open_influences == frozenset()
    assert child.links == plan.links and child.steps == plan.steps


def test_influence_reuses_the_existing_observer():
    """With an observer of x already in the plan, the influence is pledged
    ignorant or conditioned on each of that observer's outcomes; no second
    observer is added, and setx forces x as a new step."""
    gdom, prob = _moves_world()
    plan = make_root_plan(prob, "dag")
    plan, look = dag_add_step(plan, operator_named(gdom, "look"), (),
                              source="x")
    plan, walk = dag_add_step(plan, operator_named(gdom, "walk"), (),
                              source="s3", influences=("x",))
    children = _resolve_influence(plan, gdom, "kbmc", walk, "x")
    assert len(children) == 4
    pledged, *observed, forced = children
    assert _new_links(plan, pledged) == {Link("ignorance", START_ID, walk, "x")}
    for child, o in zip(observed, ("true", "false")):
        assert set(child.steps) == set(plan.steps)
        assert child.steps[walk].context == {Label("x", o)}
        assert _new_links(plan, child) == {
            Link("conditioning", look, walk, Label("x", o)),
            Link("influence", look, walk, "x")}
    assert all(c.open_influences == frozenset() for c in children)
    assert forced.steps.keys() - plan.steps.keys() == {"s4"}


def test_influence_forced_by_a_det_step():
    """With no observer to use, x is pledged unknown or forced by a fresh
    setx step that feeds the influence."""
    gdom, prob = _moves_world()
    plan = make_root_plan(prob, "dag")
    plan, walk = dag_add_step(plan, operator_named(gdom, "walk"), (),
                              source="s2", influences=("x",))
    pledged, forced = _resolve_influence(plan, gdom, "simple", walk, "x")
    assert _new_links(plan, pledged) == {Link("ignorance", START_ID, walk, "x")}
    (setx,) = forced.steps.keys() - plan.steps.keys()
    assert forced.steps[setx].operator.name == "setx"
    assert _new_links(plan, forced) == {Link("ordering", START_ID, setx),
                                        Link("influence", setx, walk, "x")}
    assert forced.open_influences == frozenset()


# two threats alike but for their branch: make-p -> use-p under try=ok,
# threatened by wreck-p, and make-q -> use-q under try=bad, by wreck-q
_TWO_THREATS_DOMAIN = """
(operator try (kind cond)
  (outcomes (ok (prob {ok}) (add (k))) (bad (prob {bad}) (add (r)))))
(operator make-p (kind det) (add (p)))
(operator use-p (kind det) (pre (p)) (add (g)))
(operator wreck-p (kind det) (del (p)))
(operator make-q (kind det) (add (q)))
(operator use-q (kind det) (pre (q)) (add (g)))
(operator wreck-q (kind det) (del (q)))
"""


@pytest.mark.parametrize("ok", [0.8, 0.2])
def test_expand_resolves_the_heaviest_threat_first(ok):
    """Of two threats, the one on the branch of greater mass is resolved.
    The two orientations build the same plan graph, so a choice that does
    not follow mass takes the lighter threat in one of them."""
    gdom, prob = load_texts(
        _TWO_THREATS_DOMAIN.format(ok=ok, bad=round(1 - ok, 1)),
        "(problem (init (not (p)) (not (q)) (not (g)) (not (k)) (not (r))) "
        "(goal (g)) (epsilon 0))")
    plan = make_root_plan(prob, "dag")
    source = f"s{plan.next_index}"
    plan, chance = dag_add_step(plan, operator_named(gdom, "try"), (),
                                source=source)
    threats = {}
    for var, outcome in (("p", "ok"), ("q", "bad")):
        pairs = [(Label(source, outcome), chance)]
        ids = []
        for name in ("make", "use", "wreck"):
            plan, sid = dag_add_step(
                plan, operator_named(gdom, f"{name}-{var}"), pairs)
            ids.append(sid)
        link = Link("causal", ids[0], ids[1], prop_from_text(f"({var})"))
        plan = add_link(plan, link)
        threats[outcome] = Threat(ids[2], link)
    assert plan.threats == set(threats.values())
    heavy, light = ("ok", "bad") if ok > 0.5 else ("bad", "ok")
    children = _expand(plan, success_bound(plan, "simple", prob.epsilon),
                       "simple", gdom, "simple")
    assert children == _resolve_threat(plan, threats[heavy])
    assert all(c.threats == {threats[light]} for c in children)
