"""The shared best-first search: nodes that denote the same belief net share
one net object, and with it every joint already computed; every node's
threats and ordering closure, derived from its parent's, equal the
from-scratch oracles; canonical keys tell nodes apart exactly as text keys
do; the frontier order does not hang on the last bit of a float mass; and
a plan accepted on a problem with influences has the mass it claims."""

import random
import sys
from collections import Counter

import pytest

from riskplan import linear, probmodel
from riskplan.errors import PlanningFailure
from riskplan.linear import plan_linear
from riskplan.nonlinear import plan_nonlinear
from riskplan.plangraph import START_ID, _ordering_closure, find_threats
from riskplan.simulator import exhaustive_success
from riskplan.worlds import (det_chain, load_texts, nroad_world, ski_world,
                             slippery_walk, sussman)

from .gen import influence_family, solvable_domain
from .test_bench_targets import load_bench_module
from .test_plangraph import assert_keys_agree
from .test_probmodel import _assert_masses_priced


def _worlds():
    # the bench's influenced hike reaches the d-connected observation move
    # and adds conditional nodes to the net; ski and N-road add none
    hike = load_bench_module("test_bench").INFLUENCE
    return {"ski": (*ski_world(), 0.085), "hike": (*hike, None),
            "nroad": (*nroad_world(4), None)}


@pytest.mark.parametrize("planner", [plan_linear, plan_nonlinear])
@pytest.mark.parametrize("world", ["ski", "hike", "nroad"])
def test_nodes_share_one_net_per_distinct_net(monkeypatch, planner, world):
    domain_text, problem_text, epsilon = _worlds()[world]
    gdom, prob = load_texts(domain_text, problem_text)
    shared = []  # (plan, its net); kept alive, so that no two nets share an id
    initial_builds = 0
    solved: Counter = Counter()
    net_for_plan = probmodel.net_for_plan
    build_initial_net = probmodel.build_initial_net
    joint_ve = probmodel._joint_ve

    def recorded_net(plan, problem, nets=None):
        shared.append((plan, net_for_plan(plan, problem, nets)))
        return shared[-1][1]

    def counted_build(problem):
        nonlocal initial_builds
        initial_builds += 1
        return build_initial_net(problem)

    def counted_ve(net, ev):
        solved[id(net), frozenset(ev.items())] += 1
        return joint_ve(net, ev)

    monkeypatch.setattr(probmodel, "net_for_plan", recorded_net)
    monkeypatch.setattr(probmodel, "build_initial_net", counted_build)
    monkeypatch.setattr(probmodel, "_joint_ve", counted_ve)
    res = planner(gdom, prob, model="kbmc", epsilon=epsilon)
    monkeypatch.undo()

    assert initial_builds == 1
    # priced when popped: every expanded node and the accepted one
    assert len(shared) == res.stats["expanded"] + 1
    assert solved
    assert [k for k, n in solved.items() if n > 1] == []
    distinct = {id(net) for _plan, net in shared}
    assert len(distinct) < len(shared)
    if not any(op.kind == "cond" for op in gdom.operators):
        assert len(distinct) == 1
    for plan, net in shared:
        fresh = net_for_plan(plan, prob)
        assert net == fresh
        assert list(net.variables) == list(fresh.variables)
    # the result carries the net its bound was priced under
    assert any(res.model is net for _plan, net in shared)
    _assert_masses_priced(res.graph, res.bound, res.model)


# (world, planner) -> (expanded, generated), as the search counted them
# when every plan-graph update was made from scratch
_EFFORT = {
    ("ski", plan_linear): (28, 32), ("ski", plan_nonlinear): (26, 28),
    ("sussman", plan_linear): (40, 193),
    ("sussman", plan_nonlinear): (37, 129),
    ("relay", plan_linear): (21, 22), ("relay", plan_nonlinear): (21, 22),
    ("nroad", plan_linear): (290, 422), ("nroad", plan_nonlinear): (94, 141),
}


@pytest.mark.parametrize("planner", [plan_linear, plan_nonlinear])
@pytest.mark.parametrize("world", ["ski", "sussman", "relay", "nroad"])
def test_every_node_matches_the_from_scratch_plan_graph(monkeypatch, planner,
                                                        world):
    domain_text, problem_text, epsilon = {
        "ski": (*ski_world(), 0.085), "sussman": (*sussman(), None),
        "relay": (*det_chain(20), None),
        "nroad": (*nroad_world(4), None)}[world]
    gdom, prob = load_texts(domain_text, problem_text)
    res, generated = _search_recording_nodes(monkeypatch, planner, gdom, prob,
                                             model="kbmc", epsilon=epsilon)

    assert (res.stats["expanded"], res.stats["generated"]) == \
        _EFFORT[world, planner]
    assert res.stats["deduplicated"] == 0
    assert len(generated) == res.stats["generated"]
    for plan in generated:
        assert plan.after == _ordering_closure(plan.steps, plan.links,
                                               plan.tree)
        threats = find_threats(plan)
        assert plan.threats == threats
        assert all(t.step != START_ID for t in threats)
        if plan.tree is None:  # each label source belongs to one step
            sources = [st.source for st in plan.steps.values()
                       if st.source is not None]
            assert len(sources) == len(set(sources))
    assert_keys_agree(generated)


def _search_recording_nodes(monkeypatch, planner, gdom, prob, **kw):
    """Run ``planner`` and return its result and the root followed by every
    child it generated, priced or not."""
    module = sys.modules[planner.__module__]
    generated = []
    expand = module._expand

    def recorded(plan, *args):
        if not generated:
            generated.append(plan)
        children = list(expand(plan, *args))
        generated.extend(children)
        return children

    monkeypatch.setattr(module, "_expand", recorded)
    try:
        res = planner(gdom, prob, **kw)
    finally:
        monkeypatch.undo()
    return res, generated


@pytest.mark.parametrize("planner", [plan_linear, plan_nonlinear])
def test_canonical_keys_agree_with_text_keys_on_random_domains(monkeypatch,
                                                               planner):
    """Over the random solvable domains of acceptance criterion 6, no
    search meets a duplicate, and canonical keys tell generated nodes apart
    exactly as text keys do."""
    for i in range(50):
        gdom, prob = load_texts(*solvable_domain(random.Random(9000 + i)))
        res, generated = _search_recording_nodes(monkeypatch, planner, gdom,
                                                 prob, node_budget=10_000)
        assert res.stats["deduplicated"] == 0
        assert len(generated) == res.stats["generated"]
        assert_keys_agree(generated)


# P(blizzard), P(clear | blizzard), P(clear | no blizzard), epsilon.  Under
# these CPTs about a quarter of the nodes sum their potential mass to an
# ulp or two below 1, which once sent them behind the whole frontier: the
# linear planner then ran out of a 3,000-node budget at N=5.
PERTURBED = (0.100654, 0.308173, 0.906206, 0.051232)


@pytest.mark.parametrize("planner", [plan_linear, plan_nonlinear])
def test_search_effort_does_not_hang_on_the_last_bit_of_a_cpt(planner):
    counts = []
    for params in ((), PERTURBED):
        gdom, prob = load_texts(*nroad_world(5, *params))
        res = planner(gdom, prob, node_budget=3000)
        counts.append((res.stats["expanded"], res.stats["generated"]))
    assert counts[0] == counts[1]


# setx forces x true for fly, and unsetx, which the goal (b) needs, clears
# it.  The nonlinear planner once left unsetx unordered against the
# influence link setx -> fly: it priced fly at x true (0.723) while the
# extracted plan ran unsetx first and flew at x false (0.201).
SEED47 = ("""
(operator fly (kind cond) (pre (a)) (outcomes (ok (add (done))) (fail))
  (influences (x))
  (cpt ((ok true) 0.723) ((fail true) 0.277) ((ok false) 0.201)
       ((fail false) 0.799)))
(operator setx (kind det) (add (x) (a)))
(operator unsetx (kind det) (del (x)) (add (b)))
(clause (head (x) (true false)) (cpt ((true) 0.435) ((false) 0.565)))
""", """(problem (init (not (done)) (not (a)) (not (b)))
  (goal (done) (a) (b)) (epsilon 0.3))""")


def _exact(res, prob) -> float:
    return exhaustive_success(res.conditional, prob.priors, prob.known_true,
                              prob.known_false)


@pytest.mark.parametrize("planner", [plan_linear, plan_nonlinear])
def test_a_writer_cannot_sit_inside_an_influence_link(planner):
    gdom, prob = load_texts(*SEED47)
    res = planner(gdom, prob, node_budget=1500)
    assert res.bound.achieved_mass == 0.723
    assert _exact(res, prob) == pytest.approx(0.723, abs=1e-9)


# Plans each planner accepts on the 60 problems below.  Some problems have
# none; on others a plan exists that the planner does not find in 1500
# nodes (the linear planner on seeds 22, 28 and 52, which exhaust the
# budget in about 1.8 s each, and the nonlinear one on 10, 15, 28 and 29).
_INFLUENCE_ACCEPTED = {plan_linear: 50, plan_nonlinear: 49}


@pytest.mark.parametrize("planner", [plan_linear, plan_nonlinear])
def test_influence_family_plans_have_the_mass_they_claim(planner):
    accepted = 0
    for seed in range(60):
        gdom, prob = load_texts(*influence_family(random.Random(seed)))
        try:
            res = planner(gdom, prob, node_budget=1500)
        except PlanningFailure:
            continue
        accepted += 1
        assert _exact(res, prob) == pytest.approx(res.bound.achieved_mass,
                                                  abs=1e-9), seed
    assert accepted == _INFLUENCE_ACCEPTED[planner]


def test_linear_influence_steps_settle_the_variable(monkeypatch):
    """Each child ``linear._resolve_influence`` makes by inserting a step,
    an observer or a forcer on the tree path, has the variable settled at
    the step whose influence it resolves.  The influence family inserts
    forcers; the slippery walk inserts observers."""
    resolve = linear._resolve_influence
    inserted: Counter = Counter()  # operator kind -> children checked

    def checked(plan, gdomain, model, sid, var):
        children = resolve(plan, gdomain, model, sid, var)
        for child in children:
            if len(child.steps) > len(plan.steps):
                inserted[child.steps[f"s{plan.next_index}"].kind] += 1
                assert linear._determined_value(child, sid, var) is not None
        return children

    monkeypatch.setattr(linear, "_resolve_influence", checked)
    problems = [influence_family(random.Random(seed)) for seed in range(60)]
    for texts in problems + [slippery_walk()]:
        try:
            plan_linear(*load_texts(*texts), node_budget=200)
        except PlanningFailure:
            pass
    assert inserted["det"] and inserted["obs"]
