"""The shared best-first search: nodes that denote the same belief net share
one net object, and with it every joint already computed; every node's
threats and ordering closure, derived from its parent's, equal the
from-scratch oracles; and the frontier order does not hang on the last bit
of a float mass."""

import sys
from collections import Counter

import pytest

from riskplan import probmodel
from riskplan.linear import plan_linear
from riskplan.nonlinear import plan_nonlinear
from riskplan.plangraph import _ordering_closure, find_threats
from riskplan.worlds import (det_chain, load_texts, nroad_world, ski_world,
                             sussman)

from .test_bench_targets import load_bench_module
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
    module = sys.modules[planner.__module__]
    generated = []  # the root, then every child, priced or not
    expand = module._expand

    def recorded(plan, *args):
        if not generated:
            generated.append(plan)
        children = list(expand(plan, *args))
        generated.extend(children)
        return children

    monkeypatch.setattr(module, "_expand", recorded)
    res = planner(gdom, prob, model="kbmc", epsilon=epsilon)
    monkeypatch.undo()

    assert (res.stats["expanded"], res.stats["generated"]) == \
        _EFFORT[world, planner]
    assert len(generated) == res.stats["generated"]
    for plan in generated:
        assert plan.after == _ordering_closure(plan.steps, plan.links,
                                               plan.tree)
        assert plan.threats == find_threats(plan)


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
