"""The shared best-first search prices each node once: one belief net per
generated node, and no context priced twice under the same net."""

from collections import Counter

import pytest

from riskplan import probmodel
from riskplan.linear import plan_linear
from riskplan.nonlinear import plan_nonlinear
from riskplan.worlds import load_texts, ski_world

from .test_bench_targets import load_bench_module
from .test_probmodel import _assert_masses_priced


def _worlds():
    # the bench's influenced hike reaches the d-connected observation move
    hike = load_bench_module("test_bench").INFLUENCE
    return {"ski": (*ski_world(), 0.085), "hike": (*hike, None)}


@pytest.mark.parametrize("planner", [plan_linear, plan_nonlinear])
@pytest.mark.parametrize("world", ["ski", "hike"])
def test_each_node_builds_one_net_and_prices_each_context_once(
        monkeypatch, planner, world):
    domain_text, problem_text, epsilon = _worlds()[world]
    gdom, prob = load_texts(domain_text, problem_text)
    nets = []  # kept alive, so that no two nets share an id
    priced: Counter = Counter()
    net_for_plan = probmodel.net_for_plan
    joint_probability = probmodel.joint_probability

    def counted_net(plan, problem):
        nets.append(net_for_plan(plan, problem))
        return nets[-1]

    def counted_joint(net, labels, method="ve"):
        labels = tuple(labels)
        priced[id(net), frozenset(labels)] += 1
        return joint_probability(net, labels, method)

    monkeypatch.setattr(probmodel, "net_for_plan", counted_net)
    monkeypatch.setattr(probmodel, "joint_probability", counted_joint)
    res = planner(gdom, prob, model="kbmc", epsilon=epsilon)

    assert len(nets) == res.stats["generated"]
    assert priced
    assert [k for k, n in priced.items() if n > 1] == []
    # the result carries the net its bound was priced under
    assert any(res.model is net for net in nets)
    _assert_masses_priced(res.graph, res.bound, res.model)
