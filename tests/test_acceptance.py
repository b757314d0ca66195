"""End-to-end acceptance checks, one per numbered claim the package makes.

Each test contributes a single PASS/FAIL line to the report block printed
at the end of the run (see conftest) and enforces the numeric tolerances
and wall-clock limits that go with the claim.  Everything here leans on
independent oracles: hand enumeration, brute-force world walking, and
Monte Carlo simulation.
"""

import functools
import random
import time
from contextlib import contextmanager

from riskplan import (
    estimate_success,
    exhaustive_success,
    plan_linear,
    plan_nonlinear,
    success_bound,
)
from riskplan.conditional import ActionNode, BranchNode, GiveUpLeaf, GoalLeaf, Label
from riskplan.probmodel import (build_initial_net, joint_by_enumeration,
                                joint_probability)
from riskplan.worlds import det_chain, load_texts, ski_world, sussman

from .gen import (
    exhaustive_check,
    ignorance_breaches,
    independent_domain,
    random_evidence,
    random_net,
    solvable_domain,
)

CBS = "clear(b,snowbird)"
CCP = "clear(c,parkcity)"

# frozen expectations for the ski trip story
P_CLEAR_B = 0.9091          # 0.1*0.1 + 0.9*0.999
P_BLOCKED_B_CLEAR_C = 0.0098991
SINGLE_BRANCH_MASS = 0.9091
BOTH_BRANCH_MASS = 0.9189991


# one line per criterion, rendered by the terminal-summary hook in conftest
REPORT: list[str] = []


@contextmanager
def criterion(num: int, text: str):
    """Wrap one acceptance check and file a PASS/FAIL line for it."""
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        REPORT.append(f"FAIL  {num}. {text}")
        raise
    REPORT.append(f"PASS  {num}. {text}  ({time.perf_counter() - t0:.2f}s)")


@functools.lru_cache(maxsize=1)
def _ski():
    return load_texts(*ski_world())


@functools.lru_cache(maxsize=1)
def _ski_plans():
    """The four ski plans used by several criteria: both planners at the
    stock risk bound (one resort suffices) and at a tightened bound that
    forces the Park City fallback.  Returns {(planner, eps): (result, secs)}."""
    gdom, prob = _ski()
    out = {}
    for pname, fn in (("linear", plan_linear), ("nonlinear", plan_nonlinear)):
        for eps in (0.1, 0.085):
            t0 = time.perf_counter()
            res = fn(gdom, prob, epsilon=eps, node_budget=10_000)
            out[pname, eps] = (res, time.perf_counter() - t0)
    return out


def test_1_snowbird_marginal():
    with criterion(1, f"P({CBS}=true) = {P_CLEAR_B} within 1e-9"):
        t0 = time.perf_counter()
        _, prob = _ski()
        net = build_initial_net(prob)
        p = joint_probability(net, [Label(CBS, "true")])
        assert abs(p - P_CLEAR_B) <= 1e-9
        assert time.perf_counter() - t0 < 1.0


def test_2_blocked_but_parkcity_clear_joint():
    text = (f"P({CBS}=false, {CCP}=true) = {P_BLOCKED_B_CLEAR_C} "
            "by brute-force enumeration")
    with criterion(2, text):
        t0 = time.perf_counter()
        _, prob = _ski()
        net = build_initial_net(prob)
        labels = [Label(CBS, "false"), Label(CCP, "true")]
        brute = joint_by_enumeration(net, labels)
        assert abs(brute - P_BLOCKED_B_CLEAR_C) <= 1e-9
        # the fast path must reproduce the oracle
        assert abs(joint_probability(net, labels) - brute) <= 1e-12
        assert time.perf_counter() - t0 < 1.0


def _assert_single_branch_shape(conditional):
    """Stock plan: observe the Snowbird road, drive if clear, give up if not."""
    root = conditional.root
    assert isinstance(root, BranchNode)
    assert root.op.name == "check-road-b-snowbird"
    assert root.source == CBS
    assert isinstance(root.children["false"], GiveUpLeaf)
    go = root.children["true"]
    assert isinstance(go, ActionNode) and go.op.name == "drive-b-snowbird"
    assert isinstance(go.child, GoalLeaf)


def test_3_planners_branch_on_road_report():
    text = (f"both planners: mass {SINGLE_BRANCH_MASS} branching on the "
            f"road report, {BOTH_BRANCH_MASS} with the fallback resort")
    with criterion(3, text):
        plans = _ski_plans()
        for pname in ("linear", "nonlinear"):
            res, secs = plans[pname, 0.1]
            assert secs < 10.0
            assert abs(res.bound.achieved_mass - SINGLE_BRANCH_MASS) <= 1e-9
            assert res.bound.accepted
            _assert_single_branch_shape(res.conditional)

            res, secs = plans[pname, 0.085]
            assert secs < 10.0
            assert abs(res.bound.achieved_mass - BOTH_BRANCH_MASS) <= 1e-9
            assert round(res.bound.achieved_mass, 4) == 0.9190
            assert res.bound.accepted
            # fallback pulls in every operator except the radio
            assert sorted(op.name
                          for op in res.conditional.steps_used().values()
                          if op.kind != "goal") == [
                "check-road-b-snowbird", "check-road-c-parkcity",
                "drive-b-c", "drive-b-snowbird", "drive-c-parkcity"]


def test_4_simulation_agrees_with_analysis():
    text = ("every ski plan's analytic mass matches exhaustive world "
            "enumeration (1e-9) and 100k-trial Monte Carlo (3 SE)")
    with criterion(4, text):
        t0 = time.perf_counter()
        _, prob = _ski()
        for k, (key, (res, _)) in enumerate(sorted(_ski_plans().items())):
            analytic = res.bound.achieved_mass
            exact = exhaustive_success(res.conditional, prob.priors,
                                       prob.known_true, prob.known_false)
            assert abs(exact - analytic) <= 1e-9, key
            mc = estimate_success(res.conditional, prob.priors,
                                  prob.known_true, prob.known_false,
                                  trials=100_000, seed=2026 + k)
            assert mc["violations"] == 0, key
            slack = max(3.0 * mc["stderr"], 1e-9)
            assert abs(mc["estimate"] - analytic) <= slack, key
        assert time.perf_counter() - t0 < 30.0


def test_5_model_agreement_without_shared_ancestors():
    text = ("plain-product and network bounds agree to 1e-12 on 20 domains "
            "whose chance steps share no ancestry")
    with criterion(5, text):
        for i in range(20):
            rng = random.Random(500 + i)
            gdom, prob = load_texts(*independent_domain(rng))
            res = plan_linear(gdom, prob, model="kbmc", node_budget=10_000)
            simple = success_bound(res.graph, "simple", prob.epsilon)
            assert abs(simple.achieved_mass - res.bound.achieved_mass) <= 1e-12
            assert abs(simple.potential_mass - res.bound.potential_mass) <= 1e-12


def test_6_random_solvable_domains_execute_cleanly():
    text = ("50 random solvable domains: every branch of every plan runs "
            "without precondition or protection violations")
    with criterion(6, text):
        for i in range(50):
            rng = random.Random(9000 + i)
            gdom, prob = load_texts(*solvable_domain(rng))
            for fn in (plan_linear, plan_nonlinear):
                res = fn(gdom, prob, node_budget=10_000)
                mass, violations = exhaustive_check(
                    res.conditional, prob.priors,
                    prob.known_true, prob.known_false)
                assert violations == 0, (i, fn.__name__)
                assert abs(mass - res.bound.achieved_mass) <= 1e-9
                assert ignorance_breaches(res.graph) == [], (i, fn.__name__)


def test_7_deterministic_domains_reach_certainty():
    with criterion(7, "deterministic domains plan to mass 1.0 at epsilon 0"):
        for world in (det_chain, sussman):
            gdom, prob = load_texts(*world())
            for fn in (plan_linear, plan_nonlinear):
                res = fn(gdom, prob, epsilon=0.0, node_budget=10_000)
                assert res.bound.achieved_mass == 1.0, world.__name__
                assert res.conditional.uncovered == ()


def test_8_elimination_matches_enumeration():
    text = ("variable elimination matches brute-force enumeration to 1e-12 "
            "on 100 random nets of up to 12 variables")
    with criterion(8, text):
        for i in range(100):
            rng = random.Random(8000 + i)
            net = random_net(rng, max_vars=12)
            labels = random_evidence(rng, net)
            fast = joint_probability(net, labels)
            brute = joint_by_enumeration(net, labels)
            assert 0.0 <= fast <= 1.0 + 1e-12
            assert abs(fast - brute) <= 1e-12, i
