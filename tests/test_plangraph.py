"""Plan graphs: ordering closure, threats, contexts, extraction.

The threat tests check find_threats against a brute-force oracle that
enumerates every permutation of the steps and keeps those consistent with
the raw links, so the closure logic is exercised from the outside.
"""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskplan import domain
from riskplan.conditional import Label, plan_document, read_plan_document
from riskplan.domain import GroundOperator, Problem, prop_from_text
from riskplan.errors import (IgnoranceNotFromStart, IncompletePlan,
                             MalformedPlan, PlanGraphError, WouldCreateCycle)
from riskplan.linear import plan_linear
from riskplan.nonlinear import plan_nonlinear
from riskplan.plangraph import (Link, PlanGraph, START_ID, Threat,
                                _canonical_topo, _ordering_closure, add_link,
                                canonical_key, condition_step,
                                complete_goal_ids, context_consistent,
                                contexts_compatible, dag_add_step,
                                extract_conditional_plan, find_threats,
                                has_threat, linearizations, make_root_plan,
                                to_dot, tree_insert,
                                uncovered_outcome_contexts)
from riskplan.worlds import load_texts

from .gen import adds_for, deletes_for
from .test_simulator import WORLDS


def lit(s):
    return prop_from_text(s)


def det(name, pre=(), add=(), delete=()):
    return GroundOperator(name=name, kind="det",
                          preconditions=tuple(lit(p) for p in pre),
                          add=tuple(lit(p) for p in add),
                          delete=tuple(lit(p) for p in delete))


def cond(name, outcomes, pre=(), dist=None):
    """outcomes: {name: (adds, dels)}"""
    return GroundOperator(
        name=name, kind="cond",
        preconditions=tuple(lit(p) for p in pre),
        outcomes=tuple(outcomes),
        outcome_adds={o: tuple(lit(p) for p in a)
                      for o, (a, _d) in outcomes.items()},
        outcome_dels={o: tuple(lit(p) for p in d)
                      for o, (_a, d) in outcomes.items()},
        simple_distribution=dist or {o: 1.0 / len(outcomes)
                                     for o in outcomes})


def problem(goals=("(g)",), epsilon=0.0):
    return Problem(known_true=frozenset(), known_false=frozenset(),
                   goals=tuple(lit(g) for g in goals), epsilon=epsilon)


# ---------------------------------------------------------------------------
# contexts


def test_context_consistency():
    a, b = Label("v", "true"), Label("v", "false")
    assert context_consistent([a])
    assert not context_consistent([a, b])
    assert contexts_compatible([a], [Label("w", "x")])
    assert not contexts_compatible([a], [b])
    assert contexts_compatible([], [a])  # empty context is universal


# ---------------------------------------------------------------------------
# ordering closure


def test_add_link_rejects_cycle():
    plan = make_root_plan(problem(), "dag")
    plan, s2 = dag_add_step(plan, det("a"), ())
    plan, s3 = dag_add_step(plan, det("b"), ())
    plan = add_link(plan, Link("ordering", s2, s3))
    with pytest.raises(WouldCreateCycle):
        add_link(plan, Link("ordering", s3, s2))


def test_ignorance_must_come_from_start():
    plan = make_root_plan(problem(), "dag")
    plan, s2 = dag_add_step(plan, det("a"), ())
    with pytest.raises(IgnoranceNotFromStart):
        add_link(plan, Link("ignorance", s2, "s1", "x"))
    plan = add_link(plan, Link("ignorance", START_ID, s2, "x"))
    assert any(l.kind == "ignorance" for l in plan.links)


def test_start_precedes_everything():
    plan = make_root_plan(problem(), "dag")
    plan, s2 = dag_add_step(plan, det("a"), ())
    assert plan.ordered_before(START_ID, s2)
    assert plan.ordered_before(START_ID, "s1")
    assert not plan.ordered_before(s2, "s1")
    assert plan.possibly_between(s2, START_ID, "s1")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                max_size=10))
def test_closure_matches_edge_reachability(edges):
    plan = make_root_plan(problem(), "dag")
    sids = []
    for i in range(5):
        plan, sid = dag_add_step(plan, det(f"a{i}"), ())
        sids.append(sid)
    cyclic = False
    try:
        for a, b in edges:
            if a != b:
                plan = add_link(plan, Link("ordering", sids[a], sids[b]))
    except WouldCreateCycle:
        cyclic = True
    if cyclic:
        return
    # reachability over the raw edges must equal the closure
    succ = {s: set() for s in sids}
    for a, b in edges:
        if a != b:
            succ[sids[a]].add(sids[b])
    for src in sids:
        reach, frontier = set(), [src]
        while frontier:
            for nxt in succ[frontier.pop()]:
                if nxt not in reach:
                    reach.add(nxt)
                    frontier.append(nxt)
        for dst in sids:
            assert (dst in reach) == plan.ordered_before(src, dst)
    assert plan.threats == find_threats(plan)


def _obs(name, var):
    return GroundOperator(name=name, kind="obs", outcomes=("true", "false"),
                          observes=var)


# operators for random plans: producers, clobberers (deterministic, by
# negation, by one outcome), and writers and revealers of the variable x
_OPS = [det("make-p", add=["(p)"]), det("wreck-p", delete=["(p)"]),
        det("negate-p", add=["(not (p))"]), det("make-q", add=["(q)"]),
        det("set-x", add=["(x)"]), det("unset-x", delete=["(x)"]),
        cond("flip", {"heads": (["(p)"], ()), "tails": ((), ["(p)", "(q)"])}),
        _obs("look", "x")]
_PROPS = [lit("(p)"), lit("(q)"), lit("(x)")]

_moves = st.lists(st.tuples(st.sampled_from(["step", "link", "condition",
                                             "fork"]),
                            st.integers(0, 99), st.integers(0, 99),
                            st.integers(0, 99), st.booleans()),
                  max_size=14)


def _source(plan, op):
    if op.kind == "obs":
        return op.observes
    return f"s{plan.next_index}" if op.kind == "cond" else None


def _chance_labels(plan):
    return [(Label(s.source, o), s.id) for s in plan.step_list()
            if s.source is not None for o in s.operator.outcomes]


def _random_link(plan, a, b, c):
    ids = sorted(plan.steps)
    kind = ["causal", "ordering", "ignorance", "influence"][a % 4]
    consumer = ids[c % len(ids)]
    if kind == "ignorance":
        return Link(kind, START_ID, consumer, "x")
    if kind == "influence":
        return Link(kind, ids[b % len(ids)], consumer, "x")
    producer = ids[b % len(ids)]
    return Link(kind, producer, consumer,
                _PROPS[a % len(_PROPS)] if kind == "causal" else None)


_COIN = cond("toss", {"heads": ((), ()), "tails": ((), ())})


def _fork(plan, a, b, c):
    """Fork on a chance step, put a second chance step under its tails
    outcome, and condition a step under heads on the second step's outcome.
    Returns the plan before the conditioning and what ``condition_step``
    makes of it: a tree plan refuses a link from off the step's tree path,
    and a dag plan takes it."""
    if plan.tree is None:
        first = sorted(plan.steps)[a % len(plan.steps)]
        plan, fork = dag_add_step(plan, _COIN, (),
                                  source=_source(plan, _COIN))
        heads, tails = (Label(plan.steps[fork].source, o)
                        for o in _COIN.outcomes)
        plan, inner = dag_add_step(plan, _COIN, [(tails, fork)],
                                   source=_source(plan, _COIN))
        target, pairs = first, [(heads, fork)]
    else:
        first = sorted(plan.tree)[a % len(plan.tree)]
        plan, fork, (leaf,) = tree_insert(
            plan, _COIN, plan.tree[first][0], first, chosen_outcome="heads",
            source=_source(plan, _COIN))
        plan, inner, _ = tree_insert(plan, _COIN, fork, leaf,
                                     chosen_outcome="heads",
                                     source=_source(plan, _COIN))
        below = sorted(plan.after[first] | {first})
        target, pairs = below[b % len(below)], []
    pairs.append((Label(plan.steps[inner].source, _COIN.outcomes[c % 2]),
                  inner))
    return plan, condition_step(plan, target, pairs)


def _quadratic_topo(plan, ids):
    """The canonical step order as it was first written: predecessor sets
    from ``ordered_before`` on every pair, then the least ready step by
    ``Step.sort_key``, rescanning every unplaced step per placement."""
    idset = set(ids)
    preds = {i: {p for p in idset if plan.ordered_before(p, i)}
             for i in idset}
    order, placed = [], set()
    while len(order) < len(idset):
        ready = [i for i in idset - placed if preds[i] <= placed]
        nxt = min(ready, key=lambda i: plan.steps[i].sort_key())
        order.append(nxt)
        placed.add(nxt)
    return order


def _oracle_subtree(plan, root):
    """``root`` and every step below it in a tree plan, by a walk of the
    children of each step in ``plan.tree``."""
    children = {}
    for c, (p, _o) in plan.tree.items():
        children.setdefault(p, []).append(c)
    out, frontier = {root}, [root]
    while frontier:
        for c in children.get(frontier.pop(), ()):
            out.add(c)
            frontier.append(c)
    return out


def _assert_matches_oracles(plan, look):
    assert plan.after == _ordering_closure(plan.steps, plan.links, plan.tree)
    if plan.tree is not None:  # a tree plan is ordered by its tree alone
        for x in plan.steps:
            assert plan.after[x] | {x} == _oracle_subtree(plan, x), x
    if look:  # else the next plan derives its threats across two updates
        # before ``plan.threats`` is read, so the early exit runs from the
        # basis; a plan it clears keeps the empty set as its threats
        assert has_threat(plan) == bool(find_threats(plan))
        assert plan.threats == find_threats(plan)
    for ids in (plan.steps, [sid for sid, st in plan.steps.items()
                             if st.index % 2]):
        assert _canonical_topo(plan, ids) == _quadratic_topo(plan, ids)


@pytest.mark.parametrize("shape", ["dag", "tree"])
@settings(max_examples=150, deadline=None)
@given(moves=_moves)
def test_incremental_updates_match_from_scratch_oracles(shape, moves):
    """After every update, the ordering closure and the threat set derived
    from the parent equal ``_ordering_closure`` and ``find_threats`` run
    from scratch, and a link raises WouldCreateCycle exactly when the
    from-scratch closure does.  A tree plan refuses a link whose producer
    is not above its consumer, so each step's closure is the steps below
    it in the tree, even after a step is conditioned on a chance step in
    another branch.  A derived plan inherits none of its
    parent's cached facts, and the canonical step order equals the
    quadratic one.  Two plans on the way share a canonical key
    exactly when they share a text key."""
    plan = make_root_plan(problem(goals=("(p)", "(q)")), shape)
    plan.threats  # searches know the root's threats before refining it
    plans = [plan]
    for move, a, b, c, look in moves:
        if move == "step":
            op = _OPS[a % len(_OPS)]
            labels = _chance_labels(plan)
            if shape == "dag":
                pairs = [labels[b % len(labels)]] if labels and c % 2 else []
                plan, _sid = dag_add_step(plan, op, pairs,
                                          source=_source(plan, op))
            else:
                child = sorted(plan.tree)[b % len(plan.tree)]
                outcome = (op.outcomes[c % len(op.outcomes)]
                           if op.outcomes else None)
                plan, _sid, _leaves = tree_insert(
                    plan, op, plan.tree[child][0], child,
                    chosen_outcome=outcome, source=_source(plan, op))
        elif move == "link":
            link = _random_link(plan, a, b, c)
            if shape == "tree" and link.consumer not in \
                    _oracle_subtree(plan, link.producer) - {link.producer}:
                with pytest.raises(PlanGraphError,
                                   match="^not from a tree ancestor: "):
                    add_link(plan, link)
                continue
            try:
                plan = add_link(plan, link)
            except WouldCreateCycle:
                with pytest.raises(WouldCreateCycle):
                    _ordering_closure(plan.steps, plan.links | {link},
                                      plan.tree)
                continue
        elif move == "fork":
            plan, conditioned = _fork(plan, a, b, c)
            if conditioned is not None:
                plan = conditioned
        else:
            labels = _chance_labels(plan)
            if not labels:
                continue
            sid = sorted(plan.steps)[a % len(plan.steps)]
            conditioned = condition_step(plan, sid, [labels[b % len(labels)]])
            if conditioned is None:
                continue
            plan = conditioned
        if plan is not plans[-1]:  # a derived copy, not a no-op's plan
            assert not {"threats", "_step_order", "_goal_order"} \
                & plan.__dict__.keys()
        _assert_matches_oracles(plan, look)
        plans.append(plan)
    _assert_matches_oracles(plan, True)
    assert_keys_agree(plans)


def test_conditioned_tree_goals_and_outcomes_follow_contexts():
    """A tree plan whose steps were conditioned (the linear planner never
    conditions; the random moves above do): a flaw on a goal's tree path
    need not touch the goal, and a goal below an outcome need not serve
    it, so neither question is answered by tree paths alone."""
    plan = make_root_plan(problem(goals=()), "tree")
    flip = cond("flip", {"heads": ((), ()), "tails": ((), ())}, pre=["(p)"])
    plan, c, (tails,) = tree_insert(plan, flip, START_ID, "s1",
                                    chosen_outcome="heads", source="coin")
    plan, _look, (tails_false,) = tree_insert(
        plan, _obs("look", "x"), c, tails, chosen_outcome="true", source="x")
    plan = condition_step(plan, c, [(Label("x", "true"), START_ID)])
    plan = condition_step(plan, "s1", [(Label("x", "false"), START_ID)])
    # c's open precondition lies on every goal's path
    assert complete_goal_ids(plan) == ["s1", tails_false]
    assert uncovered_outcome_contexts(plan) == [
        frozenset({Label("x", "true"), Label("coin", "heads")})]
    _assert_matches_oracles(plan, True)


def _count_derives(monkeypatch):
    """Count the plans ``PlanGraph._derive`` builds from here on."""
    calls = []
    derive = PlanGraph._derive

    def counted(self, *args, **kw):
        calls.append(1)
        return derive(self, *args, **kw)

    monkeypatch.setattr(PlanGraph, "_derive", counted)
    return calls


def test_tree_insert_derives_its_child_once(monkeypatch):
    """A chance step inserted above a three-step subtree relabels the
    subtree and adds two goal leaves, all in one derived plan."""
    plan = make_root_plan(problem(), "tree")
    plan.threats
    plan, s2, _ = tree_insert(plan, det("a"), START_ID, "s1")
    plan, _s3, _ = tree_insert(plan, det("b"), s2, "s1")
    below = plan.after[s2] | {s2}
    assert len(below) == 3
    three = cond("roll", {o: ((), ()) for o in ("one", "two", "three")})
    calls = _count_derives(monkeypatch)
    plan, sid, leaves = tree_insert(plan, three, START_ID, s2,
                                    chosen_outcome="one", source="die")
    assert len(calls) == 1
    assert len(leaves) == 2
    for b in below:
        assert Label("die", "one") in plan.steps[b].context
    for gid, o in zip(leaves, ("two", "three")):
        assert plan.steps[gid].context == {Label("die", o)}
        assert plan.tree[gid] == (sid, o)
    assert plan.next_index == int(sid[1:]) + 3
    _assert_matches_oracles(plan, True)


def test_condition_step_derives_its_child_once(monkeypatch):
    """Conditioning the head of a three-step causal chain labels the whole
    chain and links each step to the chance step, in one derived plan."""
    plan = make_root_plan(problem(), "dag")
    plan, flip = dag_add_step(plan, cond("flip", {"heads": ((), ()),
                                                  "tails": ((), ())}), (),
                              source="coin")
    chain = []
    for name, pre, add in (("a", (), "(p)"), ("b", ("(p)",), "(q)"),
                           ("c", ("(q)",), "(r)")):
        plan, sid = dag_add_step(plan, det(name, pre=pre, add=[add]), ())
        if chain:
            plan = add_link(plan, Link("causal", chain[-1], sid,
                                       lit(pre[0])))
        chain.append(sid)
    plan.threats
    heads = Label("coin", "heads")
    calls = _count_derives(monkeypatch)
    out = condition_step(plan, chain[0], [(heads, flip)])
    assert len(calls) == 1
    for sid in chain:
        assert out.steps[sid].context == {heads}
        assert Link("conditioning", flip, sid, heads) in out.links
    _assert_matches_oracles(out, True)
    assert condition_step(out, chain[0], [(heads, flip)]) is out
    assert len(calls) == 1


def test_causal_link_discharges_its_open_goal(monkeypatch):
    """The refinement that links a producer to an open precondition is one
    derived plan, with the precondition no longer open."""
    plan = make_root_plan(problem(), "dag")
    plan, pid = dag_add_step(plan, det("make", add=["(g)"]), ())
    goal = ("s1", lit("(g)"))
    assert goal in plan.open_goals
    assert add_link(plan, Link("ordering", pid, "s1")).open_goals \
        == plan.open_goals
    calls = _count_derives(monkeypatch)
    linked = add_link(plan, Link("causal", pid, "s1", lit("(g)")))
    assert len(calls) == 1
    assert linked.open_goals == plan.open_goals - {goal}


# ---------------------------------------------------------------------------
# threats, against a permutation oracle


def _valid_orders(plan):
    ids = sorted(s for s in plan.steps if s != START_ID)
    constraints = [(l.producer, l.consumer) for l in plan.links
                   if l.producer != START_ID and l.producer != l.consumer]
    for perm in itertools.permutations(ids):
        pos = {s: i for i, s in enumerate(perm)}
        if all(pos[a] < pos[b] for a, b in constraints):
            yield pos


def _oracle_causal_threats(plan):
    found = set()
    orders = list(_valid_orders(plan))
    for link in plan.links:
        if link.kind != "causal":
            continue
        s, w, prop = link.producer, link.consumer, link.payload
        for v in plan.steps.values():
            if v.id in (s, w, START_ID):
                continue
            between = any(
                (s == START_ID or pos[s] < pos[v.id]) and pos[v.id] < pos[w]
                for pos in orders)
            if not between:
                continue
            variants = [None] if v.kind in ("det", "start") \
                else list(v.operator.outcomes)
            for o in variants:
                dels = set(deletes_for(v.operator, o)) | {
                    p.negate() for p in adds_for(v.operator, o)}
                if prop not in dels:
                    continue
                vctx = set(v.context)
                if o is not None and v.source:
                    vctx.add(Label(v.source, o))
                if contexts_compatible(vctx, plan.steps[s].context) and \
                        contexts_compatible(vctx, plan.steps[w].context):
                    found.add((v.id, link, o))
    return found


def _threat_plan():
    """start -> producer(p) -causal-> consumer, with a clobberer loose."""
    plan = make_root_plan(problem(), "dag")
    plan, prod = dag_add_step(plan, det("make-p", add=["(p)"]), ())
    plan, cons = dag_add_step(plan, det("use-p", pre=["(p)"], add=["(g)"]), ())
    plan = add_link(plan, Link("causal", prod, cons, lit("(p)")))
    return plan, prod, cons


def test_det_clobberer_found():
    plan, prod, cons = _threat_plan()
    plan, clob = dag_add_step(plan, det("wreck", delete=["(p)"]), ())
    got = {(t.step, t.link, t.outcome) for t in find_threats(plan)}
    assert got == _oracle_causal_threats(plan)
    assert any(t.step == clob for t in find_threats(plan))


def test_add_as_negation_clobbers():
    plan, prod, cons = _threat_plan()
    plan, _ = dag_add_step(plan, det("negate", add=["(not (p))"]), ())
    assert len(find_threats(plan)) == 1
    assert {(t.step, t.link, t.outcome) for t in find_threats(plan)} == \
        _oracle_causal_threats(plan)


def test_ordered_out_clobberer_is_safe():
    plan, prod, cons = _threat_plan()
    plan, clob = dag_add_step(plan, det("wreck", delete=["(p)"]), ())
    promoted = add_link(plan, Link("ordering", cons, clob))
    assert find_threats(promoted) == set()
    assert _oracle_causal_threats(promoted) == set()
    demoted = add_link(plan, Link("ordering", clob, prod))
    assert find_threats(demoted) == set()


def test_conditional_clobberer_names_outcome():
    plan, prod, cons = _threat_plan()
    chancy = cond("maybe-wreck", {"boom": ((), ["(p)"]), "fizzle": ((), ())})
    plan, cid = dag_add_step(plan, chancy, (), source="sX")
    threats = find_threats(plan)
    assert {(t.step, t.outcome) for t in threats} == {(cid, "boom")}
    assert {(t.step, t.link, t.outcome) for t in threats} == \
        _oracle_causal_threats(plan)


def test_conditioned_apart_clobberer_is_safe():
    plan, prod, cons = _threat_plan()
    chancy = cond("maybe-wreck", {"boom": ((), ["(p)"]), "fizzle": ((), ())})
    plan, cid = dag_add_step(plan, chancy, (), source="sX")
    # consumer committed to fizzle: the boom variant is incompatible
    plan2 = condition_step(plan, cons, [(Label("sX", "fizzle"), cid)])
    assert plan2 is not None
    assert find_threats(plan2) == set()
    assert _oracle_causal_threats(plan2) == set()


def test_outcome_threat_leaves_only_its_own_branch_unfinished():
    """A clobbering outcome's threat is a flaw in that outcome's branch
    alone: the goal under the other outcome is complete."""
    plan = make_root_plan(problem(goals=()), "dag")
    chancy = cond("maybe-wreck", {"boom": ((), ["(p)"]), "fizzle": ((), ())})
    plan, cid = dag_add_step(plan, chancy, (), source="sX")
    plan = condition_step(plan, "s1", [(Label("sX", "fizzle"), cid)])
    plan, _boom_goal = dag_add_step(plan, plan.goal_op,
                                    [(Label("sX", "boom"), cid)])
    plan, prod = dag_add_step(plan, det("make-p", add=["(p)"]), ())
    plan, cons = dag_add_step(plan, det("use-p", pre=["(p)"]), ())
    link = Link("causal", prod, cons, lit("(p)"))
    plan = add_link(plan, link)
    assert plan.threats == {Threat(cid, link, "boom")}
    assert complete_goal_ids(plan) == ["s1"]


def test_ignorance_threats():
    plan = make_root_plan(problem(), "dag")
    walk = cond("walk", {"arrive": (["(g)"], ()), "slip": ((), ())})
    plan, wid = dag_add_step(plan, walk, (), source="sW")
    plan = add_link(plan, Link("ignorance", START_ID, wid, "x"))
    looker = GroundOperator(name="look", kind="obs", outcomes=("true", "false"),
                            observes="x")
    plan, lid = dag_add_step(plan, looker, (), source="x")
    threats = find_threats(plan)
    assert [(t.step, t.link.kind) for t in threats] == [(lid, "ignorance")]
    # ordering the observation after the protected step clears it
    plan2 = add_link(plan, Link("ordering", wid, lid))
    assert find_threats(plan2) == set()


def test_influence_threats():
    """A step that can run between an influence link's ends and writes its
    variable, in some outcome compatible with both ends, threatens it; a
    step that leaves the variable alone does not."""
    plan = make_root_plan(problem(), "dag")
    plan, setter = dag_add_step(plan, det("set-x", add=["(x)"]), ())
    fly = cond("fly", {"ok": (["(g)"], ()), "fail": ((), ())})
    plan, fid = dag_add_step(plan, fly, (), source="sF")
    link = Link("influence", setter, fid, "x")
    plan = add_link(plan, link)
    flip = cond("flip", {"heads": ((), ["(x)"]), "tails": (["(q)"], ())})
    plan, cid = dag_add_step(plan, flip, (), source="sC")
    plan, _ = dag_add_step(plan, det("make-q", add=["(q)"]), ())
    assert find_threats(plan) == {Threat(cid, link, "heads")}
    # ordered after the consumer, the writer no longer threatens the link
    assert find_threats(add_link(plan, Link("ordering", fid, cid))) == set()
    # nor under an outcome the consumer's context rules out
    plan = condition_step(plan, fid, [(Label("sC", "tails"), cid)])
    assert find_threats(plan) == set()


# ---------------------------------------------------------------------------
# conditioning


def test_condition_step_propagates_downstream():
    plan = make_root_plan(problem(), "dag")
    chancy = cond("flip", {"heads": (["(p)"], ()), "tails": ((), ())})
    plan, cid = dag_add_step(plan, chancy, (), source="sC")
    plan, uid = dag_add_step(plan, det("use-p", pre=["(p)"]), ())
    plan = add_link(plan, Link("causal", cid, uid, lit("(p)")))
    lab = Label("sC", "heads")
    plan2 = condition_step(plan, cid, [(lab, cid)])
    assert plan2 is not None
    assert lab in plan2.steps[uid].context  # consumer inherits the label
    assert plan2.ordered_before(cid, uid)


def test_condition_step_contradiction_returns_none():
    plan = make_root_plan(problem(), "dag")
    plan, sid = dag_add_step(plan, det("a"), ())
    plan2 = condition_step(plan, sid, [(Label("v", "x"), START_ID)])
    assert plan2 is not None
    assert condition_step(plan2, sid, [(Label("v", "y"), START_ID)]) is None


# ---------------------------------------------------------------------------
# tree insertion


def _tree_setup():
    prob = problem(goals=("(g)",))
    plan = make_root_plan(prob, "tree")
    return plan


def test_tree_insert_det_on_edge():
    plan = _tree_setup()
    plan, sid, new_goals = tree_insert(plan, det("a", add=["(g)"]),
                                       START_ID, "s1")
    assert new_goals == []
    assert plan.tree[sid] == (START_ID, None)
    assert plan.tree["s1"] == (sid, None)
    assert plan.ordered_before(sid, "s1")


def test_tree_insert_cond_relabels_subtree_and_adds_leaves():
    plan = _tree_setup()
    plan, aid, _ = tree_insert(plan, det("a", add=["(g)"]), START_ID, "s1")
    chancy = cond("flip", {"heads": (["(g)"], ()), "tails": ((), ())})
    plan, cid, new_goals = tree_insert(plan, chancy, START_ID, aid,
                                       chosen_outcome="heads", source="sC")
    heads = Label("sC", "heads")
    # everything under the insertion point now carries the heads label
    assert heads in plan.steps[aid].context
    assert heads in plan.steps["s1"].context
    assert len(new_goals) == 1
    tails_goal = plan.steps[new_goals[0]]
    assert tails_goal.context == frozenset({Label("sC", "tails")})
    assert plan.tree[new_goals[0]] == (cid, "tails")


def test_tree_insert_skips_inconsistent_alternative():
    plan = _tree_setup()
    chancy = cond("flip", {"heads": (["(g)"], ()), "tails": ((), ())})
    plan, cid, goals1 = tree_insert(plan, chancy, START_ID, "s1",
                                    chosen_outcome="heads", source="sC")
    # a second flip bound to the same source: the tails-tails leaf under a
    # heads-committed subtree would be inconsistent and must not appear
    plan, cid2, goals2 = tree_insert(plan, chancy, cid, "s1",
                                     chosen_outcome="heads", source="sC")
    assert goals2 == []


def test_tree_plan_links_only_from_above():
    """A tree plan takes a link, or a conditioning on an outcome, only from
    a step above the consumer: one from a sibling branch or from below is
    refused, and the plan's order stays its tree."""
    plan = _tree_setup()
    plan, aid, _ = tree_insert(plan, det("a", add=["(p)"]), START_ID, "s1")
    flip = cond("flip", {"heads": ((), ()), "tails": ((), ())})
    plan, cid, (tails,) = tree_insert(plan, flip, START_ID, aid,
                                      chosen_outcome="heads", source="coin")
    plan, look, _ = tree_insert(plan, _obs("look", "x"), cid, tails,
                                chosen_outcome="true", source="x")
    for producer, consumer in ((aid, tails), ("s1", aid), (look, "s1")):
        with pytest.raises(PlanGraphError, match="^not from a tree ancestor"):
            add_link(plan, Link("ordering", producer, consumer))
    assert condition_step(plan, "s1", [(Label("x", "true"), look)]) is None
    linked = add_link(plan, Link("causal", aid, "s1", lit("(p)")))
    assert linked.after == plan.after
    _assert_matches_oracles(linked, True)


# ---------------------------------------------------------------------------
# linearizations


def test_linearizations_of_unordered_pair():
    plan = make_root_plan(problem(), "dag")
    plan, a = dag_add_step(plan, det("a", add=["(g)"]), ())
    plan, b = dag_add_step(plan, det("b"), ())
    orders = set(linearizations(plan, frozenset()))
    assert orders == {(a, b, "s1"), (b, a, "s1"), (a, "s1", b),
                      (b, "s1", a), ("s1", a, b), ("s1", b, a)}
    plan = add_link(plan, Link("ordering", a, b))
    plan = add_link(plan, Link("ordering", b, "s1"))
    assert list(linearizations(plan, frozenset())) == [(a, b, "s1")]


# ---------------------------------------------------------------------------
# extraction and serialization


def _covered_flip_plan():
    """flip; heads -> goal via (g); tails uncovered."""
    plan = make_root_plan(problem(), "dag")
    chancy = cond("flip", {"heads": (["(g)"], ()), "tails": ((), ())},
                  dist={"heads": 0.7, "tails": 0.3})
    # chancy steps carry their own id as label source, as the planners do
    plan, cid = dag_add_step(plan, chancy, (),
                             source=f"s{plan.next_index}")
    plan = condition_step(plan, "s1", [(Label(cid, "heads"), cid)])
    plan = add_link(plan, Link("causal", cid, "s1", lit("(g)")))
    return plan, cid


def test_extract_raises_while_flawed():
    plan = make_root_plan(problem(), "dag")
    with pytest.raises(IncompletePlan):
        extract_conditional_plan(plan)


def test_extract_covered_branch_with_giveup():
    plan, cid = _covered_flip_plan()
    assert complete_goal_ids(plan) == ["s1"]
    cp = extract_conditional_plan(plan, covered=["s1"])
    assert cp.uncovered == (frozenset({Label(cid, "tails")}),)
    leaves = list(cp.leaves())
    kinds = sorted(type(l).__name__ for l in leaves)
    assert kinds == ["GiveUpLeaf", "GoalLeaf"]


def test_json_roundtrip():
    plan, _cid = _covered_flip_plan()
    cp = extract_conditional_plan(plan, covered=["s1"])
    doc = cp.to_json_dict()
    again = read_plan_document(doc).plan
    assert again.to_json_dict() == doc
    assert again.goal_contexts == cp.goal_contexts
    assert again.uncovered == cp.uncovered


@pytest.mark.parametrize("name", sorted(WORLDS))
@pytest.mark.parametrize("planner", [plan_linear, plan_nonlinear])
def test_plan_document_roundtrip(name, planner):
    """A plan document read back from JSON holds the planned tree, the
    problem's priors in dependency order and its known facts."""
    gdom, prob = load_texts(*WORLDS[name])
    res = planner(gdom, prob)
    doc = json.loads(json.dumps(plan_document(res, prob, "kbmc")))
    read = read_plan_document(doc)
    tree = read.plan.to_json_dict()
    assert tree == res.conditional.to_json_dict() == {k: doc[k] for k in tree}
    assert read.priors == list(prob.priors) == domain.ordered_clauses(
        prob.priors, MalformedPlan)
    assert read.known_true == sorted(prob.known_true)
    assert read.known_false == sorted(prob.known_false)
    assert read.achieved_mass == res.bound.achieved_mass


def text_key(plan):
    """A plan's steps, links, tree edges and open flaws rendered to text:
    ``canonical_key`` must tell plans apart exactly as this oracle does."""
    def ctx_text(ctx):
        return "{" + ", ".join(lab.text() for lab in sorted(ctx)) + "}"
    parts = [f"{st.id}={st.operator.name}@{ctx_text(st.context)}"
             for st in sorted(plan.steps.values(), key=lambda s: s.index)]
    parts.append("L:" + ";".join(sorted(l.text() for l in plan.links)))
    if plan.tree:
        parts.append("T:" + ";".join(
            f"{p}>{c}:{o}" for c, (p, o) in sorted(plan.tree.items())))
    parts.append("G:" + ";".join(sorted(f"{sid}|{p.text()}"
                                        for sid, p in plan.open_goals)))
    parts.append("I:" + ";".join(sorted(f"{sid}|{v}"
                                        for sid, v in plan.open_influences)))
    return "\n".join(parts)


def assert_keys_agree(plans):
    """Two of ``plans`` share a canonical key exactly when they share a
    text key."""
    pairs = {(text_key(p), canonical_key(p)) for p in plans}
    assert len(pairs) == len({t for t, _k in pairs}) \
        == len({k for _t, k in pairs})


def test_canonical_key_distinguishes_orderings():
    plan = make_root_plan(problem(), "dag")
    plan, a = dag_add_step(plan, det("a"), ())
    plan, b = dag_add_step(plan, det("b"), ())
    k0 = canonical_key(plan)
    k1 = canonical_key(add_link(plan, Link("ordering", a, b)))
    k2 = canonical_key(add_link(plan, Link("ordering", b, a)))
    assert len({k0, k1, k2}) == 3


def test_to_dot_mentions_steps_and_links():
    plan, cid = _covered_flip_plan()
    dot = to_dot(plan)
    assert '"start"' in dot and f'"{cid}"' in dot
    assert "digraph" in dot and dot.endswith("}\n")


_WORDS = st.text("ab-=?", min_size=1, max_size=3)
_LABELS = st.builds(Label, _WORDS, _WORDS)


@settings(max_examples=200, deadline=None)
@given(st.lists(_LABELS, max_size=8))
def test_labels_sort_by_source_then_outcome(labels):
    assert sorted(labels) == sorted(
        labels, key=lambda lab: (lab.source, lab.outcome))


@settings(max_examples=200, deadline=None)
@given(_LABELS, _WORDS, _WORDS, _WORDS, st.booleans(),
       st.one_of(st.none(), _WORDS))
def test_label_link_and_threat_strings_and_values(lab, a, b, name, negated,
                                                  outcome):
    s, o = lab.source, lab.outcome
    assert repr(lab) == f"Label(source={s!r}, outcome={o!r})"
    assert lab.text() == f"{s}={o}"
    assert lab == (s, o) and hash(lab) == hash((s, o))
    prop = lit(f"({name} {a})")
    if negated:
        prop = prop.negate()
    # a Label payload prints as source=outcome, a Proposition as its text
    cases = [(Link("conditioning", a, b, lab), lab.text()),
             (Link("causal", a, b, prop), prop.text()),
             (Link("influence", a, b, name), name),
             (Link("ordering", a, b), "")]
    for link, payload in cases:
        body = f"{link.kind} {payload}" if payload else link.kind
        assert link.text() == f"{a} -[{body}]-> {b}"
        assert repr(link) == (
            f"Link(kind={link.kind!r}, producer={a!r}, consumer={b!r}, "
            f"payload={link.payload!r})")
        assert link == (link.kind, a, b, link.payload)
        threat = Threat(name, link, outcome)
        assert repr(threat) == (f"Threat(step={name!r}, link={link!r}, "
                                f"outcome={outcome!r})")
        assert threat == (name, link, outcome)
        assert Threat(name, link) == Threat(name, link, None)
