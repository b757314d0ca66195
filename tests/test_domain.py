"""Domain language: parsing, rendering, grounding, validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskplan.domain import (DependencyCycle, Proposition, dependency_order,
                             ground, parse_domain, parse_problem,
                             prop_from_text, render_domain, render_problem,
                             validate_problem, var_id)
from riskplan.errors import (DomainSyntaxError, DomainValidationError,
                             GroundingError)
from riskplan.worlds import load_texts, ski_world, slippery_walk

SKI_DOMAIN, SKI_PROBLEM = ski_world()


def test_proposition_text_roundtrip():
    p = Proposition("on", ("a", "b"))
    assert p.text() == "(on a b)"
    assert p.negate().text() == "(not (on a b))"
    assert prop_from_text("(not (on a b))") == p.negate()
    assert prop_from_text(p.text()) == p
    assert p.negate().positive == p


def test_var_id_forms():
    assert var_id(Proposition("blizzard")) == "blizzard"
    assert var_id(Proposition("clear", ("b", "snowbird"))) == "clear(b,snowbird)"


def test_parse_ski_domain():
    d = parse_domain(SKI_DOMAIN)
    assert len(d.operators) == 6
    assert len(d.clauses) == 3
    drive = next(o for o in d.operators if o.name == "drive-b-snowbird")
    assert drive.kind == "det"
    assert prop_from_text("(clear b snowbird)") in drive.preconditions
    check = next(o for o in d.operators if o.name == "check-road-b-snowbird")
    assert check.kind == "obs"
    assert check.outcomes.outcomes == ("true", "false")


def test_parse_problem():
    p = parse_problem(SKI_PROBLEM)
    assert p.epsilon == 0.1
    assert prop_from_text("(at b)") in p.known_true
    assert prop_from_text("(at c)") in p.known_false
    assert p.goals == (prop_from_text("(at-resort)"),)


def test_render_roundtrip():
    d = parse_domain(SKI_DOMAIN)
    assert parse_domain(render_domain(d)) == d
    p = parse_problem(SKI_PROBLEM)
    assert parse_problem(render_problem(p)) == p


def test_comments_and_whitespace_ignored():
    d = parse_domain("; nothing here\n(operator a (kind det) (add (x)))\n")
    assert d.operators[0].name == "a"


@pytest.mark.parametrize("text,fragment", [
    ("(operator)", "operator needs a name"),
    ("(operator a (kind banana))", "kind"),
    ("(operator a (kind det) (outcomes (x)))", "add/del"),
    ("(operator a (kind cond) (add (p)))", "outcomes"),
    ("(unknown-form)", "unknown-form"),
    ("(operator a (kind det) (add (p))", "unclosed"),
])
def test_malformed_domains_rejected(text, fragment):
    with pytest.raises((DomainSyntaxError, DomainValidationError)) as e:
        parse_domain(text)
    assert fragment in str(e.value)


def test_syntax_error_carries_position():
    with pytest.raises(DomainSyntaxError) as e:
        parse_domain("(operator a\n  (kind nope))")
    assert e.value.line == 2


def test_outcome_probabilities_must_sum_to_one():
    cases = [
        ("(x (prob 0.5)) (y (prob 0.4))", DomainValidationError),
        ("(x (prob 1.5)) (y (prob -0.5))", DomainValidationError),
        ("(x (prob nan)) (y (prob nan))", DomainValidationError),
        ("(x (prob)) (y (prob 1.0))", DomainSyntaxError),
    ]
    for outcomes, error in cases:
        with pytest.raises(error):
            parse_domain(f"(operator a (kind cond) (outcomes {outcomes}))")


def test_negated_preconditions_parse_and_ground():
    g = ground(parse_domain(
        "(operator a (kind det) (pre (not (x))) (add (g)))"))
    assert g.operators[0].preconditions[0].negated


def test_types_splice_tuple_members():
    g = ground(parse_domain("""
        (types (road (b snowbird) (c parkcity)))
        (operator drive (params (?r road)) (kind det)
          (pre (clear ?r)) (add (at-resort)))
        """))
    names = sorted(op.name for op in g.operators)
    assert names == ["drive(b,snowbird)", "drive(c,parkcity)"]
    pre = {op.name: op.preconditions[0].text() for op in g.operators}
    assert pre["drive(b,snowbird)"] == "(clear b snowbird)"


def test_unknown_type_raises():
    with pytest.raises(GroundingError):
        ground(parse_domain(
            "(operator a (params (?x nosuch)) (kind det) (add (p ?x)))"))


def test_ground_clauses_attach_to_problem():
    gdom, problem = load_texts(SKI_DOMAIN, SKI_PROBLEM)
    assert {c.var for c in problem.priors} == {
        "blizzard", "clear(b,snowbird)", "clear(c,parkcity)"}
    cbs = gdom.clause_by_var["clear(b,snowbird)"]
    assert cbs.parents == ("blizzard",)
    assert cbs.cpt[("true", "true")] == 0.1
    assert cbs.cpt[("true", "false")] == 0.999


def test_effective_deletes_include_negated_adds():
    gdom, _ = load_texts(SKI_DOMAIN, SKI_PROBLEM)
    drive = gdom.operator("drive-b-snowbird")
    assert prop_from_text("(not (at snowbird))") in drive.effective_deletes(None)
    assert prop_from_text("(at b)") in drive.effective_deletes(None)


def test_touches_variable():
    gdom, _ = load_texts(SKI_DOMAIN, SKI_PROBLEM)
    check = gdom.operator("check-road-b-snowbird")
    assert check.touches_variable("clear(b,snowbird)")
    assert not check.touches_variable("clear(c,parkcity)")
    assert gdom.operator("drive-b-c").touches_variable("at(c)")


def test_delete_effects_establish_negations():
    # an outcome that only deletes x still forces x false, so it must be
    # offered as a producer of (not (x)) and count as touching x
    text = """
    (operator look (kind obs) (observes (x))
      (outcomes (true (add (x))) (false (del (x)))))
    (operator wipe (kind det) (del (x)))
    (clause (head (x) (true false)) (cpt ((true) 0.4) ((false) 0.6)))
    """
    gdom = ground(parse_domain(text))
    not_x = prop_from_text("(not (x))")
    assert gdom.operator("look").establishing_outcomes(not_x) == ["false"]
    assert gdom.operator("wipe").establishing_outcomes(not_x) == [None]
    assert gdom.operator("wipe").touches_variable("x")


def test_effect_values_apply_deletes_then_adds():
    gdom = ground(parse_domain("""
    (operator dry (kind det) (del (not (x))))
    (operator both (kind det) (add (x)) (del (x) (y)))
    """))
    dry, both = gdom.operator("dry"), gdom.operator("both")
    assert dry.effect_values(None) == {"x": "true"}
    assert dry.establishing_outcomes(prop_from_text("(x)")) == [None]
    assert dry.establishing_outcomes(prop_from_text("(not (x))")) == []
    assert both.effect_values(None) == {"x": "true", "y": "false"}
    assert both.establishing_outcomes(prop_from_text("(not (x))")) == []


def test_cyclic_clauses_rejected():
    text = """
    (clause (head (a) (true false)) (body (b))
            (cpt ((true true) 0.5) ((false true) 0.5)
                 ((true false) 0.5) ((false false) 0.5)))
    (clause (head (b) (true false)) (body (a))
            (cpt ((true true) 0.5) ((false true) 0.5)
                 ((true false) 0.5) ((false false) 0.5)))
    """
    with pytest.raises(DomainValidationError,
                       match=r"^clause set is cyclic: a -> b -> a$"):
        parse_domain(text)


def test_cycle_after_grounding_rejected():
    # by name, the last (p ...) clause has no body, so p -> q -> p is not
    # a cycle until the clauses are grounded
    text = """
    (clause (head (p a) (true false)) (body (q))
            (cpt ((true true) 0.5) ((false true) 0.5)
                 ((true false) 0.5) ((false false) 0.5)))
    (clause (head (q) (true false)) (body (p a))
            (cpt ((true true) 0.5) ((false true) 0.5)
                 ((true false) 0.5) ((false false) 0.5)))
    (clause (head (p b) (true false)) (cpt ((true) 0.5) ((false) 0.5)))
    """
    domain = parse_domain(text)
    with pytest.raises(GroundingError,
                       match=r"^clause set is cyclic: p\(a\) -> q -> p\(a\)$"):
        ground(domain)


def _recursive_post_order(roots, deps):
    order, seen = [], set()

    def visit(v):
        if v in seen:
            return
        seen.add(v)
        for d in deps.get(v, ()):
            visit(d)
        order.append(v)

    for r in roots:
        visit(r)
    return order


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.permutations([f"v{i}" for i in range(n)]),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
             max_size=20),
    st.permutations(range(n)),
    st.integers(0, n - 1), st.integers(0, 10 ** 6))))
def test_dependency_order_matches_recursive_dfs(case):
    names, pairs, roots, back_from, pick = case
    # edges run from a later name to an earlier one, so the graph is a DAG
    deps: dict[str, list[str]] = {}
    for a, b in pairs:
        if a > b and names[b] not in deps.get(names[a], []):
            deps.setdefault(names[a], []).append(names[b])
    root_names = [names[i] for i in roots]
    order = dependency_order(root_names, deps)
    assert order == _recursive_post_order(root_names, deps)
    assert sorted(order) == sorted(names)

    # an edge back to ``start`` from anything it reaches (itself included)
    # closes a cycle, which the walk must report
    start = names[back_from]
    reach = _recursive_post_order([start], deps)
    end = reach[pick % len(reach)]
    looped = {k: list(v) for k, v in deps.items()}
    looped.setdefault(end, []).append(start)
    with pytest.raises(DependencyCycle) as info:
        dependency_order(root_names, looped)
    path = info.value.args[0]
    assert path[-1] in path[:-1]


def test_validate_ski_is_clean():
    gdom, problem = load_texts(SKI_DOMAIN, SKI_PROBLEM)
    assert validate_problem(problem, gdom) == []


def _diag_codes(domain_text, problem_text):
    gdom, problem = load_texts(domain_text, problem_text)
    return {d.code for d in validate_problem(problem, gdom)}


def test_validate_uncovered_proposition():
    codes = _diag_codes("(operator a (kind det) (pre (q)) (add (g)))",
                        "(problem (init (not (g))) (goal (g)) (epsilon 0))")
    assert "uncovered-proposition" in codes


def test_validate_doubly_governed():
    codes = _diag_codes(
        "(operator a (kind det) (pre (x)) (add (g)))\n"
        "(clause (head (x) (true false)) (cpt ((true) 0.5) ((false) 0.5)))",
        "(problem (init (x) (not (g))) (goal (g)) (epsilon 0))")
    assert "doubly-governed" in codes


def test_validate_observation_of_unknown():
    codes = _diag_codes(
        "(operator look (kind obs) (observes (x)) (outcomes (true) (false)))\n"
        "(operator a (kind det) (add (g)))",
        "(problem (init (not (g))) (goal (g)) (epsilon 0))")
    assert "observation-of-unknown-variable" in codes


def test_validate_outcome_space_mismatch():
    codes = _diag_codes(
        "(operator look (kind obs) (observes (x)) (outcomes (yes) (no)))\n"
        "(operator a (kind det) (add (g)))\n"
        "(clause (head (x) (true false)) (cpt ((true) 0.5) ((false) 0.5)))",
        "(problem (init (not (g))) (goal (g)) (epsilon 0))")
    assert "outcome-space-mismatch" in codes


def test_validate_missing_cpt_row():
    codes = _diag_codes(
        "(operator w (kind cond) (outcomes (a (add (g))) (b))\n"
        "  (influences (x)) (cpt ((a true) 0.5) ((b true) 0.5)))\n"
        "(clause (head (x) (true false)) (cpt ((true) 0.5) ((false) 0.5)))",
        "(problem (init (not (g))) (goal (g)) (epsilon 0))")
    assert "missing-cpt-row" in codes


def test_validate_conditional_without_distribution():
    codes = _diag_codes(
        "(operator w (kind cond) (outcomes (a (add (g))) (b)))",
        "(problem (init (not (g))) (goal (g)) (epsilon 0))")
    assert "conditional-without-distribution" in codes


def test_epsilon_range_checked():
    with pytest.raises(DomainValidationError):
        parse_problem("(problem (init) (goal (g)) (epsilon 1.5))")
    # 1.0 is allowed at the API level; the CLI is stricter
    p = parse_problem("(problem (init) (goal (g)) (epsilon 1.0))")
    assert p.epsilon == 1.0


def test_slippery_walk_parses():
    gdom, problem = load_texts(*slippery_walk())
    walk = gdom.operator("walk")
    assert walk.influences == ("rain",)
    assert walk.cpt[("arrive", "true")] == 0.6
    assert validate_problem(problem, gdom) == []
