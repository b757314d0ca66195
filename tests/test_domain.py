"""Domain language: parsing, rendering, grounding, validation."""

import dataclasses
import itertools
import json
import random
import re
from collections import Counter
from typing import Mapping, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskplan.conditional import plan_document, read_plan_document
from riskplan.domain import (_LITERAL, DependencyCycle, Diagnostic, Domain,
                             GroundClause, GroundOperator, KbmcClause,
                             OperatorSchema, Problem, Proposition,
                             _parse_literal, _read_forms, complete_clauses,
                             cut_rows, dependency_order, distribution_rows,
                             ground,
                             literal_values, parse_domain, parse_problem,
                             prop_from_text, validate_problem, var_id)
from riskplan.errors import (DomainSyntaxError, DomainValidationError,
                             GroundingError, MalformedPlan, ModelError)
from riskplan.linear import plan_linear
from riskplan.nonlinear import plan_nonlinear
from riskplan.plangraph import make_root_plan
from riskplan.probmodel import build_initial_net
from riskplan.simulator import estimate_success, exhaustive_success
from riskplan.worlds import (det_chain, load_texts, nroad_world, ski_world,
                             slippery_walk, sussman)

from .gen import adds_for, deletes_for, operator_named, solvable_domain
from .test_simulator import ALPHA, WORLDS

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
    assert check.outcomes == ("true", "false")


def test_parse_problem():
    p = parse_problem(SKI_PROBLEM)
    assert p.epsilon == 0.1
    assert prop_from_text("(at b)") in p.known_true
    assert prop_from_text("(at c)") in p.known_false
    assert p.goals == (prop_from_text("(at-resort)"),)


# A canonical renderer, the inverse of the parser: the round-trip tests
# below parse what it writes and expect the same domain or problem back.
def _fmt_num(x: float) -> str:
    return repr(float(x))


def _render_lits(tag: str, lits: Sequence[Proposition]) -> str:
    return "(" + tag + " " + " ".join(l.text() for l in lits) + ")"


def _render_cpt(cpt: Mapping[tuple[str, ...], float]) -> str:
    rows = " ".join(
        f"(({' '.join(key)}) {_fmt_num(p)})" for key, p in sorted(cpt.items()))
    return f"(cpt {rows})"


def _render_operator(op: OperatorSchema) -> str:
    parts = [f"(operator {op.name}"]
    if op.params:
        parts.append("  (params " + " ".join(f"({v} {t})" for v, t in op.params) + ")")
    if op.preconditions:
        parts.append("  " + _render_lits("pre", op.preconditions))
    parts.append(f"  (kind {op.kind})")
    if op.kind == "det":
        if op.add:
            parts.append("  " + _render_lits("add", op.add))
        if op.delete:
            parts.append("  " + _render_lits("del", op.delete))
    else:
        olines = []
        for o in op.outcomes:
            sects = []
            if op.simple_distribution is not None:
                sects.append(f"(prob {_fmt_num(op.simple_distribution[o])})")
            if op.outcome_adds.get(o):
                sects.append(_render_lits("add", op.outcome_adds[o]))
            if op.outcome_dels.get(o):
                sects.append(_render_lits("del", op.outcome_dels[o]))
            olines.append("(" + " ".join([o] + sects) + ")")
        parts.append("  (outcomes " + "\n            ".join(olines) + ")")
        if op.observes is not None:
            parts.append(f"  (observes {op.observes.text()})")
        if op.influences:
            parts.append("  (influences " + " ".join(v.text() for v in op.influences) + ")")
        if op.cpt is not None:
            parts.append("  " + _render_cpt(op.cpt))
    return "\n".join(parts) + ")"


def _render_clause(c: KbmcClause) -> str:
    parts = ["(clause"]
    if c.params:
        parts.append(" (params " + " ".join(f"({v} {t})" for v, t in c.params) + ")")
    parts.append(f" (head {c.head.text()} ({' '.join(c.space)}))")
    if c.body:
        parts.append(" (body " + " ".join(b.text() for b in c.body) + ")")
    parts.append(" " + _render_cpt(c.cpt))
    return "".join(parts) + ")"


def render_domain(domain: Domain) -> str:
    chunks = []
    if domain.types:
        tys = []
        for tname, members in domain.types.items():
            ms = " ".join(
                "(" + " ".join(m) + ")" if isinstance(m, tuple) else m
                for m in members)
            tys.append(f"({tname} {ms})")
        chunks.append("(types " + " ".join(tys) + ")")
    chunks.extend(_render_operator(op) for op in domain.operators)
    chunks.extend(_render_clause(c) for c in domain.clauses)
    return "\n\n".join(chunks) + "\n"


def render_problem(problem: Problem) -> str:
    lits = [p.text() for p in sorted(problem.known_true)]
    lits += [p.negate().text() for p in sorted(problem.known_false)]
    lines = ["(problem",
             "  (init " + " ".join(lits) + ")",
             "  " + _render_lits("goal", problem.goals),
             f"  (epsilon {_fmt_num(problem.epsilon)}))"]
    return "\n".join(lines) + "\n"


def test_render_roundtrip():
    d = parse_domain(SKI_DOMAIN)
    assert parse_domain(render_domain(d)) == d
    p = parse_problem(SKI_PROBLEM)
    assert parse_problem(render_problem(p)) == p


_FUZZ_SEEDS = [ski_world()[0], sussman()[0], slippery_walk()[0],
               nroad_world(2)[0], "(types (block a b))\n(operator put "
               "(params (?x block)) (kind det) (add (on ?x)))"]
_FUZZ_WORDS = ["(", ")", "()", "(cpt)", "(add)", "(influences)",
               "(outcomes)", "kind", "det", "cond", "obs", "outcomes",
               "add", "del", "prob", "cpt", "influences", "observes", "pre",
               "params", "clause", "head", "body", "types", "not", "?x",
               "x", "true", "0.5", "1.5", "-1", "nan", "inf", "1e999", ";"]


def _tokens(text):
    """Parens and atoms; comments dropped, since the tokens are joined on
    one line."""
    return re.findall(r"[()]|[^\s();]+", re.sub(r";[^\n]*", "", text))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_FUZZ_SEEDS),
       st.lists(st.tuples(st.sampled_from(["delete", "insert", "replace"]),
                          st.integers(0, 10 ** 6),
                          st.sampled_from(_FUZZ_WORDS)),
                min_size=1, max_size=4))
def test_mutated_domains_parse_and_round_trip_or_raise(seed, edits):
    """Mutated domain text either parses, and then survives a render and
    parse unchanged, or raises one of the errors the CLI reports with exit
    code 1.  Any other exception fails."""
    toks = _tokens(seed)
    for what, at, word in edits:
        if what == "insert":  # after a closing paren, where sections start
            ends = [i + 1 for i, t in enumerate(toks) if t == ")"] or [0]
            toks.insert(ends[at % len(ends)], word)
        elif toks:
            at %= len(toks)
            if what == "delete":
                del toks[at]
            else:
                toks[at] = word
    try:
        d = parse_domain(" ".join(toks))
    except (DomainSyntaxError, DomainValidationError):
        return
    assert parse_domain(render_domain(d)) == d


def test_comments_and_whitespace_ignored():
    d = parse_domain("; nothing here\n(operator a (kind det) (add (x)))\n")
    assert d.operators[0].name == "a"


def _repeat(what, head, text):
    """(text, the error it raises): the text repeats section ``head`` of
    a ``what``, refused at the column of its second occurrence."""
    col = text.index(f"({head} ", text.index(f"({head} ") + 1) + 1
    return text, f"line 1, col {col}: repeated {what} section {head!r}"


@pytest.mark.parametrize("text,fragment", [
    ("(operator)", "operator needs a name"),
    ("(operator a (kind banana))", "kind"),
    ("(operator a (kind det) (outcomes (x)))", "add/del"),
    ("(operator a (kind cond) (add (p)))", "outcomes"),
    ("(unknown-form)", "unknown-form"),
    ("(operator a (kind det) (add (p))", "unclosed"),
    # an empty section is still a section
    ("(operator a (kind det) (add (x)) (cpt))", "add/del"),
    ("(operator a (kind obs) (observes (x)) (outcomes (t) (f)) (cpt))",
     "observed variable"),
    # a repeated section is refused at its second occurrence
    _repeat("operator", "params",
            "(operator a (params (?x t)) (params (?y t)) (kind det))"),
    _repeat("operator", "kind", "(operator a (kind det) (kind det))"),
    _repeat("operator", "pre", "(operator a (kind det) (pre (p)) (pre (q)))"),
    _repeat("operator", "add", "(operator setx (kind det) (add (x)) (add (a)))"),
    _repeat("operator", "del", "(operator a (kind det) (del (x)) (del (a)))"),
    _repeat("operator", "observes", "(operator a (kind obs) (observes (x)) "
            "(observes (y)) (outcomes (true) (false)))"),
    _repeat("operator", "influences", "(operator a (kind cond) (influences "
            "(x)) (influences (y)) (outcomes (a) (b)))"),
    _repeat("operator", "cpt", "(operator a (kind cond) (influences (x)) "
            "(outcomes (a) (b)) (cpt ((a true) 1) ((b true) 0)) "
            "(cpt ((a true) 1) ((b true) 0)))"),
    _repeat("outcome", "prob",
            "(operator a (kind cond) (outcomes (o (prob 1) (prob 1))))"),
    _repeat("outcome", "add",
            "(operator a (kind cond) (outcomes (o (add (x)) (add (y)))))"),
    _repeat("outcome", "del",
            "(operator a (kind cond) (outcomes (o (del (x)) (del (y)))))"),
    _repeat("clause", "params", "(clause (params (?x t)) (params (?x t)) "
            "(head (x) (t f)) (cpt ((t) 1) ((f) 0)))"),
    _repeat("clause", "head", "(clause (head (x) (t f)) (head (y) (t f)) "
            "(cpt ((t) 1) ((f) 0)))"),
    _repeat("clause", "body", "(clause (head (x) (t f)) (body (y)) (body (z)) "
            "(cpt ((t t) 1) ((f t) 0) ((t f) 1) ((f f) 0)))"),
    _repeat("clause", "cpt", "(clause (head (x) (t f)) (cpt ((t) 1) ((f) 0)) "
            "(cpt ((t) 1) ((f) 0)))"),
])
def test_malformed_domains_rejected(text, fragment):
    with pytest.raises((DomainSyntaxError, DomainValidationError)) as e:
        parse_domain(text)
    assert fragment in str(e.value)


@pytest.mark.parametrize("text,fragment", [
    _repeat("problem", "goal", "(problem (goal (a)) (goal (b)) (epsilon 0.1))"),
    _repeat("problem", "epsilon",
            "(problem (goal (a)) (epsilon 0.1) (epsilon 0.2))"),
])
def test_repeated_problem_sections_rejected(text, fragment):
    with pytest.raises(DomainSyntaxError) as e:
        parse_problem(text)
    assert str(e.value) == fragment


def test_repeated_init_and_outcomes_merge():
    prob = parse_problem("(problem (init (a)) (goal (a)) (init (not (b))) "
                         "(epsilon 0.1))")
    assert (prob.known_true, prob.known_false) == (
        frozenset({prop_from_text("(a)")}), frozenset({prop_from_text("(b)")}))
    op, = parse_domain("(operator a (kind cond) (outcomes (x (prob 0.5))) "
                       "(outcomes (y (prob 0.5))))").operators
    assert op.outcomes == ("x", "y")


def _grounded(text):
    return ground(parse_domain(text))


def _diagnosed(texts):
    domain_text, problem_text = texts
    return validate_problem(parse_problem(problem_text),
                            _grounded(domain_text))


_CLAUSE_CPT = "(cpt ((t) 1) ((f) 0))"
_FLY = ("(operator fly (kind cond) (influences (x)) (outcomes (ok (add (g))) "
        "(fail)) (cpt ((ok true) 1) ((fail true) 0) ((ok false) 0) "
        "((fail false) 1)))")

# (id, reader, text, what it raises or reports, message, (line, column) of
# a syntax error); the validator's cases report a diagnostic
_INPUT_ERRORS = [
    ("number", _grounded,
     "(operator o (kind cond) (outcomes (a (prob x)) (b (prob 1))))",
     DomainSyntaxError, "expected a number, got 'x'", (1, 44)),
    ("varref", _grounded, f"(clause (head x (t f)) {_CLAUSE_CPT})",
     DomainSyntaxError, "expected a (name args...) form", (1, 15)),
    ("not-arity", _grounded, "(operator o (kind det) (add (not (p) (q))))",
     DomainSyntaxError, "(not ...) takes exactly one literal", (1, 29)),
    ("cpt-key", _grounded, "(clause (head (x) (t f)) (cpt (t 1) ((f) 0)))",
     DomainSyntaxError, "cpt row key must be a list of outcomes", (1, 32)),
    ("cpt-duplicate", _grounded,
     "(clause (head (x) (t f)) (cpt ((t) 1) ((f) 0) ((t) 1)))",
     DomainSyntaxError, "duplicate cpt row ('t',)", (1, 47)),
    ("outcome-duplicate", _grounded,
     "(operator o (kind cond) (outcomes (a (prob 0.5)) (a (prob 0.5))))",
     DomainSyntaxError, "duplicate outcome 'a'", (1, 50)),
    ("outcome-section", _grounded,
     "(operator o (kind cond) (outcomes (a (pre (p)))))",
     DomainSyntaxError, "unknown outcome section 'pre'", (1, 38)),
    ("kind-missing", _grounded, "(operator o (add (p)))",
     DomainSyntaxError, "operator 'o' is missing (kind ...)", (1, 1)),
    ("outcomes-missing", _grounded, "(operator o (kind cond))",
     DomainValidationError, "operator 'o': no outcomes declared", None),
    ("obs-without-observes", _grounded,
     "(operator o (kind obs) (outcomes (true) (false)))",
     DomainValidationError, "operator 'o': obs operators need (observes ...)",
     None),
    ("cond-observes", _grounded,
     "(operator o (kind cond) (observes (x)) (outcomes (a (prob 1))))",
     DomainValidationError, "operator 'o': only obs operators observe", None),
    ("cpt-without-influences", _grounded,
     "(operator o (kind cond) (outcomes (a) (b)) (cpt ((a) 1) ((b) 0)))",
     DomainValidationError, "operator 'o': a cpt needs (influences ...)",
     None),
    ("influences-without-cpt", _grounded,
     "(operator o (kind cond) (influences (x)) (outcomes (a (prob 1))))",
     DomainValidationError, "operator 'o': influences need a (cpt ...)", None),
    ("head-shape", _grounded, f"(clause (head (x)) {_CLAUSE_CPT})",
     DomainSyntaxError, "expected (head VAR (OUTCOME...))", (1, 9)),
    ("head-outcomes", _grounded, f"(clause (head (x) t) {_CLAUSE_CPT})",
     DomainSyntaxError, "expected an outcome list", (1, 19)),
    ("head-missing", _grounded, f"(clause {_CLAUSE_CPT})",
     DomainSyntaxError, "clause is missing its head", (1, 1)),
    ("clause-cpt-missing", _grounded, "(clause (head (x) (t f)))",
     DomainSyntaxError, "clause is missing its cpt", (1, 1)),
    ("space-duplicate", _grounded, "(clause (head (x) (t t)) (cpt ((t) 1)))",
     DomainValidationError, "clause (x): duplicate outcomes in space", None),
    ("top-level", _grounded, "(operator o (kind det))\n  ()",
     DomainSyntaxError, "expected a top-level form", (2, 3)),
    ("unbound-parameter", _grounded,
     "(types (t a)) (operator o (params (?x t)) (kind det) (add (p ?y)))",
     GroundingError, "operator 'o': unbound parameter '?y'", None),
    ("problem-count", parse_problem,
     "(problem (goal) (epsilon 0)) (problem (goal) (epsilon 0))",
     DomainValidationError,
     "a problem file holds exactly one (problem ...) form", None),
    ("problem-none", parse_problem, "", DomainValidationError,
     "a problem file holds exactly one (problem ...) form", None),
    ("not-a-problem", parse_problem, "(domain (goal) (epsilon 0))",
     DomainSyntaxError, "expected a (problem ...) form", (1, 1)),
    ("epsilon-empty", parse_problem, "(problem (goal (a))\n (epsilon))",
     DomainSyntaxError, "epsilon needs a number", (2, 2)),
    ("problem-section", parse_problem,
     "(problem (goal (a)) (epsilon 0) (horizon 3))",
     DomainSyntaxError, "unknown problem section 'horizon'", (1, 33)),
    ("epsilon-missing", parse_problem, "(problem (goal (a)))",
     DomainSyntaxError, "problem is missing (epsilon ...)", (1, 1)),
    ("init-both", parse_problem,
     "(problem (init (a) (not (a))) (goal (a)) (epsilon 0))",
     DomainValidationError, "init lists ['(a)'] as both true and false",
     None),
    ("non-boolean-proposition", _diagnosed,
     ("(operator o (kind det) (add (x))) (clause (head (x) (hi lo)) "
      "(cpt ((hi) 0.5) ((lo) 0.5)))", "(problem (goal (x)) (epsilon 0))"),
     Diagnostic, "error: [non-boolean-proposition] (x) appears in operator "
     "effects but variable x has outcomes ['hi', 'lo']", None),
    ("observation-of-known", _diagnosed,
     ("(operator look (kind obs) (observes (x)) (outcomes (true) (false)))",
      "(problem (init (x)) (goal) (epsilon 0))"),
     Diagnostic, "warning: [observation-of-known] operator look observes x, "
     "already known", None),
    ("missing-influence-variable", _diagnosed,
     (_FLY, "(problem (init (not (g))) (goal (g)) (epsilon 0))"),
     Diagnostic, "error: [missing-influence-variable] operator fly is "
     "influenced by x, which nothing governs", None),
]


@pytest.mark.parametrize("read,text,error,message,position",
                         [case[1:] for case in _INPUT_ERRORS],
                         ids=[case[0] for case in _INPUT_ERRORS])
def test_bad_input_gets_its_error_and_message(read, text, error, message,
                                              position):
    if error is Diagnostic:
        assert [str(d) for d in read(text)] == [message]
        return
    with pytest.raises(error) as e:
        read(text)
    if position is None:
        assert str(e.value) == message
    else:
        line, column = position
        assert (e.value.line, e.value.column) == position
        assert str(e.value) == f"line {line}, col {column}: {message}"


def test_syntax_error_carries_position():
    with pytest.raises(DomainSyntaxError) as e:
        parse_domain("(operator a\n  (kind nope))")
    assert e.value.line == 2


# The reader as it was before it became one regular-expression pass: a
# character loop that makes a string token carrying its position.  It is
# kept as the oracle the reader must match, forms, positions and errors.

class _Tok(str):
    line: int
    col: int

    def __new__(cls, s: str, line: int, col: int):
        t = super().__new__(cls, s)
        t.line = line
        t.col = col
        return t


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            toks.append(_Tok(ch, line, col))
            col += 1
            i += 1
        else:
            start, scol = i, col
            while i < n and text[i] not in " \t\r\n();":
                i += 1
                col += 1
            toks.append(_Tok(text[start:i], line, scol))
    return toks


def _oracle_read_forms(text: str) -> list:
    toks = _tokenize(text)
    forms: list = []
    stack: list[list] = []
    for t in toks:
        if t == "(":
            new: list = []
            new_pos = (t.line, t.col)
            if stack:
                stack[-1].append((new, new_pos))
            else:
                forms.append((new, new_pos))
            stack.append(new)
        elif t == ")":
            if not stack:
                raise DomainSyntaxError("unbalanced ')'", t.line, t.col)
            stack.pop()
        else:
            if not stack:
                raise DomainSyntaxError(f"stray atom {t!r} outside any form", t.line, t.col)
            stack[-1].append(t)
    if stack:
        raise DomainSyntaxError("unclosed '('", toks[-1].line, toks[-1].col)
    return forms


def _plain(node):
    """An oracle node in the reader's shape: ``(items, pos)`` for a list,
    ``(text, pos)`` for an atom, with plain ``str`` text."""
    if isinstance(node, _Tok):
        return (str(node), (node.line, node.col))
    items, pos = node
    return ([_plain(n) for n in items], pos)


def _assert_reads_like_oracle(text):
    try:
        want = [_plain(f) for f in _oracle_read_forms(text)]
    except DomainSyntaxError as e:
        with pytest.raises(DomainSyntaxError) as got:
            _read_forms(text)
        assert (str(got.value), got.value.line, got.value.column) == \
            (str(e), e.line, e.column)
        return
    got = _read_forms(text)
    assert got == want
    # atoms come out as plain strings, as the parser hands them on
    stack = list(got)
    while stack:
        items, _pos = stack.pop()
        if isinstance(items, list):
            stack.extend(items)
        else:
            assert type(items) is str


def test_reader_matches_the_oracle_on_every_world_and_generated_domain():
    texts = [t for name in sorted(WORLDS) for t in WORLDS[name]]
    texts += [t for i in range(50)
              for t in solvable_domain(random.Random(15000 + i))]
    for text in texts:
        _assert_reads_like_oracle(text)


# whitespace is exactly space, tab, CR and LF: \x0b and \x0c are atom text
_READER_ALPHABET = list("();? \t\r\n\x0b\x0cabz09")


@settings(max_examples=600, deadline=None)
@given(st.text(st.sampled_from(_READER_ALPHABET), max_size=40))
def test_reader_matches_the_oracle_on_raw_text(text):
    _assert_reads_like_oracle(text)


@pytest.mark.parametrize("text,message,line,column", [
    ("(a))", "unbalanced ')'", 1, 4),
    ("(a)\n  x", "stray atom 'x' outside any form", 2, 3),
    ("(a\n (b c) ; )\n", "unclosed '('", 2, 6),
    ("(a\x0bb)\n\x0c", "stray atom '\\x0c' outside any form", 2, 1),
])
def test_reader_errors_name_the_token_at_fault(text, message, line, column):
    with pytest.raises(DomainSyntaxError) as e:
        _read_forms(text)
    assert (e.value.line, e.value.column) == (line, column)
    assert str(e.value) == f"line {line}, col {column}: {message}"


def _oracle_prop_from_text(text):
    """The literal reader before its pattern: the whole s-expression
    reader, exactly one form, then ``_parse_literal``."""
    forms = _read_forms(text)
    if len(forms) != 1:
        raise DomainSyntaxError("expected a single literal", 1, 1)
    return _parse_literal(forms[0])


def _assert_literal_reads_like_oracle(text):
    """``prop_from_text`` gives the oracle's Proposition or raises its
    exception, with the same text; and its pattern takes exactly the texts
    that ``Proposition.text()`` writes.  Returns which of "written",
    "read" (by the reader alone) and "refused" the text is."""
    try:
        want = _oracle_prop_from_text(text)
    except Exception as e:
        with pytest.raises(type(e)) as got:
            prop_from_text(text)
        assert str(got.value) == str(e)
        kind = "refused"
    else:
        got = prop_from_text(text)
        assert got == want and type(got) is Proposition
        assert all(type(x) is str for x in (got.name, *got.args))
        kind = "written" if want.text() == text else "read"
    taken = isinstance(text, str) and _LITERAL.fullmatch(text) is not None
    assert taken == (kind == "written")
    return kind


@pytest.mark.parametrize("text", [
    "(a)", "(on a b)", "(not (a))", "(not (not a))", "(not a)", "(not)",
    "( a )", "(a  b)", "(a\tb)", "(a b) ; note", "(a\nb)", "(p a\x0bb)",
    "(p a\xa0b)", "(a) (b)", "", None, 5, b"(a)", "(not (a b))", "(not  (a))",
    "(not (a) )", "(nota b)", "(not\x0b(a))", "(a\r)", "((a))", "(a (b))",
])
def test_literal_reader_matches_the_oracle_on_a_table(text):
    _assert_literal_reads_like_oracle(text)
    # atoms split at space, tab, CR and LF alone, in the oracle as well
    pinned = {"(p a\x0bb)": Proposition("p", ("a\x0bb",)),
              "(p a\xa0b)": Proposition("p", ("a\xa0b",)),
              "(a\tb)": Proposition("a", ("b",)),
              "(not (not a))": Proposition("not", ("a",), True)}
    if text in pinned:
        assert prop_from_text(text) == pinned[text]


def _sweep_text(rng: random.Random) -> str:
    """A literal as ``Proposition.text()`` writes it, over atoms that hold
    ``\x0b``, ``\xa0`` and ``not``, then edited up to three times with
    pieces of the same alphabet."""
    atoms = ["a", "b", "on", "not", "?x", "a\x0bb", "\xa0", "nota"]
    pieces = atoms + ["(", ")", " ", "\t", "\n", "\r", ";", "(not ", "\x0b"]
    text = Proposition(rng.choice(atoms),
                       tuple(rng.choices(atoms, k=rng.randrange(4))),
                       rng.random() < 0.5).text()
    for _ in range(rng.randrange(4)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randrange(3))
        text = text[:i] + rng.choice(pieces + [""]) + text[j:]
    return text


def test_literal_reader_matches_the_oracle_on_a_random_sweep():
    rng = random.Random(28)
    texts = [_sweep_text(rng) for _ in range(20000)]
    kinds = Counter(map(_assert_literal_reads_like_oracle, texts))
    # the pattern takes some texts, and the reader reads and refuses others
    assert min(kinds["written"], kinds["read"], kinds["refused"]) > 1000
    assert sum("\x0b" in text or "\xa0" in text for text in texts) > 1000


def test_duplicate_operator_names_the_first_repeated_in_order():
    # b repeats first, but a comes first in the list
    text = "".join(f"(operator {n} (kind det) (add (p)))" for n in "abba")
    with pytest.raises(DomainValidationError,
                       match=r"duplicate operator name 'a'$"):
        parse_domain(text)


def test_duplicate_ground_operator_names_the_first_repeated_in_order():
    domain = parse_domain("(types (t x y y x))"
                          "(operator p (params (?v t)) (kind det)"
                          " (add (q ?v)))")
    with pytest.raises(GroundingError,
                       match=r"duplicate operator 'p\(x\)'$"):
        ground(domain)


_NAMES = st.text("abc-?", min_size=1, max_size=3)
_PROPS = st.builds(Proposition, _NAMES,
                   st.lists(_NAMES, max_size=3).map(tuple), st.booleans())


@settings(max_examples=200, deadline=None)
@given(st.lists(_PROPS, max_size=8))
def test_propositions_sort_by_name_then_args_then_polarity(props):
    assert sorted(props) == sorted(
        props, key=lambda p: (p.name, p.args, p.negated))


@settings(max_examples=200, deadline=None)
@given(_PROPS)
def test_proposition_strings_and_values(p):
    name, args, negated = p.name, p.args, p.negated
    assert repr(p) == (f"Proposition(name={name!r}, args={args!r}, "
                       f"negated={negated!r})")
    inner = "(" + " ".join((name,) + args) + ")"
    assert p.text() == str(p) == (f"(not {inner})" if negated else inner)
    assert p.negate() == Proposition(name, args, not negated)
    assert p.positive == Proposition(name, args)
    assert p.negate().negate() == p
    assert p == (name, args, negated) and hash(p) == hash((name, args, negated))
    assert Proposition(name) == Proposition(name, (), False)


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
    cbs = {c.var: c for c in gdom.clauses}["clear(b,snowbird)"]
    assert cbs.parents == ("blizzard",)
    assert cbs.cpt[("true", "true")] == 0.1
    assert cbs.cpt[("true", "false")] == 0.999


def test_effective_deletes_include_negated_adds():
    gdom, _ = load_texts(SKI_DOMAIN, SKI_PROBLEM)
    drive = operator_named(gdom, "drive-b-snowbird")
    assert prop_from_text("(not (at snowbird))") in drive.effective_deletes(None)
    assert prop_from_text("(at b)") in drive.effective_deletes(None)


@pytest.mark.parametrize("world", [ski_world, sussman,
                                   lambda: nroad_world(3)])
def test_effective_deletes_are_computed_once_per_outcome(world):
    gdom, _ = load_texts(*world())
    for op in gdom.operators:
        for o in (None, *op.outcomes):
            adds = op.add if o is None else op.outcome_adds.get(o, ())
            dels = op.delete if o is None else op.outcome_dels.get(o, ())
            want = frozenset(dels) | {p.negate() for p in adds}
            assert op.effective_deletes(o) == want
            assert op.effective_deletes(o) is op.effective_deletes(o)


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_clobbers_are_the_union_of_effective_deletes(name):
    gdom, _ = load_texts(*WORLDS[name])
    for op in gdom.operators:
        runs = (None,) if op.kind in ("det", "start") else op.outcomes
        assert op.runs == runs
        want = frozenset().union(*(op.effective_deletes(o) for o in runs))
        assert op.clobbers == want


def test_touches_variable():
    gdom, _ = load_texts(SKI_DOMAIN, SKI_PROBLEM)
    check = operator_named(gdom, "check-road-b-snowbird")
    assert check.touches_variable("clear(b,snowbird)")
    assert not check.touches_variable("clear(c,parkcity)")
    assert operator_named(gdom, "drive-b-c").touches_variable("at(c)")


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
    look, wipe = operator_named(gdom, "look"), operator_named(gdom, "wipe")
    assert look.establishing_outcomes(not_x) == ["false"]
    assert wipe.establishing_outcomes(not_x) == [None]
    assert wipe.touches_variable("x")


def test_producer_index_matches_the_per_operator_scan():
    """``producers`` reads one index per domain; it must give what a scan
    of every operator's ``establishing_outcomes`` gives, in the same
    order, for every precondition and goal literal and its negation,
    including literals that nothing produces."""
    texts = [WORLDS[name] for name in sorted(WORLDS)]
    texts += [solvable_domain(random.Random(14000 + i)) for i in range(50)]
    texts += [det_chain(5), nroad_world(4)]
    unproduced = 0
    for text in texts:
        gdom, prob = load_texts(*text)
        lits = set(prob.goals)
        for op in gdom.operators:
            lits.update(op.preconditions)
        lits |= {p.negate() for p in lits}
        for lit in sorted(lits):
            scan = tuple((op, o) for op in gdom.operators
                         for o in op.establishing_outcomes(lit))
            assert gdom.producers(lit) == scan, lit.text()
            unproduced += not scan
    assert unproduced  # the literals nothing produces are covered too


def test_effect_values_apply_deletes_then_adds():
    gdom = ground(parse_domain("""
    (operator dry (kind det) (del (not (x))))
    (operator both (kind det) (add (x)) (del (x) (y)))
    """))
    dry, both = operator_named(gdom, "dry"), operator_named(gdom, "both")
    assert dry.effect_values(None) == {"x": "true"}
    assert dry.establishing_outcomes(prop_from_text("(x)")) == [None]
    assert dry.establishing_outcomes(prop_from_text("(not (x))")) == []
    assert both.effect_values(None) == {"x": "true", "y": "false"}
    assert both.establishing_outcomes(prop_from_text("(not (x))")) == []
    # a step that leaves x true deletes (not (x)) only, so no threat check
    # takes it for a step that clobbers (x)
    made_false = {prop_from_text("(not (x))"), prop_from_text("(y)")}
    assert both.effective_deletes(None) == both.clobbers == made_false
    assert dry.clobbers == {prop_from_text("(not (x))")}


# The operator constructor as it was before it built its derived fields in
# one pass: each field by its own expression over (None,) + outcomes, set
# one at a time.  The constructor must give the same fields.

_DERIVED = ("outcome_adds", "outcome_dels", "_effects", "_deletes", "runs",
            "clobbers", "precondition_values", "outcome_rows", "row_vars",
            "outcome_cuts")


def _oracle_effect_values(adds, dels) -> dict[str, str]:
    values: dict[str, str] = {}
    for p in dels:
        values[var_id(p.positive)] = "true" if p.negated else "false"
    for p in adds:
        values[var_id(p.positive)] = "false" if p.negated else "true"
    return values


def _oracle_deletes(adds, dels) -> frozenset:
    """The literals a run makes false: for each literal it adds or
    deletes, the polarity of that variable its effect value rules out."""
    values = _oracle_effect_values(adds, dels)
    return frozenset(
        p.positive if values[var_id(p.positive)] == "false"
        else p.positive.negate() for p in (*adds, *dels))


def _oracle_operator(**kw) -> GroundOperator:
    """``GroundOperator(**kw)`` with its derived fields set by the oracle."""
    self = object.__new__(GroundOperator)
    for f in dataclasses.fields(GroundOperator):
        if f.init:
            default = (f.default if f.default_factory is dataclasses.MISSING
                       else f.default_factory())
            object.__setattr__(self, f.name, kw.get(f.name, default))
    variants = (None,) + tuple(self.outcomes)
    object.__setattr__(self, "_effects", {
        o: _oracle_effect_values(adds_for(self, o), deletes_for(self, o))
        for o in variants})
    object.__setattr__(self, "_deletes", {
        o: _oracle_deletes(adds_for(self, o), deletes_for(self, o))
        for o in variants})
    object.__setattr__(self, "runs", (None,) if self.kind in (
        "det", "start") else self.outcomes)
    object.__setattr__(self, "clobbers", frozenset().union(
        *(self._deletes[o] for o in self.runs)))
    object.__setattr__(self, "precondition_values",
                       literal_values(self.preconditions))
    if self.cpt is not None:
        table, row_vars = self.cpt, self.influences
    else:
        table = {(o,): p for o, p in
                 (self.simple_distribution or {}).items()}
        row_vars = ()
    object.__setattr__(self, "outcome_rows",
                       distribution_rows(table, self.outcomes))
    object.__setattr__(self, "row_vars", row_vars)
    object.__setattr__(self, "outcome_cuts", cut_rows(self.outcome_rows))
    return self


def _hash_or_error(op):
    try:
        return hash(op)
    except TypeError as e:  # its outcome maps are dicts
        return repr(e)


def _assert_built_like_oracle(op: GroundOperator, **kw):
    """``op`` has the oracle's derived fields, the effect maps in the same
    order, and compares and hashes as the oracle's operator does.  ``kw``
    are the arguments ``op`` was made with, else its declared fields."""
    if not kw:
        kw = {f.name: getattr(op, f.name)
              for f in dataclasses.fields(op) if f.init}
    ref = _oracle_operator(**kw)
    for name in _DERIVED:
        assert getattr(op, name) == getattr(ref, name), (op.name, name)
    for o, values in ref._effects.items():
        assert list(op._effects[o].items()) == list(values.items())
    assert op == ref and ref == op
    assert _hash_or_error(op) == _hash_or_error(ref)


def test_operators_are_built_as_the_oracle_builds_them():
    texts = [WORLDS[name] for name in sorted(WORLDS)]
    texts += [solvable_domain(random.Random(16000 + i)) for i in range(50)]
    texts += [det_chain(5), nroad_world(4)]
    kinds = set()
    for text in texts:
        gdom, prob = load_texts(*text)
        root = make_root_plan(prob, "tree")
        for op in gdom.operators + tuple(s.operator
                                         for s in root.steps.values()):
            _assert_built_like_oracle(op)
            kinds.add(op.kind)
    assert kinds == {"det", "cond", "obs", "start", "goal"}


OPERATOR_ARGUMENTS = [
    dict(name="noop", kind="det"),
    dict(name="goal", kind="goal", preconditions=(
        Proposition("x"), Proposition("y", ("a",), True))),
    dict(name="both", kind="det", add=(Proposition("x"),),
         delete=(Proposition("x"), Proposition("y", (), True))),
    dict(name="look", kind="obs", outcomes=("true", "false"), observes="y",
         outcome_adds={"true": (Proposition("y"),)},
         outcome_dels={"false": (Proposition("y"),)}),
    dict(name="flip", kind="cond", outcomes=("h", "t"),
         simple_distribution={"h": 0.25, "t": 0.75},
         outcome_adds={"h": (Proposition("won"),)}),
    dict(name="mute", kind="cond", outcomes=("a", "b")),
    dict(name="walk", kind="cond", outcomes=("ok", "slip"),
         influences=("rain",), add=(Proposition("z"),),
         cpt={("ok", "true"): 0.4, ("slip", "true"): 0.6,
              ("ok", "false"): 0.9},
         outcome_dels={"slip": (Proposition("up", (), True),)}),
]


@pytest.mark.parametrize("kw", OPERATOR_ARGUMENTS, ids=lambda kw: kw["name"])
def test_operator_arguments_are_built_as_the_oracle_builds_them(kw):
    _assert_built_like_oracle(GroundOperator(**kw), **kw)


@pytest.mark.parametrize("kw", OPERATOR_ARGUMENTS, ids=lambda kw: kw["name"])
def test_operators_built_by_position_equal_those_built_by_keyword(kw):
    ref = _oracle_operator(**kw)
    args = [kw.get(f.name, getattr(ref, f.name))
            for f in dataclasses.fields(GroundOperator) if f.init]
    by_position, by_keyword = GroundOperator(*args), GroundOperator(**kw)
    _assert_built_like_oracle(by_position, **kw)
    _assert_built_like_oracle(by_keyword, **kw)
    assert by_position == by_keyword


@pytest.mark.parametrize("kw", OPERATOR_ARGUMENTS, ids=lambda kw: kw["name"])
def test_replace_rebuilds_the_derived_fields(kw):
    op = GroundOperator(**kw)
    renamed = dataclasses.replace(op, name="renamed")
    assert renamed.name == "renamed" and renamed != op
    _assert_built_like_oracle(renamed)
    extra = Proposition("extra", ("a",), True)
    grown = dataclasses.replace(op, preconditions=op.preconditions + (extra,),
                                add=op.add + (extra,))
    _assert_built_like_oracle(grown)
    assert grown.precondition_values[-1] == ("extra(a)", "false")
    assert grown.effect_values(None)["extra(a)"] == "false"


def test_operator_fields_are_plain_attributes():
    """Every field is an attribute written when the operator is made: no
    lookup hook and no second initialisation step, and each operator gets
    its own empty outcome maps."""
    for name in ("__getattr__", "__getattribute__", "__post_init__"):
        assert name not in vars(GroundOperator), name
    assert GroundOperator.__getattribute__ is object.__getattribute__
    a, b = GroundOperator("a", "det"), GroundOperator("b", "det")
    assert a.outcome_adds == {} and a.outcome_adds is not b.outcome_adds
    assert a.outcome_dels == {} and a.outcome_dels is not b.outcome_dels


@pytest.mark.parametrize("name", sorted(WORLDS) + ["det_chain5",
                                                   "nroad4"])
@pytest.mark.parametrize("planner", [plan_linear, plan_nonlinear])
def test_decoded_operators_are_built_as_the_oracle_builds_them(name,
                                                               planner):
    text = {"det_chain5": det_chain(5), "nroad4": nroad_world(4)}.get(
        name) or WORLDS[name]
    gdom, prob = load_texts(*text)
    res = planner(gdom, prob)
    doc = json.loads(json.dumps(plan_document(res, prob, "kbmc")))
    ops = read_plan_document(doc).plan.steps_used()
    assert ops
    for op in ops.values():
        _assert_built_like_oracle(op)


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


def _clause(head, body=(), params=""):
    """A binary clause text with uniform rows."""
    tails = list(itertools.product(("true", "false"), repeat=len(body)))
    rows = " ".join(f"(({' '.join((o,) + tail)}) 0.5)"
                    for tail in tails for o in ("true", "false"))
    body_text = f"(body {' '.join(body)})" if body else ""
    return (f"(clause {params} (head {head} (true false)) {body_text} "
            f"(cpt {rows}))")


def test_cycle_through_one_instance_rejected_at_parse():
    # p(a) -> q -> p(a); the body-free p(b) shares p's name but not its
    # variable, so it must not hide the cycle, whatever the clause order
    clauses = [_clause("(p a)", ["(q)"]), _clause("(q)", ["(p a)"]),
               _clause("(p b)")]
    for text, path in (("\n".join(clauses), r"p\(a\) -> q -> p\(a\)"),
                       ("\n".join(reversed(clauses)),
                        r"q -> p\(a\) -> q")):
        with pytest.raises(DomainValidationError,
                           match=rf"^clause set is cyclic: {path}$"):
            parse_domain(text)


def test_clauses_sharing_a_name_are_not_merged():
    # p(a) <- q <- p(b) is a chain, not a cycle
    text = "\n".join([_clause("(p a)", ["(q)"]), _clause("(q)", ["(p b)"]),
                      _clause("(p b)")])
    gdom = ground(parse_domain(text))
    assert [c.var for c in gdom.clauses] == ["p(b)", "q", "p(a)"]


def test_cycle_after_grounding_rejected():
    # p(?x) <- q <- p(a) closes a cycle only once ?x is bound to a
    text = "(types (obj a b))\n" + "\n".join([
        _clause("(p ?x)", ["(q)"], params="(params (?x obj))"),
        _clause("(q)", ["(p a)"])])
    domain = parse_domain(text)
    with pytest.raises(GroundingError,
                       match=r"^clause set is cyclic: p\(a\) -> q -> p\(a\)$"):
        ground(domain)


def _binary_clause(var, parents=(), p=0.5):
    """A true/false ground clause whose rows give ``true`` probability
    ``p`` under every parent assignment."""
    tails = itertools.product(("true", "false"), repeat=len(parents))
    return GroundClause(var, ("true", "false"), tuple(parents),
                        {(o,) + tail: p if o == "true" else 1 - p
                         for tail in tails for o in ("true", "false")})


def _schema_clause(c: GroundClause) -> KbmcClause:
    return KbmcClause(Proposition(c.var, ()), c.space,
                      tuple(Proposition(p, ()) for p in c.parents), c.cpt)


BAD_CLAUSE_SETS = {
    "duplicate": ([_binary_clause("x", p=0.2), _binary_clause("x", p=0.9)],
                  "two clauses govern variable x"),
    "undeclared": ([_binary_clause("y", ("x",))],
                   "clause for y depends on undeclared x"),
    "two-cycle": ([_binary_clause("a", ("b",)), _binary_clause("b", ("a",))],
                  "clause set is cyclic: a -> b -> a"),
    "self-parent": ([_binary_clause("a", ("a",))],
                    "clause set is cyclic: a -> a"),
}


@pytest.mark.parametrize("name", sorted(BAD_CLAUSE_SETS))
def test_every_entry_point_refuses_a_bad_clause_set_alike(name):
    """``ordered_clauses`` is the one check of a ground clause set: every
    entry point that takes one refuses it with the same text, in the error
    class of its own layer."""
    clauses, text = BAD_CLAUSE_SETS[name]
    gdom, prob = load_texts(*det_chain(2))
    res = plan_linear(gdom, prob)
    doc = json.loads(json.dumps(plan_document(res, prob.with_priors(clauses),
                                              "kbmc")))
    entry_points = [
        (GroundingError,
         lambda: ground(Domain(clauses=tuple(map(_schema_clause, clauses))))),
        (MalformedPlan, lambda: read_plan_document(doc)),
        (MalformedPlan,
         lambda: estimate_success(res.conditional, clauses, trials=10)),
        (MalformedPlan, lambda: exhaustive_success(res.conditional, clauses)),
        (ModelError, lambda: build_initial_net(prob.with_priors(clauses))),
    ]
    for error, call in entry_points:
        with pytest.raises(error, match=f"^{re.escape(text)}$") as info:
            call()
        assert info.type is error


def test_complete_clauses_refuses_what_cannot_be_sampled():
    """A clause set passes in dependency order, or the first clause that
    cannot be sampled is named with its fault."""
    x, y = _binary_clause("x"), _binary_clause("y", ("x",))
    assert complete_clauses([y, x], ValueError) == [x, y]
    partial = GroundClause("y", ("true", "false"), ("x",),
                           {("true", "true"): 0.9, ("false", "true"): 0.1})
    faults = [
        ([x, partial], "prior y: no row for ('true', 'false')"),
        ([GroundClause("x", ("true", "true"), (), {("true",): 1.0})],
         "prior x: outcomes must be distinct and at least one"),
        ([GroundClause("x", ("true", "false"), (),
                       {("true",): 1.5, ("false",): -0.5})],
         "prior x: probability 1.5 out of range"),
    ]
    for clauses, text in faults:
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            complete_clauses(clauses, ValueError)


def test_checked_clauses_keep_their_instance_dicts_clean():
    """``complete_clauses`` keeps each clause's fault, None included, in a
    declared field: a cached property would write the instance dict, and
    every later field read of the clause (``sample_world`` reads them on
    every draw) would be slower."""
    x, y = _binary_clause("x"), _binary_clause("y", ("x",))
    bad = GroundClause("z", ("true", "false"), (),
                       {("true",): 1.5, ("false",): -0.5})
    complete_clauses([y, x], ValueError)
    with pytest.raises(ValueError):
        complete_clauses([bad], ValueError)
    assert [c.row_fault for c in (x, y)] == [None, None]
    assert bad.row_fault == "prior z: probability 1.5 out of range"
    for c in (x, y, bad):
        assert "row_fault" not in vars(c)
        assert vars(c)["_row_fault"] == c.row_fault


@pytest.mark.parametrize("name", sorted(WORLDS) + ["alpha"])
def test_clauses_net_and_document_share_one_prior_order(name):
    """A ground domain's clauses, the initial belief net and a decoded plan
    document's priors list the variables in one order, whatever order the
    clauses come in (``alpha`` depends on ``zeta``, which sorts after it)."""
    domain_text, problem_text = {**WORLDS, "alpha": ALPHA}[name]
    domain = parse_domain(domain_text)
    gdom, prob = load_texts(domain_text, problem_text)
    doc = plan_document(plan_linear(gdom, prob), prob, "kbmc")
    want = [c.var for c in gdom.clauses]
    rng = random.Random(0)
    for _ in range(4):
        shuffled = rng.sample(domain.clauses, len(domain.clauses))
        regrounded = ground(dataclasses.replace(domain, clauses=shuffled))
        priors = rng.sample(prob.priors, len(prob.priors))
        net = build_initial_net(prob.with_priors(priors))
        rng.shuffle(doc["priors"])
        read = read_plan_document(doc)
        assert [c.var for c in regrounded.clauses] == list(net.variables) \
            == [c.var for c in read.priors] == want


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


# a clause with rows for z = true only: it parses and grounds, and without
# the check it fails only mid-search, when the planner first prices it
PARTIAL_CLAUSE = (
    "(operator make (kind cond) (outcomes (yes (add (g))) (no))\n"
    "  (influences (a))\n"
    "  (cpt ((yes true) 0.9) ((no true) 0.1) ((yes false) 0.2)"
    " ((no false) 0.8)))\n"
    "(clause (head (z) (true false)) (cpt ((true) 0.5) ((false) 0.5)))\n"
    "(clause (head (a) (true false)) (body (z))\n"
    "  (cpt ((true true) 0.7) ((false true) 0.3)))",
    "(problem (init (not (g))) (goal (g)) (epsilon 0.5))")


def test_validate_missing_clause_cpt_row():
    gdom, problem = load_texts(*PARTIAL_CLAUSE)
    diags = validate_problem(problem, gdom)
    assert [(d.level, d.code) for d in diags] == [("error", "missing-cpt-row")]
    assert "clause a" in diags[0].message
    assert "('true', 'false'), ('false', 'false')" in diags[0].message


def test_validate_conditional_without_distribution():
    codes = _diag_codes(
        "(operator w (kind cond) (outcomes (a (add (g))) (b)))",
        "(problem (init (not (g))) (goal (g)) (epsilon 0))")
    assert "conditional-without-distribution" in codes


# (p a b) and (p a,b) are both variable p(a,b): unchecked, the false
# (p a,b) hides the true (p a b) and the planner finds no plan
SHARED_VARIABLE = (
    "(operator mk (kind det) (pre (p a b)) (add (g)))",
    "(problem (init (p a b) (not (p a,b)) (not (g))) (goal (g)) (epsilon 0))")


def test_validate_shared_variable():
    gdom, problem = load_texts(*SHARED_VARIABLE)
    diags = validate_problem(problem, gdom)
    assert [(d.level, d.code) for d in diags] == [("error", "shared-variable")]
    assert diags[0].message == "(p a b) and (p a,b) are both variable p(a,b)"
    gdom, problem = load_texts(SHARED_VARIABLE[0], SHARED_VARIABLE[1].replace(
        " (not (p a,b))", ""))
    assert validate_problem(problem, gdom) == []


def test_epsilon_range_checked():
    with pytest.raises(DomainValidationError):
        parse_problem("(problem (init) (goal (g)) (epsilon 1.5))")
    # 1.0 is allowed at the API level; the CLI is stricter
    p = parse_problem("(problem (init) (goal (g)) (epsilon 1.0))")
    assert p.epsilon == 1.0


def test_slippery_walk_parses():
    gdom, problem = load_texts(*slippery_walk())
    walk = operator_named(gdom, "walk")
    assert walk.influences == ("rain",)
    assert walk.cpt[("arrive", "true")] == 0.6
    assert validate_problem(problem, gdom) == []
