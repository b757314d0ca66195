"""Domain language: propositions, operators, prior clauses, and problems.

Domains are written as s-expressions (``;`` starts a comment that runs to
end of line).  A domain file holds ``types``, ``operator`` and ``clause``
forms; a problem file holds a single ``problem`` form::

    (operator NAME
      (params (?v TYPE) ...)
      (pre LIT ...)
      (kind det|cond|obs)
      (add LIT ...) (del LIT ...)                      ; det only
      (outcomes (OUTCOME (prob NUM)? (add LIT ...)? (del LIT ...)?) ...)
      (observes VAR)                                   ; obs only
      (influences VAR ...)                             ; cond only
      (cpt ((OUTCOME INFLOUT ...) NUM) ...))           ; cond only

    (clause (params (?v TYPE) ...)?
            (head VAR (OUTCOME ...))
            (body VAR ...)?
            (cpt ((OUTCOME BODYOUT ...) NUM) ...))

    (problem (init LIT ...) (goal LIT ...) (epsilon NUM))

    LIT := (NAME ARG ...) | (not (NAME ARG ...))
    VAR := (NAME ARG ...)

A ``clause`` declares a random variable (its head) with a conditional
probability table over its body variables; the resulting clause set must be
acyclic.  ``obs`` operators reveal the current value of the observed
variable, so their outcome names must equal that variable's outcome space.
Members of a type may be tuples, in which case a parameter bound to a
member splices all of its elements into the argument list; this lets a
schema range over declared pairs (roads, edges) instead of a full cross
product.

When a step (or one outcome of it) runs, its deletes apply first and its
adds second: ``(del P)`` makes P false, ``(del (not P))`` makes P true, an
added literal holds, and so an add wins over a delete of the same variable.
``GroundOperator.effect_values`` is the one place this rule is applied.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DomainSyntaxError, DomainValidationError, GroundingError

__all__ = [
    "PROB_TOL",
    "Proposition",
    "OutcomeFamily",
    "OperatorSchema",
    "KbmcClause",
    "Domain",
    "GroundOperator",
    "GroundClause",
    "GroundDomain",
    "Problem",
    "Diagnostic",
    "parse_domain",
    "parse_problem",
    "render_domain",
    "render_problem",
    "ground",
    "validate_problem",
    "var_id",
]

PROB_TOL = 1e-9

# ---------------------------------------------------------------------------
# propositions


@dataclass(frozen=True, order=True)
class Proposition:
    """A ground or schematic literal: ``(name args...)`` or its negation."""

    name: str
    args: tuple[str, ...] = ()
    negated: bool = False

    def negate(self) -> "Proposition":
        return replace(self, negated=not self.negated)

    @property
    def positive(self) -> "Proposition":
        return replace(self, negated=False) if self.negated else self

    def text(self) -> str:
        inner = "(" + " ".join((self.name,) + self.args) + ")"
        return f"(not {inner})" if self.negated else inner

    def __str__(self) -> str:
        return self.text()


def var_id(prop: Proposition | tuple[str, tuple[str, ...]]) -> str:
    """Display/handle form of a proposition-shaped variable: ``clear(b,s)``."""
    if isinstance(prop, Proposition):
        name, args = prop.name, prop.args
    else:
        name, args = prop
    return f"{name}({','.join(args)})" if args else name


# ---------------------------------------------------------------------------
# schema-level types


@dataclass(frozen=True)
class OutcomeFamily:
    """Named alternative outcomes of a conditional or observation operator."""

    outcomes: tuple[str, ...]
    adds: Mapping[str, tuple[Proposition, ...]]
    deletes: Mapping[str, tuple[Proposition, ...]]


@dataclass(frozen=True, eq=True)
class OperatorSchema:
    name: str
    kind: str  # det | cond | obs
    params: tuple[tuple[str, str], ...] = ()
    preconditions: tuple[Proposition, ...] = ()
    add: tuple[Proposition, ...] = ()
    delete: tuple[Proposition, ...] = ()
    outcomes: OutcomeFamily | None = None
    simple_distribution: Mapping[str, float] | None = None
    influences: tuple[Proposition, ...] = ()
    cpt: Mapping[tuple[str, ...], float] | None = None
    observes: Proposition | None = None


@dataclass(frozen=True, eq=True)
class KbmcClause:
    """Random-variable declaration: head variable, outcome space, body
    variables it depends on, and a CPT keyed ``(head_out, *body_outs)``."""

    head: Proposition
    space: tuple[str, ...]
    body: tuple[Proposition, ...] = ()
    cpt: Mapping[tuple[str, ...], float] = None  # type: ignore[assignment]
    params: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True, eq=True)
class Domain:
    operators: tuple[OperatorSchema, ...] = ()
    clauses: tuple[KbmcClause, ...] = ()
    types: Mapping[str, tuple] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.types is None:
            object.__setattr__(self, "types", {})


# ---------------------------------------------------------------------------
# ground-level types


@dataclass(frozen=True, eq=True)
class GroundOperator:
    """A fully instantiated operator.  ``start`` and ``goal`` pseudo-operators
    use the same shape so plan steps are uniform."""

    name: str
    kind: str  # det | cond | obs | start | goal
    preconditions: tuple[Proposition, ...] = ()
    add: tuple[Proposition, ...] = ()
    delete: tuple[Proposition, ...] = ()
    outcomes: tuple[str, ...] = ()
    outcome_adds: Mapping[str, tuple[Proposition, ...]] = None  # type: ignore
    outcome_dels: Mapping[str, tuple[Proposition, ...]] = None  # type: ignore
    simple_distribution: Mapping[str, float] | None = None
    influences: tuple[str, ...] = ()  # variable ids
    cpt: Mapping[tuple[str, ...], float] | None = None
    observes: str | None = None  # variable id

    # outcome (None = det) -> {variable id: value}; see effect_values
    _effects: Mapping = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.outcome_adds is None:
            object.__setattr__(self, "outcome_adds", {})
        if self.outcome_dels is None:
            object.__setattr__(self, "outcome_dels", {})
        object.__setattr__(self, "_effects", {
            o: _effect_values(self.adds_for(o), self.deletes_for(o))
            for o in (None,) + tuple(self.outcomes)})

    def adds_for(self, outcome: str | None) -> tuple[Proposition, ...]:
        if outcome is None:
            return self.add
        return self.outcome_adds.get(outcome, ())

    def deletes_for(self, outcome: str | None) -> tuple[Proposition, ...]:
        if outcome is None:
            return self.delete
        return self.outcome_dels.get(outcome, ())

    def effective_deletes(self, outcome: str | None) -> frozenset[Proposition]:
        """Declared deletes plus the negation of every added literal."""
        adds = self.adds_for(outcome)
        dels = self.deletes_for(outcome)
        return frozenset(dels) | frozenset(p.negate() for p in adds)

    def effect_values(self, outcome: str | None) -> Mapping[str, str]:
        """The value (``"true"``/``"false"``) each variable this operator
        writes takes when it runs under ``outcome`` (None = det).  The
        mapping is shared: read it, do not change it."""
        return self._effects.get(outcome, {})

    def establishing_outcomes(self, lit: Proposition) -> list[str | None]:
        """Outcomes under which this operator makes ``lit`` hold (None =
        det)."""
        var = var_id(lit.positive)
        want = "false" if lit.negated else "true"
        variants = [None] if self.kind in ("det", "start") else self.outcomes
        return [o for o in variants if self._effects[o].get(var) == want]

    def touches_variable(self, var: str) -> bool:
        """True if executing this operator reveals or forces the value of
        the boolean variable ``var`` (observation of it, or setting either
        polarity of its underlying proposition)."""
        return self.observes == var or any(
            var in values for values in self._effects.values())


def _effect_values(adds: Iterable[Proposition],
                   dels: Iterable[Proposition]) -> dict[str, str]:
    values: dict[str, str] = {}
    for p in dels:
        values[var_id(p.positive)] = "true" if p.negated else "false"
    for p in adds:
        values[var_id(p.positive)] = "false" if p.negated else "true"
    return values


@dataclass(frozen=True, eq=True)
class GroundClause:
    var: str
    space: tuple[str, ...]
    parents: tuple[str, ...] = ()
    cpt: Mapping[tuple[str, ...], float] = None  # type: ignore[assignment]


@dataclass(frozen=True, eq=True)
class GroundDomain:
    operators: tuple[GroundOperator, ...]
    clauses: tuple[GroundClause, ...]

    def operator(self, name: str) -> GroundOperator:
        for op in self.operators:
            if op.name == name:
                return op
        raise KeyError(name)

    @property
    def clause_by_var(self) -> dict[str, GroundClause]:
        return {c.var: c for c in self.clauses}


@dataclass(frozen=True, eq=True)
class Problem:
    """Initial knowledge, goals, and the acceptable failure probability.

    ``known_true``/``known_false`` hold positive propositions.  Propositions
    governed by a prior clause must appear in neither set.  ``epsilon`` may
    be 1.0 at the API level (any plan is then acceptable); the CLI restricts
    it to [0, 1).
    """

    known_true: frozenset[Proposition]
    known_false: frozenset[Proposition]
    goals: tuple[Proposition, ...]
    epsilon: float
    priors: tuple[GroundClause, ...] = ()

    def with_priors(self, clauses: Iterable[GroundClause]) -> "Problem":
        return replace(self, priors=tuple(clauses))


@dataclass(frozen=True)
class Diagnostic:
    level: str  # error | warning
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.level}: [{self.code}] {self.message}"


# ---------------------------------------------------------------------------
# s-expression reader


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


def _read_forms(text: str) -> list:
    """Parse text into nested lists whose leaves are position-carrying
    atoms."""
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


def _is_list(node) -> bool:
    return isinstance(node, tuple) and isinstance(node[0], list)


def _items(node) -> list:
    return node[0]


def _pos(node) -> tuple[int, int]:
    if _is_list(node):
        return node[1]
    return (node.line, node.col)


def _atom(node, what: str) -> str:
    if _is_list(node):
        line, col = _pos(node)
        raise DomainSyntaxError(f"expected {what}, got a list", line, col)
    return str(node)


def _err(node, msg: str):
    line, col = _pos(node)
    raise DomainSyntaxError(msg, line, col)


def _parse_number(node) -> float:
    s = _atom(node, "a number")
    try:
        return float(s)
    except ValueError:
        _err(node, f"expected a number, got {s!r}")


def _parse_varref(node) -> Proposition:
    """VAR := (name args...), no negation allowed."""
    if not _is_list(node) or not _items(node):
        _err(node, "expected a (name args...) form")
    parts = _items(node)
    name = _atom(parts[0], "a name")
    args = tuple(_atom(a, "an argument") for a in parts[1:])
    return Proposition(name, args)


def _parse_literal(node) -> Proposition:
    if not _is_list(node) or not _items(node):
        _err(node, "expected a literal")
    parts = _items(node)
    head = _atom(parts[0], "a name")
    if head == "not":
        if len(parts) != 2:
            _err(node, "(not ...) takes exactly one literal")
        return _parse_varref(parts[1]).negate()
    return _parse_varref(node)


def _parse_params(node) -> tuple[tuple[str, str], ...]:
    out = []
    for p in _items(node)[1:]:
        if not _is_list(p) or len(_items(p)) != 2:
            _err(p, "expected (?var TYPE)")
        v = _atom(_items(p)[0], "a parameter")
        t = _atom(_items(p)[1], "a type name")
        if not v.startswith("?"):
            _err(_items(p)[0], f"parameter {v!r} must start with '?'")
        out.append((v, t))
    return tuple(out)


def _parse_cpt_rows(node) -> dict[tuple[str, ...], float]:
    rows: dict[tuple[str, ...], float] = {}
    for row in _items(node)[1:]:
        if not _is_list(row) or len(_items(row)) != 2:
            _err(row, "expected ((OUTCOME TAIL...) NUM)")
        key_node, num_node = _items(row)
        if not _is_list(key_node):
            _err(key_node, "cpt row key must be a list of outcomes")
        key = tuple(_atom(a, "an outcome") for a in _items(key_node))
        if key in rows:
            _err(row, f"duplicate cpt row {key}")
        rows[key] = _parse_number(num_node)
    return rows


def _check_row_groups(rows: Mapping[tuple[str, ...], float],
                      outcomes: Sequence[str], where: str):
    """The one check of every distribution: CPT rows, and ``(prob ...)``
    maps keyed ``(outcome,)``.  Each probability lies in [0, 1], and rows
    grouped by their tail (influence/body assignment) cover the outcome set
    exactly and sum to one."""
    groups: dict[tuple[str, ...], dict[str, float]] = {}
    for key, p in rows.items():
        if not key:
            raise DomainValidationError(f"{where}: empty cpt row key")
        if key[0] not in outcomes:
            raise DomainValidationError(
                f"{where}: a row names unknown outcome {key[0]!r}")
        if not 0.0 <= p <= 1.0:
            raise DomainValidationError(f"{where}: probability {p} out of range")
        groups.setdefault(key[1:], {})[key[0]] = p
    for tail, by_out in groups.items():
        if set(by_out) != set(outcomes):
            raise DomainValidationError(
                f"{where}: rows for tail {tail} cover {sorted(by_out)} "
                f"but outcomes are {sorted(outcomes)}")
        total = sum(by_out.values())
        if abs(total - 1.0) > PROB_TOL:
            raise DomainValidationError(
                f"{where}: rows for tail {tail} sum to {total}, not 1")


def _parse_operator(form) -> OperatorSchema:
    parts = _items(form)
    if len(parts) < 2:
        _err(form, "operator needs a name")
    name = _atom(parts[1], "an operator name")
    fields: dict = {"name": name, "kind": None}
    outcomes: list[str] = []
    adds: dict[str, tuple] = {}
    dels: dict[str, tuple] = {}
    probs: dict[tuple[str], float] = {}  # (prob ...) rows, keyed (outcome,)
    saw_prob = False
    for sec in parts[2:]:
        if not _is_list(sec) or not _items(sec):
            _err(sec, "expected an operator section")
        head = _atom(_items(sec)[0], "a section name")
        body = _items(sec)[1:]
        if head == "params":
            fields["params"] = _parse_params(sec)
        elif head == "pre":
            fields["preconditions"] = tuple(_parse_literal(l) for l in body)
        elif head == "kind":
            kind = _atom(body[0], "a kind") if body else ""
            if kind not in ("det", "cond", "obs"):
                _err(sec, f"kind must be det, cond or obs, got {kind!r}")
            fields["kind"] = kind
        elif head == "add":
            fields["add"] = tuple(_parse_literal(l) for l in body)
        elif head == "del":
            fields["delete"] = tuple(_parse_literal(l) for l in body)
        elif head == "outcomes":
            for onode in body:
                if not _is_list(onode) or not _items(onode):
                    _err(onode, "expected (OUTCOME sections...)")
                oname = _atom(_items(onode)[0], "an outcome name")
                if oname in outcomes:
                    _err(onode, f"duplicate outcome {oname!r}")
                outcomes.append(oname)
                adds[oname] = ()
                dels[oname] = ()
                for osec in _items(onode)[1:]:
                    if not _is_list(osec) or not _items(osec):
                        _err(osec, "expected an outcome section")
                    ohead = _atom(_items(osec)[0], "an outcome section")
                    obody = _items(osec)[1:]
                    if ohead == "prob":
                        if len(obody) != 1:
                            _err(osec, "(prob ...) takes exactly one number")
                        probs[(oname,)] = _parse_number(obody[0])
                        saw_prob = True
                    elif ohead == "add":
                        adds[oname] = tuple(_parse_literal(l) for l in obody)
                    elif ohead == "del":
                        dels[oname] = tuple(_parse_literal(l) for l in obody)
                    else:
                        _err(osec, f"unknown outcome section {ohead!r}")
        elif head == "observes":
            fields["observes"] = _parse_varref(body[0]) if body else _err(sec, "observes needs a variable")
        elif head == "influences":
            fields["influences"] = tuple(_parse_varref(v) for v in body)
        elif head == "cpt":
            fields["cpt"] = _parse_cpt_rows(sec)
        else:
            _err(sec, f"unknown operator section {head!r}")
    if fields["kind"] is None:
        _err(form, f"operator {name!r} is missing (kind ...)")
    kind = fields["kind"]
    if kind == "det":
        if outcomes or fields.get("observes") or fields.get("influences") or fields.get("cpt"):
            raise DomainValidationError(
                f"operator {name!r}: det operators take only add/del effects")
    else:
        if fields.get("add") or fields.get("delete"):
            raise DomainValidationError(
                f"operator {name!r}: use (outcomes ...) for {kind} operators")
        if not outcomes:
            raise DomainValidationError(f"operator {name!r}: no outcomes declared")
        fields["outcomes"] = OutcomeFamily(tuple(outcomes), adds, dels)
        if saw_prob:
            _check_row_groups(probs, outcomes, f"operator {name!r}")
            fields["simple_distribution"] = {k[0]: p for k, p in probs.items()}
        if kind == "obs":
            if fields.get("observes") is None:
                raise DomainValidationError(f"operator {name!r}: obs operators need (observes ...)")
            if fields.get("influences") or fields.get("cpt"):
                raise DomainValidationError(
                    f"operator {name!r}: obs operators take their distribution "
                    "from the observed variable")
        if kind == "cond":
            if fields.get("observes") is not None:
                raise DomainValidationError(f"operator {name!r}: only obs operators observe")
            if fields.get("cpt") is not None:
                if not fields.get("influences"):
                    raise DomainValidationError(
                        f"operator {name!r}: a cpt needs (influences ...)")
                _check_row_groups(fields["cpt"], outcomes, f"operator {name!r}")
            elif fields.get("influences"):
                raise DomainValidationError(
                    f"operator {name!r}: influences need a (cpt ...)")
    return OperatorSchema(**fields)


def _parse_clause(form) -> KbmcClause:
    head_prop = None
    space: tuple[str, ...] = ()
    body: tuple[Proposition, ...] = ()
    cpt: dict | None = None
    params: tuple = ()
    for sec in _items(form)[1:]:
        if not _is_list(sec) or not _items(sec):
            _err(sec, "expected a clause section")
        shead = _atom(_items(sec)[0], "a section name")
        sbody = _items(sec)[1:]
        if shead == "params":
            params = _parse_params(sec)
        elif shead == "head":
            if len(sbody) != 2:
                _err(sec, "expected (head VAR (OUTCOME...))")
            head_prop = _parse_varref(sbody[0])
            if not _is_list(sbody[1]):
                _err(sbody[1], "expected an outcome list")
            space = tuple(_atom(o, "an outcome") for o in _items(sbody[1]))
        elif shead == "body":
            body = tuple(_parse_varref(v) for v in sbody)
        elif shead == "cpt":
            cpt = _parse_cpt_rows(sec)
        else:
            _err(sec, f"unknown clause section {shead!r}")
    if head_prop is None or not space:
        _err(form, "clause is missing its head")
    if cpt is None:
        _err(form, "clause is missing its cpt")
    if len(set(space)) != len(space):
        raise DomainValidationError(f"clause {head_prop}: duplicate outcomes in space")
    _check_row_groups(cpt, space, f"clause {head_prop}")
    return KbmcClause(head=head_prop, space=space, body=body, cpt=cpt, params=params)


def _parse_types(form) -> dict[str, tuple]:
    out: dict[str, tuple] = {}
    for sec in _items(form)[1:]:
        if not _is_list(sec) or len(_items(sec)) < 2:
            _err(sec, "expected (TYPE member...)")
        tname = _atom(_items(sec)[0], "a type name")
        members: list = []
        for m in _items(sec)[1:]:
            if _is_list(m):
                members.append(tuple(_atom(x, "a constant") for x in _items(m)))
            else:
                members.append(str(m))
        out[tname] = tuple(members)
    return out


def parse_domain(text: str) -> Domain:
    """Parse domain text.  Raises DomainSyntaxError (with line/column) on
    malformed input and DomainValidationError on inconsistent content."""
    operators: list[OperatorSchema] = []
    clauses: list[KbmcClause] = []
    types: dict[str, tuple] = {}
    for form in _read_forms(text):
        if not _is_list(form) or not _items(form):
            _err(form, "expected a top-level form")
        head = _atom(_items(form)[0], "a form name")
        if head == "operator":
            operators.append(_parse_operator(form))
        elif head == "clause":
            clauses.append(_parse_clause(form))
        elif head == "types":
            types.update(_parse_types(form))
        else:
            _err(form, f"unknown top-level form {head!r} in a domain file")
    names = [op.name for op in operators]
    for name in names:
        if names.count(name) > 1:
            raise DomainValidationError(f"duplicate operator name {name!r}")
    _check_clause_acyclicity(
        dict((c.head.name, tuple(b.name for b in c.body)) for c in clauses),
        DomainValidationError)
    return Domain(tuple(operators), tuple(clauses), types)


def parse_problem(text: str) -> Problem:
    forms = _read_forms(text)
    if len(forms) != 1:
        raise DomainValidationError("a problem file holds exactly one (problem ...) form")
    form = forms[0]
    if not _is_list(form) or not _items(form) \
            or _atom(_items(form)[0], "a form name") != "problem":
        _err(form, "expected a (problem ...) form")
    known_true: set[Proposition] = set()
    known_false: set[Proposition] = set()
    goals: tuple[Proposition, ...] = ()
    epsilon: float | None = None
    for sec in _items(form)[1:]:
        if not _is_list(sec) or not _items(sec):
            _err(sec, "expected a problem section")
        head = _atom(_items(sec)[0], "a section name")
        body = _items(sec)[1:]
        if head == "init":
            for lnode in body:
                lit = _parse_literal(lnode)
                (known_false if lit.negated else known_true).add(lit.positive)
        elif head == "goal":
            goals = tuple(_parse_literal(l) for l in body)
        elif head == "epsilon":
            if not body:
                _err(sec, "epsilon needs a number")
            epsilon = _parse_number(body[0])
        else:
            _err(sec, f"unknown problem section {head!r}")
    if epsilon is None:
        _err(form, "problem is missing (epsilon ...)")
    if not 0.0 <= epsilon <= 1.0:
        raise DomainValidationError(f"epsilon {epsilon} out of range [0, 1]")
    both = known_true & known_false
    if both:
        raise DomainValidationError(
            f"init lists {sorted(str(p) for p in both)} as both true and false")
    return Problem(frozenset(known_true), frozenset(known_false), goals, epsilon)


class DependencyCycle(ValueError):
    """``dependency_order`` met a node still on its path.  ``args[0]`` is
    that path, from the walk's root down to the node that closes it."""


def dependency_order(roots: Iterable[str],
                     deps: Mapping[str, Iterable[str]]) -> list[str]:
    """Depth-first post-order from ``roots``, taken in the order given, with
    each node's dependencies visited in declared order: every node comes
    after all of its dependencies.  A node missing from ``deps`` has none.
    Raises DependencyCycle when the dependencies loop."""
    order: list[str] = []
    placed: dict[str, bool] = {}  # False while on the path, True once placed
    stack: list[tuple[str, Iterator[str]]] = []  # the path, with what is left
    for root in roots:
        if root not in placed:
            placed[root] = False
            stack.append((root, iter(deps.get(root, ()))))
        while stack:
            v, pending = stack[-1]
            for d in pending:
                if d not in placed:
                    placed[d] = False
                    stack.append((d, iter(deps.get(d, ()))))
                    break
                if not placed[d]:
                    raise DependencyCycle(tuple(u for u, _ in stack) + (d,))
            else:
                stack.pop()
                placed[v] = True
                order.append(v)
    return order


def _check_clause_acyclicity(deps: Mapping[str, Sequence[str]], error: type):
    try:
        dependency_order(deps, deps)
    except DependencyCycle as e:
        raise error("clause set is cyclic: " + " -> ".join(e.args[0])) from None


# ---------------------------------------------------------------------------
# rendering (canonical, round-trips through the parser)


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
        fam = op.outcomes
        olines = []
        for o in fam.outcomes:
            sects = []
            if op.simple_distribution is not None:
                sects.append(f"(prob {_fmt_num(op.simple_distribution[o])})")
            if fam.adds.get(o):
                sects.append(_render_lits("add", fam.adds[o]))
            if fam.deletes.get(o):
                sects.append(_render_lits("del", fam.deletes[o]))
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


# ---------------------------------------------------------------------------
# grounding


def _normalize_objects(domain: Domain, objects) -> dict[str, tuple]:
    pools: dict[str, tuple] = dict(domain.types)
    if objects is None:
        return pools
    if isinstance(objects, Mapping):
        pools.update({k: tuple(v) for k, v in objects.items()})
    else:
        pools["*"] = tuple(sorted(objects))
    return pools


def _bindings(params, pools: Mapping[str, tuple], what: str):
    if not params:
        yield {}
        return
    per_param = []
    for v, t in params:
        members = pools.get(t, pools.get("*"))
        if not members:
            raise GroundingError(f"{what}: no constants for type {t!r}")
        per_param.append([(v, m) for m in members])
    for combo in itertools.product(*per_param):
        yield dict(combo)


def _subst_args(args: tuple[str, ...], binding: Mapping[str, object],
                what: str) -> tuple[str, ...]:
    out: list[str] = []
    for a in args:
        if a.startswith("?"):
            if a not in binding:
                raise GroundingError(f"{what}: unbound parameter {a!r}")
            m = binding[a]
            out.extend(m if isinstance(m, tuple) else (m,))
        else:
            out.append(a)
    return tuple(out)


def _subst_prop(p: Proposition, binding, what: str) -> Proposition:
    return replace(p, args=_subst_args(p.args, binding, what))


def _ground_operator(op: OperatorSchema, binding) -> GroundOperator:
    what = f"operator {op.name!r}"
    flat: list[str] = []
    for v, _t in op.params:
        m = binding[v]
        flat.extend(m if isinstance(m, tuple) else (m,))
    name = f"{op.name}({','.join(flat)})" if flat else op.name
    sub = lambda p: _subst_prop(p, binding, what)
    fields = dict(
        name=name,
        kind=op.kind,
        preconditions=tuple(sub(p) for p in op.preconditions),
        add=tuple(sub(p) for p in op.add),
        delete=tuple(sub(p) for p in op.delete),
        simple_distribution=op.simple_distribution,
        cpt=op.cpt,
    )
    if op.outcomes is not None:
        fam = op.outcomes
        fields["outcomes"] = fam.outcomes
        fields["outcome_adds"] = {o: tuple(sub(p) for p in fam.adds.get(o, ()))
                                  for o in fam.outcomes}
        fields["outcome_dels"] = {o: tuple(sub(p) for p in fam.deletes.get(o, ()))
                                  for o in fam.outcomes}
    if op.observes is not None:
        fields["observes"] = var_id(sub(op.observes))
    fields["influences"] = tuple(var_id(sub(v)) for v in op.influences)
    return GroundOperator(**fields)


def ground(domain: Domain, objects=None) -> GroundDomain:
    """Instantiate every schema over the declared (or given) constants.

    ``objects`` may be a mapping ``type -> members`` (members may be tuples,
    spliced into argument lists) or a plain set of constants shared by all
    types.  Instances come out in a deterministic canonical order.
    """
    pools = _normalize_objects(domain, objects)
    ops: list[GroundOperator] = []
    for op in domain.operators:
        for binding in _bindings(op.params, pools, f"operator {op.name!r}"):
            ops.append(_ground_operator(op, binding))
    names = [o.name for o in ops]
    for n in names:
        if names.count(n) > 1:
            raise GroundingError(f"grounding produced duplicate operator {n!r}")
    clauses: list[GroundClause] = []
    for c in domain.clauses:
        what = f"clause {c.head}"
        for binding in _bindings(c.params, pools, what):
            head = _subst_prop(c.head, binding, what)
            parents = tuple(var_id(_subst_prop(b, binding, what)) for b in c.body)
            clauses.append(GroundClause(var_id(head), c.space, parents, c.cpt))
    by_var: dict[str, GroundClause] = {}
    for c in clauses:
        if c.var in by_var:
            raise GroundingError(f"two clauses govern variable {c.var}")
        by_var[c.var] = c
    for c in clauses:
        for p in c.parents:
            if p not in by_var:
                raise GroundingError(f"clause for {c.var} depends on undeclared {p}")
    _check_clause_acyclicity({c.var: c.parents for c in by_var.values()},
                             GroundingError)
    ops.sort(key=lambda o: o.name)
    clauses.sort(key=lambda c: c.var)
    return GroundDomain(tuple(ops), tuple(clauses))


def prop_from_text(s: str) -> Proposition:
    """Inverse of Proposition.text() for a single literal."""
    forms = _read_forms(s)
    if len(forms) != 1:
        raise DomainSyntaxError("expected a single literal", 1, 1)
    return _parse_literal(forms[0])


# ---------------------------------------------------------------------------
# problem validation


def _mentioned_props(gdomain: GroundDomain, problem: Problem) -> set[Proposition]:
    props: set[Proposition] = set()
    for op in gdomain.operators:
        for p in op.preconditions + op.add + op.delete:
            props.add(p.positive)
        for o in op.outcomes:
            for p in op.outcome_adds.get(o, ()) + op.outcome_dels.get(o, ()):
                props.add(p.positive)
    for g in problem.goals:
        props.add(g.positive)
    return props


def validate_problem(problem: Problem, gdomain: GroundDomain) -> list[Diagnostic]:
    """Check that every proposition is governed exactly once: known true,
    known false, or covered by a prior clause.  Also cross-checks operator
    distributions against the clause set.  Returns diagnostics; an empty
    error set means the pair is plannable."""
    diags: list[Diagnostic] = []
    clause_vars = {c.var: c for c in gdomain.clauses}
    known = {p: True for p in problem.known_true}
    known.update({p: False for p in problem.known_false})

    for p in sorted(_mentioned_props(gdomain, problem)):
        vid = var_id(p)
        in_known = p in known
        in_prior = vid in clause_vars
        if in_known and in_prior:
            diags.append(Diagnostic(
                "error", "doubly-governed",
                f"{p} is listed in init and also governed by a prior clause"))
        elif not in_known and not in_prior:
            diags.append(Diagnostic(
                "error", "uncovered-proposition",
                f"{p} is neither known in init nor governed by a prior clause"))
        if in_prior and set(clause_vars[vid].space) != {"true", "false"}:
            diags.append(Diagnostic(
                "error", "non-boolean-proposition",
                f"{p} appears in operator effects but variable {vid} has "
                f"outcomes {list(clause_vars[vid].space)}"))

    known_vids = {var_id(p) for p in known}
    for op in gdomain.operators:
        if op.kind == "obs":
            if op.observes not in clause_vars:
                if op.observes in known_vids:
                    diags.append(Diagnostic(
                        "warning", "observation-of-known",
                        f"operator {op.name} observes {op.observes}, already known"))
                else:
                    diags.append(Diagnostic(
                        "error", "observation-of-unknown-variable",
                        f"operator {op.name} observes {op.observes}, which no "
                        "clause governs"))
            elif tuple(op.outcomes) != tuple(clause_vars[op.observes].space):
                diags.append(Diagnostic(
                    "error", "outcome-space-mismatch",
                    f"operator {op.name} outcomes {list(op.outcomes)} do not "
                    f"match {op.observes} outcomes "
                    f"{list(clause_vars[op.observes].space)}"))
        if op.kind == "cond":
            if op.simple_distribution is None and op.cpt is None:
                diags.append(Diagnostic(
                    "error", "conditional-without-distribution",
                    f"operator {op.name} has neither outcome probabilities "
                    "nor a cpt"))
            if op.cpt is not None:
                spaces = []
                ok = True
                for v in op.influences:
                    if v in clause_vars:
                        spaces.append(clause_vars[v].space)
                    elif v in known_vids:
                        spaces.append(("true", "false"))
                    else:
                        diags.append(Diagnostic(
                            "error", "missing-influence-variable",
                            f"operator {op.name} is influenced by {v}, which "
                            "nothing governs"))
                        ok = False
                if ok:
                    want = {tuple(t) for t in itertools.product(*spaces)} if spaces else {()}
                    have = {k[1:] for k in op.cpt}
                    missing = want - have
                    if missing:
                        diags.append(Diagnostic(
                            "error", "missing-cpt-row",
                            f"operator {op.name} cpt lacks rows for influence "
                            f"assignments {sorted(missing)}"))
    return diags
