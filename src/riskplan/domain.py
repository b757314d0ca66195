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

The reader makes one regular-expression pass over each line: a token is a
paren or a run of characters other than whitespace, parens and ``;``, and
a ``;`` ends the line.  Whitespace is exactly space, tab, CR and LF; any
other character, ``\\x0b`` and ``\\xa0`` among them, belongs to an atom.
Every list and atom keeps the 1-based ``(line, col)`` of its first
character, counted in characters with a tab as one column, and a syntax
error reports the position of the token at fault.  A literal text of a
plan document, written by ``Proposition.text()``, is read by one pattern
match instead (``prop_from_text``); the reader takes any other text.

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
``GroundOperator`` applies this rule once, variable by variable, when it is
made: ``effect_values`` gives the values, and ``effective_deletes`` and
``clobbers`` the literals those values make false, so ``(del (p)) (add
(p))`` leaves p true and clobbers only ``(not (p))``.

This module also decides which table prices a draw.  A table keyed
``(outcome, *tail)`` gives *rows* (``distribution_rows``): tail -> the
probabilities over the outcomes in declared order, a tail that lacks an
outcome left out.  A row gives a *cut row* (``cut_rows``): its running
sums without the last.  A chance step's ``outcome_rows`` are its cpt's,
keyed by its influences' values (``row_vars``), else its ``(prob ...)``
map's, keyed ``()``; a prior clause's ``rows`` are keyed by its parents'
values.  Replay bisects cut rows; the exact walk and the belief net read
rows.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import DomainSyntaxError, DomainValidationError, GroundingError

__all__ = [
    "PROB_TOL",
    "Proposition",
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
    "ground",
    "validate_problem",
    "var_id",
]

PROB_TOL = 1e-9

# ---------------------------------------------------------------------------
# propositions


class Proposition(NamedTuple):
    """A ground or schematic literal: ``(name args...)`` or its negation.

    A tuple of its fields: it equals, hashes and sorts as the plain tuple
    ``(name, args, negated)``."""

    name: str
    args: tuple[str, ...] = ()
    negated: bool = False

    def negate(self) -> "Proposition":
        return Proposition(self.name, self.args, not self.negated)

    @property
    def positive(self) -> "Proposition":
        return Proposition(self.name, self.args) if self.negated else self

    def text(self) -> str:
        inner = "(" + " ".join((self.name,) + self.args) + ")"
        return f"(not {inner})" if self.negated else inner

    def __str__(self) -> str:
        return self.text()


def var_id(prop: Proposition) -> str:
    """Display/handle form of a proposition-shaped variable: ``clear(b,s)``."""
    args = prop.args
    return f"{prop.name}({','.join(args)})" if args else prop.name


def literal_value(lit: Proposition) -> tuple[str, str]:
    """The (variable id, value) that makes ``lit`` hold."""
    return var_id(lit.positive), "false" if lit.negated else "true"


def literal_values(lits: Iterable[Proposition]) -> tuple[tuple[str, str], ...]:
    """The (variable id, wanted value) each literal asks for, in order."""
    return tuple(map(literal_value, lits))


# ---------------------------------------------------------------------------
# schema-level types


@dataclass(frozen=True, eq=True)
class OperatorSchema:
    name: str
    kind: str  # det | cond | obs
    params: tuple[tuple[str, str], ...] = ()
    preconditions: tuple[Proposition, ...] = ()
    add: tuple[Proposition, ...] = ()
    delete: tuple[Proposition, ...] = ()
    outcomes: tuple[str, ...] = ()
    outcome_adds: Mapping[str, tuple[Proposition, ...]] = field(
        default_factory=dict)
    outcome_dels: Mapping[str, tuple[Proposition, ...]] = field(
        default_factory=dict)
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
    cpt: Mapping[tuple[str, ...], float] = field(default_factory=dict)
    params: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True, eq=True)
class Domain:
    operators: tuple[OperatorSchema, ...] = ()
    clauses: tuple[KbmcClause, ...] = ()
    types: Mapping[str, tuple] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# ground-level types


@dataclass(frozen=True, eq=True, init=False)
class GroundOperator:
    """A fully instantiated operator.  ``start`` and ``goal`` pseudo-operators
    use the same shape so plan steps are uniform."""

    name: str
    kind: str  # det | cond | obs | start | goal
    preconditions: tuple[Proposition, ...] = ()
    add: tuple[Proposition, ...] = ()
    delete: tuple[Proposition, ...] = ()
    outcomes: tuple[str, ...] = ()
    outcome_adds: Mapping[str, tuple] = field(default_factory=dict)
    outcome_dels: Mapping[str, tuple] = field(default_factory=dict)
    simple_distribution: Mapping[str, float] | None = None
    influences: tuple[str, ...] = ()  # variable ids
    cpt: Mapping[tuple[str, ...], float] | None = None
    observes: str | None = None  # variable id

    # outcome (None = det) -> {variable id: value}; see effect_values
    _effects: Mapping = field(init=False, repr=False, compare=False)
    # outcome (None = det) -> frozenset; see effective_deletes
    _deletes: Mapping = field(init=False, repr=False, compare=False)
    # the outcomes a run can take: (None,) for det and start steps, which
    # have none, else the declared outcomes
    runs: tuple = field(init=False, repr=False, compare=False)
    # every literal some run deletes: effective_deletes over ``runs``
    clobbers: frozenset = field(init=False, repr=False, compare=False)
    # (variable id, wanted value) of each precondition, in declared order
    precondition_values: tuple[tuple[str, str], ...] = field(
        init=False, repr=False, compare=False)
    # the rows a run draws its outcome from, the variables whose values
    # key them, and their cut rows: see the module docstring
    outcome_rows: Mapping[tuple[str, ...], list[float]] = field(
        init=False, repr=False, compare=False)
    row_vars: tuple[str, ...] = field(init=False, repr=False, compare=False)
    outcome_cuts: Mapping[tuple[str, ...], list[float]] = field(
        init=False, repr=False, compare=False)

    def __init__(self, name, kind, preconditions=(), add=(), delete=(),
                 outcomes=(), outcome_adds=None, outcome_dels=None,
                 simple_distribution=None, influences=(), cpt=None,
                 observes=None):
        """The declared fields as given (an outcome map left out is a new
        empty dict), and the derived fields worked out from them in one
        pass over the literals.  A plan document's decode builds every
        step here, so each literal is unpacked as ``name, args, neg`` and
        its variable id (``var_id``) and negation are made in place."""
        if outcome_adds is None:
            outcome_adds = {}
        if outcome_dels is None:
            outcome_dels = {}
        # one pass over (None,) + outcomes builds each outcome's effect
        # values and, by variable, the literal each value makes false
        new = tuple.__new__
        effects: dict = {}
        deletes: dict = {}
        for o in (None, *outcomes):
            if o is None:
                added, deleted = add, delete
            else:
                added = outcome_adds.get(o, ())
                deleted = outcome_dels.get(o, ())
            values: dict[str, str] = {}
            false: dict[str, Proposition] = {}  # variable -> literal made false
            for p in deleted:
                n, args, neg = p
                v = f"{n}({','.join(args)})" if args else n
                values[v] = "true" if neg else "false"
                false[v] = p
            for p in added:
                n, args, neg = p
                v = f"{n}({','.join(args)})" if args else n
                values[v] = "false" if neg else "true"
                false[v] = new(Proposition, (n, args, not neg))
            effects[o] = values
            deletes[o] = frozenset(false.values())
        if kind in ("det", "start"):
            runs = (None,)
            clobbers = deletes[None]
        else:
            runs = outcomes
            clobbers = frozenset().union(*(deletes[o] for o in runs))
        wants = []
        for n, args, neg in preconditions:
            wants.append((f"{n}({','.join(args)})" if args else n,
                          "false" if neg else "true"))
        rows, row_vars = {}, ()
        if cpt is not None:
            rows = distribution_rows(cpt, outcomes)
            row_vars = influences
        elif simple_distribution is not None:
            rows = distribution_rows(
                {(o,): p for o, p in simple_distribution.items()}, outcomes)
        # Every field is written once, here, through object.__setattr__ as
        # a frozen dataclass's own __init__ writes it, and in declaration
        # order, so that all operators share one attribute layout.  None is
        # lazy: a __getattr__ fallback or a cached property, like touching
        # self.__dict__, stops CPython 3.11 from specialising attribute
        # loads on the class, and every later read of an operator field
        # (search reads clobbers on each threat check) would be several
        # times slower: about 4x once __dict__ is touched, about 6x on a
        # class with a __getattr__.
        put = object.__setattr__
        put(self, "name", name)
        put(self, "kind", kind)
        put(self, "preconditions", preconditions)
        put(self, "add", add)
        put(self, "delete", delete)
        put(self, "outcomes", outcomes)
        put(self, "outcome_adds", outcome_adds)
        put(self, "outcome_dels", outcome_dels)
        put(self, "simple_distribution", simple_distribution)
        put(self, "influences", influences)
        put(self, "cpt", cpt)
        put(self, "observes", observes)
        put(self, "_effects", effects)
        put(self, "_deletes", deletes)
        put(self, "runs", runs)
        put(self, "clobbers", clobbers)
        put(self, "precondition_values", tuple(wants))
        put(self, "outcome_rows", rows)
        put(self, "row_vars", row_vars)
        put(self, "outcome_cuts", cut_rows(rows) if rows else rows)

    def effective_deletes(self, outcome: str | None) -> frozenset[Proposition]:
        """The literals a run under ``outcome`` (None = det) makes false:
        the negation of each literal ``effect_values`` makes hold, computed
        once per outcome when the operator is made."""
        return self._deletes.get(outcome, frozenset())

    def effect_values(self, outcome: str | None) -> Mapping[str, str]:
        """The value (``"true"``/``"false"``) each variable this operator
        writes takes when it runs under ``outcome`` (None = det).  The
        mapping is shared: read it, do not change it."""
        return self._effects.get(outcome, {})

    def establishing_outcomes(self, lit: Proposition) -> list[str | None]:
        """Outcomes under which this operator makes ``lit`` hold (None =
        det)."""
        var, want = literal_value(lit)
        return [o for o in self.runs if self._effects[o].get(var) == want]

    def touches_variable(self, var: str) -> bool:
        """True if executing this operator reveals or forces the value of
        the boolean variable ``var`` (observation of it, or setting either
        polarity of its underlying proposition)."""
        return self.observes == var or any(
            var in values for values in self._effects.values())


def distribution_rows(table: Mapping[tuple[str, ...], float],
                      outcomes: Sequence[str]) -> dict[tuple, list[float]]:
    """The rows of ``table``, keyed ``(outcome, *tail)``: each tail, in the
    order ``table`` first names it, maps to ``[table[(o,) + tail] for o in
    outcomes]``.  A tail that lacks some outcome's entry is left out."""
    rows: dict[tuple, list[float]] = {}
    for key in table:
        tail = key[1:]
        if tail not in rows:
            row = [table.get((o,) + tail) for o in outcomes]
            if None not in row:
                rows[tail] = row
    return rows


def cut_rows(rows: Mapping[tuple, list[float]]) -> dict[tuple, list[float]]:
    """The cut row of each row: its running sums ``acc += p`` in order,
    without the last.  Probabilities are never negative, so a cut row is
    non-decreasing, and the outcome a uniform ``u`` picks is
    ``outcomes[bisect_right(cuts, u)]``: the first whose running sum
    exceeds ``u``, else the last.  That is the pick ``min(bisect_right(sums,
    u), len(sums) - 1)`` over the full running sums, whose last entry may
    round below or above 1, with the clamp built into the row."""
    cuts: dict[tuple, list[float]] = {}
    for tail, row in rows.items():
        acc, sums = 0.0, []
        for p in row[:-1]:
            acc += p
            sums.append(acc)
        cuts[tail] = sums
    return cuts


@dataclass(frozen=True, eq=True)
class GroundClause:
    var: str
    space: tuple[str, ...]
    parents: tuple[str, ...] = ()
    cpt: Mapping[tuple[str, ...], float] = field(default_factory=dict)
    # parent assignment -> row over ``space``; see distribution_rows
    rows: Mapping[tuple[str, ...], list[float]] = field(
        init=False, repr=False, compare=False)
    # what ``cuts`` and ``row_fault`` find, kept in fields: a cached
    # property writes the instance dict, which makes every later field read
    # about twice as slow.  A fault text is never "", and None is a result,
    # so "" marks a fault not yet looked for.
    _cuts: dict = field(default=None, init=False, repr=False, compare=False)
    _row_fault: str | None = field(default="", init=False, repr=False,
                                   compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rows",
                           distribution_rows(self.cpt, self.space))

    @property
    def cuts(self) -> dict[tuple, list[float]]:
        """Parent assignment -> cut row, built on first use."""
        if self._cuts is None:
            object.__setattr__(self, "_cuts", cut_rows(self.rows))
        return self._cuts

    @property
    def row_fault(self) -> str | None:
        """Why the rows are no distribution over ``space`` at each parent
        assignment they name, as ``prior <variable>: ...``, or None: the
        outcomes repeat or there are none, or ``_check_row_groups`` refuses
        the rows.  Looked for on first use."""
        if self._row_fault == "":
            object.__setattr__(self, "_row_fault", self._find_row_fault())
        return self._row_fault

    def _find_row_fault(self) -> str | None:
        where = f"prior {self.var}"
        if not self.space or len(set(self.space)) != len(self.space):
            return f"{where}: outcomes must be distinct and at least one"
        try:
            _check_row_groups(self.cpt, self.space, where)
        except DomainValidationError as e:
            return str(e)
        return None


@dataclass(frozen=True, eq=True)
class GroundDomain:
    operators: tuple[GroundOperator, ...]  # sorted by name
    # in dependency order over sorted variable names: parents first
    clauses: tuple[GroundClause, ...]

    @cached_property
    def _producers(self) -> dict[tuple[str, str], tuple]:
        """(variable id, value) -> each (operator, outcome) whose run sets
        the variable to the value, in operator order, then in ``runs``
        order; built in one pass over the operators on first use."""
        index: dict[tuple[str, str], list] = {}
        for op in self.operators:
            for o in op.runs:
                for item in op.effect_values(o).items():
                    index.setdefault(item, []).append((op, o))
        return {item: tuple(pairs) for item, pairs in index.items()}

    def producers(self, lit: Proposition
                  ) -> tuple[tuple[GroundOperator, str | None], ...]:
        """Each (operator, outcome) under which an operator makes ``lit``
        hold (None = det), in operator order: ``establishing_outcomes`` of
        every operator, read from an index of the domain's effects."""
        return self._producers.get(literal_value(lit), ())


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


# an atom: a run of characters other than whitespace, parens and ``;``
_ATOM = r"[^ \t\r\n();]+"
_TOKEN = re.compile(rf"[()]|{_ATOM}|;")
# a literal as ``Proposition.text()`` writes it, its names one space apart:
# group 1 is the body of ``(not (...))``, group 2 that of a positive
# literal, whose name is not ``not``
_NAMES = rf"({_ATOM}(?: {_ATOM})*)"
_LITERAL = re.compile(rf"\((?:not \({_NAMES}\)|(?!not[ )]){_NAMES})\)")


def _read_forms(text: str) -> list:
    """Parse text into nested forms.  A list is ``(items, (line, col))``
    and an atom ``(text, (line, col))``, each at its first character."""
    forms: list = []
    top = forms  # the list being filled
    stack: list[list] = []  # the lists that enclose it
    pos = None  # of the last token read
    for line, row in enumerate(text.split("\n"), 1):
        for m in _TOKEN.finditer(row):
            tok = m[0]
            if tok == ";":
                break
            pos = (line, m.start() + 1)
            if tok == "(":
                new: list = []
                top.append((new, pos))
                stack.append(top)
                top = new
            elif tok == ")":
                if not stack:
                    raise DomainSyntaxError("unbalanced ')'", *pos)
                top = stack.pop()
            else:
                if not stack:
                    raise DomainSyntaxError(
                        f"stray atom {tok!r} outside any form", *pos)
                top.append((tok, pos))
    if stack:
        raise DomainSyntaxError("unclosed '('", *pos)
    return forms


def _is_list(node) -> bool:
    return isinstance(node[0], list)


def _items(node) -> list:
    return node[0]


def _pos(node) -> tuple[int, int]:
    return node[1]


def _atom(node, what: str) -> str:
    if _is_list(node):
        line, col = _pos(node)
        raise DomainSyntaxError(f"expected {what}, got a list", line, col)
    return node[0]


def _err(node, msg: str):
    line, col = _pos(node)
    raise DomainSyntaxError(msg, line, col)


def _sections(nodes, what: str, merged: str = "") -> Iterator[tuple]:
    """(section, head, body) for each of ``nodes``: a nonempty list headed
    by an atom, or a syntax error that expects ``what`` ("an operator
    section").  A head seen before raises DomainSyntaxError at its
    section, unless it is ``merged``, whose repeats merge."""
    seen: set[str] = set()
    for sec in nodes:
        if not _is_list(sec) or not _items(sec):
            _err(sec, f"expected {what}")
        head = _atom(_items(sec)[0], "a section name")
        if head in seen and head != merged:
            _err(sec, f"repeated {what.split(' ', 1)[1]} {head!r}")
        seen.add(head)
        yield sec, head, _items(sec)[1:]


def _parse_number(node) -> float:
    s = _atom(node, "a number")
    try:
        return float(s)
    except ValueError:
        _err(node, f"expected a number, got {s!r}")


def _parse_varref(node) -> Proposition:
    """VAR := (name args...), no negation allowed."""
    parts = node[0]
    if not isinstance(parts, list) or not parts:
        _err(node, "expected a (name args...) form")
    name = _atom(parts[0], "a name")
    args = tuple(_atom(a, "an argument") for a in parts[1:])
    return Proposition(name, args)


def _parse_literal(node) -> Proposition:
    parts = node[0]
    if not isinstance(parts, list) or not parts:
        _err(node, "expected a literal")
    if _atom(parts[0], "a name") == "not":
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
    present: set[str] = set()  # section names; an empty section counts
    for sec, head, body in _sections(parts[2:], "an operator section",
                                     "outcomes"):
        present.add(head)
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
                for osec, ohead, obody in _sections(_items(onode)[1:],
                                                    "an outcome section"):
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
        if present & {"outcomes", "observes", "influences", "cpt"}:
            raise DomainValidationError(
                f"operator {name!r}: det operators take only add/del effects")
    else:
        if present & {"add", "del"}:
            raise DomainValidationError(
                f"operator {name!r}: use (outcomes ...) for {kind} operators")
        if not outcomes:
            raise DomainValidationError(f"operator {name!r}: no outcomes declared")
        fields.update(outcomes=tuple(outcomes), outcome_adds=adds,
                      outcome_dels=dels)
        if saw_prob:
            _check_row_groups(probs, outcomes, f"operator {name!r}")
            fields["simple_distribution"] = {k[0]: p for k, p in probs.items()}
        if kind == "obs":
            if fields.get("observes") is None:
                raise DomainValidationError(f"operator {name!r}: obs operators need (observes ...)")
            if present & {"influences", "cpt"}:
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
    for sec, shead, sbody in _sections(_items(form)[1:], "a clause section"):
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
                members.append(m[0])
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
    dup = _first_duplicate([op.name for op in operators])
    if dup is not None:
        raise DomainValidationError(f"duplicate operator name {dup!r}")
    # keyed by each variable as written (``p(?x)`` stays so): exact for
    # parameter-free clauses, and grounding checks the rest
    deps: dict[str, list[str]] = {}
    for c in clauses:
        deps.setdefault(var_id(c.head), []).extend(map(var_id, c.body))
    _check_clause_acyclicity(deps)
    return Domain(tuple(operators), tuple(clauses), types)


def _first_duplicate(names: Sequence[str]) -> str | None:
    """The first name in ``names`` that occurs more than once, or None."""
    counts = Counter(names)
    return next((n for n in names if counts[n] > 1), None)


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
    for sec, head, body in _sections(_items(form)[1:], "a problem section",
                                     "init"):
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


def _check_clause_acyclicity(deps: Mapping[str, Sequence[str]]) -> None:
    """Raise DomainValidationError when clause dependencies ``deps`` loop."""
    try:
        dependency_order(deps, deps)
    except DependencyCycle as e:
        raise DomainValidationError(
            "clause set is cyclic: " + " -> ".join(e.args[0])) from None


def ordered_clauses(clauses: Sequence[GroundClause],
                    error: type) -> list[GroundClause]:
    """``clauses`` in dependency order from the sorted variable names,
    parents first: the one check of a set of ground clauses.  Raises
    ``error`` when two clauses govern one variable, a clause names a parent
    that has no clause (before a cycle, if both), or the clauses loop."""
    by_var: dict[str, GroundClause] = {}
    for c in clauses:
        if c.var in by_var:
            raise error(f"two clauses govern variable {c.var}")
        by_var[c.var] = c
    try:
        return [by_var[v] for v in dependency_order(
            sorted(by_var), {v: c.parents for v, c in by_var.items()})]
    except (DependencyCycle, KeyError) as e:
        # the walk places an undeclared parent, so the lookup fails on it
        for c in clauses:
            for p in c.parents:
                if p not in by_var:
                    raise error(f"clause for {c.var} depends on undeclared "
                                f"{p}") from None
        raise error("clause set is cyclic: " + " -> ".join(e.args[0])) \
            from None


def complete_clauses(clauses: Sequence[GroundClause],
                     error: type) -> list[GroundClause]:
    """``ordered_clauses(clauses, error)``, each clause also a distribution
    to draw from: it has no ``row_fault``, and a row for every assignment
    to its parents.  Raises ``error`` as ordered_clauses does, or with a
    text that starts ``prior <variable>:``."""
    ordered = ordered_clauses(clauses, error)
    spaces = {c.var: c.space for c in ordered}
    for c in ordered:
        if c.row_fault is not None:
            raise error(c.row_fault)
        # with no row_fault, a tail without a row has no entries at all
        rows = c.rows
        for tail in itertools.product(*map(spaces.__getitem__, c.parents)):
            if tail not in rows:
                raise error(f"prior {c.var}: no row for "
                            f"{(c.space[0],) + tail}")
    return ordered


# ---------------------------------------------------------------------------
# grounding


def _bindings(params, pools: Mapping[str, tuple], what: str):
    if not params:
        yield {}
        return
    per_param = []
    for v, t in params:
        members = pools.get(t)
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
    return Proposition(p.name, _subst_args(p.args, binding, what), p.negated)


def _ground_operator(op: OperatorSchema, binding) -> GroundOperator:
    what = f"operator {op.name!r}"
    flat: list[str] = []
    for v, _t in op.params:
        m = binding[v]
        flat.extend(m if isinstance(m, tuple) else (m,))
    name = f"{op.name}({','.join(flat)})" if flat else op.name
    sub = lambda p: _subst_prop(p, binding, what)
    return GroundOperator(
        name, op.kind, tuple(sub(p) for p in op.preconditions),
        tuple(sub(p) for p in op.add), tuple(sub(p) for p in op.delete),
        op.outcomes,
        {o: tuple(sub(p) for p in ps) for o, ps in op.outcome_adds.items()},
        {o: tuple(sub(p) for p in ps) for o, ps in op.outcome_dels.items()},
        op.simple_distribution, tuple(var_id(sub(v)) for v in op.influences),
        op.cpt, None if op.observes is None else var_id(sub(op.observes)))


def ground(domain: Domain) -> GroundDomain:
    """Instantiate every schema over the members of its parameters'
    declared types; a tuple member is spliced into the argument list.  An
    undeclared or empty type raises GroundingError, as does a clause set
    ``ordered_clauses`` refuses.  Instances come out in a deterministic
    canonical order.
    """
    ops: list[GroundOperator] = []
    for op in domain.operators:
        for binding in _bindings(op.params, domain.types, f"operator {op.name!r}"):
            ops.append(_ground_operator(op, binding))
    dup = _first_duplicate([o.name for o in ops])
    if dup is not None:
        raise GroundingError(f"grounding produced duplicate operator {dup!r}")
    clauses: list[GroundClause] = []
    for c in domain.clauses:
        what = f"clause {c.head}"
        for binding in _bindings(c.params, domain.types, what):
            head = _subst_prop(c.head, binding, what)
            parents = tuple(var_id(_subst_prop(b, binding, what)) for b in c.body)
            clauses.append(GroundClause(var_id(head), c.space, parents, c.cpt))
    ops.sort(key=lambda o: o.name)
    return GroundDomain(tuple(ops),
                        tuple(ordered_clauses(clauses, GroundingError)))


def prop_from_text(s: str) -> Proposition:
    """Inverse of Proposition.text() for a single literal.

    A text in the form ``text()`` writes, ``(NAME ARG ...)`` or ``(not
    (NAME ARG ...))`` with one space between names and a positive name
    other than ``not``, is taken by one match of a pattern.  The reader
    reads any other text (other spacing, comments, newlines), so both
    accept the same texts, and it raises DomainSyntaxError, with its line
    and column, for a text that is no single literal."""
    m = _LITERAL.fullmatch(s) if isinstance(s, str) else None
    if m is None:
        forms = _read_forms(s)
        if len(forms) != 1:
            raise DomainSyntaxError("expected a single literal", 1, 1)
        return _parse_literal(forms[0])
    name, *args = m[m.lastindex].split(" ")
    return Proposition(name, tuple(args), m.lastindex == 1)


class _Literals(dict):
    """Literal text -> Proposition for one plan document: ``table[text]``
    reads a text through ``prop_from_text`` (one pattern match for a text
    ``Proposition.text()`` wrote) the first time it is asked for, and
    returns that Proposition again after.  A decoder makes one per document
    and drops it with the document; an unhashable text raises TypeError."""

    __slots__ = ()

    def __missing__(self, text: str) -> Proposition:
        lit = self[text] = prop_from_text(text)
        return lit


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
    known false, or covered by a prior clause, and that no two propositions
    share a variable id.  Also cross-checks operator distributions against
    the clause set.  Returns diagnostics; an empty error set means the pair
    is plannable."""
    diags: list[Diagnostic] = []
    clause_vars = {c.var: c for c in gdomain.clauses}
    known = {p: True for p in problem.known_true}
    known.update({p: False for p in problem.known_false})
    mentioned = _mentioned_props(gdomain, problem)

    # var_id joins arguments with commas and an atom may hold one, so two
    # propositions can name one variable; planning would conflate them
    first: dict[str, Proposition] = {}
    for p in sorted(mentioned.union(known)):
        q = first.setdefault(var_id(p), p)
        if q != p:
            diags.append(Diagnostic(
                "error", "shared-variable",
                f"{q} and {p} are both variable {var_id(p)}"))

    for p in sorted(mentioned):
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

    for c in gdomain.clauses:
        missing = [(o,) + tail for tail in itertools.product(
            *(clause_vars[p].space for p in c.parents))
            if tail not in c.rows for o in c.space]
        if missing:
            diags.append(Diagnostic(
                "error", "missing-cpt-row",
                f"clause {c.var} cpt lacks (outcome, *parents) rows "
                f"{missing}"))

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
            else:
                spaces = []
                ok = True
                for v in op.row_vars:
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
                    missing = [tail for tail in itertools.product(*spaces)
                               if tail not in op.outcome_rows]
                    if missing:
                        diags.append(Diagnostic(
                            "error", "missing-cpt-row",
                            f"operator {op.name} cpt lacks rows for influence "
                            f"assignments {sorted(missing)}"))
    return diags
