"""Bundled example domains.

Each function returns ``(domain_text, problem_text)`` in the package's
domain language, ready to parse, write to files, or feed to the CLI.
``load_texts`` turns a pair into a ground domain plus a problem whose
priors are attached.
"""

from __future__ import annotations

from .domain import (GroundDomain, Problem, ground, parse_domain,
                     parse_problem)

__all__ = [
    "ski_world",
    "sussman",
    "det_chain",
    "slippery_walk",
    "press_button",
    "nroad_world",
    "load_texts",
]


def _num(x: float) -> str:
    return format(x, ".12g")


def load_texts(domain_text: str, problem_text: str) -> tuple[GroundDomain, Problem]:
    gdom = ground(parse_domain(domain_text))
    problem = parse_problem(problem_text).with_priors(gdom.clauses)
    return gdom, problem


def ski_world() -> tuple[str, str]:
    """Getting from town to a ski resort when a storm may have closed the
    canyon roads.  One road is usually open (p = 0.9091); checking it at the
    junction branches the plan, and the long way around through c is only
    worth covering at tight failure budgets."""
    domain = """\
; Reaching a ski resort from town b.  Two canyon roads lead to resorts:
; b->snowbird and c->parkcity.  A blizzard (prior 0.1) tends to close
; both.  Road state can be checked only from the road's trailhead.

(operator drive-b-snowbird
  (kind det)
  (pre (at b) (clear b snowbird))
  (add (at snowbird) (at-resort))
  (del (at b)))

(operator drive-b-c
  (kind det)
  (pre (at b))
  (add (at c))
  (del (at b)))

(operator drive-c-parkcity
  (kind det)
  (pre (at c) (clear c parkcity))
  (add (at parkcity) (at-resort))
  (del (at c)))

(operator check-road-b-snowbird
  (kind obs)
  (pre (at b))
  (observes (clear b snowbird))
  (outcomes (true (add (clear b snowbird)))
            (false (del (clear b snowbird)))))

(operator check-road-c-parkcity
  (kind obs)
  (pre (at c))
  (observes (clear c parkcity))
  (outcomes (true (add (clear c parkcity)))
            (false (del (clear c parkcity)))))

(operator listen-radio
  (kind obs)
  (observes (blizzard))
  (outcomes (true) (false)))

(clause (head (blizzard) (true false))
  (cpt ((true) 0.1) ((false) 0.9)))

(clause (head (clear b snowbird) (true false))
  (body (blizzard))
  (cpt ((true true) 0.1) ((false true) 0.9)
       ((true false) 0.999) ((false false) 0.001)))

(clause (head (clear c parkcity) (true false))
  (body (blizzard))
  (cpt ((true true) 0.1) ((false true) 0.9)
       ((true false) 0.999) ((false false) 0.001)))
"""
    problem = """\
(problem
  (init (at b) (not (at c)) (not (at snowbird)) (not (at parkcity))
        (not (at-resort)))
  (goal (at-resort))
  (epsilon 0.1))
"""
    return domain, problem


def sussman() -> tuple[str, str]:
    """Three-block stacking with interleaved subgoals; fully deterministic,
    so any correct plan has mass 1."""
    blocks = ("a", "b", "c")
    ops = []
    for x in blocks:
        others = [b for b in blocks if b != x]
        for y in others:
            ops.append(f"""\
(operator move-{x}-table-{y}
  (kind det)
  (pre (on {x} table) (clear {x}) (clear {y}))
  (add (on {x} {y}))
  (del (on {x} table) (clear {y})))""")
            ops.append(f"""\
(operator move-{x}-{y}-table
  (kind det)
  (pre (on {x} {y}) (clear {x}))
  (add (on {x} table) (clear {y}))
  (del (on {x} {y})))""")
            for z in others:
                if z == y:
                    continue
                ops.append(f"""\
(operator move-{x}-{y}-{z}
  (kind det)
  (pre (on {x} {y}) (clear {x}) (clear {z}))
  (add (on {x} {z}) (clear {y}))
  (del (on {x} {y}) (clear {z})))""")
    domain = "; Three blocks, one gripper, no surprises.\n\n" + "\n\n".join(ops) + "\n"

    true_lits = {"(on c a)", "(on a table)", "(on b table)", "(clear c)",
                 "(clear b)"}
    all_lits = []
    for x in blocks:
        for y in blocks + ("table",):
            if x != y:
                all_lits.append(f"(on {x} {y})")
        all_lits.append(f"(clear {x})")
    init = " ".join(l if l in true_lits else f"(not {l})" for l in sorted(all_lits))
    problem = f"""\
(problem
  (init {init})
  (goal (on a b) (on b c))
  (epsilon 0))
"""
    return domain, problem


def det_chain(n: int = 3) -> tuple[str, str]:
    """A deterministic relay: step-i turns p(i) into p(i+1)."""
    ops = []
    for i in range(n):
        ops.append(f"""\
(operator step-{i}
  (kind det)
  (pre (p{i}))
  (add (p{i + 1}))
  (del (p{i})))""")
    domain = "\n\n".join(ops) + "\n"
    negs = " ".join(f"(not (p{i}))" for i in range(1, n + 1))
    problem = f"""\
(problem
  (init (p0) {negs})
  (goal (p{n}))
  (epsilon 0))
"""
    return domain, problem


def slippery_walk() -> tuple[str, str]:
    """One chancy action whose odds depend on the weather.  The walk's
    influence on rain has to be discharged: either check the forecast first
    or commit to walking in ignorance."""
    domain = """\
(operator walk
  (kind cond)
  (outcomes (arrive (add (at-office)))
            (slip))
  (influences (rain))
  (cpt ((arrive true) 0.6) ((slip true) 0.4)
       ((arrive false) 0.99) ((slip false) 0.01)))

(operator check-forecast
  (kind obs)
  (observes (rain))
  (outcomes (true) (false)))

(clause (head (rain) (true false))
  (cpt ((true) 0.3) ((false) 0.7)))
"""
    problem = """\
(problem
  (init (not (at-office)))
  (goal (at-office))
  (epsilon 0.15))
"""
    return domain, problem


def press_button() -> tuple[str, str]:
    """Independent-outcome toy: one press usually opens the door.  Useful
    with the simple model, and identical under the network model because
    nothing shares an ancestor."""
    domain = """\
(operator press
  (kind cond)
  (outcomes (works (prob 0.9) (add (door-open)))
            (jams (prob 0.1))))
"""
    problem = """\
(problem
  (init (not (door-open)))
  (goal (door-open))
  (epsilon 0.2))
"""
    return domain, problem


def nroad_world(n: int, p_bliz: float = 0.1, clear_if_bliz: float = 0.3,
                clear_otherwise: float = 0.9,
                epsilon: float = 0.05) -> tuple[str, str]:
    """N canyon roads leave junction b, and one blizzard tends to close them
    all.  Each road can be checked from b and driven if clear.  Checking k
    roads and driving the first clear one fails only when all k are closed,
    so the cheapest acceptable plan checks the fewest roads that reach mass
    1 - epsilon; with the defaults that is three roads."""
    forms = []
    for i in range(n):
        forms.append(f"""\
(operator check-road-b-r{i}
  (kind obs)
  (pre (at b))
  (observes (clear b r{i}))
  (outcomes (true (add (clear b r{i})))
            (false (del (clear b r{i})))))""")
        forms.append(f"""\
(operator drive-b-r{i}
  (kind det)
  (pre (at b) (clear b r{i}))
  (add (at-resort))
  (del (at b)))""")
    forms.append(f"""\
(clause (head (blizzard) (true false))
  (cpt ((true) {_num(p_bliz)}) ((false) {_num(1.0 - p_bliz)})))""")
    for i in range(n):
        forms.append(f"""\
(clause (head (clear b r{i}) (true false))
  (body (blizzard))
  (cpt ((true true) {_num(clear_if_bliz)})
       ((false true) {_num(1.0 - clear_if_bliz)})
       ((true false) {_num(clear_otherwise)})
       ((false false) {_num(1.0 - clear_otherwise)})))""")
    domain = (f"; {n} roads leave junction b; a blizzard tends to close "
              "them all at once\n\n" + "\n\n".join(forms) + "\n")
    problem = f"""\
(problem
  (init (at b) (not (at-resort)))
  (goal (at-resort))
  (epsilon {_num(epsilon)}))
"""
    return domain, problem
