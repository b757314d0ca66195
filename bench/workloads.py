"""Seeded inputs and independent oracles for the benchmark workloads.

Every domain and problem text is written here from scratch rather than
taken from ``riskplan.worlds`` or ``tests/gen.py``, so an edit to the
package or its tests cannot silently change what the benchmark measures.
The oracles below use closed forms over the generator's own parameters and
never call into the package.

A workload is a sequence of *rounds*.  Every round of one workload has the
same composition (the same shapes, sizes and planners) and only the seeded
numbers change, so a run that finishes more or fewer rounds still reports
percentiles over the same mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Slack the planners allow when they compare a mass with 1 - epsilon
# (riskplan.probmodel.MASS_TOL); the oracles decide verdicts the same way.
ACCEPT_TOL = 1e-12

PLANNERS = ("linear", "nonlinear")


@dataclass(frozen=True)
class Expect:
    """What a correct answer looks like.

    ``feasible`` is the expected verdict.  A plan's analytic mass must lie
    in ``[mass_lo, mass_hi]`` and, when ``steps`` is set, the plan must use
    exactly that many steps.
    """

    feasible: bool
    mass_lo: float = 0.0
    mass_hi: float = 1.0
    steps: int | None = None


@dataclass(frozen=True)
class Case:
    """One planning problem, posed as text, with its expected answer."""

    name: str
    domain: str
    problem: str
    planner: str  # linear | nonlinear
    model: str  # kbmc | simple
    expect: Expect


def _rng(*parts) -> random.Random:
    # string seeds hash the same way in every process
    return random.Random("/".join(str(p) for p in parts))


def _num(x: float) -> str:
    return repr(round(x, 6))


# ---------------------------------------------------------------------------
# N-road: one junction, N canyon roads, one shared blizzard


# P(blizzard), P(clear | blizzard), P(clear | no blizzard), epsilon
ROADMAP_NROAD = (0.1, 0.3, 0.9, 0.05)
# the linear planner stops at N=4: at N=5 it takes about 2 s a solve and at
# N=6 3-5 s, and either would hold a half-minute run to five or six rounds,
# too few repeats of each problem for a steady median
NROAD_SIZES = {"linear": (2, 3, 4), "nonlinear": (2, 3, 4, 5, 6)}


def nroad_mass(k: int, p_bliz: float, c1: float, c0: float) -> float:
    """Success mass of checking k roads in turn and driving the first clear
    one: the trip fails only when all k are closed."""
    return 1.0 - (p_bliz * (1.0 - c1) ** k + (1.0 - p_bliz) * (1.0 - c0) ** k)


def nroad_oracle(n: int, p_bliz: float, c1: float, c0: float,
                 eps: float) -> float | None:
    """Mass of the plan both planners return on an N-road instance, or None
    when no plan exists.

    The roads are interchangeable and checking one more road only adds
    mass, so a plan exists iff checking all N reaches 1 - eps.  The
    planners expand the leanest plans first and stop at the first one that
    is good enough, which checks the fewest roads that reach the target.
    """
    for k in range(1, n + 1):
        mass = nroad_mass(k, p_bliz, c1, c0)
        if mass >= 1.0 - eps - ACCEPT_TOL:
            return mass
    return None


def nroad_texts(n: int, p_bliz: float, c1: float, c0: float,
                eps: float) -> tuple[str, str]:
    forms = []
    for i in range(n):
        forms.append(f"""\
(operator check-{i}
  (kind obs)
  (pre (at b))
  (observes (clear r{i}))
  (outcomes (true (add (clear r{i})))
            (false (del (clear r{i})))))""")
        forms.append(f"""\
(operator drive-{i}
  (kind det)
  (pre (at b) (clear r{i}))
  (add (at-resort))
  (del (at b)))""")
    forms.append(f"""\
(clause (head (blizzard) (true false))
  (cpt ((true) {_num(p_bliz)}) ((false) {_num(1.0 - p_bliz)})))""")
    for i in range(n):
        forms.append(f"""\
(clause (head (clear r{i}) (true false))
  (body (blizzard))
  (cpt ((true true) {_num(c1)}) ((false true) {_num(1.0 - c1)})
       ((true false) {_num(c0)}) ((false false) {_num(1.0 - c0)})))""")
    domain = f"; {n} roads leave junction b; one blizzard closes them together\n\n"
    domain += "\n\n".join(forms) + "\n"
    problem = f"""\
(problem
  (init (at b) (not (at-resort)))
  (goal (at-resort))
  (epsilon {_num(eps)}))
"""
    return domain, problem


def nroad_params(rng: random.Random) -> tuple[float, float, float, float]:
    """The ROADMAP CPTs with a seeded epsilon in 0.045..0.055, a range in
    which every size keeps its verdict (N=2 has no plan, N>=3 checks three
    roads).  The CPTs are not perturbed: the planners' search effort swings
    by 30x and more with the last digits of a CPT (at N=6 the linear planner
    can exhaust its node budget), so perturbed CPTs would make the cost of a
    round depend on the seed instead of on the code."""
    p_bliz, c1, c0, eps = ROADMAP_NROAD
    return p_bliz, c1, c0, round(eps * rng.uniform(0.9, 1.1), 6)


def nroad_case(n: int, planner: str, params) -> Case:
    mass = nroad_oracle(n, *params)
    expect = (Expect(False) if mass is None
              else Expect(True, mass - 1e-9, mass + 1e-9))
    dom, prob = nroad_texts(n, *params)
    return Case(f"nroad-{n}-{planner}", dom, prob, planner, "kbmc", expect)


def nroad_round(seed: int, r: int) -> list[Case]:
    # Why: the prior net is fixed per problem and correlated, so inference
    # is heavy (joint_probability is about half of nonlinear time) and the
    # linear planner is heavy on threats.  N=2 has no plan, so the "no plan"
    # verdict of an exhaustive search is timed too.
    out = []
    for planner in PLANNERS:
        for n in NROAD_SIZES[planner]:
            params = nroad_params(_rng("nroad", seed, r, n))
            out.append(nroad_case(n, planner, params))
    return out


# ---------------------------------------------------------------------------
# blocks: deterministic stacking and long relays


def blocks_texts(on: dict[str, str], goal: dict[str, str],
                 eps: float) -> tuple[str, str]:
    """A three-block world: ``on`` maps each block to what it sits on."""
    names = sorted(on)
    forms = []
    for x in names:
        others = [b for b in names if b != x]
        for y in others:
            forms.append(f"""\
(operator lift-{x}-table-{y}
  (kind det)
  (pre (on {x} table) (clear {x}) (clear {y}))
  (add (on {x} {y}))
  (del (on {x} table) (clear {y})))""")
            forms.append(f"""\
(operator drop-{x}-{y}-table
  (kind det)
  (pre (on {x} {y}) (clear {x}))
  (add (on {x} table) (clear {y}))
  (del (on {x} {y})))""")
            for z in others:
                if z != y:
                    forms.append(f"""\
(operator shift-{x}-{y}-{z}
  (kind det)
  (pre (on {x} {y}) (clear {x}) (clear {z}))
  (add (on {x} {z}) (clear {y}))
  (del (on {x} {y}) (clear {z})))""")
    true = {f"(on {x} {y})" for x, y in on.items()}
    true |= {f"(clear {x})" for x in names if x not in on.values()}
    lits = []
    for x in names:
        lits += [f"(on {x} {y})" for y in names + ["table"] if y != x]
        lits.append(f"(clear {x})")
    init = " ".join(l if l in true else f"(not {l})" for l in lits)
    goals = " ".join(f"(on {x} {y})" for x, y in sorted(goal.items()))
    problem = (f"(problem\n  (init {init})\n  (goal {goals})\n"
               f"  (epsilon {_num(eps)}))\n")
    return "\n\n".join(forms) + "\n", problem


def relay_texts(length: int, eps: float) -> tuple[str, str]:
    forms = [f"""\
(operator hop-{i}
  (kind det)
  (pre (leg{i}))
  (add (leg{i + 1}))
  (del (leg{i})))""" for i in range(length)]
    negs = " ".join(f"(not (leg{i}))" for i in range(1, length + 1))
    problem = (f"(problem\n  (init (leg0) {negs})\n  (goal (leg{length}))\n"
               f"  (epsilon {_num(eps)}))\n")
    return "\n\n".join(forms) + "\n", problem


SUSSMAN = ({"a": "table", "b": "table", "c": "a"}, {"a": "b", "b": "c"})
REVERSAL = ({"a": "b", "b": "c", "c": "table"}, {"b": "a", "c": "b"})
RELAY_LENGTHS = (42, 60, 78)


def blocks_round(seed: int, r: int) -> list[Case]:
    # Why: no priors and no chance steps, so inference is bypassed
    # (joint_probability is 0.1-0.2% of the time) while threat detection
    # and ordering closure dominate.  An inference change should leave this
    # workload unchanged; a threat or closure change should move it most.
    # Four blocks are left out: the tower did not finish in minutes.
    # The seed sets only each problem's epsilon: every plan of a
    # deterministic domain has mass 1, so epsilon leaves the search as it
    # is, while block names and relay lengths steer its cost (a relay costs
    # more than the square of its length), and every round must cost the
    # same for a problem's repeats to be repeats.
    rng = _rng("blocks", seed, r)
    out = []
    for planner in PLANNERS:
        for name, (on, goal) in (("sussman", SUSSMAN),
                                 ("reversal", REVERSAL)):
            dom, prob = blocks_texts(on, goal, rng.uniform(0.0, 0.2))
            out.append(Case(f"{name}-{planner}", dom, prob, planner, "kbmc",
                            Expect(True, 1.0, 1.0)))
        for length in RELAY_LENGTHS:
            dom, prob = relay_texts(length, rng.uniform(0.0, 0.2))
            out.append(Case(f"relay-{length}-{planner}", dom, prob, planner,
                            "kbmc", Expect(True, 1.0, 1.0, steps=length)))
    return out


# ---------------------------------------------------------------------------
# montecarlo: plan documents to replay


SKI_EPSILONS = (0.1, 0.085)


def ski_texts(p_bliz: float, eps: float) -> tuple[str, str]:
    """Two canyon roads from town b: one at b, one reached through c.  A
    blizzard tends to close both, and a road can be checked only from its
    trailhead."""
    domain = f"""\
(operator drive-b-north
  (kind det)
  (pre (at b) (clear north))
  (add (at lodge) (at-resort))
  (del (at b)))

(operator drive-b-c
  (kind det)
  (pre (at b))
  (add (at c))
  (del (at b)))

(operator drive-c-south
  (kind det)
  (pre (at c) (clear south))
  (add (at inn) (at-resort))
  (del (at c)))

(operator check-north
  (kind obs)
  (pre (at b))
  (observes (clear north))
  (outcomes (true (add (clear north)))
            (false (del (clear north)))))

(operator check-south
  (kind obs)
  (pre (at c))
  (observes (clear south))
  (outcomes (true (add (clear south)))
            (false (del (clear south)))))

(operator listen-radio
  (kind obs)
  (observes (blizzard))
  (outcomes (true) (false)))

(clause (head (blizzard) (true false))
  (cpt ((true) {_num(p_bliz)}) ((false) {_num(1.0 - p_bliz)})))

(clause (head (clear north) (true false))
  (body (blizzard))
  (cpt ((true true) 0.1) ((false true) 0.9)
       ((true false) 0.999) ((false false) 0.001)))

(clause (head (clear south) (true false))
  (body (blizzard))
  (cpt ((true true) 0.1) ((false true) 0.9)
       ((true false) 0.999) ((false false) 0.001)))
"""
    problem = f"""\
(problem
  (init (at b) (not (at c)) (not (at lodge)) (not (at inn))
        (not (at-resort)))
  (goal (at-resort))
  (epsilon {_num(eps)}))
"""
    return domain, problem


def ski_mass(p_bliz: float, both: bool) -> float:
    """Check the north road and drive it if clear; with ``both``, fall back
    to the south road when the north one is closed."""
    north = p_bliz * 0.1 + (1.0 - p_bliz) * 0.999
    if not both:
        return north
    return north + p_bliz * 0.9 * 0.1 + (1.0 - p_bliz) * 0.001 * 0.999


# nroad documents come from the nonlinear planner, which plans N=7 in about
# a second; the ski documents cover both planners
MC_NROAD = (3, 5, 7)


def montecarlo_cases(seed: int) -> list[Case]:
    # Why: replaying plan documents is the only place the simulator does
    # the work and the planners do none.  Ski plans have a shallow prior
    # net; nroad plans replay against up to 8 correlated prior variables
    # (256 worlds for the exact check).
    out = []
    rng = _rng("montecarlo", seed, "ski")
    p_bliz = round(0.1 * rng.uniform(0.95, 1.05), 6)
    for eps in SKI_EPSILONS:
        both = ski_mass(p_bliz, False) < 1.0 - eps - ACCEPT_TOL
        mass = ski_mass(p_bliz, both)
        dom, prob = ski_texts(p_bliz, eps)
        for planner in PLANNERS:
            out.append(Case(f"ski-{eps}-{planner}", dom, prob, planner,
                            "kbmc", Expect(True, mass - 1e-9, mass + 1e-9)))
    for n in MC_NROAD:
        params = nroad_params(_rng("montecarlo", seed, "nroad", n))
        out.append(nroad_case(n, "nonlinear", params))
    return out
