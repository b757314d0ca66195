"""Execute conditional plans against sampled or enumerated worlds.

A world is a full assignment to the prior variables, drawn by ancestral
sampling.  Execution walks the plan tree keeping one mutable value per
variable: observation steps read the variable's *current* value (so a road
someone plowed reads clear even if the weather said otherwise), conditional
steps draw their outcome from their table given the current values of their
influences, and deterministic steps just rewrite state.  Reaching a goal
leaf with all goals true is success; a give-up leaf, a missing branch, or
any violation is failure.

``execute_plan`` runs the plan's replay program (see
``riskplan.conditional``), one block at a time.

Trials are reproducible: trial ``t`` of seed ``s`` uses a Philox stream
keyed by ``(s, t)``, independent of how many trials run or in what order.
The stream is the one ``np.random.Generator(np.random.Philox(key=[s, t]))``
gives, but no generator is built per trial: Philox4x64-10 is counter-based
(Salmon et al., SC 2011), so ``estimate_success`` evaluates it for a chunk
of trials at once in numpy and hands each trial its row of uniforms.  A
trial takes one uniform per prior clause and one per chance step it runs.
The outcome a uniform ``u`` picks is ``bisect_right(cuts, u)`` over the
clause's or the operator's cut row (its running sums without the last,
computed once when the clause or operator is made): the first outcome
whose running sum exceeds ``u``, else the last.  A plan with no prior
clause and no chance step draws nothing, so its trials read no stream and
no uniforms are built; the seed is still checked as the generator would
check it.

``exhaustive_success`` is the exact check.  It walks the same replay
program once, summing over a chance block's arms where a trial draws
one.  It branches on a prior variable only where a block reads it before
writing it (``ReplayBlock.reads``), no known fact or earlier effect has
set it, and the block's steps before that read hold; it draws the
variable's unset ancestors first.  A prior variable that nothing reads,
and that no read variable depends on, sums out to 1 (the barren-node
rule of Shachter, Operations Research 1986), so the cost follows the
variables a plan reads, not the size of the prior net.
"""

from __future__ import annotations

from bisect import bisect_right
from math import sqrt
from typing import Iterable, Mapping, Sequence

import numpy as np

from .conditional import (ConditionalPlan, ReplayBlock, TrialResult,
                          read_plan_document)
from .domain import (GroundClause, GroundOperator, Proposition, literal_value,
                     ordered_clauses, var_id)
from .errors import MalformedPlan

__all__ = [
    "TrialResult",
    "sample_world",
    "execute_plan",
    "estimate_success",
    "exhaustive_success",
    "simulate_document",
    "EXHAUSTIVE_WORLD_LIMIT",
]

EXHAUSTIVE_WORLD_LIMIT = 4096  # prior assignments an exact walk may take


# Philox4x64-10: round multipliers and Weyl key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_TRIAL_CHUNK = 512  # trials whose uniforms are held at once


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64 bits of the 128-bit products ``m * x``, from
    32-bit halves (numpy ``uint64`` products wrap)."""
    m1, m0 = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    x1, x0 = x >> _SHIFT32, x & _LOW32
    p01, p10 = m0 * x1, m1 * x0
    mid = ((m0 * x0) >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    hi = m1 * x1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, x * np.uint64(m)


def _philox_key(seed: int) -> int:
    """``seed`` as Philox's first key word.  Raises OverflowError, as the
    generator does, for a seed outside [0, 2**64)."""
    return int(np.uint64(seed))


def _philox_uniforms(seed: int, first: int, trials: int, k: int) -> np.ndarray:
    """Row ``i`` holds the first ``k`` draws of
    ``np.random.Generator(np.random.Philox(key=[seed, first + i])).random()``
    for each of ``trials`` trials, bit for bit: counter blocks 1, 2, ...
    give four 64-bit words each, and a word ``x`` gives the double
    ``(x >> 11) * 2**-53``.  The seed is checked by ``_philox_key``."""
    seed = _philox_key(seed)
    blocks = -(-k // 4)
    shape = (trials, blocks)
    t = np.arange(first, first + trials, dtype=np.uint64)[:, None]
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    for r in range(10):
        k0 = np.uint64((seed + r * _PHILOX_W[0]) % 2**64)
        k1 = t + np.uint64(r * _PHILOX_W[1] % 2**64)
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], axis=-1).reshape(trials, 4 * blocks)
    return (words[:, :k] >> np.uint64(11)) * 2.0 ** -53


class _Draws:
    """A trial's uniforms behind the ``random()`` that ``sample_world`` and
    ``execute_plan`` call on a generator."""

    __slots__ = ("random",)


def sample_world(priors: Sequence[GroundClause],
                 rng: np.random.Generator) -> dict[str, str]:
    """One world by ancestral sampling, drawing the clauses in the order
    given: each must come after its parents, as ``GroundDomain.clauses``
    do."""
    world: dict[str, str] = {}
    drawn = world.__getitem__
    random = rng.random
    for c in priors:
        try:
            tail = tuple(map(drawn, c.parents))
        except KeyError as e:
            raise MalformedPlan(f"prior clause {c.var} comes before its "
                                f"parent {e.args[0]}") from None
        world[c.var] = c.space[bisect_right(c.cuts[tail], random())]
    return world


def _init_values(world: Mapping[str, str],
                 known_true: Iterable[Proposition],
                 known_false: Iterable[Proposition]) -> dict[str, str]:
    values = dict(world)
    for p in known_true:
        values[var_id(p)] = "true"
    for p in known_false:
        values[var_id(p)] = "false"
    return values


def _holds(values: Mapping[str, str], prop: Proposition) -> bool:
    var, want = literal_value(prop)
    return values.get(var) == want


def _outcome_distribution(op: GroundOperator, values: Mapping[str, str]
                          ) -> list[float] | None:
    """Probabilities over op.outcomes in declared order, or None when the
    current state cannot supply them."""
    if op.cpt is not None:
        tail = tuple(values.get(v, "") for v in op.influences)
        probs = []
        for o in op.outcomes:
            p = op.cpt.get((o,) + tail)
            if p is None:
                return None
            probs.append(p)
        return probs
    if op.simple_distribution is not None:
        return [op.simple_distribution[o] for o in op.outcomes]
    return None


def _aborted(text: str, outcomes: tuple) -> TrialResult:
    return TrialResult(False, "aborted", (text,), outcomes)


def _unanticipated(node, got: str, path: tuple) -> TrialResult:
    return _aborted(f"step {node.step_id} came out {got!r}, which the plan "
                    "never anticipated", path + ((node.step_id, got),))


def execute_plan(conditional: ConditionalPlan, world: Mapping[str, str],
                 known_true: Iterable[Proposition] = (),
                 known_false: Iterable[Proposition] = (),
                 rng: np.random.Generator | None = None) -> TrialResult:
    """One execution of the plan in the given world.  ``rng`` supplies the
    outcome draws of conditional steps (and must be given if any exist)."""
    values = _init_values(world, known_true, known_false)
    state = values.items()  # a live view of ``values``
    update = values.update
    block = conditional.replay.start
    while True:
        kind, check, effects, read, rows, arms, verdict, _, _, end, path = \
            block
        if not state >= check:
            return _failure(block, values)
        update(effects)
        if kind == "obs":
            got = values.get(read)
            nxt = arms.get(got)
            if nxt is None:
                if got is None:
                    return _aborted(f"step {end.step_id} observes {read}, "
                                    "which has no value", path)
                return _unanticipated(end, got, path)
            block = nxt
        elif kind == "chance":
            cuts = rows.get(tuple([values.get(v, "") for v in read]))
            if cuts is None:
                return _aborted(f"step {end.step_id} ({end.op.name}) has no "
                                "distribution for the current state", path)
            if rng is None:
                raise ValueError("conditional steps need an rng")
            i = bisect_right(cuts, rng.random())
            if arms[i] is None:
                return _unanticipated(end, end.op.outcomes[i], path)
            block = arms[i]
        else:
            return verdict


def _failure(block: ReplayBlock, values: dict[str, str]) -> TrialResult:
    """The result of a trial that fails ``block``'s check: the run's steps
    taken one at a time up to the first whose preconditions do not hold,
    else the end's, or the goals that do not hold at a goal end."""
    node = _first_unmet(block.run, values)
    if node is not None:
        return _unmet(node, values, block.path)
    end = block.end
    if block.kind == "goal":
        return TrialResult(False, "goal", tuple(
            f"goal {g} does not hold at the end"
            for g in end.goals if not _holds(values, g)), block.path)
    return _unmet(end, values, block.path)


def _first_unmet(run: Sequence[tuple], values: dict[str, str]):
    """Takes the steps of ``run`` in turn, applying each one's effects to
    ``values``, up to the first whose preconditions do not hold, and
    returns that step's node; None when every step holds."""
    state = values.items()
    for node, pres, effects in run:
        if not state >= pres:
            return node
        values.update(effects)
    return None


def _unmet(node, values: Mapping[str, str], path: tuple) -> TrialResult:
    op = node.op
    return TrialResult(False, "aborted", tuple(
        f"step {node.step_id} ({op.name}) requires {pre}"
        for pre in op.preconditions if not _holds(values, pre)), path)


def estimate_success(conditional: ConditionalPlan,
                     priors: Sequence[GroundClause],
                     known_true: Iterable[Proposition] = (),
                     known_false: Iterable[Proposition] = (),
                     trials: int = 10000, seed: int = 0) -> dict:
    """Monte Carlo success frequency with its binomial standard error.
    Raises ValueError for a negative number of trials."""
    if trials < 0:
        raise ValueError(f"trials must be at least 0, not {trials}")
    known = _init_values({}, known_true, known_false)
    priors = ordered_clauses(priors, MalformedPlan)
    draws = len(priors) + conditional.replay.chance_depth
    if trials > 0 and not draws:
        _philox_key(seed)  # no stream is read, but its seed is checked
    source = _Draws()
    successes = 0
    giveups = 0
    violation_count = 0
    samples: list[str] = []
    for first in range(0, trials, _TRIAL_CHUNK):
        n = min(_TRIAL_CHUNK, trials - first)
        rows = (_philox_uniforms(seed, first, n, draws).tolist() if draws
                else [()] * n)
        for row in rows:
            source.random = iter(row).__next__
            world = sample_world(priors, source)
            world.update(known)
            r = execute_plan(conditional, world, (), (), source)
            successes += r.success
            giveups += r.leaf == "giveup"
            violation_count += len(r.violations)
            if r.violations and len(samples) < 5:
                samples.extend(r.violations[:5 - len(samples)])
    est = successes / trials if trials else 0.0
    se = sqrt(est * (1.0 - est) / trials) if trials else 0.0
    return {"trials": trials, "seed": seed, "successes": successes,
            "giveups": giveups, "estimate": est, "stderr": se,
            "violations": violation_count, "violationSamples": samples}


def exhaustive_success(conditional: ConditionalPlan,
                       priors: Sequence[GroundClause],
                       known_true: Iterable[Proposition] = (),
                       known_false: Iterable[Proposition] = ()) -> float:
    """Exact success probability: one walk of the plan's replay program
    that sums every chance-step outcome and every assignment to the prior
    variables the plan reads, each weighted by its probability.  Prior
    variables that nothing reads, and that no read variable depends on,
    sum out to 1 and are never branched on.  Raises ValueError once the
    walk has branched into more than ``EXHAUSTIVE_WORLD_LIMIT`` prior
    assignments."""
    walk = _Walk({c.var: c for c in ordered_clauses(priors, MalformedPlan)})
    return _exact_mass(conditional.replay.start, {},
                       _init_values({}, known_true, known_false), 1.0, walk)


class _Walk:
    """What one exact walk shares: the prior clauses by variable, and the
    number of prior assignments it has branched into."""

    __slots__ = ("clauses", "branches")

    def __init__(self, clauses: dict[str, GroundClause]):
        self.clauses = clauses
        self.branches = 0


def _exact_mass(block: ReplayBlock, world: dict[str, str],
                values: dict[str, str], weight: float, walk: _Walk) -> float:
    """The success mass ``weight`` carries from entering ``block`` on,
    every chance outcome and every prior assignment read on the way
    weighted by its probability.  ``world`` holds the prior draws made so
    far, which pick the prior clauses' rows; ``values`` is the current
    state, which known facts and effects overwrite, and may be changed.

    The walk branches on the first prior variable in ``block.reads`` that
    has no value, but only if the run steps before its read hold (tested on
    a copy, as the entry values pick ``check``); where one fails, the mass
    is 0.  So it branches into the prior assignments a walk of the steps
    one at a time would."""
    clauses = walk.clauses
    while True:
        if clauses:
            for var, k in block.reads:
                if var not in values and var in clauses:
                    if _first_unmet(block.run[:k], dict(values)) is not None:
                        return 0.0
                    return _branch(block, var, world, values, weight, walk)
        if not values.items() >= block.check:
            return 0.0
        values.update(block.effects)
        kind = block.kind
        if kind == "obs":
            block = block.arms.get(values.get(block.read))
            if block is None:
                return 0.0
        elif kind == "chance":
            probs = _outcome_distribution(block.end.op, values)
            if probs is None:
                return 0.0
            total = 0.0
            for arm, p in zip(block.arms, probs):
                if arm is not None and p != 0.0:
                    total += _exact_mass(arm, world, dict(values),
                                         weight * p, walk)
            return total
        else:
            return weight if kind == "goal" else 0.0


def _branch(block: ReplayBlock, var: str, world: dict[str, str],
            values: dict[str, str], weight: float, walk: _Walk) -> float:
    """The mass from entering ``block`` on, split over the outcomes of
    ``var`` or of the first of its ancestors that has no draw in ``world``
    yet, each weighted by its clause's row at the parents' drawn values.  A
    draw becomes the current value unless a known fact or an effect has
    already set one."""
    c = walk.clauses[_undrawn_ancestor(var, world, walk.clauses)]
    tail = tuple(world[p] for p in c.parents)
    total = 0.0
    for o in c.space:
        p = c.cpt[(o,) + tail]
        if p == 0.0:
            continue
        walk.branches += 1
        if walk.branches > EXHAUSTIVE_WORLD_LIMIT:
            raise ValueError(
                f"{walk.branches} prior assignments exceed the exhaustive "
                f"limit ({EXHAUSTIVE_WORLD_LIMIT})")
        w2 = dict(world)
        w2[c.var] = o
        v2 = dict(values)
        v2.setdefault(c.var, o)
        total += _exact_mass(block, w2, v2, weight * p, walk)
    return total


def _undrawn_ancestor(var: str, world: Mapping[str, str],
                      clauses: Mapping[str, GroundClause]) -> str:
    """``var`` if all its parents have draws in ``world``, else the same
    for its first parent without one: an undrawn variable whose parents
    are all drawn, so every draw is made after its parents'."""
    for p in clauses[var].parents:
        if p not in world:
            return _undrawn_ancestor(p, world, clauses)
    return var


def simulate_document(doc: dict, trials: int = 10000, seed: int = 0) -> dict:
    """``estimate_success`` on what a plan document (the plan-json
    emission) holds, with the mass it records as ``analyticMass``."""
    read = read_plan_document(doc)
    report = estimate_success(read.plan, read.priors, read.known_true,
                              read.known_false, trials, seed)
    report["analyticMass"] = read.achieved_mass
    return report
