"""Execute conditional plans against sampled or enumerated worlds.

A world is a full assignment to the prior variables, drawn by ancestral
sampling (``sample_world``).  ``execute_plan`` runs one trial: it walks the
plan's replay program (see ``riskplan.conditional``) one block at a time,
keeping one mutable value per variable.  Observation steps read the
variable's *current* value (so a road someone plowed reads clear even if
the weather said otherwise), conditional steps draw their outcome from
their table given the current values of their influences, and
deterministic steps just rewrite state.  Reaching a goal leaf with all
goals true is success; a give-up leaf, a missing branch, or any violation
is failure.

Trials are reproducible: trial ``t`` of seed ``s`` uses a Philox stream
keyed by ``(s, t)``, independent of how many trials run or in what order.
The stream is the one ``np.random.Generator(np.random.Philox(key=[s, t]))``
gives, but no generator is built per trial: Philox4x64-10 is counter-based
(Salmon et al., SC 2011), so ``estimate_success`` evaluates it for a chunk
of trials at once in numpy, one row of uniforms per trial.  Each of its ten
rounds takes two 64 x 64 -> 128-bit products; ``_philox_uniforms`` forms
the four 32-bit half products of both in one broadcast multiply, for every
trial of the chunk, so a round is 14 numpy calls whatever the chunk's
size.  A trial takes one uniform per prior clause and one per chance step
it runs.  The outcome a uniform ``u`` picks is ``bisect_right(cuts, u)``
over the clause's or the operator's cut row (``GroundClause.cuts``,
``GroundOperator.outcome_cuts``: see ``domain.cut_rows``): the first
outcome whose running sum exceeds ``u``, else the last.

Trials that draw the same outcome for every prior clause form a trial
class.  Without a chance step a plan's result is fixed by the prior world,
so ``estimate_success`` finds every trial's class in numpy (the same picks,
as counts of the cuts at or below each uniform, clause by clause) and runs
``sample_world`` and ``execute_plan`` once per class: a prior net of 8
binary variables has at most 256 classes, however many trials run.  A
plan with a chance step runs each trial on its own row.  A plan with no
prior clause and no chance step draws nothing: it runs once, reads no
stream and builds no uniforms, and the seed is still checked as the
generator would check it.

``exhaustive_success`` is the exact check.  It walks the same replay
program once, summing over a chance block's arms where a trial draws one,
each arm weighted by its entry in the operator's row
(``GroundOperator.outcome_rows``) where a trial bisects the cut row.  It
branches on a prior variable only where a block reads it before writing it
(``ReplayBlock.reads``), no known fact or earlier effect has set it, and
the block's steps before that read hold; it draws the variable's unset
ancestors first, each branch weighted by the clause's row
(``GroundClause.rows``) at its parents' draws.  A prior variable that
nothing reads, and that no read variable depends on, sums out to 1 (the
barren-node rule of Shachter, Operations Research 1986), so the cost
follows the variables a plan reads, not the size of the prior net.  Rows
and cut rows are made in ``domain``, the one place that decides which
table prices a chance step or a prior clause.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import product, repeat
from math import prod, sqrt
from typing import Iterable, Mapping, Sequence

import numpy as np

from .conditional import (ConditionalPlan, ReplayBlock, TrialResult,
                          _read_document)
from .domain import (GroundClause, Proposition, complete_clauses,
                     literal_value, ordered_clauses, var_id)
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


# Philox4x64-10: the round multipliers and Weyl key increments of the two
# products a round takes, one row each
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157],
                     dtype=np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B],
                     dtype=np.uint64)[:, None, None]
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_HALVES = np.array([32, 0], dtype=np.uint64)[:, None, None, None]  # high, low
_M_HALVES = ((_PHILOX_M >> _HALVES) & _LOW32)[:, None]  # [half, 1, m, 1, 1]
_ROUNDS = np.arange(10, dtype=np.uint64)[:, None, None, None]
# Trials whose uniforms are held at once.  Replaying the seven seed-1
# bench montecarlo documents, 4000 trials each (best of 9 interleaved
# passes, 2-vCPU VM, Python 3.11, numpy 2.4), at 512, 1024, 2048 and 4096:
# 1.01, 1.29, 1.48 and 1.24 M trials/s, while peak RSS grew past the
# planning peak by 0, 0, 1.0 and 2.85 MB.  Past 1024 a round's half
# products, four words for each word it multiplies, raise the peak, and at
# 4096 the replay is slower again.
_TRIAL_CHUNK = 1024
_CLASS_CODES = 1 << 12  # the most trial-class codes counted in one table


def _philox_key(seed: int) -> int:
    """``seed`` as Philox's first key word.  Raises OverflowError, as the
    generator does, for a seed outside [0, 2**64)."""
    return int(np.uint64(seed))


def _philox_uniforms(seed: int, first: int, trials: int, k: int) -> np.ndarray:
    """Row ``i`` holds the first ``k`` draws of
    ``np.random.Generator(np.random.Philox(key=[seed, first + i])).random()``
    for each of ``trials`` trials, bit for bit: counter blocks 1, 2, ...
    give four 64-bit words each, and a word ``x`` gives the double
    ``(x >> 11) * 2**-53``.  The seed is checked by ``_philox_key``.

    A block's words ``c0 .. c3`` are held as ``a = (c0, c2)``, the words a
    round multiplies, and ``b = (c1, c3)``, each of shape ``(2, trials,
    blocks)``, so a round takes both of its 128-bit products at once: the
    high words come from the four products of 32-bit halves, and the low
    words are the wrapping ``uint64`` products."""
    seed = _philox_key(seed)
    blocks = -(-k // 4)
    t = np.arange(first, first + trials, dtype=np.uint64)[:, None]
    # round r's key words (k0, k1): the key plus r increments, mod 2**64
    keys = _ROUNDS * _PHILOX_W + np.stack([np.full_like(t, seed), t])
    # until round 1 adds the keys the state does not depend on the trial,
    # so it stays one row, which numpy broadcasts
    a = np.zeros((2, 1, blocks), dtype=np.uint64)
    a[0] = np.arange(1, blocks + 1)
    b = np.zeros_like(a)
    for key in keys:
        # p[i, j]: half i of each multiplier times half j of its word; the
        # cross products go into the high word one at a time, so no sum
        # reaches 2**64 (Warren, Hacker's Delight, 2nd ed., section 8-2)
        p = _M_HALVES * ((a >> _HALVES) & _LOW32)
        u = p[0, 1] + (p[1, 1] >> _SHIFT32)
        v = p[1, 0] + (u & _LOW32)
        hi = p[0, 0] + (u >> _SHIFT32) + (v >> _SHIFT32)
        a, b = hi[::-1] ^ b ^ key, (a * _PHILOX_M)[::-1]
    words = np.stack([a, b], axis=-1).transpose(1, 2, 0, 3)
    words = words.reshape(trials, 4 * blocks)[:, :k]
    return (words >> np.uint64(11)) * 2.0 ** -53


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

    Trial ``t`` draws from the Philox stream keyed ``(seed, t)``.  A trial
    class is the set of trials that drew the same outcome for every prior
    clause.  How the trials run depends on what the plan draws:

    * a plan with a chance step: every trial is its own class and runs
      ``sample_world`` and ``execute_plan`` on its row of uniforms;
    * a plan with prior clauses and no chance step: a trial's result is
      fixed by its class, so each class runs ``sample_world`` and
      ``execute_plan`` once, on the uniforms of one of its trials, and counts
      for each of its trials (see ``_Classes``);
    * a plan that draws nothing: one class, no uniforms, one
      ``execute_plan``; the seed is still checked as the generator would
      check it.

    The report is the one trials run one at a time give, its violation
    samples taken from the violating trials in trial order.  Raises
    ValueError for a negative number of trials, and MalformedPlan for
    prior clauses ``complete_clauses`` refuses."""
    if trials < 0:
        raise ValueError(f"trials must be at least 0, not {trials}")
    known = _init_values({}, known_true, known_false)
    priors = complete_clauses(priors, MalformedPlan)
    chance = conditional.replay.chance_depth
    totals = _Totals()
    if not chance and not priors:
        if trials:
            _philox_key(seed)  # no stream is read, but its seed is checked
            r = execute_plan(conditional, known)
            totals.add([r], [trials])
            totals.sample([r] * min(trials, 5))
        return totals.report(trials, seed)
    classes = None if chance else _Classes(conditional, priors, known)
    draws = len(priors) + chance
    source = _Draws()
    for first in range(0, trials, _TRIAL_CHUNK):
        n = min(_TRIAL_CHUNK, trials - first)
        u = _philox_uniforms(seed, first, n, draws)
        if classes is None:
            results = []
            for row in u.tolist():
                source.random = iter(row).__next__
                world = sample_world(priors, source)
                world.update(known)
                results.append(execute_plan(conditional, world, (), (),
                                            source))
            totals.add(results, repeat(1))
            bad = [r for r in results if r.violations]
        else:
            slots = classes.add(u)
            bad = []
            if classes.violating and len(totals.samples) < 5:
                hit = np.flatnonzero(np.isin(slots, classes.violating))
                bad = [classes.results[s] for s in slots[hit[:5]]]
        totals.sample(bad)
    if classes is not None:
        totals.add(classes.results, classes.counts)
    return totals.report(trials, seed)


class _Totals:
    """What a report counts, added up over results that each stand for a
    number of trials, and the first five violation samples."""

    def __init__(self):
        self.successes = self.giveups = self.violations = 0
        self.samples: list[str] = []

    def add(self, results: Iterable[TrialResult], counts: Iterable[int]):
        for r, k in zip(results, counts):
            self.successes += r.success * k
            self.giveups += (r.leaf == "giveup") * k
            self.violations += len(r.violations) * k

    def sample(self, bad: Sequence[TrialResult]) -> None:
        """Takes samples from ``bad``, the results of violating trials in
        trial order, while there are fewer than five."""
        for r in bad[:5]:
            self.samples.extend(r.violations[:5 - len(self.samples)])

    def report(self, trials: int, seed: int) -> dict:
        est = self.successes / trials if trials else 0.0
        se = sqrt(est * (1.0 - est) / trials) if trials else 0.0
        return {"trials": trials, "seed": seed, "successes": self.successes,
                "giveups": self.giveups, "estimate": est, "stderr": se,
                "violations": self.violations,
                "violationSamples": self.samples}


class _Classes:
    """The trial classes of one ``estimate_success`` call on a plan with
    prior clauses and no chance step, whose trials end alike when they drew
    the same prior outcomes.  Class ``s`` holds ``counts[s]`` trials so far,
    and ``results[s]`` is what ``execute_plan`` gave in the world
    ``sample_world`` drew from the uniforms of one of its trials.
    ``violating`` lists the classes whose result has violations."""

    def __init__(self, conditional: ConditionalPlan,
                 priors: Sequence[GroundClause], known: Mapping[str, str]):
        self.conditional = conditional
        self.priors = priors
        self.known = known
        self.radices = [len(c.space) for c in priors]
        self.tables = _cut_tables(priors)
        self.slots: dict[bytes, int] = {}  # picks of a class -> its number
        self.results: list[TrialResult] = []
        self.counts: list[int] = []
        self.violating: list[int] = []

    def add(self, u: np.ndarray) -> np.ndarray:
        """Counts in the trials whose prior uniforms are the rows of ``u``,
        running each class that is new to the call, and returns each
        trial's class."""
        picks = _prior_picks(self.tables, u)
        members, inverse = _class_of(picks, self.radices)
        slots = self.slots
        counts = self.counts
        numbers = []
        for t, k in zip(members.tolist(), np.bincount(inverse).tolist()):
            key = picks[t].tobytes()
            s = slots.get(key)
            if s is None:
                s = slots[key] = len(counts)
                counts.append(0)
                self._run(u[t].tolist())
            counts[s] += k
            numbers.append(s)
        return np.array(numbers, dtype=np.intp)[inverse]

    def _run(self, row: list[float]) -> None:
        source = _Draws()
        source.random = iter(row).__next__
        world = sample_world(self.priors, source)
        r = execute_plan(self.conditional, {**world, **self.known})
        if r.violations:
            self.violating.append(len(self.results))
        self.results.append(r)


def _cut_tables(priors: Sequence[GroundClause]) -> list[tuple]:
    """For each clause, in order: the positions of its parents in
    ``priors``, their mixed-radix weights, and its dense cut matrix, whose
    row ``sum(pick[parent] * weight)`` is the clause's cut row at the
    parents' picked outcomes (parent assignments in ``itertools.product``
    order).  Every clause needs a row for every parent assignment, as
    ``complete_clauses`` checks."""
    position = {c.var: j for j, c in enumerate(priors)}
    tables = []
    for c in priors:
        parents = [position[p] for p in c.parents]
        spaces = [priors[j].space for j in parents]
        weights = [prod(len(s) for s in spaces[i + 1:])
                   for i in range(len(spaces))]
        rows = [c.cuts[tail] for tail in product(*spaces)]
        cuts = np.array(rows, dtype=float).reshape(len(rows),
                                                   len(c.space) - 1)
        tables.append((parents, weights, cuts))
    return tables


def _prior_picks(tables: Sequence[tuple], u: np.ndarray) -> np.ndarray:
    """``picks[t, j]``: the outcome index of clause ``j`` that trial ``t``
    draws with the uniform ``u[t, j]``, the count of cuts in its row at or
    below the uniform, which is the ``bisect_right`` pick of
    ``sample_world``."""
    picks = np.empty(u.shape, dtype=np.intp)
    for j, (parents, weights, cuts) in enumerate(tables):
        row = 0
        for p, w in zip(parents, weights):
            row = row + picks[:, p] * w
        picks[:, j] = (u[:, j, None] >= cuts[row]).sum(1)
    return picks


def _class_of(picks: np.ndarray, radices: Sequence[int]
              ) -> tuple[np.ndarray, np.ndarray]:
    """A trial of each class, classes in code order, and each trial's
    class.  A trial's code is the mixed-radix code of its row of
    ``picks``.  The code so far is re-ranked to its distinct values
    before the codes would pass ``_CLASS_CODES``, so it is exact for any
    number of clauses, and the classes are found in dense tables of codes
    (no sort, which takes numpy's sort kernels into memory)."""
    key = np.zeros(len(picks), dtype=np.intp)
    radix = 1
    for j, k in enumerate(radices):
        if radix * k > _CLASS_CODES:
            distinct, key = np.unique(key, return_inverse=True)
            radix = len(distinct)
        key += picks[:, j] * radix
        radix *= k
    present = np.flatnonzero(np.bincount(key, minlength=radix))
    rank = np.empty(radix, dtype=np.intp)
    rank[present] = np.arange(len(present))
    member = np.empty(radix, dtype=np.intp)
    member[key] = np.arange(len(key))  # some trial of each code
    return member[present], rank[key]


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
    assignments.  Raises MalformedPlan for prior clauses ``ordered_clauses``
    refuses, and where the walk needs a row a clause lacks, with the text
    of ``complete_clauses``.  Rows the walk never needs are not checked:
    checking them all would add about a sixth to a small exact check."""
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
            probs = block.end.op.outcome_rows.get(
                tuple([values.get(v, "") for v in block.read]))
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
    row = c.rows.get(tuple(world[p] for p in c.parents))
    if row is None:  # the one check of a clause set names the row
        complete_clauses(list(walk.clauses.values()), MalformedPlan)
    total = 0.0
    for o, p in zip(c.space, row):
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
    emission) holds, with the mass it records as ``analyticMass``.  The
    document is read as ``read_plan_document`` reads it, and its prior
    clauses are checked once, by ``estimate_success``."""
    read = _read_document(doc)
    report = estimate_success(read.plan, read.priors, read.known_true,
                              read.known_false, trials, seed)
    report["analyticMass"] = read.achieved_mass
    return report
