#!/usr/bin/env python3
"""Benchmark for riskplan: time to a verdict, Monte Carlo rate, layer times.

    python3 bench/run.py --workload nroad --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  One process, one problem at a time, a
closed loop: the next problem starts when the previous verdict is checked.
Native thread pools are pinned to one thread.

Workloads (inputs and the reason for each are in ``workloads.py``):

  nroad       N-road blizzard domains, N=2..6 (linear to 4), kbmc
  blocks      Sussman, three-block reversal and 42, 60, 78-step relays
  montecarlo  replay of ski and N-road plan documents (simulator only)

Every round poses the same problems, so a run times each one several
times, and each problem's time is the median of its repeats.  Set-up is
timed again at even intervals during the run and reported as the median
of those set-ups.

Times are reported at a fixed host speed.  On a shared 2-vCPU Xeon VM the
host's speed flipped between a fast and a 1.5x slower state within tenths
of a second, and the share of slow time drifted over minutes, so that a
problem's median over a half-minute run moved by a quarter from run to
run and even its fastest repeat by a fifth.  So every timed call runs
under ``HostClock``, which samples the host's speed during the call: every
``TICK_S`` a timer signal runs a fixed sliver of work that uses none of
the package (``HostClock._sliver``), and the call's time, less the time
spent in slivers, is scaled by ``SLIVER_S`` over the slivers' mean time.
A time is so given in seconds of a host on which a sliver takes
``SLIVER_S``.  A change to the package moves these times as much as it
moves raw seconds.  The table printed before the result gives the
slivers' median raw time, the host's speed during the run.

With ``--trace 0`` the run prints the end-to-end metrics.  With
``--trace 1`` it runs every problem twice, untraced and under the
outside-in tracer (``tracer.py``) in turn, checks that both searches
counted the same nodes, prints the per-layer metrics and the tracing
overhead, and writes the spans to ``bench/out/``.  Either way the last
line of standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``; the lines before it record the machine and print
every metric with its unit.

A problem fails on a wrong verdict or an exception, on an analytic mass
that differs from ``exhaustive_success`` by more than 1e-9 or falls short
of 1 - epsilon or of the oracle, on a Monte Carlo replay that hits a
violation, and, for the montecarlo workload, on an estimate more than
3 standard errors from the analytic mass.
"""

from __future__ import annotations

import os

# one thread per process: pin native pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import platform
import random
import resource
import signal
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy  # imported before any set-up is timed: numpy is not the package

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "solve_s_p50": "s",
    "solve_s_p90": "s",
    "problems_per_s": "1/s",
    "achieved_mass_mean": "mass",
    "plan_steps_mean": "steps",
    "peak_rss_mb": "MB",
    "mc_trials_per_s": "1/s",
    "exact_check_s": "s",
}

EXACT_TOL = 1e-9  # analytic mass vs exhaustive enumeration
CHECK_TRIALS = 50  # Monte Carlo replay of every planned problem
MC_TRIALS = 4000  # trials per document replay in the montecarlo workload
# Monte Carlo streams are fixed per document, not drawn from --seed: a
# 3-standard-error test fails by chance 0.27% of the time, and fixed streams
# make each document's verdict the same in every run, as in the package's
# own acceptance test.
MC_SEED = 2026
# An exact check takes 0.1-2 ms and a 50-trial replay 4-25 ms, shorter than
# a few ticks of the host clock, so each is called over and over, as
# timeit's autorange does, until this long has passed, and timed per call.
CALL_MIN_S = 0.02
# the set-up is timed once before the run and again, between problems, at
# about this many even intervals of the run, so that its median covers the
# run and not one moment of it
SETUP_REPEATS = 6
# Python specialises hot code during its first calls; problems run for this
# long before the window opens, so a run of a few rounds does not report
# part of that warm-up
WARMUP_S = 1.0

# the host clock samples the host's speed this often during a timed call;
# a sliver takes about 0.3 ms, 3% of a tick
TICK_S = 0.01
# a sliver lands in a fast or a slow moment of the host; a call's speed is
# the mean of at least this many, the last of the run before it included
MIN_SLIVERS = 20
# the sliver's three parts (see ``HostClock._sliver``): keys of its dict,
# lookups in a table of SLIVER_TABLE entries, and numpy calls
SLIVER_KEYS = 75
SLIVER_TABLE = 20_000
SLIVER_PROBES = 150
SLIVER_NUMPY = 12
# Every reported time is in seconds of a host on which a sliver takes
# this long: about its median, run from the timer in the middle of a
# solve, on a 2-vCPU Intel Xeon VM under Python 3.11, so reported times
# read close to that host's raw seconds.
SLIVER_S = 300e-6

# rounds built at set-up; a run that uses them all starts over at round 0
ROUNDS = {"nroad": 12, "blocks": 60}


# ---------------------------------------------------------------------------
# the package under test


def load_package():
    """Import riskplan afresh from this checkout's src/.  Dropping the
    modules first makes every set-up pay the package's import-time work."""
    for name in [n for n in sys.modules
                 if n == "riskplan" or n.startswith("riskplan.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    rp = importlib.import_module("riskplan")
    for sub in ("domain", "plangraph", "probmodel", "linear", "nonlinear",
                "simulator"):
        importlib.import_module(f"riskplan.{sub}")
    if Path(rp.__file__).resolve().parent != SRC / "riskplan":
        raise ImportError(f"riskplan came from {rp.__file__}, not {SRC}")
    return rp


# ---------------------------------------------------------------------------
# host speed


class HostClock:
    """Times calls at the fixed host speed ``SLIVER_S``.  ``slivers`` holds
    every sliver's raw time in the run."""

    def __init__(self) -> None:
        self.slivers: list[float] = []
        rng = random.Random(0)
        keys = [(i, i % 13, i % 101) for i in range(SLIVER_TABLE)]
        self._table = {k: i for i, k in enumerate(keys)}
        self._probes = [rng.choice(keys) for _ in range(SLIVER_PROBES)]
        self._x, self._y = numpy.arange(8.0), numpy.ones(8)
        self._out = numpy.empty(8)

    def _sliver(self, _signum, _frame) -> None:
        """A fixed sliver of work in three parts, none of it the package's:
        a dict of small tuple keys, as the planners build; small numpy
        calls, as the simulator makes; and lookups scattered over a table of
        a few megabytes, as in a large plan's maps.  Over half-minute runs
        of the nroad and montecarlo workloads in separate processes, each
        part alone tracked the package's times to 9-14%, and the three
        together to 5-7%.  It runs with the collector off; its objects die
        before it returns, so the collector's counts are left as they
        were."""
        t0 = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        d = {}
        for i in range(SLIVER_KEYS):
            d[(i, i & 7)] = i
        table, n = self._table, 0
        for k in self._probes:
            n += table[k]
        for _ in range(SLIVER_NUMPY):
            numpy.multiply(self._x, self._y, out=self._out)
            self._out.sum()
        if enabled:
            gc.enable()
        self.slivers.append(perf_counter() - t0)

    def time(self, fn):
        """Call ``fn``; return its result and its time at the host speed
        ``SLIVER_S``.  The slivers that ran during the call are taken out of
        its time, and the host's speed is the mean of those slivers or, for
        a call of fewer than ``MIN_SLIVERS`` ticks, of the last
        ``MIN_SLIVERS`` slivers of the run, the call's own among them."""
        first = len(self.slivers)
        old = signal.signal(signal.SIGALRM, self._sliver)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = perf_counter()
        try:
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = perf_counter() - t0
            signal.signal(signal.SIGALRM, old)
        seconds -= sum(self.slivers[first:])
        speed = self.slivers[-max(len(self.slivers) - first, MIN_SLIVERS):]
        if not speed:  # no tick yet in the run
            return out, seconds
        return out, seconds * SLIVER_S / statistics.fmean(speed)


def clock_time(clock: HostClock | None, fn):
    """``clock.time(fn)``, or raw seconds when there is no clock: the
    traced run keeps the tracer's spans free of slivers."""
    if clock is not None:
        return clock.time(fn)
    t0 = perf_counter()
    out = fn()
    return out, perf_counter() - t0


# ---------------------------------------------------------------------------
# one problem


def by_problem() -> defaultdict:
    return defaultdict(list)


@dataclass
class Tally:
    """What a run measured.  Times are kept per problem of the round (its
    index, or a replayed document's slot), one entry per repeat, and so are
    the plans' masses and sizes; ``mc_trials`` is the number of trials in
    one replay; ``items`` holds the search stats of every problem in run
    order.  ``clock`` times the calls, or raw seconds are taken without
    one."""

    solve_s: defaultdict = field(default_factory=by_problem)
    exact_s: defaultdict = field(default_factory=by_problem)
    mc_s: defaultdict = field(default_factory=by_problem)
    mc_trials: int = 0
    masses: defaultdict = field(default_factory=by_problem)
    steps: defaultdict = field(default_factory=by_problem)
    attempted: int = 0
    failed: int = 0
    items: list = field(default_factory=list)
    clock: HostClock | None = None

    def timed(self, times: defaultdict, key: int, fn):
        """Call ``fn``, record its time under ``key`` in ``times``, and
        return its result."""
        out, seconds = clock_time(self.clock, fn)
        times[key].append(seconds)
        return out

    def per_call(self, times: defaultdict, key: int, fn):
        """Call ``fn`` until ``CALL_MIN_S`` has passed, record seconds per
        call, and return the last result."""
        def calls():
            n, t0 = 0, perf_counter()
            while True:
                out = fn()
                n += 1
                if perf_counter() - t0 >= CALL_MIN_S:
                    return out, n

        (out, n), seconds = clock_time(self.clock, calls)
        times[key].append(seconds / n)
        return out

    def fail(self, case_name: str, why: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAIL {case_name}: {why}", file=sys.stderr)


def solve(rp, case: wl.Case):
    """Text to verdict, the way a user of the package gets one.  Returns
    (problem, result or None, plan document or None, search stats)."""
    problem = rp.parse_problem(case.problem)
    gdomain = rp.ground(rp.parse_domain(case.domain))
    problem = problem.with_priors(gdomain.clauses)
    errors = [d for d in rp.validate_problem(problem, gdomain)
              if d.level == "error"]
    if errors:
        raise ValueError("; ".join(map(str, errors)))
    planner = rp.plan_linear if case.planner == "linear" else rp.plan_nonlinear
    try:
        result = planner(gdomain, problem, model=case.model)
    except rp.PlanningFailure as e:
        return problem, None, None, e.stats
    doc = rp.plan_document(result, problem, case.model)
    return problem, result, doc, result.stats


def check_plan(rp, key: int, case: wl.Case, problem, result, doc,
               tally: Tally) -> list[str]:
    """Every failure reason for one verdict; also records the exact-check
    time, the Monte Carlo rate, and the plan's mass and size."""
    exp = case.expect
    if result is None:
        return ["no plan, expected one"] if exp.feasible else []
    if not exp.feasible:
        return ["found a plan where none exists"]
    sim = rp.simulator
    bad = []
    mass = result.bound.achieved_mass
    if not exp.mass_lo <= mass <= exp.mass_hi:
        bad.append(f"mass {mass!r} outside oracle [{exp.mass_lo!r}, "
                   f"{exp.mass_hi!r}]")
    if mass < 1.0 - result.bound.epsilon - wl.ACCEPT_TOL:
        bad.append(f"mass {mass!r} below 1 - epsilon")
    steps = len(result.conditional.steps_used())
    if exp.steps is not None and steps != exp.steps:
        bad.append(f"{steps} steps, expected {exp.steps}")
    gc.collect()  # the planner's garbage is not the checker's to collect
    exact = tally.per_call(tally.exact_s, key, lambda: sim.exhaustive_success(
        result.conditional, problem.priors, problem.known_true,
        problem.known_false))
    if abs(exact - mass) > EXACT_TOL:
        bad.append(f"exhaustive {exact!r} != analytic {mass!r}")
    report = tally.per_call(tally.mc_s, key, lambda: sim.simulate_document(
        doc, trials=CHECK_TRIALS, seed=MC_SEED))
    tally.mc_trials = CHECK_TRIALS
    if report["violations"]:
        bad.append(f"{report['violations']} violations in replay: "
                   f"{report['violationSamples'][:1]}")
    tally.masses[key].append(mass)
    tally.steps[key].append(steps)
    return bad


def run_case(rp, key: int, case: wl.Case, tally: Tally,
             tracer: Tracer | None) -> None:
    tally.attempted += 1
    if tracer:
        tracer.begin_item(tally.attempted)
        tracer.active = True
    try:
        problem, result, doc, stats = tally.timed(
            tally.solve_s, key, lambda: solve(rp, case))
    except Exception:  # a crash is a failed problem, not a crashed bench
        tally.fail(case.name, traceback.format_exc(limit=3))
        tally.items.append(None)
        return
    finally:
        if tracer:
            tracer.active = False
    tally.items.append({k: stats.get(k, 0) for k in
                        ("expanded", "generated", "pruned", "deduplicated")})
    try:
        bad = check_plan(rp, key, case, problem, result, doc, tally)
    except Exception:
        bad = [traceback.format_exc(limit=3)]
    if bad:
        tally.fail(case.name, "; ".join(bad))


# ---------------------------------------------------------------------------
# the montecarlo workload


@dataclass
class Replay:
    slot: int  # picks the document's fixed Monte Carlo stream
    case: wl.Case
    problem: object
    result: object
    doc: dict


def montecarlo_setup(rp, seed: int) -> tuple[list[Replay], list[str]]:
    """Plan every document once.  A document whose plan fails its checks is
    left out of the replays and reported."""
    out, failures = [], []
    for slot, case in enumerate(wl.montecarlo_cases(seed)):
        try:
            problem, result, doc, _stats = solve(rp, case)
            bad = check_plan(rp, slot, case, problem, result, doc, Tally())
        except Exception:
            bad = [traceback.format_exc(limit=3)]
        if bad:
            failures.append(f"{case.name}: {'; '.join(bad)}")
        else:
            out.append(Replay(slot, case, problem, result, doc))
    return out, failures


def run_replay(rp, key: int, rep: Replay, tally: Tally,
               tracer: Tracer | None) -> None:
    """Replay one document: Monte Carlo then the exact check.  The time of
    both is the item's time to a verdict; the exact check is then timed
    again, untraced, per call."""
    sim = rp.simulator

    def exact_check():
        return sim.exhaustive_success(
            rep.result.conditional, rep.problem.priors,
            rep.problem.known_true, rep.problem.known_false)

    tally.attempted += 1
    if tracer:
        tracer.begin_item(tally.attempted)
        tracer.active = True
    try:
        report, mc_s = clock_time(tally.clock, lambda: sim.simulate_document(
            rep.doc, trials=MC_TRIALS, seed=MC_SEED + rep.slot))
        exact, exact_s = clock_time(tally.clock, exact_check)
    except Exception:
        tally.fail(rep.case.name, traceback.format_exc(limit=3))
        tally.items.append(None)
        return
    finally:
        if tracer:
            tracer.active = False
    tally.solve_s[key].append(mc_s + exact_s)
    tally.mc_s[key].append(mc_s)
    tally.mc_trials = MC_TRIALS
    tally.per_call(tally.exact_s, key, exact_check)
    tally.items.append({})
    mass = rep.result.bound.achieved_mass
    tally.masses[key].append(mass)
    tally.steps[key].append(len(rep.result.conditional.steps_used()))
    bad = []
    if report["violations"]:
        bad.append(f"{report['violations']} violations")
    if abs(report["estimate"] - mass) > max(3.0 * report["stderr"], 1e-9):
        bad.append(f"estimate {report['estimate']!r} is more than 3 SE "
                   f"({report['stderr']!r}) from {mass!r}")
    if abs(exact - mass) > EXACT_TOL:
        bad.append(f"exhaustive {exact!r} != analytic {mass!r}")
    if bad:
        tally.fail(rep.case.name, "; ".join(bad))


# ---------------------------------------------------------------------------
# runs


def setup(workload: str, seed: int):
    """Import the package and build every input of the run.  Returns the
    package, the inputs, and the failures met on the way."""
    rp = load_package()
    if workload == "montecarlo":  # one round: every document once
        replays, failures = montecarlo_setup(rp, seed)
        return rp, [replays], failures
    make = {"nroad": wl.nroad_round, "blocks": wl.blocks_round}[workload]
    return rp, [make(seed, r) for r in range(ROUNDS[workload])], []


def timed_setup(workload: str, seed: int, setup_s: list[float],
                clock: HostClock | None):
    """``setup`` timed into ``setup_s``; what an earlier set-up left behind
    is collected first, untimed."""
    gc.collect()
    out, seconds = clock_time(clock, lambda: setup(workload, seed))
    setup_s.append(seconds)
    return out


def setup_again(workload: str, seed: int, setup_s: list[float],
                clock: HostClock | None) -> None:
    """Time one more set-up in the middle of a run, then put the run's own
    modules back: the package imports lazily, and a function of the first
    import must not pick up a class of the second."""
    mine = {n: m for n, m in sys.modules.items()
            if n == "riskplan" or n.startswith("riskplan.")}
    timed_setup(workload, seed, setup_s, clock)
    sys.modules.update(mine)
    gc.collect()


def self_check() -> list[str]:
    """The N-road oracle at the ROADMAP numbers: 0.9648 from N=3 on, no plan
    for N<=2."""
    bad = []
    for n in range(1, 9):
        got = wl.nroad_oracle(n, *wl.ROADMAP_NROAD)
        want = None if n <= 2 else 0.9648
        if (got is None) != (want is None) or (
                want is not None and abs(got - want) > 1e-12):
            bad.append(f"nroad oracle at N={n}: {got!r}, expected {want!r}")
    return bad


def warm_up(rp, workload: str, rounds, clock: HostClock | None) -> Tally:
    """Run problems of the first round, unrecorded, for ``WARMUP_S``."""
    tally = Tally(clock=clock)
    run = run_replay if workload == "montecarlo" else run_case
    start = perf_counter()
    for key, item in enumerate(rounds[0]):
        run(rp, key, item, tally, None)
        if perf_counter() - start >= WARMUP_S:
            break
    return tally


def measure(rp, workload: str, rounds, seconds: float,
            clock: HostClock | None = None, tracer: Tracer | None = None,
            resetup=None) -> tuple[Tally, Tally]:
    """Run rounds until ``seconds`` have passed and one round is complete;
    every problem of the round is then timed at least once.  ``resetup``,
    when given, is called between problems up to ``SETUP_REPEATS`` times,
    about evenly spaced, and its time does not count towards ``seconds``.

    Each problem runs on one of the CPUs the process may use, the next one
    in each round, so that its repeats are spread over all of them: on a
    shared host one CPU can be slowed by a neighbour while another is not.

    With a tracer every problem runs twice, untraced and traced, in turns
    of which goes first; the second tally holds the traced runs."""
    tally, traced = Tally(clock=clock), Tally()
    run = run_replay if workload == "montecarlo" else run_case
    cpus = sorted(os.sched_getaffinity(0))
    start = last_setup = perf_counter()
    r = setups = 0
    try:
        while True:
            mix = rounds[r % len(rounds)]
            for key, item in enumerate(mix):
                os.sched_setaffinity(0, {cpus[(r + key) % len(cpus)]})
                if tracer is None:
                    run(rp, key, item, tally, None)
                else:
                    turns = [(tally, None), (traced, tracer)]
                    if tally.attempted % 2:
                        turns.reverse()
                    for into, tr in turns:
                        run(rp, key, item, into, tr)
                now = perf_counter()
                if now - start >= seconds and (r or key == len(mix) - 1):
                    return tally, traced
                if (resetup and setups < SETUP_REPEATS
                        and now - last_setup
                        >= seconds / (SETUP_REPEATS + 1)):
                    resetup()
                    setups += 1
                    last_setup = perf_counter()
                    start += last_setup - now
            r += 1
    finally:
        os.sched_setaffinity(0, cpus)


def percentile(xs: list[float], q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    s = sorted(xs)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def medians(times: defaultdict) -> list[float]:
    """Each problem's median repeat; [0.0] when nothing was timed."""
    return [statistics.median(ts) for ts in times.values()] or [0.0]


def per_problem_mean(values: defaultdict) -> float:
    """Mean over the problems of a round of each one's mean, so that a run
    ending part-way through a round does not tilt the mix."""
    return statistics.fmean(
        [statistics.fmean(vs) for vs in values.values()] or [0.0])


def end_to_end(tally: Tally, setup_s: list[float]) -> dict[str, float]:
    """Percentiles, rates and means over the problems of a round, each
    counted once, its times at its median repeat.  Problems per second is
    the round solved at those times.  The exact-check time is a mean: the
    median of a fixed mix of plan sizes falls between two sizes and jumps
    with the noise of either."""
    solve = medians(tally.solve_s)
    mc = medians(tally.mc_s)
    return {
        "setup_s": statistics.median(setup_s),
        "solve_s_p50": percentile(solve, 0.5),
        "solve_s_p90": percentile(solve, 0.9),
        "problems_per_s": len(solve) / (sum(solve) or 1.0),
        "achieved_mass_mean": per_problem_mean(tally.masses),
        "plan_steps_mean": per_problem_mean(tally.steps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "mc_trials_per_s": tally.mc_trials * len(mc) / (sum(mc) or 1.0),
        "exact_check_s": statistics.fmean(medians(tally.exact_s)),
    }


def total(times: defaultdict) -> float:
    return sum(sum(ts) for ts in times.values())


def per_layer(tracer: Tracer, base: Tally, traced: Tally):
    """The tracer's layer metrics, the search counters of the traced runs,
    and the tracing overhead against the same problems run untraced."""
    metrics = tracer.metrics()
    totals = {"expanded": 0, "generated": 0, "pruned": 0, "deduplicated": 0}
    for it in traced.items:
        for k in totals:
            totals[k] += (it or {}).get(k, 0)
    for k, v in totals.items():
        metrics[f"search.{k}"] = (v, "count")
    metrics["search.expand_frac"] = (
        totals["expanded"] / totals["generated"] if totals["generated"]
        else 0.0, "ratio")
    metrics["trace.overhead_frac"] = (
        total(traced.solve_s) / (total(base.solve_s) or 1.0) - 1.0, "ratio")
    return ({k: v for k, (v, _u) in metrics.items()},
            {k: u for k, (_v, u) in metrics.items()})


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None,
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("nroad", "blocks", "montecarlo"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (SRC / "riskplan" / "__init__.py").is_file():
        print(f"bench: no riskplan package under {SRC}", file=sys.stderr)
        return 2
    # the traced run takes raw seconds, which keeps slivers out of its spans
    clock = None if args.trace else HostClock()
    setup_s = []
    rp, rounds, setup_errors = timed_setup(args.workload, args.seed, setup_s,
                                           clock)
    setup_errors += self_check()
    for err in setup_errors:
        print(f"FAIL {err}", file=sys.stderr)

    info = {"machine": machine(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    print(json.dumps(info, sort_keys=True))

    warm = warm_up(rp, args.workload, rounds, clock)
    if not args.trace:
        def resetup():
            setup_again(args.workload, args.seed, setup_s, clock)

        tally, _ = measure(rp, args.workload, rounds, args.seconds, clock,
                           resetup=resetup)
        while len(setup_s) < 1 + SETUP_REPEATS:  # a run cut short by a
            resetup()  # long last problem makes up its set-ups here
        values = end_to_end(tally, setup_s)
        units = dict(END_TO_END)
        search_ok = True
    else:
        tracer = Tracer()
        tracer.install()
        try:
            base, tally = measure(rp, args.workload, rounds, args.seconds,
                                  tracer=tracer)
        finally:
            tracer.uninstall()
        search_ok = tally.items == base.items
        if not search_ok:
            print("FAIL traced search counters differ from the untraced run",
                  file=sys.stderr)
        values, units = per_layer(tracer, base, tally)
        tally.attempted += base.attempted
        tally.failed += base.failed
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}.npz")

    tally.attempted += warm.attempted + len(setup_errors)
    tally.failed += warm.failed + len(setup_errors)
    print(f"{'metric':44s} {'value':>16s}  unit")
    for name, v in values.items():
        print(f"{name:44s} {v:16.6g}  {units[name]}")
    print(f"{'fail_frac':44s} {tally.failed / max(tally.attempted, 1):16.6g}  "
          f"ratio  ({tally.failed}/{tally.attempted})")
    if clock:
        print(f"{'sliver_s':44s} {statistics.median(clock.slivers):16.6g}  s  "
              f"(raw median; the times above are at {SLIVER_S} s)")

    correct = tally.failed == 0 and search_ok
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
