"""Checks of the benchmark itself: oracles, generators, tracer, workloads.

    python3 -m pytest bench

Not part of the package's test suite (``testpaths`` there is ``tests``):
the workload runs take about a minute.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import json
import os
import pstats
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import TARGETS, Tracer, _original  # noqa: E402

# An influenced chance step whose marginal odds (0.865) fall short of the
# target, and a sign correlated with its influence, so the nonlinear
# planner, after acting in ignorance of the fog, looks for an observation
# d-connected to it: the only path that calls d_connected.
INFLUENCE = ("""\
(operator hike
  (kind cond)
  (outcomes (summit (add (top))) (turn-back))
  (influences (fog))
  (cpt ((summit true) 0.55) ((turn-back true) 0.45)
       ((summit false) 0.97) ((turn-back false) 0.03)))

(operator read-haze
  (kind obs)
  (observes (haze))
  (outcomes (true) (false)))

(clause (head (fog) (true false))
  (cpt ((true) 0.25) ((false) 0.75)))

(clause (head (haze) (true false))
  (body (fog))
  (cpt ((true true) 0.9) ((false true) 0.1)
       ((true false) 0.2) ((false false) 0.8)))
""", """\
(problem
  (init (not (top)))
  (goal (top))
  (epsilon 0.1))
""")


@pytest.fixture(scope="module")
def rp():
    return run.load_package()


def small_cases() -> list[wl.Case]:
    params = wl.ROADMAP_NROAD
    cases = [wl.nroad_case(2, "linear", params),
             wl.nroad_case(3, "linear", params),
             wl.nroad_case(3, "nonlinear", params)]
    cases += [c for c in wl.blocks_round(7, 0) if c.name.startswith("sussman")]
    dom, prob = INFLUENCE
    for planner in wl.PLANNERS:
        cases.append(wl.Case(f"hike-{planner}", dom, prob, planner, "kbmc",
                             wl.Expect(True, 0.9, 1.0)))
    return cases


def pipeline(rp) -> list:
    """Plan, replay and exactly check each small case; returns the search
    stats of every solve."""
    stats = []
    for case in small_cases():
        problem, result, doc, st = run.solve(rp, case)
        stats.append({k: st[k] for k in ("expanded", "generated")})
        if result is not None:
            rp.simulator.simulate_document(doc, trials=30, seed=1)
            rp.simulator.exhaustive_success(
                result.conditional, problem.priors, problem.known_true,
                problem.known_false)
    return stats


def test_nroad_oracle_at_roadmap_cpts():
    assert run.self_check() == []
    assert wl.nroad_oracle(2, *wl.ROADMAP_NROAD) is None
    assert wl.nroad_oracle(6, *wl.ROADMAP_NROAD) == pytest.approx(0.9648,
                                                                  abs=1e-12)


def test_nroad_seeds_keep_every_verdict():
    for seed in range(200):
        params = wl.nroad_params(wl._rng("nroad", seed, 0, 4))
        assert wl.nroad_oracle(2, *params) is None
        for n in range(3, 9):
            assert wl.nroad_oracle(n, *params) == pytest.approx(0.9648,
                                                                abs=1e-12)


def test_generators_depend_on_the_seed_only():
    for make in (wl.nroad_round, wl.blocks_round):
        assert make(5, 2) == make(5, 2)
        assert make(5, 2) != make(6, 2)
    assert wl.montecarlo_cases(5) == wl.montecarlo_cases(5)
    assert wl.montecarlo_cases(5) != wl.montecarlo_cases(6)


def test_small_cases_are_solved_correctly(rp):
    for case in small_cases():
        problem, result, doc, _ = run.solve(rp, case)
        assert run.check_plan(rp, 0, case, problem, result, doc,
                              run.Tally()) == [], case.name


def test_measure_times_every_problem_and_restores_affinity(rp):
    cpus = os.sched_getaffinity(0)
    rounds = [wl.blocks_round(1, r)[:3] for r in range(2)]
    tally, _ = run.measure(rp, "blocks", rounds, 0.01)
    assert sorted(tally.solve_s) == [0, 1, 2]
    assert tally.failed == 0
    assert os.sched_getaffinity(0) == cpus


def test_host_clock_times_a_call_and_disarms_its_timer():
    clock = run.HostClock()
    handler = signal.getsignal(signal.SIGALRM)

    def work():
        return sum(i * i for i in range(600_000))

    out, seconds = clock.time(work)
    assert out == work()
    assert seconds > 0
    assert len(clock.slivers) > 1, "no tick landed during a call of ~50 ms"
    with pytest.raises(ZeroDivisionError):
        clock.time(lambda: 1 / 0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_tracer_call_counts_match_cprofile(rp):
    prof = cProfile.Profile()
    prof.enable()
    plain = pipeline(rp)
    prof.disable()
    ncalls = {(k[0], k[1], k[2]): v[1]
              for k, v in pstats.Stats(prof).stats.items()}

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        traced = pipeline(rp)
    finally:
        tracer.active = False
        tracer.uninstall()

    assert traced == plain
    mods = {m.__name__: m for m in tracer.modules()}
    for nid, name in enumerate(tracer.names):
        want = 0
        for mod, attr in TARGETS[name]:
            code = _original(mods[f"riskplan.{mod}"], attr)[2].__code__
            want += ncalls.get((code.co_filename, code.co_firstlineno,
                                code.co_name), 0)
        assert tracer.calls[nid] == want, name
        assert want > 0, f"{name} is never called by the small cases"
    # every span closed, and self times add up to the traced wall time
    assert not tracer._stack
    assert all(e >= s for s, e in zip(tracer.span_start, tracer.span_end))
    top = [e - s for s, e, p in zip(tracer.span_start, tracer.span_end,
                                    tracer.span_parent) if p == -1]
    assert sum(tracer.self_s) + tracer.bookkeeping_s == pytest.approx(
        sum(top), rel=1e-9)


def test_uninstall_restores_every_binding(rp):
    before = {m.__name__: dict(vars(m)) for m in Tracer().modules()}
    effective = rp.domain.GroundOperator.effective_deletes
    tracer = Tracer()
    tracer.install()
    assert rp.plangraph.find_threats is not rp.linear.find_threats.__wrapped__
    tracer.uninstall()
    after = {m.__name__: dict(vars(m)) for m in tracer.modules()}
    assert after == before
    assert rp.domain.GroundOperator.effective_deletes is effective


def _main(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["nroad", "blocks", "montecarlo"])
def test_every_workload_is_correct(workload):
    res = _main("--workload", workload, "--seed", "11", "--seconds", "0.5")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(res["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_matches_untraced_search():
    res = _main("--workload", "blocks", "--seed", "3", "--seconds", "0.5",
                "--trace", "1")
    assert res["correct"] and res["failed"] == 0
    metrics = res["metrics"]
    assert metrics["search.expanded"]["value"] > 0
    assert metrics["plangraph.closure.calls"]["value"] > 0
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}


def test_without_the_package_the_bench_exits_nonzero(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "blocks", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
