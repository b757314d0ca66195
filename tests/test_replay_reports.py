"""Pinned Monte Carlo reports: the full ``simulate_document`` report of each
plan document below, at several trial counts and two seeds.

The documents are ski (both planners, epsilon 0.1 and 0.085) and N-road
N=3, 5 and 7 (nonlinear).  The trial counts are 4,000, and 2,049, 4,099 and
9,000, which cross chunk boundaries of 1,024 and 2,048 trials.  Any change
to how trials draw, group into classes or count shows up here.

To re-record after an intended change of output::

    PYTHONPATH=src python -m tests.test_replay_reports
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from riskplan.conditional import plan_document
from riskplan.linear import plan_linear
from riskplan.nonlinear import plan_nonlinear
from riskplan.simulator import simulate_document
from riskplan.worlds import load_texts, nroad_world, ski_world

PINNED = Path(__file__).with_name("replay_reports.json")

# document name -> (world texts, planner, epsilon)
DOCUMENTS = {
    **{f"ski-{eps}-{planner.__name__}": (ski_world, planner, eps)
       for eps in (0.1, 0.085) for planner in (plan_linear, plan_nonlinear)},
    **{f"nroad-{n}-plan_nonlinear": (functools.partial(nroad_world, n),
                                     plan_nonlinear, None)
       for n in (3, 5, 7)},
}
TRIALS = (2049, 4000, 4099, 9000)
SEEDS = (1, 7)


@functools.lru_cache(maxsize=None)
def _document(name: str) -> str:
    world, planner, eps = DOCUMENTS[name]
    gdom, prob = load_texts(*world())
    result = planner(gdom, prob, epsilon=eps)
    return json.dumps(plan_document(result, prob, "kbmc"))


def _reports(name: str) -> dict:
    doc = json.loads(_document(name))
    return {f"{trials}/{seed}": simulate_document(doc, trials, seed)
            for trials in TRIALS for seed in SEEDS}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_replay_reports_are_unchanged(name):
    pinned = json.loads(PINNED.read_text())[name]
    got = json.loads(json.dumps(_reports(name)))
    assert got == pinned


if __name__ == "__main__":
    PINNED.write_text(json.dumps({name: _reports(name)
                                  for name in sorted(DOCUMENTS)},
                                 sort_keys=True, indent=1) + "\n")
    print(f"wrote {PINNED}")
