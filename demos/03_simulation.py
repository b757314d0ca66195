"""
Checking a plan by actually running it
======================================

The planner claims a success mass for every plan it returns.  Trust but
verify: the simulator samples worlds from the priors, walks the branching
plan against each one, and reports how often the goal really held.  It
can also sum over every chance outcome and every value of the prior
variables the plan reads, and so reproduce the mass exactly.
"""

import numpy as np

from riskplan import estimate_success, exhaustive_success, execute_plan, plan_linear
from riskplan.simulator import sample_world
from riskplan.worlds import load_texts, ski_world

gdom, problem = load_texts(*ski_world())
res = plan_linear(gdom, problem, epsilon=0.085)
plan = res.conditional
print(f"analytic success mass: {res.bound.achieved_mass:.7f}")

# exhaustive replay: every assignment of the chance variables the plan
# reads, each weighted by its prior probability
exact = exhaustive_success(plan, problem.priors,
                           problem.known_true, problem.known_false)
print(f"exhaustive replay:     {exact:.7f}")

# one concrete trial, spelled out
rng = np.random.default_rng(7)
world = sample_world(problem.priors, rng)
trial = execute_plan(plan, world, problem.known_true, problem.known_false, rng)
print(f"\nsampled world {dict(world)}")
print(f"one trial: leaf={trial.leaf} success={trial.success}")

# Monte Carlo at increasing sizes; the standard error shrinks like 1/sqrt(n)
# and the estimate settles onto the analytic number
print(f"\n{'trials':>8} {'estimate':>9} {'stderr':>8}")
for trials in (100, 1_000, 10_000, 100_000):
    mc = estimate_success(plan, problem.priors, problem.known_true,
                          problem.known_false, trials=trials, seed=42)
    print(f"{trials:>8} {mc['estimate']:>9.5f} {mc['stderr']:>8.5f}")

# a sound plan never trips a precondition, whatever the dice do
print("\nprecondition violations across all trials:", mc["violations"])
