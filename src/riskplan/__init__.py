"""Planning under uncertainty to a target success probability.

The package splits into a domain language (:mod:`riskplan.domain`), a
partially ordered plan representation with branch contexts
(:mod:`riskplan.plangraph`), probability models that score those contexts
(:mod:`riskplan.probmodel`), one ε-safe best-first search
(:mod:`riskplan.search`), two planners that differ only in plan shape and
refinement moves (:mod:`riskplan.linear` grows trees,
:mod:`riskplan.nonlinear` partial orders), the conditional plan they
extract with its replay program and plan document
(:mod:`riskplan.conditional`), and a Monte Carlo / exhaustive execution
harness (:mod:`riskplan.simulator`) that reads only that plan.
"""

from .conditional import ConditionalPlan, plan_document
from .domain import (Domain, GroundDomain, Problem, Proposition, ground,
                     parse_domain, parse_problem, validate_problem)
from .errors import (DomainSyntaxError, DomainValidationError,
                     PlanningFailure, RiskplanError)
from .linear import plan_linear
from .nonlinear import plan_nonlinear
from .plangraph import PlanGraph
from .probmodel import BeliefNet, PlanResult, SuccessBound, success_bound
from .simulator import estimate_success, exhaustive_success, execute_plan

__version__ = "0.1.0"

__all__ = [
    "BeliefNet",
    "ConditionalPlan",
    "Domain",
    "DomainSyntaxError",
    "DomainValidationError",
    "GroundDomain",
    "PlanGraph",
    "PlanResult",
    "PlanningFailure",
    "Problem",
    "Proposition",
    "RiskplanError",
    "SuccessBound",
    "estimate_success",
    "execute_plan",
    "exhaustive_success",
    "ground",
    "parse_domain",
    "parse_problem",
    "plan_document",
    "plan_linear",
    "plan_nonlinear",
    "success_bound",
    "validate_problem",
    "__version__",
]
