"""Fairness-penalized treatment-assignment rules for distributional targets.

The library learns decision rules (probability vectors over K treatments per
covariate level) that maximize a functional of the implied outcome
distribution (Gini-welfare, mean, quantiles) penalized by the worst
dissimilarity between protected-group outcome distributions and the
population distribution.  It ships the plug-in empirical objective (equal
to the inverse-propensity-weighted one with cell-frequency propensities);
two maximizers over products of simplices (the plug-in program of
`fairpolicy.lp`, minorize-maximize over a linear program that is exact for
the mean target and local for Gini-welfare, and Nelder-Mead, alone in
`fairpolicy.optimizer`, for every other objective; their settings and
result are `fairpolicy.selection`'s); budget-based preference-parameter
selection; a closed-form test oracle; and a Monte Carlo harness.

The public names below are imported from their submodules on first use
(PEP 562), so ``import fairpolicy`` loads none of them and each CLI command
compiles only the modules it runs.  The classes are plain classes, not
dataclasses, so that no import runs generated code through ``exec`` or
loads ``dataclasses`` (and with it ``inspect``).  Every function under the
package runs in some command, except the few that the benchmark reads,
that a planned data-driven-lambda study needs (`d1`, `d1_to_set`,
`toy_argmax`), or that a protocol calls; `tests/test_package.py` holds
that list.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "distributions": (
        "DistributionError",
        "OutOfSupport",
        "StepCdf",
        "SupportInterval",
    ),
    "estimation": ("TrainingSample", "fit_plugin"),
    "functionals": ("InvalidTau", "SimilarityMeasure", "TargetFunctional"),
    "objective": (
        "CondCdfArray",
        "CovariateSpace",
        "DecisionRule",
        "EmptySet",
        "InvalidLambda",
        "SpaceMismatch",
        "d1",
        "d1_to_set",
        "omega",
    ),
    "optimizer": ("maximize",),
    "selection": (
        "BudgetSelection",
        "InvalidBudget",
        "LambdaGrid",
        "LambdaNotOnGrid",
        "LambdaPath",
        "NonFiniteObjective",
        "OptimResult",
        "OptimizerConfig",
        "PathEntry",
        "budget_slack",
        "delta_n",
        "select_lambda_budget",
        "sweep",
    ),
    "simharness": ("SimConfig", "SimResult", "SimRow", "regret_toy", "run_simulation"),
    "toy": (
        "ToyParams",
        "toy_argmax",
        "toy_cdf_g",
        "toy_cdf_h",
        "toy_cond_array",
        "toy_max_value",
        "toy_objective",
        "toy_sample",
        "toy_threshold",
    ),
}
# public name -> the submodule that defines it
_SUBMODULE = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
    elif name in _SUBMODULE_NAMES:  # a submodule not imported yet, as fairpolicy.lp
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
