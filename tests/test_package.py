"""The package's public names, which it imports from their submodules on first use."""

import importlib
import os
import subprocess
import sys

import pytest

import fairpolicy

PUBLIC = {
    "distributions": [
        "DistributionError", "EmptySample", "OutOfSupport", "StepCdf", "SupportInterval",
        "SupportMismatch", "WeightMismatch", "point_mass", "step_cdf_from_samples",
    ],
    "estimation": ["TrainingSample", "empirical_pz", "fit_plugin"],
    "functionals": [
        "InvalidTau", "SimilarityMeasure", "TargetFunctional", "gini_welfare", "mad_half",
        "mean", "quantile",
    ],
    "objective": [
        "CondCdfArray", "CovariateSpace", "DecisionRule", "EmptySet", "InvalidLambda",
        "SpaceMismatch", "d1", "d1_to_set", "omega",
    ],
    "optimizer": [
        "NonFiniteObjective", "OptimResult", "OptimizerConfig", "maximize", "random_rule",
    ],
    "selection": [
        "BudgetSelection", "InvalidBudget", "LambdaGrid", "LambdaNotOnGrid", "LambdaPath",
        "NonUniformGrid", "PathEntry", "budget_slack", "delta_n", "interpolate_linear",
        "interpolate_value", "lip_m", "select_lambda_budget", "sweep",
    ],
    "simharness": ["SimConfig", "SimResult", "SimRow", "regret_toy", "run_simulation"],
    "toy": [
        "ToyParams", "toy_argmax", "toy_cdf_g", "toy_cdf_h", "toy_cond_array",
        "toy_max_value", "toy_objective", "toy_sample", "toy_threshold",
    ],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_public_name_is_its_submodules_object(module, name):
    namespace = {}
    exec(f"from fairpolicy import {name} as value", namespace)
    assert namespace["value"] is getattr(importlib.import_module(f"fairpolicy.{module}"), name)
    assert getattr(fairpolicy, name) is namespace["value"]
    assert name in dir(fairpolicy)


def test_all_lists_exactly_the_public_names():
    assert sorted(fairpolicy.__all__) == sorted(name for _, name in NAMES)
    assert len(fairpolicy.__all__) == len(NAMES)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(fairpolicy, "no_such_name")


def test_import_loads_no_submodule():
    src = os.path.dirname(os.path.dirname(fairpolicy.__file__))
    code = ("import sys, fairpolicy; "
            "print(sorted(m for m in sys.modules if m.startswith('fairpolicy.'))); "
            "print(fairpolicy.toy.__name__)")  # submodules stay attributes of the package
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n")[:2] == ["[]", "fairpolicy.toy"]
