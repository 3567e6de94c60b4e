"""The package's public names, which it imports from their submodules on first
use, and the guard that every function in the package runs in some command."""

import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fairpolicy

PUBLIC = {
    "distributions": ["DistributionError", "OutOfSupport", "StepCdf", "SupportInterval"],
    "estimation": ["TrainingSample", "fit_plugin"],
    "functionals": ["InvalidTau", "SimilarityMeasure", "TargetFunctional"],
    "objective": [
        "CondCdfArray", "CovariateSpace", "DecisionRule", "EmptySet", "InvalidLambda",
        "SpaceMismatch", "d1", "d1_to_set", "omega",
    ],
    "optimizer": ["maximize"],
    "selection": [
        "BudgetSelection", "InvalidBudget", "LambdaGrid", "LambdaPath", "NonFiniteObjective",
        "OptimResult", "OptimizerConfig", "PathEntry", "budget_slack", "select_lambda_budget",
        "sweep",
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


# Functions no command calls, each with the one reason it stays:
#   bench    - bench/lpref.py or bench/run.py reads it (directly, or through
#              another bench entry), so the benchmark's LP check needs it;
#   item-3   - ROADMAP open item 3 (regret at a data-driven lambda in
#              simulate) needs it;
#   protocol - Python calls it on the object's behalf (dir(), len(), ==,
#              repr(), ...), for the tests or a library error message.
KEPT = {
    "__init__.__dir__": "protocol",
    "distributions.SupportInterval.__eq__": "protocol",
    "distributions.SupportInterval.__repr__": "protocol",
    "simharness.SimRow.__eq__": "protocol",
    "distributions.StepCdf.eval_many": "bench",
    "distributions.StepCdf.from_canonical": "bench",
    "objective.CondCdfArray.cdf": "bench",
    "objective.CondCdfArray.p_z": "bench",
    "objective.CovariateSpace.x_index": "bench",
    "objective.CovariateSpace.z_index": "bench",
    "objective.d1": "item-3",
    "objective.d1_to_set": "item-3",
    "toy.toy_argmax": "item-3",
}

# Runs every command under sys.setprofile, in-process, and prints the
# package's module- and class-level functions that none of them called.
REACH = r"""
import contextlib, importlib, inspect, io, json, os, pkgutil, sys
import fairpolicy
from fairpolicy import cli

tmp = sys.argv[1]
sample, config = os.path.join(tmp, "s.csv"), os.path.join(tmp, "c.cfg")
bad_sample = os.path.join(tmp, "bad.csv")
with open(sample, "w") as fh:
    fh.write("y,x,z,d\n" + "".join(
        f"{7 * j % 11 / 10},x{j % 3},z{j % 2},{1 + j * j % 2}\n" for j in range(30)))
with open(bad_sample, "w") as fh:
    fh.write("y,x,z,d\n0.5,x0,z0,one\n")
with open(config, "w") as fh:
    fh.write(f"input={sample}\ngrid-m=1\n")
out = lambda name: ["--output-dir", os.path.join(tmp, name)]
runs = [["fit", "--input", sample] + out("fit")]
for t in ("gini-welfare", "mean", "quantile:0.5"):
    for s in ("ks", "one-sided-ks", "abs-target-diff:mean", "abs-target-diff:gini-welfare",
              "abs-target-diff:quantile:0.5"):
        runs.append(["sweep", "--input", sample, "--target", t, "--similarity", s,
                     "--grid-m", "2", "--max-iters", "20"] + out(t + s))
runs += [
    ["select", "--beta", "0.1", "--path-csv", os.path.join(tmp, "gini-welfareks", "path.csv"),
     "--rules-json", os.path.join(tmp, "gini-welfareks", "rules.json")] + out("select-path"),
    ["simulate", "--sample-sizes", "40", "--mechanisms", "A1", "--replications", "1",
     "--grid-m", "1"] + out("simulate"),
    ["oracle-check", "--grid-points", "50"],
    ["sweep", "--config", config] + out("config"),
    ["sweep", "--grid-m", "abc"],
    ["sweep", "--input", bad_sample] + out("bad-sample"),  # read in-process, not forked
]
src = os.path.dirname(fairpolicy.__file__)
called = set()

def record(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(src):
        called.add(frame.f_code)

with contextlib.redirect_stderr(io.StringIO()):
    sys.setprofile(record)
    codes = [cli.main(argv) for argv in runs]
    sys.setprofile(None)

def functions(owner):
    for value in vars(owner).values():
        value = getattr(value, "__func__", value)  # classmethod, staticmethod
        if isinstance(value, property):
            yield from (f for f in (value.fget, value.fset, value.fdel) if f is not None)
        elif inspect.isfunction(getattr(value, "func", None)):  # cached_property
            yield value.func
        elif inspect.isfunction(value):
            yield value

unreached = set()
for info in [None, *pkgutil.iter_modules(fairpolicy.__path__)]:
    module = fairpolicy if info is None else importlib.import_module("fairpolicy." + info.name)
    owners = [module] + [v for v in vars(module).values()
                         if inspect.isclass(v) and v.__module__ == module.__name__]
    for owner in owners:
        for fn in map(inspect.unwrap, functions(owner)):
            code = fn.__code__
            if (fn.__module__ == module.__name__ and code.co_filename.startswith(src)
                    and code not in called):
                unreached.add(f"{'__init__' if info is None else info.name}.{fn.__qualname__}")
print(json.dumps({"codes": codes, "unreached": sorted(unreached)}))
"""


def _kept_function(name: str):
    module, *path = name.split(".")
    obj = importlib.import_module("fairpolicy" if module == "__init__" else f"fairpolicy.{module}")
    for part in path:
        obj = inspect.getattr_static(obj, part)
    return getattr(obj, "fget", None) or getattr(obj, "func", None) or obj


def test_every_function_runs_in_a_command_or_is_kept(tmp_path):
    src = os.path.dirname(os.path.dirname(fairpolicy.__file__))
    out = subprocess.run([sys.executable, "-c", REACH, str(tmp_path)],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    result = json.loads(out)
    assert result["codes"] == [0] * 20 + [5, 2]  # the bad flag exits 5, the bad sample 2
    unreached = set(result["unreached"])
    assert sorted(unreached - set(KEPT)) == [], "no command calls these: delete or move them"
    assert sorted(set(KEPT) - unreached) == [], "a command calls these: take them out of KEPT"


def test_kept_functions_give_a_reason_that_holds():
    bench = Path(__file__).resolve().parent.parent / "bench"
    sources = {name: inspect.getsource(_kept_function(name)) for name in KEPT}
    texts = [(bench / f).read_text() for f in ("lpref.py", "run.py")]
    for name, reason in KEPT.items():
        attr = name.rsplit(".", 1)[1]
        assert reason in ("bench", "item-3", "protocol"), name
        if reason == "protocol":
            assert attr.startswith("__") and attr.endswith("__"), name
        if reason == "bench":
            word = re.compile(rf"\b{re.escape(attr)}\b")
            readers = texts + [sources[n] for n, r in KEPT.items() if r == "bench" and n != name]
            assert any(word.search(text) for text in readers), name
