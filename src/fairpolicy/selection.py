"""Preference-parameter sweeps, diagnostics, budget-based selection, interpolation.

`sweep`, the only per-lambda loop (the Monte Carlo harness runs through it
too), fits the plug-in array once and maximizes the objective on its atom
kernel, which is also the IPW objective with cell-frequency propensities
(see `estimation`).  The mean and Gini-welfare targets with the KS,
one-sided KS or |mean difference| similarity (the pairs `plugin_route`
accepts) go to `lp.PluginProgram`: minorize-maximize over one cutting-plane
linear program, exact with a certified gap for the mean and a local maximum
with no certificate for Gini-welfare.  The optimizer settings and seed play
no part there.  Every other objective is maximized by Nelder-Mead
(`maximize`).
Per-lambda diagnostics (target value, per-group unfairness) are the same
kernel's two objective terms at the fitted rule, matching how the empirical
illustrations report estimated quantities.

Budget selection spends at most beta of the target functional on fairness:
it picks the largest lambda whose target drop relative to lambda = 0 stays
within beta * (1 - c_n), with slack c_n = sqrt(log(n) / n).  The drop is used
raw; it can be negative and is not clamped.

The value function over lambda is estimated by piecewise-linear interpolation
on the uniform grid {0, 1/m, ..., 1}; `lip_m` is the underlying operator and
its guarantee is attached to that grid only (non-uniform grids get the
generic `interpolate_linear`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .functionals import SimilarityMeasure, TargetFunctional, plugin_route
from .objective import AtomKernel, DecisionRule

if TYPE_CHECKING:
    from .estimation import TrainingSample
    from .optimizer import OptimizerConfig


class LambdaNotOnGrid(ValueError):
    """Requested a path entry at a lambda that was never fitted."""


class InvalidBudget(ValueError):
    """Budget selection needs a positive real beta and a sample of n >= 2."""


class NonUniformGrid(ValueError):
    """Interpolation with the LIP operator needs the uniform grid {0, 1/m, ..., 1}."""


@dataclass(frozen=True)
class LambdaGrid:
    """Strictly increasing preference parameters in [0, 1], starting at 0."""

    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError("grid must be nonempty")
        if values[0] != 0.0:
            raise ValueError("grid must contain 0 as its first element")
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise ValueError("grid values must lie in [0, 1]")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("grid values must be strictly increasing")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    @classmethod
    def uniform(cls, m: int) -> "LambdaGrid":
        """{0, 1/m, 2/m, ..., 1}."""
        if m < 1:
            raise ValueError("m must be >= 1")
        return cls(tuple(i / m for i in range(m + 1)))

    def index_of(self, lam: float, tol: float = 1e-12) -> int:
        for i, v in enumerate(self.values):
            if abs(v - lam) <= tol:
                return i
        raise LambdaNotOnGrid(f"lambda {lam!r} is not on the grid")

    def uniform_m(self, tol: float = 1e-12) -> int:
        """The m with values == {0, 1/m, ..., 1}; raises NonUniformGrid otherwise."""
        m = len(self.values) - 1
        if m < 1 or self.values[-1] != 1.0:
            raise NonUniformGrid("grid must end at 1")
        if any(abs(v - i / m) > tol for i, v in enumerate(self.values)):
            raise NonUniformGrid("grid points must be {0, 1/m, ..., 1}")
        return m


@dataclass(frozen=True)
class PathEntry:
    """Fitted rule and diagnostics for one preference parameter.

    evaluations, converged and gap are the solver's `OptimResult` fields;
    they are None on an entry read back from sweep outputs.
    """

    rule: DecisionRule
    obj_value: float
    target_value: float
    unfairness: dict
    max_unfairness: float
    evaluations: int | None = None
    converged: bool | None = None
    gap: float | None = None


@dataclass(frozen=True, eq=False)
class LambdaPath:
    """Per-lambda results of a sweep, aligned with the grid."""

    grid: LambdaGrid
    entries: tuple[PathEntry, ...]
    n: int

    def __post_init__(self):
        if len(self.entries) != len(self.grid):
            raise ValueError("one entry per grid value required")
        object.__setattr__(self, "entries", tuple(self.entries))

    def entry(self, lam: float) -> PathEntry:
        return self.entries[self.grid.index_of(lam)]

    @property
    def obj_values(self) -> np.ndarray:
        return np.array([e.obj_value for e in self.entries])


@dataclass(frozen=True)
class BudgetSelection:
    """Outcome of budget-based preference-parameter selection."""

    beta: float
    c_n: float
    threshold: float
    chosen_lambda: float
    deltas: dict


def _empirical_objective(kernel: AtomKernel, lam, t, s):
    return lambda probs: kernel.value(probs, lam, t, s)


def sweep(
    sample: TrainingSample,
    grid: LambdaGrid,
    t: TargetFunctional,
    s: SimilarityMeasure,
    cfg: OptimizerConfig | None = None,
) -> LambdaPath:
    """One maximization per grid lambda of the plug-in empirical objective.

    A (t, s) pair that `plugin_route` accepts is solved by
    `lp.PluginProgram`, which ignores cfg.  Every other objective goes to
    `maximize`, with per-lambda seeds derived from (cfg.seed, lambda
    index); cfg None means `OptimizerConfig()`.  Either way the path is
    reproducible bit-for-bit and per-lambda runs are independent.
    """
    # Imported here, not at the top, so that `select` on a saved path
    # compiles neither the estimator nor the optimizer, and only the sweeps
    # that lp may solve compile it.
    from .estimation import fit_plugin
    from .optimizer import OptimizerConfig, derive_seed, maximize

    cfg = OptimizerConfig() if cfg is None else cfg
    kernel = fit_plugin(sample).kernel
    program = None
    if plugin_route(t, s):
        from . import lp

        program = lp.PluginProgram(kernel, sample.space, t, s)
    z_levels = sample.space.z_levels
    entries = []
    for idx, lam in enumerate(grid):
        if program is not None:
            result = program.maximize(lam)
        else:
            obj = _empirical_objective(kernel, lam, t, s)
            result = maximize(obj, sample.space, replace(cfg, seed=derive_seed(cfg.seed, 1, idx)))
        target, by_index = kernel.scores(result.rule.probs, t, s)
        unfairness = {z_levels[j]: u for j, u in by_index.items()}
        entries.append(
            PathEntry(
                rule=result.rule,
                obj_value=result.value,
                target_value=target,
                unfairness=unfairness,
                max_unfairness=max(unfairness.values()),
                evaluations=result.evaluations,
                converged=result.converged,
                gap=result.gap,
            )
        )
    return LambdaPath(grid=grid, entries=tuple(entries), n=sample.n)


def delta_n(path: LambdaPath, lam: float) -> float:
    """Target drop relative to the unpenalized policy; can be negative."""
    return path.entry(0.0).target_value - path.entry(lam).target_value


def budget_slack(n: int) -> float:
    """c_n = sqrt(log(n) / n) (natural log)."""
    return math.sqrt(math.log(n) / n)


def check_budget(beta, n: int | None = None) -> None:
    """Raise InvalidBudget unless beta is a finite positive real and, when the
    sample size n is given, n >= 2."""
    if not (isinstance(beta, (int, float)) and math.isfinite(beta) and beta > 0):
        raise InvalidBudget(f"beta must be a positive real, got {beta!r}")
    if n is not None and n < 2:
        raise InvalidBudget(f"budget selection needs n >= 2, got n = {n}")


def select_lambda_budget(path: LambdaPath, beta: float) -> BudgetSelection:
    """Largest grid lambda whose target drop stays within beta * (1 - c_n).

    Always well defined: the drop at lambda = 0 is exactly 0.  For c_n >= 1
    the threshold would be non-positive, so lambda = 0 is returned.
    """
    check_budget(beta, path.n)
    c_n = budget_slack(path.n)
    threshold = beta * (1.0 - c_n)
    deltas = {lam: delta_n(path, lam) for lam in path.grid}
    chosen = 0.0
    if c_n < 1.0:
        for lam in path.grid:
            if deltas[lam] <= threshold:
                chosen = lam
    return BudgetSelection(
        beta=float(beta), c_n=c_n, threshold=threshold, chosen_lambda=chosen, deltas=deltas
    )


def lip_m(values, lam: float) -> float:
    """Piecewise-linear interpolation of values sampled on {0, 1/m, ..., 1}."""
    values = np.asarray(values, dtype=float)
    m = values.size - 1
    if m < 1:
        raise ValueError("need at least two values")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam!r}")
    pos = lam * m
    i = min(int(math.floor(pos)), m - 1)
    if abs(lam - i / m) <= 1e-12:
        return float(values[i])
    if abs(lam - (i + 1) / m) <= 1e-12:
        return float(values[i + 1])
    return float(values[i] + (values[i + 1] - values[i]) * m * (lam - i / m))


def interpolate_value(path: LambdaPath, lam: float) -> float:
    """Value-function estimate at lam by LIP interpolation of the path's
    objective values; requires the uniform grid."""
    path.grid.uniform_m()
    return lip_m(path.obj_values, lam)


def interpolate_linear(xs, ys, x: float) -> float:
    """Generic piecewise-linear interpolation on an arbitrary increasing grid.

    Kept separate from interpolate_value: the uniform-grid guarantee does not
    attach here.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise ValueError("need matching xs/ys with at least two points")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("xs must be strictly increasing")
    if not xs[0] <= x <= xs[-1]:
        raise ValueError(f"x {x!r} outside [{xs[0]}, {xs[-1]}]")
    return float(np.interp(x, xs, ys))
