"""Preference-parameter sweeps, diagnostics and budget-based selection.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .estimation import TrainingSample
    from .functionals import SimilarityMeasure, TargetFunctional
    from .objective import AtomKernel, DecisionRule
    from .optimizer import OptimizerConfig


class LambdaNotOnGrid(ValueError):
    """Requested a path entry at a lambda that was never fitted."""


class InvalidBudget(ValueError):
    """Budget selection needs a positive real beta and a sample of n >= 2."""


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


@dataclass(frozen=True)
class PathEntry:
    """Fitted rule and diagnostics for one preference parameter.

    evaluations, converged and gap are the solver's `OptimResult` fields;
    they are None on an entry read back from sweep outputs, whose rule is
    its probability rows as rules.json holds them (lists of floats, checked
    and clamped into [0, 1]), not a DecisionRule.
    """

    rule: DecisionRule | list
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
    # Imported here, not at the top, so that `select` on a saved path loads
    # no numpy and compiles neither the estimator, the functionals, the
    # objective nor the optimizer, and only the sweeps that lp may solve
    # compile it.
    from .estimation import fit_plugin
    from .functionals import plugin_route
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
