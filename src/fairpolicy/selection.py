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
(`optimizer.maximize`).
Per-lambda diagnostics (target value, per-group unfairness) are the same
kernel's two objective terms at the fitted rule, matching how the empirical
illustrations report estimated quantities.

Budget selection spends at most beta of the target functional on fairness:
it picks the largest lambda whose target drop relative to lambda = 0 stays
within beta * (1 - c_n), with slack c_n = sqrt(log(n) / n).  The drop is used
raw; it can be negative and is not clamped.

Both solvers' settings, result, evaluation counter and RNG streams live
here, in the module every solver user loads; the streams import numpy when
called, so that `select` on a saved path loads none.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .estimation import TrainingSample
    from .functionals import SimilarityMeasure, TargetFunctional
    from .objective import AtomKernel, DecisionRule


def seed_sequence(seed: int, *key: int):
    """The numpy SeedSequence of stream `key` under `seed` (taken modulo 2**64)."""
    import numpy as np

    return np.random.SeedSequence(entropy=seed % 2**64, spawn_key=key)


def derive_seed(seed: int, *key: int) -> int:
    """A 64-bit seed for stream `key` under `seed`."""
    return int(seed_sequence(seed, *key).generate_state(1, dtype="uint64")[0])


class NonFiniteObjective(ValueError):
    """The objective returned NaN or infinity at a feasible rule."""


class OptimizerConfig:
    """Nelder-Mead's settings; the plug-in program takes none of them."""

    def __init__(self, restarts: int = 1, candidate_starts: int = 50, max_iters: int = 500,
                 ftol: float = 1e-8, seed: int = 0):
        if restarts < 1 or candidate_starts < 1 or max_iters < 1:
            raise ValueError("restarts, candidate_starts, and max_iters must be >= 1")
        if not ftol > 0:
            raise ValueError("ftol must be positive")
        self.restarts, self.candidate_starts, self.max_iters = restarts, candidate_starts, max_iters
        self.ftol, self.seed = ftol, seed


class OptimResult:
    """A maximizer's rule, the objective at it, and how far to trust it.

    evaluations counts objective calls (from `lp.PluginProgram.maximize`,
    the group CDFs its kernel computed).  From Nelder-Mead, converged only
    says that no budget stopped the final Nelder-Mead run (it can hold well
    short of the maximum), and gap is None.  From the plug-in program, for
    the mean target gap is the certified distance from value up to an upper
    bound on the maximum, and converged means gap <= 1e-9; for Gini-welfare,
    converged means that no start hit the step cap, and gap is None.
    """

    def __init__(self, rule: DecisionRule, value: float, evaluations: int, converged: bool,
                 gap: float | None = None):
        self.rule, self.value, self.evaluations = rule, value, evaluations
        self.converged, self.gap = converged, gap


class CountingObjective:
    """obj with its calls counted; a NaN or infinite value raises
    NonFiniteObjective."""

    def __init__(self, obj):
        self.obj = obj
        self.evaluations = 0

    def __call__(self, probs) -> float:
        self.evaluations += 1
        value = float(self.obj(probs))
        if not math.isfinite(value):
            raise NonFiniteObjective(f"objective returned {value!r}")
        return value


class LambdaNotOnGrid(ValueError):
    """Requested a path entry at a lambda that was never fitted."""


class InvalidBudget(ValueError):
    """Budget selection needs a positive real beta and a sample of n >= 2."""


class LambdaGrid:
    """Strictly increasing preference parameters in [0, 1], starting at 0."""

    def __init__(self, values):
        values = tuple(float(v) for v in values)
        if not values:
            raise ValueError("grid must be nonempty")
        if values[0] != 0.0:
            raise ValueError("grid must contain 0 as its first element")
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise ValueError("grid values must lie in [0, 1]")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("grid values must be strictly increasing")
        self.values = values

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


class PathEntry:
    """Fitted rule and diagnostics for one preference parameter.

    evaluations, converged and gap are the solver's `OptimResult` fields;
    they are None on an entry read back from sweep outputs, whose rule is
    its probability rows as rules.json holds them (lists of floats, checked
    and clamped into [0, 1]), not a DecisionRule.
    """

    def __init__(self, rule: DecisionRule | list, obj_value: float, target_value: float,
                 unfairness: dict, max_unfairness: float, evaluations: int | None = None,
                 converged: bool | None = None, gap: float | None = None):
        self.rule, self.obj_value, self.target_value = rule, obj_value, target_value
        self.unfairness, self.max_unfairness = unfairness, max_unfairness
        self.evaluations, self.converged, self.gap = evaluations, converged, gap


class LambdaPath:
    """Per-lambda results of a sweep, aligned with the grid."""

    def __init__(self, grid: LambdaGrid, entries, n: int):
        if len(entries) != len(grid):
            raise ValueError("one entry per grid value required")
        self.grid, self.entries, self.n = grid, tuple(entries), n

    def entry(self, lam: float) -> PathEntry:
        return self.entries[self.grid.index_of(lam)]


class BudgetSelection:
    """Outcome of budget-based preference-parameter selection."""

    def __init__(self, beta: float, c_n: float, threshold: float, chosen_lambda: float,
                 deltas: dict):
        self.beta, self.c_n, self.threshold = beta, c_n, threshold
        self.chosen_lambda, self.deltas = chosen_lambda, deltas


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
    `optimizer.maximize`, with per-lambda seeds derived from (cfg.seed, lambda
    index); cfg None means `OptimizerConfig()`.  Either way the path is
    reproducible bit-for-bit and per-lambda runs are independent.
    """
    # Imported here, not at the top, so that `select` on a saved path loads
    # no numpy and compiles neither the estimator, the functionals nor the
    # objective, and each sweep compiles only the solver it runs.
    from .estimation import fit_plugin
    from .functionals import plugin_route

    cfg = OptimizerConfig() if cfg is None else cfg
    kernel = fit_plugin(sample).kernel
    program = None
    if plugin_route(t, s):
        from . import lp

        program = lp.PluginProgram(kernel, sample.space, t, s)
    else:
        from .optimizer import maximize
    z_levels = sample.space.z_levels
    entries = []
    for idx, lam in enumerate(grid):
        if program is not None:
            result = program.maximize(lam)
        else:
            obj = _empirical_objective(kernel, lam, t, s)
            seeded = OptimizerConfig(cfg.restarts, cfg.candidate_starts, cfg.max_iters, cfg.ftol,
                                     derive_seed(cfg.seed, 1, idx))
            result = maximize(obj, sample.space, seeded)
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
