"""Closed-form two-treatment, two-group example used as ground truth.

One covariate level, two treatments, two protected groups.  Outcomes follow
G(y) = sqrt(y) or H(y) = y^2 on [0, 1], crossed over treatment and group so
that the treatment that is better for the majority (group "0", mass p > 1/2)
is worse for the minority.  With the Gini-welfare target and the KS penalty,
everything is available in closed form: the penalized objective, the
phase-transition threshold c(p) where the argmax jumps from "always
treatment 2" to a 50:50 randomization, the argmax correspondence, and the
piecewise value function.  Samplers and a discretized conditional array make
the example usable end-to-end as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import StepCdf, SupportInterval
from .estimation import TrainingSample
from .objective import CondCdfArray, CovariateSpace

X_LEVEL = "0"
Z_MAJORITY = "0"
Z_MINORITY = "1"
MECHANISMS = ("A1", "A2")

# sup over (0,1) of y*(1 - y^3); scales the KS penalty p*|2*delta - 1|
PENALTY_SCALE = 3.0 / (4.0 * 2.0 ** (2.0 / 3.0))

CBRT2 = 2.0 ** (1.0 / 3.0)


def toy_space() -> CovariateSpace:
    return CovariateSpace((X_LEVEL,), (Z_MAJORITY, Z_MINORITY), 2)


def toy_support() -> SupportInterval:
    return SupportInterval(0.0, 1.0)


@dataclass(frozen=True)
class ToyParams:
    """Majority share p in (1/2, 1) and preference parameter lam in [0, 1]."""

    p: float
    lam: float

    def __post_init__(self):
        if not 0.5 < self.p < 1.0:
            raise ValueError(f"p must lie in (1/2, 1), got {self.p!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam!r}")


def toy_cdf_g(y: float) -> float:
    """G(y) = sqrt(y), clamped to [0, 1]."""
    return float(np.sqrt(np.clip(y, 0.0, 1.0)))


def toy_cdf_h(y: float) -> float:
    """H(y) = y^2, clamped to [0, 1]."""
    return float(np.clip(y, 0.0, 1.0) ** 2)


def toy_objective(delta: float, params: ToyParams) -> float:
    """Penalized objective at the rule (delta, 1 - delta), in closed form."""
    p, lam = params.p, params.lam
    gini = (
        50.0 * delta
        + 27.0 * delta**2 * (1.0 - 2.0 * p) ** 2
        - 2.0 * delta * p * (54.0 * p + 23.0)
        + p * (27.0 * p + 50.0)
        + 35.0
    ) / 420.0
    penalty = PENALTY_SCALE * p * abs(2.0 * delta - 1.0)
    return (1.0 - lam) * gini - lam * penalty


def toy_threshold(p: float) -> float:
    """c(p): the lambda at which the argmax jumps from {0} to {1/2}."""
    if not 0.5 < p < 1.0:
        raise ValueError(f"p must lie in (1/2, 1), got {p!r}")
    return 1.0 - 630.0 * CBRT2 * p / (2.0 * p * (54.0 * p + 315.0 * CBRT2 + 100.0) - 127.0)


def toy_argmax(params: ToyParams) -> tuple[float, ...]:
    """Argmax over delta of the toy objective: {0}, {0, 1/2}, or {1/2}.

    The two-point branch fires on exact float equality lam == c(p); an
    epsilon band would misreport the one-point sets next to the threshold.
    """
    c = toy_threshold(params.p)
    if params.lam < c:
        return (0.0,)
    if params.lam == c:
        return (0.0, 0.5)
    return (0.5,)


def toy_max_value(params: ToyParams) -> float:
    """max over delta of the toy objective; piecewise in lam, kinked at c(p)."""
    p, lam = params.p, params.lam
    if lam <= toy_threshold(p):
        return (
            p * (-5.0 * (20.0 + 63.0 * CBRT2) * lam - 54.0 * (lam - 1.0) * p + 100.0)
            - 70.0 * (lam - 1.0)
        ) / 840.0
    return (89.0 / 560.0) * (1.0 - lam)


def toy_sample(n: int, p: float, mechanism: str, seed) -> TrainingSample:
    """Draw n records: Z ~ Bernoulli(1 - p) on the minority, D per mechanism,
    outcomes by inverse transform (G draws are U^2, H draws are sqrt(U))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.5 < p < 1.0:
        raise ValueError(f"p must lie in (1/2, 1), got {p!r}")
    if mechanism not in MECHANISMS:
        raise ValueError(f"mechanism must be one of {MECHANISMS}, got {mechanism!r}")
    rng = np.random.default_rng(seed)
    minority = rng.random(n) >= p
    # treatment 1 with probability 0.75 in the minority under A1, in the majority under A2
    d = np.where(rng.random(n) < np.where(minority == (mechanism == "A1"), 0.75, 0.25), 1, 2)
    u = rng.random(n)
    # cells (d=1, majority) and (d=2, minority) follow G; the other two follow H
    follows_g = (d == 1) ^ minority
    y = np.where(follows_g, u**2, np.sqrt(u))
    return TrainingSample(
        toy_space(),
        toy_support(),
        y,
        np.zeros(n, dtype=np.intp),
        minority.astype(np.intp),
        d,
    )


def _discretize(cdf_fn, grid_points: int, support: SupportInterval) -> StepCdf:
    ts = np.linspace(0.0, 1.0, grid_points + 1)
    values = np.array([cdf_fn(t) for t in ts])
    return StepCdf(support, ts[1:], np.diff(values))


def toy_cond_array(p: float, grid_points: int) -> CondCdfArray:
    """The toy conditional structure with G and H discretized on a uniform grid.

    Atoms sit at k/grid_points with the CDF increment over each cell, so
    objectives evaluated on this array are grid-resolution approximations of
    the continuous example.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    if not 0.5 < p < 1.0:
        raise ValueError(f"p must lie in (1/2, 1), got {p!r}")
    support = toy_support()
    g = _discretize(toy_cdf_g, grid_points, support)
    h = _discretize(toy_cdf_h, grid_points, support)
    cdf = {
        (1, X_LEVEL, Z_MAJORITY): g,
        (2, X_LEVEL, Z_MINORITY): g,
        (2, X_LEVEL, Z_MAJORITY): h,
        (1, X_LEVEL, Z_MINORITY): h,
    }
    pxz = {(X_LEVEL, Z_MAJORITY): p, (X_LEVEL, Z_MINORITY): 1.0 - p}
    return CondCdfArray(toy_space(), cdf, pxz)

