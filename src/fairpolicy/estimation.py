"""Fitting conditional-CDF arrays from training data, and IPW estimators.

The plug-in fit groups observations into treatment cells (d, x, z), takes the
empirical CDF in each cell (point mass at the upper support endpoint b when a
cell is empty), and records cell frequencies.  It does so in one pass: the
records are sorted by (cell, outcome) and each run of equal outcomes becomes
one atom of the array's columns (`CondCdfArray.from_columns`), with no
per-cell objects.

The IPW route instead weights each observation by
1 / (n * e_d(x, z) * p_Z(z)) with e the treatment propensities, accumulates
a monotone step function per protected group, and projects it onto the CDFs
on [a, b].  The known-propensity IPW objective evaluates those records as
the atoms of one `AtomKernel` (`ipw_kernel`).

With cell-frequency propensities a record's IPW mass is
n_xz / (n_ixz * n_z), which is exactly its plug-in atom mass, so the
estimated IPW objective is the plug-in objective of the sample's fitted
array.  `ipw_objective` and `ipw_objective_estimated` build a kernel per
call; `selection.sweep` builds it once per run.

Propensities are never clipped or trimmed: a zero propensity on a used cell
raises, because silently clamping would mask violated overlap.

Everything here is a deterministic function of the sample; no hidden RNG.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (
    MonotoneStep,
    OutOfSupport,
    StepCdf,
    SupportInterval,
    project_mab,
)
from .functionals import SimilarityMeasure, TargetFunctional
from .objective import (
    AtomKernel,
    CondCdfArray,
    CovariateSpace,
    DecisionRule,
    InvalidLambda,
    SIMPLEX_TOL,
    SpaceMismatch,
    omega,
)


class ZeroPropensity(ValueError):
    """A known propensity or group probability used by an estimator is not positive."""


@dataclass(frozen=True)
class TrainingRecord:
    """One observation: outcome, covariate level, protected group, treatment (1-based)."""

    y: float
    x: object
    z: object
    d: int


@dataclass(frozen=True, eq=False)
class TrainingSample:
    """A nonempty sample of training records over one covariate space and support.

    Internally stored as columns (outcomes plus integer-coded levels) so that
    fitting and reweighting are vectorized; `records` materializes the
    record view.
    """

    space: CovariateSpace
    support: SupportInterval
    ys: np.ndarray
    xi: np.ndarray
    zi: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        ys = np.asarray(self.ys, dtype=float).ravel()
        xi = np.asarray(self.xi, dtype=np.intp).ravel()
        zi = np.asarray(self.zi, dtype=np.intp).ravel()
        d = np.asarray(self.d, dtype=np.intp).ravel()
        if ys.size == 0:
            raise ValueError("training sample must be nonempty")
        if not (ys.size == xi.size == zi.size == d.size):
            raise ValueError("sample columns must have equal length")
        bad = np.flatnonzero((ys < self.support.a) | (ys > self.support.b) | ~np.isfinite(ys))
        if bad.size:
            raise OutOfSupport(
                f"outcome {float(ys[bad[0]])!r} at row {int(bad[0])} outside "
                f"[{self.support.a}, {self.support.b}]"
            )
        if np.any(xi < 0) or np.any(xi >= len(self.space.x_levels)):
            raise ValueError("x index out of range")
        if np.any(zi < 0) or np.any(zi >= len(self.space.z_levels)):
            raise ValueError("z index out of range")
        bad = np.flatnonzero((d < 1) | (d > self.space.k))
        if bad.size:
            raise ValueError(f"treatment {d[bad[0]]} at row {bad[0]} outside 1..{self.space.k}")
        for name, arr in (("ys", ys), ("xi", xi), ("zi", zi), ("d", d)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.ys.size

    @property
    def records(self) -> tuple[TrainingRecord, ...]:
        xl, zl = self.space.x_levels, self.space.z_levels
        return tuple(
            TrainingRecord(float(y), xl[i], zl[j], int(t))
            for y, i, j, t in zip(self.ys, self.xi, self.zi, self.d)
        )

    @classmethod
    def from_columns(cls, y, x, z, d, support: SupportInterval,
                     space: CovariateSpace | None = None, k: int | None = None) -> "TrainingSample":
        """Build a sample from parallel columns.

        Without an explicit space, x and z levels are ordered by first
        appearance and K defaults to the largest observed treatment index
        (at least 2).
        """
        x = list(x)
        z = list(z)
        d = np.asarray(d, dtype=np.intp)
        if space is None:
            x_levels = tuple(dict.fromkeys(x))
            z_levels = tuple(dict.fromkeys(z))
            if d.size == 0:
                raise ValueError("training sample must be nonempty")
            if np.any(d < 1):
                raise ValueError(f"treatment indices are 1-based, got {d.min()}")
            k_eff = int(k) if k is not None else max(2, int(d.max()))
            space = CovariateSpace(x_levels, z_levels, k_eff)
        elif k is not None and k != space.k:
            raise ValueError("k conflicts with the explicit space")
        try:
            xi = np.array([space.x_index[v] for v in x], dtype=np.intp)
        except KeyError as exc:
            raise ValueError(f"unknown x level {exc.args[0]!r}") from None
        try:
            zi = np.array([space.z_index[v] for v in z], dtype=np.intp)
        except KeyError as exc:
            raise ValueError(f"unknown z level {exc.args[0]!r}") from None
        return cls(space, support, np.asarray(y, dtype=float), xi, zi, d)

    @classmethod
    def from_records(cls, records, support: SupportInterval,
                     space: CovariateSpace | None = None, k: int | None = None) -> "TrainingSample":
        records = list(records)
        return cls.from_columns(
            [r.y for r in records], [r.x for r in records],
            [r.z for r in records], [r.d for r in records],
            support, space=space, k=k,
        )

    def cell_index(self) -> np.ndarray:
        """Flat cell (d-1)*|X|*|Z| + x*|Z| + z of each record."""
        nx, nz = len(self.space.x_levels), len(self.space.z_levels)
        return (self.d - 1) * (nx * nz) + self.xi * nz + self.zi

    def cell_counts(self) -> np.ndarray:
        """Counts per (treatment, x, z) cell, shape (K, |X|, |Z|)."""
        nx, nz = len(self.space.x_levels), len(self.space.z_levels)
        return np.bincount(self.cell_index(), minlength=self.space.k * nx * nz).reshape(
            self.space.k, nx, nz
        )


def fit_plugin(sample: TrainingSample) -> CondCdfArray:
    """Plug-in array: per-cell empirical CDFs and cell frequencies.

    Empty cells get a point mass at the upper support endpoint b.  Records
    with equal outcomes in a cell share one atom; when they mix 0.0 and
    -0.0, the atom keeps the sign of the first such record in the sample.
    """
    counts = sample.cell_counts()
    records = counts.ravel()
    cell = sample.cell_index()
    order = np.lexsort((sample.ys, cell))
    cell, ys = cell[order], sample.ys[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], (cell[1:] != cell[:-1]) | (ys[1:] != ys[:-1]))))
    cell = cell[starts]
    # one atom per (cell, distinct outcome); an empty cell gets one atom at b,
    # so each atom moves up by the number of empty cells before its own
    empty = records == 0
    offsets = np.zeros(records.size + 1, dtype=np.intp)
    np.cumsum(np.bincount(cell, minlength=records.size) + empty, out=offsets[1:])
    at = np.arange(starts.size) + (np.cumsum(empty) - empty)[cell]
    points = np.full(offsets[-1], sample.support.b)
    points[at] = ys[starts]
    masses = np.ones(offsets[-1])
    masses[at] = np.diff(starts, append=ys.size) / records[cell]
    # as StepCdf does, divide each cell's masses by their own sum
    bounds = offsets.tolist()
    totals = [masses[lo:hi].sum() for lo, hi in zip(bounds, bounds[1:])]
    masses /= np.repeat(totals, np.diff(offsets))
    return CondCdfArray.from_columns(sample.space, sample.support, points, masses, offsets,
                                     counts.sum(axis=0) / sample.n, records)


def empirical_pz(sample: TrainingSample) -> dict:
    """Relative frequency of each protected-group level."""
    counts = np.bincount(sample.zi, minlength=len(sample.space.z_levels))
    return {z: counts[j] / sample.n for j, z in enumerate(sample.space.z_levels)}


@dataclass(frozen=True, eq=False)
class PropensityModel:
    """Known assignment propensities e(i, x, z) and group probabilities p_Z.

    e maps every (treatment, x, z) cell to a probability in (0, 1], summing to
    one over treatments within each (x, z); pz maps every group to (0, 1] and
    sums to one.
    """

    e: dict
    pz: dict

    def __post_init__(self):
        e = {k: float(v) for k, v in self.e.items()}
        pz = {k: float(v) for k, v in self.pz.items()}
        if any(v <= 0.0 or v > 1.0 for v in e.values()):
            raise ZeroPropensity("propensities must lie in (0, 1]")
        sums = {}
        for (i, x, z), v in e.items():
            sums[(x, z)] = sums.get((x, z), 0.0) + v
        bad = {k: v for k, v in sums.items() if abs(v - 1.0) > SIMPLEX_TOL}
        if bad:
            k, v = next(iter(bad.items()))
            raise ValueError(f"propensities at {k} sum to {v!r}, expected 1")
        if any(v <= 0.0 or v > 1.0 for v in pz.values()):
            raise ZeroPropensity("group probabilities must lie in (0, 1]")
        total = sum(pz.values())
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"group probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "pz", pz)


def _require_rule_space(sample: TrainingSample, rule: DecisionRule) -> None:
    if rule.space != sample.space:
        raise SpaceMismatch("rule and sample live on different covariate spaces")


def _record_propensities(sample: TrainingSample, prop: PropensityModel, rows) -> np.ndarray:
    """Known propensity e_d(x, z) of each selected record; each must be positive."""
    space = sample.space
    d, xi, zi = sample.d[rows], sample.xi[rows], sample.zi[rows]
    table = np.array([
        [[prop.e.get((i, x, z), 0.0) for z in space.z_levels] for x in space.x_levels]
        for i in space.treatments
    ])
    e = table[d - 1, xi, zi]
    bad = np.flatnonzero(e <= 0.0)
    if bad.size:
        j = bad[0]
        key = (int(d[j]), space.x_levels[xi[j]], space.z_levels[zi[j]])
        raise ZeroPropensity(f"propensity e{key} must be positive")
    return e


def ipw_group_raw(sample: TrainingSample, rule: DecisionRule, z, prop: PropensityModel) -> MonotoneStep:
    """Pre-projection IPW estimate of the group-z outcome CDF.

    A jump delta_{d_j}(x_j) / (n * e_{d_j}(x_j, z) * p_Z(z)) at each outcome
    y_j of a group-z record; unbiased pointwise for the group CDF but not
    itself a CDF.
    """
    _require_rule_space(sample, rule)
    space = sample.space
    if z not in space.z_index:
        raise ValueError(f"unknown group {z!r}")
    pz = prop.pz.get(z)
    if pz is None or pz <= 0.0:
        raise ZeroPropensity(f"p_Z({z!r}) must be positive")
    mask = sample.zi == space.z_index[z]
    e = _record_propensities(sample, prop, mask)
    increments = rule.probs[sample.xi[mask], sample.d[mask] - 1] / (sample.n * e * pz)
    return MonotoneStep(sample.support, sample.ys[mask], increments)


def ipw_group_cdf(sample: TrainingSample, rule: DecisionRule, z, prop: PropensityModel) -> StepCdf:
    """IPW estimate of the group-z outcome CDF, projected onto the CDFs on [a, b]."""
    return project_mab(ipw_group_raw(sample, rule, z, prop))


def ipw_kernel(sample: TrainingSample, prop: PropensityModel) -> AtomKernel:
    """Kernel over the records: mass 1 / (n * e * p_Z) at each outcome."""
    zs = sample.space.z_levels
    missing = [z for z in zs if prop.pz.get(z, 0.0) <= 0.0]
    if missing:
        raise ZeroPropensity(f"p_Z({missing[0]!r}) must be positive")
    e_rec = _record_propensities(sample, prop, slice(None))
    pz = np.array([prop.pz[z] for z in zs])
    mass = 1.0 / (sample.n * e_rec * pz[sample.zi])
    return AtomKernel(sample.support, sample.ys, sample.zi,
                      sample.xi * sample.space.k + sample.d - 1, mass, pz / pz.sum())


def ipw_objective(
    sample: TrainingSample,
    rule: DecisionRule,
    lam: float,
    t: TargetFunctional,
    s: SimilarityMeasure,
    prop: PropensityModel,
) -> float:
    """Penalized objective with IPW group CDFs and known propensities.

    The population estimate is the p_Z-weighted mixture of the projected
    group estimates; it equals the route through `ipw_group_cdf` and
    `mixture`.
    """
    if not 0.0 <= lam <= 1.0:
        raise InvalidLambda(f"lambda must lie in [0, 1], got {lam!r}")
    _require_rule_space(sample, rule)
    return ipw_kernel(sample, prop).value(rule.probs, lam, t, s)


def estimated_propensities(sample: TrainingSample) -> tuple[np.ndarray, np.ndarray]:
    """Cell-frequency propensity estimates and group frequencies.

    Returns (e_hat, pz_hat): e_hat[i-1, x, z] = |cell(i,x,z)| / |(x,z)| with
    zero where the (x, z) pair is unobserved, and pz_hat per group level.
    """
    counts = sample.cell_counts()
    pair = counts.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        e_hat = np.where(pair > 0, counts / np.maximum(pair, 1), 0.0)
    pz_hat = np.bincount(sample.zi, minlength=len(sample.space.z_levels)) / sample.n
    return e_hat, pz_hat


def ipw_objective_estimated(
    sample: TrainingSample,
    rule: DecisionRule,
    lam: float,
    t: TargetFunctional,
    s: SimilarityMeasure,
) -> float:
    """Penalized objective with IPW group CDFs under cell-frequency propensities.

    Each record's IPW mass is its plug-in atom mass, so this is `omega` on
    the sample's fitted array.  Groups with zero observed frequency are
    skipped in the penalty max and carry zero weight in the population.
    """
    _require_rule_space(sample, rule)
    if not 0.0 <= lam <= 1.0:
        raise InvalidLambda(f"lambda must lie in [0, 1], got {lam!r}")
    return omega(rule, fit_plugin(sample), lam, t, s)
