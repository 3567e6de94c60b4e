"""Reference routes the program is tested against, kept out of the package.

Every command evaluates the penalized objective on one atom table
(`fairpolicy.objective.AtomKernel`).  The routes here build the same
quantities the direct way, on StepCdfs: group and population CDFs as
explicit mixtures of cells (`implied_cdf_group`, `implied_cdf`), IPW group
estimates as monotone step functions projected onto the CDFs on [a, b]
(`ipw_group_raw`, `project_mab`, `ipw_group_cdf`), KS distances over merged
breakpoints and left limits (`similarity_value` dispatches to them), the
O(n^2) mean absolute difference, and the closed-form group CDF of the toy
example.  The tests compare the program with them; no module under `src/`
imports this one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fairpolicy.distributions import (
    MASS_TOL,
    DistributionError,
    StepCdf,
    SupportInterval,
    SupportMismatch,
    WeightMismatch,
    _require_same_support,
)
from fairpolicy.estimation import PropensityModel, TrainingSample, ZeroPropensity
from fairpolicy.functionals import SimilarityMeasure
from fairpolicy.objective import CondCdfArray, DecisionRule, SpaceMismatch, _require_same_space
from fairpolicy.toy import Z_MAJORITY, Z_MINORITY, toy_cdf_g, toy_cdf_h


# ---------------------------------------------------------------------------
# distributions


@dataclass(frozen=True, eq=False)
class MonotoneStep:
    """Nonnegative, nondecreasing, cadlag step function; not necessarily a CDF.

    This is the shape of pre-projection IPW estimates: jumps of arbitrary
    nonnegative size whose total may differ from one.
    """

    support: SupportInterval
    points: np.ndarray
    increments: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float).ravel()
        increments = np.asarray(self.increments, dtype=float).ravel()
        if points.size != increments.size:
            raise DistributionError("points and increments must have equal length")
        if points.size and not np.all(np.isfinite(points)):
            raise DistributionError("points must be finite")
        if np.any(increments < 0.0):
            raise DistributionError("increments must be nonnegative")
        if points.size:
            upoints, inverse = np.unique(points, return_inverse=True)
            agg = np.bincount(inverse, weights=increments, minlength=upoints.size)
        else:
            upoints = points
            agg = increments
        upoints.flags.writeable = False
        agg.flags.writeable = False
        object.__setattr__(self, "points", upoints)
        object.__setattr__(self, "increments", agg)

    @property
    def total(self) -> float:
        return float(self.increments.sum())

    def eval(self, y: float) -> float:
        """G(y): sum of increments at points <= y."""
        idx = np.searchsorted(self.points, y, side="right")
        if idx == 0:
            return 0.0
        return float(np.cumsum(self.increments)[idx - 1])

    __call__ = eval


def eval_left_many(f: StepCdf, ys) -> np.ndarray:
    """Left limits F(y-) at the given points."""
    ys = np.asarray(ys, dtype=float)
    idx = np.searchsorted(f.points, ys, side="left")
    cum0 = np.concatenate(([0.0], f.cum))
    return cum0[idx]


def mixture(components) -> StepCdf:
    """Convex combination of StepCdfs sharing one support.

    Atoms at identical points are coalesced; weights must be nonnegative and
    sum to one within MASS_TOL.  Zero-weight components are ignored (but still
    support-checked).
    """
    components = list(components)
    if not components:
        raise WeightMismatch("mixture needs at least one component")
    base = components[0][0].support
    weights = np.array([w for _, w in components], dtype=float)
    if np.any(weights < -MASS_TOL):
        raise WeightMismatch("mixture weights must be nonnegative")
    total = float(weights.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise WeightMismatch(f"mixture weights must sum to 1 within {MASS_TOL}, got {total!r}")
    pts = []
    ms = []
    for (cdf, w) in components:
        if cdf.support != base:
            raise SupportMismatch(f"supports differ: {base} vs {cdf.support}")
        if w <= 0.0:
            continue
        pts.append(cdf.points)
        ms.append(cdf.masses * w)
    return StepCdf(base, np.concatenate(pts), np.concatenate(ms))


def ks_distance(f: StepCdf, g: StepCdf) -> float:
    """sup_y |F(y) - G(y)|, exact over merged breakpoints and left limits."""
    _require_same_support(f, g)
    pts = np.union1d(f.points, g.points)
    d_right = np.abs(f.eval_many(pts) - g.eval_many(pts)).max()
    d_left = np.abs(eval_left_many(f, pts) - eval_left_many(g, pts)).max()
    return float(max(d_right, d_left))


def one_sided_ks(f: StepCdf, g: StepCdf) -> float:
    """sup_y max(F(y) - G(y), 0), exact over merged breakpoints."""
    _require_same_support(f, g)
    pts = np.union1d(f.points, g.points)
    d_right = (f.eval_many(pts) - g.eval_many(pts)).max()
    d_left = (eval_left_many(f, pts) - eval_left_many(g, pts)).max()
    return float(max(d_right, d_left, 0.0))


def similarity_value(s: SimilarityMeasure, f: StepCdf, g: StepCdf) -> float:
    """S(F, G) with the KS kinds taken from the two functions above."""
    if s.kind == "ks":
        return ks_distance(f, g)
    if s.kind == "one-sided-ks":
        return one_sided_ks(f, g)
    return s.value(f, g)


def project_mab(g: MonotoneStep) -> StepCdf:
    """Project a monotone step function onto the CDFs on [a, b].

    The projected function is 0 below a, min(G(.), 1) on [a, b], and 1 at b.
    Mass at points below a is folded into an atom at a; mass beyond the point
    where G reaches 1 is truncated; any missing mass becomes an atom at b.
    """
    support = g.support
    points = np.clip(g.points, support.a, support.b)
    inside = g.points <= support.b
    points = points[inside]
    increments = g.increments[inside]
    if points.size:
        cum = np.minimum(np.cumsum(increments), 1.0)
        masses = np.diff(cum, prepend=0.0)
        reached = float(cum[-1]) if cum.size else 0.0
    else:
        masses = increments
        reached = 0.0
    residual = 1.0 - reached
    if residual > MASS_TOL:
        points = np.concatenate([points, [support.b]])
        masses = np.concatenate([masses, [residual]])
    return StepCdf(support, points, masses)


# ---------------------------------------------------------------------------
# functionals


def mad_half_naive(f: StepCdf) -> float:
    """O(n^2) double sum; reference oracle for mad_half."""
    diff = np.abs(f.points[:, None] - f.points[None, :])
    return 0.5 * float(f.masses @ diff @ f.masses)


# ---------------------------------------------------------------------------
# objective


class UnknownGroup(ValueError):
    """Protected-group label not present in the covariate space."""


class ZeroGroupMass(ValueError):
    """Requested a group CDF for a group with zero probability mass."""


def implied_cdf(rule: DecisionRule, arr: CondCdfArray) -> StepCdf:
    """Population outcome CDF of rolling out the rule: mixture with weights
    delta_i(x) * p(x, z) over all treatment cells."""
    _require_same_space(rule, arr)
    comps = []
    for i in arr.space.treatments:
        for x in arr.space.x_levels:
            for z in arr.space.z_levels:
                w = rule.probs[arr.space.x_index[x], i - 1] * arr.pxz[(x, z)]
                comps.append((arr.cdf[(i, x, z)], w))
    return mixture(comps)


def implied_cdf_group(rule: DecisionRule, arr: CondCdfArray, z) -> StepCdf:
    """Outcome CDF within protected group z: weights delta_i(x) * p(x | z)."""
    _require_same_space(rule, arr)
    if z not in arr.space.z_index:
        raise UnknownGroup(f"unknown group {z!r}")
    pz = arr.p_z(z)
    if pz <= 0.0:
        raise ZeroGroupMass(f"group {z!r} has zero mass")
    comps = []
    for i in arr.space.treatments:
        for x in arr.space.x_levels:
            w = rule.probs[arr.space.x_index[x], i - 1] * arr.pxz[(x, z)] / pz
            comps.append((arr.cdf[(i, x, z)], w))
    return mixture(comps)


# ---------------------------------------------------------------------------
# estimation


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
    if rule.space != sample.space:
        raise SpaceMismatch("rule and sample live on different covariate spaces")
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


# ---------------------------------------------------------------------------
# toy


def toy_group_cdf_value(delta: float, z, c: float) -> float:
    """Analytic group CDF at c: delta*G + (1-delta)*H for the majority and the
    mirror image for the minority."""
    g, h = toy_cdf_g(c), toy_cdf_h(c)
    if z == Z_MAJORITY:
        return delta * g + (1.0 - delta) * h
    if z == Z_MINORITY:
        return delta * h + (1.0 - delta) * g
    raise ValueError(f"unknown group {z!r}")
