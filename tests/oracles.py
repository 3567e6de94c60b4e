"""Reference routes the program is tested against, kept out of the package.

Every command evaluates the penalized objective on one atom table
(`fairpolicy.objective.AtomKernel`).  The routes here build the same
quantities the direct way, on StepCdfs: the empirical CDF of a sample
(`step_cdf_from_samples`), group and population CDFs as explicit mixtures
of cells (`implied_cdf_group`, `implied_cdf`), the projection of a monotone
step function onto the CDFs on [a, b] (`MonotoneStep`, `project_mab`),
which with the cell counts (`cell_counts`) and cell-frequency propensities
of `estimated_propensities` rebuilds the IPW group estimates, a target of a
StepCdf on its own atoms (`target_value`), KS distances over merged
breakpoints and left limits and the |target difference| (`similarity_value`
dispatches to them), half the mean absolute difference by prefix sums
(`mad_half`, the reference for the Gini-welfare identity) and by the O(n^2)
double sum, the closed-form group CDF of the toy example
(`toy_group_cdf_value`), the plug-in fit by one lexsort of (cell, outcome)
(`fit_plugin_lexsort`), and minorize-maximize without replay
(`mm_reference`).  The tests compare the program with them; no module under
`src/` imports this one.
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
)
from fairpolicy.estimation import TrainingSample
from fairpolicy.functionals import SimilarityMeasure, TargetFunctional
from fairpolicy.lp import GAP_TOL, MM_MAX_STEPS, MM_TOL, PluginProgram
from fairpolicy.objective import CondCdfArray, DecisionRule, _require_same_space
from fairpolicy.optimizer import CountingObjective, OptimResult
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


def step_cdf_from_samples(values, support: SupportInterval) -> StepCdf:
    """Empirical CDF: one atom per distinct value, mass = relative frequency."""
    upoints, counts = np.unique(np.asarray(values, dtype=float), return_counts=True)
    return StepCdf(support, upoints, counts / counts.sum())


def _require_same_support(f: StepCdf, g: StepCdf) -> None:
    if f.support != g.support:
        raise SupportMismatch(f"supports differ: {f.support} vs {g.support}")


def eval_left_many(f: StepCdf, ys) -> np.ndarray:
    """Left limits F(y-) at the given points."""
    ys = np.asarray(ys, dtype=float)
    idx = np.searchsorted(f.points, ys, side="left")
    cum0 = np.concatenate(([0.0], f.eval_many(f.points)))
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
    """S(F, G): the KS kinds from the two functions above, |T(F) - T(G)|
    from `target_value`."""
    if s.kind == "ks":
        return ks_distance(f, g)
    if s.kind == "one-sided-ks":
        return one_sided_ks(f, g)
    _require_same_support(f, g)
    return abs(target_value(s.inner, f) - target_value(s.inner, g))


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


def target_value(t: TargetFunctional, f: StepCdf) -> float:
    """T(F) by the grid form on F's own atoms."""
    return t.value_on_grid(f.points, f.eval_many(f.points))


def mad_half(f: StepCdf) -> float:
    """Half the mean absolute difference: 1/2 integral integral |x-y| dF dF."""
    # 1/2 sum_ij m_i m_j |x_i - x_j| via sorted prefix sums: points are sorted,
    # so the double sum collapses to sum_j m_j (x_j M_{<j} - S_{<j}).
    points, masses = f.points, f.masses
    m_below = np.cumsum(masses) - masses
    s_below = np.cumsum(masses * points) - masses * points
    return float(np.dot(masses, points * m_below - s_below))


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


def cell_counts(sample: TrainingSample) -> np.ndarray:
    """Counts per (treatment, x, z) cell, shape (K, |X|, |Z|)."""
    nx, nz = len(sample.space.x_levels), len(sample.space.z_levels)
    return np.bincount(sample.cell_index(), minlength=sample.space.k * nx * nz).reshape(
        sample.space.k, nx, nz)


def estimated_propensities(sample: TrainingSample) -> tuple[np.ndarray, np.ndarray]:
    """Cell-frequency propensity estimates and group frequencies.

    Returns (e_hat, pz_hat): e_hat[i-1, x, z] = |cell(i,x,z)| / |(x,z)| with
    zero where the (x, z) pair is unobserved, and pz_hat per group level.
    """
    counts = cell_counts(sample)
    pair = counts.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        e_hat = np.where(pair > 0, counts / np.maximum(pair, 1), 0.0)
    pz_hat = np.bincount(sample.zi, minlength=len(sample.space.z_levels)) / sample.n
    return e_hat, pz_hat


def fit_plugin_lexsort(sample: TrainingSample) -> CondCdfArray:
    """The plug-in fit with one lexsort by (cell, outcome): each run of equal
    outcomes in a cell is one atom, whose point is the run's first record, so
    a zero atom keeps the sign of its cell's first zero record in the sample."""
    counts = cell_counts(sample)
    records = counts.ravel()
    cell = sample.cell_index()
    order = np.lexsort((sample.ys, cell))
    cell, ys = cell[order], sample.ys[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], (cell[1:] != cell[:-1]) | (ys[1:] != ys[:-1]))))
    cell = cell[starts]
    empty = records == 0
    offsets = np.zeros(records.size + 1, dtype=np.intp)
    np.cumsum(np.bincount(cell, minlength=records.size) + empty, out=offsets[1:])
    at = np.arange(starts.size) + (np.cumsum(empty) - empty)[cell]
    points = np.full(offsets[-1], sample.support.b)
    points[at] = ys[starts]
    masses = np.ones(offsets[-1])
    masses[at] = np.diff(starts, append=ys.size) / records[cell]
    bounds = offsets.tolist()
    totals = [masses[lo:hi].sum() for lo, hi in zip(bounds, bounds[1:])]
    masses /= np.repeat(totals, np.diff(offsets))
    return CondCdfArray.from_columns(sample.space, sample.support, points, masses, offsets,
                                     counts.sum(axis=0) / sample.n, records)


def toy_group_cdf_value(delta: float, z, c: float) -> float:
    """Analytic group CDF at c: delta*G + (1-delta)*H for the majority and the
    mirror image for the minority."""
    g, h = toy_cdf_g(c), toy_cdf_h(c)
    if z == Z_MAJORITY:
        return delta * g + (1.0 - delta) * h
    if z == Z_MINORITY:
        return delta * h + (1.0 - delta) * g
    raise ValueError(f"unknown group {z!r}")


# ---------------------------------------------------------------------------
# minorize-maximize


def mm_reference(program: PluginProgram, lam: float) -> tuple[OptimResult, int]:
    """`program.maximize(lam)` without replay, and its number of solves.

    Every step solves from scratch, and every tangent and row search calls
    the kernel itself; evaluations charges one kernel call per objective
    value, per relaxation with lam > 0 and per Gini-welfare tangent.
    """
    kernel, space = program.kernel, program.space
    linear = program.mean is not None

    def tangent(probs):
        if linear:
            return program.mean
        pop = kernel.pz @ kernel.group_cdfs(probs.ravel())
        tail = np.zeros(kernel.grid.size)
        tail[:-1] = np.cumsum(((1.0 - pop[:-1]) * kernel.steps)[::-1])[::-1]
        return program.slot_sum(-kernel.pz[kernel.z] * kernel.mass * tail[kernel.g])

    def solve(cost, rows, seen):
        calls = 0
        while True:
            probs, t_value, bound = program._solve_relaxation(cost, lam, rows)
            if lam == 0.0:
                return probs, bound, calls
            calls += 1
            added = program.cuts(kernel.group_cdfs(probs.ravel()), t_value, seen)
            if not added:
                return probs, bound, calls
            rows += added

    objective = CountingObjective(lambda probs: kernel.value(probs, lam, program.t, program.s))
    starts = [DecisionRule.uniform(space)]
    if not linear:
        starts += [DecisionRule.singleton(space, i) for i in space.treatments]
    rows, seen = [], set()
    calls, solves, converged = 0, 0, True
    best, best_value = None, -np.inf
    for rule in starts:
        value = -np.inf if linear else objective(rule.probs)
        for _ in range(1 if linear else MM_MAX_STEPS):
            cost = (1.0 - lam) * tangent(rule.probs)
            probs, bound, used = solve(cost, rows, seen)
            calls += used + (not linear)
            solves += 1
            step = DecisionRule(space, probs)
            step_value = objective(step.probs)
            gain = step_value - value
            if gain > 0.0:
                rule, value = step, step_value
            if gain <= MM_TOL:
                break
        else:
            converged = False
        if value > best_value:
            best, best_value = rule, value
    gap = None
    if linear:
        gap = bound - best_value
        converged = gap <= GAP_TOL
    result = OptimResult(rule=best, value=best_value, evaluations=objective.evaluations + calls,
                         converged=converged, gap=gap)
    return result, solves
