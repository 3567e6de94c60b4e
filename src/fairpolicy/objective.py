"""Decision rules, implied outcome distributions, and the penalized objective.

A decision rule assigns each covariate value x a probability vector over the
K treatments.  Rolling a rule out against a conditional-CDF array produces a
population outcome CDF (a mixture over treatment cells) and one outcome CDF
per protected group z.  The objective trades the target functional of the
population CDF against the worst group-vs-population dissimilarity:

    (1 - lam) * T(population cdf) - lam * max_z S(group cdf_z, population cdf)

Groups with zero mass are skipped in the max (fitted arrays can have empty
groups at small n; the objective must still evaluate).  The penalty max is
unweighted across groups: weighting by group size would down-weigh small
marginalized groups.

The objective is evaluated thousands of times per optimizer run, so every
estimator evaluates it on one atom table (`AtomKernel`); a fitted array
keeps its plug-in kernel (`CondCdfArray.kernel`).  Each atom is an outcome
value y with its group z, its slot x*K + (i-1) in `probs.ravel()`, and a
mass; the union of atom values plus the support endpoint b is the grid, and
each atom stores its row-major position z*G + grid_idx in the |Z| x G table.
One evaluation scatters `probs_flat[slot] * mass` into the table with
`bincount` and takes a cumulative sum along each row: the group CDFs on the
grid, in O(atoms + |Z|*G) time and memory.  The population CDF is the
p_Z-weighted sum of the group rows.

Plug-in atoms are the cell atoms with mass (cell mass) * p(x | z), so every
group row ends at 1.  IPW atoms are the records, with mass 1 / (n e p_Z);
their rows can overshoot or fall short of 1, so each row is projected onto
the CDFs on [a, b] exactly as `project_mab` does: capped at 1, any residual
above MASS_TOL put at b, and renormalized.  The projection is a no-op up to
rounding on plug-in rows.  The mixture construction is kept as
`implied_cdf`/`implied_cdf_group` and serves as the reference the kernel is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .distributions import MASS_TOL, StepCdf, SupportInterval, SupportMismatch, mixture
from .functionals import SimilarityMeasure, TargetFunctional

SIMPLEX_TOL = 1e-9


class SpaceMismatch(ValueError):
    """Rule and array (or two rules) are indexed by different covariate spaces."""


class InvalidLambda(ValueError):
    """Preference parameter outside [0, 1]."""


class UnknownGroup(ValueError):
    """Protected-group label not present in the covariate space."""


class ZeroGroupMass(ValueError):
    """Requested a group CDF for a group with zero probability mass."""


class EmptySet(ValueError):
    """Distance to an empty set of rules."""


@dataclass(frozen=True)
class CovariateSpace:
    """Ordered covariate levels (x), protected-group levels (z), and K >= 2 treatments."""

    x_levels: tuple
    z_levels: tuple
    k: int

    def __post_init__(self):
        object.__setattr__(self, "x_levels", tuple(self.x_levels))
        object.__setattr__(self, "z_levels", tuple(self.z_levels))
        if not self.x_levels or not self.z_levels:
            raise ValueError("x_levels and z_levels must be nonempty")
        if len(set(self.x_levels)) != len(self.x_levels):
            raise ValueError("duplicate x levels")
        if len(set(self.z_levels)) != len(self.z_levels):
            raise ValueError("duplicate z levels")
        if self.k < 2:
            raise ValueError(f"need at least 2 treatments, got {self.k}")

    @cached_property
    def x_index(self) -> dict:
        return {x: i for i, x in enumerate(self.x_levels)}

    @cached_property
    def z_index(self) -> dict:
        return {z: i for i, z in enumerate(self.z_levels)}

    @property
    def treatments(self) -> range:
        """Treatment indices, 1-based as in the training data."""
        return range(1, self.k + 1)


@dataclass(frozen=True, eq=False)
class DecisionRule:
    """One probability vector over treatments per covariate level.

    probs has shape (|x_levels|, k); every row lies in the simplex (checked to
    SIMPLEX_TOL and renormalized exactly).
    """

    space: CovariateSpace
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        expected = (len(self.space.x_levels), self.space.k)
        if probs.shape != expected:
            raise ValueError(f"probs must have shape {expected}, got {probs.shape}")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probs must be finite")
        if np.any(probs < -SIMPLEX_TOL):
            raise ValueError("probs must be nonnegative")
        probs = np.maximum(probs, 0.0)
        sums = probs.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > SIMPLEX_TOL)
        if bad.size:
            raise ValueError(
                f"rows must sum to 1 within {SIMPLEX_TOL}, row {bad[0]} sums to {sums[bad[0]]!r}"
            )
        probs = probs / sums[:, None]
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    def row(self, x) -> np.ndarray:
        return self.probs[self.space.x_index[x]]

    @classmethod
    def uniform(cls, space: CovariateSpace) -> "DecisionRule":
        return cls(space, np.full((len(space.x_levels), space.k), 1.0 / space.k))

    @classmethod
    def singleton(cls, space: CovariateSpace, treatment: int) -> "DecisionRule":
        """Deterministic rule assigning one treatment (1-based) everywhere."""
        probs = np.zeros((len(space.x_levels), space.k))
        probs[:, treatment - 1] = 1.0
        return cls(space, probs)


def d1(rule1: DecisionRule, rule2: DecisionRule) -> float:
    """sum_x ||rule1(x) - rule2(x)||_1 on a shared space."""
    if rule1.space != rule2.space:
        raise SpaceMismatch("rules live on different covariate spaces")
    return float(np.abs(rule1.probs - rule2.probs).sum())


def d1_to_set(rule: DecisionRule, rules) -> float:
    """min over the set of d1 distances; the set must be nonempty."""
    rules = list(rules)
    if not rules:
        raise EmptySet("distance to an empty set of rules")
    return min(d1(rule, other) for other in rules)


@dataclass(frozen=True, eq=False)
class CondCdfArray:
    """The fitted or ground-truth array [(F^i(.|x,z), p(x,z))].

    cdf maps (i, x, z) -> StepCdf for every treatment i = 1..K and every
    (x, z) pair; pxz maps (x, z) -> mass, summing to one.  All cell CDFs
    share one support.  Immutable after construction.
    """

    space: CovariateSpace
    cdf: dict
    pxz: dict
    support: object = field(init=False, default=None)

    def __post_init__(self):
        space = self.space
        cdf = dict(self.cdf)
        pxz = {k: float(v) for k, v in self.pxz.items()}
        cells = [(i, x, z) for i in space.treatments for x in space.x_levels for z in space.z_levels]
        missing = [c for c in cells if c not in cdf]
        if missing:
            raise ValueError(f"missing cdf cells, e.g. {missing[0]}")
        pairs = [(x, z) for x in space.x_levels for z in space.z_levels]
        missing_p = [p for p in pairs if p not in pxz]
        if missing_p:
            raise ValueError(f"missing pxz entries, e.g. {missing_p[0]}")
        if any(v < 0 for v in pxz.values()):
            raise ValueError("pxz masses must be nonnegative")
        total = sum(pxz.values())
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"pxz must sum to 1 within {SIMPLEX_TOL}, got {total!r}")
        pxz = {k: v / total for k, v in pxz.items()}
        support = cdf[cells[0]].support
        for c in cells:
            if cdf[c].support != support:
                raise SupportMismatch(f"cell {c} has support {cdf[c].support}, expected {support}")
        object.__setattr__(self, "cdf", cdf)
        object.__setattr__(self, "pxz", pxz)
        object.__setattr__(self, "support", support)

    def p_x(self, x) -> float:
        return sum(self.pxz[(x, z)] for z in self.space.z_levels)

    def p_z(self, z) -> float:
        return sum(self.pxz[(x, z)] for x in self.space.x_levels)

    def p_x_given_z(self, x, z) -> float:
        pz = self.p_z(z)
        if pz == 0.0:
            return 0.0
        return self.pxz[(x, z)] / pz

    @cached_property
    def kernel(self) -> "AtomKernel":
        return AtomKernel.from_array(self)


class AtomKernel:
    """Atom table of one estimator's group CDFs; see the module docstring.

    ys, z, slot and mass hold one entry per atom; pz holds the population
    weight of each group (zero for groups skipped in the penalty).
    """

    def __init__(self, support: SupportInterval, ys, z, slot, mass, pz):
        self.grid = np.unique(np.append(ys, support.b))
        self.steps = np.diff(self.grid)
        self.pz = np.asarray(pz, dtype=float)
        self.shape = (self.pz.size, self.grid.size)
        self.index = np.asarray(z) * self.grid.size + np.searchsorted(self.grid, ys)
        self.slot = np.asarray(slot)
        self.mass = np.asarray(mass, dtype=float)
        self.active = np.flatnonzero(self.pz > 0.0)

    @classmethod
    def from_array(cls, arr: CondCdfArray) -> "AtomKernel":
        """Plug-in atoms: each cell atom with mass (cell mass) * p(x | z)."""
        space = arr.space
        pz = np.array([arr.p_z(z) for z in space.z_levels])
        ys, zs, slots, masses = [], [], [], []
        for xj, x in enumerate(space.x_levels):
            for zj, z in enumerate(space.z_levels):
                pxz = arr.pxz[(x, z)]
                if pxz <= 0.0:
                    continue
                for i in space.treatments:
                    cdf = arr.cdf[(i, x, z)]
                    ys.append(cdf.points)
                    zs.append(np.full(cdf.points.size, zj))
                    slots.append(np.full(cdf.points.size, xj * space.k + i - 1))
                    masses.append(cdf.masses * (pxz / pz[zj]))
        return cls(arr.support, np.concatenate(ys), np.concatenate(zs),
                   np.concatenate(slots), np.concatenate(masses), pz)

    def group_cdfs(self, probs_flat: np.ndarray) -> np.ndarray:
        """Projected group CDFs on the grid, shape (|Z|, G)."""
        weights = probs_flat[self.slot]
        weights *= self.mass
        f = np.bincount(self.index, weights,
                        minlength=self.shape[0] * self.shape[1]).reshape(self.shape)
        np.cumsum(f, axis=1, out=f)
        np.minimum(f, 1.0, out=f)
        top = f[:, -1:]
        top[1.0 - top > MASS_TOL] = 1.0  # the missing mass becomes an atom at b
        f /= top
        return f

    def value(self, probs: np.ndarray, lam: float, t: TargetFunctional,
              s: SimilarityMeasure) -> float:
        f = self.group_cdfs(probs.ravel())
        pop = self.pz @ f
        target = 0.0 if lam == 1.0 else t.value_on_grid(self.grid, pop, self.steps)
        penalty = 0.0
        if lam > 0.0:
            penalty = s.value_on_grid(self.grid, f[self.active], pop, self.steps)
        return (1.0 - lam) * target - lam * penalty

    def scores(self, probs: np.ndarray, t: TargetFunctional,
               s: SimilarityMeasure) -> tuple[float, dict]:
        """The two terms of `value`: T(population), {active group index: S}."""
        f = self.group_cdfs(probs.ravel())
        pop = self.pz @ f
        unfairness = {int(j): s.value_on_grid(self.grid, f[j], pop, self.steps)
                      for j in self.active}
        return t.value_on_grid(self.grid, pop, self.steps), unfairness


def _require_same_space(rule: DecisionRule, arr: CondCdfArray) -> None:
    if rule.space != arr.space:
        raise SpaceMismatch("rule and array live on different covariate spaces")


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


def omega(
    rule: DecisionRule,
    arr: CondCdfArray,
    lam: float,
    t: TargetFunctional,
    s: SimilarityMeasure,
) -> float:
    """(1 - lam) * T(population) - lam * max_z S(group_z, population).

    Groups with p_z(z) = 0 are excluded from the max.
    """
    _require_same_space(rule, arr)
    if not 0.0 <= lam <= 1.0:
        raise InvalidLambda(f"lambda must lie in [0, 1], got {lam!r}")
    return arr.kernel.value(rule.probs, lam, t, s)
