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

A conditional-CDF array (`CondCdfArray`) is built from and held as
columns: the atoms of all K*|X|*|Z| cells in cell order with their masses
and cell offsets, and the p(x, z) matrix.

The objective is evaluated thousands of times per optimizer run, so it is
evaluated on one atom table (`AtomKernel`); a fitted array keeps its
plug-in kernel (`CondCdfArray.kernel`), gathered from its columns.  Each
atom is an outcome value y with its group z, its slot x*K + (i-1) in
`probs.ravel()`, and a mass; the union of atom values plus the support
endpoint b is the grid, and each atom stores its grid index g (y = grid[g]) and
row-major position index = z*G + g in the |Z| x G table, in grid order (sorted
stably: every slot and table entry sums its atoms in grid order; `lp` too).
One evaluation scatters `probs_flat[slot] * mass` into the table with
`bincount` and takes a cumulative sum along each row: the group CDFs on the
grid, in O(atoms + |Z|*G) time and memory.  The population CDF is the
p_Z-weighted sum of the group rows.  The kernel keeps its last result for
probs of equal bytes, as a solver often evaluates the rule it just tried.
`AtomKernel.scores` is the one evaluator: T of the population row and S of
each active group row against it, the two terms a sweep reports;
`AtomKernel.value`, which the solvers and `omega` call, combines them.

Plug-in atoms are the cell atoms with mass (cell mass) * p(x | z).  Each
group row is projected onto the CDFs on [a, b]: capped at 1, any residual
above MASS_TOL put at b, and renormalized (`group_cdfs` says why).
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING

import numpy as np

from .distributions import MASS_TOL, StepCdf, SupportInterval

if TYPE_CHECKING:
    from .functionals import SimilarityMeasure, TargetFunctional

SIMPLEX_TOL = 1e-9


class SpaceMismatch(ValueError):
    """Rule and array (or two rules) are indexed by different covariate spaces."""


class InvalidLambda(ValueError):
    """Preference parameter outside [0, 1]."""


class EmptySet(ValueError):
    """Distance to an empty set of rules."""


class CovariateSpace:
    """Ordered covariate levels (x), protected-group levels (z), and K >= 2 treatments."""

    def __init__(self, x_levels, z_levels, k: int):
        self.x_levels, self.z_levels, self.k = tuple(x_levels), tuple(z_levels), k
        if not self.x_levels or not self.z_levels:
            raise ValueError("x_levels and z_levels must be nonempty")
        if len(set(self.x_levels)) != len(self.x_levels):
            raise ValueError("duplicate x levels")
        if len(set(self.z_levels)) != len(self.z_levels):
            raise ValueError("duplicate z levels")
        if self.k < 2:
            raise ValueError(f"need at least 2 treatments, got {self.k}")

    def __eq__(self, other):  # a rule and an array may hold equal spaces built apart
        if type(other) is not CovariateSpace:
            return NotImplemented
        return (self.x_levels, self.z_levels, self.k) == (other.x_levels, other.z_levels, other.k)

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


class DecisionRule:
    """One probability vector over treatments per covariate level.

    probs has shape (|x_levels|, k); every row lies in the simplex (checked to
    SIMPLEX_TOL and renormalized exactly).
    """

    def __init__(self, space: CovariateSpace, probs):
        probs = np.asarray(probs, dtype=float)
        expected = (len(space.x_levels), space.k)
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
        self.space, self.probs = space, probs

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


class CondCdfArray:
    """The fitted or ground-truth array [(F^i(.|x,z), p(x,z))], built from columns.

    Cell c = (i-1)*|X|*|Z| + x*|Z| + z (level indices, treatments i = 1..K)
    holds the atoms points[offsets[c]:offsets[c+1]] with the masses at the
    same positions: points strictly increasing inside the shared support,
    masses positive and summing to one.  pair_mass[x, z] is p(x, z), summing
    to one, and group_mass[z] is p_Z(z).  cell_records holds the records per
    cell of an array fitted from a sample, and is None otherwise.  Every
    array is read-only.

    `cdf` maps (i, x, z) to a StepCdf over the cell's atoms, `pxz` maps
    (x, z) to p(x, z), and `p_z(z)` is p_Z(z).  `fit` writes `pxz`; no
    command reads `cdf` or `p_z`.  All three stay because bench/lpref.py
    and tests/test_lp.py build their reference programs from them.
    """

    def __init__(self, space: CovariateSpace, support: SupportInterval, points, masses,
                 offsets, pair_mass, cell_records=None):
        """The columns are taken as given (`fit_plugin` and `toy_cond_array`
        build them); pair_mass is renormalized to sum to one exactly."""
        pair_mass = np.divide(pair_mass, sum(np.ravel(pair_mass).tolist()))
        group_mass = np.array([sum(col) for col in pair_mass.T.tolist()])
        self.space, self.support = space, support
        self.points, self.masses, self.offsets = map(_read_only, (points, masses, offsets))
        self.pair_mass, self.group_mass = _read_only(pair_mass), _read_only(group_mass)
        self.cell_records = None if cell_records is None else _read_only(cell_records)

    @cached_property
    def cdf(self) -> Mapping:
        bounds = self.offsets.tolist()
        return MappingProxyType({
            key: StepCdf.from_canonical(self.support, self.points[lo:hi], self.masses[lo:hi])
            for key, lo, hi in zip(_cell_keys(self.space), bounds, bounds[1:])})

    @cached_property
    def pxz(self) -> Mapping:
        return MappingProxyType(dict(zip(_pair_keys(self.space), self.pair_mass.ravel().tolist())))

    def p_z(self, z) -> float:
        return float(self.group_mass[self.space.z_index[z]])

    @cached_property
    def kernel(self) -> "AtomKernel":
        return AtomKernel.from_array(self)


def _read_only(values) -> np.ndarray:
    values = np.asarray(values)
    values.flags.writeable = False
    return values


def _cell_keys(space: CovariateSpace):
    """(i, x, z) in cell order."""
    return itertools.product(space.treatments, space.x_levels, space.z_levels)


def _pair_keys(space: CovariateSpace):
    """(x, z) in pair order."""
    return itertools.product(space.x_levels, space.z_levels)


class AtomKernel:
    """Atom table of the group CDFs; see the module docstring.

    g, z, slot, mass and index hold one entry per atom, in grid order; pz the
    population weight of each group (zero for groups skipped in the penalty).
    computations counts the group CDFs computed; the last one is kept.
    """

    def __init__(self, support: SupportInterval, ys, z, slot, mass, pz):
        # np.unique's sort-and-mask route, without its np.ma check, which
        # imports numpy.ma; ties such as 0.0 and -0.0 keep the same survivor
        grid = np.append(ys, support.b)
        grid.sort()
        self.grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
        self.steps = np.diff(self.grid)
        self.pz = np.asarray(pz, dtype=float)
        self.shape = (self.pz.size, self.grid.size)
        order = np.argsort(g := np.searchsorted(self.grid, ys), kind="stable")
        self.g, self.z, self.slot = g[order], np.asarray(z)[order], np.asarray(slot)[order]
        self.mass = np.asarray(mass, dtype=float)[order]
        self.index = self.z * self.grid.size + self.g
        self.active = np.flatnonzero(self.pz > 0.0)
        self._last, self.computations = (None, None), 0

    @classmethod
    def from_array(cls, arr: CondCdfArray) -> "AtomKernel":
        """Plug-in atoms: each cell atom with mass (cell mass) * p(x | z).

        Cells come in (x, z, i) order, skipping pairs with p(x, z) = 0.
        """
        k = arr.space.k
        nx, nz = arr.pair_mass.shape
        xs, zs = np.nonzero(arr.pair_mass > 0.0)
        cells = ((xs * nz + zs)[:, None] + np.arange(k) * (nx * nz)).ravel()
        lo = arr.offsets[cells]
        sizes = arr.offsets[cells + 1] - lo
        atoms = np.repeat(lo - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
        scale = np.repeat(arr.pair_mass[xs, zs] / arr.group_mass[zs], k)
        return cls(arr.support, arr.points[atoms], np.repeat(np.repeat(zs, k), sizes),
                   np.repeat((xs[:, None] * k + np.arange(k)).ravel(), sizes),
                   arr.masses[atoms] * np.repeat(scale, sizes), arr.group_mass)

    def group_cdfs(self, probs_flat: np.ndarray) -> np.ndarray:
        """Projected group CDFs on the grid, shape (|Z|, G), read-only."""
        key = probs_flat.tobytes()
        if key == self._last[0]:
            return self._last[1]
        self._last = None, None  # so that two results are never held at once
        weights = probs_flat[self.slot]
        weights *= self.mass
        f = np.bincount(self.index, weights,
                        minlength=self.shape[0] * self.shape[1]).reshape(self.shape)
        np.cumsum(f, axis=1, out=f)
        # rows end at 1 only up to rounding: without the cap the simulate
        # golden digest moves, without the division every golden digest does;
        # the residual branch makes a zero-mass group's row a point mass at b
        np.minimum(f, 1.0, out=f)
        top = f[:, -1:]
        top[1.0 - top > MASS_TOL] = 1.0  # the missing mass becomes an atom at b
        f /= top
        f.flags.writeable = False
        self._last, self.computations = (key, f), self.computations + 1
        return f

    def value(self, probs: np.ndarray, lam: float, t: TargetFunctional,
              s: SimilarityMeasure) -> float:
        """The objective, built from `scores`; T counts as 0.0 at lam = 1,
        where (1 - lam) * T would be -0.0 for a negative T."""
        target, unfairness = self.scores(probs, t, s)
        if lam == 1.0:
            target = 0.0
        return (1.0 - lam) * target - lam * max(unfairness.values())

    def scores(self, probs: np.ndarray, t: TargetFunctional,
               s: SimilarityMeasure) -> tuple[float, dict]:
        """T(population) and {active group index: S(group, population)}."""
        f = self.group_cdfs(probs.ravel())
        pop = self.pz @ f
        unfairness = {int(j): s.value_on_grid(self.grid, f[j], pop, self.steps)
                      for j in self.active}
        return t.value_on_grid(self.grid, pop, self.steps), unfairness


def _require_same_space(rule: DecisionRule, arr: CondCdfArray) -> None:
    if rule.space != arr.space:
        raise SpaceMismatch("rule and array live on different covariate spaces")


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
