"""Weighted-atom CDFs on a common support interval and their algebra.

Every distribution in this library is a finite mixture of point masses on a
closed interval [a, b], represented canonically: atom points strictly
increasing, all masses positive, masses summing to one.  Construction always
coalesces atoms at identical points and renormalizes the total mass, so
equality checks and sup-distance computations are exact for double precision
(ties between breakpoints of two CDFs are resolved in double precision only;
no rational arithmetic is attempted).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Input masses/weights may drift by accumulated float error (mixtures of
# mixtures); anything within this tolerance of 1 is renormalized exactly.
MASS_TOL = 1e-9


class DistributionError(ValueError):
    """Base class for distribution construction/usage errors."""


class EmptySample(DistributionError):
    """An empirical CDF was requested from zero observations."""


class OutOfSupport(DistributionError):
    """A point or observation lies outside the support interval."""


class WeightMismatch(DistributionError):
    """Mixture weights are negative or do not sum to one."""


class SupportMismatch(DistributionError):
    """Two distributions do not share the same support interval."""


@dataclass(frozen=True)
class SupportInterval:
    """Closed interval [a, b] with a < b on which all CDFs are supported."""

    a: float
    b: float

    def __post_init__(self):
        a = float(self.a)
        b = float(self.b)
        if not (np.isfinite(a) and np.isfinite(b)):
            raise DistributionError(f"support endpoints must be finite, got [{a}, {b}]")
        if not a < b:
            raise DistributionError(f"support requires a < b, got [{a}, {b}]")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def width(self) -> float:
        return self.b - self.a

    def contains(self, y) -> bool:
        y = np.asarray(y, dtype=float)
        return bool(np.all((y >= self.a) & (y <= self.b)))


def _canonical_atoms(points, masses, support: SupportInterval):
    """Sort, coalesce duplicate points, drop zero masses, renormalize to 1."""
    points = np.asarray(points, dtype=float).ravel()
    masses = np.asarray(masses, dtype=float).ravel()
    if points.size != masses.size:
        raise DistributionError("points and masses must have equal length")
    if points.size == 0:
        raise DistributionError("a step CDF needs at least one atom")
    if not np.all(np.isfinite(points)) or not np.all(np.isfinite(masses)):
        raise DistributionError("atom points and masses must be finite")
    if np.any(masses < -MASS_TOL):
        raise DistributionError("atom masses must be nonnegative")
    if not support.contains(points):
        raise OutOfSupport(
            f"atom points must lie in [{support.a}, {support.b}]"
        )
    upoints, inverse = np.unique(points, return_inverse=True)
    agg = np.bincount(inverse, weights=np.maximum(masses, 0.0), minlength=upoints.size)
    keep = agg > 0.0
    if not np.any(keep):
        raise DistributionError("total atom mass must be positive")
    upoints = upoints[keep]
    agg = agg[keep]
    total = float(agg.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise WeightMismatch(f"atom masses must sum to 1 within {MASS_TOL}, got {total!r}")
    agg = agg / total
    upoints.flags.writeable = False
    agg.flags.writeable = False
    return upoints, agg


@dataclass(frozen=True, eq=False)
class StepCdf:
    """CDF of a purely atomic distribution on [a, b].

    Right-continuous and nondecreasing with F(a-) = 0 and F(b) = 1.
    Immutable: the atom arrays are read-only and shared freely across threads.
    """

    support: SupportInterval
    points: np.ndarray
    masses: np.ndarray
    _cum: np.ndarray = field(repr=False, init=False, default=None)

    def __post_init__(self):
        self._set_atoms(*_canonical_atoms(self.points, self.masses, self.support))

    def _set_atoms(self, points: np.ndarray, masses: np.ndarray) -> None:
        cum = np.cumsum(masses)
        cum[-1] = 1.0
        cum.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "_cum", cum)

    @classmethod
    def from_canonical(cls, support: SupportInterval, points: np.ndarray,
                       masses: np.ndarray) -> "StepCdf":
        """A StepCdf over read-only atoms that are already canonical.

        The points must be strictly increasing and inside the support, the
        masses positive and summing to one.  They are taken as given, not
        renormalized, so the masses stay bitwise as stored.
        """
        cdf = object.__new__(cls)
        object.__setattr__(cdf, "support", support)
        cdf._set_atoms(points, masses)
        return cdf

    @property
    def cum(self) -> np.ndarray:
        """F at each atom point: cumulative masses, ending at exactly 1."""
        return self._cum

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return list(zip(self.points.tolist(), self.masses.tolist()))

    def eval(self, y: float) -> float:
        """F(y): total mass at points <= y (0 below the smallest atom)."""
        idx = np.searchsorted(self.points, y, side="right")
        return 0.0 if idx == 0 else float(self._cum[idx - 1])

    __call__ = eval

    def eval_many(self, ys) -> np.ndarray:
        ys = np.asarray(ys, dtype=float)
        idx = np.searchsorted(self.points, ys, side="right")
        cum0 = np.concatenate(([0.0], self._cum))
        return cum0[idx]

    def eval_left_many(self, ys) -> np.ndarray:
        """Left limits F(y-) at the given points."""
        ys = np.asarray(ys, dtype=float)
        idx = np.searchsorted(self.points, ys, side="left")
        cum0 = np.concatenate(([0.0], self._cum))
        return cum0[idx]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-transform draws of n i.i.d. values."""
        u = rng.random(n)
        idx = np.searchsorted(self._cum, u, side="left")
        idx = np.minimum(idx, self.points.size - 1)
        return self.points[idx]


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
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise EmptySample("cannot build an empirical CDF from an empty sample")
    if not support.contains(values):
        bad = values[(values < support.a) | (values > support.b)][0]
        raise OutOfSupport(
            f"observation {bad!r} outside support [{support.a}, {support.b}]"
        )
    upoints, counts = np.unique(values, return_counts=True)
    return StepCdf(support, upoints, counts / values.size)


def point_mass(point: float, support: SupportInterval) -> StepCdf:
    """Degenerate CDF with all mass at one point."""
    if not support.contains(point):
        raise OutOfSupport(f"point {point!r} outside support [{support.a}, {support.b}]")
    return StepCdf(support, np.array([float(point)]), np.array([1.0]))


def _require_same_support(f: StepCdf, g) -> None:
    if f.support != g.support:
        raise SupportMismatch(f"supports differ: {f.support} vs {g.support}")


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
    d_left = np.abs(f.eval_left_many(pts) - g.eval_left_many(pts)).max()
    return float(max(d_right, d_left))


def one_sided_ks(f: StepCdf, g: StepCdf) -> float:
    """sup_y max(F(y) - G(y), 0), exact over merged breakpoints."""
    _require_same_support(f, g)
    pts = np.union1d(f.points, g.points)
    d_right = (f.eval_many(pts) - g.eval_many(pts)).max()
    d_left = (f.eval_left_many(pts) - g.eval_left_many(pts)).max()
    return float(max(d_right, d_left, 0.0))


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
