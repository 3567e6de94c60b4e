"""Weighted-atom CDFs on a common support interval.

Every distribution in this library is a finite mixture of point masses on a
closed interval [a, b], represented canonically: atom points strictly
increasing, all masses positive, masses summing to one.  Construction always
coalesces atoms at identical points and renormalizes the total mass, so
equality checks are exact for double precision.  `eval_many` is a binary
search into the cumulative masses.  No command evaluates a StepCdf: the
objective kernel works on atom columns, and StepCdfs only carry cell atoms
into a `CondCdfArray` (the closed-form example's array) and out of one
(`CondCdfArray.cdf`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Input masses may drift by accumulated float error; a total within this
# tolerance of 1 is renormalized exactly.
MASS_TOL = 1e-9


class DistributionError(ValueError):
    """Base class for distribution construction/usage errors."""


class OutOfSupport(DistributionError):
    """A point or observation lies outside the support interval."""


class WeightMismatch(DistributionError):
    """Atom masses are negative or do not sum to one."""


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

    def eval_many(self, ys) -> np.ndarray:
        """F(ys): total mass at points <= each y (0 below the smallest atom)."""
        ys = np.asarray(ys, dtype=float)
        idx = np.searchsorted(self.points, ys, side="right")
        cum0 = np.concatenate(([0.0], self._cum))
        return cum0[idx]
