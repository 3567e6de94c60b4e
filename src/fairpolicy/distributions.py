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


class SupportInterval:
    """Closed interval [a, b] with a < b on which all CDFs are supported."""

    def __init__(self, a: float, b: float):
        a = float(a)
        b = float(b)
        if not (np.isfinite(a) and np.isfinite(b)):
            raise DistributionError(f"support endpoints must be finite, got [{a}, {b}]")
        if not a < b:
            raise DistributionError(f"support requires a < b, got [{a}, {b}]")
        self.a, self.b = a, b

    def __eq__(self, other):
        if type(other) is not SupportInterval:
            return NotImplemented
        return (self.a, self.b) == (other.a, other.b)

    def __repr__(self) -> str:  # a SupportMismatch message names both intervals
        return f"SupportInterval(a={self.a!r}, b={self.b!r})"

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


class StepCdf:
    """CDF of a purely atomic distribution on [a, b].

    Right-continuous and nondecreasing with F(a-) = 0 and F(b) = 1.  The
    atom arrays are read-only and shared freely across threads.
    """

    def __init__(self, support: SupportInterval, points, masses):
        self.support = support
        self._set_atoms(*_canonical_atoms(points, masses, support))

    def _set_atoms(self, points: np.ndarray, masses: np.ndarray) -> None:
        cum = np.cumsum(masses)
        cum[-1] = 1.0
        cum.flags.writeable = False
        self.points, self.masses, self._cum = points, masses, cum

    @classmethod
    def from_canonical(cls, support: SupportInterval, points: np.ndarray,
                       masses: np.ndarray) -> "StepCdf":
        """A StepCdf over read-only atoms that are already canonical.

        The points must be strictly increasing and inside the support, the
        masses positive and summing to one.  They are taken as given, not
        renormalized, so the masses stay bitwise as stored.
        """
        cdf = object.__new__(cls)
        cdf.support = support
        cdf._set_atoms(points, masses)
        return cdf

    def eval_many(self, ys) -> np.ndarray:
        """F(ys): total mass at points <= each y (0 below the smallest atom)."""
        ys = np.asarray(ys, dtype=float)
        idx = np.searchsorted(self.points, ys, side="right")
        cum0 = np.concatenate(([0.0], self._cum))
        return cum0[idx]
