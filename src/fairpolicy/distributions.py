"""Weighted-atom CDFs on a common support interval.

Every distribution here is a finite mixture of point masses on a closed
interval [a, b], held canonically: points strictly increasing inside [a, b],
masses positive and summing to one.  Atoms are built as columns
(`CondCdfArray`); no command builds or evaluates a `StepCdf`, the read-only
view of one cell's atoms that `CondCdfArray.cdf` hands to the benchmark's
reference program and to the tests.
"""

from __future__ import annotations

import numpy as np

# mass that rounding may lose: a group CDF further below 1 gets the rest at b
MASS_TOL = 1e-9


class DistributionError(ValueError):
    """Base class for distribution construction/usage errors."""


class OutOfSupport(DistributionError):
    """A point or observation lies outside the support interval."""


class SupportInterval:
    """Closed interval [a, b] with a < b on which all CDFs are supported."""

    def __init__(self, a: float, b: float):
        a, b = float(a), float(b)
        if not (np.isfinite(a) and np.isfinite(b)):
            raise DistributionError(f"support endpoints must be finite, got [{a}, {b}]")
        if not a < b:
            raise DistributionError(f"support requires a < b, got [{a}, {b}]")
        self.a, self.b = a, b

    def __eq__(self, other):
        if type(other) is not SupportInterval:
            return NotImplemented
        return (self.a, self.b) == (other.a, other.b)

    def __repr__(self) -> str:
        return f"SupportInterval(a={self.a!r}, b={self.b!r})"


class StepCdf:
    """CDF of a purely atomic distribution on [a, b]: F(a-) = 0 and F(b) = 1.

    A read-only view of canonical atoms, built only by `from_canonical`."""

    @classmethod
    def from_canonical(cls, support: SupportInterval, points: np.ndarray,
                       masses: np.ndarray) -> "StepCdf":
        """A StepCdf over read-only atoms that are already canonical.

        The points must be strictly increasing and inside the support, the
        masses positive and summing to one.  They are taken as given, not
        renormalized, so the masses stay bitwise as stored.
        """
        cum = np.cumsum(masses)
        cum[-1] = 1.0
        cum.flags.writeable = False
        cdf = cls()
        cdf.support, cdf.points, cdf.masses, cdf._cum = support, points, masses, cum
        return cdf

    def eval_many(self, ys) -> np.ndarray:
        """F(ys): total mass at points <= each y (0 below the smallest atom)."""
        ys = np.asarray(ys, dtype=float)
        idx = np.searchsorted(self.points, ys, side="right")
        cum0 = np.concatenate(([0.0], self._cum))
        return cum0[idx]
