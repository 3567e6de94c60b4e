"""Target functionals and similarity measures on step CDFs.

The targets shipped here are Gini-welfare (mean minus half the mean absolute
difference, all divided by 2), the mean, and quantiles.  Gini-welfare and the
mean are 1-Lipschitz w.r.t. the sup-norm on [0, 1] supports (general supports
scale the constant by b - a); quantiles carry no such certification and are
excluded from the Lipschitz audit.

Similarity measures map pairs of CDFs to [0, inf) and vanish on identical
pairs: two-sided and one-sided Kolmogorov-Smirnov distances, and the absolute
difference of a target functional.

Each functional is implemented once, on a (grid, cdf-values) pair: the
objective kernel calls that form on its grid, and the StepCdf form calls it
on the CDF's own atoms and cumulative masses (a target) or on the union of
both CDFs' atoms (KS).  On a grid, Gini-welfare uses the identity
mean - mad_half = a + integral (1 - F)^2, a single dot product with the grid
steps (a caller evaluating many CDFs on one grid passes them in); `mad_half`
stays as its reference.  A similarity measure on a grid also takes a stack
of CDF rows and returns the largest dissimilarity of any row, which is what
the objective's penalty needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import StepCdf, _require_same_support


class InvalidTau(ValueError):
    """Quantile level outside (0, 1)."""


def mean(f: StepCdf) -> float:
    """First moment: sum of point * mass."""
    return _mean_on_grid(f.points, f.cum)


def _mean_on_grid(grid: np.ndarray, values: np.ndarray) -> float:
    return float(np.dot(np.diff(values, prepend=0.0), grid))


def mad_half(f: StepCdf) -> float:
    """Half the mean absolute difference: 1/2 integral integral |x-y| dF dF."""
    # 1/2 sum_ij m_i m_j |x_i - x_j| via sorted prefix sums: points are sorted,
    # so the double sum collapses to sum_j m_j (x_j M_{<j} - S_{<j}).
    points, masses = f.points, f.masses
    m_below = np.cumsum(masses) - masses
    s_below = np.cumsum(masses * points) - masses * points
    return float(np.dot(masses, points * m_below - s_below))


def _gini_on_grid(grid: np.ndarray, values: np.ndarray, steps: np.ndarray | None = None) -> float:
    # F is 0 below grid[0] and 1 from the last grid point on, so
    # mean - mad_half = a + integral_a^b (1 - F)^2 reduces to the grid span.
    if steps is None:
        steps = np.diff(grid)
    return (grid[0] + float(np.dot((1.0 - values[:-1]) ** 2, steps))) / 2.0


def gini_welfare(f: StepCdf) -> float:
    """(mean - mad_half) / 2; the welfare measure normalized to be 1-Lipschitz on [0,1]."""
    return _gini_on_grid(f.points, f.cum)


def quantile(f: StepCdf, tau: float) -> float:
    """Generalized inverse inf{y : F(y) >= tau}."""
    if not 0.0 < tau < 1.0:
        raise InvalidTau(f"tau must lie in (0, 1), got {tau!r}")
    return _quantile_on_grid(f.points, f.cum, tau)


def _quantile_on_grid(grid: np.ndarray, values: np.ndarray, tau: float) -> float:
    idx = min(int(np.searchsorted(values, tau, side="left")), grid.size - 1)
    return float(grid[idx])


@dataclass(frozen=True)
class TargetFunctional:
    """Real-valued functional of a CDF: 'gini-welfare', 'mean', or 'quantile'."""

    kind: str
    tau: float | None = None

    KINDS = ("gini-welfare", "mean", "quantile")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown target functional {self.kind!r}")
        if self.kind == "quantile":
            if self.tau is None or not 0.0 < self.tau < 1.0:
                raise InvalidTau(f"quantile target needs tau in (0, 1), got {self.tau!r}")
        elif self.tau is not None:
            raise ValueError(f"{self.kind!r} takes no tau")

    def value(self, f: StepCdf) -> float:
        return self.value_on_grid(f.points, f.cum)

    __call__ = value

    def value_on_grid(self, grid: np.ndarray, values: np.ndarray,
                      steps: np.ndarray | None = None) -> float:
        """The functional of the CDF with values F(grid) that jumps only on grid.

        steps, if given, must equal np.diff(grid).
        """
        if self.kind == "gini-welfare":
            return _gini_on_grid(grid, values, steps)
        if self.kind == "mean":
            return _mean_on_grid(grid, values)
        return _quantile_on_grid(grid, values, self.tau)

    def lipschitz_constant(self, support) -> float | None:
        """Certified sup-norm Lipschitz constant, or None (quantile: not certified)."""
        if self.kind == "quantile":
            return None
        return support.width

    @classmethod
    def parse(cls, text: str) -> "TargetFunctional":
        """Parse 'gini-welfare', 'mean', or 'quantile:TAU'."""
        if text.startswith("quantile:"):
            return cls("quantile", tau=float(text.split(":", 1)[1]))
        return cls(text)


@dataclass(frozen=True)
class SimilarityMeasure:
    """Nonnegative dissimilarity of two CDFs; zero on identical pairs."""

    kind: str
    inner: TargetFunctional | None = None

    KINDS = ("ks", "one-sided-ks", "abs-target-diff")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown similarity measure {self.kind!r}")
        if self.kind == "abs-target-diff":
            if self.inner is None:
                raise ValueError("abs-target-diff needs an inner target functional")
        elif self.inner is not None:
            raise ValueError(f"{self.kind!r} takes no inner functional")

    def value(self, f: StepCdf, g: StepCdf) -> float:
        _require_same_support(f, g)
        if self.kind == "abs-target-diff":
            return abs(self.inner.value(f) - self.inner.value(g))
        grid = np.union1d(f.points, g.points)
        return self.value_on_grid(grid, f.eval_many(grid), g.eval_many(grid))

    __call__ = value

    def value_on_grid(self, grid: np.ndarray, vf: np.ndarray, vg: np.ndarray,
                      steps: np.ndarray | None = None) -> float:
        """S(F, G) for CDFs with values vf, vg on grid that jump only on grid.

        vf may also be a stack of rows, one CDF each; the result is then the
        largest S(row, G).  steps, if given, must equal np.diff(grid).
        """
        # Both CDFs jump only at grid points, so the sup over the line is the
        # max over grid values (left limits are the previous grid values).
        if self.kind == "ks":
            # abs in place: one more (rows, G) temporary per objective
            # evaluation made glibc hand the heap top back to the OS after
            # each one, and the page faults of regrowing it doubled the
            # evaluation time at 3 x 6,000 grid values
            d = vf - vg
            np.abs(d, out=d)
            return float(d.max())
        if self.kind == "one-sided-ks":
            return float(max((vf - vg).max(), 0.0))
        inner_g = self.inner.value_on_grid(grid, vg, steps)
        return max(
            abs(self.inner.value_on_grid(grid, row, steps) - inner_g)
            for row in np.atleast_2d(vf)
        )

    @classmethod
    def parse(cls, text: str) -> "SimilarityMeasure":
        """Parse 'ks', 'one-sided-ks', or 'abs-target-diff:TARGET'."""
        if text.startswith("abs-target-diff:"):
            return cls("abs-target-diff", inner=TargetFunctional.parse(text.split(":", 1)[1]))
        return cls(text)
