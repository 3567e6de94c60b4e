"""Target functionals and similarity measures of CDFs given on a grid.

The targets shipped here are Gini-welfare (mean minus half the mean absolute
difference, all divided by 2), the mean, and quantiles.  Gini-welfare and the
mean are Lipschitz w.r.t. the sup-norm with constant b - a on a support
[a, b]; quantiles carry no such certification.

Similarity measures map pairs of CDFs to [0, inf) and vanish on identical
pairs: two-sided and one-sided Kolmogorov-Smirnov distances, and the absolute
difference of a target functional.

Each functional is implemented once, on a (grid, cdf-values) pair, which is
the form the objective kernel evaluates.  On a grid, Gini-welfare uses the
identity mean - mad_half = a + integral (1 - F)^2, a single dot product with
the grid steps (a caller evaluating many CDFs on one grid passes them in).
"""

from __future__ import annotations

import numpy as np


class InvalidTau(ValueError):
    """Quantile level outside (0, 1)."""


class TargetFunctional:
    """Real-valued functional of a CDF: 'gini-welfare', 'mean', or 'quantile'."""

    KINDS = ("gini-welfare", "mean", "quantile")

    def __init__(self, kind: str, tau: float | None = None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown target functional {kind!r}")
        if kind == "quantile":
            if tau is None or not 0.0 < tau < 1.0:
                raise InvalidTau(f"quantile target needs tau in (0, 1), got {tau!r}")
        elif tau is not None:
            raise ValueError(f"{kind!r} takes no tau")
        self.kind, self.tau = kind, tau

    def value_on_grid(self, grid: np.ndarray, values: np.ndarray,
                      steps: np.ndarray | None = None) -> float:
        """The functional of the CDF with values F(grid) that jumps only on grid.

        steps, if given, must equal np.diff(grid).
        """
        if self.kind == "gini-welfare":
            # F is 0 below grid[0] and 1 from the last grid point on, so
            # mean - mad_half = a + integral_a^b (1 - F)^2 reduces to the grid span.
            if steps is None:
                steps = np.diff(grid)
            return (grid[0] + float(np.dot((1.0 - values[:-1]) ** 2, steps))) / 2.0
        if self.kind == "mean":
            return float(np.dot(np.diff(values, prepend=0.0), grid))
        # the generalized inverse inf{y : F(y) >= tau}
        idx = min(int(np.searchsorted(values, self.tau, side="left")), grid.size - 1)
        return float(grid[idx])

    @classmethod
    def parse(cls, text: str) -> "TargetFunctional":
        """Parse 'gini-welfare', 'mean', or 'quantile:TAU'."""
        if text.startswith("quantile:"):
            return cls("quantile", tau=float(text.split(":", 1)[1]))
        return cls(text)


class SimilarityMeasure:
    """Nonnegative dissimilarity of two CDFs; zero on identical pairs."""

    KINDS = ("ks", "one-sided-ks", "abs-target-diff")

    def __init__(self, kind: str, inner: TargetFunctional | None = None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown similarity measure {kind!r}")
        if kind == "abs-target-diff":
            if inner is None:
                raise ValueError("abs-target-diff needs an inner target functional")
        elif inner is not None:
            raise ValueError(f"{kind!r} takes no inner functional")
        self.kind, self.inner = kind, inner

    def value_on_grid(self, grid: np.ndarray, vf: np.ndarray, vg: np.ndarray,
                      steps: np.ndarray | None = None) -> float:
        """S(F, G) for CDFs with values vf, vg on grid that jump only on grid.

        steps, if given, must equal np.diff(grid).
        """
        # Both CDFs jump only at grid points, so the sup over the line is the
        # max over grid values (left limits are the previous grid values).
        if self.kind == "ks":
            d = vf - vg
            np.abs(d, out=d)  # in place: one G-sized temporary per call, not two
            return float(d.max())
        if self.kind == "one-sided-ks":
            return float(max((vf - vg).max(), 0.0))
        return abs(self.inner.value_on_grid(grid, vf, steps)
                   - self.inner.value_on_grid(grid, vg, steps))

    @classmethod
    def parse(cls, text: str) -> "SimilarityMeasure":
        """Parse 'ks', 'one-sided-ks', or 'abs-target-diff:TARGET'."""
        if text.startswith("abs-target-diff:"):
            return cls("abs-target-diff", inner=TargetFunctional.parse(text.split(":", 1)[1]))
        return cls(text)


def plugin_route(t: TargetFunctional, s: SimilarityMeasure) -> bool:
    """Whether `lp.PluginProgram` maximizes the plug-in objective of (t, s).

    The KS, one-sided KS and |mean difference| penalties are a max of rows
    linear in the rule.  With them the mean target makes the objective a
    linear program, and the convex Gini-welfare target a difference of
    convex functions; minorize-maximize over the program solves both.
    """
    if s.kind == "abs-target-diff" and s.inner.kind != "mean":
        return False
    return t.kind in ("mean", "gini-welfare")
