"""Exact optimum of the plug-in mean + KS objective, for the optimality gap.

With the mean target and the KS similarity, the population CDF F and each
group CDF G_z are linear in the rule delta on the union grid of the fitted
array, and so is the mean.  Maximizing

    (1 - lam) * mean(F) - lam * max_z max_g |G_z(g) - F(g)|

over the product of simplices is then the linear program

    max (1 - lam) * m . delta - lam * t
    s.t. +-(G_z(g) - F(g)) <= t  for every group z with p_z > 0, grid point g
         sum_i delta(x, i) = 1, delta >= 0,

solved here with HiGHS.  Both CDFs jump only at grid points, so the max over
the grid is the sup over the line, as in the program's own kernel.
"""

import numpy as np
from scipy.optimize import linprog

from fairpolicy.functionals import SimilarityMeasure, TargetFunctional
from fairpolicy.objective import DecisionRule, omega

_TOL = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


class LpReference:
    """The linear program's data for one fitted array; solve() per lambda."""

    def __init__(self, arr):
        space = arr.space
        self.arr = arr
        nx, k = len(space.x_levels), space.k
        cells = [(i, x, z) for i in space.treatments for x in space.x_levels for z in space.z_levels]
        grid = np.unique(np.concatenate([arr.cdf[c].points for c in cells]))
        # Column of each cell: its rule entry delta(x, i) in probs.ravel() order.
        cols = {c: space.x_index[c[1]] * k + (c[0] - 1) for c in cells}
        pop = np.zeros((grid.size, nx * k))
        self.mean = np.zeros(nx * k)
        groups = {z: np.zeros((grid.size, nx * k)) for z in space.z_levels if arr.p_z(z) > 0.0}
        for c in cells:
            values = arr.cdf[c].eval_many(grid)
            w = arr.pxz[(c[1], c[2])]
            pop[:, cols[c]] += w * values
            self.mean[cols[c]] += w * float(np.dot(np.diff(values, prepend=0.0), grid))
            if c[2] in groups:
                groups[c[2]][:, cols[c]] += w / arr.p_z(c[2]) * values
        diffs = np.vstack([g - pop for g in groups.values()])
        ones = -np.ones((diffs.shape[0], 1))
        self.a_ub = np.vstack([np.hstack([diffs, ones]), np.hstack([-diffs, ones])])
        self.a_eq = np.hstack([np.kron(np.eye(nx), np.ones((1, k))), np.zeros((nx, 1))])
        self.shape = (nx, k)

    def solve(self, lam: float) -> tuple[float, np.ndarray]:
        """(optimal value, optimal rule probs) at lam."""
        nx, k = self.shape
        c = np.concatenate([-(1.0 - lam) * self.mean, [lam]])
        # At lam = 0 the penalty has no weight and its rows only slow HiGHS.
        a_ub = self.a_ub if lam > 0.0 else None
        res = linprog(
            c,
            A_ub=a_ub,
            b_ub=None if a_ub is None else np.zeros(a_ub.shape[0]),
            A_eq=self.a_eq,
            b_eq=np.ones(nx),
            bounds=[(0.0, None)] * (nx * k + 1),
            method="highs",
            options=_TOL,
        )
        if res.status != 0:
            raise RuntimeError(f"HiGHS failed at lambda={lam}: {res.message}")
        probs = np.maximum(res.x[:-1].reshape(nx, k), 0.0)
        return -float(res.fun), probs / probs.sum(axis=1, keepdims=True)

    def omega_at(self, probs: np.ndarray, lam: float) -> float:
        """The program's own objective at a rule, for the self-check."""
        rule = DecisionRule(self.arr.space, probs)
        return omega(rule, self.arr, lam, TargetFunctional("mean"), SimilarityMeasure("ks"))
