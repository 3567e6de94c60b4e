"""Maximization of the plug-in objectives of the mean and Gini-welfare
targets under the KS, one-sided KS or |mean difference| similarity, by
minorize-maximize over one cutting-plane linear program (`PluginProgram`).

With these similarities the plug-in group CDFs, the population CDF and the
group means are all linear in the rule p, and the penalty max becomes
linear once it is bounded by an epigraph variable t.  For a cost vector c
(a target's gradient) the program is

    max  (1 - lam) c.p - lam t
    s.t. sign (F_z(g) - F(g)).p <= t   (active group z, grid point g, sign)
         sum_i p(x, i) = 1,  p >= 0,  t >= 0

with sign +1 and -1 for KS and +1 only for one-sided KS.  For |mean
difference| the rows are sign (mean F_z - mean F).p <= t, one pair per
active group.  Every row is sign slot_sum(w_z phi) over the kernel's atoms, in
grid order (`objective`): w_z their weights in F_z - F, phi the mask g' <= g
(the KS row at g: a prefix of the atoms) or y (the mean row).  One `bincount`,
`slot_sum`, builds the rows, gradient and tangent with no grid x rule matrix.

The grid has thousands of points, so rows are generated (Kelley's
cutting-plane method, 1960): solve with the rows found so far, evaluate the
group CDFs at the solution with one kernel call, and add, for each active
group and sign, the most violated row if it exceeds t by more than
`CUT_TOL` (`PluginProgram.cuts`); stop when nothing is added.  Every relaxed
optimum is an upper bound on the linear objective.

Each relaxation is solved from scratch by a dense primal simplex started at
a feasible basis: for each x the treatment of largest (1 - lam) c (lowest
index on ties), t basic in the row of the largest row value if that is
positive, and the slacks of the other rows.  These programs are highly
degenerate, so pivots follow Bland's rule (1977), which cannot cycle.  The
tableau is recomputed from the original data every `REFACTOR_EVERY` pivots
and before optimality is declared, so round-off does not accumulate; in
between, only entries above `_PIVOT_TOL` times max(1, the column's largest)
are pivoted on, so none that round-off lifted off zero is.

Minorize-maximize (the DC algorithm of Pham Dinh & Le Thi, 1997; the
convex-concave procedure of Lipp & Boyd, 2016) replaces the target by its
tangent at the current rule, solves the program above with that gradient as
c, and moves to its solution.  The mean is linear, so its tangent is the
mean itself and the first step is the exact maximum: `bound - value` at it
is a certified optimality gap.  Gini-welfare on the grid is (g_0 +
sum_j (1 - F_j)^2 dg_j) / 2, convex in the rule, so the objective is a
difference of convex functions; the tangent minorizes the target and
touches it at the current rule, so an accepted step never lowers the
objective.  Each start (the uniform rule, then the K deterministic rules)
stops when a step gains at most `MM_TOL`, or after `MM_MAX_STEPS` steps.
That result is a local maximum with no certificate.

Within one lambda, `maximize` replays work instead of redoing it, and each
replay is exact.  A solve is keyed on the cost vector's bytes and the number
of rows known after it.  Rows are only appended within one lambda, so an
equal count means the same rows, and a solve ends on a relaxation over
exactly those rows that adds none: solving again would return the same
rule, bound and step value.  A tangent is keyed on the rule's bytes (it does
not depend on lambda).  The kernel keeps its last group CDFs, so the value
and tangent at the rule a solve ended on reuse its row search's.  Equal
bytes go through the same deterministic arithmetic, so the results are
those of the loop without replay, with fewer kernel computations.
"""

from __future__ import annotations

import numpy as np

from .functionals import SimilarityMeasure, TargetFunctional, plugin_route
from .objective import AtomKernel, CovariateSpace, DecisionRule
from .optimizer import CountingObjective, OptimResult

REFACTOR_EVERY = 20
CUT_TOL = 1e-12
GAP_TOL = 1e-9
MM_TOL = 1e-12  # a start stops once a step gains no more than this
MM_MAX_STEPS = 50
_COST_TOL = 1e-12  # reduced costs up to this (times the largest cost) count as zero
_PIVOT_TOL = 1e-9  # entries up to this times max(1, the column's largest) are not pivoted on
_TIE_TOL = 1e-12  # ratios this close to the least one tie


class Unbounded(ArithmeticError):
    """The linear program's objective grows without bound."""


def leaving_row(column: np.ndarray, rhs: np.ndarray, basis) -> int | None:
    """Bland's ratio test: among the rows of least ratio rhs / column over the
    entries above _PIVOT_TOL * max(1, max |column|), the one whose basic
    variable has the lowest index; None if there is none (unbounded)."""
    rows = np.flatnonzero(column > _PIVOT_TOL * max(1.0, float(np.abs(column).max(initial=0.0))))
    if rows.size == 0:
        return None
    ratios = np.maximum(rhs[rows], 0.0) / column[rows]
    ties = rows[ratios <= ratios.min() + _TIE_TOL]
    return int(ties[np.argmin(np.asarray(basis)[ties])])


def simplex(a: np.ndarray, b: np.ndarray, c: np.ndarray, basis):
    """Maximize c.x subject to a x = b, x >= 0, from a feasible basis.

    basis lists the basic column of each row.  Returns (x, y, basis), y
    being the duals c_B B^-1 of the final basis, so b.y is the optimal
    value.  The entering column is the lowest-index one with
    positive reduced cost (Bland's rule), the leaving row comes from
    `leaving_row`.  Raises Unbounded when a column can enter but no row
    limits it.
    """
    rows, cols = a.shape
    data = np.column_stack([a, b])
    basis = list(basis)
    tol = _COST_TOL * max(1.0, float(np.abs(c).max(initial=0.0)))
    tab = np.empty((rows + 1, cols + 1))  # last row: reduced costs, -objective
    since = REFACTOR_EVERY
    while True:
        if since >= REFACTOR_EVERY:
            tab[:-1] = np.linalg.solve(data[:, basis], data)
            tab[-1, :-1] = c - c[basis] @ tab[:-1, :-1]
            tab[-1, basis] = 0.0
            tab[-1, -1] = -(c[basis] @ tab[:-1, -1])
            since = 0
        entering = np.flatnonzero(tab[-1, :-1] > tol)
        if entering.size == 0:
            if since == 0:
                break
            since = REFACTOR_EVERY  # confirm optimality on a fresh tableau
            continue
        j = int(entering[0])
        r = leaving_row(tab[:-1, j], tab[:-1, -1], basis)
        if r is None:
            raise Unbounded(f"column {j} can grow without bound")
        tab[r] /= tab[r, j]
        column = tab[:, j].copy()
        column[r] = 0.0
        tab -= np.outer(column, tab[r])
        basis[r] = j
        since += 1
    x = np.zeros(cols)
    x[basis] = tab[:-1, -1]
    y = np.linalg.solve(data[:, basis].T, c[basis])
    return x, y, basis


class PluginProgram:
    """The plug-in objective of one kernel and a (t, s) pair that
    `plugin_route` accepts, maximized by minorize-maximize over the
    cutting-plane linear program.

    Build once per kernel; `maximize(lam)` carries rows across the steps and
    starts of one lambda only, so results do not depend on the grid.  A row
    holds for every rule, so rows found under one cost vector stay valid
    under any other.
    """

    def __init__(self, kernel: AtomKernel, space: CovariateSpace,
                 t: TargetFunctional, s: SimilarityMeasure):
        if not plugin_route(t, s):
            raise ValueError(f"({t.kind}, {s.kind}) has no plug-in program")
        self.kernel, self.space, self.t, self.s = kernel, space, t, s
        nx, k = self.shape = (len(space.x_levels), space.k)
        self.size = nx * k
        self.simplex_rows = np.kron(np.eye(nx), np.ones(k))  # sum_i p(x, i) = 1
        self.signs = (1.0,) if s.kind == "one-sided-ks" else (1.0, -1.0)
        self.mean, self.starts = None, [DecisionRule.uniform(space)]
        if t.kind == "mean":  # the population mean per rule entry, the mean's gradient
            self.mean = self.slot_sum(kernel.mass * kernel.grid[kernel.g] * kernel.pz[kernel.z])
        else:
            self.starts += [DecisionRule.singleton(space, i) for i in space.treatments]
        self._tangents = {}

    def tangent(self, probs: np.ndarray) -> np.ndarray:
        """Gradient per rule entry of the target at probs.

        The mean is linear, so its gradient is the population mean per rule
        entry whatever probs is.  Gini-welfare is (g_0 + sum_j (1 - F_j)^2
        dg_j) / 2 on the grid, and an atom at grid index g enters F_j for
        every j >= g with weight pz mass, so its entry gains
        -pz mass sum_{g <= j < G-1} (1 - F_j) dg_j.  It is computed once per
        probs bytes and kept read-only.
        """
        if self.mean is not None:
            return self.mean
        key = probs.tobytes()
        grad = self._tangents.get(key)
        if grad is None:
            kernel = self.kernel
            pop = kernel.pz @ kernel.group_cdfs(probs.ravel())
            tail = np.zeros(kernel.grid.size)
            tail[:-1] = np.cumsum(((1.0 - pop[:-1]) * kernel.steps)[::-1])[::-1]
            grad = self.slot_sum(-kernel.pz[kernel.z] * kernel.mass * tail[kernel.g])
            grad.flags.writeable = False
            self._tangents[key] = grad
        return grad

    def slot_sum(self, weights: np.ndarray) -> np.ndarray:
        """Per rule entry, the sum of the kernel's atoms' weights (in grid order)."""
        return np.bincount(self.kernel.slot, weights, minlength=self.size)

    def cuts(self, f: np.ndarray, t_value: float, seen: set) -> list:
        """The rows to add at a relaxed solution with group CDFs f and
        epigraph value t_value: per active group z and sign, the most
        violated row, sign * slot_sum(w_z * phi) with phi the mask
        g <= point at the peak of sign (F_z - F) (KS) or y (|mean
        difference|), if it exceeds t_value by more than CUT_TOL and its
        key (z, point, sign) is not yet in seen, which gains it."""
        kernel = self.kernel
        by_mean = self.s.kind == "abs-target-diff"
        diff = f[kernel.active] - kernel.pz @ f
        if by_mean:  # one mean difference per group
            diff = (np.diff(diff, axis=1, prepend=0.0) @ kernel.grid)[:, None]
        rows = []
        for zj, d in zip(kernel.active.tolist(), diff):
            for sign in self.signs:
                point = int(np.argmax(sign * d))
                key = (zj, point, sign)
                if sign * d[point] - t_value > CUT_TOL and key not in seen:
                    seen.add(key)
                    phi = kernel.grid[kernel.g] if by_mean else kernel.g <= point
                    weights = kernel.mass * ((kernel.z == zj) - kernel.pz[kernel.z])
                    rows.append(sign * self.slot_sum(weights * phi))
        return rows

    def _solve_relaxation(self, cost: np.ndarray, lam: float, rows: list):
        """(probs, t, bound) of the program with these rows only."""
        nx, k = self.shape
        size, ncut = self.size, len(rows)
        a = np.zeros((nx + ncut, size + 1 + ncut))
        a[:nx, :size] = self.simplex_rows
        b = np.zeros(nx + ncut)
        b[:nx] = 1.0
        c = np.zeros(size + 1 + ncut)
        c[:size] = cost
        c[size] = -lam
        best = np.argmax(c[:size].reshape(nx, k), axis=1) + k * np.arange(nx)
        basis = list(best) + list(range(size + 1, size + 1 + ncut))
        if ncut:
            a[nx:, :size] = rows
            a[nx:, size] = -1.0
            np.fill_diagonal(a[nx:, size + 1:], 1.0)
            values = a[nx:, best].sum(axis=1)
            top = int(np.argmax(values))
            if values[top] > 0.0:
                basis[nx + top] = size
        x, y, _ = simplex(a, b, c, basis)
        probs = np.maximum(x[:size].reshape(nx, k), 0.0)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs, x[size], float(b @ y)

    def solve(self, cost: np.ndarray, lam: float, rows: list, seen: set):
        """(probs, bound) of max cost.p - lam t over every row.

        rows and seen (the keys of the rows in rows) start as the rows known
        so far and gain the rows this solve adds.  The group CDFs at each
        relaxation's solution find the violated rows when lam > 0.
        """
        while True:
            probs, t_value, bound = self._solve_relaxation(cost, lam, rows)
            # at lam = 0 the penalty has no weight
            added = lam > 0.0 and self.cuts(self.kernel.group_cdfs(probs.ravel()), t_value, seen)
            if not added:
                return probs, bound
            rows += added  # in place: the caller's rows gain them

    def maximize(self, lam: float) -> OptimResult:
        """The best maximizer at lam found by minorize-maximize.

        Gini-welfare starts from the uniform and the K deterministic rules,
        in that order (ties go to the earlier start); a step is taken only
        if it gains, and a start stops once a step gains at most MM_TOL or
        after MM_MAX_STEPS steps.  converged then means that no start hit
        the cap, and gap is None.  The mean's tangent is the mean itself, so
        one step from the (unevaluated) uniform rule is the exact maximum:
        gap is the certified distance from value up to the last relaxation's
        bound, and converged means gap <= GAP_TOL.

        Repeated solves, tangents and group CDFs are replayed, not redone
        (see the module docstring), so evaluations counts the group CDFs the
        kernel actually computed during the call (`AtomKernel.computations`),
        for objective values, relaxed solutions and tangent points alike.
        Raises NonFiniteObjective when the kernel value is NaN or infinite.
        """
        linear = self.mean is not None
        objective = CountingObjective(lambda probs: self.kernel.value(probs, lam, self.t, self.s))
        rows, seen, solved = [], set(), {}
        made = self.kernel.computations
        converged = True
        best, best_value = None, -np.inf
        for rule in self.starts:
            value = -np.inf if linear else objective(rule.probs)
            for _ in range(1 if linear else MM_MAX_STEPS):
                cost = (1.0 - lam) * self.tangent(rule.probs)
                key = cost.tobytes()
                replay = solved.get((key, len(rows)))
                if replay is None:
                    probs, bound = self.solve(cost, lam, rows, seen)
                    step = DecisionRule(self.space, probs)
                    # keyed on the row count after the solve: a rerun from those rows ends here
                    replay = solved[key, len(rows)] = step, objective(step.probs), bound
                step, step_value, bound = replay
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
        return OptimResult(best, best_value, self.kernel.computations - made, converged, gap)
