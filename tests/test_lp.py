"""The cutting-plane simplex against HiGHS, Nelder-Mead and closed forms,
and the mean target's one-step `lp.PluginProgram`.

The reference program is built cell by cell from the array's StepCdfs (not
from the atom kernel) and solved densely, with every grid row, by
`scipy.optimize.linprog(method="highs")`.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from fairpolicy import (
    LambdaGrid,
    OptimizerConfig,
    SimilarityMeasure,
    SupportInterval,
    TargetFunctional,
    TrainingSample,
    fit_plugin,
    maximize,
    sweep,
    toy_sample,
)
from fairpolicy import lp
from fairpolicy.functionals import plugin_route
from fairpolicy.lp import PluginProgram, Unbounded, leaving_row, simplex
from helpers import UNIT, random_cond_array, random_space
from oracles import target_value

MEAN = TargetFunctional("mean")
SIMILARITIES = [SimilarityMeasure.parse(s) for s in ("ks", "one-sided-ks", "abs-target-diff:mean")]

seeds = st.integers(0, 2**32 - 1)
lp_settings = settings(max_examples=40, deadline=None, derandomize=True)


def highs_value(arr, lam, s) -> float:
    """Optimal value of the dense program with every row, by HiGHS."""
    space = arr.space
    nx, k = len(space.x_levels), space.k
    grid = np.unique(np.concatenate([c.points for c in arr.cdf.values()] + [[arr.support.b]]))
    groups = [z for z in space.z_levels if arr.p_z(z) > 0.0]
    pop, m = np.zeros((grid.size, nx * k)), np.zeros(nx * k)
    cdfs = {z: np.zeros((grid.size, nx * k)) for z in groups}
    means = {z: np.zeros(nx * k) for z in groups}
    for (i, x, z), cdf in arr.cdf.items():
        col = space.x_index[x] * k + i - 1
        w = arr.pxz[(x, z)]
        values = cdf.eval_many(grid)
        pop[:, col] += w * values
        m[col] += w * target_value(MEAN, cdf)
        if z in cdfs:
            cdfs[z][:, col] += w / arr.p_z(z) * values
            means[z][col] += w / arr.p_z(z) * target_value(MEAN, cdf)
    if s.kind == "abs-target-diff":
        rows = np.vstack([means[z] - m for z in groups])
    else:
        rows = np.vstack([cdfs[z] - pop for z in groups])
    if s.kind != "one-sided-ks":
        rows = np.vstack([rows, -rows])
    res = linprog(
        np.append(-(1.0 - lam) * m, lam),
        A_ub=np.hstack([rows, -np.ones((rows.shape[0], 1))]),
        b_ub=np.zeros(rows.shape[0]),
        A_eq=np.hstack([np.kron(np.eye(nx), np.ones((1, k))), np.zeros((nx, 1))]),
        b_eq=np.ones(nx),
        bounds=[(0.0, None)] * (nx * k + 1),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return -float(res.fun)


def gridded_array(rng, support):
    """The array fitted from a sample of 2 to 60 records whose y lie on a 0.1
    or 0.01 grid: cells share points and some are empty, so the KS rows of
    neighbouring grid points are near-parallel (a highly degenerate program)."""
    space = random_space(rng)
    n = int(rng.integers(2, 61))
    ys = np.round(rng.uniform(support.a, support.b, n), int(rng.integers(1, 3)))
    return fit_plugin(TrainingSample(space, support, ys, rng.integers(0, len(space.x_levels), n),
                                     rng.integers(0, len(space.z_levels), n),
                                     rng.integers(1, space.k + 1, n)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=seeds, s=st.sampled_from(SIMILARITIES), lam=st.sampled_from([0.0, 0.3, 1.0]),
       support=st.sampled_from([UNIT, SupportInterval(-2.0, 3.0)]), gridded=st.booleans())
def test_matches_highs_beats_nelder_mead_and_certifies(seed, s, lam, support, gridded):
    # a gridded (degenerate) array is solved at every lambda of the 0.25 grid
    rng = np.random.default_rng(seed)
    arr = gridded_array(rng, support) if gridded else random_cond_array(rng, support=support)
    program = PluginProgram(arr.kernel, arr.space, MEAN, s)
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0) if gridded else (lam,):
        res = program.maximize(lam)
        assert abs(res.value - highs_value(arr, lam, s)) <= 1e-9
        assert res.value == arr.kernel.value(res.rule.probs, lam, MEAN, s)
        assert res.gap <= 1e-9 and res.converged
        nm = maximize(lambda probs: arr.kernel.value(probs, lam, MEAN, s), arr.space,
                      OptimizerConfig(seed=seed, candidate_starts=10, max_iters=100))
        assert res.value >= nm.value - 1e-12


@lp_settings
@given(seed=seeds, s=st.sampled_from(SIMILARITIES))
def test_unpenalized_rule_is_the_per_x_best_treatment(seed, s):
    rng = np.random.default_rng(seed)
    arr = random_cond_array(rng)
    space = arr.space
    means = np.array([
        [sum(arr.pxz[(x, z)] * target_value(MEAN, arr.cdf[(i, x, z)]) for z in space.z_levels)
         for i in space.treatments]
        for x in space.x_levels
    ])
    res = PluginProgram(arr.kernel, space, MEAN, s).maximize(0.0)
    assert np.array_equal(res.rule.probs, np.eye(space.k)[np.argmax(means, axis=1)])
    assert res.evaluations == 1


def test_beale_cycling_example_terminates(monkeypatch):
    # Beale (1955): the largest-coefficient rule cycles here from the slack basis
    calls = []

    def counted(*args):
        calls.append(1)
        assert len(calls) < 50, "simplex is cycling"
        return leaving_row(*args)

    monkeypatch.setattr(lp, "leaving_row", counted)
    a = np.array([[1, 0, 0, 0.25, -8, -1, 9],
                  [0, 1, 0, 0.5, -12, -0.5, 3],
                  [0, 0, 1, 0, 0, 1, 0]])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([0, 0, 0, 0.75, -20, 0.5, -6])
    x, y, _ = simplex(a, b, c, [0, 1, 2])
    assert np.allclose(x, [0.75, 0, 0, 1, 0, 1, 0], atol=1e-12)
    assert abs(b @ y - 1.25) <= 1e-12 and abs(c @ x - 1.25) <= 1e-12


def test_ratio_ties_go_to_the_lowest_basic_variable():
    column = np.array([1.0, 2.0, 1.0, 4.0])
    rhs = np.array([1.0, 0.0, 0.0, 0.0])
    assert leaving_row(column, rhs, [0, 5, 3, 4]) == 2
    assert leaving_row(column, rhs, [0, 3, 5, 4]) == 1
    assert leaving_row(-column, rhs, [0, 1, 2, 3]) is None


def test_unbounded_program_raises():
    # max x1 subject to x1 - x2 = 0
    with pytest.raises(Unbounded):
        simplex(np.array([[1.0, -1.0]]), np.array([0.0]), np.array([1.0, 0.0]), [1])


def test_refactoring_undoes_the_round_off_of_a_tiny_pivot():
    # the first pivot is on 1e-8 (degenerate row); a tableau only ever
    # updated by pivoting keeps an error of about 3e-9 in the final solution
    a = np.array([[1e-8, -0.3, 1, 0, 0], [0.7, 0.1, 0, 1, 0], [0, 1 / 3, 0, 0, 1]])
    b = np.array([0.0, 1.0, 1.0])
    c = np.array([1.0, 1.0, 0, 0, 0])
    x, y, basis = simplex(a, b, c, [2, 3, 4])
    assert sorted(basis) == [0, 1, 2]
    assert np.allclose(x, [1.0, 3.0, 0.9 - 1e-8, 0, 0], rtol=0, atol=1e-13)
    assert abs(b @ y - 4.0) <= 1e-13


def test_round_off_entries_are_not_pivoted_on():
    # a relaxation (40 simplex rows, 279 cuts) of mean + KS at lambda = 1 on
    # a 20,000-row sample with |X| = 40 and K = 4: when every entry above an
    # absolute 1e-9 could be a pivot, Bland's pivots took entries that
    # round-off had lifted off zero, and a refactorization met a singular basis
    data = np.load(Path(__file__).with_name("singular_basis_lp.npz"))
    a, b, c = data["a"], data["b"], data["c"]
    x, y, _ = simplex(a, b, c, list(data["basis"]))
    res = linprog(-c, A_eq=a, b_eq=b, bounds=(0.0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    assert abs(c @ x + res.fun) <= 1e-9 and abs(b @ y + res.fun) <= 1e-9
    assert np.abs(a @ x - b).max() <= 1e-12 and x.min() >= 0.0


def test_route_predicate_and_program_misuse():
    gini = TargetFunctional("gini-welfare")
    ks = SimilarityMeasure("ks")
    assert all(plugin_route(t, s) for t in (MEAN, gini) for s in SIMILARITIES)
    off_route = [
        (MEAN, SimilarityMeasure.parse("abs-target-diff:gini-welfare")),
        (gini, SimilarityMeasure.parse("abs-target-diff:quantile:0.5")),
        (TargetFunctional.parse("quantile:0.5"), ks),
    ]
    for t, s in off_route:
        assert not plugin_route(t, s)
        with pytest.raises(ValueError, match="has no plug-in program"):
            PluginProgram(None, None, t, s)


def test_sweep_solves_mean_targets_exactly_and_ignores_the_optimizer_flags():
    sample = toy_sample(500, 0.75, "A2", seed=9)
    grid = LambdaGrid.uniform(4)
    s = SimilarityMeasure("ks")
    paths = [sweep(sample, grid, MEAN, s, cfg) for cfg in
             (OptimizerConfig(seed=1), OptimizerConfig(seed=2, max_iters=3, restarts=2))]
    for a, b in zip(*(p.entries for p in paths)):
        assert a.obj_value == b.obj_value
        assert np.array_equal(a.rule.probs, b.rule.probs)
    arr = fit_plugin(sample)
    for lam, entry in zip(grid, paths[0].entries):
        assert abs(entry.obj_value - highs_value(arr, lam, s)) <= 1e-9
