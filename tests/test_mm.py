"""Minorize-maximize for Gini-welfare with a linear penalty (`lp.PluginProgram`)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fairpolicy import (
    DecisionRule,
    LambdaGrid,
    OptimizerConfig,
    SimilarityMeasure,
    SupportInterval,
    TargetFunctional,
    ToyParams,
    sweep,
    toy_argmax,
    toy_cond_array,
    toy_sample,
    toy_threshold,
)
from fairpolicy.estimation import fit_plugin
from fairpolicy.lp import PluginProgram
from fairpolicy.objective import AtomKernel
from helpers import UNIT, random_cond_array
from oracles import mm_reference

GINI = TargetFunctional("gini-welfare")
MEAN = TargetFunctional("mean")
KS = SimilarityMeasure("ks")
SIMILARITIES = [SimilarityMeasure.parse(s) for s in ("ks", "one-sided-ks", "abs-target-diff:mean")]

seeds = st.integers(0, 2**32 - 1)
mm_settings = settings(max_examples=40, deadline=None, derandomize=True)


def starts(space):
    return [DecisionRule.uniform(space)] + [DecisionRule.singleton(space, i)
                                           for i in space.treatments]


@mm_settings
@given(seed=seeds, s=st.sampled_from(SIMILARITIES), lam=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       support=st.sampled_from([UNIT, SupportInterval(-2.0, 3.0)]))
def test_steps_never_lower_the_value_and_the_result_beats_every_start(seed, s, lam, support):
    arr = random_cond_array(np.random.default_rng(seed), support=support)
    kernel = arr.kernel
    program = PluginProgram(kernel, arr.space, GINI, s)

    def value(probs):
        return kernel.value(probs, lam, GINI, s)

    rows, seen = [], set()
    for start in starts(arr.space):
        probs, current = start.probs, value(start.probs)
        for _ in range(6):
            cost = (1.0 - lam) * program.tangent(probs)
            probs = DecisionRule(arr.space, program.solve(cost, lam, rows, seen)[0]).probs
            stepped = value(probs)
            assert stepped >= current - 1e-12
            current = max(current, stepped)
    res = program.maximize(lam)
    assert res.value == value(res.rule.probs)
    assert all(res.value >= value(start.probs) for start in starts(arr.space))
    assert res.converged and res.gap is None


@mm_settings
@given(seed=seeds, s=st.sampled_from(SIMILARITIES))
def test_tangent_is_the_gradient(seed, s):
    arr = random_cond_array(np.random.default_rng(seed))
    kernel = arr.kernel
    program = PluginProgram(kernel, arr.space, GINI, s)
    rng = np.random.default_rng(seed)
    p0 = rng.dirichlet(np.ones(arr.space.k), size=len(arr.space.x_levels))
    p1 = rng.dirichlet(np.ones(arr.space.k), size=len(arr.space.x_levels))
    g0, g1 = (kernel.value(p, 0.0, GINI, s) for p in (p0, p1))
    # the tangent plane of a convex function lies below it and touches it at p0
    assert g1 >= g0 + program.tangent(p0) @ (p1 - p0).ravel() - 1e-12
    eps = 1e-6
    mid = kernel.value(p0 + eps * (p1 - p0), 0.0, GINI, s)
    assert abs((mid - g0) / eps - program.tangent(p0) @ (p1 - p0).ravel()) <= 1e-5


@pytest.mark.parametrize("p", [0.6, 0.75, 0.9])
def test_recovers_the_toy_argmax(p):
    arr = toy_cond_array(p, 400)
    c = toy_threshold(p)
    program = PluginProgram(arr.kernel, arr.space, GINI, SimilarityMeasure("ks"))
    for lam in (0.0, c / 2.0, (c + 1.0) / 2.0, 1.0):
        (delta,) = toy_argmax(ToyParams(p, lam))
        res = program.maximize(lam)
        assert abs(float(res.rule.probs[0, 0]) - delta) <= 1e-9, lam
    at_c = float(program.maximize(c).rule.probs[0, 0])
    assert min(abs(at_c - d) for d in toy_argmax(ToyParams(p, c))) <= 1e-9


def test_rows_carry_over_within_one_lambda_only(monkeypatch):
    arr = random_cond_array(np.random.default_rng(5))
    program = PluginProgram(arr.kernel, arr.space, GINI, SimilarityMeasure("ks"))
    calls = []
    solve = PluginProgram.solve

    def recorded(self, cost, lam, rows, seen):
        calls.append((lam, id(rows), len(rows)))
        return solve(self, cost, lam, rows, seen)

    monkeypatch.setattr(PluginProgram, "solve", recorded)
    for lam in (0.5, 0.8):
        program.maximize(lam)
    for lam in (0.5, 0.8):
        mine = [(key, size) for at, key, size in calls if at == lam]
        assert len({key for key, _ in mine}) == 1  # one row list for every step and start
        sizes = [size for _, size in mine]
        assert sizes[0] == 0 and sizes == sorted(sizes) and sizes[-1] > 0


def test_a_step_that_lowers_the_value_is_not_taken(monkeypatch):
    arr = random_cond_array(np.random.default_rng(8))
    s = SimilarityMeasure("ks")
    program = PluginProgram(arr.kernel, arr.space, GINI, s)
    values = [arr.kernel.value(start.probs, 0.5, GINI, s) for start in starts(arr.space)]
    worst = starts(arr.space)[int(np.argmin(values))].probs
    # a solver that always lands on the worst start
    monkeypatch.setattr(PluginProgram, "solve", lambda *args: (worst.copy(), 0.0))
    res = program.maximize(0.5)
    assert res.value == max(values)
    assert np.array_equal(res.rule.probs, starts(arr.space)[int(np.argmax(values))].probs)


def test_sweep_ignores_the_optimizer_settings():
    sample = toy_sample(600, 0.75, "A1", seed=4)
    grid = LambdaGrid.uniform(4)
    for s in SIMILARITIES:
        paths = [sweep(sample, grid, GINI, s, cfg) for cfg in (
            OptimizerConfig(seed=1),
            OptimizerConfig(seed=99, restarts=3, candidate_starts=2, max_iters=1, ftol=0.5),
        )]
        for a, b in zip(*(p.entries for p in paths)):
            assert a.obj_value == b.obj_value
            assert np.array_equal(a.rule.probs, b.rule.probs)
            assert a.gap is None and a.converged and a.evaluations > 0


def assert_replays(program: PluginProgram, lams) -> None:
    """program.maximize at each lam in turn (its memo carrying over) equals
    the loop without replay on a fresh program, with no more kernel calls."""
    for lam in lams:
        res = program.maximize(lam)
        fresh = PluginProgram(program.kernel, program.space, program.t, program.s)
        ref, _ = mm_reference(fresh, lam)
        assert res.rule.probs.tobytes() == ref.rule.probs.tobytes(), lam
        assert (res.value, res.converged, res.gap) == (ref.value, ref.converged, ref.gap), lam
        assert res.evaluations <= ref.evaluations, lam


@mm_settings
@given(seed=seeds, t=st.sampled_from([GINI, MEAN]), s=st.sampled_from(SIMILARITIES),
       lams=st.permutations([0.0, 0.3, 0.7, 1.0]),
       support=st.sampled_from([UNIT, SupportInterval(-2.0, 3.0)]))
# a solve replayed after later rows were added would end 2.8e-17 lower here
@example(seed=124, t=GINI, s=SIMILARITIES[1], lams=[0.3, 0.0, 0.7, 1.0], support=UNIT)
def test_replay_matches_the_loop_without_it(seed, t, s, lams, support):
    arr = random_cond_array(np.random.default_rng(seed), support=support)
    assert_replays(PluginProgram(arr.kernel, arr.space, t, s), lams)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=seeds, n=st.sampled_from([100, 1000]), mechanism=st.sampled_from(["A1", "A2"]))
def test_replay_matches_the_loop_without_it_on_toy_samples(seed, n, mechanism):
    sample = toy_sample(n, 0.75, mechanism, seed)
    assert_replays(PluginProgram(fit_plugin(sample).kernel, sample.space, GINI, KS),
                   LambdaGrid.uniform(4))


def test_replay_skips_repeated_solves(monkeypatch):
    sample = toy_sample(1000, 0.75, "A1", seed=7)
    kernel, grid = fit_plugin(sample).kernel, LambdaGrid.uniform(4)
    without = sum(mm_reference(PluginProgram(kernel, sample.space, GINI, KS), lam)[1]
                  for lam in grid)
    program = PluginProgram(kernel, sample.space, GINI, KS)
    solves = []
    solve = PluginProgram.solve

    def counted(self, *args):
        solves.append(args[1])
        return solve(self, *args)

    monkeypatch.setattr(PluginProgram, "solve", counted)
    for lam in grid:
        program.maximize(lam)
    assert len(solves) < without
    probs = DecisionRule.uniform(sample.space).probs
    f = kernel.group_cdfs(probs.ravel())
    assert kernel.group_cdfs(probs.ravel()) is f
    with pytest.raises(ValueError):
        f[0, 0] = 0.5
    assert program.tangent(probs) is program.tangent(probs)


def test_no_computation_repeats_the_one_before(monkeypatch):
    # each step's value, its tangent and the sweep's scores read the CDFs the
    # kernel computed last when the probs bytes are equal
    sample = toy_sample(1000, 0.75, "A1", seed=7)
    group_cdfs = AtomKernel.group_cdfs
    computed, last = [], [None]

    def recorded(self, probs_flat):
        f = group_cdfs(self, probs_flat)
        if f is not last[0]:  # a new array: the kernel computed it
            computed.append(probs_flat.tobytes())
        last[0] = f
        return f

    monkeypatch.setattr(AtomKernel, "group_cdfs", recorded)
    for t in (GINI, MEAN):
        computed.clear()
        sweep(sample, LambdaGrid.uniform(4), t, KS, OptimizerConfig())
        assert len(computed) > 1
        assert all(a != b for a, b in zip(computed, computed[1:])), t.kind
