import numpy as np
import pytest

from fairpolicy import (
    CovariateSpace,
    NonFiniteObjective,
    OptimizerConfig,
    SimilarityMeasure,
    TargetFunctional,
    ToyParams,
    d1,
    fit_plugin,
    maximize,
    toy_cond_array,
    toy_objective,
    toy_sample,
)
from fairpolicy.optimizer import _initial_simplex, _nelder_mead
from helpers import check_optimizer_feasibility, random_rule


def toy_analytic_obj(lam, p=0.75):
    return lambda probs: toy_objective(float(probs[0, 0]), ToyParams(p, lam))


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert (cfg.restarts, cfg.candidate_starts, cfg.max_iters) == (1, 50, 500)
        assert cfg.ftol == 1e-8

    @pytest.mark.parametrize("kwargs", [
        {"restarts": 0}, {"candidate_starts": 0}, {"max_iters": 0}, {"ftol": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)


class TestRandomRule:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        space = CovariateSpace(("a", "b"), ("z",), 4)
        for _ in range(50):
            rule = random_rule(space, rng)
            assert np.allclose(rule.probs.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(rule.probs >= 0)

    def test_first_coordinate_uniform_for_k2(self):
        # Dirichlet(1,1) marginal is U(0,1); one-sample KS test at the 1% level
        rng = np.random.default_rng(5)
        space = CovariateSpace(("a",), ("z",), 2)
        draws = np.sort([random_rule(space, rng).probs[0, 0] for _ in range(10_000)])
        n = draws.size
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(np.abs(ecdf_hi - draws).max(), np.abs(draws - ecdf_lo).max())
        assert ks < 1.628 / np.sqrt(n)

    def test_seeded_reproducibility(self):
        space = CovariateSpace(("a", "b"), ("z",), 3)
        a = random_rule(space, np.random.default_rng(42))
        b = random_rule(space, np.random.default_rng(42))
        assert np.array_equal(a.probs, b.probs)


class TestMaximize:
    def test_recovers_interior_target_rule(self):
        space = CovariateSpace(("a", "b", "c"), ("u", "v"), 3)
        target = random_rule(space, np.random.default_rng(11))
        res = maximize(lambda p: -np.abs(p - target.probs).sum(), space, OptimizerConfig(seed=2))
        assert d1(res.rule, target) <= 1e-3

    def test_toy_unpenalized_argmax(self):
        space = toy_cond_array(0.75, 10).space
        res = maximize(toy_analytic_obj(0.0), space, OptimizerConfig(seed=5))
        assert abs(res.rule.probs[0, 0] - 0.0) < 0.01

    def test_toy_penalized_argmax(self):
        space = toy_cond_array(0.75, 10).space
        res = maximize(toy_analytic_obj(0.5), space, OptimizerConfig(seed=5))
        assert abs(res.rule.probs[0, 0] - 0.5) < 0.02

    def test_value_is_reevaluated_at_rule(self):
        space = CovariateSpace(("a",), ("z",), 2)
        obj = toy_analytic_obj(0.3)
        res = maximize(obj, space, OptimizerConfig(seed=7))
        assert res.value == obj(res.rule.probs)

    def test_value_dominates_candidate_starts(self):
        space = CovariateSpace(("a", "b"), ("u",), 3)
        rng = np.random.default_rng(13)
        target = random_rule(space, rng)
        obj = lambda p: -np.abs(p - target.probs).sum()
        cfg = OptimizerConfig(seed=17, candidate_starts=25)
        res = maximize(obj, space, cfg)
        rng2 = np.random.default_rng(np.random.SeedSequence(entropy=17, spawn_key=(0,)))
        starts = [obj(random_rule(space, rng2).probs) for _ in range(25)]
        assert res.value >= max(starts)

    def test_deterministic_given_seed(self):
        sample = toy_sample(1000, 0.75, "A1", seed=3)
        arr = fit_plugin(sample)
        t, s = TargetFunctional("gini-welfare"), SimilarityMeasure("ks")
        obj = lambda p: arr.kernel.value(p, 0.4, t, s)
        a = maximize(obj, arr.space, OptimizerConfig(seed=21))
        b = maximize(obj, arr.space, OptimizerConfig(seed=21))
        assert np.array_equal(a.rule.probs, b.rule.probs)
        assert a.value == b.value and a.evaluations == b.evaluations

    def test_monotone_restarts(self):
        sample = toy_sample(500, 0.75, "A2", seed=9)
        arr = fit_plugin(sample)
        t, s = TargetFunctional("gini-welfare"), SimilarityMeasure("ks")
        obj = lambda p: arr.kernel.value(p, 0.6, t, s)
        values = [
            maximize(obj, arr.space, OptimizerConfig(seed=31, restarts=r)).value
            for r in (1, 2, 4)
        ]
        assert values[0] <= values[1] <= values[2]

    def test_feasibility_of_every_probe(self):
        assert check_optimizer_feasibility(seed=0) > 0

    @pytest.mark.parametrize("nx", [1, 3, 5])
    def test_concave_quadratic_recovery(self, nx):
        space = CovariateSpace(tuple(f"x{i}" for i in range(nx)), ("z",), 2)
        targets = np.linspace(0.2, 0.8, nx)

        def obj(probs):
            return -float(((probs[:, 0] - targets) ** 2).sum())

        res = maximize(obj, space, OptimizerConfig(seed=4))
        assert 0.0 - res.value <= 1e-6

    def test_non_finite_objective_raises(self):
        space = CovariateSpace(("a",), ("z",), 2)
        with pytest.raises(NonFiniteObjective):
            maximize(lambda p: float("nan"), space, OptimizerConfig(seed=1))

    def test_block_coordinate_mode(self):
        # (K-1)*|X| = 42 > 40 forces cyclic block sweeps
        nx = 42
        space = CovariateSpace(tuple(f"x{i}" for i in range(nx)), ("z",), 2)
        targets = np.linspace(0.1, 0.9, nx)

        def obj(probs):
            return -float(((probs[:, 0] - targets) ** 2).sum())

        res = maximize(obj, space, OptimizerConfig(seed=6, max_iters=200, candidate_starts=5))
        assert 0.0 - res.value <= 1e-6


def _counted(fun):
    calls = []

    def wrapped(x):
        calls.append(None)
        return fun(x)

    return wrapped, calls


def _quadratic(x):
    weights = np.arange(1, x.size + 1)
    return float((weights * (x - 0.3) ** 2).sum())


def _kinked(x):
    # L-inf norm: collapses the simplex by shrinks
    return float(np.abs(x - 0.1).max())


def _plateaued(x):
    # piecewise constant: whole faces of the simplex tie in value
    return float(np.abs(np.round(4 * x) / 4 - 0.5).sum())


class TestNelderMeadOracle:
    """_nelder_mead against scipy.optimize.minimize(method="Nelder-Mead")."""

    @staticmethod
    def both(fun, dim, max_iters, ftol, seed):
        from scipy.optimize import minimize

        x0 = np.random.default_rng(seed).normal(size=dim)
        ours, our_calls = _counted(fun)
        x, success = _nelder_mead(ours, x0.copy(), max_iters, ftol)
        theirs, their_calls = _counted(fun)
        ref = minimize(theirs, x0.copy(), method="Nelder-Mead", options={
            "maxiter": max_iters, "maxfev": 4 * max_iters, "fatol": ftol,
            "xatol": 1e-6, "initial_simplex": _initial_simplex(x0), "adaptive": False,
        })
        assert x.tobytes() == ref.x.tobytes()
        assert success == ref.success
        assert len(our_calls) == len(their_calls) == ref.nfev
        return success, len(our_calls), ref.nit

    @pytest.mark.parametrize("dim", [1, 3, 16, 41])
    @pytest.mark.parametrize("fun", [_quadratic, _kinked, _plateaued])
    def test_bitwise_agreement(self, dim, fun):
        for seed in range(3):
            self.both(fun, dim, 500, 1e-8, seed)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_smooth_quadratic_stops_on_tolerances(self, dim):
        success, _, _ = self.both(_quadratic, dim, 2000, 1e-10, 0)
        assert success

    def test_plateau_stops_on_exact_ties(self):
        # fatol=0 stops only once every vertex value equals the best one
        success, _, _ = self.both(_plateaued, 3, 2000, 0.0, 0)
        assert success

    def test_stopped_by_evaluation_budget(self):
        # the shrinks of a 16-dim plateaued run exhaust 4 * max_iters first
        success, evals, nit = self.both(_plateaued, 16, 60, 1e-12, 1)
        assert not success and evals == 240 and nit < 60

    def test_stopped_by_iteration_budget(self):
        success, evals, nit = self.both(_quadratic, 3, 25, 1e-12, 2)
        assert not success and evals < 100 and nit == 25

    def test_initial_vertices_exceed_budget(self):
        # 42 initial vertices against a budget of 4 calls
        success, evals, _ = self.both(_quadratic, 41, 1, 1e-8, 3)
        assert not success and evals == 4
