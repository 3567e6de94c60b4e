import inspect
import math

import numpy as np
import pytest

from fairpolicy import (
    DecisionRule,
    InvalidBudget,
    LambdaGrid,
    LambdaNotOnGrid,
    LambdaPath,
    NonUniformGrid,
    OptimizerConfig,
    PathEntry,
    SimilarityMeasure,
    TargetFunctional,
    ToyParams,
    budget_slack,
    delta_n,
    fit_plugin,
    interpolate_linear,
    interpolate_value,
    lip_m,
    select_lambda_budget,
    sweep,
    toy_max_value,
    toy_sample,
)
from fairpolicy.toy import toy_space
from oracles import implied_cdf, implied_cdf_group, ks_distance

GINI = TargetFunctional("gini-welfare")
KS = SimilarityMeasure("ks")


def synthetic_path(grid_values, target_values, obj_values=None, n=1000):
    """LambdaPath with prescribed diagnostics and placeholder rules."""
    space = toy_space()
    rule = DecisionRule.uniform(space)
    obj_values = obj_values if obj_values is not None else target_values
    entries = tuple(
        PathEntry(rule, float(o), float(t), {"0": 0.0, "1": 0.0}, 0.0)
        for o, t in zip(obj_values, target_values)
    )
    return LambdaPath(LambdaGrid(tuple(grid_values)), entries, n)


class TestLambdaGrid:
    def test_uniform(self):
        grid = LambdaGrid.uniform(4)
        assert grid.values == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert grid.uniform_m() == 4

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            LambdaGrid((0.1, 0.5))

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            LambdaGrid((0.0, 0.5, 0.5))

    def test_non_uniform_detection(self):
        with pytest.raises(NonUniformGrid):
            LambdaGrid((0.0, 0.3, 1.0)).uniform_m()
        with pytest.raises(NonUniformGrid):
            LambdaGrid((0.0, 0.5)).uniform_m()  # does not end at 1

    def test_index_of(self):
        grid = LambdaGrid.uniform(49)
        assert grid.index_of(2 / 49) == 2
        with pytest.raises(LambdaNotOnGrid):
            grid.index_of(0.1234)


class TestSweep:
    def test_singleton_grid_collapses_to_target(self):
        sample = toy_sample(400, 0.75, "A1", seed=1)
        path = sweep(sample, LambdaGrid((0.0,)), GINI, KS, OptimizerConfig(seed=3))
        assert len(path.entries) == 1
        entry = path.entry(0.0)
        assert entry.obj_value == pytest.approx(entry.target_value, abs=1e-9)

    def test_desk_scale_phase_transition(self):
        # penalization reduces estimated unfairness: maximal at 0, small at 1
        sample = toy_sample(4000, 0.75, "A1", seed=5)
        path = sweep(sample, LambdaGrid.uniform(4), GINI, KS, OptimizerConfig(seed=7))
        assert path.entry(0.0).max_unfairness > path.entry(1.0).max_unfairness

    def test_deltas_zero_at_origin(self):
        sample = toy_sample(400, 0.75, "A2", seed=9)
        path = sweep(sample, LambdaGrid((0.0, 0.5)), GINI, KS, OptimizerConfig(seed=11))
        assert delta_n(path, 0.0) == 0.0

    def test_diagnostics_rederivable_from_rule_and_array(self):
        sample = toy_sample(600, 0.75, "A1", seed=13)
        arr = fit_plugin(sample)
        path = sweep(sample, LambdaGrid((0.0, 0.4, 1.0)), GINI, KS, OptimizerConfig(seed=13))
        for lam in path.grid:
            e = path.entry(lam)
            # objective and diagnostics come from one kernel
            assert e.obj_value == (1.0 - lam) * e.target_value - lam * e.max_unfairness
            pop = implied_cdf(e.rule, arr)
            assert e.target_value == pytest.approx(GINI.value(pop), abs=1e-9)
            for z, u in e.unfairness.items():
                assert u == pytest.approx(
                    ks_distance(implied_cdf_group(e.rule, arr, z), pop), abs=1e-9
                )
            assert e.max_unfairness == max(e.unfairness.values())

    def test_bitwise_reproducible(self):
        sample = toy_sample(500, 0.75, "A1", seed=17)
        cfg = OptimizerConfig(seed=19)
        p1 = sweep(sample, LambdaGrid.uniform(2), GINI, KS, cfg)
        p2 = sweep(sample, LambdaGrid.uniform(2), GINI, KS, cfg)
        for e1, e2 in zip(p1.entries, p2.entries):
            assert np.array_equal(e1.rule.probs, e2.rule.probs)
            assert e1.obj_value == e2.obj_value

    def test_entries_keep_the_solver_telemetry(self):
        sample = toy_sample(400, 0.75, "A2", seed=27)
        grid = LambdaGrid((0.0, 0.5))
        cfg = OptimizerConfig(seed=29, candidate_starts=5, max_iters=40)
        routes = {
            "mean": TargetFunctional("mean"),  # linear program: certified gap
            "gini": GINI,  # minorize-maximize: no certificate
            "quantile": TargetFunctional.parse("quantile:0.3"),  # Nelder-Mead
        }
        for name, t in routes.items():
            for e in sweep(sample, grid, t, KS, cfg).entries:
                assert e.evaluations > 0 and isinstance(e.converged, bool)
                if name == "mean":
                    assert e.converged and -1e-12 <= e.gap <= 1e-9
                else:
                    assert e.gap is None


    def test_sweep_has_one_estimator(self):
        # every sweep runs on the fitted array's plug-in kernel: there is no
        # estimator to choose and no propensity model to pass
        params = inspect.signature(sweep).parameters
        assert "estimator" not in params and "propensity" not in params
        sample = toy_sample(50, 0.75, "A1", seed=25)
        with pytest.raises(TypeError):
            sweep(sample, LambdaGrid((0.0,)), GINI, KS, OptimizerConfig(seed=1),
                  estimator="plugin")

class TestDeltaN:
    def test_zero_at_zero(self):
        path = synthetic_path((0.0, 0.5), (0.3, 0.2))
        assert delta_n(path, 0.0) == 0.0

    def test_reported_application_drop(self):
        # target 0.072 at lambda=0 vs 0.0696 at the chosen lambda: drop 0.0024
        path = synthetic_path((0.0, 0.5), (0.072, 0.0696))
        assert delta_n(path, 0.5) == pytest.approx(0.0024, abs=1e-12)

    def test_monotone_targets_give_monotone_deltas(self):
        targets = (0.3, 0.25, 0.2, 0.12)
        path = synthetic_path((0.0, 0.2, 0.5, 1.0), targets)
        deltas = [delta_n(path, lam) for lam in path.grid]
        assert all(b >= a for a, b in zip(deltas, deltas[1:]))

    def test_off_grid_raises(self):
        path = synthetic_path((0.0, 0.5), (0.3, 0.2))
        with pytest.raises(LambdaNotOnGrid):
            delta_n(path, 0.25)


class TestBudgetSelection:
    def test_slack_formula_recomputation(self):
        # natural-log formula; the paper reports ~0.041 for n = 5099
        assert abs(budget_slack(5099) - 0.0409171) < 1e-6
        assert abs(budget_slack(5099) - 0.041) < 1e-3

    def test_selection_threshold_and_choice(self):
        path = synthetic_path((0.0, 0.25, 0.5, 0.75), (0.10, 0.098, 0.094, 0.080), n=5099)
        sel = select_lambda_budget(path, beta=0.005)
        assert sel.c_n == budget_slack(5099)
        assert sel.threshold == pytest.approx(0.005 * (1 - sel.c_n))
        # deltas: 0, 0.002, 0.006, 0.020 -> largest under ~0.0048 is lambda=0.25
        assert sel.chosen_lambda == 0.25
        assert sel.deltas[0.0] == 0.0
        assert sel.deltas[sel.chosen_lambda] <= sel.threshold

    def test_all_within_budget_chooses_max(self):
        path = synthetic_path((0.0, 0.5, 1.0), (0.10, 0.0999, 0.0998), n=4000)
        sel = select_lambda_budget(path, beta=0.05)
        assert sel.chosen_lambda == 1.0

    def test_huge_beta_chooses_max(self):
        path = synthetic_path((0.0, 0.3, 0.9), (0.5, 0.1, -0.2), n=100)
        assert select_lambda_budget(path, beta=10.0).chosen_lambda == 0.9

    def test_only_origin_feasible(self):
        path = synthetic_path((0.0, 0.5, 1.0), (0.10, 0.05, 0.04), n=1000)
        assert select_lambda_budget(path, beta=0.005).chosen_lambda == 0.0

    def test_invalid_budget(self):
        path = synthetic_path((0.0, 0.5), (0.1, 0.05))
        for beta in (0.0, -1.0, float("nan")):
            with pytest.raises(InvalidBudget):
                select_lambda_budget(path, beta)

    def test_negative_deltas_not_clamped(self):
        # estimation can make the penalized policy look better at the target
        path = synthetic_path((0.0, 0.5), (0.10, 0.11), n=1000)
        sel = select_lambda_budget(path, beta=0.005)
        assert sel.deltas[0.5] == pytest.approx(-0.01)
        assert sel.chosen_lambda == 0.5

    def test_underestimation_mechanism(self):
        """If estimated deltas are within beta * c_n of the truth, the chosen
        lambda never exceeds the oracle choice at budget beta."""
        rng = np.random.default_rng(31)
        grid = tuple(np.linspace(0.0, 1.0, 9))
        beta = 0.05
        for n in (500, 2000, 10_000):
            c_n = budget_slack(n)
            for _ in range(50):
                true_deltas = np.concatenate([[0.0], np.sort(rng.uniform(0, 0.15, 8))])
                noise = rng.uniform(-1, 1, 9) * beta * c_n * 0.999
                noise[0] = 0.0
                est_targets = 0.5 - (true_deltas + noise)
                est_path = synthetic_path(grid, est_targets, n=n)
                sel = select_lambda_budget(est_path, beta)
                oracle = max(l for l, d in zip(grid, true_deltas) if d <= beta)
                assert sel.chosen_lambda <= oracle


class TestInterpolation:
    def test_exact_at_grid_points(self):
        vals = np.array([0.0, 0.3, 0.1, 0.7, 0.2])
        for i, lam in enumerate(np.linspace(0, 1, 5)):
            assert lip_m(vals, float(lam)) == vals[i]

    def test_linear_segment(self):
        assert lip_m([0.0, 1.0], 0.25) == 0.25

    def test_monotone_between_grid_points(self):
        vals = [0.0, 0.5, 0.4]
        xs = np.linspace(0.0, 0.5, 101)
        ys = [lip_m(vals, float(x)) for x in xs]
        assert all(b >= a for a, b in zip(ys, ys[1:]))

    def test_preserves_convexity(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            m = 8
            slopes = np.sort(rng.uniform(-1, 1, m))
            vals = np.concatenate([[0.0], np.cumsum(slopes / m)])
            lams = np.linspace(0, 1, 201)
            ys = np.array([lip_m(vals, float(l)) for l in lams])
            second = ys[:-2] - 2 * ys[1:-1] + ys[2:]
            assert np.all(second >= -1e-12)

    def test_toy_value_function_error_bound(self):
        values = [toy_max_value(ToyParams(0.75, i / 49)) for i in range(50)]
        rng = np.random.default_rng(41)
        worst = max(
            abs(lip_m(values, float(lam)) - toy_max_value(ToyParams(0.75, float(lam))))
            for lam in rng.uniform(0, 1, 200)
        )
        assert worst <= 0.05

    def test_interpolate_value_requires_uniform_grid(self):
        path = synthetic_path((0.0, 0.3, 1.0), (0.3, 0.2, 0.1))
        with pytest.raises(NonUniformGrid):
            interpolate_value(path, 0.5)

    def test_interpolate_value_on_path(self):
        path = synthetic_path(tuple(np.linspace(0, 1, 5)), (0.3, 0.25, 0.2, 0.1, 0.0),
                              obj_values=(0.3, 0.28, 0.2, 0.15, 0.1))
        assert interpolate_value(path, 0.25) == 0.28
        assert interpolate_value(path, 0.375) == pytest.approx((0.28 + 0.2) / 2)

    def test_empirical_value_function_tracks_truth(self):
        # LIP of a real sweep's objective values vs the analytic value function
        sample = toy_sample(10_000, 0.75, "A1", seed=43)
        path = sweep(sample, LambdaGrid.uniform(9), GINI, KS, OptimizerConfig(seed=47))
        rng = np.random.default_rng(53)
        worst = max(
            abs(interpolate_value(path, float(l)) - toy_max_value(ToyParams(0.75, float(l))))
            for l in rng.uniform(0, 1, 100)
        )
        assert worst <= 0.05

    def test_generic_interpolation(self):
        assert interpolate_linear([0.0, 0.4, 1.0], [0.0, 2.0, 1.0], 0.2) == 1.0
        with pytest.raises(ValueError):
            interpolate_linear([0.0, 1.0], [0.0, 1.0], 1.5)
