import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairpolicy import (
    DecisionRule,
    InvalidBudget,
    LambdaGrid,
    LambdaPath,
    OptimizerConfig,
    PathEntry,
    SimilarityMeasure,
    TargetFunctional,
    ToyParams,
    budget_slack,
    fit_plugin,
    select_lambda_budget,
    sweep,
    toy_max_value,
    toy_sample,
)
from fairpolicy.toy import toy_space
from fairpolicy.functionals import plugin_route
from oracles import implied_cdf, implied_cdf_group, ks_distance, similarity_value, target_value

GINI = TargetFunctional("gini-welfare")
KS = SimilarityMeasure("ks")
TARGETS = ["mean", "gini-welfare", "quantile:0.3"]
PENALTIES = ["ks", "one-sided-ks", "abs-target-diff:mean", "abs-target-diff:gini-welfare",
             "abs-target-diff:quantile:0.5"]


def synthetic_path(grid_values, target_values, n=1000):
    """LambdaPath with prescribed diagnostics and placeholder rules."""
    space = toy_space()
    rule = DecisionRule.uniform(space)
    entries = tuple(
        PathEntry(rule, float(t), float(t), {"0": 0.0, "1": 0.0}, 0.0) for t in target_values
    )
    return LambdaPath(LambdaGrid(tuple(grid_values)), entries, n)


class TestLambdaGrid:
    def test_uniform(self):
        grid = LambdaGrid.uniform(4)
        assert grid.values == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            LambdaGrid((0.1, 0.5))

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            LambdaGrid((0.0, 0.5, 0.5))


class TestSweep:
    def test_singleton_grid_collapses_to_target(self):
        sample = toy_sample(400, 0.75, "A1", seed=1)
        path = sweep(sample, LambdaGrid((0.0,)), GINI, KS, OptimizerConfig(seed=3))
        assert len(path.entries) == 1
        entry = path.entries[0]
        assert entry.obj_value == pytest.approx(entry.target_value, abs=1e-9)

    def test_desk_scale_phase_transition(self):
        # penalization reduces estimated unfairness: maximal at 0, small at 1
        sample = toy_sample(4000, 0.75, "A1", seed=5)
        path = sweep(sample, LambdaGrid.uniform(4), GINI, KS, OptimizerConfig(seed=7))
        assert path.entries[0].max_unfairness > path.entries[-1].max_unfairness

    def test_objective_values_track_the_value_function(self):
        # a real sweep's objective values vs the analytic value function
        sample = toy_sample(10_000, 0.75, "A1", seed=43)
        path = sweep(sample, LambdaGrid.uniform(9), GINI, KS, OptimizerConfig(seed=47))
        worst = max(abs(e.obj_value - toy_max_value(ToyParams(0.75, lam)))
                    for lam, e in zip(path.grid, path.entries))
        assert worst <= 0.05

    def test_deltas_zero_at_origin(self):
        sample = toy_sample(400, 0.75, "A2", seed=9)
        path = sweep(sample, LambdaGrid((0.0, 0.5)), GINI, KS, OptimizerConfig(seed=11))
        assert select_lambda_budget(path, 1.0).deltas[0.0] == 0.0

    def test_diagnostics_rederivable_from_rule_and_array(self):
        sample = toy_sample(600, 0.75, "A1", seed=13)
        arr = fit_plugin(sample)
        path = sweep(sample, LambdaGrid((0.0, 0.4, 1.0)), GINI, KS, OptimizerConfig(seed=13))
        for lam, e in zip(path.grid, path.entries):
            # objective and diagnostics come from one kernel
            assert e.obj_value == (1.0 - lam) * e.target_value - lam * e.max_unfairness
            pop = implied_cdf(e.rule, arr)
            assert e.target_value == pytest.approx(target_value(GINI, pop), abs=1e-9)
            for z, u in e.unfairness.items():
                assert u == pytest.approx(
                    ks_distance(implied_cdf_group(e.rule, arr, z), pop), abs=1e-9
                )
            assert e.max_unfairness == max(e.unfairness.values())

    @pytest.mark.parametrize("s", PENALTIES)
    @pytest.mark.parametrize("t", TARGETS)
    def test_every_objective_rederives_from_rule_and_array(self, t, s):
        # each solver route reports the kernel's terms for the rule it returns
        sample = toy_sample(300, 0.75, "A2", seed=31)
        arr = fit_plugin(sample)
        cfg = OptimizerConfig(seed=37, candidate_starts=4, max_iters=40)
        t, s = TargetFunctional.parse(t), SimilarityMeasure.parse(s)
        path = sweep(sample, LambdaGrid((0.0, 0.5, 1.0)), t, s, cfg)
        for lam, e in zip(path.grid, path.entries):
            assert np.allclose(e.rule.probs.sum(axis=1), 1.0) and e.rule.probs.min() >= 0.0
            want = (1.0 - lam) * e.target_value - lam * e.max_unfairness
            assert e.obj_value == pytest.approx(want, abs=1e-9)
            pop = implied_cdf(e.rule, arr)
            assert e.target_value == pytest.approx(target_value(t, pop), abs=1e-9)
            for z, u in e.unfairness.items():
                group = implied_cdf_group(e.rule, arr, z)
                assert u == pytest.approx(similarity_value(s, group, pop), abs=1e-9)
            assert e.max_unfairness == max(e.unfairness.values())
            # only the linear program certifies its optimum
            assert (e.gap is not None) == (t.kind == "mean" and plugin_route(t, s))

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
        assert select_lambda_budget(path, 1.0).deltas[0.0] == 0.0

    def test_reported_application_drop(self):
        # target 0.072 at lambda=0 vs 0.0696 at the chosen lambda: drop 0.0024
        path = synthetic_path((0.0, 0.5), (0.072, 0.0696))
        assert select_lambda_budget(path, 1.0).deltas[0.5] == pytest.approx(0.0024, abs=1e-12)

    def test_monotone_targets_give_monotone_deltas(self):
        targets = (0.3, 0.25, 0.2, 0.12)
        path = synthetic_path((0.0, 0.2, 0.5, 1.0), targets)
        deltas = list(select_lambda_budget(path, 1.0).deltas.values())
        assert all(b >= a for a, b in zip(deltas, deltas[1:]))


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


@st.composite
def near_equal_grids(draw):
    """Grids whose neighbours lie 1 ulp to 1e-12 apart, past 0 and, if
    drawn, a jump to the cluster's first value."""
    values = [0.0]
    start = draw(st.floats(0.0, 0.9))
    if start > 0.0:
        values.append(start)
    for _ in range(draw(st.integers(1, 8))):
        ulp = float(np.nextafter(values[-1], 1.0))
        gap = draw(st.none() | st.floats(1e-15, 1e-12))
        values.append(ulp if gap is None else max(values[-1] + gap, ulp))
    return values


def positional_reference(targets, beta, n):
    """(chosen position, drops in path order), by brute force over the
    path's positions."""
    threshold = beta * (1.0 - math.sqrt(math.log(n) / n))
    drops = [targets[0] - t for t in targets]
    return max(i for i, drop in enumerate(drops) if drop <= threshold), drops


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(near_equal_grids(), st.data(), st.floats(1e-6, 2.0), st.integers(2, 10**6))
def test_selection_reads_the_path_by_position(grid, data, beta, n):
    targets = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(grid), max_size=len(grid)))
    path = synthetic_path(grid, targets, n=n)
    sel = select_lambda_budget(path, beta)
    chosen, drops = positional_reference(targets, beta, n)
    assert sel.chosen == chosen
    assert sel.chosen_lambda == grid[chosen]
    assert list(sel.deltas.items()) == list(zip(grid, drops))
