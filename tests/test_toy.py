import numpy as np
import pytest

from fairpolicy import (
    DecisionRule,
    SimilarityMeasure,
    TargetFunctional,
    ToyParams,
    fit_plugin,
    omega,
    toy_argmax,
    toy_cdf_g,
    toy_cdf_h,
    toy_cond_array,
    toy_max_value,
    toy_objective,
    toy_sample,
    toy_threshold,
)
from fairpolicy.toy import PENALTY_SCALE
from helpers import grid_value
from oracles import target_value

GINI = TargetFunctional("gini-welfare")
KS = SimilarityMeasure("ks")
P = 0.75


class TestCdfs:
    def test_g_values(self):
        assert toy_cdf_g(0.25) == 0.5
        assert toy_cdf_g(0.0) == 0.0
        assert toy_cdf_g(1.0) == 1.0

    def test_h_values(self):
        assert toy_cdf_h(0.5) == 0.25
        assert toy_cdf_h(0.0) == 0.0
        assert toy_cdf_h(1.0) == 1.0

    def test_clamping(self):
        assert toy_cdf_g(-1.0) == 0.0
        assert toy_cdf_h(2.0) == 1.0


class TestPenaltyScale:
    def test_matches_numeric_maximization(self):
        ys = np.linspace(0.0, 1.0, 400001)[1:-1]
        assert abs(float((ys * (1 - ys**3)).max()) - PENALTY_SCALE) < 1e-8

    def test_penalty_magnitude_at_zero(self):
        # lam = 1, delta = 0: objective is minus the full penalty p * scale
        assert toy_objective(0.0, ToyParams(P, 1.0)) == pytest.approx(-P * PENALTY_SCALE)


class TestObjective:
    def test_lambda_one_at_half_is_zero(self):
        assert toy_objective(0.5, ToyParams(P, 1.0)) == 0.0

    def test_unpenalized_at_half_is_8956th(self):
        # the (1-2p)^2 and p(1-p) terms cancel: value is 89/560 for every p
        for p in (0.6, 0.75, 0.9):
            assert toy_objective(0.5, ToyParams(p, 0.0)) == pytest.approx(89.0 / 560.0)

    def test_max_value_equals_objective_at_argmax(self):
        for lam in (0.0, 0.05, 0.123, 0.2, 0.7, 1.0):
            params = ToyParams(P, lam)
            best = max(toy_objective(d, params) for d in toy_argmax(params))
            assert toy_max_value(params) == pytest.approx(best, abs=1e-12)


class TestThreshold:
    def test_value_near_0123(self):
        assert abs(toy_threshold(0.75) - 0.123) < 1e-3

    def test_in_unit_interval_across_p(self):
        for p in np.linspace(0.51, 0.99, 50):
            assert 0.0 < toy_threshold(float(p)) < 1.0

    def test_branch_equality_at_threshold(self):
        c = toy_threshold(P)
        params = ToyParams(P, c)
        assert abs(toy_objective(0.0, params) - toy_objective(0.5, params)) < 1e-10

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            toy_threshold(0.5)


class TestArgmax:
    def test_branches(self):
        c = toy_threshold(P)
        assert toy_argmax(ToyParams(P, 0.0)) == (0.0,)
        assert toy_argmax(ToyParams(P, c)) == (0.0, 0.5)
        assert toy_argmax(ToyParams(P, 1.0)) == (0.5,)

    def test_non_singleton_only_at_threshold(self):
        c = toy_threshold(P)
        for lam in np.linspace(0, 1, 101):
            expected = 2 if lam == c else 1
            assert len(toy_argmax(ToyParams(P, float(lam)))) == expected


class TestMaxValue:
    def test_zero_at_lambda_one(self):
        assert toy_max_value(ToyParams(P, 1.0)) == 0.0

    def test_continuity_at_threshold(self):
        c = toy_threshold(P)
        below = toy_max_value(ToyParams(P, c))
        above = (89.0 / 560.0) * (1.0 - c)
        assert abs(below - above) < 1e-10

    def test_matches_brute_force_grid(self):
        deltas = np.linspace(0.0, 1.0, 10001)
        for lam in (0.0, 0.08, 0.123, 0.1234, 0.5, 0.95):
            params = ToyParams(P, lam)
            grid_max = max(toy_objective(float(d), params) for d in deltas)
            assert abs(toy_max_value(params) - grid_max) < 1e-6

    def test_convex_with_kink_at_threshold(self):
        lams = np.linspace(0.0, 1.0, 101)
        vals = np.array([toy_max_value(ToyParams(P, float(l))) for l in lams])
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert np.all(second >= -1e-12)  # convex
        c = toy_threshold(P)
        left = (toy_max_value(ToyParams(P, c)) - toy_max_value(ToyParams(P, c - 1e-6))) / 1e-6
        right = (toy_max_value(ToyParams(P, c + 1e-6)) - toy_max_value(ToyParams(P, c))) / 1e-6
        assert right - left > 0.1  # kink: slopes genuinely differ


class TestSampler:
    def test_group_frequency(self):
        sample = toy_sample(100_000, P, "A1", seed=1)
        frac_majority = float(np.mean(sample.zi == 0))
        assert abs(frac_majority - P) < 0.01

    def test_a1_assignment_rates(self):
        sample = toy_sample(100_000, P, "A1", seed=2)
        majority = sample.zi == 0
        frac_d1_majority = float(np.mean(sample.d[majority] == 1))
        frac_d1_minority = float(np.mean(sample.d[~majority] == 1))
        assert abs(frac_d1_majority - 0.25) < 0.01
        assert abs(frac_d1_minority - 0.75) < 0.01

    def test_a2_reverses_assignment(self):
        sample = toy_sample(50_000, P, "A2", seed=3)
        majority = sample.zi == 0
        assert abs(float(np.mean(sample.d[majority] == 1)) - 0.75) < 0.02

    def test_cell_outcomes_follow_g(self):
        sample = toy_sample(100_000, P, "A1", seed=4)
        arr = fit_plugin(sample)
        ys = np.linspace(0, 1, 2001)
        f = arr.cdf[(1, "0", "0")]
        assert np.abs(f.eval_many(ys) - np.sqrt(ys)).max() < 0.02

    def test_seeded_determinism(self):
        a = toy_sample(100, P, "A1", seed=9)
        b = toy_sample(100, P, "A1", seed=9)
        assert np.array_equal(a.ys, b.ys) and np.array_equal(a.d, b.d)

    def test_rejects_bad_mechanism(self):
        with pytest.raises(ValueError):
            toy_sample(10, P, "A3", seed=0)


class TestCondArray:
    def test_gini_of_discretized_g(self):
        arr = toy_cond_array(P, 2000)
        assert abs(target_value(GINI, arr.cdf[(1, "0", "0")]) - 1.0 / 12.0) < 0.002

    def test_ks_between_discretized_g_and_h(self):
        arr = toy_cond_array(P, 2000)
        got = grid_value(KS, arr.cdf[(1, "0", "0")], arr.cdf[(2, "0", "0")])
        ys = np.linspace(0, 1, 200001)
        analytic = float((np.sqrt(ys) - ys**2).max())
        assert abs(got - analytic) < 0.002

    def test_pxz_sums_to_one(self):
        arr = toy_cond_array(P, 100)
        assert sum(arr.pxz.values()) == pytest.approx(1.0, abs=1e-12)

    def test_omega_agreement_grid(self):
        # objective-module evaluation vs closed form, 21 x 5 grid
        arr = toy_cond_array(P, 2000)
        worst = 0.0
        for lam in np.linspace(0, 1, 5):
            for delta in np.linspace(0, 1, 21):
                rule = DecisionRule(arr.space, np.array([[delta, 1 - delta]]))
                got = omega(rule, arr, float(lam), GINI, KS)
                want = toy_objective(float(delta), ToyParams(P, float(lam)))
                worst = max(worst, abs(got - want))
        assert worst < 0.01


class TestToyParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ToyParams(0.4, 0.5)
        with pytest.raises(ValueError):
            ToyParams(0.75, 1.5)
