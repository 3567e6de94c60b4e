import numpy as np
import pytest

from fairpolicy import (
    CovariateSpace,
    DecisionRule,
    OutOfSupport,
    PropensityModel,
    SimilarityMeasure,
    SupportInterval,
    TargetFunctional,
    TrainingRecord,
    TrainingSample,
    ZeroPropensity,
    empirical_pz,
    fit_plugin,
    gini_welfare,
    omega,
    step_cdf_from_samples,
    toy_propensity,
    toy_sample,
)
from fairpolicy.estimation import ipw_kernel
from helpers import UNIT, random_training_sample
from oracles import (
    estimated_propensities,
    implied_cdf,
    ipw_group_cdf,
    ipw_group_raw,
    ks_distance,
    mixture,
    toy_group_cdf_value,
)

GINI = TargetFunctional("gini-welfare")
KS = SimilarityMeasure("ks")


def small_space():
    return CovariateSpace(("x0",), ("z0", "z1"), 2)


def uniform_prop(space):
    e = {
        (i, x, z): 1.0 / space.k
        for i in space.treatments
        for x in space.x_levels
        for z in space.z_levels
    }
    nz = len(space.z_levels)
    return PropensityModel(e, {z: 1.0 / nz for z in space.z_levels})


class TestTrainingSample:
    def test_records_roundtrip(self):
        space = small_space()
        recs = [
            TrainingRecord(0.5, "x0", "z0", 1),
            TrainingRecord(0.25, "x0", "z1", 2),
        ]
        sample = TrainingSample.from_records(recs, UNIT, space=space)
        assert sample.records == tuple(recs)

    def test_rejects_out_of_support(self):
        with pytest.raises(OutOfSupport):
            TrainingSample.from_columns([1.5], ["a"], ["u"], [1], UNIT)

    def test_rejects_bad_treatment(self):
        space = small_space()
        with pytest.raises(ValueError):
            TrainingSample.from_columns([0.5], ["x0"], ["z0"], [3], UNIT, space=space)

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            TrainingSample.from_columns([0.5], ["weird"], ["z0"], [1], UNIT, space=small_space())

    def test_levels_by_first_appearance_and_default_k(self):
        sample = TrainingSample.from_columns(
            [0.1, 0.2, 0.3], ["b", "a", "b"], ["v", "v", "u"], [1, 1, 1], UNIT
        )
        assert sample.space.x_levels == ("b", "a")
        assert sample.space.z_levels == ("v", "u")
        assert sample.space.k == 2  # at least two treatments even if only d=1 observed

    def test_nonempty_required(self):
        with pytest.raises(ValueError):
            TrainingSample.from_columns([], [], [], [], UNIT)


class TestFitPlugin:
    def test_single_cell_sample(self):
        space = small_space()
        ys = [0.1, 0.4, 0.4, 0.9]
        sample = TrainingSample.from_columns(ys, ["x0"] * 4, ["z0"] * 4, [1] * 4, UNIT, space=space)
        arr = fit_plugin(sample)
        assert ks_distance(arr.cdf[(1, "x0", "z0")], step_cdf_from_samples(ys, UNIT)) == 0.0
        for cell in [(2, "x0", "z0"), (1, "x0", "z1"), (2, "x0", "z1")]:
            assert arr.cdf[cell].atoms == [(1.0, 1.0)]
        assert arr.pxz[("x0", "z0")] == 1.0

    def test_one_record_per_cell(self):
        space = small_space()
        sample = TrainingSample.from_columns(
            [0.1, 0.2, 0.3, 0.4],
            ["x0"] * 4,
            ["z0", "z0", "z1", "z1"],
            [1, 2, 1, 2],
            UNIT,
            space=space,
        )
        arr = fit_plugin(sample)
        assert arr.cdf[(1, "x0", "z0")].atoms == [(0.1, 1.0)]
        assert arr.cdf[(2, "x0", "z0")].atoms == [(0.2, 1.0)]
        assert arr.cdf[(1, "x0", "z1")].atoms == [(0.3, 1.0)]
        assert arr.cdf[(2, "x0", "z1")].atoms == [(0.4, 1.0)]
        assert arr.pxz[("x0", "z0")] == 0.5

    def test_toy_cell_recovers_analytic_cdf(self):
        sample = toy_sample(10_000, 0.75, "A1", seed=5)
        arr = fit_plugin(sample)
        f = arr.cdf[(1, "0", "0")]
        ys = np.linspace(0, 1, 1001)
        assert np.abs(f.eval_many(ys) - np.sqrt(ys)).max() < 0.05

    def test_fuzz_output_satisfies_array_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            sample = random_training_sample(rng)
            arr = fit_plugin(sample)  # CondCdfArray validates on construction
            assert abs(sum(arr.pxz.values()) - 1.0) < 1e-9
            assert set(arr.cdf) == {
                (i, x, z)
                for i in sample.space.treatments
                for x in sample.space.x_levels
                for z in sample.space.z_levels
            }

    def test_deterministic(self):
        sample = toy_sample(500, 0.75, "A2", seed=9)
        a1, a2 = fit_plugin(sample), fit_plugin(sample)
        for cell in a1.cdf:
            assert np.array_equal(a1.cdf[cell].points, a2.cdf[cell].points)
            assert np.array_equal(a1.cdf[cell].masses, a2.cdf[cell].masses)
        assert a1.pxz == a2.pxz

    def test_pooled_rule_reproduces_raw_ecdf(self):
        """Law of total probability: with cell counts whose treatment split is
        constant in z within each x (and no empty cells), the implied cdf under
        the observed-assignment-frequency rule is the raw empirical cdf."""
        rng = np.random.default_rng(13)
        space = CovariateSpace(("a", "b"), ("u", "v"), 3)
        ys, xs, zs, ds = [], [], [], []
        splits = {"a": (2, 1, 1), "b": (1, 2, 1)}  # per-4-records treatment counts
        sizes = {("a", "u"): 4, ("a", "v"): 8, ("b", "u"): 12, ("b", "v"): 4}
        for (x, z), size in sizes.items():
            reps = size // 4
            for i, count in enumerate(splits[x], start=1):
                for _ in range(count * reps):
                    ys.append(float(rng.random()))
                    xs.append(x)
                    zs.append(z)
                    ds.append(i)
        sample = TrainingSample.from_columns(ys, xs, zs, ds, UNIT, space=space)
        arr = fit_plugin(sample)
        probs = np.array([np.array(splits[x]) / 4.0 for x in space.x_levels])
        pooled = DecisionRule(space, probs)
        raw = step_cdf_from_samples(ys, UNIT)
        assert ks_distance(implied_cdf(pooled, arr), raw) < 1e-9


class TestEmpiricalPz:
    def test_single_group(self):
        space = small_space()
        sample = TrainingSample.from_columns([0.5], ["x0"], ["z0"], [1], UNIT, space=space)
        assert empirical_pz(sample) == {"z0": 1.0, "z1": 0.0}

    def test_three_of_four(self):
        space = small_space()
        sample = TrainingSample.from_columns(
            [0.1, 0.2, 0.3, 0.4], ["x0"] * 4, ["z0", "z0", "z0", "z1"], [1, 1, 2, 2], UNIT,
            space=space,
        )
        pz = empirical_pz(sample)
        assert pz == {"z0": 0.75, "z1": 0.25}
        assert sum(pz.values()) == 1.0


class TestPropensityModel:
    def test_rejects_nonpositive(self):
        with pytest.raises(ZeroPropensity):
            PropensityModel({(1, "x", "z"): 0.0, (2, "x", "z"): 1.0}, {"z": 1.0})

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            PropensityModel({(1, "x", "z"): 0.3, (2, "x", "z"): 0.3}, {"z": 1.0})


class TestIpwGroupCdf:
    def test_uniform_weights_collapse_to_group_ecdf(self):
        # uniform rule and uniform propensities: increments are exactly 1/n
        space = CovariateSpace(("x0",), ("z0",), 2)
        prop = PropensityModel(
            {(1, "x0", "z0"): 0.5, (2, "x0", "z0"): 0.5}, {"z0": 1.0}
        )
        rng = np.random.default_rng(17)
        ys = rng.random(50)
        sample = TrainingSample.from_columns(
            ys, ["x0"] * 50, ["z0"] * 50, rng.integers(1, 3, 50), UNIT, space=space
        )
        out = ipw_group_cdf(sample, DecisionRule.uniform(space), "z0", prop)
        assert ks_distance(out, step_cdf_from_samples(ys, UNIT)) < 1e-12

    def test_single_record_hand_computed(self):
        # one record, delta_1 = 1, e = 0.5, pz = 0.5: raw jump 1/(1*0.5*0.5) = 4
        space = small_space()
        sample = TrainingSample.from_columns([0.5], ["x0"], ["z0"], [1], UNIT, space=space)
        prop = uniform_prop(space)
        rule = DecisionRule(space, np.array([[1.0, 0.0]]))
        raw = ipw_group_raw(sample, rule, "z0", prop)
        assert raw.eval(0.5) == 4.0
        assert raw.eval(0.4999) == 0.0
        cdf = ipw_group_cdf(sample, rule, "z0", prop)
        assert cdf.eval(0.4999) == 0.0
        assert cdf.eval(0.5) == 1.0

    def test_monte_carlo_mean_matches_analytic_group_cdf(self):
        # E f = group cdf at the cutoff; single large draw within 0.01
        p, delta, c = 0.75, 0.4, 0.5
        sample = toy_sample(100_000, p, "A1", seed=23)
        rule = DecisionRule(sample.space, np.array([[delta, 1.0 - delta]]))
        raw = ipw_group_raw(sample, rule, "0", toy_propensity(p, "A1"))
        assert abs(raw.eval(c) - toy_group_cdf_value(delta, "0", c)) < 0.01

    def test_unbiasedness_over_resamples(self):
        # mean of the pre-projection estimate within 3 SE of the analytic value
        p, delta, c, z = 0.75, 0.3, 0.5, "0"
        prop = toy_propensity(p, "A1")
        rng_seeds = range(200)
        vals = []
        for seed in rng_seeds:
            sample = toy_sample(2000, p, "A1", seed=seed)
            rule = DecisionRule(sample.space, np.array([[delta, 1.0 - delta]]))
            vals.append(ipw_group_raw(sample, rule, z, prop).eval(c))
        vals = np.array(vals)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - toy_group_cdf_value(delta, z, c)) < 3.0 * se

    def test_missing_propensity_raises(self):
        space = small_space()
        sample = TrainingSample.from_columns([0.5], ["x0"], ["z0"], [1], UNIT, space=space)
        prop = PropensityModel(
            {(1, "x0", "z1"): 0.5, (2, "x0", "z1"): 0.5}, {"z0": 0.5, "z1": 0.5}
        )
        rule = DecisionRule.uniform(space)
        with pytest.raises(ZeroPropensity):
            ipw_group_raw(sample, rule, "z0", prop)
        with pytest.raises(ZeroPropensity):
            ipw_kernel(sample, prop)


class TestIpwObjective:
    def test_lambda_zero_is_target_of_weighted_mixture(self):
        p = 0.75
        sample = toy_sample(2000, p, "A1", seed=31)
        prop = toy_propensity(p, "A1")
        rule = DecisionRule(sample.space, np.array([[0.3, 0.7]]))
        groups = {z: ipw_group_cdf(sample, rule, z, prop) for z in ("0", "1")}
        pop = mixture([(groups["0"], p), (groups["1"], 1 - p)])
        got = ipw_kernel(sample, prop).value(rule.probs, 0.0, GINI, KS)
        assert abs(got - gini_welfare(pop)) < 1e-12

    def test_identical_group_estimates_no_penalty(self):
        # one record per group with the same outcome: both projections coincide
        space = small_space()
        sample = TrainingSample.from_columns(
            [0.5, 0.5], ["x0", "x0"], ["z0", "z1"], [1, 1], UNIT, space=space
        )
        prop = uniform_prop(space)
        rule = DecisionRule(space, np.array([[1.0, 0.0]]))
        val = ipw_kernel(sample, prop).value(rule.probs, 1.0, GINI, KS)
        assert val == 0.0

    def test_agreement_with_plugin_at_desk_scale(self):
        p = 0.75
        sample = toy_sample(10_000, p, "A1", seed=37)
        arr = fit_plugin(sample)
        prop = toy_propensity(p, "A1")
        for delta in np.linspace(0, 1, 5):
            rule = DecisionRule(sample.space, np.array([[delta, 1 - delta]]))
            a = ipw_kernel(sample, prop).value(rule.probs, 0.3, GINI, KS)
            b = omega(rule, arr, 0.3, GINI, KS)
            assert abs(a - b) < 0.05


class TestIpwObjectiveEstimated:
    def test_balanced_design_has_near_uniform_propensities(self):
        space = small_space()
        rng = np.random.default_rng(41)
        n = 4000
        sample = TrainingSample(
            space, UNIT, rng.random(n),
            np.zeros(n, dtype=np.intp), rng.integers(0, 2, n), rng.integers(1, 3, n),
        )
        e_hat, _ = estimated_propensities(sample)
        assert np.abs(e_hat - 0.5).max() < 0.05

    def test_agreement_with_known_propensities(self):
        p = 0.75
        sample = toy_sample(10_000, p, "A1", seed=43)
        prop = toy_propensity(p, "A1")
        for delta in (0.0, 0.5, 1.0):
            rule = DecisionRule(sample.space, np.array([[delta, 1 - delta]]))
            a = ipw_kernel(sample, prop).value(rule.probs, 0.3, GINI, KS)
            b = omega(rule, fit_plugin(sample), 0.3, GINI, KS)
            assert abs(a - b) < 0.05

    def test_single_record_sample_finite(self):
        space = small_space()
        sample = TrainingSample.from_columns([0.5], ["x0"], ["z0"], [1], UNIT, space=space)
        e_hat, pz_hat = estimated_propensities(sample)
        assert e_hat[0, 0, 0] == 1.0
        rule = DecisionRule.uniform(space)
        assert np.isfinite(omega(rule, fit_plugin(sample), 0.5, GINI, KS))
