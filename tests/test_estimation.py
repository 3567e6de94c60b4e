import numpy as np
import pytest

from fairpolicy import (
    CovariateSpace,
    DecisionRule,
    OutOfSupport,
    SimilarityMeasure,
    SupportInterval,
    TargetFunctional,
    TrainingSample,
    ToyParams,
    fit_plugin,
    omega,
    toy_objective,
    toy_sample,
)
from fairpolicy.cli import read_sample_csv
from helpers import UNIT, atoms, labelled_sample, random_training_sample
from oracles import (
    estimated_propensities,
    implied_cdf,
    ks_distance,
    step_cdf_from_samples,
    toy_group_cdf_value,
)

GINI = TargetFunctional("gini-welfare")
KS = SimilarityMeasure("ks")


def small_space():
    return CovariateSpace(("x0",), ("z0", "z1"), 2)


def group_cdf_at(arr, rule, j, c):
    """Plug-in CDF of group index j under the rule, evaluated at c."""
    kernel = arr.kernel
    pos = np.searchsorted(kernel.grid, c, side="right") - 1
    return 0.0 if pos < 0 else float(kernel.group_cdfs(rule.probs.ravel())[j, pos])


class TestTrainingSample:
    def test_rejects_out_of_support(self):
        with pytest.raises(OutOfSupport, match="outcome 1.5 at row 1 outside"):
            TrainingSample(small_space(), UNIT, [0.5, 1.5], [0, 0], [0, 1], [1, 2])

    def test_rejects_bad_treatment(self):
        with pytest.raises(ValueError, match="treatment 3 at row 0 outside 1..2"):
            TrainingSample(small_space(), UNIT, [0.5], [0], [0], [3])

    @pytest.mark.parametrize("xi, zi, message", [
        (1, 0, "x index out of range"), (-1, 0, "x index out of range"),
        (0, 2, "z index out of range"), (0, -1, "z index out of range"),
    ], ids=["x-above", "x-below", "z-above", "z-below"])
    def test_rejects_level_index_out_of_range(self, xi, zi, message):
        with pytest.raises(ValueError, match=message):
            TrainingSample(small_space(), UNIT, [0.5], [xi], [zi], [1])

    def test_nonempty_required(self):
        with pytest.raises(ValueError, match="nonempty"):
            TrainingSample(small_space(), UNIT, [], [], [], [])

    def test_levels_by_first_appearance_and_default_k(self, tmp_path):
        # a sample file is the one way a sample gets its levels and K
        path = tmp_path / "s.csv"
        path.write_text("y,x,z,d\n0.1,b,v,1\n0.2,a,v,1\n0.3,b,u,1\n")
        sample = read_sample_csv(str(path), UNIT)
        assert sample.space.x_levels == ("b", "a")
        assert sample.space.z_levels == ("v", "u")
        assert sample.space.k == 2  # at least two treatments even if only d=1 observed
        assert sample.xi.tolist() == [0, 1, 0] and sample.zi.tolist() == [0, 0, 1]


class TestFitPlugin:
    def test_single_cell_sample(self):
        space = small_space()
        ys = [0.1, 0.4, 0.4, 0.9]
        sample = labelled_sample(space, ys, ["x0"] * 4, ["z0"] * 4, [1] * 4)
        arr = fit_plugin(sample)
        assert ks_distance(arr.cdf[(1, "x0", "z0")], step_cdf_from_samples(ys, UNIT)) == 0.0
        for cell in [(2, "x0", "z0"), (1, "x0", "z1"), (2, "x0", "z1")]:
            assert atoms(arr.cdf[cell]) == [(1.0, 1.0)]
        assert arr.pxz[("x0", "z0")] == 1.0

    def test_one_record_per_cell(self):
        space = small_space()
        sample = labelled_sample(space, [0.1, 0.2, 0.3, 0.4], ["x0"] * 4,
                                 ["z0", "z0", "z1", "z1"], [1, 2, 1, 2])
        arr = fit_plugin(sample)
        assert atoms(arr.cdf[(1, "x0", "z0")]) == [(0.1, 1.0)]
        assert atoms(arr.cdf[(2, "x0", "z0")]) == [(0.2, 1.0)]
        assert atoms(arr.cdf[(1, "x0", "z1")]) == [(0.3, 1.0)]
        assert atoms(arr.cdf[(2, "x0", "z1")]) == [(0.4, 1.0)]
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
        sample = labelled_sample(space, ys, xs, zs, ds)
        arr = fit_plugin(sample)
        probs = np.array([np.array(splits[x]) / 4.0 for x in space.x_levels])
        pooled = DecisionRule(space, probs)
        raw = step_cdf_from_samples(ys, UNIT)
        assert ks_distance(implied_cdf(pooled, arr), raw) < 1e-9


class TestGroupMass:
    def test_single_group(self):
        space = small_space()
        sample = labelled_sample(space, [0.5], ["x0"], ["z0"], [1])
        assert fit_plugin(sample).group_mass.tolist() == [1.0, 0.0]

    def test_three_of_four(self):
        space = small_space()
        sample = labelled_sample(space, [0.1, 0.2, 0.3, 0.4], ["x0"] * 4,
                                 ["z0", "z0", "z0", "z1"], [1, 1, 2, 2])
        pz = fit_plugin(sample).group_mass.tolist()
        assert pz == [0.75, 0.25]
        assert sum(pz) == 1.0


class TestPluginGroupCdf:
    def test_balanced_arms_under_uniform_rule_collapse_to_group_ecdf(self):
        # equal arm sizes: the uniform rule's mixture 0.5 F_1 + 0.5 F_2 is the
        # pooled empirical cdf of the group
        space = CovariateSpace(("x0",), ("z0",), 2)
        rng = np.random.default_rng(17)
        ys = rng.random(50)
        sample = labelled_sample(space, ys, ["x0"] * 50, ["z0"] * 50,
                                 rng.permutation(np.repeat([1, 2], 25)))
        kernel = fit_plugin(sample).kernel
        got = kernel.group_cdfs(DecisionRule.uniform(space).probs.ravel())[0]
        want = step_cdf_from_samples(ys, UNIT).eval_many(kernel.grid)
        assert np.abs(got - want).max() < 1e-12

    def test_single_record_hand_computed(self):
        # one record at 0.5 in (d=1, z0): arm 2 of z0 is an empty cell, a point
        # mass at b; group z1 has no mass, so its row is a point mass at b
        space = small_space()
        sample = labelled_sample(space, [0.5], ["x0"], ["z0"], [1])
        kernel = fit_plugin(sample).kernel
        assert kernel.grid.tolist() == [0.5, 1.0]
        treat = kernel.group_cdfs(DecisionRule.singleton(space, 1).probs.ravel())
        assert treat.tolist() == [[1.0, 1.0], [0.0, 1.0]]
        control = kernel.group_cdfs(DecisionRule.singleton(space, 2).probs.ravel())
        assert control.tolist() == [[0.0, 1.0], [0.0, 1.0]]

    def test_toy_group_cdfs_match_analytic_at_scale(self):
        # a single large draw lands within 0.01 of the closed form in both groups
        p, delta, c = 0.75, 0.4, 0.5
        sample = toy_sample(100_000, p, "A1", seed=23)
        arr = fit_plugin(sample)
        rule = DecisionRule(sample.space, np.array([[delta, 1.0 - delta]]))
        for j, z in enumerate(sample.space.z_levels):
            assert abs(group_cdf_at(arr, rule, j, c) - toy_group_cdf_value(delta, z, c)) < 0.01

    def test_unbiasedness_over_resamples(self):
        # with every cell observed each cell ECDF is unbiased, so the mean
        # over resamples lies within 3 SE of the analytic group cdf
        p, delta, c, z = 0.75, 0.3, 0.5, "0"
        vals = []
        for seed in range(200):
            sample = toy_sample(2000, p, "A1", seed=seed)
            rule = DecisionRule(sample.space, np.array([[delta, 1.0 - delta]]))
            vals.append(group_cdf_at(fit_plugin(sample), rule, sample.space.z_index[z], c))
        vals = np.array(vals)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - toy_group_cdf_value(delta, z, c)) < 3.0 * se


class TestPluginObjective:
    def test_identical_group_samples_have_no_penalty(self):
        # one record per group with the same outcome: both group cdfs coincide
        space = small_space()
        sample = labelled_sample(space, [0.5, 0.5], ["x0", "x0"], ["z0", "z1"], [1, 1])
        rule = DecisionRule(space, np.array([[1.0, 0.0]]))
        assert omega(rule, fit_plugin(sample), 1.0, GINI, KS) == 0.0

    def test_desk_scale_agreement_with_closed_form(self):
        # the sample objective tracks the population objective of the toy
        p, lam = 0.75, 0.3
        arr = fit_plugin(toy_sample(10_000, p, "A1", seed=37))
        for delta in np.linspace(0, 1, 5):
            rule = DecisionRule(arr.space, np.array([[delta, 1 - delta]]))
            want = toy_objective(float(delta), ToyParams(p, lam))
            assert abs(omega(rule, arr, lam, GINI, KS) - want) < 0.05


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

    def test_single_record_sample_finite(self):
        space = small_space()
        sample = labelled_sample(space, [0.5], ["x0"], ["z0"], [1])
        e_hat, pz_hat = estimated_propensities(sample)
        assert e_hat[0, 0, 0] == 1.0
        rule = DecisionRule.uniform(space)
        assert np.isfinite(omega(rule, fit_plugin(sample), 0.5, GINI, KS))
