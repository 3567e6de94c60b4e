import numpy as np
import pytest

from fairpolicy import (
    CovariateSpace,
    OutOfSupport,
    SimilarityMeasure,
    SupportInterval,
    TrainingSample,
    fit_plugin,
)
from fairpolicy.distributions import DistributionError
from helpers import (
    KS,
    UNIT,
    atoms,
    check_ks_metric_axioms,
    check_mixture_linearity,
    check_project_mab_validity,
    dense_grid_sup,
    grid_value,
    point_mass,
    random_step_cdf,
)
from oracles import (
    MonotoneStep,
    SupportMismatch,
    WeightMismatch,
    ks_distance,
    mixture,
    project_mab,
    similarity_value,
    step_cdf,
    step_cdf_from_samples,
)

ONE_SIDED = SimilarityMeasure("one-sided-ks")


def test_support_interval_requires_a_lt_b():
    with pytest.raises(ValueError):
        SupportInterval(1.0, 1.0)
    with pytest.raises(ValueError):
        SupportInterval(2.0, 1.0)


class TestStepCdfConstruction:
    def test_coalesces_duplicate_points(self):
        f = step_cdf(UNIT, [0.5, 0.5, 0.2], [0.25, 0.25, 0.5])
        assert atoms(f) == [(0.2, 0.5), (0.5, 0.5)]

    def test_rejects_mass_sum_off_by_more_than_tolerance(self):
        with pytest.raises(WeightMismatch):
            step_cdf(UNIT, [0.5], [0.9])

    def test_renormalizes_tiny_drift(self):
        f = step_cdf(UNIT, [0.2, 0.8], [0.5 + 2e-10, 0.5])
        assert f.masses.sum() == 1.0

    def test_rejects_out_of_support_atoms(self):
        with pytest.raises(OutOfSupport):
            step_cdf(UNIT, [1.2], [1.0])

    def test_atoms_immutable(self):
        f = step_cdf(UNIT, [0.5], [1.0])
        with pytest.raises(ValueError):
            f.points[0] = 0.1


class TestFromSamples:
    """The empirical CDF that the fit tests take as their reference."""

    def test_single_point_sample(self):
        f = step_cdf_from_samples([0.5], UNIT)
        assert atoms(f) == [(0.5, 1.0)]

    def test_symmetric_two_point_sample(self):
        f = step_cdf_from_samples([0, 0, 1, 1], UNIT)
        assert atoms(f) == [(0.0, 0.5), (1.0, 0.5)]

    def test_empty_sample_raises(self):
        with pytest.raises(DistributionError, match="at least one atom"):
            step_cdf_from_samples([], UNIT)

    def test_out_of_support_raises(self):
        with pytest.raises(OutOfSupport):
            step_cdf_from_samples([0.5, 1.5], UNIT)

    def test_inverse_transform_against_analytic_cdf(self):
        # U^2 has cdf G(y) = sqrt(y); DKWM-scale tolerance at n = 1e5
        rng = np.random.default_rng(7)
        f = step_cdf_from_samples(rng.random(100_000) ** 2, UNIT)
        ys = np.linspace(0.0, 1.0, 2001)
        assert np.abs(f.eval_many(ys) - np.sqrt(ys)).max() < 0.01


class TestPointMassAndEval:
    def test_point_mass_at_b(self):
        f = point_mass(1.0, UNIT)
        assert f.eval_many(0.999999) == 0.0
        assert f.eval_many(1.0) == 1.0

    def test_point_mass_at_a(self):
        f = point_mass(0.0, UNIT)
        assert f.eval_many(0.0) == 1.0
        assert f.eval_many(0.7) == 1.0

    def test_right_continuity(self):
        assert point_mass(0.3, UNIT).eval_many(0.2999) == 0.0

    def test_point_mass_outside_support(self):
        with pytest.raises(OutOfSupport):
            point_mass(-0.1, UNIT)

    def test_eval_examples(self):
        assert point_mass(0.5, UNIT).eval_many(0.5) == 1.0
        f = step_cdf(UNIT, [0.0, 1.0], [0.5, 0.5])
        assert f.eval_many(0.3) == 0.5
        assert f.eval_many(-0.001) == 0.0

    def test_eval_nondecreasing_and_boundary(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = random_step_cdf(rng)
            ys = np.sort(rng.random(50))
            vals = f.eval_many(ys)
            assert np.all(np.diff(vals) >= 0)
            assert f.eval_many(1.0) == 1.0
            assert f.eval_many(float(f.points[0]) - 1e-12) == 0.0


class TestMixture:
    def test_identity(self):
        f = step_cdf(UNIT, [0.1, 0.9], [0.3, 0.7])
        g = mixture([(f, 1.0)])
        assert atoms(g) == atoms(f)

    def test_two_point_masses(self):
        g = mixture([(point_mass(0.0, UNIT), 0.5), (point_mass(1.0, UNIT), 0.5)])
        assert atoms(g) == [(0.0, 0.5), (1.0, 0.5)]

    def test_against_brute_force_atom_merge(self):
        f = step_cdf(UNIT, [0.1, 0.5, 0.9], [0.2, 0.3, 0.5])
        g = step_cdf(UNIT, [0.2, 0.5, 0.8], [0.25, 0.5, 0.25])
        mixed = mixture([(f, 0.25), (g, 0.75)])
        merged = {}
        for cdf, w in ((f, 0.25), (g, 0.75)):
            for pt, m in atoms(cdf):
                merged[pt] = merged.get(pt, 0.0) + w * m
        expected = sorted(merged.items())
        assert [p for p, _ in atoms(mixed)] == [p for p, _ in expected]
        assert np.allclose([m for _, m in atoms(mixed)], [m for _, m in expected], atol=1e-15)

    def test_weight_mismatch(self):
        f = point_mass(0.5, UNIT)
        with pytest.raises(WeightMismatch):
            mixture([(f, 0.5), (f, 0.4)])

    def test_support_mismatch(self):
        f = point_mass(0.5, UNIT)
        g = point_mass(0.5, SupportInterval(0.0, 2.0))
        with pytest.raises(SupportMismatch):
            mixture([(f, 0.5), (g, 0.5)])

    def test_linearity_property(self):
        assert check_mixture_linearity(np.random.default_rng(11)) < 1e-12


class TestKsDistances:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(5)
        f = random_step_cdf(rng)
        assert grid_value(KS, f, f) == 0.0
        assert grid_value(ONE_SIDED, f, f) == 0.0

    def test_extreme_point_masses(self):
        assert grid_value(KS, point_mass(0.0, UNIT), point_mass(1.0, UNIT)) == 1.0

    def test_against_dense_grid_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            f = random_step_cdf(rng, max_atoms=5)
            g = random_step_cdf(rng, max_atoms=5)
            assert abs(grid_value(KS, f, g) - dense_grid_sup(f, g)) < 1e-12
            signed = max(dense_grid_sup(f, g, signed=True), 0.0)
            assert abs(grid_value(ONE_SIDED, f, g) - signed) < 1e-12

    def test_one_sided_vanishes_when_dominated(self):
        # F below G pointwise (F stochastically larger) has no positive part
        f = point_mass(0.9, UNIT)
        g = point_mass(0.1, UNIT)
        assert grid_value(ONE_SIDED, f, g) == 0.0
        assert grid_value(ONE_SIDED, g, f) == 1.0

    def test_one_sided_max_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            f, g = random_step_cdf(rng), random_step_cdf(rng)
            both = max(grid_value(ONE_SIDED, f, g), grid_value(ONE_SIDED, g, f))
            assert abs(both - grid_value(KS, f, g)) < 1e-15

    def test_support_mismatch(self):
        f, g = point_mass(0.5, UNIT), point_mass(0.5, SupportInterval(0.0, 2.0))
        for s in (KS, ONE_SIDED, SimilarityMeasure.parse("abs-target-diff:mean")):
            with pytest.raises(SupportMismatch):
                similarity_value(s, f, g)

    def test_metric_axioms(self):
        assert check_ks_metric_axioms(np.random.default_rng(19)) <= 1e-12


class TestProjectMab:
    def test_idempotent_on_cdfs(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            f = random_step_cdf(rng)
            back = project_mab(MonotoneStep(UNIT, f.points, f.masses))
            assert np.array_equal(back.points, f.points)
            assert grid_value(KS, back, f) < 1e-12

    def test_zero_function_becomes_point_mass_at_b(self):
        g = MonotoneStep(UNIT, [], [])
        assert atoms(project_mab(g)) == [(1.0, 1.0)]

    def test_truncation_against_pointwise_min_oracle(self):
        # total mass 1.4 reaching 1 at q < b: everything beyond q is cut
        g = MonotoneStep(UNIT, [0.2, 0.4, 0.6, 0.8], [0.5, 0.5, 0.2, 0.2])
        f = project_mab(g)
        ys = np.linspace(0.0, 1.0, 1001)
        for y in ys:
            assert abs(f.eval_many(y) - min(g.eval(y), 1.0)) < 1e-12
        assert f.eval_many(0.4) == 1.0
        assert f.eval_many(0.6) == 1.0

    def test_missing_mass_goes_to_b(self):
        g = MonotoneStep(UNIT, [0.3], [0.25])
        f = project_mab(g)
        assert atoms(f) == [(0.3, 0.25), (1.0, 0.75)]

    def test_fuzz_validity(self):
        check_project_mab_validity(np.random.default_rng(29))

    def test_monotone_step_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            MonotoneStep(UNIT, [0.5], [-0.1])


def test_dkwm_convergence_of_empirical_cdf():
    """Samples from a known StepCdf, fitted by the plug-in estimator as one
    cell: sup-distance below 2*sqrt(log(2/0.05)/(2n)) in at least 95% of
    200 trials."""
    rng = np.random.default_rng(31)
    truth = random_step_cdf(rng, max_atoms=6)
    n = 400
    bound = 2.0 * np.sqrt(np.log(2.0 / 0.05) / (2.0 * n))
    space = CovariateSpace(("x0",), ("z0",), 2)
    zeros = np.zeros(n, dtype=np.int64)
    hits = 0
    for _ in range(200):
        ys = rng.choice(truth.points, size=n, p=truth.masses)
        sample = TrainingSample(space, UNIT, ys, zeros, zeros, np.ones(n, dtype=np.int64))
        f = fit_plugin(sample).cdf[(1, "x0", "z0")]
        if ks_distance(f, truth) < bound:
            hits += 1
    assert hits >= 190
