import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairpolicy import InvalidTau, SimilarityMeasure, SupportInterval, TargetFunctional
from helpers import UNIT, check_lipschitz_audit, grid_value, point_mass, random_step_cdf
from oracles import (
    ks_distance,
    mad_half,
    mad_half_naive,
    one_sided_ks,
    similarity_value,
    step_cdf,
    step_cdf_from_samples,
    target_value,
)

GINI = TargetFunctional("gini-welfare")
MEAN = TargetFunctional("mean")


def mean(f):
    return target_value(MEAN, f)


def gini_welfare(f):
    return target_value(GINI, f)


def quantile(f, tau):
    return target_value(TargetFunctional("quantile", tau=tau), f)


@pytest.fixture(scope="module")
def g_sample():
    """1e5 inverse-transform draws from G(y) = sqrt(y)."""
    rng = np.random.default_rng(101)
    return step_cdf_from_samples(rng.random(100_000) ** 2, UNIT)


@pytest.fixture(scope="module")
def h_sample():
    """1e5 inverse-transform draws from H(y) = y^2."""
    rng = np.random.default_rng(103)
    return step_cdf_from_samples(np.sqrt(rng.random(100_000)), UNIT)


class TestMean:
    def test_point_mass(self):
        assert mean(point_mass(0.7, UNIT)) == 0.7

    def test_two_atoms(self):
        assert mean(step_cdf(UNIT, [0.0, 1.0], [0.5, 0.5])) == 0.5

    def test_sqrt_law_sample(self, g_sample):
        assert abs(mean(g_sample) - 1.0 / 3.0) < 0.01


class TestMadHalf:
    def test_degenerate(self):
        assert mad_half(point_mass(0.4, UNIT)) == 0.0

    def test_two_atoms_naive_value(self):
        # naive double sum: 0.5 * 2 * (0.5 * 0.5) * |1 - 0| = 0.25
        assert mad_half(step_cdf(UNIT, [0.0, 1.0], [0.5, 0.5])) == 0.25

    def test_sqrt_law_sample(self, g_sample):
        assert abs(mad_half(g_sample) - 1.0 / 6.0) < 0.01

    def test_fast_path_equals_naive_double_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            f = random_step_cdf(rng, max_atoms=200)
            assert abs(mad_half(f) - mad_half_naive(f)) < 1e-12


class TestGiniWelfare:
    def test_sqrt_law(self, g_sample):
        assert abs(gini_welfare(g_sample) - 1.0 / 12.0) < 0.01

    def test_square_law(self, h_sample):
        assert abs(gini_welfare(h_sample) - 4.0 / 15.0) < 0.01

    def test_point_mass_at_one(self):
        assert gini_welfare(point_mass(1.0, UNIT)) == 0.5


class TestQuantile:
    def test_point_mass(self):
        assert quantile(point_mass(0.4, UNIT), 0.5) == 0.4

    def test_generalized_inverse_at_jump(self):
        assert quantile(step_cdf(UNIT, [0.0, 1.0], [0.5, 0.5]), 0.5) == 0.0

    def test_cumulative_scan(self):
        f = step_cdf(UNIT, [0.0, 0.5, 1.0], [0.25, 0.25, 0.5])
        assert quantile(f, 0.6) == 1.0

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.5, 1.5])
    def test_invalid_tau(self, tau):
        with pytest.raises(InvalidTau):
            TargetFunctional("quantile", tau=tau)

    def test_monotone_in_tau_and_coverage(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            f = random_step_cdf(rng)
            taus = np.sort(rng.uniform(0.01, 0.99, 10))
            qs = [quantile(f, t) for t in taus]
            assert all(b >= a for a, b in zip(qs, qs[1:]))
            for t, q in zip(taus, qs):
                assert f.eval_many(q) >= t


class TestSimilarity:
    @pytest.mark.parametrize(
        "s",
        [
            SimilarityMeasure("ks"),
            SimilarityMeasure("one-sided-ks"),
            SimilarityMeasure("abs-target-diff", inner=TargetFunctional("gini-welfare")),
        ],
    )
    def test_zero_on_identical(self, s):
        f = random_step_cdf(np.random.default_rng(3))
        assert grid_value(s, f, f) == 0.0

    def test_ks_extremes(self):
        s = SimilarityMeasure("ks")
        assert grid_value(s, point_mass(0.0, UNIT), point_mass(1.0, UNIT)) == 1.0

    def test_abs_target_diff_on_gini_values(self, g_sample, h_sample):
        s = SimilarityMeasure("abs-target-diff", inner=TargetFunctional("gini-welfare"))
        assert abs(grid_value(s, g_sample, h_sample) - abs(1 / 12 - 4 / 15)) < 0.02

    def test_nonnegative_and_ks_symmetric(self):
        rng = np.random.default_rng(31)
        ks = SimilarityMeasure("ks")
        for _ in range(50):
            f, g = random_step_cdf(rng), random_step_cdf(rng)
            assert grid_value(ks, f, g) >= 0.0
            assert grid_value(ks, f, g) == grid_value(ks, g, f)

    def test_requires_inner_functional(self):
        with pytest.raises(ValueError):
            SimilarityMeasure("abs-target-diff")

    def test_parse(self):
        s = SimilarityMeasure.parse("abs-target-diff:quantile:0.5")
        assert s.inner.kind == "quantile" and s.inner.tau == 0.5
        assert SimilarityMeasure.parse("one-sided-ks").kind == "one-sided-ks"


class TestLipschitzContract:
    def test_gini_and_mean_audit_on_unit_support(self):
        worst_gini, worst_mean = check_lipschitz_audit(np.random.default_rng(41), pairs=500)
        assert worst_gini <= 1e-9
        assert worst_mean <= 1e-9

    def test_gini_and_mean_audit_scale_with_the_support_width(self):
        worst_gini, worst_mean = check_lipschitz_audit(
            np.random.default_rng(43), pairs=500, support=SupportInterval(-2.0, 3.0))
        assert worst_gini <= 1e-9
        assert worst_mean <= 1e-9


class TestGridEvaluationAgreement:
    """value_on_grid on a grid holding more points than the CDF's atoms, as
    the objective kernel's grid does, against references on the atoms."""

    def test_targets(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            f = random_step_cdf(rng)
            grid = np.union1d(f.points, rng.random(5))
            values = f.eval_many(grid)
            mean_value = float(np.dot(f.points, f.masses))
            first_at = np.argmax(f.masses.cumsum() >= 0.3)
            want = {
                MEAN: mean_value,
                GINI: (mean_value - mad_half(f)) / 2.0,  # the identity value_on_grid uses
                TargetFunctional("quantile", tau=0.3): f.points[first_at],
            }
            for t, value in want.items():
                assert abs(t.value_on_grid(grid, values) - value) < 1e-12

    def test_similarities(self):
        rng = np.random.default_rng(59)
        measures = [
            SimilarityMeasure("ks"),
            SimilarityMeasure("one-sided-ks"),
            SimilarityMeasure("abs-target-diff", inner=TargetFunctional("mean")),
        ]
        for _ in range(30):
            f, g = random_step_cdf(rng), random_step_cdf(rng)
            grid = np.union1d(f.points, g.points)
            vf, vg = f.eval_many(grid), g.eval_many(grid)
            for s in measures:
                assert abs(similarity_value(s, f, g) - s.value_on_grid(grid, vf, vg)) < 1e-12


# Atoms drawn from a small pool tie across the two CDFs often; free floats
# add breakpoints that only one of them has.
_atom_points = st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def step_cdfs(draw):
    k = draw(st.integers(1, 6))
    points = draw(st.lists(_atom_points, min_size=k, max_size=k))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    return step_cdf(UNIT, points, weights / weights.sum())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(step_cdfs(), step_cdfs(), st.booleans())
def test_ks_on_step_cdfs_is_the_grid_route_bitwise(f, g, share):
    """The KS kinds' value_on_grid on the union of both atom sets equals the
    oracles' breakpoint and left-limit computation bit for bit, also on
    shared atoms and point masses."""
    if share:  # the even mixture of f and g: every atom of f is one of g's
        g = step_cdf(UNIT, np.concatenate([f.points, g.points]),
                    np.concatenate([f.masses, g.masses]) / 2.0)
    for kind, oracle in (("ks", ks_distance), ("one-sided-ks", one_sided_ks)):
        s = SimilarityMeasure(kind)
        for a, b in ((f, g), (g, f), (f, f)):
            assert grid_value(s, a, b).hex() == oracle(a, b).hex()
