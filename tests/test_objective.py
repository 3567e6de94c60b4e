import re

import numpy as np
import pytest

from fairpolicy import (
    CovariateSpace,
    DecisionRule,
    EmptySet,
    InvalidLambda,
    SimilarityMeasure,
    SpaceMismatch,
    SupportInterval,
    TargetFunctional,
    d1,
    d1_to_set,
    omega,
    toy_cond_array,
    toy_objective,
    ToyParams,
)
from helpers import (
    UNIT,
    atoms,
    check_d1_triangle,
    point_mass,
    random_cond_array,
    random_rule,
    random_space,
    random_step_cdf,
)
from oracles import (
    SupportMismatch,
    UnknownGroup,
    ZeroGroupMass,
    cond_array,
    implied_cdf,
    implied_cdf_group,
    ks_distance,
    mixture,
    step_cdf,
    target_value,
)

GINI = TargetFunctional("gini-welfare")
KS = SimilarityMeasure("ks")


def toy_rule(space, delta):
    return DecisionRule(space, np.array([[delta, 1.0 - delta]]))


class TestCovariateSpaceAndRule:
    def test_space_validation(self):
        with pytest.raises(ValueError):
            CovariateSpace((), ("z",), 2)
        with pytest.raises(ValueError):
            CovariateSpace(("a", "a"), ("z",), 2)
        with pytest.raises(ValueError):
            CovariateSpace(("a",), ("z",), 1)

    def test_rule_simplex_validation(self):
        space = CovariateSpace(("a",), ("z",), 2)
        with pytest.raises(ValueError):
            DecisionRule(space, np.array([[0.6, 0.6]]))
        with pytest.raises(ValueError):
            DecisionRule(space, np.array([[-0.2, 1.2]]))

    def test_rule_rows_renormalized_exactly(self):
        space = CovariateSpace(("a",), ("z",), 3)
        rule = DecisionRule(space, np.array([[0.2, 0.3, 0.5 + 3e-10]]))
        assert rule.probs.sum() == 1.0


class TestCellSupports:
    """The cells of an array share one support, compared by its endpoints."""

    def cells(self, b):
        return {(1, "x0", "z0"): point_mass(0.2, SupportInterval(0.0, 1.0)),
                (2, "x0", "z0"): point_mass(0.9, SupportInterval(0.0, b))}

    def test_equal_supports_built_apart(self):
        space = CovariateSpace(("x0",), ("z0",), 2)
        arr = cond_array(space, self.cells(1.0), {("x0", "z0"): 1.0})
        assert arr.support == SupportInterval(0.0, 1.0)

    def test_mismatch_names_both_supports(self):
        space = CovariateSpace(("x0",), ("z0",), 2)
        message = ("cell (2, 'x0', 'z0') has support SupportInterval(a=0.0, b=2.0), "
                   "expected SupportInterval(a=0.0, b=1.0)")
        with pytest.raises(SupportMismatch, match=re.escape(message)):
            cond_array(space, self.cells(2.0), {("x0", "z0"): 1.0})


class TestImpliedCdf:
    def test_degenerate_rule_returns_cell_cdf(self):
        space = CovariateSpace(("x0",), ("z0",), 2)
        f1 = step_cdf(UNIT, [0.2, 0.6], [0.5, 0.5])
        f2 = point_mass(0.9, UNIT)
        arr = cond_array(
            space,
            {(1, "x0", "z0"): f1, (2, "x0", "z0"): f2},
            {("x0", "z0"): 1.0},
        )
        out = implied_cdf(DecisionRule(space, np.array([[1.0, 0.0]])), arr)
        assert atoms(out) == atoms(f1)

    def test_toy_mixture_coefficients(self):
        # [delta p + (1-delta)(1-p)] G + [delta (1-p) + (1-delta) p] H
        p, delta = 0.75, 0.3
        arr = toy_cond_array(p, 500)
        out = implied_cdf(toy_rule(arr.space, delta), arr)
        g = arr.cdf[(1, "0", "0")]
        h = arr.cdf[(2, "0", "0")]
        wg = delta * p + (1 - delta) * (1 - p)
        direct = mixture([(g, wg), (h, 1 - wg)])
        assert ks_distance(out, direct) < 1e-12

    def test_decomposition_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            arr = random_cond_array(rng)
            rule = random_rule(arr.space, rng)
            pop = implied_cdf(rule, arr)
            parts = [
                (implied_cdf_group(rule, arr, z), arr.p_z(z))
                for z in arr.space.z_levels
                if arr.p_z(z) > 0
            ]
            total = sum(w for _, w in parts)
            recomposed = mixture([(c, w / total) for c, w in parts])
            assert ks_distance(pop, recomposed) < 1e-9

    def test_space_mismatch(self):
        rng = np.random.default_rng(9)
        arr = toy_cond_array(0.75, 50)
        other = CovariateSpace(("q",), ("z0", "z1"), 2)
        with pytest.raises(SpaceMismatch):
            implied_cdf(random_rule(other, rng), arr)


class TestImpliedCdfGroup:
    def test_single_x_selects_cell(self):
        arr = toy_cond_array(0.75, 200)
        out = implied_cdf_group(toy_rule(arr.space, 0.0), arr, "0")
        assert ks_distance(out, arr.cdf[(2, "0", "0")]) == 0.0

    @pytest.mark.parametrize("z,first,second", [("0", "g", "h"), ("1", "h", "g")])
    def test_toy_group_mixtures(self, z, first, second):
        # group 0: delta G + (1-delta) H; group 1: delta H + (1-delta) G
        arr = toy_cond_array(0.75, 500)
        delta = 0.35
        cells = {"g": arr.cdf[(1, "0", "0")], "h": arr.cdf[(2, "0", "0")]}
        out = implied_cdf_group(toy_rule(arr.space, delta), arr, z)
        expect = mixture([(cells[first], delta), (cells[second], 1 - delta)])
        assert ks_distance(out, expect) < 1e-12

    def test_unknown_group(self):
        arr = toy_cond_array(0.75, 50)
        with pytest.raises(UnknownGroup):
            implied_cdf_group(toy_rule(arr.space, 0.5), arr, "nope")

    def test_zero_mass_group(self):
        space = CovariateSpace(("x0",), ("z0", "z1"), 2)
        cdf = {(i, "x0", z): point_mass(0.5, UNIT) for i in (1, 2) for z in ("z0", "z1")}
        arr = cond_array(space, cdf, {("x0", "z0"): 1.0, ("x0", "z1"): 0.0})
        with pytest.raises(ZeroGroupMass):
            implied_cdf_group(DecisionRule.uniform(space), arr, "z1")


class TestOmega:
    def test_lambda_zero_is_pure_target(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            arr = random_cond_array(rng)
            rule = random_rule(arr.space, rng)
            want = target_value(GINI, implied_cdf(rule, arr))
            assert abs(omega(rule, arr, 0.0, GINI, KS) - want) < 1e-12

    def test_lambda_one_is_negative_penalty(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            arr = random_cond_array(rng)
            rule = random_rule(arr.space, rng)
            pop = implied_cdf(rule, arr)
            pen = max(
                ks_distance(implied_cdf_group(rule, arr, z), pop)
                for z in arr.space.z_levels
                if arr.p_z(z) > 0
            )
            assert abs(omega(rule, arr, 1.0, GINI, KS) - (-pen)) < 1e-12

    def test_matches_reference_route_at_interior_lambda(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            arr = random_cond_array(rng)
            rule = random_rule(arr.space, rng)
            lam = float(rng.random())
            pop = implied_cdf(rule, arr)
            pen = max(
                ks_distance(implied_cdf_group(rule, arr, z), pop)
                for z in arr.space.z_levels
                if arr.p_z(z) > 0
            )
            ref = (1 - lam) * target_value(GINI, pop) - lam * pen
            assert abs(omega(rule, arr, lam, GINI, KS) - ref) < 1e-9

    def test_toy_closed_form_desk_scale(self):
        arr = toy_cond_array(0.75, 2000)
        for delta in (0.0, 0.2, 0.5, 1.0):
            got = omega(toy_rule(arr.space, delta), arr, 0.3, GINI, KS)
            want = toy_objective(delta, ToyParams(0.75, 0.3))
            assert abs(got - want) < 0.01

    def test_invalid_lambda(self):
        arr = toy_cond_array(0.75, 50)
        with pytest.raises(InvalidLambda):
            omega(toy_rule(arr.space, 0.5), arr, 1.5, GINI, KS)

    def test_zero_mass_groups_skipped(self):
        space = CovariateSpace(("x0",), ("z0", "z1"), 2)
        cdf = {
            (1, "x0", "z0"): point_mass(0.2, UNIT),
            (2, "x0", "z0"): point_mass(0.8, UNIT),
            (1, "x0", "z1"): point_mass(0.1, UNIT),
            (2, "x0", "z1"): point_mass(0.9, UNIT),
        }
        arr = cond_array(space, cdf, {("x0", "z0"): 1.0, ("x0", "z1"): 0.0})
        rule = DecisionRule.uniform(space)
        # only z0 remains, and its group cdf equals the population cdf
        assert omega(rule, arr, 1.0, GINI, KS) == 0.0

    def test_identical_conditionals_have_zero_penalty(self):
        rng = np.random.default_rng(23)
        space = random_space(rng)
        per_ix = {
            (i, x): random_step_cdf(rng)
            for i in space.treatments
            for x in space.x_levels
        }
        cdf = {
            (i, x, z): per_ix[(i, x)]
            for i in space.treatments
            for x in space.x_levels
            for z in space.z_levels
        }
        pairs = [(x, z) for x in space.x_levels for z in space.z_levels]
        raw = rng.dirichlet(np.ones(len(pairs)))
        arr = cond_array(space, cdf, dict(zip(pairs, raw)))
        for _ in range(10):
            rule = random_rule(space, rng)
            assert abs(omega(rule, arr, 1.0, GINI, KS)) < 1e-9

    def test_rule_lipschitz_bound(self):
        # |omega(r1) - omega(r2)| <= (1 + lam) * d1(r1, r2)
        rng = np.random.default_rng(29)
        for _ in range(40):
            arr = random_cond_array(rng)
            r1, r2 = random_rule(arr.space, rng), random_rule(arr.space, rng)
            lam = float(rng.random())
            gap = abs(omega(r1, arr, lam, GINI, KS) - omega(r2, arr, lam, GINI, KS))
            assert gap <= (1 + lam) * d1(r1, r2) + 1e-9

    def test_lambda_continuity_bound(self):
        # omega is linear in lam with coefficient bounded by |T| + max_z S
        rng = np.random.default_rng(31)
        for _ in range(40):
            arr = random_cond_array(rng)
            rule = random_rule(arr.space, rng)
            lam1, lam2 = sorted(rng.random(2))
            pop = implied_cdf(rule, arr)
            pen = max(
                ks_distance(implied_cdf_group(rule, arr, z), pop)
                for z in arr.space.z_levels
                if arr.p_z(z) > 0
            )
            c = abs(target_value(GINI, pop)) + pen
            gap = abs(omega(rule, arr, lam1, GINI, KS) - omega(rule, arr, lam2, GINI, KS))
            assert gap <= c * abs(lam1 - lam2) + 1e-9


class TestD1:
    def test_self_distance(self):
        rng = np.random.default_rng(37)
        space = random_space(rng)
        rule = random_rule(space, rng)
        assert d1(rule, rule) == 0.0

    def test_opposite_vertices(self):
        space = CovariateSpace(("x0",), ("z0",), 2)
        a = DecisionRule(space, np.array([[1.0, 0.0]]))
        b = DecisionRule(space, np.array([[0.0, 1.0]]))
        assert d1(a, b) == 2.0

    def test_triangle_inequality(self):
        assert check_d1_triangle(np.random.default_rng(41)) <= 1e-12

    def test_space_mismatch(self):
        rng = np.random.default_rng(43)
        a = random_rule(CovariateSpace(("a",), ("z",), 2), rng)
        b = random_rule(CovariateSpace(("b",), ("z",), 2), rng)
        with pytest.raises(SpaceMismatch):
            d1(a, b)


class TestD1ToSet:
    def test_member_has_zero_distance(self):
        rng = np.random.default_rng(47)
        space = random_space(rng)
        rules = [random_rule(space, rng) for _ in range(4)]
        assert d1_to_set(rules[2], rules) == 0.0

    def test_two_rule_toy_set(self):
        space = CovariateSpace(("x0",), ("z0",), 2)
        target = DecisionRule(space, np.array([[0.25, 0.75]]))
        rules = [
            DecisionRule(space, np.array([[0.0, 1.0]])),
            DecisionRule(space, np.array([[0.5, 0.5]])),
        ]
        assert d1_to_set(target, rules) == pytest.approx(0.5)

    def test_singleton(self):
        rng = np.random.default_rng(53)
        space = random_space(rng)
        a, b = random_rule(space, rng), random_rule(space, rng)
        assert d1_to_set(a, [b]) == d1(a, b)

    def test_empty_set(self):
        rng = np.random.default_rng(59)
        with pytest.raises(EmptySet):
            d1_to_set(random_rule(random_space(rng), rng), [])
