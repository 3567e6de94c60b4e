"""Property tests: the atom kernel against the mixture and projection routes.

Every objective evaluation goes through one atom table.  These tests rebuild
each objective from the oracles' `implied_cdf_group`, `project_mab` and
`mixture` on StepCdfs (exact KS over merged breakpoints and left limits,
targets on atoms) and require agreement to 1e-12, including the edge cases the kernel must
handle: empty cells, zero-mass groups, single-record samples and IPW
estimates that overshoot or fall short of 1.
"""

import gc
import weakref

import numpy as np
from hypothesis import given, settings, strategies as st

from fairpolicy import (
    CondCdfArray,
    CovariateSpace,
    DecisionRule,
    PropensityModel,
    SimilarityMeasure,
    SupportInterval,
    TargetFunctional,
    TrainingSample,
    fit_plugin,
    omega,
    random_rule,
)
from fairpolicy.estimation import ipw_kernel
from helpers import UNIT, random_cond_array, random_training_sample
from oracles import (
    MonotoneStep,
    estimated_propensities,
    implied_cdf_group,
    ipw_group_cdf,
    ipw_group_raw,
    mixture,
    project_mab,
    similarity_value,
)

TOL = 1e-12
# tau is irrational-looking so that no CDF value ties it exactly
TARGETS = [
    TargetFunctional.parse(t) for t in ("gini-welfare", "mean", "quantile:0.3183098861837907")
]
SIMILARITIES = [
    SimilarityMeasure.parse(s) for s in ("ks", "one-sided-ks", "abs-target-diff:gini-welfare")
]
SUPPORTS = [UNIT, SupportInterval(-2.0, 3.0)]

seeds = st.integers(0, 2**32 - 1)
lams = st.sampled_from([0.0, 0.37, 1.0])
targets = st.sampled_from(TARGETS)
similarities = st.sampled_from(SIMILARITIES)
supports = st.sampled_from(SUPPORTS)
kernel_settings = settings(max_examples=60, deadline=None, derandomize=True)


def reference(lam, t, s, groups, weights):
    """(1 - lam) T(pop) - lam max_z S(group_z, pop) on StepCdfs."""
    pop = mixture(list(zip(groups, weights)))
    penalty = max(similarity_value(s, g, pop) for g in groups)
    return (1.0 - lam) * t.value(pop) - lam * penalty


def without_group(rng, arr: CondCdfArray) -> CondCdfArray:
    """The same array with one protected group's mass set to zero."""
    space = arr.space
    if len(space.z_levels) < 2:
        return arr
    drop = space.z_levels[int(rng.integers(len(space.z_levels)))]
    pxz = {(x, z): (0.0 if z == drop else p) for (x, z), p in arr.pxz.items()}
    total = sum(pxz.values())
    return CondCdfArray(space, arr.cdf, {k: v / total for k, v in pxz.items()})


def sample_case(rng, support, mode) -> TrainingSample:
    if mode == "single":
        return random_training_sample(rng, n=1, support=support)
    sample = random_training_sample(rng, support=support)
    if mode == "missing-group" and len(sample.space.z_levels) > 1:
        zi = np.minimum(sample.zi, len(sample.space.z_levels) - 2)
        return TrainingSample(sample.space, support, sample.ys, sample.xi, zi, sample.d)
    return sample


def random_propensities(rng, space) -> PropensityModel:
    # a small floor keeps every propensity positive; skewed draws make the
    # raw IPW group estimates overshoot or fall short of 1
    e = {}
    for x in space.x_levels:
        for z in space.z_levels:
            raw = (rng.dirichlet(np.full(space.k, 0.4)) + 0.01) / (1.0 + 0.01 * space.k)
            for i in space.treatments:
                e[(i, x, z)] = raw[i - 1]
    pz = (rng.dirichlet(np.ones(len(space.z_levels))) + 0.01) / (1.0 + 0.01 * len(space.z_levels))
    return PropensityModel(e, dict(zip(space.z_levels, pz)))


@kernel_settings
@given(seeds, lams, targets, similarities, supports,
       st.sampled_from(["cells", "empty-cells", "zero-group"]))
def test_omega_matches_mixture_route(seed, lam, t, s, support, mode):
    rng = np.random.default_rng(seed)
    if mode == "empty-cells":
        arr = fit_plugin(random_training_sample(rng, n=int(rng.integers(1, 8)), support=support))
    else:
        arr = random_cond_array(rng, support=support)
        if mode == "zero-group":
            arr = without_group(rng, arr)
    rule = random_rule(arr.space, rng)
    positive = [z for z in arr.space.z_levels if arr.p_z(z) > 0.0]
    groups = [implied_cdf_group(rule, arr, z) for z in positive]
    want = reference(lam, t, s, groups, [arr.p_z(z) for z in positive])
    assert abs(omega(rule, arr, lam, t, s) - want) < TOL


@kernel_settings
@given(seeds, lams, targets, similarities, supports,
       st.sampled_from(["sample", "single", "missing-group"]))
def test_ipw_known_matches_projection_route(seed, lam, t, s, support, mode):
    rng = np.random.default_rng(seed)
    sample = sample_case(rng, support, mode)
    prop = random_propensities(rng, sample.space)
    rule = random_rule(sample.space, rng)
    zs = sample.space.z_levels
    groups = [ipw_group_cdf(sample, rule, z, prop) for z in zs]
    weights = np.array([prop.pz[z] for z in zs])
    want = reference(lam, t, s, groups, weights / weights.sum())
    assert abs(ipw_kernel(sample, prop).value(rule.probs, lam, t, s) - want) < TOL


@kernel_settings
@given(seeds, lams, targets, similarities, supports,
       st.sampled_from(["sample", "single", "missing-group"]))
def test_ipw_estimated_matches_projection_and_plugin(seed, lam, t, s, support, mode):
    rng = np.random.default_rng(seed)
    sample = sample_case(rng, support, mode)
    rule = random_rule(sample.space, rng)
    e_hat, pz_hat = estimated_propensities(sample)
    base = 1.0 / (sample.n * e_hat[sample.d - 1, sample.xi, sample.zi] * pz_hat[sample.zi])
    groups, weights = [], []
    for j in np.flatnonzero(pz_hat > 0.0):
        mask = sample.zi == j
        increments = rule.probs[sample.xi[mask], sample.d[mask] - 1] * base[mask]
        groups.append(project_mab(MonotoneStep(sample.support, sample.ys[mask], increments)))
        weights.append(pz_hat[j])
    got = omega(rule, fit_plugin(sample), lam, t, s)
    assert abs(got - reference(lam, t, s, groups, weights)) < TOL


def test_ipw_overshoot_and_empty_group_hand_computed():
    # one record, in group z0, with raw mass 1 / (1 * 0.5 * 0.5) = 4: capped to
    # a point mass at 0.25.  Group z1 has no records: its mass all goes to b.
    space = CovariateSpace(("x0",), ("z0", "z1"), 2)
    sample = TrainingSample.from_columns([0.25], ["x0"], ["z0"], [1], UNIT, space=space)
    prop = PropensityModel({(i, "x0", z): 0.5 for i in (1, 2) for z in ("z0", "z1")},
                           {"z0": 0.5, "z1": 0.5})
    rule = DecisionRule.singleton(space, 1)
    mean, ks = TargetFunctional("mean"), SIMILARITIES[0]
    assert ipw_kernel(sample, prop).value(rule.probs, 0.0, mean, ks) == 0.625
    assert ipw_kernel(sample, prop).value(rule.probs, 1.0, mean, ks) == -0.5


def test_ipw_total_within_mass_tol_is_renormalized():
    # group z0's raw estimate totals 1 - 4e-10: within MASS_TOL of 1, so it is
    # renormalized (as StepCdf does), not topped up with an atom at b
    space = CovariateSpace(("x0",), ("z0", "z1"), 2)
    sample = TrainingSample.from_columns(
        [0.2, 0.7, 0.4, 0.9], ["x0"] * 4, ["z0", "z0", "z1", "z1"], [1, 2, 1, 2], UNIT,
        space=space,
    )
    e = {(1, "x0", z): 0.25 for z in ("z0", "z1")} | {(2, "x0", z): 0.75 for z in ("z0", "z1")}
    prop = PropensityModel(e, {"z0": 0.5, "z1": 0.5})
    rule = DecisionRule(space, np.array([[0.25 - 3e-10, 0.75 + 3e-10]]))
    assert abs(ipw_group_raw(sample, rule, "z0", prop).total - (1.0 - 4e-10)) < 1e-15
    mean = TargetFunctional("mean")
    groups = [ipw_group_cdf(sample, rule, z, prop) for z in ("z0", "z1")]
    for lam in (0.0, 1.0):
        want = reference(lam, mean, SIMILARITIES[0], groups, [0.5, 0.5])
        got = ipw_kernel(sample, prop).value(rule.probs, lam, mean, SIMILARITIES[0])
        assert abs(got - want) < TOL


def test_ipw_models_sharing_a_sample_keep_their_own_values():
    # alternating two propensity models on one sample must rebuild the
    # kernel for each; only the most recent model stays referenced
    rng = np.random.default_rng(5)
    sample = random_training_sample(rng)
    rule = random_rule(sample.space, rng)
    t, s = TARGETS[0], SIMILARITIES[0]
    props = [random_propensities(rng, sample.space) for _ in range(2)]
    wants = []
    for prop in props:
        groups = [ipw_group_cdf(sample, rule, z, prop) for z in sample.space.z_levels]
        weights = np.array([prop.pz[z] for z in sample.space.z_levels])
        wants.append(reference(0.37, t, s, groups, weights / weights.sum()))
    assert abs(wants[0] - wants[1]) > 1e-6
    for prop, want in [*zip(props, wants)] * 2:
        assert abs(ipw_kernel(sample, prop).value(rule.probs, 0.37, t, s) - want) < TOL
    first = weakref.ref(props[0])
    del props[0]
    gc.collect()
    assert first() is None
