"""Property tests: the atom kernel against the mixture and projection routes.

Every objective evaluation goes through one atom table.  These tests rebuild
each objective from the oracles' `implied_cdf_group`, `project_mab` and
`mixture` on StepCdfs (exact KS over merged breakpoints and left limits,
targets on atoms) and require agreement to 1e-12, including the edge cases
the kernel must handle: empty cells, zero-mass groups, single-record
samples, and atom masses whose group totals overshoot or fall short of 1.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fairpolicy import (
    CondCdfArray,
    CovariateSpace,
    DecisionRule,
    SimilarityMeasure,
    SupportInterval,
    TargetFunctional,
    TrainingSample,
    fit_plugin,
    omega,
    toy_sample,
)
from fairpolicy.lp import PluginProgram
from fairpolicy.objective import AtomKernel
from helpers import UNIT, random_cond_array, random_rule, random_training_sample
from oracles import (
    MonotoneStep,
    estimated_propensities,
    implied_cdf_group,
    mixture,
    project_mab,
    similarity_value,
    target_value,
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
PLUGIN_TARGETS = [TargetFunctional("mean"), TargetFunctional("gini-welfare")]
PLUGIN_SIMILARITIES = [
    SimilarityMeasure.parse(s) for s in ("ks", "one-sided-ks", "abs-target-diff:mean")
]

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
    return (1.0 - lam) * target_value(t, pop) - lam * penalty


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


def test_overshoot_and_empty_group_hand_computed():
    # one atom, at 0.25 in group z0, with mass 4 (a record's IPW mass
    # 1 / (1 * 0.5 * 0.5)): capped to a point mass at 0.25.  Group z1 has no
    # atoms: its mass all goes to b.
    space = CovariateSpace(("x0",), ("z0", "z1"), 2)
    kernel = AtomKernel(UNIT, np.array([0.25]), np.array([0]), np.array([0]),
                        np.array([4.0]), [0.5, 0.5])
    rule = DecisionRule.singleton(space, 1)
    mean, ks = TargetFunctional("mean"), SIMILARITIES[0]
    assert kernel.value(rule.probs, 0.0, mean, ks) == 0.625
    assert kernel.value(rule.probs, 1.0, mean, ks) == -0.5


def test_total_within_mass_tol_is_renormalized():
    # group z0's atoms total 1 - 4e-10: within MASS_TOL of 1, so its row is
    # renormalized (as StepCdf does), not topped up with an atom at b
    space = CovariateSpace(("x0",), ("z0", "z1"), 2)
    ys, z, slot = np.array([0.2, 0.7, 0.4, 0.9]), np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    # IPW masses 1 / (n e p_Z) with n = 4, e = 0.25 or 0.75 and p_Z = 0.5
    mass = 1.0 / (4 * np.array([0.25, 0.75, 0.25, 0.75]) * 0.5)
    kernel = AtomKernel(UNIT, ys, z, slot, mass, [0.5, 0.5])
    rule = DecisionRule(space, np.array([[0.25 - 3e-10, 0.75 + 3e-10]]))
    raw = [MonotoneStep(UNIT, ys[z == j], rule.probs.ravel()[slot[z == j]] * mass[z == j])
           for j in (0, 1)]
    assert abs(raw[0].total - (1.0 - 4e-10)) < 1e-15
    mean = TargetFunctional("mean")
    groups = [project_mab(g) for g in raw]
    for lam in (0.0, 1.0):
        want = reference(lam, mean, SIMILARITIES[0], groups, [0.5, 0.5])
        got = kernel.value(rule.probs, lam, mean, SIMILARITIES[0])
        assert abs(got - want) < TOL


@kernel_settings
@given(seeds, supports, st.sampled_from(["sample", "single", "missing-group"]))
def test_group_cdf_rows_are_cdfs(seed, support, mode):
    # every row is nondecreasing in [0, 1] and ends at exactly 1; a group
    # without mass is a point mass at b
    rng = np.random.default_rng(seed)
    sample = sample_case(rng, support, mode)
    kernel = fit_plugin(sample).kernel
    f = kernel.group_cdfs(random_rule(sample.space, rng).probs.ravel())
    assert f.shape == (len(sample.space.z_levels), kernel.grid.size)
    assert (np.diff(f, axis=1) >= 0.0).all() and (f >= 0.0).all()
    assert (f[:, -1] == 1.0).all()
    for j in np.flatnonzero(kernel.pz == 0.0):
        assert (f[j, :-1] == 0.0).all()


def test_arrays_keep_their_own_kernels():
    # alternating two samples' arrays: each kernel keeps its own last group
    # CDFs, and nothing outside an array keeps it alive
    arrs = [fit_plugin(toy_sample(300, 0.75, "A1", seed=seed)) for seed in (1, 2)]
    rule = DecisionRule(arrs[0].space, np.array([[0.3, 0.7]]))
    t, s = TARGETS[0], SIMILARITIES[0]
    wants = [AtomKernel.from_array(arr).value(rule.probs, 0.37, t, s) for arr in arrs]
    assert abs(wants[0] - wants[1]) > 1e-6
    for arr, want in [*zip(arrs, wants)] * 3:
        assert omega(rule, arr, 0.37, t, s) == want
    assert [arr.kernel.computations for arr in arrs] == [1, 1]
    first = weakref.ref(arrs[0])
    del arrs[0]
    gc.collect()
    assert first() is None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0, -2.0, 3.0, 5e-324, -5e-324])
                | st.floats(-2.0, 3.0), max_size=200),
       supports)
def test_grid_is_np_unique_bitwise(ys, support):
    # signed zeros and repeats: the kernel keeps the same survivor of each
    # run of equal values as np.unique, bit for bit
    ys = np.array(ys, dtype=float)
    kernel = AtomKernel(support, ys, np.zeros(ys.size, dtype=np.int64),
                        np.zeros(ys.size, dtype=np.int64), np.ones(ys.size), [1.0])
    want = np.unique(np.append(ys, support.b))
    assert kernel.grid.dtype == want.dtype
    assert kernel.grid.tobytes() == want.tobytes()


@kernel_settings
@given(seed=seeds, picks=st.lists(st.integers(0, 3), min_size=1, max_size=12))
@example(seed=0, picks=[2, 3, 3, 2, 0, 0, 1, 0])
def test_group_cdfs_cache_is_invisible(seed, picks):
    # repeats, and a pair equal but for the sign of its zeros: every result is
    # a fresh kernel's bit for bit and read-only, and only a miss is computed
    rng = np.random.default_rng(seed)
    arr = random_cond_array(rng)
    zeros = DecisionRule.singleton(arr.space, 1).probs.ravel()
    signed = zeros.copy()
    signed[zeros == 0.0] = -0.0
    candidates = [random_rule(arr.space, rng).probs.ravel() for _ in range(2)] + [zeros, signed]
    kernel, last = AtomKernel.from_array(arr), None
    for j in picks:
        probs, before = candidates[j], kernel.computations
        f = kernel.group_cdfs(probs)
        want = AtomKernel.from_array(arr).group_cdfs(probs)
        assert f.shape == want.shape and f.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            f[0, 0] = 0.5
        assert kernel.computations == before + (probs.tobytes() != last)
        last = probs.tobytes()


def array_leaves(value):
    """The numpy arrays in value, looking inside dicts, lists and tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from array_leaves(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from array_leaves(item)


@kernel_settings
@given(seeds, supports, st.sampled_from(["cells", "sample", "ties"]),
       st.sampled_from(PLUGIN_TARGETS), st.sampled_from(PLUGIN_SIMILARITIES))
def test_the_kernel_alone_holds_the_atom_table(seed, support, mode, t, s):
    # the atoms are in grid order and rebuild the same kernel bit for bit; a
    # plug-in program, maximized, keeps no array with one entry per atom
    rng = np.random.default_rng(seed)
    if mode == "cells":
        arr = random_cond_array(rng, support=support)
    else:
        sample = random_training_sample(rng, support=support)
        if mode == "ties":  # many atoms of one group at one grid point
            ys = support.a + (support.b - support.a) * rng.integers(0, 4, sample.n) / 3
            sample = TrainingSample(sample.space, support, ys, sample.xi, sample.zi, sample.d)
        arr = fit_plugin(sample)
    kernel = arr.kernel
    assert (np.diff(kernel.g) >= 0).all()
    assert np.array_equal(kernel.index, kernel.z * kernel.grid.size + kernel.g)
    rebuilt = AtomKernel(support, kernel.grid[kernel.g], kernel.z, kernel.slot, kernel.mass,
                         kernel.pz)
    for name in ("grid", "g", "z", "slot", "mass", "index"):
        assert getattr(rebuilt, name).tobytes() == getattr(kernel, name).tobytes(), name
    probs = random_rule(arr.space, rng).probs.ravel()
    assert rebuilt.group_cdfs(probs).tobytes() == kernel.group_cdfs(probs).tobytes()
    program = PluginProgram(kernel, arr.space, t, s)
    assume(kernel.mass.size > program.size)  # no other array of the program is that long
    program.maximize(0.5)
    for value in array_leaves(vars(program)):
        assert kernel.mass.size not in value.shape
