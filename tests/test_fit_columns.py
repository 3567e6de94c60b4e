"""The columnar plug-in fit against the per-cell reference and the lexsort fit.

`fit_plugin` builds every cell's atoms in one sorted pass, and
`AtomKernel.from_array` gathers the plug-in kernel from those columns.  The
reference here is the per-cell route they replaced: one empirical StepCdf per
cell (a point mass at b when the cell has no records), cell frequencies
renormalized by their sum, and a kernel built cell by cell in (x, z,
treatment) order.  Atoms, p(x, z) and every kernel array must match bit for
bit, so that sweeps over a fitted array do not move.  The fit's two sorts (by
outcome, then stably by cell) must also give the columns of one lexsort by
(cell, outcome), signed zeros included (`oracles.fit_plugin_lexsort`).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairpolicy import (
    CovariateSpace,
    StepCdf,
    SupportInterval,
    TrainingSample,
    fit_plugin,
)
from fairpolicy.objective import AtomKernel
from helpers import UNIT, point_mass, random_cond_array
from oracles import cell_counts, cond_array, fit_plugin_lexsort, step_cdf_from_samples

SUPPORTS = [UNIT, SupportInterval(-2.0, 3.0)]


def reference_fit(sample: TrainingSample) -> tuple[dict, dict]:
    """Per-cell empirical CDFs and renormalized cell frequencies."""
    space, support = sample.space, sample.support
    cdf = {}
    for i in space.treatments:
        for xj, x in enumerate(space.x_levels):
            for zj, z in enumerate(space.z_levels):
                ys = sample.ys[(sample.d == i) & (sample.xi == xj) & (sample.zi == zj)]
                cdf[(i, x, z)] = (step_cdf_from_samples(ys, support) if ys.size
                                  else point_mass(support.b, support))
    pxz = {
        (x, z): np.count_nonzero((sample.xi == xj) & (sample.zi == zj)) / sample.n
        for xj, x in enumerate(space.x_levels)
        for zj, z in enumerate(space.z_levels)
    }
    total = sum(pxz.values())
    return cdf, {pair: p / total for pair, p in pxz.items()}


def reference_kernel(space: CovariateSpace, support, cdf: dict, pxz: dict) -> AtomKernel:
    """Plug-in atoms cell by cell: x, then z (pairs with p(x, z) = 0 skipped),
    then treatment."""
    pz = np.array([sum(pxz[(x, z)] for x in space.x_levels) for z in space.z_levels])
    ys, zs, slots, masses = [], [], [], []
    for xj, x in enumerate(space.x_levels):
        for zj, z in enumerate(space.z_levels):
            if pxz[(x, z)] <= 0.0:
                continue
            for i in space.treatments:
                f = cdf[(i, x, z)]
                ys.append(f.points)
                zs.append(np.full(f.points.size, zj))
                slots.append(np.full(f.points.size, xj * space.k + i - 1))
                masses.append(f.masses * (pxz[(x, z)] / pz[zj]))
    return AtomKernel(support, np.concatenate(ys), np.concatenate(zs),
                      np.concatenate(slots), np.concatenate(masses), pz)


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def draw_sample(rng, support, values, size, no_x, no_z, extra_k) -> TrainingSample:
    """A sample over a space that may have x levels and groups with no
    records and a K above the largest observed treatment."""
    nx, nz = int(rng.integers(1, 4)) + no_x, int(rng.integers(1, 4)) + no_z
    k = int(rng.integers(2, 4))
    space = CovariateSpace(tuple(f"x{j}" for j in range(nx)),
                           tuple(f"z{j}" for j in range(nz)), k + extra_k)
    n = {"one": 1, "small": int(rng.integers(2, 40)), "large": int(rng.integers(200, 400))}[size]
    a, b = support.a, support.b
    if values == "continuous":
        ys = a + (b - a) * rng.random(n)
    elif values == "ties":
        ys = rng.choice(np.linspace(a, b, 7), n)
    else:  # endpoints: many cells hold only records at a or at b
        ys = rng.choice([a, b], n, p=[0.2, 0.8])
    return TrainingSample(space, support, ys, rng.integers(0, nx - no_x, n),
                          rng.integers(0, nz - no_z, n), rng.integers(1, k + 1, n))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from(SUPPORTS),
       st.sampled_from(["continuous", "ties", "endpoints"]),
       st.sampled_from(["one", "small", "large"]),
       st.integers(0, 1), st.integers(0, 1), st.integers(0, 2))
def test_columnar_fit_matches_per_cell_reference(seed, support, values, size, no_x, no_z,
                                                 extra_k):
    rng = np.random.default_rng(seed)
    sample = draw_sample(rng, support, values, size, no_x, no_z, extra_k)
    arr = fit_plugin(sample)
    cdf, pxz = reference_fit(sample)
    for cell, want in cdf.items():
        got = arr.cdf[cell]
        assert same_bits(got.points, want.points) and same_bits(got.masses, want.masses), cell
    assert list(arr.cdf) == list(cdf)
    pairs = list(pxz)
    assert same_bits(arr.pair_mass.ravel(), np.array([pxz[p] for p in pairs]))
    assert arr.pxz == pxz
    assert same_bits(arr.cell_records, cell_counts(sample).ravel())
    kernel, want = arr.kernel, reference_kernel(sample.space, support, cdf, pxz)
    for name in ("grid", "index", "slot", "mass", "pz"):
        assert same_bits(getattr(kernel, name), getattr(want, name)), name


@pytest.mark.parametrize("ys, sign", [([-0.0, 0.0, 0.5], -1.0), ([0.0, -0.0, 0.5], 1.0)])
def test_mixed_signed_zeros_keep_the_first_records_sign(ys, sign):
    space = CovariateSpace(("x0",), ("z0",), 2)
    sample = TrainingSample(space, SupportInterval(-2.0, 3.0), ys, [0] * 3, [0] * 3, [1] * 3)
    f = fit_plugin(sample).cdf[(1, "x0", "z0")]
    assert f.points.tolist() == [0.0, 0.5]
    assert np.copysign(1.0, f.points[0]) == sign
    assert f.masses.tolist() == [2 / 3, 1 / 3]


def draw_tied_sample(rng, values, wide) -> TrainingSample:
    """Records in a few cells of a space that has empty cells (more than
    65,536 cells when wide): outcomes among a handful of values with many
    zeros of both signs, or one value per cell, so that every record of a
    cell ties."""
    if wide:
        nx, nz, k = 260, 127, 2
    else:
        nx, nz, k = (int(v) for v in rng.integers((1, 1, 2), (6, 4, 5)))
    space = CovariateSpace(tuple(f"x{j}" for j in range(nx)),
                           tuple(f"z{j}" for j in range(nz)), k)
    n = int(rng.integers(1, 300))
    cells = rng.integers(0, k * nx * nz, int(rng.integers(1, 13)))
    cell = rng.choice(cells, n)
    if values == "zeros":
        ys = rng.choice([0.0, -0.0, 0.0, -0.0, 0.5, -1.0, 1.0], n)
    else:  # one outcome per cell, zeros written with either sign
        ys = rng.choice([0.0, 0.25, -0.75, 1.0], k * nx * nz)[cell]
    ys = np.where((ys == 0.0) & (rng.random(n) < 0.5), -ys, ys)
    d, rest = np.divmod(cell, nx * nz)
    return TrainingSample(space, SupportInterval(-1.0, 1.0), ys, rest // nz, rest % nz, d + 1)


def assert_fit_matches_lexsort(sample):
    arr, want = fit_plugin(sample), fit_plugin_lexsort(sample)
    for name in ("points", "masses", "offsets", "cell_records", "pair_mass"):
        assert same_bits(getattr(arr, name), getattr(want, name)), name


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["zeros", "tied-cells"]))
def test_fit_matches_lexsort_reference(seed, values):
    assert_fit_matches_lexsort(draw_tied_sample(np.random.default_rng(seed), values, False))


# each example costs about 0.3 s: the fit loops over the cells once
@settings(max_examples=6, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["zeros", "tied-cells"]))
def test_fit_over_more_than_65536_cells_matches_lexsort_reference(seed, values):
    sample = draw_tied_sample(np.random.default_rng(seed), values, True)
    assert cell_counts(sample).size > 1 << 16  # the cell codes do not fit in 16 bits
    assert_fit_matches_lexsort(sample)


def test_array_from_cell_cdfs_keeps_them_bitwise():
    rng = np.random.default_rng(3)
    arr = random_cond_array(rng)
    again = cond_array(arr.space, arr.cdf, arr.pxz)
    assert len(again.cdf) == len(arr.cdf) and again.pxz == arr.pxz
    for cell, f in arr.cdf.items():
        g = again.cdf[cell]
        assert isinstance(g, StepCdf)
        assert same_bits(g.points, f.points) and same_bits(g.masses, f.masses)
        assert not g.points.flags.writeable and not g.masses.flags.writeable
    assert again.cell_records is None
    with pytest.raises(KeyError):
        again.cdf[(arr.space.k + 1, arr.space.x_levels[0], arr.space.z_levels[0])]
    with pytest.raises(TypeError):
        again.cdf[(1, arr.space.x_levels[0], arr.space.z_levels[0])] = None
