"""Training samples and the plug-in fit of conditional-CDF arrays.

The plug-in fit groups observations into treatment cells (d, x, z), takes the
empirical CDF in each cell (point mass at the upper support endpoint b when a
cell is empty), and records cell frequencies.  It does so in one pass: the
records are sorted by outcome and then, stably, by cell, and each run of
equal outcomes in a cell becomes one atom of the columns that the array is
built from (`CondCdfArray`), with no per-cell objects.  A zero atom takes
the sign of its cell's first zero record, so the outcome sort need not be
stable.

The plug-in objective is also the IPW objective with cell-frequency
propensities: that estimator weights a record by 1 / (n * e_hat * p_Z_hat)
= n_xz / (n_ixz * n_z), which is exactly its plug-in atom mass.  So every
sweep runs on the fitted array's kernel (`CondCdfArray.kernel`).

Everything here is a deterministic function of the sample; no hidden RNG.
"""

from __future__ import annotations

import numpy as np

from .distributions import OutOfSupport, SupportInterval
from .objective import CondCdfArray, CovariateSpace


class TrainingSample:
    """A nonempty sample of training records over one covariate space and support.

    Stored as columns: outcomes, level indices of x and z, and 1-based
    treatments, so that fitting is vectorized.
    """

    def __init__(self, space: CovariateSpace, support: SupportInterval, ys, xi, zi, d):
        ys = np.asarray(ys, dtype=float).ravel()
        xi = np.asarray(xi, dtype=np.intp).ravel()
        zi = np.asarray(zi, dtype=np.intp).ravel()
        d = np.asarray(d, dtype=np.intp).ravel()
        if ys.size == 0:
            raise ValueError("training sample must be nonempty")
        if not (ys.size == xi.size == zi.size == d.size):
            raise ValueError("sample columns must have equal length")
        bad = np.flatnonzero((ys < support.a) | (ys > support.b) | ~np.isfinite(ys))
        if bad.size:
            raise OutOfSupport(
                f"outcome {float(ys[bad[0]])!r} at row {int(bad[0])} outside "
                f"[{support.a}, {support.b}]"
            )
        if np.any(xi < 0) or np.any(xi >= len(space.x_levels)):
            raise ValueError("x index out of range")
        if np.any(zi < 0) or np.any(zi >= len(space.z_levels)):
            raise ValueError("z index out of range")
        bad = np.flatnonzero((d < 1) | (d > space.k))
        if bad.size:
            raise ValueError(f"treatment {d[bad[0]]} at row {bad[0]} outside 1..{space.k}")
        for arr in (ys, xi, zi, d):
            arr.flags.writeable = False
        self.space, self.support = space, support
        self.ys, self.xi, self.zi, self.d = ys, xi, zi, d

    @property
    def n(self) -> int:
        return self.ys.size

    def cell_index(self) -> np.ndarray:
        """Flat cell (d-1)*|X|*|Z| + x*|Z| + z of each record."""
        nx, nz = len(self.space.x_levels), len(self.space.z_levels)
        return (self.d - 1) * (nx * nz) + self.xi * nz + self.zi


def fit_plugin(sample: TrainingSample) -> CondCdfArray:
    """Plug-in array: per-cell empirical CDFs and cell frequencies.

    Empty cells get a point mass at the upper support endpoint b.  Records
    with equal outcomes in a cell share one atom; when they mix 0.0 and
    -0.0, the atom keeps the sign of the first such record in the sample.
    The records are ordered by outcome with a quicksort, which leaves ties in
    any order, then by cell with a stable sort (a radix sort while the cell
    codes fit in 16 bits).
    """
    space = sample.space
    shape = (space.k, len(space.x_levels), len(space.z_levels))
    cell = sample.cell_index()
    records = np.bincount(cell, minlength=np.prod(shape))
    order = np.argsort(sample.ys + 0.0)  # + 0.0 turns -0.0 into 0.0: zeros tie
    codes = cell[order]
    if records.size <= 1 << 16:
        codes = codes.astype(np.uint16)  # numpy's stable sort is then a radix sort
    order = order[np.argsort(codes, kind="stable")]
    zeros = np.flatnonzero(sample.ys == 0.0)
    first_zero = zeros[np.unique(cell[zeros], return_index=True)[1]]
    cell, ys = cell[order], sample.ys[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], (cell[1:] != cell[:-1]) | (ys[1:] != ys[:-1]))))
    cell, atom_ys = cell[starts], ys[starts]
    # a cell's zero atom (cells ascend) takes the sign of its first zero record
    atom_ys[atom_ys == 0.0] = sample.ys[first_zero]
    # one atom per (cell, distinct outcome); an empty cell gets one atom at b,
    # so each atom moves up by the number of empty cells before its own
    empty = records == 0
    offsets = np.zeros(records.size + 1, dtype=np.intp)
    np.cumsum(np.bincount(cell, minlength=records.size) + empty, out=offsets[1:])
    at = np.arange(starts.size) + (np.cumsum(empty) - empty)[cell]
    points = np.full(offsets[-1], sample.support.b)
    points[at] = atom_ys
    masses = np.ones(offsets[-1])
    masses[at] = np.diff(starts, append=ys.size) / records[cell]
    # divide each cell's masses by their own sum, as the toy array's are
    sizes = np.diff(offsets)
    totals = masses[offsets[:-1]]  # a one-atom cell's sum is its mass
    for c in np.flatnonzero(sizes > 1).tolist():
        totals[c] = masses[offsets[c]:offsets[c + 1]].sum()
    masses /= np.repeat(totals, sizes)
    return CondCdfArray(space, sample.support, points, masses, offsets,
                        records.reshape(shape).sum(axis=0) / sample.n, records)
