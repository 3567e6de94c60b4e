"""Shared generators and property checks, reused by module tests and the
acceptance suite's property-bundle criterion."""

from __future__ import annotations

import csv

import numpy as np

from fairpolicy import (
    CondCdfArray,
    CovariateSpace,
    DecisionRule,
    SimilarityMeasure,
    StepCdf,
    SupportInterval,
    TargetFunctional,
    TrainingSample,
    d1,
)
from fairpolicy.optimizer import _random_probs
from oracles import MonotoneStep, cond_array, mixture, project_mab, step_cdf, target_value

UNIT = SupportInterval(0.0, 1.0)
KS = SimilarityMeasure("ks")


def point_mass(point: float, support: SupportInterval) -> StepCdf:
    """Degenerate CDF with all mass at one point."""
    return step_cdf(support, [point], [1.0])


def atoms(f: StepCdf) -> list[tuple[float, float]]:
    return list(zip(f.points.tolist(), f.masses.tolist()))


def grid_value(s: SimilarityMeasure, f: StepCdf, g: StepCdf) -> float:
    """S(F, G) by the grid form the objective kernel runs, on the union of
    both CDFs' atoms."""
    grid = np.union1d(f.points, g.points)
    return s.value_on_grid(grid, f.eval_many(grid), g.eval_many(grid))


def random_rule(space: CovariateSpace, rng: np.random.Generator) -> DecisionRule:
    """Rule with every row drawn uniformly on the simplex."""
    return DecisionRule(space, _random_probs(space, rng))


def random_step_cdf(rng: np.random.Generator, support=UNIT, max_atoms: int = 8) -> StepCdf:
    k = int(rng.integers(1, max_atoms + 1))
    pts = support.a + (support.b - support.a) * np.sort(rng.random(k))
    masses = rng.dirichlet(np.ones(k))
    return step_cdf(support, pts, masses)


def random_monotone_step(rng: np.random.Generator, support=UNIT, max_atoms: int = 8) -> MonotoneStep:
    k = int(rng.integers(0, max_atoms + 1))
    pts = support.a + (support.b - support.a) * rng.random(k)
    increments = rng.exponential(scale=rng.uniform(0.05, 0.6), size=k)
    return MonotoneStep(support, pts, increments)


def random_space(rng: np.random.Generator) -> CovariateSpace:
    nx = int(rng.integers(1, 4))
    nz = int(rng.integers(1, 4))
    k = int(rng.integers(2, 4))
    return CovariateSpace(
        tuple(f"x{i}" for i in range(nx)),
        tuple(f"z{i}" for i in range(nz)),
        k,
    )


def random_cond_array(rng: np.random.Generator, space: CovariateSpace | None = None,
                      support=UNIT) -> CondCdfArray:
    space = space if space is not None else random_space(rng)
    cdf = {
        (i, x, z): random_step_cdf(rng, support)
        for i in space.treatments
        for x in space.x_levels
        for z in space.z_levels
    }
    pairs = [(x, z) for x in space.x_levels for z in space.z_levels]
    raw = rng.dirichlet(np.ones(len(pairs)))
    pxz = {pair: raw[j] for j, pair in enumerate(pairs)}
    return cond_array(space, cdf, pxz)


def labelled_sample(space: CovariateSpace, ys, xs, zs, ds, support=UNIT) -> TrainingSample:
    """A sample from parallel columns, with x and z given as levels of space."""
    return TrainingSample(space, support, ys, [space.x_levels.index(x) for x in xs],
                          [space.z_levels.index(z) for z in zs], ds)


def random_training_sample(rng: np.random.Generator, n: int | None = None,
                           support=UNIT) -> TrainingSample:
    space = random_space(rng)
    n = n if n is not None else int(rng.integers(1, 60))
    return TrainingSample(
        space,
        support,
        support.a + (support.b - support.a) * rng.random(n),
        rng.integers(0, len(space.x_levels), n),
        rng.integers(0, len(space.z_levels), n),
        rng.integers(1, space.k + 1, n),
    )



def write_sample_csv(path: str, sample: TrainingSample) -> None:
    """Write a sample as the CLI reads it: header y,x,z,d, y by repr, LF line ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["y", "x", "z", "d"])
        xl, zl = sample.space.x_levels, sample.space.z_levels
        for y, xi, zi, d in zip(sample.ys, sample.xi, sample.zi, sample.d):
            writer.writerow([repr(float(y)), xl[xi], zl[zi], int(d)])


def dense_grid_sup(f: StepCdf, g: StepCdf, signed: bool = False) -> float:
    """Brute-force sup over merged atoms plus midpoints (the KS oracle)."""
    pts = np.union1d(f.points, g.points)
    mids = (pts[:-1] + pts[1:]) / 2.0 if pts.size > 1 else np.array([])
    below = np.array([pts[0] - 1e-9])
    grid = np.concatenate([below, pts, mids])
    diffs = f.eval_many(grid) - g.eval_many(grid)
    return float(diffs.max() if signed else np.abs(diffs).max())


# ---------------------------------------------------------------------------
# property bundles (module tests run these individually; acceptance reruns all)

def check_mixture_linearity(rng: np.random.Generator, trials: int = 50) -> float:
    """eval(mixture, y) == sum_k w_k eval(F_k, y); returns the worst error."""
    worst = 0.0
    for _ in range(trials):
        ncomp = int(rng.integers(1, 5))
        comps = [random_step_cdf(rng) for _ in range(ncomp)]
        weights = rng.dirichlet(np.ones(ncomp))
        mixed = mixture(list(zip(comps, weights)))
        ys = rng.random(20)
        direct = sum(w * c.eval_many(ys) for c, w in zip(comps, weights))
        worst = max(worst, float(np.abs(mixed.eval_many(ys) - direct).max()))
    return worst


def check_ks_metric_axioms(rng: np.random.Generator, trials: int = 50) -> float:
    """Symmetry and triangle inequality on random triples; worst violation."""
    worst = 0.0
    for _ in range(trials):
        f, g, h = (random_step_cdf(rng) for _ in range(3))
        fg, gf = grid_value(KS, f, g), grid_value(KS, g, f)
        worst = max(worst, abs(fg - gf), -fg)
        worst = max(worst, grid_value(KS, f, h) - (fg + grid_value(KS, g, h)))
    return worst


def check_project_mab_validity(rng: np.random.Generator, trials: int = 100) -> None:
    """project_mab yields a valid StepCdf for every random monotone step."""
    for _ in range(trials):
        g = random_monotone_step(rng)
        cdf = project_mab(g)
        assert cdf.support == g.support
        assert np.all(cdf.masses > 0)
        assert abs(cdf.masses.sum() - 1.0) < 1e-9
        assert np.all(np.diff(cdf.points) > 0)
        assert cdf.eval_many(g.support.b) == 1.0


def check_lipschitz_audit(rng: np.random.Generator, pairs: int = 500,
                          support=UNIT) -> tuple[float, float]:
    """Worst excess of |T(F)-T(G)| over (b - a) ||F-G||_inf for Gini-welfare
    and mean on the support [a, b]."""
    gini, mean = TargetFunctional("gini-welfare"), TargetFunctional("mean")
    worst_gini = -np.inf
    worst_mean = -np.inf
    for _ in range(pairs):
        f, g = random_step_cdf(rng, support), random_step_cdf(rng, support)
        bound = (support.b - support.a) * grid_value(KS, f, g)
        worst_gini = max(worst_gini, abs(target_value(gini, f) - target_value(gini, g)) - bound)
        worst_mean = max(worst_mean, abs(target_value(mean, f) - target_value(mean, g)) - bound)
    return worst_gini, worst_mean


def check_d1_triangle(rng: np.random.Generator, trials: int = 100) -> float:
    worst = -np.inf
    for _ in range(trials):
        space = random_space(rng)
        a, b, c = (random_rule(space, rng) for _ in range(3))
        worst = max(worst, d1(a, c) - (d1(a, b) + d1(b, c)))
    return worst


def check_optimizer_feasibility(seed: int = 0) -> int:
    """Every probe the optimizer makes is a simplex-feasible probability
    matrix; returns the number of probes."""
    from fairpolicy import OptimizerConfig, maximize

    space = CovariateSpace(("a", "b"), ("u",), 3)
    probes = []

    def obj(probs: np.ndarray) -> float:
        assert np.all(probs >= 0.0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        probes.append(1)
        return -float(((probs[:, 0] - 0.4) ** 2).sum())

    maximize(obj, space, OptimizerConfig(seed=seed, candidate_starts=10, max_iters=200))
    return len(probes)
