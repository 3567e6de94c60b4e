"""Derivative-free maximization of rule-valued objectives over products of simplices.

The objective takes a rule's (|X|, K) probability matrix.  Each row is
reparametrized through a softmax map from K-1 unconstrained coordinates
(last coordinate pinned at 0), so every probe is a feasible matrix and only
the returned result is built into a `DecisionRule`.  Nelder-Mead (classical
coefficients, initial simplex edge 0.5, implemented here so that importing
the package needs only numpy) runs jointly over all rows while the
unconstrained dimension is at most 40, and in cyclic block-coordinate sweeps
over rows above that.

The search starts from the best of `candidate_starts` matrices drawn
uniformly from the product of simplices; independent restarts use RNG
streams derived from (seed, restart index), so results are deterministic and
restart sets are prefix-monotone.  The achieved optimization accuracy is best-effort: the true
supremum is unknown, and `converged` only reports the internal ftol
criterion.  `selection.sweep` sends the plug-in objectives of the mean and
Gini-welfare targets under the KS, one-sided KS and |mean difference|
penalties to `lp.PluginProgram` instead: minorize-maximize over a linear
program, exact for the mean and local for Gini-welfare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objective import CovariateSpace, DecisionRule

_JOINT_DIM_LIMIT = 40
_INITIAL_EDGE = 0.5
_MAX_BLOCK_SWEEPS = 1000
_MAX_POLISH_ROUNDS = 30
_PROB_FLOOR = 1e-12  # for mapping simplex points back to unconstrained coords
_MASK64 = (1 << 64) - 1


def seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    """The SeedSequence of stream `key` under `seed` (taken modulo 2**64)."""
    return np.random.SeedSequence(entropy=seed & _MASK64, spawn_key=key)


def derive_seed(seed: int, *key: int) -> int:
    """A 64-bit seed for stream `key` under `seed`."""
    return int(seed_sequence(seed, *key).generate_state(1, dtype=np.uint64)[0])


class NonFiniteObjective(ValueError):
    """The objective returned NaN or infinity at a feasible rule."""


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 1
    candidate_starts: int = 50
    max_iters: int = 500
    ftol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.candidate_starts < 1 or self.max_iters < 1:
            raise ValueError("restarts, candidate_starts, and max_iters must be >= 1")
        if not self.ftol > 0:
            raise ValueError("ftol must be positive")


@dataclass(frozen=True, eq=False)
class OptimResult:
    """A maximizer's rule, the objective at it, and how far to trust it.

    evaluations counts objective calls (from `lp.PluginProgram.maximize`,
    the group CDFs its kernel computed).  From `maximize`, converged only
    says that no budget stopped the final Nelder-Mead run (it can hold well
    short of the maximum), and gap is None.  From the plug-in program, for
    the mean target gap is the certified distance from value up to an upper
    bound on the maximum, and converged means gap <= 1e-9; for Gini-welfare,
    converged means that no start hit the step cap, and gap is None.
    """

    rule: DecisionRule
    value: float
    evaluations: int
    converged: bool
    gap: float | None = None


def _random_probs(space: CovariateSpace, rng: np.random.Generator) -> np.ndarray:
    """Probability matrix with every row drawn uniformly on the simplex.

    Dirichlet(1, ..., 1) via the exponential-spacings construction: K standard
    exponentials normalized by their sum.
    """
    rows = rng.standard_exponential((len(space.x_levels), space.k))
    return rows / rows.sum(axis=1, keepdims=True)


def random_rule(space: CovariateSpace, rng: np.random.Generator) -> DecisionRule:
    """Rule with every row drawn uniformly on the simplex."""
    return DecisionRule(space, _random_probs(space, rng))


def _softmax_rows(u: np.ndarray) -> np.ndarray:
    """Map (|X|, K-1) unconstrained coords to simplex rows, last logit pinned at 0."""
    logits = np.zeros((u.shape[0], u.shape[1] + 1))
    logits[:, :-1] = u
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def _to_unconstrained(probs: np.ndarray) -> np.ndarray:
    """Inverse of _softmax_rows up to the probability floor."""
    p = np.maximum(probs, _PROB_FLOOR)
    return np.log(p[:, :-1]) - np.log(p[:, -1:])


class CountingObjective:
    """obj with its calls counted; a NaN or infinite value raises
    NonFiniteObjective."""

    def __init__(self, obj):
        self.obj = obj
        self.evaluations = 0

    def __call__(self, probs: np.ndarray) -> float:
        self.evaluations += 1
        value = float(self.obj(probs))
        if not math.isfinite(value):
            raise NonFiniteObjective(f"objective returned {value!r}")
        return value

    def at_u(self, u: np.ndarray) -> float:
        return self(_softmax_rows(u))


def _initial_simplex(x0: np.ndarray) -> np.ndarray:
    dim = x0.size
    sim = np.tile(x0, (dim + 1, 1))
    for i in range(dim):
        sim[i + 1, i] += _INITIAL_EDGE
    return sim


class _BudgetSpent(Exception):
    """The next objective call would exceed Nelder-Mead's evaluation budget."""


def _nelder_mead(fun, x0: np.ndarray, max_iters: int, ftol: float):
    """Minimize fun from _initial_simplex(x0); return (best vertex, success).

    Classical coefficients (reflection 1, expansion 2, contraction and shrink
    1/2).  Stops when every vertex is within 1e-6 of the best in each
    coordinate and within ftol in value, after max_iters iterations, or when
    the next call would exceed 4 * max_iters evaluations (that iteration then
    ends where it is).  success is false exactly when a budget stopped it.
    The step order, tie rules and re-sorting follow scipy 1.17's
    minimize(method="Nelder-Mead", adaptive=False), so results agree with it
    bitwise.  fun must not modify its argument.
    """
    max_evals = 4 * max_iters
    evals = 0

    def f(x):
        nonlocal evals
        if evals >= max_evals:
            raise _BudgetSpent
        evals += 1
        return fun(x)

    def by_value(sim, fsim):
        order = np.argsort(fsim)
        return np.take(sim, order, 0), np.take(fsim, order, 0)

    sim = _initial_simplex(x0)
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    sim, fsim = by_value(*by_value(sim, fsim))
    iterations = 1
    while evals < max_evals and iterations < max_iters:
        if (np.max(np.abs(sim[1:] - sim[0])) <= 1e-6
                and np.max(np.abs(fsim[0] - fsim[1:])) <= ftol):
            break
        try:
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            iterations += 1
        except _BudgetSpent:
            pass
        sim, fsim = by_value(sim, fsim)
    return sim[0], not (evals >= max_evals or iterations >= max_iters)


def _maximize_from(counting: CountingObjective, u0: np.ndarray, cfg: OptimizerConfig):
    """Nelder-Mead ascent from u0; joint when small, block sweeps otherwise.

    The joint search reruns NM from its own endpoint with a fresh initial
    simplex until a round stops improving by more than ftol; a collapsed
    simplex (frequent on kinked objectives) is thereby re-expanded.
    """
    nx, dims = u0.shape

    if nx * dims <= _JOINT_DIM_LIMIT:
        def neg(flat_u):
            return -counting.at_u(flat_u.reshape(nx, dims))

        x = u0.ravel().copy()
        best = -np.inf
        converged = False
        for _ in range(_MAX_POLISH_ROUNDS):
            x, converged = _nelder_mead(neg, x, cfg.max_iters, cfg.ftol)
            value = -neg(x)
            if value - best <= cfg.ftol:
                best = max(best, value)
                break
            best = value
        u = x.reshape(nx, dims)
        return u, best, converged

    u = u0.copy()
    best = counting.at_u(u)
    converged = False
    for _ in range(_MAX_BLOCK_SWEEPS):
        sweep_start = best
        block_converged = True
        for row in range(nx):
            def neg_row(block, row=row):
                trial = u.copy()
                trial[row] = block
                return -counting.at_u(trial)

            x, ok = _nelder_mead(neg_row, u[row].copy(), cfg.max_iters, cfg.ftol)
            block_converged &= ok
            trial = u.copy()
            trial[row] = x
            value = counting.at_u(trial)
            if value > best:
                u, best = trial, value
        if best - sweep_start <= cfg.ftol:
            converged = block_converged
            break
    return u, best, converged


def maximize(obj, space: CovariateSpace, cfg: OptimizerConfig) -> OptimResult:
    """Best-effort maximizer of obj over all decision rules on the space.

    obj maps a probability matrix to a finite float; the result's value is
    obj at the returned rule's probs.  Deterministic given cfg.seed; restarts
    with a common seed are prefix-monotone in the achieved value.  Ties
    across restarts go to the lowest restart index.
    """
    counting = CountingObjective(obj)
    best_probs = None
    best_value = -np.inf
    best_converged = False
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(seed_sequence(cfg.seed, restart))
        start_probs = None
        start_value = -np.inf
        for _ in range(cfg.candidate_starts):
            cand = _random_probs(space, rng)
            value = counting(cand)
            if value > start_value:
                start_probs, start_value = cand, value
        u, value, converged = _maximize_from(counting, _to_unconstrained(start_probs), cfg)
        if value >= start_value:
            restart_probs, restart_value = _softmax_rows(u), value
        else:
            # softmax round-trip of the start lost more than the search gained
            restart_probs, restart_value = start_probs, start_value
        if restart_value > best_value:
            best_probs, best_value = restart_probs, restart_value
            best_converged = converged
    rule = DecisionRule(space, best_probs)
    return OptimResult(
        rule=rule, value=counting(rule.probs), evaluations=counting.evaluations,
        converged=best_converged,
    )
