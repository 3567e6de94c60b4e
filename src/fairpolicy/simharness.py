"""Monte Carlo replication engine for the closed-form example.

For each (sample size, assignment mechanism) cell and each replication, draw
a fresh training sample, run it through `selection.sweep` (the plug-in
estimator with Gini-welfare and KS, which sweep solves by minorize-maximize,
so no optimizer settings are taken), and score each fitted rule's regret
against the analytic oracle: true maximum value minus the true objective at
the estimated rule.  Regret is computed against the closed forms, not a
plug-in estimate of the maximum, because the example makes the population
objective exact.

Replication RNG streams derive from (seed, cell index, replication index),
so a replication's rows depend on nothing else.  `run_simulation` therefore
runs the replications on every CPU the process may use (its affinity mask,
which `taskset` or a cpuset narrows): W forked workers, one per CPU, worker
w running replications w, w + W, ... and piping its rows back, with the rows
put back in task order.  The workers are `forking.Forks` children, as is
`fit`'s sample reader.  The calling process runs no replication itself,
so no replication's memory adds to its peak.  The rows, and so every
output, are the same whatever the CPU count.  With one usable CPU, one
replication, or no `os.fork`, the replications run in-process.
`cli.main` runs numpy's BLAS on one thread unless the caller sets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS``, so
each replication's sweep is the same on any CPU count too, and the command
process holds one thread when it forks.  A caller's BLAS thread count
above 1 starts an OpenBLAS thread pool, and CPython 3.12 and later warn
(DeprecationWarning) when a process with threads forks; the suite has run
on Python 3.11 only, so that case is untested.
"""

from __future__ import annotations

from functools import cached_property, partial

import numpy as np

from .forking import Forks, WorkerDied, usable_cpus
from .functionals import SimilarityMeasure, TargetFunctional
from .selection import LambdaGrid, derive_seed, sweep
from .toy import MECHANISMS, ToyParams, toy_max_value, toy_objective, toy_sample

GINI = TargetFunctional("gini-welfare")
KS = SimilarityMeasure("ks")


class SimConfig:
    def __init__(self, sample_sizes, mechanisms, grid: LambdaGrid, replications: int, p: float,
                 seed: int):
        sample_sizes, mechanisms = tuple(int(n) for n in sample_sizes), tuple(mechanisms)
        if not sample_sizes or any(n < 1 for n in sample_sizes):
            raise ValueError("sample_sizes must be positive")
        if not mechanisms or any(m not in MECHANISMS for m in mechanisms):
            raise ValueError(f"mechanisms must be among {MECHANISMS}")
        for name, values in (("sample_sizes", sample_sizes), ("mechanisms", mechanisms)):
            repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
            if repeated is not None:
                raise ValueError(f"{name} lists {repeated!r} twice")
        if replications < 1:
            raise ValueError("replications must be >= 1")
        if not 0.5 < p < 1.0:
            raise ValueError(f"p must lie in (1/2, 1), got {p!r}")
        self.sample_sizes, self.mechanisms, self.grid = sample_sizes, mechanisms, grid
        self.replications, self.p, self.seed = replications, p, seed


class SimRow:
    """One replication's result at one (n, mechanism, lambda)."""

    def __init__(self, n: int, mechanism: str, lam: float, replication: int, delta_hat: float,
                 emp_value: float, regret: float):
        self.n, self.mechanism, self.lam, self.replication = n, mechanism, lam, replication
        self.delta_hat, self.emp_value, self.regret = delta_hat, emp_value, regret

    def __eq__(self, other):  # two runs' rows are compared row by row
        if type(other) is not SimRow:
            return NotImplemented
        return vars(self) == vars(other)


class CellAggregate:
    """Mean / standard deviation / median of a metric within one cell."""

    def __init__(self, mean: float, sd: float, median: float):
        self.mean, self.sd, self.median = mean, sd, median


class SimResult:
    def __init__(self, config: SimConfig, rows: tuple[SimRow, ...]):
        self.config, self.rows = config, rows

    @cached_property
    def _cells(self) -> dict:
        """Rows grouped by (n, mechanism, lambda), each group in row order."""
        cells = {}
        for r in self.rows:
            cells.setdefault((r.n, r.mechanism, r.lam), []).append(r)
        return cells

    def cell_rows(self, n: int, mechanism: str, lam: float) -> list[SimRow]:
        return list(self._cells.get((n, mechanism, lam), ()))

    def aggregates(self) -> dict:
        """Per (n, mechanism, lambda): CellAggregates of regret, delta_hat, emp_value."""
        out = {}
        for n in self.config.sample_sizes:
            for mech in self.config.mechanisms:
                for lam in self.config.grid:
                    rows = self.cell_rows(n, mech, lam)
                    out[(n, mech, lam)] = {
                        name: _aggregate([getattr(r, name) for r in rows])
                        for name in ("regret", "delta_hat", "emp_value")
                    }
        return out


def _aggregate(values) -> CellAggregate:
    arr = np.asarray(values, dtype=float)
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    # np.median's value on finite input (the mean of the middle one or two
    # sorted entries), without its NaN check, which imports numpy.ma
    middle = np.sort(arr)[(arr.size - 1) // 2:arr.size // 2 + 1]
    return CellAggregate(mean=float(arr.mean()), sd=sd, median=float(middle.mean()))


def regret_toy(delta_hat: float, lam: float, p: float) -> float:
    """True-maximum value minus the true objective at the estimated rule.

    Nonnegative by construction; float residue within -1e-9 is clamped to 0.
    """
    value = toy_max_value(ToyParams(p, lam)) - toy_objective(delta_hat, ToyParams(p, lam))
    if -1e-9 <= value < 0.0:
        return 0.0
    return value


def _replication_seed(seed: int, cell: int, rep: int) -> int:
    return derive_seed(seed, 2, cell, rep)


def _replicate(cfg: SimConfig, task: tuple[int, int, str, int]) -> list[SimRow]:
    """One replication: sample -> sweep -> one SimRow per grid lambda."""
    cell_idx, n, mech, rep = task
    rep_seed = _replication_seed(cfg.seed, cell_idx, rep)
    sample = toy_sample(n, cfg.p, mech, rep_seed)
    path = sweep(sample, cfg.grid, GINI, KS)
    rows = []
    for lam, entry in zip(cfg.grid, path.entries):
        delta_hat = float(entry.rule.probs[0, 0])
        rows.append(
            SimRow(
                n=n,
                mechanism=mech,
                lam=lam,
                replication=rep,
                delta_hat=delta_hat,
                emp_value=entry.obj_value,
                regret=regret_toy(delta_hat, lam, cfg.p),
            )
        )
    return rows


def _map_in_order(fn, tasks: list) -> list:
    """[fn(task) for task in tasks], spread over the usable CPUs.

    Worker w of W is a forked child (`forking.Forks`) that runs tasks[w::W]
    and pipes back its results; this process runs no task and collects them
    in worker order.  A worker's exception re-raises here with its type
    unchanged; a worker that exits without its results raises WorkerDied.
    Whatever is raised, no worker outlives the call.
    """
    workers = min(len(tasks), usable_cpus())
    results = [None] * len(tasks)
    with Forks(workers) as forks:
        collects = [forks.start(f"worker {w}", list, map(fn, tasks[w::workers]))
                    for w in range(workers)]
        for w, collect in enumerate(collects):
            results[w::workers] = collect()
    return results


def run_simulation(cfg: SimConfig) -> SimResult:
    """Replicate sample -> sweep -> oracle regret, one task per replication."""
    cells = [(n, mech) for n in cfg.sample_sizes for mech in cfg.mechanisms]
    tasks = [
        (cell_idx, n, mech, rep)
        for cell_idx, (n, mech) in enumerate(cells)
        for rep in range(cfg.replications)
    ]
    per_task = _map_in_order(partial(_replicate, cfg), tasks)
    return SimResult(config=cfg, rows=tuple(row for rows in per_task for row in rows))
