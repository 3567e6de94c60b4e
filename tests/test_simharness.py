import os
import time

import numpy as np
import pytest

import fairpolicy.objective
import fairpolicy.simharness
from fairpolicy import (
    LambdaGrid,
    OptimizerConfig,
    SimConfig,
    ToyParams,
    regret_toy,
    run_simulation,
    sweep,
    toy_argmax,
    toy_max_value,
    toy_objective,
    toy_sample,
    toy_threshold,
)
from fairpolicy.selection import NonFiniteObjective
from fairpolicy.simharness import GINI, KS, WorkerDied, _replication_seed


def small_config(**overrides):
    base = dict(
        sample_sizes=(200,),
        mechanisms=("A1",),
        grid=LambdaGrid((0.0, 0.5)),
        replications=3,
        p=0.75,
        seed=11,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestRegretToy:
    def test_zero_at_argmax(self):
        for lam in (0.0, 0.123, 0.2, 1.0):
            params = ToyParams(0.75, lam)
            for d in toy_argmax(params):
                assert abs(regret_toy(d, lam, 0.75)) < 1e-10

    def test_closed_form_subtraction(self):
        want = toy_max_value(ToyParams(0.75, 0.0)) - toy_objective(0.5, ToyParams(0.75, 0.0))
        assert regret_toy(0.5, 0.0, 0.75) == pytest.approx(want)

    def test_nonnegative_on_grid(self):
        for lam in np.linspace(0, 1, 11):
            for d in np.linspace(0, 1, 21):
                assert regret_toy(float(d), float(lam), 0.75) >= 0.0

    def test_continuous_with_kink_at_half(self):
        # finite differences stay bounded by the closed form's Lipschitz scale;
        # the only slope break sits at delta = 1/2
        lam = 0.3
        ds = np.linspace(0.0, 1.0, 2001)
        vals = np.array([regret_toy(float(d), lam, 0.75) for d in ds])
        diffs = np.abs(np.diff(vals)) / (ds[1] - ds[0])
        assert diffs.max() < 1.0
        slopes = np.diff(vals) / (ds[1] - ds[0])
        breaks = np.abs(np.diff(slopes)) > 0.05
        assert breaks.sum() == 1
        assert abs(ds[1 + int(np.flatnonzero(breaks)[0])] - 0.5) < 1e-3


class TestRunSimulation:
    def test_row_count_and_schema(self):
        cfg = small_config()
        result = run_simulation(cfg)
        assert len(result.rows) == 1 * 1 * 2 * 3  # n-sizes x mechanisms x lambdas x reps
        for row in result.rows:
            assert row.n == 200 and row.mechanism == "A1"
            assert row.regret >= -1e-9

    def test_deterministic(self):
        cfg = small_config()
        r1, r2 = run_simulation(cfg), run_simulation(cfg)
        assert r1.rows == r2.rows

    def test_desk_scale_regret_small_at_large_n(self):
        cfg = small_config(sample_sizes=(10_000,), grid=LambdaGrid((0.0,)), replications=1)
        result = run_simulation(cfg)
        assert result.rows[0].regret < 0.02

    def test_regret_decreases_with_n_at_lambda_zero(self):
        cfg = small_config(sample_sizes=(100, 2000), grid=LambdaGrid((0.0,)),
                          replications=10)
        result = run_simulation(cfg)
        regret = result.aggregates()
        assert regret[(100, "A1", 0.0)]["regret"].mean > regret[(2000, "A1", 0.0)]["regret"].mean

    def test_rows_are_sweep_entries(self):
        # the harness runs the replication sample through sweep, whose
        # minorize-maximize route takes no optimizer settings
        cfg = small_config(sample_sizes=(150, 300), mechanisms=("A1", "A2"), replications=2)
        result = run_simulation(cfg)
        rows = iter(result.rows)
        for cell, (n, mech) in enumerate((n, m) for n in cfg.sample_sizes for m in cfg.mechanisms):
            for rep in range(cfg.replications):
                seed = _replication_seed(cfg.seed, cell, rep)
                path = sweep(toy_sample(n, cfg.p, mech, seed), cfg.grid, GINI, KS,
                             OptimizerConfig())
                for lam, entry in zip(cfg.grid, path.entries):
                    row = next(rows)
                    assert (row.n, row.mechanism, row.lam, row.replication) == (n, mech, lam, rep)
                    assert row.delta_hat == float(entry.rule.probs[0, 0])
                    assert row.emp_value == entry.obj_value
        assert next(rows, None) is None

    def test_aggregates_match_rows(self):
        cfg = small_config()
        result = run_simulation(cfg)
        agg = result.aggregates()[(200, "A1", 0.5)]["regret"]
        rows = [r.regret for r in result.cell_rows(200, "A1", 0.5)]
        assert agg.mean == pytest.approx(np.mean(rows))
        assert agg.median == pytest.approx(np.median(rows))
        assert agg.sd == pytest.approx(np.std(rows, ddof=1))

    def test_phase_transition_medians_desk_scale(self):
        c = toy_threshold(0.75)
        cfg = small_config(
            sample_sizes=(4000,),
            grid=LambdaGrid((0.0, round(c - 0.07, 3), round(c + 0.18, 3))),
            replications=5,
        )
        result = run_simulation(cfg)
        low = np.median([r.delta_hat for r in result.cell_rows(4000, "A1", cfg.grid.values[1])])
        high = np.median([r.delta_hat for r in result.cell_rows(4000, "A1", cfg.grid.values[2])])
        assert abs(low - 0.0) < 0.1
        assert abs(high - 0.5) < 0.1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(mechanisms=("A9",))
        with pytest.raises(ValueError):
            small_config(replications=0)
        with pytest.raises(ValueError):
            small_config(sample_sizes=())
        with pytest.raises(ValueError, match="sample_sizes lists 200 twice"):
            small_config(sample_sizes=(200, 100, 200))
        with pytest.raises(ValueError, match="mechanisms lists 'A1' twice"):
            small_config(mechanisms=("A1", "A1"))


class TestWorkers:
    """Replications run on forked workers, one per usable CPU, which the
    calling process only collects from."""

    def test_rows_do_not_depend_on_worker_count(self, monkeypatch):
        # The first cell's replications sleep, so 3 workers finish the
        # second cell first: only results gathered in task order match.
        def slow_first_cell(n, p, mech, seed):
            if n == 150:
                time.sleep(0.3)
            return toy_sample(n, p, mech, seed)

        monkeypatch.setattr(fairpolicy.simharness, "toy_sample", slow_first_cell)
        cfg = small_config(sample_sizes=(150, 300), replications=2)
        rows = {}
        for workers in (1, 3):
            monkeypatch.setattr(fairpolicy.simharness, "usable_cpus", lambda: workers)
            rows[workers] = run_simulation(cfg).rows
        assert rows[3] == rows[1]
        assert [(r.n, r.replication) for r in rows[3][::2]] == [
            (150, 0), (150, 1), (300, 0), (300, 1)
        ]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_worker_exception_keeps_its_type(self, monkeypatch, workers):
        monkeypatch.setattr(fairpolicy.objective.AtomKernel, "value",
                            lambda *args: float("nan"))
        monkeypatch.setattr(fairpolicy.simharness, "usable_cpus", lambda: workers)
        with pytest.raises(NonFiniteObjective, match="objective returned nan"):
            run_simulation(small_config())

    def test_worker_that_exits_without_results_raises(self, monkeypatch):
        caller = os.getpid()

        def exits_in_a_worker(n, p, mech, seed):
            if os.getpid() != caller:
                os._exit(3)
            return toy_sample(n, p, mech, seed)

        monkeypatch.setattr(fairpolicy.simharness, "toy_sample", exits_in_a_worker)
        monkeypatch.setattr(fairpolicy.simharness, "usable_cpus", lambda: 2)
        with pytest.raises(WorkerDied, match="^worker 0 exited with status 3 without"):
            run_simulation(small_config())

    @pytest.mark.parametrize("failure", ["exit", "raise"])
    def test_failing_worker_leaves_no_child_running(self, monkeypatch, failure):
        # worker 0 (n = 150) fails at once while worker 1 (n = 300) still sleeps
        def first_worker_fails(n, p, mech, seed):
            if n == 300:
                time.sleep(30)
            elif failure == "exit":
                os._exit(3)
            else:
                raise NonFiniteObjective("objective returned nan")
            return toy_sample(n, p, mech, seed)

        monkeypatch.setattr(fairpolicy.simharness, "toy_sample", first_worker_fails)
        monkeypatch.setattr(fairpolicy.simharness, "usable_cpus", lambda: 2)
        start = time.perf_counter()
        with pytest.raises(WorkerDied if failure == "exit" else NonFiniteObjective):
            run_simulation(small_config(sample_sizes=(150, 300), replications=1))
        assert time.perf_counter() - start < 20
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
    def test_usable_cpus_is_the_affinity_mask(self):
        assert fairpolicy.simharness.usable_cpus() == len(os.sched_getaffinity(0))
