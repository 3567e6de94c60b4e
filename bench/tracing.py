"""Spans at fairpolicy's layer boundaries, recorded from outside the program.

A traced child rebinds functions where their callers look them up (module
globals, or class attributes for the functional methods) to wrappers that
record spans.  A span is ``[name, start, end, parent, run, attr]``: times
from ``time.perf_counter``, ``parent`` the index of the enclosing span (-1 at
the root), ``run`` the command's run id, and ``attr`` a per-span number
(bytes written, converged flag, tracemalloc peak) or None.  Spans stay in
memory until the command ends.

A hook whose target no longer exists is skipped and listed in ``missing``,
so a refactor that moves a function shows up as a missing layer, not as a
crash.
"""

import importlib
import time
import tracemalloc
import weakref

# span name -> (module, attribute path) rebinding targets.
HOOKS = {
    "cli.main": [("fairpolicy.cli", "main")],
    "cli.ingest": [("fairpolicy.cli", "read_sample_csv")],
    "cli.emit": [
        ("fairpolicy.cli", name)
        for name in (
            "fitted_array_payload",
            "path_csv_text",
            "rules_payload",
            "selection_payload",
            "replications_csv_text",
            "aggregate_csv_text",
            "_write_json",
        )
    ],
    "estimation.fit": [
        ("fairpolicy.cli", "fit_plugin"),
        ("fairpolicy.selection", "fit_plugin"),
        ("fairpolicy.simharness", "fit_plugin"),
    ],
    "estimation.ipw_eval": [("fairpolicy.selection", "ipw_objective_estimated")],
    "distributions.project": [("fairpolicy.estimation", "project_mab")],
    "distributions.mixture": [
        ("fairpolicy.estimation", "mixture"),
        ("fairpolicy.objective", "mixture"),
    ],
    "functionals.target": [
        ("fairpolicy.functionals", "TargetFunctional.value"),
        ("fairpolicy.functionals", "TargetFunctional.value_on_grid"),
    ],
    "functionals.similarity": [
        ("fairpolicy.functionals", "SimilarityMeasure.value"),
        ("fairpolicy.functionals", "SimilarityMeasure.value_on_grid"),
    ],
    "selection.sweep": [("fairpolicy.cli", "sweep")],
    # Called once at the top of each lambda iteration: its start marks the
    # lambda boundary.
    "selection.lambda": [("fairpolicy.selection", "_empirical_objective")],
    "selection.diag": [
        ("fairpolicy.selection", "implied_cdf"),
        ("fairpolicy.selection", "implied_cdf_group"),
    ],
    "selection.select": [("fairpolicy.cli", "select_lambda_budget")],
    "simharness.run": [("fairpolicy.cli", "run_simulation")],
    # Called once at the top of each replication: its start marks the
    # replication boundary.
    "toy.sample": [("fairpolicy.simharness", "toy_sample")],
}
OMEGA_CALLERS = [("fairpolicy.selection", "omega"), ("fairpolicy.simharness", "omega")]
MAXIMIZE_CALLERS = [("fairpolicy.selection", "maximize"), ("fairpolicy.simharness", "maximize")]
WRITE = ("fairpolicy.cli", "_atomic_write")


class Tracer:
    def __init__(self, run_id: str):
        self.run = run_id
        self.spans = []
        self.missing = []
        self._stack = []
        self._built = weakref.WeakSet()
        self._alloc_peak = 0

    def wrap(self, name, fn, attr=None):
        """fn wrapped to record one span per call; attr(args, result) fills the attr slot."""
        spans, stack, run, clock = self.spans, self._stack, self.run, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, run, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if attr is not None:
                    span[5] = attr(args, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        for name, targets in HOOKS.items():
            for module, path in targets:
                self._rebind(module, path, lambda fn, name=name: self.wrap(name, fn))
        for module, path in OMEGA_CALLERS:
            self._rebind(module, path, self._omega)
        for module, path in MAXIMIZE_CALLERS:
            self._rebind(module, path, self._maximize)
        self._rebind(*WRITE, lambda fn: self.wrap("cli.emit", fn, _text_bytes))

    def _rebind(self, module, path, make):
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{module}.{path}")
            return
        setattr(owner, attr, make(fn))

    def _omega(self, fn):
        """The first omega on each fitted array is the kernel build: it is
        timed apart, with its tracemalloc peak as attr."""

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self._alloc_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

        build = self.wrap("objective.build", measured, lambda args, result: self._alloc_peak)
        evaluate = self.wrap("objective.eval", fn)
        built = self._built

        def omega(rule, arr, *args, **kwargs):
            if arr in built:
                return evaluate(rule, arr, *args, **kwargs)
            built.add(arr)
            return build(rule, arr, *args, **kwargs)

        return omega

    def _maximize(self, fn):
        """maximize with the objective callable it receives wrapped too."""
        traced = self.wrap("optimizer.maximize", fn, _converged)

        def maximize(obj, *args, **kwargs):
            return traced(self.wrap("optimizer.objective", obj), *args, **kwargs)

        return maximize


def _text_bytes(args, result):
    return len(args[1].encode())


def _converged(args, result):
    return int(bool(getattr(result, "converged", False)))
