"""Per-layer metrics from the spans of traced passes.

A pass is one execution of a workload's commands on one input; its spans are
the concatenated span lists that ``tracing.Tracer`` wrote for each command.
Totals and counts are taken per pass and reported as the median over passes.
Per-call timings are pooled over passes and reported as a median and a tail:
the highest of p99.9, p99 and p90 that has at least ten samples beyond it.
With fewer than 20 samples the median and tail read 0; the count and total
carry the information then.
"""

from collections import defaultdict
from statistics import median

import numpy as np

TAILS = (99.9, 99.0, 90.0)

# Spans whose total time is reported: metric name -> span name.
TIMED = {
    "cli.ingest_s": "cli.ingest",
    "cli.emit_s": "cli.emit",
    "estimation.fit_s": "estimation.fit",
    "distributions.project_s": "distributions.project",
    "distributions.mixture_s": "distributions.mixture",
    "functionals.target_s": "functionals.target",
    "functionals.similarity_s": "functionals.similarity",
    "objective.build_s": "objective.build",
    "optimizer.maximize_s.total": "optimizer.maximize",
    "selection.lambda_s.total": "selection.lambda_iteration",
    "simharness.replication_s.total": "simharness.replication",
    "selection.diag_s": "selection.diag",
    "selection.select_s": "selection.select",
    "toy.sample_s": "toy.sample",
}
COUNTED = {
    "estimation.fit_calls": "estimation.fit",
    "estimation.ipw_evals": "estimation.ipw_eval",
    "distributions.project_calls": "distributions.project",
    "distributions.mixture_calls": "distributions.mixture",
    "functionals.target_calls": "functionals.target",
    "functionals.similarity_calls": "functionals.similarity",
    "optimizer.calls": "optimizer.maximize",
}
# Pooled per-call timings: metric stem -> (span name or derived series, scale).
POOLED = {
    "estimation.ipw_eval_us": ("estimation.ipw_eval", 1e6),
    "objective.eval_us": ("objective.eval", 1e6),
    "optimizer.maximize_s": ("optimizer.maximize", 1.0),
    "selection.lambda_s": ("selection.lambda_iteration", 1.0),
    "simharness.replication_s": ("simharness.replication", 1.0),
}


def _command_stats(spans, stats):
    names = [s[0] for s in spans]
    child_time = defaultdict(float)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    for idx, (name, start, end, parent, _run, attr) in enumerate(spans):
        stats["calls"][name] += 1
        # Nested spans of one name (e.g. _write_json around _atomic_write)
        # count once, at the outermost.
        p = parent
        while p >= 0 and names[p] != name:
            p = spans[p][3]
        if p < 0:
            stats["time"][name] += end - start
        if name in ("objective.eval", "estimation.ipw_eval", "optimizer.maximize"):
            stats["samples"][name].append(end - start)
        if name == "cli.emit" and attr is not None:
            stats["emit_bytes"] += attr
        elif name == "objective.build":
            stats["build_alloc"] = max(stats["build_alloc"], attr or 0)
        elif name == "optimizer.maximize":
            stats["converged"] += attr or 0
            stats["optimizer_self"] += end - start - child_time[idx]
    # Lambda iterations and replications run from one boundary mark to the
    # next, the last one to the end of the enclosing sweep or simulation.
    for series, mark, outer in (
        ("selection.lambda_iteration", "selection.lambda", "selection.sweep"),
        ("simharness.replication", "toy.sample", "simharness.run"),
    ):
        for idx, s in enumerate(spans):
            if s[0] != outer:
                continue
            marks = [m[1] for m in spans if m[0] == mark and m[3] == idx] + [s[2]]
            durations = np.diff(marks).tolist()
            stats["samples"][series].extend(durations)
            stats["time"][series] += sum(durations)


def _new_stats():
    return {
        "calls": defaultdict(int),
        "time": defaultdict(float),
        "samples": defaultdict(list),
        "emit_bytes": 0,
        "build_alloc": 0,
        "converged": 0,
        "optimizer_self": 0.0,
    }


def percentiles(values, scale=1.0):
    """(median, tail, tail label) of values times scale, by the rule above."""
    n = len(values)
    if n < 20:
        return 0.0, 0.0, f"n={n}"
    arr = np.asarray(values) * scale
    for q in TAILS:
        if n * (1.0 - q / 100.0) >= 10:
            return float(np.median(arr)), float(np.percentile(arr, q)), f"p{q:g} n={n}"
    return float(np.median(arr)), float(np.median(arr)), f"p50 n={n}"


def layer_metrics(passes):
    """passes: list over traced passes of lists over commands of span lists.

    Returns (metrics, notes): metric name -> value, and metric name -> a
    note on the percentile and sample count behind it.
    """
    per_pass = []
    for commands in passes:
        stats = _new_stats()
        for spans in commands:
            _command_stats(spans, stats)
        per_pass.append(stats)

    def med(fn):
        return float(median(fn(s) for s in per_pass))

    metrics, notes = {}, {}
    for metric, name in TIMED.items():
        metrics[metric] = med(lambda s: s["time"][name])
    for metric, name in COUNTED.items():
        metrics[metric] = med(lambda s: s["calls"][name])
    metrics["cli.emit_bytes"] = med(lambda s: s["emit_bytes"])
    metrics["objective.evals"] = med(
        lambda s: s["calls"]["objective.eval"] + s["calls"]["objective.build"]
    )
    metrics["objective.build_alloc_mb"] = med(lambda s: s["build_alloc"] / 2**20)
    metrics["optimizer.self_s"] = med(lambda s: s["optimizer_self"])
    calls = sum(s["calls"]["optimizer.maximize"] for s in per_pass)
    evals = sum(s["calls"]["optimizer.objective"] for s in per_pass)
    converged = sum(s["converged"] for s in per_pass)
    metrics["optimizer.evals_per_call"] = evals / calls if calls else 0.0
    metrics["optimizer.converged_ratio"] = converged / calls if calls else 0.0
    notes["optimizer.converged_ratio"] = f"{converged}/{calls}"
    notes["optimizer.evals_per_call"] = f"{evals}/{calls}"
    for stem, (series, scale) in POOLED.items():
        values = [v for s in per_pass for v in s["samples"][series]]
        p50, tail, label = percentiles(values, scale)
        metrics[f"{stem}.p50"] = p50
        metrics[f"{stem}.tail"] = tail
        notes[f"{stem}.tail"] = label
    return metrics, notes
