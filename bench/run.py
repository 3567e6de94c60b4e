"""fairpolicy benchmark: the CLI on seeded workloads, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each command of a workload runs in a fresh child process (``child.py``), one
at a time: a closed loop with one client.  A pass runs all of a workload's
commands on the seed's input; passes repeat until the next one would end
after S seconds, and there are at least two.  With ``--trace 0`` the run
reports the end-to-end metrics: medians over passes, each pass's timings
scaled by a calibration run just before it (``calibrate.py``), so that the
host's changing speed cancels out.  With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
``layers.py`` and the tracing overhead.  Every run checks the outputs; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record (environment, input SHA-256,
checks, quality metrics) goes to ``.bench_out/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEADLINE_S = 150.0  # a run must end within 180 s, whatever --seconds says
# End-to-end timings are scaled to a machine on which calibrate.py takes
# this long; see calibrate.py.
CALIBRATION_REFERENCE_S = 1.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(BENCH))
from inputs import Shape, write_sample  # noqa: E402
from layers import layer_metrics  # noqa: E402


@dataclass(frozen=True)
class Workload:
    shape: Shape | None  # None: the command draws its own samples
    commands: tuple[tuple[str, ...], ...]  # {input} {out} {seed} are filled in
    outputs: tuple[str, ...]


SWEEP = ("sweep", "--input", "{input}", "--output-dir", "{out}", "--seed", "{seed}")
# The sweep workloads pin the optimizer's effort: with the default stopping
# rule, Nelder-Mead's polish rounds on these kinked objectives take 2-10x
# more evaluations on one sample than on another, a spread no bound could
# cover.  Objective values lie in [-1, 1], so --ftol 1 stops after the second
# round, and --max-iters caps each round: every lambda costs a near-fixed
# number of evaluations, and the time measures the objective kernel.
WORKLOADS = {
    "plugin-mean-ks": Workload(
        Shape(n=10_000, nx=8, z_shares=(0.6, 0.2, 0.2), k=3, population=101),
        (
            SWEEP + ("--target", "mean", "--similarity", "ks", "--grid-m", "2",
                     "--max-iters", "300", "--ftol", "1"),
            ("select", "--path-csv", "{out}/path.csv", "--rules-json", "{out}/rules.json",
             "--beta", "0.005", "--output-dir", "{out}"),
        ),
        ("path.csv", "rules.json", "selection.json"),
    ),
    "ipw-gini-ks": Workload(
        Shape(n=3_000, nx=4, z_shares=(0.5, 0.5), k=2, population=202),
        (
            SWEEP + ("--estimator", "ipw-estimated", "--target", "gini-welfare",
                     "--grid-m", "2", "--max-iters", "100", "--ftol", "1"),
        ),
        ("path.csv", "rules.json"),
    ),
    "simulate-toy": Workload(
        None,
        (
            ("simulate", "--sample-sizes", "100,1000", "--mechanisms", "A1,A2",
             "--replications", "6", "--grid-m", "4", "--p", "0.75",
             "--seed", "{seed}", "--output-dir", "{out}"),
        ),
        ("replications.csv", "aggregate.csv"),
    ),
    "fit-large": Workload(
        Shape(n=200_000, nx=50, z_shares=(0.4, 0.3, 0.2, 0.1), k=4, population=404),
        (("fit", "--input", "{input}", "--output-dir", "{out}"),),
        ("fitted_array.json",),
    ),
}
SCHEMAS = {
    "fitted_array.json": "fitted_array.schema.json",
    "rules.json": "rules.schema.json",
    "selection.json": "selection.schema.json",
}


class Checks:
    """Output checks; each one attempted counts once, failed or not."""

    def __init__(self):
        self.results = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append({"check": name, "ok": bool(ok), "detail": detail})
        if not ok:
            print(f"check failed: {name} {detail}", file=sys.stderr)
        return ok

    def run(self, name: str, fn) -> None:
        """Record fn() as a check; an exception counts as a failure."""
        try:
            ok, detail = fn()
        except Exception as exc:  # any crash in a check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.add(name, ok, detail)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


# ---------------------------------------------------------------------------
# passes


def spawn(cmd, log: Path, deadline: float):
    """Run cmd to completion; returns (exit code, start time, wall s, rusage)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log, "ab") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT, env=env)
        killer = threading.Timer(max(1.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, wall, usage


def run_command(argv, report: Path, run_id: str, traced: bool, log: Path, deadline: float):
    """One CLI command; returns (exit code, wall s, setup s, max RSS MB, report)."""
    code, start, wall, usage = spawn(
        [sys.executable, str(BENCH / "child.py"), str(report), run_id,
         "1" if traced else "0", "--", *argv], log, deadline)
    setup = math.nan
    doc = {}
    if report.exists():
        doc = json.loads(report.read_text())
        setup = doc["main_start"] - start
    return code, wall, setup, usage.ru_maxrss / 1024.0, doc


def run_pass(wl: Workload, idx: int, traced: bool, ctx: dict, checks: Checks) -> dict:
    out = ctx["work"] / f"p{idx}"
    out.mkdir()
    res = {"traced": traced, "wall": 0.0, "rss": 0.0, "setup": [], "spans": [], "out": out,
           "ok": True, "calibration": math.nan}
    if not traced:
        code, _, res["calibration"], _ = spawn(
            [sys.executable, str(BENCH / "calibrate.py")], ctx["log"], ctx["deadline"])
        res["ok"] &= checks.add(f"calibration ran: pass {idx}", code == 0, f"exit {code}")
    for j, template in enumerate(wl.commands):
        argv = [a.format(input=ctx["input"], out=out, seed=ctx["seed"]) for a in template]
        report = ctx["work"] / f"p{idx}c{j}.json"
        code, wall, setup, rss, doc = run_command(
            argv, report, f"{idx}.{j}", traced, ctx["log"], ctx["deadline"])
        res["wall"] += wall
        res["rss"] = max(res["rss"], rss)
        res["setup"].append(setup)
        res["spans"].append(doc.get("spans", []))
        ctx["missing_hooks"].update(doc.get("missing", []))
        module = Path(doc.get("module", "")).resolve()
        res["ok"] &= checks.add(f"exit code 0: pass {idx} {argv[0]}", code == 0, f"exit {code}")
        res["ok"] &= checks.add(f"program from this checkout: pass {idx} {argv[0]}",
                                SRC.resolve() in module.parents, str(module))
        if not res["ok"]:
            print(f"{argv[0]} failed; the end of its stderr:", file=sys.stderr)
            sys.stderr.write(ctx["log"].read_text()[-2000:])
            break
    return res


def compare_with_first(wl: Workload, first: Path, other: Path, idx: int, checks: Checks):
    """A repeat with the same seed must give byte-identical outputs."""
    for name in wl.outputs:
        checks.run(f"byte-identical repeat: pass {idx} {name}",
                   lambda: ((first / name).read_bytes() == (other / name).read_bytes(), ""))


# ---------------------------------------------------------------------------
# output checks and quality


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path.name} has no rows")
    return rows


def _on_simplex(rows) -> bool:
    return len(rows) > 0 and all(
        min(row) >= -1e-9 and abs(sum(row) - 1.0) <= 1e-9 for row in rows
    )


def check_outputs(wl: Workload, out: Path, checks: Checks, quality: dict, ctx: dict):
    import jsonschema

    for name in wl.outputs:
        if name in SCHEMAS:
            schema = json.loads((SRC / "fairpolicy" / "schemas" / SCHEMAS[name]).read_text())

            def validate():
                jsonschema.validators.validator_for(schema)(schema).validate(
                    json.loads((out / name).read_text()))
                return True, ""

            checks.run(f"schema: {name}", validate)
    if "rules.json" in wl.outputs:
        checks.run("rules on the simplex", lambda: (all(
            _on_simplex(rule) for rule in json.loads((out / "rules.json").read_text())["rules"]
        ), ""))
    if "selection.json" in wl.outputs:
        checks.run("chosen rule on the simplex", lambda: (_on_simplex(
            json.loads((out / "selection.json").read_text())["chosen_rule"]), ""))
    if "path.csv" in wl.outputs:
        def finite_path():
            rows = _read_csv(out / "path.csv")
            values = [float(v) for row in rows for v in row.values()]
            quality["obj_mean"] = sum(float(r["obj_value"]) for r in rows) / len(rows)
            return all(math.isfinite(v) for v in values), f"{len(values)} values"

        checks.run("path.csv finite", finite_path)
    if "replications.csv" in wl.outputs:
        def regret():
            values = [float(r["regret"]) for r in _read_csv(out / "replications.csv")]
            quality["regret_mean"] = sum(values) / len(values)
            return min(values) >= -1e-9, f"min {min(values)!r}"

        checks.run("regret >= -1e-9", regret)
    if ctx["workload"] == "plugin-mean-ks":
        checks.run("LP reference solved", lambda: check_lp_reference(out, checks, quality, ctx))


def check_lp_reference(out: Path, checks: Checks, quality: dict, ctx: dict):
    """Optimality gap of the sweep against the exact LP optimum, self-checked."""
    sys.path.insert(0, str(SRC))
    from fairpolicy.cli import read_sample_csv
    from fairpolicy.distributions import SupportInterval
    from fairpolicy.estimation import fit_plugin
    from lpref import LpReference

    ref = LpReference(fit_plugin(read_sample_csv(str(ctx["input"]), SupportInterval(0.0, 1.0))))
    gaps = []
    for row in _read_csv(out / "path.csv"):
        lam, obj = float(row["lambda"]), float(row["obj_value"])
        value, probs = ref.solve(lam)
        own = ref.omega_at(probs, lam)
        checks.add(f"LP self-check omega(LP rule) = LP value: lambda {lam}",
                   abs(own - value) <= 1e-9, f"{own - value:.3e}")
        checks.add(f"Nelder-Mead does not beat the LP: lambda {lam}",
                   obj <= value + 1e-9, f"gap {value - obj:.3e}")
        gaps.append(value - obj)
    quality["opt_gap_max"] = max(gaps)
    return True, f"{len(gaps)} lambdas"


# ---------------------------------------------------------------------------
# environment and reporting


def environment(seed: int, digest: str | None) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "seed": seed,
        "input_sha256": digest,
    }


def end_to_end(passes) -> dict:
    """Medians over passes; each pass's timings scaled by its calibration."""
    plain = [p for p in passes if not p["traced"]]
    walls = [p["wall"] * CALIBRATION_REFERENCE_S / p["calibration"] for p in plain]
    setups = [s * CALIBRATION_REFERENCE_S / p["calibration"]
              for p in plain for s in p["setup"] if math.isfinite(s)]
    return {
        "wall_s": {"value": median(walls), "unit": "s"},
        "setup_s": {"value": median(setups) if setups else math.nan, "unit": "s"},
        "peak_rss_mb": {"value": median(p["rss"] for p in plain), "unit": "MB"},
    }


QUALITY_UNITS = {"obj_mean": "value", "opt_gap_max": "value", "regret_mean": "value"}
LAYER_UNITS = {"_s": "s", "_us": "us", "_mb": "MB", "_bytes": "bytes", "_ratio": "ratio"}


def _layer_unit(name: str) -> str:
    stem = name.rsplit(".", 1)[0] if name.endswith((".p50", ".tail", ".total")) else name
    return next((u for suffix, u in LAYER_UNITS.items() if stem.endswith(suffix)), "count")


def per_layer(passes, quality: dict):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    values, notes = layer_metrics([p["spans"] for p in traced])
    values["trace_overhead_s"] = (median(p["wall"] for p in traced)
                                  - median(p["wall"] for p in plain))
    metrics = {name: {"value": v, "unit": _layer_unit(name)} for name, v in values.items()}
    for name, unit in QUALITY_UNITS.items():
        metrics[f"quality.{name}"] = {"value": quality.get(name, 0.0), "unit": unit}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fairpolicy" / "cli.py").is_file():
        print(f"no fairpolicy sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    begin = time.monotonic()
    wl = WORKLOADS[args.workload]
    work = OUT / "work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        digest = None
        ctx = {"work": work, "seed": args.seed, "workload": args.workload,
               "deadline": begin + DEADLINE_S, "missing_hooks": set(), "input": "",
               "log": work / "stderr.log"}
        if wl.shape is not None:
            ctx["input"] = work / "sample.csv"
            digest = write_sample(str(ctx["input"]), wl.shape, args.seed)

        checks = Checks()
        passes = []
        kinds = (False, True) if args.trace else (False,)
        start = time.monotonic()
        while True:
            for traced in kinds:
                passes.append(run_pass(wl, len(passes), traced, ctx, checks))
                if len(passes) > 1:
                    compare_with_first(wl, passes[0]["out"], passes[-1]["out"],
                                       len(passes) - 1, checks)
                    shutil.rmtree(passes[-1]["out"])
            if not all(p["ok"] for p in passes):
                break
            elapsed = time.monotonic() - start
            per_round = elapsed / (len(passes) / len(kinds))
            if len(passes) >= 2 and elapsed + per_round > args.seconds:
                break
            if time.monotonic() - begin + per_round > DEADLINE_S - 30.0:
                break
        measured = time.monotonic() - start

        quality = {}
        check_outputs(wl, passes[0]["out"], checks, quality, ctx)
        if args.trace:
            metrics, notes = per_layer(passes, quality)
        else:
            metrics, notes = end_to_end(passes), {}
        env = environment(args.seed, digest)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = len(checks.results), checks.failed
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "passes": len(passes), "measured_s": measured, "environment": env,
        "passes_raw": [{k: p[k] for k in ("traced", "calibration", "wall", "setup", "rss")}
                       for p in passes],
        "metrics": metrics, "notes": notes, "quality": quality,
        "error_rate": failed / attempted, "missing_hooks": sorted(ctx["missing_hooks"]),
        "checks": checks.results,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes in {measured:.1f} s")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}{note}")
    if not args.trace:
        for name, value in quality.items():
            print(f"  quality.{name:26s} {value:14.6g}")
    print(f"  checks: {attempted} attempted, {failed} failed, error_rate {failed / attempted:.4g}")
    if ctx["missing_hooks"]:
        print(f"  trace hooks not found: {', '.join(sorted(ctx['missing_hooks']))}")
    print(f"  environment: {json.dumps(env)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
