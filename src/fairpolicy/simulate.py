"""The `simulate` command: the harness's configuration from the flags, its
run, and the two CSV files it writes."""

from __future__ import annotations

import csv
import io
import os

from . import cli
from .cli import _num


def replications_csv_text(result) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "mechanism", "lambda", "replication", "delta_hat", "emp_value", "regret"])
    for r in result.rows:
        writer.writerow(
            [r.n, r.mechanism, _num(r.lam), r.replication,
             _num(r.delta_hat), _num(r.emp_value), _num(r.regret)]
        )
    return buf.getvalue()


def aggregate_csv_text(result) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    metrics = ("regret", "delta_hat", "emp_value")
    header = ["n", "mechanism", "lambda"]
    for name in metrics:
        header += [f"mean_{name}", f"sd_{name}", f"median_{name}"]
    writer.writerow(header)
    aggregates = result.aggregates()
    for n in result.config.sample_sizes:
        for mech in result.config.mechanisms:
            for lam in result.config.grid:
                cell = aggregates[(n, mech, lam)]
                row = [n, mech, _num(lam)]
                for name in metrics:
                    agg = cell[name]
                    row += [_num(agg.mean), _num(agg.sd), _num(agg.median)]
                writer.writerow(row)
    return buf.getvalue()


def _size(text: str) -> int:
    try:
        return cli.check_count("--sample-sizes", text)
    except ValueError:
        return cli.check_flag("--sample-sizes", text, False, "list integers")


def run(args) -> int:
    from .selection import LambdaGrid
    from .simharness import SimConfig, run_simulation
    from .toy import MECHANISMS

    out = cli._ensure_outdir(args)
    sizes = cli.distinct("--sample-sizes", [_size(v) for v in args.sample_sizes.split(",")])
    mechanisms = [cli.check_flag("--mechanisms", m, m in MECHANISMS, "list A1 or A2")
                  for m in cli.distinct("--mechanisms", args.mechanisms.split(","))]
    p = cli.check_flag("--p", args.p, 0.5 < args.p < 1.0, "lie in (1/2, 1)")
    result = run_simulation(SimConfig(sizes, mechanisms, LambdaGrid.uniform(args.grid_m),
                                      args.replications, p, args.seed))
    cli._atomic_write(os.path.join(out, "replications.csv"), replications_csv_text(result))
    cli._atomic_write(os.path.join(out, "aggregate.csv"), aggregate_csv_text(result))
    return cli.EXIT_OK
