"""Command-line front end: the parser, the errors, input files, the sample
reader and the JSON writer.

Subcommands: fit, sweep, select, simulate, oracle-check.  Input samples are
CSV with header ``y,x,z,d`` (outcome, covariate label, protected group label,
1-based treatment index).  x and z are strings mapped to ordered levels by
first appearance; K defaults to the largest observed treatment index.  The
support [a, b] defaults to [0, 1]; ``--rescale`` min-max rescales outcomes to
[0, 1] instead.  Input files are UTF-8, a leading byte-order mark skipped.
The sample is read into typed columns by `columns.read_columns` (the block
reader, or csv.reader from the first row it cannot read), and
`read_sample_csv` checks them and builds the sample; an error message quotes
at most the first 40 characters of a field or flag (`echo`).  ``fit`` reads
its sample in a child forked (`forking.Forks`) before numpy loads, so that
the parse runs beside numpy's import; with one usable CPU, or no
``os.fork``, it reads in-process.  ``sweep`` and ``select --input`` read
in-process: their samples parse in less time than a process costs.

`main` runs numpy's BLAS on one thread: before a command loads numpy it sets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1,
unless the caller has set any of them.  The matrices here (tableaux of a few
hundred rows, |Z| x G products) are too small for threads to pay, an idle
OpenBLAS thread would spin beside ``fit``'s reader, and threaded LAPACK can
move an LP solution's last bits with the CPU count.

Outputs are written atomically (temp file + rename) and are byte-identical
across runs with the same seed.  The documents are built in `payloads`
(``simulate``'s CSV files in `simulate`).  JSON is formatted here, not by
json's pure-Python indent encoder, and is byte-identical to
``json.dumps(payload, indent=2)`` with 1-D float64 ndarrays written as
lists.  A float list is formatted where it is met, and the floats of all
the arrays in a document together, each distinct bit pattern once; finite
floats are written by ``float.__repr__`` as json does, and the document is
written from its pieces, never joined into one text.  ``fitted_array.json``
hands each cell's atoms to the writer as slices of the fitted array's
columns.  stdout stays quiet; diagnostics go to stderr.  Exit codes: 0 ok,
1 self-test failure, 2 CSV parse error, 3 schema violation, 4 optimizer
failure, 5 configuration error (a malformed or unknown flag too, named in
the message; a count flag is checked against `MAX_COUNT` as it is read).
A run takes at most one ``--config`` file, which cannot name another.

Without a bytecode cache every module a command imports is compiled when it
starts, so each command imports only the code it runs: the block reader
(`columns`), the saved-path reader (`savedpath`), the document builders
(`payloads`), the ``simulate`` and ``oracle-check`` commands (`simulate`,
`oraclecheck`) and Nelder-Mead (`optimizer`, which only the sweeps it solves
load) are modules of their own.  ``fit`` loads neither the sweep, the
solvers nor the simulation harness, and ``select`` on a saved path loads
no numpy: it checks the saved rules in pure Python, against
`DecisionRule`'s bounds, and writes the chosen rule as ``rules.json`` holds
it.  Every file is written by `_atomic_write` and every sample read by
`read_sample_csv`, each called through this module's binding, so that a
wrapper bound here (as ``bench/tracing.py`` binds them) sees every call.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import json
import math
import os
import re
import sys
from functools import partial
from json.encoder import encode_basestring_ascii
from operator import methodcaller
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .distributions import SupportInterval
    from .estimation import TrainingSample
    from .selection import LambdaPath

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_PARSE = 2
EXIT_SCHEMA = 3
EXIT_OPTIMIZER = 4
EXIT_CONFIG = 5

INT64_MAX = 2**63 - 1
# the largest count a flag may give (exact as a float64): numpy raises
# ValueError, not MemoryError, for arrays of 2**60 float64s and more, so a
# larger count is refused before numpy sees it
MAX_COUNT = 2**53
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ParseError(Exception):
    """Malformed CSV: bad header, wrong field count, unparseable value."""


class SchemaError(Exception):
    """Well-formed input violating the schema (support, treatment range, levels)."""


class ConfigError(Exception):
    """Missing or inconsistent command configuration."""


ECHO_CHARS = 40  # the most of a field that an error message quotes


def echo(text: str, quote: bool = False) -> str:
    """text as an error message quotes it (repr'd if quote), a sample's
    field or a flag's value: its first ECHO_CHARS characters, then "..."
    and its length if it is longer."""
    if len(text) <= ECHO_CHARS:
        return repr(text) if quote else text
    head = text[:ECHO_CHARS]
    return f"{repr(head) if quote else head}... ({len(text)} characters)"


def _int(text: str) -> int:
    """int(text), also for an integer with more digits than int() converts
    (sys.get_int_max_str_digits(), 4300 by default): its value if that fits
    in int64 once leading zeros are dropped, else +-2**63 (beyond int64)."""
    try:
        return int(text)
    except ValueError:
        body = text.strip()
        sign = body[:1] if body[:1] in "+-" else ""
        parts = body[len(sign):].split("_")  # int() takes single underscores between digits
        if not all(map(str.isdecimal, parts)):
            raise
        digits = "".join(parts).lstrip("0") or "0"
        return int(sign + digits) if len(digits) <= 19 else int(sign + "1") * 2**63


# ---------------------------------------------------------------------------
# input files and the sample

@contextlib.contextmanager
def _input_file(path: str, newline: str | None = None, config: bool = False):
    """path opened as UTF-8 text, a leading byte-order mark skipped.

    A file that cannot be read is a ConfigError; one that is not UTF-8 is a
    ParseError, or a ConfigError for a config file.
    """
    name = f"config {path}" if config else path
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot read {name}: {exc}") from None
    except UnicodeDecodeError as exc:
        error = ConfigError if config else ParseError
        raise error(f"{name}: not UTF-8 text ({exc.reason})") from None


def read_sample_csv(path: str, support: SupportInterval, k: int | None = None,
                    x_levels=None, z_levels=None, drop_empty_x: bool = False,
                    rescale: bool = False, reader=None) -> TrainingSample:
    """Load a training sample, mapping labels to levels by first appearance.

    A leading UTF-8 byte-order mark is skipped.  The file is read by the
    block reader, which hands it to the row reader where it cannot go on, so
    the error reported does not depend on the block size.  (The row reader
    decodes the file 8 KiB at a time: a row error wins over a decode error
    when the row ends before the 8 KiB that holds the bad byte.)  reader,
    if given, returns ``columns.read_columns(path, True)``, e.g. by
    collecting it from the child that `fit` forked to read the file.
    """
    import numpy as np

    from .columns import read_columns
    from .distributions import SupportInterval
    from .estimation import TrainingSample
    from .objective import CovariateSpace

    try:
        columns = reader() if reader is not None else read_columns(path, by_block=True)
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise ParseError(f"{path}: {exc}") from None
    ys, cells, table, x_codes, z_codes, blanks, huge = columns
    if not ys:
        raise SchemaError(f"{path}: no data rows")
    cell = np.frombuffer(cells, dtype=np.int64)
    xi, zi, d_arr = (column[cell] for column in np.array(table, dtype=np.int64).reshape(-1, 3).T)

    def line(i) -> int:
        """CSV row number of data row i: blank rows are skipped but counted."""
        row = int(i) + 2
        for blank in blanks:
            if blank > row:
                break
            row += 1
        return row

    y_arr = np.frombuffer(ys)
    bad = np.flatnonzero(~np.isfinite(y_arr))
    if bad.size:
        raise SchemaError(f"{path}: row {line(bad[0])}: y={float(y_arr[bad[0]])!r} is not finite")
    if rescale:
        lo, hi = float(y_arr.min()), float(y_arr.max())
        if hi <= lo:
            raise SchemaError(f"{path}: cannot rescale a constant outcome column")
        y_arr = (y_arr - lo) / (hi - lo)
        support = SupportInterval(0.0, 1.0)
    bad = np.flatnonzero((y_arr < support.a) | (y_arr > support.b))
    if bad.size:
        raise SchemaError(
            f"{path}: row {line(bad[0])}: y={float(y_arr[bad[0]])!r} outside support "
            f"[{support.a}, {support.b}]"
        )
    k_eff = k if k is not None else max(2, int(d_arr.max()))
    bad = np.flatnonzero(d_arr > k_eff)
    if bad.size:
        i = int(bad[0])
        d = echo(huge[i]) if i in huge else d_arr[i]
        raise SchemaError(f"{path}: row {line(i)}: treatment index {d} exceeds K={k_eff}")
    if huge:
        i, d = next(iter(huge.items()))
        raise SchemaError(
            f"{path}: row {line(i)}: treatment index {echo(d)} does not fit in 64 bits")

    def recode(name, codes, labels, levels):
        """First-appearance codes -> indices into levels; an unlisted label is an error."""
        index = {level: j for j, level in enumerate(levels)}
        lookup = np.array([index.get(label, -1) for label in labels], dtype=np.int64)[codes]
        unknown = np.flatnonzero(lookup < 0)
        if unknown.size:
            raise SchemaError(
                f"{path}: row {line(unknown[0])}: unknown {name} level "
                f"{echo(labels[codes[unknown[0]]], quote=True)}"
            )
        return lookup

    x_seen, z_seen = tuple(x_codes), tuple(z_codes)
    if x_levels is not None:
        if drop_empty_x:
            x_levels = [x for x in x_levels if x in x_codes]
        xi = recode("x", xi, x_seen, x_levels)
    if z_levels is not None:
        zi = recode("z", zi, z_seen, z_levels)
    space = CovariateSpace(
        tuple(x_levels) if x_levels is not None else x_seen,
        tuple(z_levels) if z_levels is not None else z_seen,
        k_eff,
    )
    if k_eff * len(space.x_levels) * len(space.z_levels) > MAX_COUNT:  # cells beyond an array
        raise SchemaError(f"{path}: K={k_eff} gives more than {MAX_COUNT} (d, x, z) cells")
    return TrainingSample(space, support, y_arr, xi, zi, d_arr)


# ---------------------------------------------------------------------------
# emission helpers

def _atomic_write(path: str, *pieces: str) -> None:
    """Write the pieces, in order, to path through a temporary file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _json_pieces(value, pad: str, out: list, floats: list, ndarray) -> None:
    """Append json.dumps(value, indent=2), nested at indentation pad, to out.

    A float list is formatted here.  A float64 ndarray's items are not: out
    gets an empty placeholder, and floats gets (its position, the item
    separator, the array).  ndarray is numpy's class, or None while numpy is
    not loaded (no value can then be an ndarray).
    """
    inner = pad + "  "
    kind = type(value)
    if kind is dict and value and all(type(key) is str for key in value):
        out.append("{\n" + inner)
        for j, (key, v) in enumerate(value.items()):
            out.append((",\n" + inner if j else "") + encode_basestring_ascii(key) + ": ")
            _json_pieces(v, inner, out, floats, ndarray)
        out.append("\n" + pad + "}")
    elif kind is list and value and set(map(type, value)) == {float}:
        out.append("[\n" + inner + (",\n" + inner).join(_float_texts(value))
                   + "\n" + pad + "]")
    elif kind is ndarray and value.ndim == 1 and value.dtype == "float64" and value.size:
        floats.append((len(out) + 1, ",\n" + inner, value))
        out += ["[\n" + inner, "", "\n" + pad + "]"]
    elif kind is list and value:
        out.append("[\n" + inner)
        for j, v in enumerate(value):
            if j:
                out.append(",\n" + inner)
            _json_pieces(v, inner, out, floats, ndarray)
        out.append("\n" + pad + "]")
    elif kind in (list, tuple, dict, ndarray):
        text = json.dumps(value, indent=2, default=methodcaller("tolist"))
        out.append(text.replace("\n", "\n" + pad))
    elif kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is bool:
        out.append("true" if value else "false")
    else:
        out.append(json.dumps(value))


def _float_texts(values: list) -> list:
    """Floats as json writes them."""
    return [float.__repr__(v) if math.isfinite(v) else json.dumps(v) for v in values]


def _write_json(path: str, payload) -> None:
    """Write json.dumps(payload, indent=2, default=np.ndarray.tolist) + "\n".

    The pure-Python encoder that indent=2 selects yields once per float.
    Here a float list is formatted where it is met, and the float64 ndarrays
    of the document (only `fit` writes them) in one pass: each distinct bit
    pattern (so -0.0 apart from 0.0) once.  Floats are written by
    float.__repr__ as json writes finite floats, and by json itself
    otherwise.  Every other value goes through json, and the pieces are
    written as they are, never joined into one text.
    """
    out, floats = [], []
    _json_pieces(payload, "", out, floats, getattr(sys.modules.get("numpy"), "ndarray", None))
    if floats:
        import numpy as np

        bits = np.concatenate([values.view(np.int64) for _, _, values in floats])
        distinct, inverse = np.unique(bits, return_inverse=True)
        texts = np.array(_float_texts(distinct.view(np.float64).tolist()), dtype=object)
        texts = texts[inverse].tolist()
        start = 0
        for at, sep, values in floats:
            out[at] = sep.join(texts[start:start + values.size])
            start += values.size
    out.append("\n")
    _atomic_write(path, *out)


def _num(value: float) -> str:
    """A float as the CSV files write it."""
    return repr(float(value))


# ---------------------------------------------------------------------------
# subcommands

def _ensure_outdir(args) -> str:
    out = args.output_dir
    if not out:
        raise ConfigError("--output-dir is required")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from None
    return out


def _support(args) -> SupportInterval:
    from .distributions import DistributionError, SupportInterval

    try:
        return SupportInterval(*args.support)
    except DistributionError as exc:
        raise ConfigError(str(exc)) from None


def check_flag(flag: str, value, ok: bool, rule: str):
    """value if ok, else the ConfigError "{flag} must {rule}, got {value}"."""
    if not ok:
        raise ConfigError(f"{flag} must {rule}, got {echo(str(value), type(value) is str)}")
    return value


def check_count(flag: str, text: str, least: int = 1) -> int:
    """The integer text (by `_int`) if least <= it <= MAX_COUNT, else a
    ConfigError naming flag; a count flag's argparse type."""
    value = _int(text)
    if not least <= value <= MAX_COUNT:
        rule = f">= {least}" if value < least else f"<= {MAX_COUNT}"
        raise ConfigError(f"{flag} must be {rule}, got {echo(text.strip())}")
    return value


def distinct(flag: str, values: list) -> list:
    """values, unless flag lists one twice."""
    seen = set()
    for value in values:
        if value in seen:
            raise ConfigError(f"{flag} lists {echo(str(value), type(value) is str)} twice")
        seen.add(value)
    return values


def _parsed(flag: str, text: str, parse, rule: str):
    """parse(text); a ValueError is "{flag} must {rule}" if text is too long to quote."""
    try:
        return parse(text)
    except ValueError as exc:
        check_flag(flag, text, len(text) <= ECHO_CHARS, rule)
        raise ConfigError(str(exc)) from None


def _read_sample(args, forks=None) -> TrainingSample:
    """The --input sample.  Given a `forking.Forks` group, the file is parsed
    in a child started before the other flags are checked and numpy loads,
    and collected by read_sample_csv; a flag error still wins."""
    if not args.input:
        raise ConfigError("--input is required")
    from .columns import read_columns  # here, so that read_sample_csv's own time holds no compile

    reader = None
    if forks is not None:
        reader = forks.start("sample reader", read_columns, args.input, True)
    return read_sample_csv(
        args.input,
        _support(args),
        k=args.k,
        x_levels=distinct("--x-levels", args.x_levels.split(",")) if args.x_levels else None,
        z_levels=distinct("--z-levels", args.z_levels.split(",")) if args.z_levels else None,
        drop_empty_x=args.drop_empty_x,
        rescale=args.rescale,
        reader=reader,
    )


def cmd_fit(args) -> int:
    from .forking import Forks, usable_cpus

    out = _ensure_outdir(args)
    with Forks(usable_cpus()) as forks:  # the sample is parsed while numpy loads
        sample = _read_sample(args, forks)
    from .estimation import fit_plugin
    from .payloads import fitted_array_payload

    arr = fit_plugin(sample)
    _write_json(os.path.join(out, "fitted_array.json"), fitted_array_payload(arr))
    return EXIT_OK


def _run_sweep(args, beta=None) -> LambdaPath:
    from .functionals import SimilarityMeasure, TargetFunctional
    from .selection import LambdaGrid, OptimizerConfig, check_budget, sweep

    grid = LambdaGrid.uniform(args.grid_m)
    t = _parsed("--target", args.target, TargetFunctional.parse,
                "be gini-welfare, mean or quantile:TAU")
    s = _parsed("--similarity", args.similarity, SimilarityMeasure.parse,
                "be ks, one-sided-ks or abs-target-diff:TARGET")
    cfg = OptimizerConfig(args.restarts, args.candidate_starts, args.max_iters,
                          check_flag("--ftol", args.ftol, args.ftol > 0, "be positive"), args.seed)
    sample = _read_sample(args)
    if beta is not None:
        check_budget(beta, sample.n)
    return sweep(sample, grid, t, s, cfg)


def cmd_sweep(args) -> int:
    from .payloads import path_csv_text, rules_payload

    out = _ensure_outdir(args)
    path = _run_sweep(args)
    _atomic_write(os.path.join(out, "path.csv"), path_csv_text(path))
    _write_json(os.path.join(out, "rules.json"), rules_payload(path))
    return EXIT_OK


def cmd_select(args) -> int:
    from .payloads import selection_payload
    from .selection import check_budget, select_lambda_budget

    out = _ensure_outdir(args)
    if args.beta is None:
        raise ConfigError("--beta is required for select")
    check_budget(args.beta)  # before reading any input
    if args.path_csv and args.rules_json:
        from .savedpath import read_path_files

        path = read_path_files(args.path_csv, args.rules_json)
    elif args.input:
        path = _run_sweep(args, beta=args.beta)
    else:
        raise ConfigError("select needs either --path-csv with --rules-json, or --input")
    selection = select_lambda_budget(path, args.beta)
    rule = path.entry(selection.chosen_lambda).rule
    rows = rule if type(rule) is list else rule.probs.tolist()  # a saved path holds rows
    _write_json(os.path.join(out, "selection.json"), selection_payload(selection, rows))
    return EXIT_OK


def _command_of(module: str):
    """A command that imports the package's module when it runs, and calls
    the module's `run`."""
    return lambda args: importlib.import_module(module, __package__).run(args)


# ---------------------------------------------------------------------------
# parser and entry point

class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 5 with one line, a value cut by `echo`."""

    def __init__(self, *args, **kwargs):  # -1e-3 and -inf are values: no flag starts like a number
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.I)

    def _get_value(self, action, text):
        try:
            return super()._get_value(action, text)
        except argparse.ArgumentError:
            kind = "float" if action.type is float else "int"
            raise argparse.ArgumentError(
                action, f"invalid {kind} value: {echo(text, True)}") from None

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {echo(value, True)} (choose from {choices})")

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {echo(' '.join(extras))}")
        return args

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fairpolicy",
        description="Fairness-penalized treatment rules: fit, sweep, select, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value file; flags override its entries")
        p.add_argument("--output-dir", help="directory for output files")

    def add_sample_flags(p):
        p.add_argument("--input", help="sample CSV with header y,x,z,d")
        p.add_argument("--support", type=float, nargs=2, default=[0.0, 1.0],
                       metavar=("A", "B"))
        p.add_argument("--rescale", action="store_true",
                       help="min-max rescale outcomes to [0, 1]")
        p.add_argument("--k", type=partial(check_count, "--k", least=2), default=None,
                       help="number of treatments (default: max observed d)")
        p.add_argument("--x-levels", default=None, help="comma-separated x levels")
        p.add_argument("--z-levels", default=None, help="comma-separated z levels")
        p.add_argument("--drop-empty-x", action="store_true",
                       help="drop overridden x levels with no observations")

    def add_optimizer_flags(p):
        ignored = ("; ignored, as is --seed, by sweeps of the mean or gini-welfare "
                   "target with ks, one-sided-ks or abs-target-diff:mean")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--restarts", type=partial(check_count, "--restarts"), default=1,
                       help="Nelder-Mead restarts" + ignored)
        p.add_argument("--candidate-starts", type=partial(check_count, "--candidate-starts"),
                       default=50, help="random rules scored to pick each start" + ignored)
        p.add_argument("--max-iters", type=partial(check_count, "--max-iters"), default=500,
                       help="Nelder-Mead iterations per run" + ignored)
        p.add_argument("--ftol", type=float, default=1e-8,
                       help="Nelder-Mead value tolerance" + ignored)

    def add_objective_flags(p):
        p.add_argument("--target", default="gini-welfare",
                       help="gini-welfare | mean | quantile:TAU; with ks, one-sided-ks or "
                            "abs-target-diff:mean, mean is solved exactly as a linear program "
                            "and gini-welfare by minorize-maximize over it")
        p.add_argument("--similarity", default="ks",
                       help="ks | one-sided-ks | abs-target-diff:TARGET")
        p.add_argument("--grid-m", type=partial(check_count, "--grid-m"), default=49,
                       help="uniform grid {0, 1/m, ..., 1}")
        p.add_argument("--estimator", default="plugin",
                       choices=["plugin", "ipw-estimated"],
                       help="ipw-estimated is an alias of plugin: cell-frequency IPW "
                            "weights equal the plug-in atom masses")

    p_fit = sub.add_parser("fit", help="fit the plug-in conditional-CDF array")
    add_common(p_fit)
    add_sample_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_sweep = sub.add_parser("sweep", help="fit rules for a grid of preference parameters")
    add_common(p_sweep)
    add_sample_flags(p_sweep)
    add_objective_flags(p_sweep)
    add_optimizer_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_select = sub.add_parser("select", help="budget-based preference-parameter choice")
    add_common(p_select)
    add_sample_flags(p_select)
    add_objective_flags(p_select)
    add_optimizer_flags(p_select)
    p_select.add_argument("--beta", type=float, default=None,
                          help="maximal tolerated target drop")
    p_select.add_argument("--path-csv", default=None, help="path.csv from a sweep")
    p_select.add_argument("--rules-json", default=None, help="rules.json from a sweep")
    p_select.set_defaults(func=cmd_select)

    p_sim = sub.add_parser("simulate", help="Monte Carlo replications on the toy example")
    add_common(p_sim)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--sample-sizes", default="100,1000,10000")
    p_sim.add_argument("--mechanisms", default="A1,A2")
    p_sim.add_argument("--grid-m", type=partial(check_count, "--grid-m"), default=49)
    p_sim.add_argument("--replications", type=partial(check_count, "--replications"), default=100)
    p_sim.add_argument("--p", type=float, default=0.75)
    p_sim.set_defaults(func=_command_of(".simulate"))

    p_oracle = sub.add_parser("oracle-check", help="closed-form vs numeric self-test")
    p_oracle.add_argument("--config", help="key=value file; flags override its entries")
    p_oracle.add_argument("--p", type=float, default=0.75)
    p_oracle.add_argument("--grid-points", type=partial(check_count, "--grid-points", least=2),
                          default=2000)
    p_oracle.set_defaults(func=_command_of(".oraclecheck"))

    return parser


def _load_config_file(path: str) -> list[str]:
    """Turn key=value lines into synthetic CLI flags (flags given later win)."""
    with _input_file(path, config=True) as fh:
        lines = fh.readlines()
    flags = []
    for idx, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {idx}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if flag == "--config":
            raise ConfigError(f"{path}: line {idx}: a config file cannot name another")
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                flags.append(flag)
        elif key == "support":
            flags.extend([flag] + value.split())
        else:
            flags.extend([flag, value])
    return flags


def _expand_config(argv: list[str]) -> list[str]:
    """Put the flags of the one --config file right after the subcommand, so
    that the flags given on the command line win."""
    at = [i for i, token in enumerate(argv) if token == "--config" or token.startswith("--config=")]
    if not at:
        return argv
    if len(at) > 1:
        raise ConfigError("--config given more than once")
    i = at[0]
    if argv[i] == "--config":
        if i + 1 == len(argv):
            return argv  # argparse reports the missing file name
        path, rest = argv[i + 1], argv[:i] + argv[i + 2:]
    else:
        path, rest = argv[i].split("=", 1)[1], argv[:i] + argv[i + 1:]
    return rest[:1] + _load_config_file(path) + rest[1:]


def _loaded(module: str, name: str) -> tuple:
    """(exception class `name` of `module`, ".x" being the package's x,) if
    that module is loaded, else ().  A command that raises the class has
    loaded its module, so main matches these errors without importing it."""
    module = __package__ + module if module.startswith(".") else module
    error = getattr(sys.modules.get(module), name, None)
    return () if error is None else (error,)


def main(argv=None) -> int:
    # read when numpy loads its BLAS; a caller's setting, or a numpy already
    # loaded (in-process callers), is left alone
    if "numpy" not in sys.modules and not any(v in os.environ for v in BLAS_THREAD_VARS):
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _expand_config(argv)
        args = build_parser().parse_args(argv)
        if args.config is not None:  # an abbreviated --config reaches argparse unread
            raise ConfigError("--config must be given in full, not abbreviated")
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    # an except clause's classes are evaluated only when an exception reaches it
    except (*_loaded(".selection", "NonFiniteObjective"), *_loaded(".lp", "Unbounded"),
            *_loaded("numpy.linalg", "LinAlgError")) as exc:
        print(f"optimizer error: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZER
    except (ConfigError, *_loaded(".selection", "InvalidBudget"),
            *_loaded(".forking", "WorkerDied")) as exc:  # e.g. a child killed for memory
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # e.g. a --k or --sample-sizes too large for this host
        detail = f": {exc}" if str(exc) else ""
        print(f"config error: out of memory{detail}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    # python -m runs this file as __main__, a copy apart from fairpolicy.cli,
    # whose error classes the command modules raise: run that module's main
    sys.exit(importlib.import_module("fairpolicy.cli").main())
