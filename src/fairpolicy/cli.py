"""Command-line front end: CSV ingestion, subcommands, CSV/JSON emission.

Subcommands: fit, sweep, select, simulate, oracle-check.  Input samples are
CSV with header ``y,x,z,d`` (outcome, covariate label, protected group label,
1-based treatment index).  x and z are strings mapped to ordered levels by
first appearance; K defaults to the largest observed treatment index.  The
support [a, b] defaults to [0, 1]; ``--rescale`` min-max rescales outcomes to
[0, 1] instead.  Input files are UTF-8, a leading byte-order mark skipped.
The sample is read into typed columns either by the block reader, which cuts
each line at its first comma into the outcome and an ``x,z,d`` cell key that
one dict lookup maps to its cell, or, from its first row, by csv.reader (see
`_read_columns`); the parsed rows are never held.  ``fit`` reads its sample
in a child forked (`forking.Forks`) before numpy loads, so that the parse
runs beside numpy's import; with one usable CPU, or no ``os.fork``, it reads
in-process.  ``sweep`` and ``select --input`` read in-process: their samples
parse in less time than a process costs.

Outputs are written atomically (temp file + rename) and are byte-identical
across runs with the same seed.  JSON is formatted here, not by json's
pure-Python indent encoder, and is byte-identical to
``json.dumps(payload, indent=2)`` with 1-D float64 ndarrays written as
lists.  A float list is formatted where it is met, and the floats of all
the arrays in a document together, each distinct bit pattern once; finite
floats are written by ``float.__repr__`` as json does, and the document is
written from its pieces, never joined into one text.  ``fitted_array.json``
hands each cell's atoms to the writer as slices of the fitted array's
columns.  stdout stays quiet; diagnostics go to stderr.  Exit codes: 0 ok, 1 self-test failure, 2 CSV
parse error, 3 schema violation, 4 optimizer failure, 5 configuration error
(a malformed or unknown flag too).  A run takes at most one ``--config``
file, which cannot name another.  Each subcommand imports the modules it
runs when it starts, so ``fit`` loads neither the sweep, the solvers nor
the simulation harness, and ``select`` on a saved path loads no numpy: it
checks the saved rules in pure Python, against `DecisionRule`'s bounds
(`_rule_rows`), and writes the chosen rule as ``rules.json`` holds it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
from array import array
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter, methodcaller
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .distributions import SupportInterval
    from .estimation import TrainingSample
    from .optimizer import OptimizerConfig
    from .selection import BudgetSelection, LambdaPath

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_PARSE = 2
EXIT_SCHEMA = 3
EXIT_OPTIMIZER = 4
EXIT_CONFIG = 5

SAMPLE_HEADER = ["y", "x", "z", "d"]
INT64_MAX = 2**63 - 1
BLOCK_CHARS = 16384  # sample text read per block


class ParseError(Exception):
    """Malformed CSV: bad header, wrong field count, unparseable value."""


class SchemaError(Exception):
    """Well-formed input violating the schema (support, treatment range, levels)."""


class ConfigError(Exception):
    """Missing or inconsistent command configuration."""


# ---------------------------------------------------------------------------
# input files and the sample CSV

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


def _read_columns(path: str, by_block: bool):
    """Typed columns of the sample's data rows, in pure Python: ys and cells
    (arrays of doubles and int64 cell ids), the cell table, the x and z code
    dicts, the CSV row numbers of blank rows, and {data row: d} for each d
    beyond int64 (stored as INT64_MAX, reported after the outcome checks).

    Each row costs one lookup in a table of (x code, z code, d) cells,
    numbered as they first appear (a new label comes with a new cell, so
    label codes keep first-appearance order); `read_sample_csv` gathers the
    x, z and d columns from it.  Nothing here loads numpy, so `fit` runs
    this in a child forked before numpy loads.

    A file is read either by the block reader or, from its first row, by
    csv.reader.  With by_block, text blocks of BLOCK_CHARS characters are cut
    at their last newline; each line of a plain block is cut at its first
    comma into the y text and a cell key ``x,z,d``, split and checked when
    first seen, and blank lines are counted and dropped.  At the first quote
    (a quoted field may span lines), carriage return, undecodable text, or
    line the block reader rejects, the whole file is read without by_block.
    """
    ys, cs = array("d"), array("q")  # outcome and cell id of each data row
    x_codes, z_codes = {}, {}
    cells = {}  # key text "x,z,d" or (x, z, stored d) -> cell id
    table = []  # cell id -> (x code, z code, stored d)
    blanks = []  # CSV row numbers of skipped blank rows, ascending
    huge = {}  # data row -> treatment index beyond int64

    def cell_id(x: str, z: str, d: int) -> int:
        """The id of cell (x, z, d), numbering it and coding its labels if new."""
        cell = cells.get((x, z, d))
        if cell is None:
            cell = cells[x, z, d] = len(table)
            table.append((x_codes.setdefault(x, len(x_codes)),
                          z_codes.setdefault(z, len(z_codes)), d))
        return cell

    def add_rows(rows) -> None:
        """Append the data rows csv.reader parsed, numbered from 2."""
        for idx, row in enumerate(rows, start=2):
            if not row:
                blanks.append(idx)
                continue
            if len(row) != 4:
                raise ParseError(f"{path}: row {idx}: expected 4 fields, got {len(row)}")
            y_text, x, z, d_text = row
            try:
                y = float(y_text)
            except ValueError:
                raise ParseError(f"{path}: row {idx}: cannot parse y={y_text!r}") from None
            try:
                d = int(d_text)
            except ValueError:
                raise ParseError(f"{path}: row {idx}: cannot parse d={d_text!r}") from None
            if d < 1:
                raise SchemaError(f"{path}: row {idx}: treatment index {d} must be >= 1")
            if d > INT64_MAX:  # reported after the outcome checks, with d > K
                huge[len(ys)] = d
                d = INT64_MAX
            ys.append(y)
            cs.append(cell_id(x, z, d))

    def add_block(lines: list) -> bool:
        """Append a plain block's rows; False leaves it unread."""
        parts = list(map(str.partition, lines, repeat(",")))
        keys = list(map(itemgetter(2), parts))
        ids = list(map(cells.get, keys))
        new = {}
        try:
            y_col = list(map(float, map(itemgetter(0), parts)))
            if None in ids:
                for key in dict.fromkeys(keys):
                    if key not in cells:
                        x, z, d_text = key.split(",")
                        new[key] = x, z, int(d_text)
        except ValueError:  # a blank line, a line without three commas, a bad value
            return False
        if not all(1 <= d <= INT64_MAX for _, _, d in new.values()):
            return False
        for key, cell in new.items():
            cells[key] = cell_id(*cell)
        ys.fromlist(y_col)
        cs.fromlist(list(map(cells.__getitem__, keys)) if new else ids)
        return True

    def add_blocks(fh) -> bool:
        """Append the rest of fh a block at a time; False at the first one
        that is not plain or that add_block rejects."""
        row, tail = 2, ""
        try:
            while text := tail + (chunk := fh.read(BLOCK_CHARS)):
                if '"' in text or "\r" in text:
                    return False
                cut = text.rfind("\n") if chunk else len(text)
                if cut < 0:
                    tail = text
                    continue
                block, tail = text[:cut], text[cut + 1:]
                lines = block.split("\n")
                # a longer block may hold a field csv.reader rejects as too large
                if len(block) > csv.field_size_limit():
                    return False
                if not add_block(lines):  # float('') fails: drop blank lines, retry
                    blank = [at for at, line in enumerate(lines, start=row) if not line]
                    if not blank or not add_block(list(filter(None, lines))):
                        return False
                    blanks.extend(blank)
                row += len(lines)
        except UnicodeDecodeError:  # the row pass decides if a row error comes first
            return False
        return True

    with _input_file(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        if [c.strip() for c in header] != SAMPLE_HEADER:
            raise ParseError(f"{path}: row 1: header must be {','.join(SAMPLE_HEADER)}")
        if not by_block:
            add_rows(csv.reader(fh))
        elif not add_blocks(fh):
            return _read_columns(path, by_block=False)
    return ys, cs, table, x_codes, z_codes, blanks, huge


def read_sample_csv(path: str, support: SupportInterval, k: int | None = None,
                    x_levels=None, z_levels=None, drop_empty_x: bool = False,
                    rescale: bool = False, reader=None) -> TrainingSample:
    """Load a training sample, mapping labels to levels by first appearance.

    A leading UTF-8 byte-order mark is skipped.  The file is read by the
    block reader, which hands it to the row reader where it cannot go on, so
    the error reported does not depend on the block size.  (The row reader
    decodes the file 8 KiB at a time: a row error wins over a decode error
    when the row ends before the 8 KiB that holds the bad byte.)  reader,
    if given, returns ``_read_columns(path, True)``, e.g. by collecting it
    from the child that `fit` forked to read the file.
    """
    import numpy as np

    from .distributions import SupportInterval
    from .estimation import TrainingSample
    from .objective import CovariateSpace

    try:
        columns = reader() if reader is not None else _read_columns(path, by_block=True)
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
        raise SchemaError(
            f"{path}: row {line(i)}: treatment index {huge.get(i, d_arr[i])} exceeds K={k_eff}"
        )
    if huge:
        i, d = next(iter(huge.items()))
        raise SchemaError(f"{path}: row {line(i)}: treatment index {d} does not fit in 64 bits")

    def recode(name, codes, labels, levels):
        """First-appearance codes -> indices into levels; an unlisted label is an error."""
        index = {level: j for j, level in enumerate(levels)}
        lookup = np.array([index.get(label, -1) for label in labels], dtype=np.int64)[codes]
        unknown = np.flatnonzero(lookup < 0)
        if unknown.size:
            raise SchemaError(
                f"{path}: row {line(unknown[0])}: unknown {name} level "
                f"{labels[codes[unknown[0]]]!r}"
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
    return repr(float(value))


def fitted_array_payload(arr) -> dict:
    """The fitted array as a JSON document; cell atoms stay ndarray slices."""
    from .objective import _cell_keys

    space = arr.space
    if arr.cell_records is None:
        raise ValueError("fitted_array_payload needs an array fitted from a sample")
    bounds = arr.offsets.tolist()
    return {
        "support": [arr.support.a, arr.support.b],
        "x_levels": [str(x) for x in space.x_levels],
        "z_levels": [str(z) for z in space.z_levels],
        "k": space.k,
        "cells": [
            {
                "d": i,
                "x": str(x),
                "z": str(z),
                "points": arr.points[lo:hi],
                "masses": arr.masses[lo:hi],
                "empty_cell": empty,
            }
            for (i, x, z), lo, hi, empty in zip(_cell_keys(space), bounds, bounds[1:],
                                                (arr.cell_records == 0).tolist())
        ],
        "pxz": [{"x": str(x), "z": str(z), "p": p} for (x, z), p in arr.pxz.items()],
    }


def path_csv_text(path: LambdaPath) -> str:
    groups = list(path.entries[0].unfairness)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["lambda", "obj_value", "target_value"]
        + [f"unfair_{z}" for z in groups]
        + ["max_unfairness"]
    )
    for lam, entry in zip(path.grid, path.entries):
        writer.writerow(
            [_num(lam), _num(entry.obj_value), _num(entry.target_value)]
            + [_num(entry.unfairness[z]) for z in groups]
            + [_num(entry.max_unfairness)]
        )
    return buf.getvalue()


def rules_payload(path: LambdaPath) -> dict:
    space = path.entries[0].rule.space
    return {
        "n": path.n,
        "x_levels": [str(x) for x in space.x_levels],
        "k": space.k,
        "lambdas": [float(lam) for lam in path.grid],
        "rules": [[list(map(float, row)) for row in e.rule.probs] for e in path.entries],
    }


def selection_payload(selection: BudgetSelection, rows: list) -> dict:
    """The selection document; rows are the chosen rule's probability rows."""
    return {
        "beta": selection.beta,
        "c_n": selection.c_n,
        "threshold": selection.threshold,
        "chosen_lambda": selection.chosen_lambda,
        "deltas": [
            {"lambda": float(lam), "delta": float(d)} for lam, d in selection.deltas.items()
        ],
        "chosen_rule": rows,
    }


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


def _levels(flag: str, text: str | None) -> list[str] | None:
    """The comma-separated levels of a --x-levels/--z-levels flag, if given."""
    if not text:
        return None
    levels = text.split(",")
    seen = set()
    for level in levels:
        if level in seen:
            raise ConfigError(f"{flag} lists {level!r} twice")
        seen.add(level)
    return levels


def _read_sample(args, forks=None) -> TrainingSample:
    """The --input sample.  Given a `forking.Forks` group, the file is parsed
    in a child started before the other flags are checked and numpy loads,
    and collected by read_sample_csv; a flag error still wins."""
    if not args.input:
        raise ConfigError("--input is required")
    if args.k is not None and args.k < 2:
        raise ConfigError(f"--k must be >= 2, got {args.k}")
    reader = None
    if forks is not None:
        reader = forks.start("sample reader", _read_columns, args.input, True)
    return read_sample_csv(
        args.input,
        _support(args),
        k=args.k,
        x_levels=_levels("--x-levels", args.x_levels),
        z_levels=_levels("--z-levels", args.z_levels),
        drop_empty_x=args.drop_empty_x,
        rescale=args.rescale,
        reader=reader,
    )


def _optimizer_config(args) -> OptimizerConfig:
    from .optimizer import OptimizerConfig

    return OptimizerConfig(
        restarts=args.restarts,
        candidate_starts=args.candidate_starts,
        max_iters=args.max_iters,
        ftol=args.ftol,
        seed=args.seed,
    )


def cmd_fit(args) -> int:
    from .forking import Forks, usable_cpus

    out = _ensure_outdir(args)
    with Forks(usable_cpus()) as forks:  # the sample is parsed while numpy loads
        sample = _read_sample(args, forks)
    from .estimation import fit_plugin

    arr = fit_plugin(sample)
    _write_json(os.path.join(out, "fitted_array.json"), fitted_array_payload(arr))
    return EXIT_OK


def _run_sweep(args, beta=None) -> LambdaPath:
    from .functionals import SimilarityMeasure, TargetFunctional
    from .selection import LambdaGrid, check_budget, sweep

    try:
        grid = LambdaGrid.uniform(args.grid_m)
        t = TargetFunctional.parse(args.target)
        s = SimilarityMeasure.parse(args.similarity)
        cfg = _optimizer_config(args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    sample = _read_sample(args)
    if beta is not None:
        check_budget(beta, sample.n)
    return sweep(sample, grid, t, s, cfg)


def cmd_sweep(args) -> int:
    out = _ensure_outdir(args)
    path = _run_sweep(args)
    _atomic_write(os.path.join(out, "path.csv"), path_csv_text(path))
    _write_json(os.path.join(out, "rules.json"), rules_payload(path))
    return EXIT_OK


SIMPLEX_TOL = 1e-9  # objective.SIMPLEX_TOL, kept here as objective imports numpy


def _rule_rows(value, shape: tuple) -> list:
    """The rows of a saved rule for a space of shape (|X|, K), as read.

    value must be |X| lists of K numbers (JSON true and false, which load as
    bools, are not numbers), and each row must pass DecisionRule's checks:
    entries finite and at least -SIMPLEX_TOL, the sum within SIMPLEX_TOL of
    1.  Each entry is then clamped into [0, 1], which leaves a rule the
    sweep wrote as it is, so select writes back the rule the sweep fitted.
    """
    nx, k = shape
    if not (type(value) is list and len(value) == nx
            and all(type(row) is list and len(row) == k for row in value)):
        raise ValueError(f"probs must be a list of |x_levels| = {nx} lists of k = {k} numbers")
    rows = []
    for j, row in enumerate(value):
        if not all(type(v) in (int, float) for v in row):
            raise ValueError("entries must be numbers")
        row = list(map(float, row))  # an int beyond the largest double raises OverflowError
        if not all(map(math.isfinite, row)):
            raise ValueError("probs must be finite")
        if min(row) < -SIMPLEX_TOL:
            raise ValueError("probs must be nonnegative")
        row = [v if v > 0.0 else 0.0 for v in row]
        total = sum(row)
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"rows must sum to 1 within {SIMPLEX_TOL}, row {j} sums to {total!r}")
        rows.append([min(v, 1.0) for v in row])
    return rows


def _read_path_files(path_csv: str, rules_json: str) -> LambdaPath:
    """Rebuild a LambdaPath (diagnostics + rules) from sweep outputs.

    Each entry's rule is its rows as rules.json holds them, checked
    (`_rule_rows`), not a DecisionRule, so that `select` on a saved path
    loads no numpy.
    """
    from .selection import LambdaGrid, LambdaPath, PathEntry

    with _input_file(rules_json) as fh:
        try:
            rules_doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{rules_json}: {exc}") from None
        except RecursionError:
            raise ParseError(f"{rules_json}: JSON nested too deeply") from None
    if type(rules_doc) is not dict:
        raise SchemaError(f"{rules_json}: must hold a JSON object")
    with _input_file(path_csv, newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
            raise ParseError(f"{path_csv}: {exc}") from None
    if not rows or not rows[0] or rows[0][0] != "lambda":
        raise ParseError(f"{path_csv}: row 1: not a path CSV")
    header = rows[0]
    groups = [c[len("unfair_"):] for c in header if c.startswith("unfair_")]
    if len(set(groups)) != len(groups):
        raise SchemaError(f"{path_csv}: row 1: a group has two unfair_ columns")
    width = len(groups) + 4  # lambda, obj_value, target_value, unfair_*, max_unfairness

    def is_a(value, kind):
        # JSON true and false load as Python ints, so bools never pass
        return isinstance(value, kind) and not isinstance(value, bool)

    def typed(key, what, kind, many=False):
        items = rules_doc[key] if many else [rules_doc[key]]
        if not isinstance(items, list) or not all(is_a(v, kind) for v in items):
            raise SchemaError(f"{rules_json}: {key} must be {what}")
        return rules_doc[key]

    try:
        n = typed("n", "an integer", int)
        x_levels = typed("x_levels", "a list of strings", str, True)
        k = typed("k", "an integer", int)
        if not x_levels:
            raise ValueError("x_levels must be nonempty")
        if len(set(x_levels)) != len(x_levels):
            raise ValueError("duplicate x levels")
        if k < 2:
            raise ValueError(f"need at least 2 treatments, got {k}")
        rules = list(rules_doc["rules"])
        lambdas = [float(v) for v in typed("lambdas", "a list of numbers", (int, float), True)]
    except KeyError as exc:
        raise SchemaError(f"{rules_json}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{rules_json}: {exc}") from None
    entries = []
    lams = []
    for idx, row in enumerate(rows[1:]):
        try:
            if not width <= len(row) <= len(header):
                raise ValueError
            values = list(map(float, row[:width]))
        except ValueError:
            raise ParseError(f"{path_csv}: row {idx + 2}: malformed row") from None
        for column, value in zip(header, values):
            if not math.isfinite(value):
                raise SchemaError(f"{path_csv}: row {idx + 2}: {column} is not finite")
        lam, obj_value, target_value, *unfairness, max_unf = values
        if idx >= len(rules):
            raise SchemaError(
                f"{rules_json}: rule {idx}: missing ({len(rules)} rules for "
                f"{len(rows) - 1} {path_csv} rows)"
            )
        try:
            rule = _rule_rows(rules[idx], (len(x_levels), k))
        except (OverflowError, ValueError) as exc:
            raise SchemaError(f"{rules_json}: rule {idx}: {exc}") from None
        lams.append(lam)
        entries.append(PathEntry(rule, obj_value, target_value, dict(zip(groups, unfairness)),
                                 max_unf))
    try:
        grid = LambdaGrid(tuple(lams))
    except ValueError as exc:
        raise SchemaError(f"{path_csv}: lambda column: {exc}") from None
    if lambdas != lams:
        raise SchemaError(
            f"{rules_json}: lambdas {lambdas} differ from the lambda column of {path_csv} {lams}"
        )
    if len(rules) != len(entries):
        raise SchemaError(
            f"{rules_json}: {len(rules)} rules for {len(entries)} {path_csv} rows"
        )
    return LambdaPath(grid, tuple(entries), n)


def cmd_select(args) -> int:
    from .selection import check_budget, select_lambda_budget

    out = _ensure_outdir(args)
    if args.beta is None:
        raise ConfigError("--beta is required for select")
    check_budget(args.beta)  # before reading any input
    if args.path_csv and args.rules_json:
        path = _read_path_files(args.path_csv, args.rules_json)
    elif args.input:
        path = _run_sweep(args, beta=args.beta)
    else:
        raise ConfigError("select needs either --path-csv with --rules-json, or --input")
    selection = select_lambda_budget(path, args.beta)
    rule = path.entry(selection.chosen_lambda).rule
    rows = rule if type(rule) is list else rule.probs.tolist()  # a saved path holds rows
    _write_json(os.path.join(out, "selection.json"), selection_payload(selection, rows))
    return EXIT_OK


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


def cmd_simulate(args) -> int:
    from .selection import LambdaGrid
    from .simharness import SimConfig, run_simulation

    out = _ensure_outdir(args)
    try:
        cfg = SimConfig(
            sample_sizes=tuple(int(v) for v in args.sample_sizes.split(",")),
            mechanisms=tuple(args.mechanisms.split(",")),
            grid=LambdaGrid.uniform(args.grid_m),
            replications=args.replications,
            p=args.p,
            seed=args.seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    result = run_simulation(cfg)
    _atomic_write(os.path.join(out, "replications.csv"), replications_csv_text(result))
    _atomic_write(os.path.join(out, "aggregate.csv"), aggregate_csv_text(result))
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle self-test

def oracle_check(p: float = 0.75, grid_points: int = 2000, perturb: float = 0.0,
                 seed: int = 0, stream=None) -> int:
    """Closed-form vs numeric agreement suite; one report line per check.

    `perturb` shifts the closed-form objective and exists as a negative
    control for the suite itself.
    """
    import numpy as np

    from .functionals import SimilarityMeasure, TargetFunctional
    from .objective import DecisionRule, omega
    from .optimizer import OptimizerConfig, maximize
    from .toy import (
        PENALTY_SCALE,
        ToyParams,
        toy_cond_array,
        toy_max_value,
        toy_objective,
        toy_space,
        toy_threshold,
    )

    stream = stream if stream is not None else sys.stderr
    checks = []

    ys = np.linspace(0.0, 1.0, 200001)[1:-1]
    numeric_scale = float((ys * (1.0 - ys**3)).max())
    checks.append(
        ("penalty constant sup y(1-y^3)", abs(numeric_scale - PENALTY_SCALE), 1e-6)
    )

    arr = toy_cond_array(p, grid_points)
    t = TargetFunctional("gini-welfare")
    s = SimilarityMeasure("ks")
    space = toy_space()
    worst = 0.0
    for lam in np.linspace(0.0, 1.0, 5):
        for delta in np.linspace(0.0, 1.0, 21):
            rule = DecisionRule(space, np.array([[delta, 1.0 - delta]]))
            num = omega(rule, arr, float(lam), t, s)
            closed = toy_objective(float(delta), ToyParams(p, float(lam))) + perturb
            worst = max(worst, abs(num - closed))
    checks.append(("objective agreement on 21x5 grid", worst, 0.01))

    c = toy_threshold(p)
    gap = abs(toy_objective(0.0, ToyParams(p, c)) - toy_objective(0.5, ToyParams(p, c)))
    checks.append(("argmax branch equality at c(p)", gap, 1e-10))

    lo = toy_max_value(ToyParams(p, c))
    hi = (89.0 / 560.0) * (1.0 - c)
    checks.append(("value continuity at c(p)", abs(lo - hi), 1e-10))

    cfg = OptimizerConfig(seed=seed)
    for lam, target_delta, tol, label in (
        (c / 2.0, 0.0, 0.01, "argmax recovery below c(p)"),
        ((c + 1.0) / 2.0, 0.5, 0.02, "argmax recovery above c(p)"),
    ):
        res = maximize(
            lambda probs: toy_objective(float(probs[0, 0]), ToyParams(p, lam)),
            space,
            cfg,
        )
        checks.append((label, abs(float(res.rule.probs[0, 0]) - target_delta), tol))

    failed = False
    for name, err, tol in checks:
        ok = err <= tol
        failed |= not ok
        print(f"[{'ok' if ok else 'FAIL'}] {name}: error {err:.3e} (tolerance {tol:.0e})",
              file=stream)
    return EXIT_SELFTEST if failed else EXIT_OK


def cmd_oracle_check(args) -> int:
    if not 0.5 < args.p < 1.0:
        raise ConfigError(f"p must lie in (1/2, 1), got {args.p!r}")
    if args.grid_points < 2:
        raise ConfigError(f"--grid-points must be >= 2, got {args.grid_points}")
    return oracle_check(p=args.p, grid_points=args.grid_points, seed=args.seed)


# ---------------------------------------------------------------------------
# parser and entry point

class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 5 with one line, not 2 with the usage."""

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
        p.add_argument("--seed", type=int, default=0)

    def add_sample_flags(p):
        p.add_argument("--input", help="sample CSV with header y,x,z,d")
        p.add_argument("--support", type=float, nargs=2, default=[0.0, 1.0],
                       metavar=("A", "B"))
        p.add_argument("--rescale", action="store_true",
                       help="min-max rescale outcomes to [0, 1]")
        p.add_argument("--k", type=int, default=None,
                       help="number of treatments (default: max observed d)")
        p.add_argument("--x-levels", default=None, help="comma-separated x levels")
        p.add_argument("--z-levels", default=None, help="comma-separated z levels")
        p.add_argument("--drop-empty-x", action="store_true",
                       help="drop overridden x levels with no observations")

    def add_optimizer_flags(p):
        ignored = ("; ignored, as is --seed, by sweeps of the mean or gini-welfare "
                   "target with ks, one-sided-ks or abs-target-diff:mean")
        p.add_argument("--restarts", type=int, default=1,
                       help="Nelder-Mead restarts" + ignored)
        p.add_argument("--candidate-starts", type=int, default=50,
                       help="random rules scored to pick each start" + ignored)
        p.add_argument("--max-iters", type=int, default=500,
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
        p.add_argument("--grid-m", type=int, default=49,
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
    p_sim.add_argument("--sample-sizes", default="100,1000,10000")
    p_sim.add_argument("--mechanisms", default="A1,A2")
    p_sim.add_argument("--grid-m", type=int, default=49)
    p_sim.add_argument("--replications", type=int, default=100)
    p_sim.add_argument("--p", type=float, default=0.75)
    p_sim.set_defaults(func=cmd_simulate)

    p_oracle = sub.add_parser("oracle-check", help="closed-form vs numeric self-test")
    add_common(p_oracle)
    p_oracle.add_argument("--p", type=float, default=0.75)
    p_oracle.add_argument("--grid-points", type=int, default=2000)
    p_oracle.set_defaults(func=cmd_oracle_check)

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
    except (*_loaded(".optimizer", "NonFiniteObjective"), *_loaded(".lp", "Unbounded"),
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
    sys.exit(main())
