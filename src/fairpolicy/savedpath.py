"""A sweep's saved outputs, ``path.csv`` and ``rules.json``, read back for `select`.

Everything here is pure Python: each saved rule is checked against
`DecisionRule`'s bounds (`rule_rows`) and kept as the rows rules.json
holds, so that `select` on a saved path loads no numpy and writes the
chosen rule as the sweep wrote it.
"""

from __future__ import annotations

import csv
import json
import math
from typing import TYPE_CHECKING

from .cli import INT64_MAX, ParseError, SchemaError, _input_file

if TYPE_CHECKING:
    from .selection import LambdaPath

SIMPLEX_TOL = 1e-9  # objective.SIMPLEX_TOL, kept here as objective imports numpy


def rule_rows(value, shape: tuple) -> list:
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


def read_path_files(path_csv: str, rules_json: str) -> LambdaPath:
    """Rebuild a LambdaPath (diagnostics + rules) from sweep outputs.

    Each entry's rule is its rows as rules.json holds them, checked
    (`rule_rows`), not a DecisionRule.
    """
    from .selection import LambdaGrid, LambdaPath, PathEntry

    with _input_file(rules_json) as fh:
        try:
            rules_doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{rules_json}: {exc}") from None
        except UnicodeDecodeError:  # a ValueError that _input_file reports
            raise
        except ValueError as exc:  # an integer of more digits than int() converts
            raise SchemaError(f"{rules_json}: {exc}") from None
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
        if n > INT64_MAX:  # budget_slack takes log(n) / n as floats
            raise ValueError("n does not fit in 64 bits")
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
    except (OverflowError, TypeError, ValueError) as exc:  # a lambda beyond the largest double
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
            rule = rule_rows(rules[idx], (len(x_levels), k))
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
