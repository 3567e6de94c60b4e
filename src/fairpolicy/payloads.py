"""The documents `fit`, `sweep` and `select` write, built from their results.

`cli._write_json` writes the JSON ones; `path_csv_text` is the text of
``path.csv``.
"""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING

from .cli import _num

if TYPE_CHECKING:
    from .selection import BudgetSelection, LambdaPath


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
