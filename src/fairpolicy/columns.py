"""The sample CSV read into typed columns, in pure Python.

`read_columns` reads a file either by the block reader, which cuts each
line at its first comma into the outcome and an ``x,z,d`` cell key that one
dict lookup maps to its cell, or, from its first row, by csv.reader; the
parsed rows are never held.  Nothing here loads numpy, so `fit` runs the
reader in a child forked before numpy loads.  `cli.read_sample_csv` turns
the columns into a `TrainingSample`.

An error message quotes a field of the sample by `cli.echo`: whole when it
is short, else cut, with its length, so that one bad row gives one short
line.
"""

from __future__ import annotations

import csv
from array import array
from itertools import repeat
from operator import itemgetter

from .cli import INT64_MAX, ParseError, SchemaError, _input_file, _int, echo

SAMPLE_HEADER = ["y", "x", "z", "d"]
BLOCK_CHARS = 16384  # sample text read per block


def read_columns(path: str, by_block: bool):
    """Typed columns of the sample's data rows: ys and cells (arrays of
    doubles and int64 cell ids), the cell table, the x and z code dicts, the
    CSV row numbers of blank rows, and {data row: d as written} for each d
    beyond int64 (stored as INT64_MAX, reported after the outcome checks).

    Each row costs one lookup in a table of (x code, z code, d) cells,
    numbered as they first appear (a new label comes with a new cell, so
    label codes keep first-appearance order); `cli.read_sample_csv` gathers
    the x, z and d columns from it.

    With by_block, text blocks of BLOCK_CHARS characters are cut at their
    last newline; each line of a plain block is cut at its first comma into
    the y text and a cell key ``x,z,d``, split and checked when first seen,
    and blank lines are counted and dropped.  At the first quote (a quoted
    field may span lines), carriage return, undecodable text, or line the
    block reader rejects, the whole file is read without by_block.
    """
    ys, cs = array("d"), array("q")  # outcome and cell id of each data row
    x_codes, z_codes = {}, {}
    cells = {}  # key text "x,z,d" or (x, z, stored d) -> cell id
    table = []  # cell id -> (x code, z code, stored d)
    blanks = []  # CSV row numbers of skipped blank rows, ascending
    huge = {}  # data row -> text of a treatment index beyond int64

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
                raise ParseError(
                    f"{path}: row {idx}: cannot parse y={echo(y_text, quote=True)}") from None
            try:
                d = _int(d_text)
            except ValueError:
                raise ParseError(
                    f"{path}: row {idx}: cannot parse d={echo(d_text, quote=True)}") from None
            if d < 1:
                raise SchemaError(
                    f"{path}: row {idx}: treatment index {echo(d_text.strip())} must be >= 1"
                )
            if d > INT64_MAX:  # reported after the outcome checks, with d > K
                huge[len(ys)] = d_text.strip()
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
                        new[key] = x, z, _int(d_text)
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
            return read_columns(path, by_block=False)
    return ys, cs, table, x_codes, z_codes, blanks, huge
