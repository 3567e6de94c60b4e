import csv
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from array import array
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import fairpolicy
import fairpolicy.cli as cli
import fairpolicy.columns as columns
import fairpolicy.forking
import fairpolicy.savedpath as savedpath
from fairpolicy import (
    CovariateSpace,
    SupportInterval,
    fit_plugin,
    toy_cond_array,
    toy_sample,
)
from fairpolicy.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_OPTIMIZER,
    EXIT_PARSE,
    EXIT_SCHEMA,
    EXIT_SELFTEST,
    ParseError,
    SchemaError,
    _write_json,
    main,
    read_sample_csv,
)
from fairpolicy.oraclecheck import oracle_check
from fairpolicy.payloads import fitted_array_payload
from fairpolicy.lp import PluginProgram, Unbounded
from helpers import labelled_sample, write_sample_csv

UNIT = SupportInterval(0.0, 1.0)
# a value longer than an error quotes: more digits than int() reads
# (sys.get_int_max_str_digits() is 4300 by default), and how it is quoted
LONG = "1" * 5000
SHOWN = "1" * 40 + "... (5000 characters)"


def load_schema(name):
    with resources.files("fairpolicy").joinpath(f"schemas/{name}").open() as fh:
        return json.load(fh)


def validate(payload_path, schema_name):
    with open(payload_path) as fh:
        doc = json.load(fh)
    jsonschema.validate(doc, load_schema(schema_name))
    return doc


@pytest.fixture()
def toy_csv(tmp_path):
    path = tmp_path / "sample.csv"
    write_sample_csv(str(path), toy_sample(400, 0.75, "A1", seed=2))
    return str(path)


class TestSampleCsv:
    def test_round_trip(self, tmp_path):
        sample = toy_sample(250, 0.75, "A2", seed=5)
        path = str(tmp_path / "s.csv")
        write_sample_csv(path, sample)
        space = sample.space
        back = read_sample_csv(path, UNIT, x_levels=list(space.x_levels),
                               z_levels=list(space.z_levels))
        assert_same_sample(back, sample)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x,z\n0.5,a,u\n")
        from fairpolicy.cli import ParseError

        with pytest.raises(ParseError):
            read_sample_csv(str(path), UNIT)

    def test_k_override_and_violation(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("y,x,z,d\n0.5,a,u,1\n0.6,a,u,3\n")
        from fairpolicy.cli import SchemaError

        sample = read_sample_csv(str(path), UNIT)
        assert sample.space.k == 3
        with pytest.raises(SchemaError):
            read_sample_csv(str(path), UNIT, k=2)

    def test_rescale(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("y,x,z,d\n10.0,a,u,1\n20.0,a,u,2\n15.0,a,u,1\n")
        sample = read_sample_csv(str(path), SupportInterval(0.0, 1.0), rescale=True)
        assert sorted(sample.ys.tolist()) == [0.0, 0.5, 1.0]

    def test_level_overrides_and_drop_empty(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("y,x,z,d\n0.5,a,u,1\n0.6,a,v,2\n")
        sample = read_sample_csv(
            str(path), UNIT, x_levels=["a", "ghost"], z_levels=["u", "v"], drop_empty_x=True
        )
        assert sample.space.x_levels == ("a",)
        kept = read_sample_csv(str(path), UNIT, x_levels=["a", "ghost"], z_levels=["u", "v"])
        assert kept.space.x_levels == ("a", "ghost")


def reference_read(path, support, k=None, x_levels=None, z_levels=None,
                   drop_empty_x=False, rescale=False):
    """read_sample_csv on valid input as a list of rows: the streaming reader's oracle."""
    with open(path, newline="") as fh:
        rows = [row for row in list(csv.reader(fh))[1:] if row]
    ys = np.array([float(row[0]) for row in rows])
    xs, zs, ds = [row[1] for row in rows], [row[2] for row in rows], [int(row[3]) for row in rows]
    if rescale:
        ys = (ys - ys.min()) / (ys.max() - ys.min())
        support = UNIT
    k_eff = k if k is not None else max(2, max(ds))
    if x_levels is not None and drop_empty_x:
        x_levels = [x for x in x_levels if x in set(xs)]
    space = CovariateSpace(
        x_levels if x_levels is not None else tuple(dict.fromkeys(xs)),
        z_levels if z_levels is not None else tuple(dict.fromkeys(zs)),
        k_eff,
    )
    return labelled_sample(space, ys, xs, zs, ds, support)


def random_sample_csv(path, seed):
    """A valid sample CSV with blank rows, CRLF or LF line ends, quoted labels
    holding commas and quotes, and y written as ' 0.5', '5e-1' or '-0.0'."""
    rng = random.Random(seed)
    ending = rng.choice(["\n", "\r\n"])
    labels = ["a", "b,c", 'say "hi"', " padded ", "x0"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator=ending)
        writer.writerow(["y", "x", "z", "d"])
        for _ in range(rng.randint(1, 40)):
            if rng.random() < 0.15:
                fh.write(ending)
            y = round(rng.random(), rng.choice([1, 4, 17]))
            y_text = rng.choice([repr(y), f" {y}", f"{y:e}", "-0.0", "1"])
            d_text = rng.choice(["{}", " {}", "+{}"]).format(rng.randint(1, 3))
            writer.writerow([y_text, rng.choice(labels), rng.choice(labels[:3]), d_text])


def assert_same_sample(got, want):
    assert got.space == want.space and got.support == want.support
    for name in ("ys", "xi", "zi", "d"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# read_sample_csv's error cases.  A lone row is appended to a header, a
# valid row and a blank row 3, so it is row 4; a text starting with the
# header or a blank line is used as it is (see write_error_case).
ERROR_CASES = [
    ("", {}, ParseError, "empty file"),
    ("\ny,x,z,d\n0.5,a,u,1\n", {}, ParseError, "row 1: header must be y,x,z,d"),
    ("0.5,a,u", {}, ParseError, "row 4: expected 4 fields, got 3"),
    ("zz,a,u,1", {}, ParseError, "row 4: cannot parse y='zz'"),
    ("0.5,a,u,1.0", {}, ParseError, "row 4: cannot parse d='1.0'"),
    ("0.5,a,u,0", {}, SchemaError, "row 4: treatment index 0 must be >= 1"),
    ("y,x,z,d\n\n\n", {}, SchemaError, "no data rows"),
    ("nan,a,u,1", {}, SchemaError, "row 4: y=nan is not finite"),
    ("0.5,a,u,2", {"rescale": True}, SchemaError,
     "cannot rescale a constant outcome column"),
    ("1.5,a,u,1", {}, SchemaError, "row 4: y=1.5 outside support [0.0, 1.0]"),
    ("0.5,a,u,3", {"k": 2}, SchemaError, "row 4: treatment index 3 exceeds K=2"),
    # more cells than any array holds; once an exit 1 from fit_plugin
    (f"0.5,a,u,{2**62}", {}, SchemaError, f"K={2**62} gives more than {2**53} (d, x, z) cells"),
    ("0.5,b,u,1", {"x_levels": ["a"]}, SchemaError, "row 4: unknown x level 'b'"),
    ("0.5,a,v,1", {"z_levels": ["u"]}, SchemaError, "row 4: unknown z level 'v'"),
    ("y,x,z,d\n\n0.5,a,u,1\n", {"x_levels": ["ghost"], "drop_empty_x": True},
     SchemaError, "row 3: unknown x level 'a'"),
    # precedence: the first failing check wins, whatever its row
    ("y,x,z,d\n1.5,a,u,1\n\n0.5,a,u\n", {}, ParseError,
     "row 4: expected 4 fields, got 3"),
    ("y,x,z,d\n1.5,a,u,1\n\nnan,a,u,1\n", {}, SchemaError, "row 4: y=nan is not finite"),
    ("y,x,z,d\n0.5,a,u,3\n\n1.5,a,u,1\n", {"k": 2}, SchemaError,
     "row 4: y=1.5 outside support [0.0, 1.0]"),
    ("y,x,z,d\n0.5,b,u,1\n\n0.5,a,u,3\n", {"k": 2, "x_levels": ["a"]}, SchemaError,
     "row 4: treatment index 3 exceeds K=2"),
    ("y,x,z,d\n0.5,a,w,1\n\n0.5,b,u,1\n", {"x_levels": ["a"], "z_levels": ["u"]},
     SchemaError, "row 4: unknown x level 'b'"),
    ("y,x,z,d\n\n0.5,a,u,1\n\n\n1.5,a,u,1\n", {}, SchemaError,
     "row 6: y=1.5 outside support [0.0, 1.0]"),
    # a short row and a long one that hold four fields per row between them
    ("y,x,z,d\n0.5,a,1\n2,0.5,a,u,1\n", {}, ParseError, "row 2: expected 4 fields, got 3"),
    ("y,x,z,d\n0.5,a,u,1,2\n0.5,a,1\n", {}, ParseError, "row 2: expected 4 fields, got 5"),
]



def write_error_case(path, text):
    if text and not text.startswith(("y,", "\n")):
        text = f"y,x,z,d\n0.5,a,u,1\n\n{text}\n"
    path.write_text(text)
    return path


class TestStreamingIngest:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_list_of_rows_reference(self, tmp_path, seed):
        path = str(tmp_path / "s.csv")
        random_sample_csv(path, seed)
        rng = random.Random(seed)
        ref = reference_read(path, UNIT)
        x_seen, z_seen = list(ref.space.x_levels), list(ref.space.z_levels)
        rng.shuffle(x_seen)
        options = {}
        if seed % 2:
            options["x_levels"] = x_seen[:1] + ["ghost"] + x_seen[1:]
            options["drop_empty_x"] = seed % 4 == 1
        if seed % 3:
            options["z_levels"] = z_seen[::-1] + ["unseen"]
        if seed % 5 == 0:
            options["k"] = ref.space.k + 1
        if seed % 7 == 0 and np.ptp(ref.ys) > 0:
            options["rescale"] = True
        assert_same_sample(read_sample_csv(path, UNIT, **options),
                           reference_read(path, UNIT, **options))

    @pytest.mark.parametrize("text, options, error, message", ERROR_CASES)
    def test_error_messages(self, tmp_path, text, options, error, message):
        path = write_error_case(tmp_path / "s.csv", text)
        with pytest.raises(error) as info:
            read_sample_csv(str(path), UNIT, **options)
        assert str(info.value) == f"{path}: {message}"

    def test_peak_memory_is_columns_not_rows(self, tmp_path):
        # About 150 B per row: the typed columns and the sample's arrays fit,
        # the parsed rows (several hundred bytes each) do not.
        rng = np.random.default_rng(0)
        n = 20_000
        path = tmp_path / "s.csv"
        path.write_text("y,x,z,d\n" + "".join(
            f"{y:.4f},x{x},z{z},{d}\n"
            for y, x, z, d in zip(rng.random(n), rng.integers(0, 50, n),
                                  rng.integers(0, 4, n), rng.integers(1, 5, n))
        ))
        tracemalloc.start()
        try:
            sample = read_sample_csv(str(path), UNIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.n == n
        assert peak < 3_000_000


def block_sample_csv(path, seed):
    """A sample CSV of 200-600 rows: LF rows without quotes up to a random row
    (every third file to the end), then quoted labels holding commas, quotes
    and newlines, and LF or CRLF line ends; blank rows throughout, y written
    as '-0.0', ' 0.5' or '5e-1', d as ' 2' or '+2'; every other file without
    a line end after its last row."""
    rng = random.Random(seed)
    n = rng.randint(200, 600)
    switch = rng.randint(0, n) if seed % 3 else n
    plain, quoted = ["a", " padded ", "x0"], ["b,c", 'say "hi"', "two\nlines"]
    buf = io.StringIO(newline="")
    writers = {end: csv.writer(buf, lineterminator=end) for end in ("\n", "\r\n")}
    writers["\n"].writerow(["y", "x", "z", "d"])
    for row in range(n):
        end = "\n" if row < switch else rng.choice(["\n", "\r\n"])
        labels = plain if row < switch else plain + quoted
        if rng.random() < 0.05:
            buf.write(end)
        y = round(rng.random(), rng.choice([1, 4, 17]))
        y_text = rng.choice([repr(y), f" {y}", f"{y:e}", "-0.0", "0.0", "1"])
        d_text = rng.choice(["{}", " {}", "+{}"]).format(rng.randint(1, 3))
        writers[end].writerow([y_text, rng.choice(labels), rng.choice(labels), d_text])
    text = buf.getvalue()
    Path(path).write_text(text.rstrip("\r\n") if seed % 2 else text, newline="")


def read_passes(path):
    """read_sample_csv's block pass and its row-by-row pass, as comparable values
    or as the error each raises."""
    passes = []
    for by_block in (True, False):
        try:
            read = columns.read_columns(str(path), by_block)
        except (ParseError, SchemaError) as exc:
            passes.append((type(exc), str(exc)))
        else:
            passes.append([c.tobytes() if isinstance(c, (array, np.ndarray)) else c
                           for c in read])
    return passes


class TestBlockIngest:
    """The block reader with blocks of a few dozen characters, so that blank
    rows, CRLF, quoted labels and signed or padded values fall on and across
    the cuts."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_list_of_rows_reference(self, tmp_path, monkeypatch, seed):
        path = str(tmp_path / "s.csv")
        block_sample_csv(path, seed)
        want = reference_read(path, UNIT)
        for block in (1, 7, 24, 61, columns.BLOCK_CHARS):
            monkeypatch.setattr(columns, "BLOCK_CHARS", block)
            assert_same_sample(read_sample_csv(path, UNIT), want)
            by_block, by_row = read_passes(path)
            assert by_block == by_row

    @pytest.mark.parametrize("block", [1, 6, 13])
    @pytest.mark.parametrize("text, options, error, message", ERROR_CASES)
    def test_error_messages(self, tmp_path, monkeypatch, block, text, options, error,
                            message):
        monkeypatch.setattr(columns, "BLOCK_CHARS", block)
        path = write_error_case(tmp_path / "s.csv", text)
        with pytest.raises(error) as info:
            read_sample_csv(str(path), UNIT, **options)
        assert str(info.value) == f"{path}: {message}"
        # the block pass stops at the same row error as the row-by-row pass
        by_block, by_row = read_passes(path)
        assert by_block == by_row

    @pytest.mark.parametrize("block", [5, 64, columns.BLOCK_CHARS])
    @pytest.mark.parametrize("last, options, message", [
        ("", {}, "row 302: treatment index 18446744073709551616 does not fit in 64 bits"),
        ("", {"k": 4}, "row 302: treatment index 18446744073709551616 exceeds K=4"),
        ("1.5,a,u,1\n", {}, "row 402: y=1.5 outside support [0.0, 1.0]"),
    ])
    def test_treatment_index_beyond_int64_in_a_later_block(self, tmp_path, monkeypatch, block,
                                                           last, options, message):
        monkeypatch.setattr(columns, "BLOCK_CHARS", block)
        path = tmp_path / "s.csv"
        path.write_text("y,x,z,d\n" + "0.5,a,u,1\n" * 300 + "0.5,a,u,18446744073709551616\n"
                        + "0.25,b,v,2\n" * 99 + last)
        with pytest.raises(SchemaError) as info:
            read_sample_csv(str(path), UNIT, **options)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("d, message", [
        ("1" * 5000, "treatment index " + "1" * 40 + "... (5000 characters) does not fit in 64 bits"),
        ("-" + "1" * 5000, "treatment index -" + "1" * 39 + "... (5001 characters) must be >= 1"),
        ("0" * 5000 + "2", None),
    ], ids=["beyond-int64", "negative", "leading-zeros"])
    def test_treatment_index_of_more_digits_than_int_converts(self, tmp_path, d, message):
        # int() converts at most 4300 digits by default: what such a d means,
        # not that limit, decides the outcome; the message quotes 40 digits
        path = tmp_path / "s.csv"
        path.write_text(f"y,x,z,d\n0.5,a,u,1\n0.25,b,v,{d}\n")
        if message is None:
            assert list(read_sample_csv(str(path), UNIT).d) == [1, 2]
        else:
            with pytest.raises(SchemaError) as info:
                read_sample_csv(str(path), UNIT)
            assert str(info.value) == f"{path}: row 3: " + message
        by_block, by_row = read_passes(path)
        assert by_block == by_row

    @pytest.mark.parametrize("block", [11, columns.BLOCK_CHARS])
    def test_one_cell_with_d_spelled_four_ways(self, tmp_path, monkeypatch, block):
        # one (x, z) pair with d written "2", " 2", "+2" and "02", all in one
        # block at the default size: four cell keys for one cell
        monkeypatch.setattr(columns, "BLOCK_CHARS", block)
        path = tmp_path / "s.csv"
        path.write_text("y,x,z,d\n0.5,b,v,1\n0.1,a,u,2\n0.2,a,u, 2\n0.3,a,u,+2\n"
                        "0.4,a,u,02\n0.6,c,u,02\n0.7,a,u,+2\n")
        by_block, by_row = read_passes(path)
        assert by_block == by_row
        sample = read_sample_csv(str(path), UNIT)
        assert_same_sample(sample, reference_read(str(path), UNIT))
        assert sample.space.x_levels == ("b", "a", "c") and sample.space.z_levels == ("v", "u")
        assert sample.d.tolist() == [1, 2, 2, 2, 2, 2, 2]

    @pytest.mark.parametrize("block", [30, 64, 200])
    def test_new_cell_with_d_zero_after_cached_cells(self, tmp_path, monkeypatch, block):
        # earlier blocks have cached a,u,1 and b,v,2: the first new cell key of
        # the last block has d = 0, so that block is read row by row
        monkeypatch.setattr(columns, "BLOCK_CHARS", block)
        path = tmp_path / "s.csv"
        path.write_text("y,x,z,d\n" + "0.5,a,u,1\n0.25,b,v,2\n" * 20
                        + "0.5,a,u,1\n0.5,c,u,0\n0.5,b,v,2\n")
        with pytest.raises(SchemaError) as info:
            read_sample_csv(str(path), UNIT)
        assert str(info.value) == f"{path}: row 43: treatment index 0 must be >= 1"
        by_block, by_row = read_passes(path)
        assert by_block == by_row

    @pytest.mark.parametrize("block", [7, 61, columns.BLOCK_CHARS])
    def test_blank_rows_stay_on_the_block_path(self, tmp_path, monkeypatch, block):
        # blank rows, two in a row and one trailing, in a file without quotes
        # or carriage returns: csv.reader reads the header and nothing else
        path = tmp_path / "s.csv"
        rows = [f"0.{i % 9 + 1},x{i % 4},z{i % 3},{i % 2 + 1}" for i in range(200)]
        for at in (150, 80, 80, 0):
            rows.insert(at, "")
        path.write_text("y,x,z,d\n" + "\n".join(rows) + "\n\n")
        want = reference_read(str(path), UNIT)
        calls, reader = [], csv.reader
        monkeypatch.setattr(columns.csv, "reader", lambda *args: calls.append(args) or reader(*args))
        monkeypatch.setattr(columns, "BLOCK_CHARS", block)
        sample = read_sample_csv(str(path), UNIT)
        assert len(calls) == 1
        monkeypatch.undo()
        assert_same_sample(sample, want)
        by_block, by_row = read_passes(path)
        assert by_block == by_row
        assert by_block[5] == [2, 83, 84, 155, 206]  # CSV row numbers of the blank rows

    def test_field_beyond_csv_limit_fails_as_csv_reader_does(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("y,x,z,d\n0.5,a,u,1\n0.5," + "a" * (csv.field_size_limit() + 1)
                        + ",u,1\n")
        with pytest.raises(csv.Error) as by_block:
            columns.read_columns(str(path), by_block=True)
        with pytest.raises(csv.Error) as by_row:
            columns.read_columns(str(path), by_block=False)
        assert str(by_block.value) == str(by_row.value)

    @pytest.mark.parametrize("bad_row, message", [
        (10, "row 11: cannot parse y='zz'"),
        (2000, "not UTF-8 text (invalid continuation byte)"),
    ])
    def test_row_error_and_decode_error_keep_their_order(self, tmp_path, bad_row, message):
        # the invalid byte sits at offset 12,000, past the first 8 KiB the
        # row-by-row reader decodes: a row error before it wins, one after
        # it loses
        rows = ["y,x,z,d"] + ["0.5,a,u,1"] * 3000
        rows[bad_row] = "zz,a,u,1"
        data = ("\n".join(rows) + "\n").encode()
        path = tmp_path / "s.csv"
        path.write_bytes(data[:12_000] + b"\xe9" + data[12_001:])
        with pytest.raises(ParseError) as info:
            read_sample_csv(str(path), UNIT)
        assert str(info.value) == f"{path}: {message}"


class TestLongFieldInAnError:
    """An error message quotes at most 40 characters of a field, and its length."""

    DIGITS = "1" * 5000
    LABEL = "é" * 5000  # 10 KB as UTF-8

    @pytest.mark.parametrize("row, flags, code, shown", [
        (f"0.5,a,u,{DIGITS}", [], EXIT_SCHEMA,
         "treatment index " + "1" * 40 + "... (5000 characters) does not fit in 64 bits"),
        (f"0.5,a,u,{DIGITS}", ["--k", "3"], EXIT_SCHEMA,
         "treatment index " + "1" * 40 + "... (5000 characters) exceeds K=3"),
        (f"0.5,a,u,-{DIGITS}", [], EXIT_SCHEMA,
         "treatment index -" + "1" * 39 + "... (5001 characters) must be >= 1"),
        (f"0.5,a,u,{DIGITS}x", [], EXIT_PARSE,
         "cannot parse d='" + "1" * 40 + "'... (5001 characters)"),
        (f"{LABEL},a,u,1", [], EXIT_PARSE,
         "cannot parse y='" + "é" * 40 + "'... (5000 characters)"),
        (f"0.5,{LABEL},u,1", ["--x-levels", "a"], EXIT_SCHEMA,
         "unknown x level '" + "é" * 40 + "'... (5000 characters)"),
    ], ids=["beyond-int64", "beyond-k", "negative", "unparseable-d", "unparseable-y",
            "unknown-label"])
    def test_one_short_line_naming_the_row(self, tmp_path, capsys, row, flags, code, shown):
        path = tmp_path / "s.csv"
        path.write_text(f"y,x,z,d\n0.5,a,u,1\n{row}\n0.25,b,v,2\n", encoding="utf-8")
        rc = main(["fit", "--input", str(path), "--output-dir", str(tmp_path / "o"), *flags])
        err = capsys.readouterr().err
        assert rc == code
        assert err.endswith(f"{path}: row 3: {shown}\n")
        assert err.count("\n") == 1 and len(err.encode()) < 300

    def test_short_field_prints_whole(self, tmp_path):
        path = tmp_path / "s.csv"
        field = "9" * 39 + "x"  # 40 characters
        path.write_text(f"y,x,z,d\n0.5,a,u,{field}\n")
        with pytest.raises(ParseError) as info:
            read_sample_csv(str(path), UNIT)
        assert str(info.value) == f"{path}: row 2: cannot parse d={field!r}"


class TestByteOrderMark:
    @pytest.mark.parametrize("text", [
        "y,x,z,d\n0.5,a,u,1\n0.25,b,v,2\n",
        '"y",x,z,d\r\n0.5,"a,b",u,1\r\n\r\n-0.0,c,v,+2\r\n',
    ], ids=["plain", "quoted-crlf"])
    def test_reads_as_without(self, tmp_path, text):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text.encode())
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert_same_sample(read_sample_csv(str(bom), UNIT), read_sample_csv(str(plain), UNIT))

    def test_fit_output_equals_without(self, tmp_path, toy_csv):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(toy_csv).read_bytes())
        for name, path in (("plain", toy_csv), ("bom", bom)):
            assert main(["fit", "--input", str(path), "--output-dir", str(tmp_path / name)]) == 0
        assert ((tmp_path / "bom" / "fitted_array.json").read_bytes()
                == (tmp_path / "plain" / "fitted_array.json").read_bytes())

    def test_not_utf8_after_bom_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "s.csv"
        bad.write_bytes(b"\xef\xbb\xbf" + "y,x,z,d\n0.5,\xe9,u,1\n".encode("latin-1"))
        assert main(["fit", "--input", str(bad), "--output-dir", str(tmp_path / "o")]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"parse error: {bad}: not UTF-8 text (invalid continuation byte)\n")


json_scalars = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, float("nan"), float("inf"), float("-inf")]),
    st.floats().map(np.float64),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(['say "hi"', "back\\slash", "tab\tnew\nline", "\u00e9\u2028\U0001f600"]),
)
json_keys = st.one_of(st.text(), st.sampled_from(['"', "\\", "\u00e9", ""]), st.integers())
json_payloads = st.recursive(
    json_scalars
    | st.lists(st.floats(allow_nan=False, allow_infinity=False))
    | st.lists(st.floats())
    | st.lists(st.one_of(st.integers(), st.floats())),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(json_keys, children, max_size=4),
    max_leaves=25,
)


# float64 leaves as fitted_array_payload hands them over; the special values
# come often, so signed zeros and repeats meet in one document
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 0.1, 1.0, float("nan"), float("inf"),
                  float("-inf")]
float_arrays = st.lists(st.floats() | st.sampled_from(SPECIAL_FLOATS), max_size=8).map(
    lambda values: np.array(values, dtype=np.float64))
int_arrays = st.lists(st.integers(-5, 5), max_size=4).map(lambda v: np.array(v, dtype=np.int64))
array_payloads = st.recursive(
    float_arrays | int_arrays | json_scalars
    | st.lists(st.sampled_from(SPECIAL_FLOATS), max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=25,
)


def written_json(payload) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        _write_json(path, payload)
        with open(path, newline="") as fh:
            return fh.read()


class TestJsonWriter:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(json_payloads)
    def test_matches_json_dumps_indent_2(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.json")
            _write_json(path, payload)
            with open(path, newline="") as fh:
                assert fh.read() == json.dumps(payload, indent=2) + "\n"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(array_payloads)
    def test_array_leaves_match_json_dumps_of_their_lists(self, payload):
        want = json.dumps(payload, indent=2, default=np.ndarray.tolist) + "\n"
        assert written_json(payload) == want

    def test_signed_zeros_and_repeats_in_one_document(self):
        payload = {
            "a": np.array([0.0, -0.0, 5e-324, 0.0, -0.0, 5e-324]),
            "b": [-0.0, 0.0, 0.1, 0.1],
            "c": np.array([float("nan"), 0.1, float("inf"), float("-inf"), -0.0]),
            "d": np.array([], dtype=np.float64),
        }
        assert written_json(payload) == (
            json.dumps(payload, indent=2, default=np.ndarray.tolist) + "\n")

    def test_fitted_array_matches_json_dumps_indent_2(self, toy_csv, tmp_path):
        payload = fitted_array_payload(fit_plugin(read_sample_csv(toy_csv, UNIT)))
        path = str(tmp_path / "fitted_array.json")
        _write_json(path, payload)
        with open(path, newline="") as fh:
            assert fh.read() == json.dumps(payload, indent=2, default=np.ndarray.tolist) + "\n"


class TestFit:
    def test_writes_valid_json(self, toy_csv, tmp_path):
        out = str(tmp_path / "out")
        assert main(["fit", "--input", toy_csv, "--output-dir", out]) == EXIT_OK
        doc = validate(os.path.join(out, "fitted_array.json"), "fitted_array.schema.json")
        assert doc["k"] == 2
        assert len(doc["cells"]) == 4
        assert sum(p["p"] for p in doc["pxz"]) == pytest.approx(1.0)

    def test_four_row_design_single_atoms(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "y,x,z,d\n0.1,x0,z0,1\n0.2,x0,z0,2\n0.3,x0,z1,1\n0.4,x0,z1,2\n"
        )
        out = str(tmp_path / "out")
        assert main(["fit", "--input", str(path), "--output-dir", out]) == EXIT_OK
        doc = validate(os.path.join(out, "fitted_array.json"), "fitted_array.schema.json")
        assert all(len(cell["points"]) == 1 for cell in doc["cells"])
        assert not any(cell["empty_cell"] for cell in doc["cells"])

    def test_empty_cell_marker(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("y,x,z,d\n0.1,x0,z0,1\n0.2,x0,z1,2\n")
        out = str(tmp_path / "out")
        assert main(["fit", "--input", str(path), "--output-dir", out]) == EXIT_OK
        doc = json.loads(Path(os.path.join(out, "fitted_array.json")).read_text())
        empties = {(c["d"], c["z"]): c for c in doc["cells"] if c["empty_cell"]}
        assert {(2, "z0"), (1, "z1")} == set(empties)
        for cell in empties.values():
            assert cell["points"] == [1.0] and cell["masses"] == [1.0]

    def test_empty_cell_means_no_records(self, tmp_path):
        # cell (1, a, u) holds one record at b = 1: a point mass at b, but not empty
        path = tmp_path / "s.csv"
        path.write_text("y,x,z,d\n1.0,a,u,1\n0.2,a,u,2\n0.3,a,v,1\n")
        out = str(tmp_path / "out")
        assert main(["fit", "--input", str(path), "--output-dir", out]) == EXIT_OK
        doc = json.loads(Path(os.path.join(out, "fitted_array.json")).read_text())
        cells = {(c["d"], c["x"], c["z"]): c for c in doc["cells"]}
        assert cells[(1, "a", "u")]["points"] == [1.0]
        assert [key for key, c in cells.items() if c["empty_cell"]] == [(2, "a", "v")]

    def test_payload_needs_a_fitted_array(self):
        # an array given as cell CDFs has no record counts to mark empty cells by
        with pytest.raises(ValueError, match="fitted from a sample"):
            fitted_array_payload(toy_cond_array(0.75, 8))

    def test_out_of_support_exit_3(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("y,x,z,d\n0.5,a,u,1\n1.5,a,u,1\n")
        out = str(tmp_path / "out")
        assert main(["fit", "--input", str(path), "--output-dir", out]) == EXIT_SCHEMA
        assert "row 3" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_row, flags", [
        ("1.5,a,u,1", []),
        ("0.5,a,u,3", ["--k", "2"]),
        ("0.5,b,u,1", ["--x-levels", "a"]),
        ("0.5,a,w,1", ["--z-levels", "u,v"]),
    ])
    def test_schema_error_row_counts_blank_rows(self, tmp_path, capsys, bad_row, flags):
        path = tmp_path / "s.csv"
        path.write_text(f"y,x,z,d\n0.5,a,u,1\n\n0.2,a,v,2\n{bad_row}\n")
        rc = main(["fit", "--input", str(path), "--output-dir", str(tmp_path / "o")] + flags)
        assert rc == EXIT_SCHEMA
        assert "row 5:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["fit"], ["sweep"], ["fit", "--rescale"]])
    @pytest.mark.parametrize("y", ["nan", "inf", "-inf"])
    def test_non_finite_outcome_exit_3(self, tmp_path, capsys, command, y):
        path = tmp_path / "s.csv"
        path.write_text(f"y,x,z,d\n0.5,a,u,1\n\n0.2,a,v,2\n{y},a,u,2\n")
        rc = main(command + ["--input", str(path), "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and err.count("\n") == 1
        assert "row 5" in err and "not finite" in err

    @pytest.mark.parametrize("flags, message", [
        ([], "row 4: treatment index 9223372036854775808 does not fit in 64 bits"),
        (["--k", "2"], "row 4: treatment index 9223372036854775808 exceeds K=2"),
    ])
    def test_treatment_index_beyond_int64_exit_3(self, tmp_path, capsys, flags, message):
        path = tmp_path / "s.csv"
        path.write_text("y,x,z,d\n0.5,a,u,1\n\n0.2,a,v,9223372036854775808\n")
        rc = main(["fit", "--input", str(path), "--output-dir", str(tmp_path / "o")] + flags)
        assert rc == EXIT_SCHEMA
        assert capsys.readouterr().err == f"schema error: {path}: {message}\n"

    def test_unparseable_y_exit_2(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("y,x,z,d\nzzz,a,u,1\n")
        out = str(tmp_path / "out")
        assert main(["fit", "--input", str(path), "--output-dir", out]) == EXIT_PARSE
        assert "row 2" in capsys.readouterr().err

    def test_missing_input_exit_5(self, tmp_path):
        assert main(["fit", "--output-dir", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("flag, shown", [("--input", "{path}"), ("--config", "config {path}")])
    def test_missing_file_named_once_and_whole(self, tmp_path, capsys, flag, shown):
        head = str(tmp_path / ("m" * 150))  # 300 characters, no name beyond NAME_MAX
        path = os.path.join(head, "m" * (299 - len(head)))
        assert main(["fit", flag, path, "--output-dir", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        name = shown.format(path=path)
        assert err == f"config error: cannot read {name}: No such file or directory\n"
        assert err.count(path) == 1 and len(err.encode()) < 400

    @pytest.mark.parametrize("flags, message", [
        (["--k", "1"], "--k must be >= 2, got 1"),
        (["--k", str(2**61)], f"--k must be <= {2**53}, got {2**61}"),  # once an exit 1
        (["--x-levels", "a,b,a"], "--x-levels lists 'a' twice"),
        (["--z-levels", "u,u"], "--z-levels lists 'u' twice"),
        (["--k", LONG], f"--k must be <= {2**53}, got {SHOWN}"),
        (["--x-levels", f"{LONG},{LONG}"], f"--x-levels lists '{SHOWN[:40]}'{SHOWN[40:]} twice"),
        # fit draws nothing at random
        (["--seed", "1"], "unrecognized arguments: --seed 1"),
    ])
    def test_bad_k_or_levels_exit_5(self, tmp_path, capsys, flags, message):
        path = tmp_path / "s.csv"
        path.write_text("y,x,z,d\n0.5,a,u,1\n0.2,b,u,2\n")
        rc = main(["fit", "--input", str(path), "--output-dir", str(tmp_path / "o")] + flags)
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestSweep:
    def test_outputs_and_determinism(self, toy_csv, tmp_path):
        outs = [str(tmp_path / f"out{i}") for i in (1, 2)]
        for out in outs:
            rc = main(
                ["sweep", "--input", toy_csv, "--output-dir", out,
                 "--grid-m", "2", "--seed", "4", "--candidate-starts", "15",
                 "--max-iters", "150"]
            )
            assert rc == EXIT_OK
        for name in ("path.csv", "rules.json"):
            with open(os.path.join(outs[0], name), "rb") as f1, \
                 open(os.path.join(outs[1], name), "rb") as f2:
                assert f1.read() == f2.read()
        doc = validate(os.path.join(outs[0], "rules.json"), "rules.schema.json")
        assert doc["lambdas"] == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("target", ["mean", "gini-welfare", "quantile:0.3"])
    def test_ipw_estimated_is_an_alias_of_plugin(self, toy_csv, tmp_path, target):
        # cell-frequency IPW weights equal the plug-in atom masses
        outs = [tmp_path / estimator for estimator in ("plugin", "ipw-estimated")]
        for out in outs:
            assert main(["sweep", "--input", toy_csv, "--output-dir", str(out),
                         "--estimator", out.name, "--target", target, "--grid-m", "2",
                         "--candidate-starts", "10", "--max-iters", "100"]) == EXIT_OK
        for name in ("path.csv", "rules.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_path_csv_schema(self, toy_csv, tmp_path):
        out = str(tmp_path / "out")
        main(["sweep", "--input", toy_csv, "--output-dir", out, "--grid-m", "1",
              "--seed", "1", "--candidate-starts", "10", "--max-iters", "100"])
        lines = Path(os.path.join(out, "path.csv")).read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["lambda", "obj_value", "target_value"]
        assert header[-1] == "max_unfairness"
        assert len(lines) == 3  # grid {0, 1} plus header

    @pytest.mark.parametrize("flags, message", [
        (["--grid-m", "0"], "--grid-m must be >= 1, got 0"),
        (["--grid-m", str(2**61)], f"--grid-m must be <= {2**53}, got {2**61}"),
        (["--target", "quantile:2"], "quantile target needs tau in (0, 1), got 2.0"),
        # argparse quoted the whole value, and called an integer that long no int
        (["--grid-m", LONG], f"--grid-m must be <= {2**53}, got {SHOWN}"),
        (["--grid-m", "-" + LONG], f"--grid-m must be >= 1, got -{SHOWN[:39]}... (5001 characters)"),
        (["--grid-m", "0" * 5001], f"--grid-m must be >= 1, got {'0' * 40}... (5001 characters)"),
        (["--target", LONG],
         f"--target must be gini-welfare, mean or quantile:TAU, got '{SHOWN[:40]}'{SHOWN[40:]}"),
        (["--similarity", LONG], "--similarity must be ks, one-sided-ks or "
                                 f"abs-target-diff:TARGET, got '{SHOWN[:40]}'{SHOWN[40:]}"),
        (["--estimator", LONG], f"argument --estimator: invalid choice: '{SHOWN[:40]}'"
                                f"{SHOWN[40:]} (choose from 'plugin', 'ipw-estimated')"),
        (["--seed", LONG], f"argument --seed: invalid int value: '{SHOWN[:40]}'{SHOWN[40:]}"),
        (["--restarts", LONG], f"--restarts must be <= {2**53}, got {SHOWN}"),
        (["--candidate-starts", LONG], f"--candidate-starts must be <= {2**53}, got {SHOWN}"),
        (["--max-iters", LONG], f"--max-iters must be <= {2**53}, got {SHOWN}"),
        (["--bogus", LONG], f"unrecognized arguments: --bogus {SHOWN[:32]}... (5008 characters)"),
    ])
    def test_bad_objective_config_exit_5(self, toy_csv, tmp_path, capsys, flags, message):
        rc = main(["sweep", "--input", toy_csv, "--output-dir", str(tmp_path / "o")] + flags)
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command, flags, message", [
        ("sweep", ["--ftol", "0"], "--ftol must be positive, got 0.0"),
        ("sweep", ["--restarts", "0"], "--restarts must be >= 1, got 0"),
        ("sweep", ["--candidate-starts", "0"], "--candidate-starts must be >= 1, got 0"),
        ("sweep", ["--max-iters", "0"], "--max-iters must be >= 1, got 0"),
        ("sweep", ["--support", "1", "0"], "support requires a < b, got [1.0, 0.0]"),
        ("fit", ["--support", "1", "0"], "support requires a < b, got [1.0, 0.0]"),
    ])
    def test_bad_optimizer_or_support_exit_5_before_reading(
        self, toy_csv, tmp_path, capsys, monkeypatch, command, flags, message
    ):
        def no_read(*args, **kwargs):
            raise AssertionError("sample read before the configuration was checked")

        monkeypatch.setattr("fairpolicy.cli.read_sample_csv", no_read)
        rc = main([command, "--input", toy_csv, "--output-dir", str(tmp_path / "o")] + flags)
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_stdout_stays_quiet(self, toy_csv, tmp_path, capsys):
        out = str(tmp_path / "out")
        main(["sweep", "--input", toy_csv, "--output-dir", out, "--grid-m", "1",
              "--seed", "1", "--candidate-starts", "5", "--max-iters", "60"])
        assert capsys.readouterr().out == ""


class TestSelect:
    def test_from_path_files(self, toy_csv, tmp_path):
        out = str(tmp_path / "out")
        main(["sweep", "--input", toy_csv, "--output-dir", out, "--grid-m", "2",
              "--seed", "4", "--candidate-starts", "15", "--max-iters", "150"])
        rc = main(["select", "--path-csv", os.path.join(out, "path.csv"),
                   "--rules-json", os.path.join(out, "rules.json"),
                   "--beta", "10", "--output-dir", out])
        assert rc == EXIT_OK
        doc = validate(os.path.join(out, "selection.json"), "selection.schema.json")
        assert doc["chosen_lambda"] == 1.0  # huge budget: max grid lambda

    def test_tight_budget_chooses_zero(self, tmp_path):
        out = str(tmp_path / "out")
        os.makedirs(out)
        path_csv = os.path.join(out, "path.csv")
        rules_json = os.path.join(out, "rules.json")
        with open(path_csv, "w") as fh:
            fh.write("lambda,obj_value,target_value,unfair_g,max_unfairness\n")
            for lam, tv in ((0.0, 0.5), (0.5, 0.2), (1.0, 0.1)):
                fh.write(f"{lam},{tv},{tv},0.0,0.0\n")
        Path(rules_json).write_text(json.dumps(
            {"n": 1000, "x_levels": ["x0"], "k": 2, "lambdas": [0.0, 0.5, 1.0],
             "rules": [[[0.5, 0.5]], [[0.4, 0.6]], [[0.3, 0.7]]]}
        ))
        rc = main(["select", "--path-csv", path_csv, "--rules-json", rules_json,
                   "--beta", "0.005", "--output-dir", out])
        assert rc == EXIT_OK
        doc = json.loads(Path(os.path.join(out, "selection.json")).read_text())
        assert doc["chosen_lambda"] == 0.0

    def test_mid_grid_crossing(self, tmp_path):
        out = str(tmp_path / "out")
        os.makedirs(out)
        path_csv = os.path.join(out, "path.csv")
        rules_json = os.path.join(out, "rules.json")
        targets = [0.5, 0.499, 0.497, 0.40]  # deltas 0, .001, .003, .1
        with open(path_csv, "w") as fh:
            fh.write("lambda,obj_value,target_value,unfair_g,max_unfairness\n")
            for lam, tv in zip((0.0, 0.25, 0.5, 0.75), targets):
                fh.write(f"{lam},{tv},{tv},0.0,0.0\n")
        Path(rules_json).write_text(json.dumps(
            {"n": 8000, "x_levels": ["x0"], "k": 2, "lambdas": [0.0, 0.25, 0.5, 0.75],
             "rules": [[[0.5, 0.5]]] * 4}
        ))
        rc = main(["select", "--path-csv", path_csv, "--rules-json", rules_json,
                   "--beta", "0.005", "--output-dir", out])
        assert rc == EXIT_OK
        doc = json.loads(Path(os.path.join(out, "selection.json")).read_text())
        # threshold ~ 0.00484: the last grid point under it is 0.5
        assert doc["chosen_lambda"] == 0.5

    def test_path_csv_with_byte_order_mark_selects_as_without(self, tmp_path):
        text = "lambda,obj_value,target_value,unfair_g,max_unfairness\n" + "".join(
            f"{lam},{tv},{tv},0.0,0.0\n" for lam, tv in ((0.0, 0.5), (0.5, 0.499), (1.0, 0.4)))
        rules_json = tmp_path / "rules.json"
        rules_json.write_text(json.dumps(
            {"n": 8000, "x_levels": ["x0"], "k": 2, "lambdas": [0.0, 0.5, 1.0],
             "rules": [[[0.5, 0.5]], [[0.4, 0.6]], [[0.3, 0.7]]]}))
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            (tmp_path / f"{name}.csv").write_bytes(prefix + text.encode())
            assert main(["select", "--path-csv", str(tmp_path / f"{name}.csv"),
                         "--rules-json", str(rules_json), "--beta", "0.005",
                         "--output-dir", str(tmp_path / name)]) == EXIT_OK
        assert ((tmp_path / "bom" / "selection.json").read_bytes()
                == (tmp_path / "plain" / "selection.json").read_bytes())

    def test_rules_json_with_byte_order_mark_selects_as_without(self, tmp_path):
        path_csv = tmp_path / "path.csv"
        path_csv.write_text("lambda,obj_value,target_value,unfair_g,max_unfairness\n"
                            "0.0,0.5,0.5,0.0,0.0\n0.5,0.499,0.499,0.0,0.0\n")
        text = json.dumps({"n": 8000, "x_levels": ["x0"], "k": 2, "lambdas": [0.0, 0.5],
                           "rules": [[[0.5, 0.5]], [[0.4, 0.6]]]})
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            (tmp_path / f"{name}.json").write_bytes(prefix + text.encode())
            assert main(["select", "--path-csv", str(path_csv),
                         "--rules-json", str(tmp_path / f"{name}.json"), "--beta", "0.005",
                         "--output-dir", str(tmp_path / name)]) == EXIT_OK
        assert ((tmp_path / "bom" / "selection.json").read_bytes()
                == (tmp_path / "plain" / "selection.json").read_bytes())

    def test_missing_beta_exit_5(self, toy_csv, tmp_path):
        rc = main(["select", "--input", toy_csv, "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_one_row_sample_exit_5_before_any_sweep(self, tmp_path, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("select swept a 1-row sample")

        monkeypatch.setattr("fairpolicy.selection.sweep", no_sweep)
        sample = tmp_path / "s.csv"
        sample.write_text("y,x,z,d\n0.5,a,u,1\n")
        rc = main(["select", "--input", str(sample), "--beta", "0.1",
                   "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "n >= 2" in err

    def test_one_row_path_files_exit_5(self, tmp_path, capsys):
        path_csv, rules_json = tmp_path / "path.csv", tmp_path / "rules.json"
        path_csv.write_text("lambda,obj_value,target_value,unfair_g,max_unfairness\n"
                            "0.0,0.5,0.5,0.0,0.0\n")
        rules_json.write_text(json.dumps(
            {"n": 1, "x_levels": ["x0"], "k": 2, "lambdas": [0.0], "rules": [[[0.5, 0.5]]]}
        ))
        rc = main(["select", "--path-csv", str(path_csv), "--rules-json", str(rules_json),
                   "--beta", "0.1", "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("broken, message", [
        (lambda doc: doc.pop("x_levels"), "missing key 'x_levels'"),
        (lambda doc: doc["rules"].pop(), "rule 1: missing"),
        (lambda doc: doc["rules"][1][0].__setitem__(0, 0.9), "rule 1: rows must sum to 1"),
        (lambda doc: doc["rules"].__setitem__(0, [["a", "b"]]), "rule 0:"),
        # np.array(..., dtype=float) would take these as 1.0, 0.0 and 0.4, 0.6
        (lambda doc: doc["rules"].__setitem__(0, [[True, False]]),
         "rule 0: entries must be numbers"),
        (lambda doc: doc["rules"].__setitem__(1, [["0.4", "0.6"]]),
         "rule 1: entries must be numbers"),
        # np.array would take null as nan; a JSON NaN is a number but not finite
        (lambda doc: doc["rules"].__setitem__(1, [[None, 1.0]]),
         "rule 1: entries must be numbers"),
        (lambda doc: doc["rules"].__setitem__(1, [[float("nan"), 1.0]]),
         "rule 1: probs must be finite"),
        (lambda doc: doc["rules"][0][0].__setitem__(0, 10**400),
         "rule 0: int too large to convert to float"),
        (lambda doc: doc["rules"].__setitem__(0, [[0.5], [0.5]]),
         "rule 0: probs must be a list of |x_levels| = 1 lists of k = 2 numbers"),
        (lambda doc: doc.__setitem__("x_levels", []), "x_levels must be nonempty"),
        (lambda doc: doc.__setitem__("x_levels", ["x0", "x0"]), "duplicate x levels"),
        (lambda doc: doc.__setitem__("k", 1), "need at least 2 treatments, got 1"),
        # budget_slack would take log(n) / n as floats
        (lambda doc: doc.__setitem__("n", 10**400), "n does not fit in 64 bits"),
    ], ids=["missing-key", "too-few-rules", "non-simplex", "non-numeric", "boolean-entries",
            "string-entries", "null-entries", "nan-entries", "huge-int", "wrong-shape",
            "no-x-levels", "duplicate-x-levels", "one-treatment", "huge-n"])
    def test_invalid_rules_json_exit_3(self, tmp_path, capsys, broken, message):
        path_csv, rules_json = tmp_path / "path.csv", tmp_path / "rules.json"
        path_csv.write_text("lambda,obj_value,target_value,unfair_g,max_unfairness\n"
                            "0.0,0.5,0.5,0.0,0.0\n1.0,0.4,0.4,0.0,0.0\n")
        doc = {"n": 100, "x_levels": ["x0"], "k": 2, "lambdas": [0.0, 1.0],
               "rules": [[[0.5, 0.5]], [[0.4, 0.6]]]}
        broken(doc)
        rules_json.write_text(json.dumps(doc))
        rc = main(["select", "--path-csv", str(path_csv), "--rules-json", str(rules_json),
                   "--beta", "0.1", "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"schema error: {rules_json}: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key", ["n", "k", "rules"])
    def test_rules_json_int_of_too_many_digits_exit_3(self, tmp_path, capsys, key):
        # json.load raises ValueError for more digits than int() converts
        path_csv, rules_json = tmp_path / "path.csv", tmp_path / "rules.json"
        path_csv.write_text("lambda,obj_value,target_value,unfair_g,max_unfairness\n"
                            "0.0,0.5,0.5,0.0,0.0\n")
        doc = {"n": 100, "x_levels": ["x0"], "k": 2, "lambdas": [0.0], "rules": [[[0, 1]]]}
        field = {"n": '"n": 100', "k": '"k": 2', "rules": "[[[0, 1"}[key]
        rules_json.write_text(json.dumps(doc).replace(field, field + "0" * 5000))
        rc = main(["select", "--path-csv", str(path_csv), "--rules-json", str(rules_json),
                   "--beta", "0.1", "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"schema error: {rules_json}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("key, value, message", [
        ("n", 2.9, "n must be an integer"),
        ("n", True, "n must be an integer"),
        ("k", 2.5, "k must be an integer"),
        ("x_levels", "ab", "x_levels must be a list of strings"),
        ("lambdas", [0.0, True], "lambdas must be a list of numbers"),
    ], ids=["fractional-n", "boolean-n", "fractional-k", "string-x-levels", "boolean-lambda"])
    def test_rules_json_of_the_wrong_type_exit_3(self, tmp_path, capsys, key, value, message):
        # each would otherwise be coerced (2.9 -> 2, "ab" -> a, b, true -> 1.0)
        path_csv, rules_json = tmp_path / "path.csv", tmp_path / "rules.json"
        path_csv.write_text("lambda,obj_value,target_value,unfair_g,max_unfairness\n"
                            "0.0,0.5,0.5,0.0,0.0\n1.0,0.4,0.4,0.0,0.0\n")
        doc = {"n": 100, "x_levels": ["a", "b"], "k": 2, "lambdas": [0.0, 1.0],
               "rules": [[[0.5, 0.5], [0.5, 0.5]], [[0.4, 0.6], [0.4, 0.6]]], key: value}
        rules_json.write_text(json.dumps(doc))
        rc = main(["select", "--path-csv", str(path_csv), "--rules-json", str(rules_json),
                   "--beta", "0.1", "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_SCHEMA
        assert capsys.readouterr().err == f"schema error: {rules_json}: {message}\n"

    def test_invalid_lambda_column_exit_3(self, tmp_path, capsys):
        path_csv, rules_json = tmp_path / "path.csv", tmp_path / "rules.json"
        path_csv.write_text("lambda,obj_value,target_value,unfair_g,max_unfairness\n"
                            "0.5,0.5,0.5,0.0,0.0\n")
        rules_json.write_text(json.dumps(
            {"n": 100, "x_levels": ["x0"], "k": 2, "lambdas": [0.5], "rules": [[[0.5, 0.5]]]}
        ))
        rc = main(["select", "--path-csv", str(path_csv), "--rules-json", str(rules_json),
                   "--beta", "0.1", "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"schema error: {path_csv}: lambda column:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("rules_doc, message", [
        ({"lambdas": [0.0, 0.9], "rules": [[[0.5, 0.5]], [[0.4, 0.6]]]},
         "lambdas [0.0, 0.9] differ from the lambda column of {path_csv} [0.0, 0.25]"),
        ({"lambdas": [0.0, 0.25], "rules": [[[0.5, 0.5]], [[0.4, 0.6]], [[0.3, 0.7]]]},
         "3 rules for 2 {path_csv} rows"),
    ], ids=["other-lambdas", "extra-rules"])
    def test_rules_json_of_another_path_exit_3(self, tmp_path, capsys, rules_doc, message):
        path_csv, rules_json = tmp_path / "path.csv", tmp_path / "rules.json"
        path_csv.write_text("lambda,obj_value,target_value,unfair_g,max_unfairness\n"
                            "0.0,0.5,0.5,0.0,0.0\n0.25,0.4,0.4,0.0,0.0\n")
        rules_json.write_text(json.dumps({"n": 100, "x_levels": ["x0"], "k": 2, **rules_doc}))
        rc = main(["select", "--path-csv", str(path_csv), "--rules-json", str(rules_json),
                   "--beta", "10", "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_SCHEMA
        message = message.format(path_csv=path_csv)
        assert capsys.readouterr().err == f"schema error: {rules_json}: {message}\n"

    def test_negative_beta_exit_5(self, toy_csv, tmp_path, capsys):
        rc = main(["select", "--input", toy_csv, "--beta", "-1",
                   "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("row, column", [
        ("nan,0.5,0.5,0.0,0.0", "lambda"),
        ("1.0,0.4,inf,0.0,0.0", "target_value"),
        ("1.0,0.4,0.4,-inf,0.0", "unfair_g"),
        ("1.0,0.4,0.4,0.0,NaN", "max_unfairness"),
    ], ids=["lambda", "target", "unfairness", "max-unfairness"])
    def test_non_finite_path_value_exit_3(self, tmp_path, capsys, row, column):
        # a NaN target would be written as "delta": NaN, which is not JSON
        path_csv, rules_json = tmp_path / "path.csv", tmp_path / "rules.json"
        path_csv.write_text("lambda,obj_value,target_value,unfair_g,max_unfairness\n"
                            f"0.0,0.5,0.5,0.0,0.0\n{row}\n")
        rules_json.write_text(json.dumps({"n": 100, "x_levels": ["x0"], "k": 2,
                                          "lambdas": [0.0, 1.0],
                                          "rules": [[[0.5, 0.5]], [[0.4, 0.6]]]}))
        rc = main(["select", "--path-csv", str(path_csv), "--rules-json", str(rules_json),
                   "--beta", "0.1", "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_SCHEMA
        assert capsys.readouterr().err == (
            f"schema error: {path_csv}: row 3: {column} is not finite\n")

    @pytest.mark.parametrize("row", ["1.0,0.4,0.4,0.0,0.0,0.0", "1.0,0.4,0.4,0.0", ""],
                             ids=["long", "short", "blank"])
    def test_row_of_another_width_exit_2(self, tmp_path, capsys, row):
        path_csv, rules_json = tmp_path / "path.csv", tmp_path / "rules.json"
        path_csv.write_text("lambda,obj_value,target_value,unfair_g,max_unfairness\n"
                            f"0.0,0.5,0.5,0.0,0.0\n{row}\n")
        rules_json.write_text(json.dumps({"n": 100, "x_levels": ["x0"], "k": 2,
                                          "lambdas": [0.0, 1.0],
                                          "rules": [[[0.5, 0.5]], [[0.4, 0.6]]]}))
        rc = main(["select", "--path-csv", str(path_csv), "--rules-json", str(rules_json),
                   "--beta", "0.1", "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_PARSE
        assert capsys.readouterr().err == f"parse error: {path_csv}: row 3: malformed row\n"

    def test_group_with_two_columns_exit_3(self, tmp_path, capsys):
        path_csv, rules_json = tmp_path / "path.csv", tmp_path / "rules.json"
        path_csv.write_text("lambda,obj_value,target_value,unfair_g,unfair_g,max_unfairness\n"
                            "0.0,0.5,0.5,0.0,0.1,0.1\n")
        rules_json.write_text(json.dumps({"n": 100, "x_levels": ["x0"], "k": 2,
                                          "lambdas": [0.0], "rules": [[[0.5, 0.5]]]}))
        rc = main(["select", "--path-csv", str(path_csv), "--rules-json", str(rules_json),
                   "--beta", "0.1", "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_SCHEMA
        assert capsys.readouterr().err == (
            f"schema error: {path_csv}: row 1: a group has two unfair_ columns\n")

    @pytest.mark.parametrize("doc", [[1, 2], "rules", None], ids=["list", "string", "null"])
    def test_rules_json_that_is_no_object_exit_3(self, tmp_path, capsys, doc):
        path_csv, rules_json = tmp_path / "path.csv", tmp_path / "rules.json"
        path_csv.write_text("lambda,obj_value,target_value,unfair_g,max_unfairness\n"
                            "0.0,0.5,0.5,0.0,0.0\n")
        rules_json.write_text(json.dumps(doc))
        rc = main(["select", "--path-csv", str(path_csv), "--rules-json", str(rules_json),
                   "--beta", "0.1", "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_SCHEMA
        assert capsys.readouterr().err == (
            f"schema error: {rules_json}: must hold a JSON object\n")

    @pytest.mark.parametrize("depth, code, message", [
        (900, EXIT_SCHEMA, "schema error: {rules}: rule 0: probs must be a list of"),
        (5000, EXIT_PARSE, "parse error: {rules}: JSON nested too deeply"),
    ], ids=["checked-flat", "beyond-json"])
    def test_deeply_nested_rules_one_line(self, tmp_path, depth, code, message):
        # a process of its own: pytest's frames would shift the recursion limit
        path_csv, rules_json = tmp_path / "path.csv", tmp_path / "rules.json"
        path_csv.write_text("lambda,obj_value,target_value,unfair_g,max_unfairness\n"
                            "0.0,0.5,0.5,0.0,0.0\n")
        rules_json.write_text('{"n": 100, "x_levels": ["x0"], "k": 2, "lambdas": [0.0], '
                              f'"rules": {"[" * depth}{"]" * depth}}}')
        src = os.path.dirname(os.path.dirname(fairpolicy.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "fairpolicy.cli", "select", "--beta", "0.1",
             "--path-csv", str(path_csv), "--rules-json", str(rules_json),
             "--output-dir", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert done.returncode == code
        assert done.stderr.startswith(message.format(rules=rules_json))
        assert done.stderr.count("\n") == 1

    @pytest.mark.parametrize("seed", [1, 2, 3, 7, 8])
    @pytest.mark.parametrize("target", ["gini-welfare", "mean", "quantile:0.5"])
    def test_saved_path_selects_as_the_sample(self, tmp_path, seed, target):
        # the saved chosen rule is the rule rules.json holds, bit for bit
        rng = np.random.default_rng(seed)
        sample = tmp_path / "sample.csv"
        sample.write_text("y,x,z,d\n" + "".join(
            f"{rng.random():.4f},x{rng.integers(0, 4)},z{rng.integers(0, 2)},"
            f"{rng.integers(1, 4)}\n" for _ in range(400)))
        flags = ["--target", target, "--similarity", "ks", "--grid-m", "4",
                 "--candidate-starts", "10", "--max-iters", "100"]
        sweep = str(tmp_path / "sweep")
        assert main(["sweep", "--input", str(sample), "--output-dir", sweep] + flags) == EXIT_OK
        assert main(["select", "--beta", "0.01", "--path-csv", f"{sweep}/path.csv",
                     "--rules-json", f"{sweep}/rules.json",
                     "--output-dir", str(tmp_path / "saved")]) == EXIT_OK
        assert main(["select", "--beta", "0.01", "--input", str(sample),
                     "--output-dir", str(tmp_path / "fresh")] + flags) == EXIT_OK
        saved = (tmp_path / "saved" / "selection.json").read_bytes()
        assert saved == (tmp_path / "fresh" / "selection.json").read_bytes()
        with open(f"{sweep}/rules.json") as fh:
            rules = json.load(fh)
        chosen = json.loads(saved)
        rule = rules["rules"][rules["lambdas"].index(chosen["chosen_lambda"])]
        assert float_bits(chosen["chosen_rule"]) == float_bits(rule)

    def test_near_equal_saved_lambdas_select_their_own_rows(self, tmp_path):
        # lambdas 0, 0.5 and 0.5000000000001 lie within 1e-12 of each other but
        # increase strictly: the last one selects its own row and rule
        rng = np.random.default_rng(7)
        sample = tmp_path / "sample.csv"
        sample.write_text("y,x,z,d\n" + "".join(
            f"{rng.random():.4f},x{rng.integers(0, 4)},z{rng.integers(0, 2)},"
            f"{rng.integers(1, 4)}\n" for _ in range(400)))
        sweep = tmp_path / "sweep"
        assert main(["sweep", "--input", str(sample), "--output-dir", str(sweep),
                     "--target", "mean", "--similarity", "ks", "--grid-m", "2"]) == EXIT_OK
        near = "0.5000000000001"
        lines = (sweep / "path.csv").read_text().splitlines(keepends=True)
        assert lines[3].startswith("1.0,")
        lines[3] = near + lines[3][len("1.0"):]
        (sweep / "path.csv").write_text("".join(lines))
        rules = json.loads((sweep / "rules.json").read_text())
        rules["lambdas"][2] = float(near)
        (sweep / "rules.json").write_text(json.dumps(rules, indent=2))
        assert float_bits(rules["rules"][2]) != float_bits(rules["rules"][1])
        assert main(["select", "--beta", "1", "--path-csv", str(sweep / "path.csv"),
                     "--rules-json", str(sweep / "rules.json"),
                     "--output-dir", str(tmp_path / "o")]) == EXIT_OK
        doc = json.loads((tmp_path / "o" / "selection.json").read_text())
        targets = [float(row["target_value"])
                   for row in csv.DictReader(io.StringIO("".join(lines)))]
        assert doc["chosen_lambda"] == float(near)
        assert doc["deltas"][2] == {"lambda": float(near), "delta": targets[0] - targets[2]}
        assert float_bits(doc["chosen_rule"]) == float_bits(rules["rules"][2])


def float_bits(rows) -> list:
    return [[v.hex() for v in row] for row in rows]


def raised(fn, *args):
    """fn(*args), or the (type, message) of the error it raises."""
    try:
        return fn(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def rule_entries(draw):
    """(value, (|X|, K)): nested lists as a rules.json rule may hold them,
    near the simplex's edges: signed zeros, entries just below 0, row sums
    off by up to 1e-9 (and a little more), ints, and now and then a
    non-finite entry, another shape or ragged nesting."""
    nx = draw(st.integers(1, 3))
    k = draw(st.integers(2, 12) | st.integers(129, 300))
    rows = []
    for _ in range(nx):
        kind = draw(st.sampled_from(["normalized", "ints", "edge"]))
        if kind == "ints":
            row = [0] * k
            for j in draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2)):
                row[j] += 1
        else:
            weights = draw(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5]),
                                    min_size=k, max_size=k))
            total = sum(weights)
            row = [w / total for w in weights] if total > 0 else [1.0] + [0.0] * (k - 1)
        if kind == "edge":
            for _ in range(draw(st.integers(1, 4))):
                j = draw(st.integers(0, k - 1))
                row[j] = draw(st.sampled_from([-0.0, -1e-9, -5e-10, 1e-9])
                              | st.floats(-1.2e-9, 0.0, exclude_max=True)
                              | st.floats(-1.2e-9, 1.2e-9).map(lambda d, v=row[j]: v + d))
            if draw(st.integers(0, 30)) == 0:
                row[draw(st.integers(0, k - 1))] = draw(st.sampled_from(
                    [float("nan"), float("inf"), -float("inf"), 1e308]))
        rows.append(row)
    shape = draw(st.sampled_from([(nx, k)] * 8 + [(nx + 1, k), (nx, k + 1)]))
    nesting = draw(st.sampled_from(["kept"] * 8 + ["short-row", "nested-entry", "flat"]))
    if nesting == "short-row":
        rows[-1].pop()
    elif nesting == "nested-entry":
        rows[-1][0] = [rows[-1][0]]
    elif nesting == "flat":
        rows = rows[0]
    return rows, shape


def sum_order_decides(rows) -> bool:
    """Whether numpy's row sums (of the entries clamped at 0) and the builtin
    sums lie on opposite sides of the simplex tolerance for some row."""
    from fairpolicy.objective import SIMPLEX_TOL

    try:
        probs = np.maximum(np.array(rows, dtype=float), 0.0)
    except (OverflowError, ValueError):
        return False
    return probs.ndim == 2 and any(
        (abs(total - 1.0) > SIMPLEX_TOL) != (abs(sum(row) - 1.0) > SIMPLEX_TOL)
        for total, row in zip(probs.sum(axis=1).tolist(), probs.tolist()))


class TestRuleRows:
    """select's numpy-free rule check against DecisionRule itself."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(rule_entries())
    def test_accepts_what_decision_rule_accepts(self, entries):
        from fairpolicy import DecisionRule

        rows, shape = entries
        # the two checks add a row in different orders: at the tolerance's
        # edge that order alone may decide
        assume(not sum_order_decides(rows))
        space = CovariateSpace(tuple(f"x{i}" for i in range(shape[0])), ("z",), shape[1])
        want = raised(lambda: DecisionRule(space, np.array(rows, dtype=float)))
        got = raised(savedpath.rule_rows, rows, shape)
        if isinstance(want, tuple):
            assert isinstance(got, tuple) and got[0] is want[0]
        else:
            clamped = [[0.0 if v <= 0 else min(float(v), 1.0) for v in row] for row in rows]
            assert float_bits(got) == float_bits(clamped)

    def test_tolerance_is_the_rules(self):
        from fairpolicy.objective import SIMPLEX_TOL

        assert savedpath.SIMPLEX_TOL == SIMPLEX_TOL


class TestSimulate:
    def test_row_counts_and_aggregate(self, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["simulate", "--sample-sizes", "100", "--mechanisms", "A1,A2",
                   "--grid-m", "4", "--replications", "2", "--seed", "3",
                   "--output-dir", out])
        assert rc == EXIT_OK
        lines = Path(os.path.join(out, "replications.csv")).read_text().strip().splitlines()
        assert len(lines) - 1 == 2 * 2 * 5  # mechanisms x replications x grid points
        agg = Path(os.path.join(out, "aggregate.csv")).read_text().strip().splitlines()
        assert len(agg) - 1 == 2 * 5
        header = agg[0].split(",")
        mean_idx = header.index("mean_regret")
        for line in agg[1:]:
            assert float(line.split(",")[mean_idx]) >= 0.0

    def test_byte_identical_given_seed(self, tmp_path):
        outs = [str(tmp_path / f"o{i}") for i in (1, 2)]
        for out in outs:
            main(["simulate", "--sample-sizes", "100", "--mechanisms", "A1",
                  "--grid-m", "1", "--replications", "2", "--seed", "8",
                  "--output-dir", out])
        for name in ("replications.csv", "aggregate.csv"):
            with open(os.path.join(outs[0], name), "rb") as f1, \
                 open(os.path.join(outs[1], name), "rb") as f2:
                assert f1.read() == f2.read()

    def test_regret_decreases_on_n_ladder(self, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["simulate", "--sample-sizes", "100,1000", "--mechanisms", "A1",
                   "--grid-m", "1", "--replications", "8", "--seed", "5",
                   "--output-dir", out])
        assert rc == EXIT_OK
        lines = Path(os.path.join(out, "aggregate.csv")).read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        # At lambda = 0 the toy argmax delta = 0 is recovered exactly at every n,
        # so regret is zero by construction there; lambda = 1 is not degenerate.
        at_one = {row[0]: float(row[header.index("mean_regret")])
                  for row in rows if row[header.index("lambda")] == "1.0"}
        assert at_one["100"] > at_one["1000"]


    def test_outputs_do_not_depend_on_cpu_count(self, tmp_path, monkeypatch):
        outs = {}
        for workers in (1, 3):
            monkeypatch.setattr("fairpolicy.simharness.usable_cpus", lambda: workers)
            outs[workers] = tmp_path / f"w{workers}"
            rc = main(["simulate", "--sample-sizes", "100,200", "--mechanisms", "A1,A2",
                       "--grid-m", "2", "--replications", "2", "--seed", "4",
                       "--output-dir", str(outs[workers])])
            assert rc == EXIT_OK
        for name in ("replications.csv", "aggregate.csv"):
            assert (outs[1] / name).read_bytes() == (outs[3] / name).read_bytes()

    def test_optimizer_failure_in_a_worker_exit_4(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("fairpolicy.objective.AtomKernel.value", lambda *args: float("nan"))
        monkeypatch.setattr("fairpolicy.simharness.usable_cpus", lambda: 3)
        rc = main(["simulate", "--sample-sizes", "100", "--mechanisms", "A1,A2",
                   "--grid-m", "1", "--replications", "2", "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_OPTIMIZER
        assert capsys.readouterr().err == "optimizer error: objective returned nan\n"

    @pytest.mark.parametrize("workers", [1, 3])
    def test_memory_error_in_a_worker_exit_5(self, tmp_path, monkeypatch, capsys, workers):
        # raised by a patch: a host that overcommits memory may grant a real allocation
        def no_memory(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr("fairpolicy.simharness.toy_sample", no_memory)
        monkeypatch.setattr("fairpolicy.simharness.usable_cpus", lambda: workers)
        rc = main(["simulate", "--sample-sizes", "100", "--mechanisms", "A1,A2",
                   "--grid-m", "1", "--replications", "2", "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: out of memory: Unable to allocate 7.28 TiB for an array\n"
        )

    def test_worker_that_dies_exit_5(self, tmp_path, monkeypatch, capsys):
        caller = os.getpid()

        def dies_in_the_child(*args):
            if os.getpid() != caller:
                os._exit(3)
            raise AssertionError("the replication ran in the command process")

        monkeypatch.setattr("fairpolicy.simharness.toy_sample", dies_in_the_child)
        monkeypatch.setattr("fairpolicy.simharness.usable_cpus", lambda: 2)
        rc = main(["simulate", "--sample-sizes", "100", "--mechanisms", "A1,A2",
                   "--grid-m", "1", "--replications", "2", "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: worker 0 exited with status 3 without sending its results\n"
        )
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("flags, error", [
        (["--sample-sizes", "100,100"], "--sample-sizes lists 100 twice"),
        (["--mechanisms", "A1,A2,A1"], "--mechanisms lists 'A1' twice"),
        (["--sample-sizes", "abc"], "--sample-sizes must list integers, got 'abc'"),
        (["--sample-sizes", "-5"], "--sample-sizes must be >= 1, got -5"),
        (["--mechanisms", "A3"], "--mechanisms must list A1 or A2, got 'A3'"),
        (["--replications", "0"], "--replications must be >= 1, got 0"),
        (["--grid-m", "0"], "--grid-m must be >= 1, got 0"),
        (["--p", "0.5"], "--p must lie in (1/2, 1), got 0.5"),
        # once "must list integers": int() reads no more than 4300 digits
        (["--sample-sizes", LONG], f"--sample-sizes must be <= {2**53}, got {SHOWN}"),
        (["--sample-sizes", f"100,-{LONG}"],
         f"--sample-sizes must be >= 1, got -{SHOWN[:39]}... (5001 characters)"),
        (["--replications", LONG], f"--replications must be <= {2**53}, got {SHOWN}"),
        (["--grid-m", LONG], f"--grid-m must be <= {2**53}, got {SHOWN}"),
    ])
    def test_bad_config_exit_5(self, tmp_path, capsys, flags, error):
        rc = main(["simulate", "--output-dir", str(tmp_path / "o"), "--grid-m", "1",
                   "--replications", "1"] + flags)
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {error}\n"

    @pytest.mark.parametrize("replications, workers", [(1, 1), (2, 2)],
                             ids=["in-process", "forked"])
    @pytest.mark.parametrize("size", [10**23, 2**61])
    def test_size_beyond_an_array_exit_5(self, tmp_path, capsys, monkeypatch, size,
                                         replications, workers):
        # numpy refuses arrays of 2**60 float64s and more with ValueError (once an
        # exit 1, from a worker too), so these sizes never allocate
        monkeypatch.setattr("fairpolicy.simharness.usable_cpus", lambda: workers)
        rc = main(["simulate", "--sample-sizes", str(size), "--mechanisms", "A1",
                   "--grid-m", "1", "--replications", str(replications),
                   "--output-dir", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: --sample-sizes must be <= {2**53}, got {size}\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestOutputPaths:
    """An output path that cannot be written exits 5 with one line."""

    @pytest.mark.parametrize("command, below", [("fit", ""), ("sweep", "sub")],
                             ids=["dir-is-a-file", "dir-through-a-file"])
    def test_output_dir_blocked_by_a_file(self, toy_csv, tmp_path, capsys, command, below):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / below if below else blocker
        rc = main([command, "--input", toy_csv, "--output-dir", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory {out}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, name", [
        (["fit", "--input", "{csv}"], "fitted_array.json"),
        (["simulate", "--sample-sizes", "50", "--mechanisms", "A1", "--grid-m", "1",
          "--replications", "1"], "replications.csv"),
    ], ids=["fit", "simulate"])
    def test_output_name_that_is_a_directory(self, toy_csv, tmp_path, capsys, command, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        rc = main([arg.format(csv=toy_csv) for arg in command] + ["--output-dir", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out / name}: ")
        assert err.count("\n") == 1
        assert os.listdir(out) == [name]  # the temp file is removed


class TestNulByteInAConfigPath:
    """A NUL byte in a path reaches a command only through a config file (an
    argv cannot hold one): it exits 5 with one line, leaving no temp file and
    no child."""

    @pytest.mark.parametrize("command, key, cpus", [
        ("fit", "input", 1),
        ("fit", "input", 2),  # read in a forked child
        ("sweep", "output-dir", 1),
        ("simulate", "output-dir", 1),
        ("select", "path-csv", 1),
    ], ids=["fit-in-process", "fit-forked", "sweep", "simulate", "select"])
    def test_exit_5_with_one_line(self, toy_csv, tmp_path, capsys, monkeypatch, command, key,
                                  cpus):
        monkeypatch.setattr(fairpolicy.forking, "usable_cpus", lambda: cpus)
        rules_json = tmp_path / "rules.json"
        rules_json.write_text(json.dumps({"n": 100, "x_levels": ["x0"], "k": 2,
                                          "lambdas": [0.0], "rules": [[[0.4, 0.6]]]}))
        bad = str(tmp_path / "a\0b")
        config = tmp_path / "c.cfg"
        config.write_text(f"{key}={bad}\n")
        flags = {
            "fit": ["--output-dir", str(tmp_path / "o")],
            "sweep": ["--input", toy_csv],
            "simulate": ["--sample-sizes", "20", "--replications", "1", "--grid-m", "1"],
            "select": ["--beta", "0.1", "--rules-json", str(rules_json),
                       "--output-dir", str(tmp_path / "o")],
        }[command]
        assert main([command, "--config", str(config)] + flags) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert err.endswith(f"{bad}: embedded null byte\n")
        assert list(tmp_path.rglob("*.tmp")) == []
        with pytest.raises(ChildProcessError):  # no child is left, running or not
            os.waitpid(-1, os.WNOHANG)


class TestOracleCheck:
    def test_passes(self, capsys):
        assert main(["oracle-check", "--grid-points", "800"]) == EXIT_OK
        err = capsys.readouterr().err
        assert "[ok]" in err and "[FAIL]" not in err

    def test_perturbed_constant_fails(self, capsys):
        stream = io.StringIO()
        assert oracle_check(grid_points=800, perturb=0.2, stream=stream) == EXIT_SELFTEST
        assert "[FAIL] objective agreement on 21x5 grid" in stream.getvalue()
        # the perturbation is not a command-line flag
        assert main(["oracle-check", "--self-test-perturb", "0.2"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unrecognized arguments: --self-test-perturb" in err and err.count("\n") == 1


    @pytest.mark.parametrize("flags, message", [
        (["--grid-points", "0"], "--grid-points must be >= 2, got 0"),
        (["--p", "2"], "--p must lie in (1/2, 1), got 2.0"),
        (["--p", "0"], "--p must lie in (1/2, 1), got 0.0"),
        # numpy refused it with ValueError, once an exit 1
        (["--grid-points", str(10**23)], f"--grid-points must be <= {2**53}, got {10**23}"),
        # it draws nothing at random and writes no file
        (["--seed", "1"], "unrecognized arguments: --seed 1"),
        (["--output-dir", "d"], "unrecognized arguments: --output-dir d"),
        (["--grid-points", LONG], f"--grid-points must be <= {2**53}, got {SHOWN}"),
        (["--grid-points", "x" + LONG], f"argument --grid-points: invalid int value: "
                                        f"'x{SHOWN[:39]}'... (5001 characters)"),
    ])
    def test_bad_config_exit_5(self, capsys, flags, message):
        assert main(["oracle-check"] + flags) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_argmax_checks_run_the_plug_in_program(self, monkeypatch, capsys):
        # the solver simulate runs on the toy, not Nelder-Mead
        runs = []
        maximize = PluginProgram.maximize
        monkeypatch.setattr(PluginProgram, "maximize",
                            lambda self, lam: runs.append(lam) or maximize(self, lam))
        assert main(["oracle-check", "--grid-points", "50"]) == EXIT_OK
        assert len(runs) == 2
        assert "[FAIL]" not in capsys.readouterr().err


class TestConfigFile:
    def test_config_file_with_flag_override(self, toy_csv, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            f"input={toy_csv}\ngrid_m=1\nseed=6\ncandidate-starts=10\nmax-iters=80\n"
        )
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert main(["sweep", "--config", str(cfg), "--output-dir", out1]) == EXIT_OK
        # flag after --config overrides the file's seed; grid stays from the file
        assert main(["sweep", "--config", str(cfg), "--output-dir", out2,
                     "--seed", "6"]) == EXIT_OK
        with open(os.path.join(out1, "path.csv"), "rb") as f1, \
             open(os.path.join(out2, "path.csv"), "rb") as f2:
            assert f1.read() == f2.read()

    def test_config_file_with_byte_order_mark_reads_as_without(self, toy_csv, tmp_path):
        text = f"grid-m=2\ninput={toy_csv}\nseed=3\n"
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            (tmp_path / f"{name}.cfg").write_bytes(prefix + text.encode())
            assert main(["sweep", "--config", str(tmp_path / f"{name}.cfg"),
                         "--output-dir", str(tmp_path / name)]) == EXIT_OK
        for output in ("path.csv", "rules.json"):
            assert ((tmp_path / "bom" / output).read_bytes()
                    == (tmp_path / "plain" / output).read_bytes())

    def test_bad_config_line_exit_5(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a pair\n")
        assert main(["fit", "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("flags, error", [
        (["--config", "{b}", "--config", "{a}"], "config error: --config given more than once\n"),
        (["--config={a}", "--config={b}"], "config error: --config given more than once\n"),
        (["--config", "{a}"], "config error: {a}: line 2: a config file cannot name another\n"),
        (["--conf", "{b}"], "config error: --config must be given in full, not abbreviated\n"),
    ], ids=["twice", "twice-inline", "nested", "abbreviated"])
    def test_every_config_file_is_read_or_refused(self, toy_csv, tmp_path, capsys, flags, error):
        a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
        a.write_text("grid_m=1\nconfig = b.cfg\n")
        b.write_text(f"input={toy_csv}\n")
        argv = [flag.format(a=a, b=b) for flag in flags]
        assert main(["sweep", "--output-dir", str(tmp_path / "o")] + argv) == EXIT_CONFIG
        assert capsys.readouterr().err == error.format(a=a)
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, error", [
    (["sweep", "--grid-m", "abc"], "argument --grid-m: invalid int value: 'abc'"),
    (["sweep", "--estimator", "ipw"], "argument --estimator: invalid choice: 'ipw'"),
    (["fit", "--bogus"], "unrecognized arguments: --bogus"),
    (["fit", "--support", "0"], "argument --support: expected 2 arguments"),
    ([], "the following arguments are required: command"),
    ([LONG], f"argument command: invalid choice: '{SHOWN[:40]}'{SHOWN[40:]} (choose from "),
    (["fit", "--support", LONG + "x", "1"],
     f"argument --support: invalid float value: '{SHOWN[:40]}'... (5001 characters)"),
], ids=["bad-int", "bad-choice", "unknown", "too-few-values", "no-command", "long-command",
        "long-float"])
def test_flag_errors_exit_5_with_one_line(capsys, argv, error):
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {error}") and err.count("\n") == 1


def fit_with_support(toy_csv, tmp_path, a: str, in_config: bool):
    """(exit code, fitted_array.json bytes or None) of fit on support [a, 1],
    given as flags or in a config file."""
    out = tmp_path / f"{a}-{in_config}"
    flags = ["--support", a, "1"]
    if in_config:
        config = tmp_path / f"{a}.cfg"
        config.write_text(f"support={a} 1\n")
        flags = ["--config", str(config)]
    code = main(["fit", "--input", toy_csv, "--output-dir", str(out)] + flags)
    path = out / "fitted_array.json"
    return code, path.read_bytes() if path.exists() else None


@pytest.mark.parametrize("in_config", [False, True], ids=["argv", "config"])
def test_negative_numbers_in_exponent_notation_are_flag_values(toy_csv, tmp_path, capsys,
                                                                in_config):
    # argparse's own pattern takes -0.001 for a value, but -1e-3 and -inf for flags
    code, fitted = fit_with_support(toy_csv, tmp_path, "-1e-3", in_config)
    assert code == EXIT_OK
    assert fitted == fit_with_support(toy_csv, tmp_path, "-0.001", in_config)[1]
    capsys.readouterr()
    assert fit_with_support(toy_csv, tmp_path, "-inf", in_config) == (EXIT_CONFIG, None)
    assert capsys.readouterr().err == (
        "config error: support endpoints must be finite, got [-inf, 1.0]\n")


@pytest.mark.parametrize("command", ["fit", "sweep", "select", "simulate", "oracle-check"])
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: fairpolicy {command}")


def test_cli_import_leaves_scipy_unloaded(toy_csv, tmp_path):
    # scipy.optimize alone costs about 0.5 s of every command's start-up, and
    # no command imports multiprocessing; a sweep run by Nelder-Mead does not
    # import fairpolicy.lp, which a Gini-welfare sweep (minorize-maximize)
    # and a mean one (a linear program) need; numpy.ma (about 12 ms) is
    # needed by none of the three
    packages = ("scipy", "multiprocessing", "numpy.ma")
    src = os.path.dirname(os.path.dirname(fairpolicy.__file__))

    def sweep_argv(out, *objective):
        return ["sweep", "--input", toy_csv, "--output-dir", str(tmp_path / out),
                "--grid-m", "2", *objective]

    quantile = sweep_argv("q", "--target", "quantile:0.5", "--max-iters", "20")
    gini = sweep_argv("g", "--target", "gini-welfare", "--similarity", "ks")
    argv = sweep_argv("o", "--target", "mean", "--similarity", "ks")
    code = ("import fairpolicy.cli, sys; "
            f"assert fairpolicy.cli.main({quantile!r}) == 0; "
            "assert 'fairpolicy.lp' not in sys.modules; "
            f"assert fairpolicy.cli.main({gini!r}) == 0; "
            "assert 'fairpolicy.lp' in sys.modules; "
            f"assert fairpolicy.cli.main({argv!r}) == 0; "
            f"print(sorted(m for m in sys.modules "
            f"if any(m == p or m.startswith(p + '.') for p in {packages!r})))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def modules_after(argv):
    """The modules in sys.modules after cli.main(argv) in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(fairpolicy.__file__))
    code = ("import fairpolicy.cli, sys; "
            f"assert fairpolicy.cli.main({argv!r}) == 0; "
            "print(' '.join(sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # without a bytecode cache every module a command imports is compiled
    sample = tmp_path / "s.csv"
    sample.write_text("y,x,z,d\n0.1,a,u,1\n0.5,b,v,2\n0.9,a,v,1\n")
    path_csv, rules_json = tmp_path / "path.csv", tmp_path / "rules.json"
    path_csv.write_text("lambda,obj_value,target_value,unfair_z0,max_unfairness\n"
                        "0.0,0.5,0.5,0.0,0.0\n")
    rules_json.write_text(json.dumps({"n": 100, "x_levels": ["x0"], "k": 2,
                                      "lambdas": [0.0], "rules": [[[0.4, 0.6]]]}))
    fit = modules_after(["fit", "--input", str(sample), "--output-dir", str(tmp_path / "f")])
    select = modules_after(["select", "--beta", "0.1", "--path-csv", str(path_csv),
                            "--rules-json", str(rules_json), "--output-dir", str(tmp_path / "s")])
    solvers = {f"fairpolicy.{m}" for m in ("lp", "optimizer", "simharness", "toy")}
    commands = {f"fairpolicy.{m}" for m in ("simulate", "oraclecheck")}
    assert {"fairpolicy.estimation", "fairpolicy.forking", "fairpolicy.columns"} <= fit
    assert not fit & (solvers | commands | {"fairpolicy.selection", "fairpolicy.functionals",
                                            "fairpolicy.savedpath"})
    assert {"fairpolicy.selection", "fairpolicy.savedpath"} <= select
    assert not select & (solvers | commands | {"fairpolicy.estimation", "fairpolicy.forking",
                                               "fairpolicy.columns"})
    # select on a saved path is pure Python: numpy alone costs about 40 ms to import
    assert not select & {"numpy", "fairpolicy.objective", "fairpolicy.distributions",
                         "fairpolicy.functionals"}


def test_only_the_sweeps_nelder_mead_solves_load_the_optimizer(toy_csv, tmp_path):
    # every other command runs the plug-in program or no solver at all
    def out(name):
        return ["--output-dir", str(tmp_path / name)]

    never = {}
    for target in ("mean", "gini-welfare"):
        for similarity in ("ks", "one-sided-ks", "abs-target-diff:mean"):
            never[f"sweep {target} {similarity}"] = [
                "sweep", "--input", toy_csv, "--target", target, "--similarity", similarity,
                "--grid-m", "2"] + out(target + similarity)
    saved = tmp_path / "meanks"
    never.update({
        "select saved": ["select", "--beta", "0.01", "--path-csv", str(saved / "path.csv"),
                         "--rules-json", str(saved / "rules.json")] + out("saved"),
        "select input": ["select", "--beta", "0.01", "--input", toy_csv, "--grid-m", "1"]
        + out("input"),
        "simulate": ["simulate", "--sample-sizes", "50", "--mechanisms", "A1", "--grid-m", "1",
                     "--replications", "1"] + out("simulate"),
        "oracle-check": ["oracle-check", "--grid-points", "50"],
    })
    loaded = {name: modules_after(argv) for name, argv in never.items()}  # sweeps first
    assert [name for name, modules in loaded.items() if "fairpolicy.optimizer" in modules] == []
    quantile = modules_after(["sweep", "--input", toy_csv, "--target", "quantile:0.5",
                              "--grid-m", "1", "--max-iters", "20"] + out("quantile"))
    assert "fairpolicy.optimizer" in quantile and "fairpolicy.lp" not in quantile


def test_no_command_imports_dataclasses(toy_csv, tmp_path):
    # @dataclass builds each class's methods by exec at import, about 0.9 ms a
    # class, and dataclasses imports inspect, ast, dis and tokenize (about
    # 9.5 ms) without a bytecode cache; numpy imports inspect itself
    def out(name):
        return ["--output-dir", str(tmp_path / name)]

    sweep = ["sweep", "--input", toy_csv, "--grid-m", "2"]
    run = {
        "fit": ["fit", "--input", toy_csv] + out("fit"),
        "sweep lp": sweep + ["--target", "mean", "--similarity", "ks"] + out("lp"),
        "sweep nelder-mead": sweep + ["--target", "quantile:0.5", "--max-iters", "20"]
        + out("nm"),
        "select saved": ["select", "--beta", "0.01", "--path-csv", str(tmp_path / "lp/path.csv"),
                         "--rules-json", str(tmp_path / "lp/rules.json")] + out("saved"),
        "select input": ["select", "--beta", "0.01", "--input", toy_csv, "--target", "mean",
                         "--grid-m", "1"] + out("input"),
        "simulate": ["simulate", "--sample-sizes", "50", "--mechanisms", "A1", "--grid-m", "1",
                     "--replications", "2"] + out("simulate"),
        "oracle-check": ["oracle-check", "--grid-points", "50"],
    }
    loaded = {name: modules_after(argv) for name, argv in run.items()}  # in order: lp first
    assert [name for name, modules in loaded.items() if "dataclasses" in modules] == []
    assert "inspect" not in loaded["select saved"]


def test_simulate_leaves_numpy_ma_unloaded(tmp_path):
    # np.median's NaN check imports numpy.ma, about 15 ms of start-up, and
    # the workers are plain forks: multiprocessing costs about 10 ms to import
    loaded = modules_after(["simulate", "--sample-sizes", "50", "--mechanisms", "A1",
                            "--grid-m", "1", "--replications", "2", "--seed", "1",
                            "--output-dir", str(tmp_path / "o")])
    assert "fairpolicy.simharness" in loaded
    assert "numpy.ma" not in loaded
    assert not {m for m in loaded if m.split(".")[0] == "multiprocessing"}


def threads_after_sweep(toy_csv, out, **env):
    """(threads, {BLAS thread variable: value or None}) after cli.main runs a
    mean + KS sweep in a fresh interpreter given env and none of the
    variables otherwise."""
    src = os.path.dirname(os.path.dirname(fairpolicy.__file__))
    argv = ["sweep", "--input", toy_csv, "--target", "mean", "--similarity", "ks",
            "--grid-m", "2", "--output-dir", out]
    code = ("import fairpolicy.cli, json, os; "
            f"assert fairpolicy.cli.main({argv!r}) == 0; "
            "print(json.dumps([len(os.listdir('/proc/self/task')), "
            f"{{v: os.environ.get(v) for v in {cli.BLAS_THREAD_VARS!r}}}]))")
    base = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARS}
    out = subprocess.run([sys.executable, "-c", code], env=dict(base, PYTHONPATH=src, **env),
                         capture_output=True, text=True, check=True).stdout
    return tuple(json.loads(out))


needs_proc_tasks = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                      reason="no /proc/self/task to count threads")


@needs_proc_tasks
def test_commands_run_blas_on_one_thread(toy_csv, tmp_path):
    # an idle OpenBLAS thread spins beside fit's reader, and threaded LAPACK
    # moves the last bits of a wide sweep with the CPU count
    threads, env = threads_after_sweep(toy_csv, str(tmp_path / "o"))
    assert threads == 1
    assert env == dict.fromkeys(cli.BLAS_THREAD_VARS, "1")


@needs_proc_tasks
def test_caller_blas_thread_setting_is_kept(toy_csv, tmp_path):
    _, env = threads_after_sweep(toy_csv, str(tmp_path / "o"), OPENBLAS_NUM_THREADS="2")
    assert env == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": None,
                   "MKL_NUM_THREADS": None}


def test_main_with_numpy_loaded_leaves_environ_unchanged(toy_csv, tmp_path, monkeypatch):
    for name in cli.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    before = dict(os.environ)
    assert "numpy" in sys.modules
    assert main(["fit", "--input", toy_csv, "--output-dir", str(tmp_path / "o")]) == EXIT_OK
    assert dict(os.environ) == before


@pytest.mark.parametrize("command, bad_file, error", [
    (["fit", "--input", "{bad}"], "s.csv", "parse error: {bad}: "),
    (["select", "--beta", "1", "--path-csv", "{bad}", "--rules-json", "{good}"], "path.csv",
     "parse error: {bad}: "),
    (["select", "--beta", "1", "--path-csv", "{good}", "--rules-json", "{bad}"], "rules.json",
     "parse error: {bad}: "),
    (["fit", "--input", "{good}", "--config", "{bad}"], "f.cfg", "config error: config {bad}: "),
], ids=["sample", "path-csv", "rules-json", "config"])
def test_non_utf8_input_is_a_one_line_error(tmp_path, capsys, command, bad_file, error):
    bad, good = tmp_path / bad_file, tmp_path / "good.txt"
    bad.write_bytes("y,x,z,d\n0.5,\xe9,u,1\n".encode("latin-1"))
    good.write_text("{}")  # read only as the rules.json of the path-csv case
    argv = [arg.format(bad=bad, good=good) for arg in command]
    rc = main(argv + ["--output-dir", str(tmp_path / "o")])
    assert rc == (EXIT_CONFIG if bad_file == "f.cfg" else EXIT_PARSE)
    assert capsys.readouterr().err == (
        error.format(bad=bad) + "not UTF-8 text (invalid continuation byte)\n"
    )


def test_outputs_are_utf8_under_an_ascii_locale(tmp_path):
    sample = tmp_path / "s.csv"
    sample.write_text("y,x,z,d\n0.1,a,u,1\n0.5,b,z\u00e9,2\n0.9,a,z\u00e9,1\n"
                      "0.3,b,u,2\n0.7,a,u,2\n0.2,b,z\u00e9,1\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(fairpolicy.__file__))
    locales = {"ascii": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
               "utf8": {"PYTHONUTF8": "1"}}
    for name, overrides in locales.items():
        out = str(tmp_path / name)
        env = dict(os.environ, PYTHONPATH=src, **overrides)
        for argv in (["sweep", "--input", str(sample), "--grid-m", "2"],
                     ["select", "--beta", "0.1", "--path-csv", f"{out}/path.csv",
                      "--rules-json", f"{out}/rules.json"]):
            done = subprocess.run([sys.executable, "-m", "fairpolicy.cli", *argv,
                                   "--output-dir", out], env=env, capture_output=True)
            assert done.returncode == 0, done.stderr
        assert not [f for f in os.listdir(out) if f.endswith(".tmp")]
    ascii_path = (tmp_path / "ascii" / "path.csv").read_bytes()
    assert "unfair_z\u00e9".encode() in ascii_path
    assert ascii_path == (tmp_path / "utf8" / "path.csv").read_bytes()


@pytest.mark.parametrize("command", [
    ["fit"],
    ["sweep", "--grid-m", "1"],
    ["select", "--beta", "0.1", "--grid-m", "1"],
], ids=["fit", "sweep", "select"])
def test_field_beyond_csv_limit_is_a_one_line_parse_error(tmp_path, capsys, command):
    path = tmp_path / "s.csv"
    path.write_text("y,x,z,d\n0.5,a,u,1\n0." + "5" * (csv.field_size_limit() + 1) + ",a,u,2\n")
    rc = main(command + ["--input", str(path), "--output-dir", str(tmp_path / "o")])
    assert rc == EXIT_PARSE
    assert capsys.readouterr().err == (
        f"parse error: {path}: field larger than field limit ({csv.field_size_limit()})\n"
    )


@pytest.mark.parametrize("command", [["fit"], ["sweep", "--grid-m", "1"]], ids=["fit", "sweep"])
@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 2.91 TiB"), "out of memory: Unable to allocate 2.91 TiB"),
    (MemoryError(), "out of memory"),
], ids=["numpy", "bare"])
def test_memory_error_is_a_one_line_config_error(toy_csv, tmp_path, capsys, monkeypatch,
                                                 command, error, line):
    # raised by a patch: a host that overcommits memory may grant a real allocation
    def no_memory(sample):
        raise error

    monkeypatch.setattr("fairpolicy.estimation.fit_plugin", no_memory)
    rc = main(command + ["--input", toy_csv, "--output-dir", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {line}\n"


@pytest.mark.parametrize("command", [["sweep"], ["select", "--beta", "0.01"]],
                         ids=["sweep", "select"])
@pytest.mark.parametrize("error, line", [
    (np.linalg.LinAlgError("Singular matrix"), "Singular matrix"),
    (Unbounded("column 3 can grow without bound"), "column 3 can grow without bound"),
], ids=["singular-basis", "unbounded"])
def test_solver_error_is_a_one_line_optimizer_error(toy_csv, tmp_path, capsys, monkeypatch,
                                                    command, error, line):
    def fails(*args):
        raise error

    monkeypatch.setattr("fairpolicy.lp.simplex", fails)
    rc = main(command + ["--target", "mean", "--grid-m", "1", "--input", toy_csv,
                         "--output-dir", str(tmp_path / "o")])
    assert rc == EXIT_OPTIMIZER
    assert capsys.readouterr().err == f"optimizer error: {line}\n"


PATH_HEADER = "lambda,obj_value,target_value,unfair_z0,max_unfairness"


@pytest.mark.parametrize("header, row", [
    ("lambda,obj_value,target_value,unfair_{long},max_unfairness", "0.0,0.5,0.5,0.0,0.0"),
    (PATH_HEADER, "0.{long},0.5,0.5,0.0,0.0"),
    (PATH_HEADER, "0.0,0.5,0.5,0.0,0.{long}"),
    (PATH_HEADER, '0.0,0.5,0.5,"0.\n{long}",0.0'),
], ids=["header", "first-field", "last-field", "quoted-across-lines"])
def test_path_csv_field_beyond_csv_limit_is_a_one_line_parse_error(tmp_path, capsys, header, row):
    path, rules = tmp_path / "path.csv", tmp_path / "rules.json"
    long = "5" * (csv.field_size_limit() + 1)
    path.write_text((header + "\n" + row + "\n").format(long=long))
    rules.write_text('{"n": 100, "x_levels": ["x0"], "k": 2, "lambdas": [0.0], '
                     '"rules": [[[0.4, 0.6]]]}')
    rc = main(["select", "--beta", "0.1", "--path-csv", str(path), "--rules-json", str(rules),
               "--output-dir", str(tmp_path / "o")])
    assert rc == EXIT_PARSE
    assert capsys.readouterr().err == (
        f"parse error: {path}: field larger than field limit ({csv.field_size_limit()})\n"
    )


def test_output_written_from_pieces_keeps_its_bytes(tmp_path):
    text = "".join(random.Random(3).choice(["a", "\n", "\r\n", "é", "€", "𝔷"])
                   for _ in range(5000))
    whole = tmp_path / "whole.txt"
    with open(whole, "w", newline="") as fh:
        fh.write(text)
    for cut in (1, 7, 4096):
        cli._atomic_write(str(tmp_path / "pieces.txt"),
                          *(text[at:at + cut] for at in range(0, len(text), cut)))
        assert (tmp_path / "pieces.txt").read_bytes() == whole.read_bytes()


class TestOptimizerFlagsIgnored:
    """Gini-welfare sweeps with a linear penalty solve by minorize-maximize:
    the optimizer flags and seed leave their outputs alone."""

    FLAGS = [[], ["--seed", "5", "--restarts", "2", "--candidate-starts", "3",
                  "--max-iters", "2", "--ftol", "0.5"]]

    def test_sweep(self, toy_csv, tmp_path):
        outs = []
        for j, flags in enumerate(self.FLAGS):
            outs.append(tmp_path / str(j))
            assert main(["sweep", "--input", toy_csv, "--output-dir", str(outs[-1]),
                         "--grid-m", "3", "--similarity", "one-sided-ks"] + flags) == EXIT_OK
        for name in ("path.csv", "rules.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
