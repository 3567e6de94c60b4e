"""Byte mutations of a sweep's saved ``path.csv`` and ``rules.json``, run
through `select`.

As in `test_sample_fuzz.py`, each mutated pair must end in a documented
exit code: 0, or 2 to 5 with one stderr line that names its kind, no temp
file left in the output directory and no child left unreaped.  The run is
derandomized; the explicit examples put each inserted piece into a number,
a label, a line end, the header or the nesting, which a random draw may
miss.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from fairpolicy.cli import main

PATH_CSV = (b"lambda,obj_value,target_value,unfair_z0,unfair_z1,max_unfairness\n"
            b"0.0,0.6,0.6,0.2,0.1,0.2\n"
            b"0.5,0.25,0.55,0.04,0.05,0.05\n"
            b"1.0,-0.0,0.5,0.0,0.0,0.0\n")
RULES_JSON = json.dumps({
    "n": 400,
    "x_levels": ["x0", "x1"],
    "k": 2,
    "lambdas": [0.0, 0.5, 1.0],
    "rules": [[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [0.25, 0.75]], [[0.5, 0.5], [0.5, 0.5]]],
}, indent=2).encode() + b"\n"
FILES = {"path": PATH_CSV, "rules": RULES_JSON}
PREFIXES = ("parse error: ", "schema error: ", "optimizer error: ", "config error: ")

BOM = b"\xef\xbb\xbf"
LONG_FIELD = b"9" * 140_000  # beyond csv's field limit (131,072) and int()'s digits (4,300)
INSERTS = [BOM, b"\r", b"\n", b"\x00", b'"', b",", LONG_FIELD, b"1" * 5000,
           b"1" + b"0" * 20,  # beyond int64
           b"9" * 400 + b",",  # an integer beyond the largest double, as a list entry
           b"1e999", b"-1e308", b"NaN", b"true", b"[" * 5000, b"{}", b"-"]


def at(name: str, text: bytes, offset: int = 0) -> tuple:
    """(file, offset) of the first `text` in that seed file, plus offset."""
    return name, FILES[name].index(text) + offset


files = st.sampled_from(sorted(FILES))
offsets = st.integers(0, 10**6)
flips = st.tuples(st.just("flip"), files, offsets, st.integers(1, 255))
truncations = st.tuples(st.just("truncate"), files, offsets)
duplicates = st.tuples(st.just("duplicate"), files, offsets, st.integers(1, 40))
inserts = st.tuples(st.just("insert"), files, offsets, st.sampled_from(INSERTS))
mutations = st.lists(st.one_of(flips, truncations, duplicates, inserts), min_size=1, max_size=3)


def mutate(ops) -> dict:
    """The seed files with each op applied in turn to its file, its offset
    taken modulo that file's length."""
    data = dict(FILES)
    for op, name, pos, *arg in ops:
        text = data[name]
        pos %= len(text) + 1
        if op == "flip" and pos < len(text):
            text = text[:pos] + bytes([text[pos] ^ arg[0]]) + text[pos + 1:]
        elif op == "truncate":
            text = text[:pos]
        elif op == "duplicate":
            text = text[:pos + arg[0]] + text[pos:pos + arg[0]] + text[pos + arg[0]:]
        elif op == "insert":
            text = text[:pos] + arg[0] + text[pos:]
        data[name] = text
    return data


def insert(piece: bytes, name: str, text: bytes, offset: int = 0) -> tuple:
    return ("insert", *at(name, text, offset), piece)


def test_seed_files_select_a_rule(tmp_path):
    for name, data in FILES.items():
        (tmp_path / name).write_bytes(data)
    code = main(["select", "--beta", "0.1", "--path-csv", str(tmp_path / "path"),
                 "--rules-json", str(tmp_path / "rules"), "--output-dir", str(tmp_path / "o")])
    assert code == 0
    assert json.loads((tmp_path / "o" / "selection.json").read_text())["chosen_lambda"] == 0.5


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(mutations)
@example([insert(BOM, "path", b"lambda")])
@example([insert(BOM, "rules", b"{")])
@example([insert(BOM, "path", b"0.5,0.25")])
@example([insert(b"\r", "path", b"\n0.5")])
@example([insert(b"\x00", "path", b"0.25")])
@example([insert(b'"', "path", b"0.55")])
@example([insert(b",", "path", b"0.05\n")])
@example([insert(LONG_FIELD, "path", b"0.04")])
@example([insert(LONG_FIELD, "rules", b"0.25")])
@example([insert(b"1" * 5000, "rules", b"400")])
@example([insert(b"1" + b"0" * 20, "rules", b"400")])
@example([insert(b"9" * 400 + b",", "rules", b"0.0,")])  # once exit 1: float() overflowed
@example([insert(b"9" * 400 + b",", "rules", b"0.25")])
@example([insert(b"1e999", "rules", b"0.5,")])
@example([insert(b"1e999", "path", b"0.55")])
@example([insert(b"-1e308", "path", b"0.6,0.2")])
@example([insert(b"NaN, ", "rules", b"0.25")])
@example([insert(b"true, ", "rules", b"0.25")])
@example([insert(b"[" * 5000, "rules", b"\"rules\": ", 9)])
@example([insert(b"{}", "rules", b"\"x0\"")])
@example([insert(b"-", "rules", b"0.25")])
@example([insert(b"-", "rules", b"400")])  # n < 2
@example([("truncate", *at("path", b"0.0,"))])  # the header alone
@example([("truncate", *at("rules", b"\"rules\""))])
@example([("duplicate", *at("path", b"0.5,"), 29)])  # a lambda twice
@example([("flip", *at("path", b"unfair_z1"), ord("1") ^ ord("0"))])  # a group twice
def test_mutated_saved_path_exits_by_contract(ops):
    data = mutate(ops)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in data.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(text)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["select", "--beta", "0.1", "--path-csv", os.path.join(tmp, "path"),
                         "--rules-json", os.path.join(tmp, "rules"), "--output-dir", out])
        err = err.getvalue()
        assert code in (0, 2, 3, 4, 5), (code, err)
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), err
            assert err.startswith(PREFIXES), err
        if os.path.isdir(out):
            assert not [f for f in os.listdir(out) if f.endswith(".tmp")]
        with pytest.raises(ChildProcessError):  # no child is left, running or not
            os.waitpid(-1, os.WNOHANG)
