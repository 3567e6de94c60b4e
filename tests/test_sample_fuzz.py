"""Byte mutations of a valid sample CSV, run through `fit` and `sweep`.

Each mutated file must end in a documented exit code: 0, or 2 to 5 with
one stderr line that names its kind, no temp file left in the output
directory and no child left unreaped.  The run is derandomized; the
explicit examples put each inserted piece where it meets a field, a
label, a line end or the header, which a random draw may miss.
"""

import contextlib
import io
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import fairpolicy.forking as forking
from fairpolicy.cli import main

HEADER = b"y,x,z,d\n"
ROW_BYTES = 15  # every data row is y (6 bytes), x, z and d, as "0.3700,x1,z1,2\n"
SAMPLE = HEADER + b"".join(
    b"%.4f,x%d,z%d,%d\n" % ((i * 37 % 101) / 100, i % 3, i % 2, i % 2 + 1) for i in range(20)
)
PREFIXES = ("parse error: ", "schema error: ", "optimizer error: ", "config error: ")

BOM = b"\xef\xbb\xbf"
LONG_FIELD = b"9" * 140_000  # beyond csv's field limit (131,072); as y, beyond a double
LONG_INT = b"1" * 5000  # more digits than int() converts by default (4300)
INSERTS = [BOM, b"\r", b"\x00", b'"', LONG_FIELD, LONG_INT,
           b"1" + b"0" * 20,  # a treatment index beyond int64
           b"1e999", b"-1e308", b"9" * 400]


def at(row: int, column: int) -> int:
    """Offset of byte `column` of data row `row` (both from 0) in SAMPLE."""
    return len(HEADER) + ROW_BYTES * row + column


Y, X, D, END = 0, 7, 13, 14  # columns: the first byte of y, x and d, and the newline

flips = st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255))
truncations = st.tuples(st.just("truncate"), st.integers(0, 10**6))
duplicates = st.tuples(st.just("duplicate"), st.integers(0, 10**6), st.integers(1, 40))
inserts = st.tuples(st.just("insert"), st.integers(0, 10**6), st.sampled_from(INSERTS))
mutations = st.lists(st.one_of(flips, truncations, duplicates, inserts), min_size=1, max_size=3)


def mutate(data: bytes, ops) -> bytes:
    """data with each op applied in turn, its offset taken modulo the length."""
    for op, pos, *arg in ops:
        pos %= len(data) + 1
        if op == "flip" and pos < len(data):
            data = data[:pos] + bytes([data[pos] ^ arg[0]]) + data[pos + 1:]
        elif op == "truncate":
            data = data[:pos]
        elif op == "duplicate":
            data = data[:pos + arg[0]] + data[pos:pos + arg[0]] + data[pos + arg[0]:]
        elif op == "insert":
            data = data[:pos] + arg[0] + data[pos:]
    return data


def run(argv) -> tuple:
    """(exit code, stderr) of main(argv) run in-process."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def capped_cpus(usable_cpus=forking.usable_cpus) -> int:
    """The usable CPUs, at most 2: fit forks its reader on 2 or more."""
    return min(2, usable_cpus())


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(mutations)
@example([("insert", 0, BOM)])
@example([("insert", at(3, Y), BOM)])
@example([("insert", at(2, END), b"\r")])
@example([("insert", at(2, Y + 3), b"\r")])
@example([("insert", at(4, X + 1), b"\x00")])
@example([("insert", at(5, X), b'"')])
@example([("insert", at(6, Y), LONG_FIELD)])
@example([("insert", at(6, X), LONG_FIELD)])
@example([("insert", at(7, D), b"1" + b"0" * 20)])
@example([("insert", at(7, D), LONG_INT)])  # once a parse error, now a schema error as
@example([("insert", at(0, D), b"-" + LONG_INT)])  # for fewer digits (see test_cli.py)
@example([("insert", at(8, Y + 6), b"1e999")])
@example([("insert", at(9, Y), b"9" * 400)])
@example([("truncate", at(1, Y))])  # one data row
@example([("truncate", at(1, X))])  # a row cut short
@example([("duplicate", at(3, Y), ROW_BYTES)])
@example([("flip", 0, 1)])
@example([("flip", at(0, D), 0x08)])  # d = 9
def test_mutated_sample_exits_by_contract(ops):
    assert_exits_by_contract(mutate(SAMPLE, ops))


# flag values that are out of range, not numbers, or look like flags; none is
# a size that would allocate for real
FLAG_VALUES = ["-1e-3", "-inf", "nan", "0", "-1", "", "abc", "x1,x1"]
flag_value = st.none() | st.sampled_from(FLAG_VALUES)
flag_sets = st.fixed_dictionaries({
    "support": st.none() | st.tuples(st.sampled_from(FLAG_VALUES), st.sampled_from(FLAG_VALUES)),
    "k": flag_value, "grid-m": flag_value, "x-levels": flag_value, "z-levels": flag_value,
})


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(mutations, flag_sets, st.booleans())
def test_mutated_sample_and_flags_exit_by_contract(ops, flags, in_config):
    assert_exits_by_contract(mutate(SAMPLE, ops), flags, in_config)


def flag_argv(command: str, flags: dict, config: str, in_config: bool) -> list:
    """--grid-m 2 for sweep and the given flags (--grid-m for sweep only) as
    argv, or written as key=value lines to the file config, named by --config."""
    given = {"grid-m": "2"} if command == "sweep" else {}
    given.update((name, value) for name, value in flags.items()
                 if value is not None and (name != "grid-m" or command == "sweep"))
    if not in_config:
        return [token for name, value in given.items()
                for token in ["--" + name, *(value if name == "support" else [value])]]
    with open(config, "w", encoding="utf-8") as fh:
        for name, value in given.items():
            fh.write(f"{name.replace('-', '_')}={' '.join(value) if name == 'support' else value}\n")
    return ["--config", config]


def assert_exits_by_contract(data: bytes, flags=None, in_config=False) -> None:
    """fit and sweep on a sample file of these bytes, with these flags, each
    exit by contract."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(forking, "usable_cpus",
                                                                 capped_cpus):
        path = os.path.join(tmp, "s.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        for command in ("fit", "sweep"):
            out = os.path.join(tmp, command)
            argv = [command, "--input", path, "--output-dir", out] + flag_argv(
                command, flags or {}, os.path.join(tmp, "c.cfg"), in_config)
            code, err = run(argv)
            assert code in (0, 2, 3, 4, 5), (argv, code, err)
            if code:
                assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
                assert err.startswith(PREFIXES), (argv, err)
            if os.path.isdir(out):
                assert not [f for f in os.listdir(out) if f.endswith(".tmp")]
            with pytest.raises(ChildProcessError):  # no child is left, running or not
                os.waitpid(-1, os.WNOHANG)
