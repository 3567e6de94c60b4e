"""`fit` parses its sample in a child forked before numpy loads.

The reader (`columns.read_columns`) must load no numpy, and the child must be
forked before anything else does, or the parse no longer runs beside
numpy's import.  Errors keep the precedence and the lines of an in-process
read, and no child outlives a failed command.
"""

import csv
import os
import random
import subprocess
import sys
import time

import pytest

import fairpolicy
import fairpolicy.columns
import fairpolicy.forking
from fairpolicy.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARSE, EXIT_SCHEMA, main

SRC = os.path.dirname(os.path.dirname(fairpolicy.__file__))


def write_rows(path, rows: int, seed: int = 19) -> None:
    rng = random.Random(seed)
    lines = ["y,x,z,d"] + [f"{rng.random():.4f},x{rng.randint(0, 9)},z{rng.randint(0, 2)},"
                           f"{rng.randint(1, 3)}" for _ in range(rows)]
    path.write_text("\n".join(lines) + "\n")


def sample_files(tmp_path) -> dict:
    """A plain sample over several reader blocks, the same with a quote in its
    last row (the row reader takes over late) and with blank rows."""
    plain = tmp_path / "plain.csv"
    write_rows(plain, 3000)
    lines = plain.read_text().splitlines()
    y, x, rest = lines[-1].split(",", 2)
    late_quote = tmp_path / "late-quote.csv"
    late_quote.write_text("\n".join(lines[:-1] + [f'{y},"{x}",{rest}']) + "\n")
    blank_rows = tmp_path / "blank-rows.csv"
    blank_rows.write_text("\n".join(line + ("\n" if j % 700 == 3 else "")
                                    for j, line in enumerate(lines)) + "\n\n")
    return {"plain": plain, "late-quote": late_quote, "blank-rows": blank_rows}


def run_python(code: str) -> str:
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_reader_forks_before_numpy_loads(tmp_path):
    write_rows(tmp_path / "s.csv", 500)
    argv = ["fit", "--input", str(tmp_path / "s.csv"), "--output-dir", str(tmp_path / "o")]
    code = ("import os, sys, fairpolicy.cli, fairpolicy.forking\n"
            "fairpolicy.forking.usable_cpus = lambda: 2\n"
            "numpy_at_fork, fork = [], os.fork\n"
            "def recording_fork():\n"
            "    numpy_at_fork.append('numpy' in sys.modules)\n"
            "    return fork()\n"
            "os.fork = recording_fork\n"
            f"assert fairpolicy.cli.main({argv!r}) == 0\n"
            "print(numpy_at_fork)")
    assert run_python(code) == "[False]"


def test_reader_loads_no_numpy(tmp_path):
    paths = [str(path) for path in sample_files(tmp_path).values()]
    code = ("import sys, fairpolicy.columns\n"
            f"for path in {paths!r}:\n"
            "    ys = fairpolicy.columns.read_columns(path, True)[0]\n"
            "    assert len(ys) == 3000, len(ys)\n"
            "print('numpy' in sys.modules)")
    assert run_python(code) == "False"


@pytest.fixture()
def forked(monkeypatch):
    """fit's reader runs in a child whatever the host's CPU count."""
    monkeypatch.setattr(fairpolicy.forking, "usable_cpus", lambda: 2)


def fit(tmp_path, capsys, sample, *flags, out="o"):
    """fit's exit code and stderr."""
    rc = main(["fit", "--input", str(sample), "--output-dir", str(tmp_path / out), *flags])
    return rc, capsys.readouterr().err


class TestForkedReader:
    @pytest.mark.parametrize("flags, error", [
        (["--support", "1", "0"], "config error: support requires a < b, got [1.0, 0.0]\n"),
        (["--x-levels", "a,a"], "config error: --x-levels lists 'a' twice\n"),
    ], ids=["support", "x-levels"])
    def test_flag_error_wins_over_a_broken_sample(self, tmp_path, capsys, forked, flags, error):
        broken = tmp_path / "broken.csv"
        broken.write_text("y,x,z,d\n0.5,a\n")
        assert fit(tmp_path, capsys, broken, *flags) == (EXIT_CONFIG, error)
        assert_no_child_left()

    def test_flag_error_stops_a_reader_blocked_on_its_pipe(self, tmp_path, capsys, forked):
        # the columns of 20,000 rows fill the pipe, so the child waits on it
        sample = tmp_path / "s.csv"
        write_rows(sample, 20000)
        start = time.perf_counter()
        rc, err = fit(tmp_path, capsys, sample, "--support", "1", "0")
        assert rc == EXIT_CONFIG and err.startswith("config error: support")
        assert time.perf_counter() - start < 20
        assert_no_child_left()

    @pytest.mark.parametrize("text, code, error", [
        ("y,x,z,d\n0.5,a,u,1\n0.5,a,u\n", EXIT_PARSE,
         "parse error: {path}: row 3: expected 4 fields, got 3\n"),
        ("y,x,z,d\n0.5,a,u,1\nhigh,a,u,1\n", EXIT_PARSE,
         "parse error: {path}: row 3: cannot parse y='high'\n"),
        ("y,x,z,d\n0.5,a,u,1\n\n0.5,a,u,0\n", EXIT_SCHEMA,
         "schema error: {path}: row 4: treatment index 0 must be >= 1\n"),
        ("y,x,z,d\n0.5,a,u,1\n1.5,a,u,2\n", EXIT_SCHEMA,
         "schema error: {path}: row 3: y=1.5 outside support [0.0, 1.0]\n"),
        ("y,x,z,d\n0.5,a,u,1\n0." + "5" * (csv.field_size_limit() + 1) + ",a,u,2\n",
         EXIT_PARSE, f"parse error: {{path}}: field larger than field limit "
                     f"({csv.field_size_limit()})\n"),
        (b"y,x,z,d\n0.5,\xe9,u,1\n", EXIT_PARSE,
         "parse error: {path}: not UTF-8 text (invalid continuation byte)\n"),
        (None, EXIT_CONFIG, "config error: cannot read {path}: No such file or directory\n"),
    ], ids=["field-count", "bad-y", "bad-d", "outside-support", "field-limit", "not-utf8",
            "missing"])
    def test_sample_errors_keep_their_line_and_code(self, tmp_path, capsys, monkeypatch,
                                                    text, code, error):
        path = tmp_path / "s.csv"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        want = (code, error.format(path=path))
        for cpus in (1, 2):
            monkeypatch.setattr(fairpolicy.forking, "usable_cpus", lambda: cpus)
            assert fit(tmp_path, capsys, path) == want
            assert_no_child_left()

    def test_reader_that_dies_exits_5(self, tmp_path, capsys, monkeypatch, forked):
        caller = os.getpid()

        def dies_in_the_child(path, by_block):
            if os.getpid() != caller:
                os._exit(3)
            raise AssertionError("the sample was read in the command process")

        monkeypatch.setattr(fairpolicy.columns, "read_columns", dies_in_the_child)
        sample = tmp_path / "s.csv"
        write_rows(sample, 10)
        assert fit(tmp_path, capsys, sample) == (
            EXIT_CONFIG, "config error: sample reader exited with status 3 without sending "
                         "its results\n")
        assert_no_child_left()

    @pytest.mark.parametrize("host", ["one-cpu", "no-fork"])
    def test_read_in_process_without_a_second_cpu_or_fork(self, tmp_path, capsys, monkeypatch,
                                                          forked, host):
        files = sample_files(tmp_path)
        for name, path in files.items():
            assert fit(tmp_path, capsys, path, out=f"forked-{name}") == (EXIT_OK, "")

        def no_fork():
            raise AssertionError("fit forked")

        if host == "one-cpu":
            monkeypatch.setattr(fairpolicy.forking, "usable_cpus", lambda: 1)
            monkeypatch.setattr(os, "fork", no_fork)
        else:
            monkeypatch.delattr(os, "fork")
        want = (tmp_path / "forked-plain" / "fitted_array.json").read_bytes()
        for name, path in files.items():
            assert fit(tmp_path, capsys, path, out=name) == (EXIT_OK, "")
            assert (tmp_path / f"forked-{name}" / "fitted_array.json").read_bytes() == want
            assert (tmp_path / name / "fitted_array.json").read_bytes() == want
