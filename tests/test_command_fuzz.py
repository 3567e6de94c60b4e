"""Bad `simulate` and `oracle-check` flag values, given as flags or through a
`--config` file.

Each run must end in a documented exit code: 0, or 2 to 5 with one stderr
line that names its kind, no temp file left in the output directory and no
child left unreaped.  The run is derandomized.  Only small valid sizes run
for real: the sample sizes and replications drawn are tiny, the CPUs used
are at most 2, and the only huge values are 2**61 and beyond, which the
commands refuse before anything is allocated.  Should a command ever take
one, a guard fails the example before the grid, the replications or the toy
array are built.  The explicit examples are the inputs that once exited 1.
"""

import contextlib
import io
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import fairpolicy.forking as forking
import fairpolicy.oraclecheck as oraclecheck
import fairpolicy.simharness as simharness
from fairpolicy.cli import main
from fairpolicy.selection import LambdaGrid

PREFIXES = ("parse error: ", "schema error: ", "optimizer error: ", "config error: ")

# out of range, not numbers, looking like flags, or beyond what numpy can address
BAD = ["-1e-3", "-inf", "nan", "0", "-1", "", "abc", "x1,x1", str(2**61), str(10**23),
       "-" + str(2**61), "1" * 5000]


def values(*valid):
    return st.sampled_from(list(valid) + BAD)


SIMULATE = st.fixed_dictionaries({  # never the defaults of sizes, replications or grid
    "sample-sizes": values("20", "20,30", "30,20,30"),
    "mechanisms": st.none() | values("A1", "A2,A1", "A1,A3"),
    "replications": values("1", "2"),
    "p": st.none() | values("0.6", "0.9"),
    "grid-m": values("1", "2"),
})
ORACLE_CHECK = st.fixed_dictionaries({
    "p": st.none() | values("0.6", "0.999999"),
    "grid-points": st.none() | values("50", "200"),
})


def capped_cpus(usable_cpus=forking.usable_cpus) -> int:
    """The usable CPUs, at most 2: simulate forks a worker per CPU."""
    return min(2, usable_cpus())


def flag_argv(flags: dict, config: str, in_config: bool) -> list:
    """The given flags as argv, or written as key=value lines to the file
    config, named by --config."""
    given = {name: value for name, value in flags.items() if value is not None}
    if not in_config:
        return [token for name, value in given.items() for token in ("--" + name, value)]
    with open(config, "w", encoding="utf-8") as fh:
        fh.writelines(f"{name.replace('-', '_')}={value}\n" for name, value in given.items())
    return ["--config", config]


def guarded(fn, small):
    """fn, failing the example first if small(*args, **kwargs) is false."""
    def call(*args, **kwargs):
        assert small(*args, **kwargs), f"{fn.__name__}{args}{kwargs} would run for real"
        return fn(*args, **kwargs)

    return call


GUARDS = [
    (LambdaGrid, "uniform", guarded(LambdaGrid.uniform, lambda m: m <= 2)),
    (simharness, "run_simulation", guarded(
        simharness.run_simulation,
        lambda cfg: max(cfg.sample_sizes) <= 30 and cfg.replications <= 2)),
    (oraclecheck, "oracle_check", guarded(
        oraclecheck.oracle_check, lambda p, grid_points: grid_points <= 2000)),
]


def assert_exits_by_contract(command: str, flags: dict, in_config: bool) -> None:
    with contextlib.ExitStack() as stack:
        for owner, name, guard in GUARDS:
            stack.enter_context(mock.patch.object(owner, name, guard))
        stack.enter_context(mock.patch.object(forking, "usable_cpus", capped_cpus))
        stack.enter_context(mock.patch.object(simharness, "usable_cpus", capped_cpus))
        tmp = stack.enter_context(tempfile.TemporaryDirectory())
        out = os.path.join(tmp, "out")
        argv = [command] + (["--output-dir", out] if command == "simulate" else [])
        argv += flag_argv(flags, os.path.join(tmp, "c.cfg"), in_config)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert code in (0, 2, 3, 4, 5), (argv, code, err)
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
            assert err.startswith(PREFIXES), (argv, err)
        if os.path.isdir(out):
            assert not [f for f in os.listdir(out) if f.endswith(".tmp")]
        with pytest.raises(ChildProcessError):  # no child is left, running or not
            os.waitpid(-1, os.WNOHANG)


def simulate_flags(**given) -> dict:
    flags = {"sample-sizes": "20", "mechanisms": "A1", "replications": "1", "p": None,
             "grid-m": "1"}
    return {**flags, **{name.replace("_", "-"): value for name, value in given.items()}}


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(SIMULATE, st.booleans())
@example(simulate_flags(), False)
@example(simulate_flags(sample_sizes="20,30", mechanisms="A2,A1", replications="2"), True)
@example(simulate_flags(sample_sizes=str(10**23)), False)  # numpy's ValueError, in-process
@example(simulate_flags(sample_sizes=str(10**23), replications="2"), False)  # in a worker
@example(simulate_flags(sample_sizes=str(2**61), replications="2"), True)
@example(simulate_flags(grid_m=str(2**61)), False)
@example(simulate_flags(replications=str(2**61)), True)
def test_simulate_flags_exit_by_contract(flags, in_config):
    assert_exits_by_contract("simulate", flags, in_config)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(ORACLE_CHECK, st.booleans())
@example({"p": None, "grid-points": "50"}, False)
@example({"p": "0.6", "grid-points": None}, True)
@example({"p": None, "grid-points": str(10**23)}, False)  # numpy's ValueError
@example({"p": "nan", "grid-points": str(2**61)}, True)
def test_oracle_check_flags_exit_by_contract(flags, in_config):
    assert_exits_by_contract("oracle-check", flags, in_config)
