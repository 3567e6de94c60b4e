"""Golden bytes: the SHA-256 of each plug-in program pair's sweep outputs, of
one select, of one small simulate and of one fit, on fixed inputs.

A refactor of the solvers, the sample reader or the fit must leave these
files byte-identical.  The digests pin the outputs on x86-64 with numpy 2.4;
a different BLAS/LAPACK build may move the last bits of an LP solution, and
then they need recomputing with the unchanged solver first.  The CPU count
no longer moves them: the command runs numpy's BLAS on one thread (see
`cli.main`), and on inputs this small the suite's own process, where numpy
loads before `main`, writes the same bytes under ``taskset -c 0`` and on two
CPUs.
"""

import hashlib

import numpy as np
import pytest

from fairpolicy import CovariateSpace, SupportInterval, TrainingSample
from fairpolicy.cli import EXIT_OK, main
from helpers import write_sample_csv


def fixed_sample() -> TrainingSample:
    """n=240, 3 covariate levels, 2 unequal groups, K=3, y on a 0.001 grid."""
    rng = np.random.default_rng(2026)
    n = 240
    space = CovariateSpace(("a", "b", "c"), ("u", "v"), 3)
    xi = rng.integers(0, 3, n)
    zi = (rng.random(n) < 0.3).astype(np.int64)
    d = rng.integers(1, 4, n)
    ys = np.round(rng.beta(1.0 + d + zi, 2.0 + xi), 3)
    return TrainingSample(space, SupportInterval(0.0, 1.0), ys, xi, zi, d)


def digests(out, names):
    return [hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names]


SWEEPS = {
    ("mean", "ks"): (
        "df9fff8de31f87a8d3fbde624b2ffe02c2e02a2304ea641e4c0dee41ca4365fc",
        "e92946090034a8a03957302480d349da9da5c68d7f74e2b525c0a2b0372820f6",
    ),
    ("mean", "one-sided-ks"): (
        "3b6172e2fbf5c843eb068f2035800136cf2e9aed6102d7dc3306759e32efc7f1",
        "9c196df58605707f1d004d90ae999f8c0bf0a91eaa659ff4adf76cb615318015",
    ),
    ("mean", "abs-target-diff:mean"): (
        "0ad985aa054ca41750ed3225d1ec40006b445d86a56fe69d4fed86cfb8d3f8a6",
        "923aa605c40549ae7f4e3471160fb9a1cf7deaf45d1c2c4a6d573faea932dd80",
    ),
    ("gini-welfare", "ks"): (
        "918364dcebe6cb850d9415954e2716b331d7916af72ca10d93c2b1b9ed136967",
        "4fe3cb7b714b543a300fb35441ad2f53e3ab0ac6252b10f4d6294f1d3360e4ee",
    ),
    ("gini-welfare", "one-sided-ks"): (
        "0e70f5a7557d3c60484eed774745f03b2efc72b947d47b78d9a5d82b1ee0efe7",
        "8ff6470cae575b812a38a53050abeb9ad59f0ebd60136b964dd11dafe9693a3f",
    ),
    ("gini-welfare", "abs-target-diff:mean"): (
        "104af573aa266e0336ce3043384d8556833b763c3046f4522bc33066f3d8aa91",
        "923aa605c40549ae7f4e3471160fb9a1cf7deaf45d1c2c4a6d573faea932dd80",
    ),
}


@pytest.mark.parametrize("target, similarity", sorted(SWEEPS))
def test_sweep_outputs(tmp_path, target, similarity):
    sample_csv = tmp_path / "sample.csv"
    write_sample_csv(str(sample_csv), fixed_sample())
    out = tmp_path / "out"
    assert main(["sweep", "--input", str(sample_csv), "--output-dir", str(out),
                 "--target", target, "--similarity", similarity, "--grid-m", "4"]) == EXIT_OK
    assert digests(out, ("path.csv", "rules.json")) == list(SWEEPS[target, similarity])


SELECT = "bbdcb949226fa7be717a55bd1e96beb0e8c8ce7353f7fa50ee2298f4e49981ee"


def test_select_outputs(tmp_path):
    # select on the saved path writes the chosen rule as rules.json holds it,
    # which is the rule select --input fits: both write the same bytes
    sample_csv = tmp_path / "sample.csv"
    write_sample_csv(str(sample_csv), fixed_sample())
    flags = ["--target", "gini-welfare", "--similarity", "ks", "--grid-m", "4"]
    sweep = tmp_path / "sweep"
    assert main(["sweep", "--input", str(sample_csv), "--output-dir", str(sweep)]
                + flags) == EXIT_OK
    assert main(["select", "--beta", "0.01", "--path-csv", str(sweep / "path.csv"),
                 "--rules-json", str(sweep / "rules.json"),
                 "--output-dir", str(tmp_path / "saved")]) == EXIT_OK
    assert main(["select", "--beta", "0.01", "--input", str(sample_csv),
                 "--output-dir", str(tmp_path / "input")] + flags) == EXIT_OK
    for name in ("saved", "input"):
        assert digests(tmp_path / name, ("selection.json",)) == [SELECT]


SIMULATE = (
    "7faf226c000aee92b20f937d2bb9c24ad4cdb48ec7877e13cb0167c4c4b35df2",
    "52b5ce54414765a68f222eca2e7adb27d224be9d9a56301d8457e70b07d39f53",
)


def test_simulate_outputs(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--sample-sizes", "100", "--mechanisms", "A1,A2",
                 "--grid-m", "2", "--replications", "2", "--seed", "3",
                 "--output-dir", str(out)]) == EXIT_OK
    assert digests(out, ("replications.csv", "aggregate.csv")) == list(SIMULATE)


def fit_sample_text() -> str:
    """n=300 on support [-1, 1], y on a 0.1 grid written with its sign (so
    0.0 and -0.0 meet in one cell), padded x and z labels, d written as '2',
    ' 2' or '+2', and cell (3, 'c ', ' v') left empty."""
    rng = np.random.default_rng(2027)
    xs, zs = (" a ", "b", "c "), ("u", " v")
    rows = ["y,x,z,d"]
    while len(rows) <= 300:
        x, z, d = int(rng.integers(0, 3)), int(rng.integers(0, 2)), int(rng.integers(1, 4))
        if (d, x, z) == (3, 2, 1):
            continue
        y = float(np.round(rng.uniform(-1.0, 1.0) * (0.3 + 0.2 * d), 1))
        if y == 0.0 and rng.random() < 0.5:
            y = -y
        pad = ("", " ", "+")[int(rng.integers(0, 3))]
        rows.append(f"{y!r},{xs[x]},{zs[z]},{pad}{d}")
    return "\n".join(rows) + "\n"


FIT = "0169384d1ff3b92b5a0071c0d6cd765a79e25c28cec89842480dcc2cfe3360a7"


def test_fit_output(tmp_path):
    sample_csv = tmp_path / "sample.csv"
    sample_csv.write_text(fit_sample_text())
    out = tmp_path / "out"
    assert main(["fit", "--input", str(sample_csv), "--support", "-1", "1",
                 "--output-dir", str(out)]) == EXIT_OK
    assert digests(out, ("fitted_array.json",)) == [FIT]
