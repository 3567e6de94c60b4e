"""The `oracle-check` command: the closed-form example against the numeric
objective and optimizer."""

from __future__ import annotations

import sys

from .cli import EXIT_OK, EXIT_SELFTEST, ConfigError


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


def run(args) -> int:
    if not 0.5 < args.p < 1.0:
        raise ConfigError(f"p must lie in (1/2, 1), got {args.p!r}")
    if args.grid_points < 2:
        raise ConfigError(f"--grid-points must be >= 2, got {args.grid_points}")
    return oracle_check(p=args.p, grid_points=args.grid_points, seed=args.seed)
