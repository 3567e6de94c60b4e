"""The `oracle-check` command: the closed-form example against the numeric
objective, and against `lp.PluginProgram`, the solver `simulate` runs, on
the discretized toy array."""

from __future__ import annotations

import sys

from .cli import EXIT_OK, EXIT_SELFTEST, check_flag


def oracle_check(p: float = 0.75, grid_points: int = 2000, perturb: float = 0.0,
                 stream=None) -> int:
    """Closed-form vs numeric agreement suite; one report line per check.

    `perturb` shifts the closed-form objective and exists as a negative
    control for the suite itself.
    """
    import numpy as np

    from .functionals import SimilarityMeasure, TargetFunctional
    from .lp import PluginProgram
    from .objective import DecisionRule, omega
    from .toy import (PENALTY_SCALE, ToyParams, toy_cond_array, toy_max_value, toy_objective,
                      toy_threshold)

    checks = []

    ys = np.linspace(0.0, 1.0, 200001)[1:-1]
    numeric_scale = float((ys * (1.0 - ys**3)).max())
    checks.append(("penalty constant sup y(1-y^3)", abs(numeric_scale - PENALTY_SCALE), 1e-6))

    arr = toy_cond_array(p, grid_points)
    t = TargetFunctional("gini-welfare")
    s = SimilarityMeasure("ks")
    worst = 0.0
    for lam in np.linspace(0.0, 1.0, 5):
        for delta in np.linspace(0.0, 1.0, 21):
            rule = DecisionRule(arr.space, np.array([[delta, 1.0 - delta]]))
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

    program = PluginProgram(arr.kernel, arr.space, t, s)
    for lam, target_delta, tol, label in (
        (c / 2.0, 0.0, 0.01, "argmax recovery below c(p)"),
        ((c + 1.0) / 2.0, 0.5, 0.02, "argmax recovery above c(p)"),
    ):
        delta = float(program.maximize(lam).rule.probs[0, 0])
        checks.append((label, abs(delta - target_delta), tol))

    for name, err, tol in checks:
        print(f"[{'ok' if err <= tol else 'FAIL'}] {name}: error {err:.3e} (tolerance {tol:.0e})",
              file=stream or sys.stderr)
    return EXIT_OK if all(err <= tol for _, err, tol in checks) else EXIT_SELFTEST


def run(args) -> int:
    return oracle_check(check_flag("--p", args.p, 0.5 < args.p < 1.0, "lie in (1/2, 1)"),
                        args.grid_points)
