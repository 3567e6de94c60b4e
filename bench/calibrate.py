"""Fixed reference work, to scale the benchmark's timings to machine speed.

On a shared virtual machine, the same pass runs up to 50% faster or slower
from one minute to the next, as the host's load changes.  ``run.py`` runs
this script as a child before each timed pass and times it from spawn to
exit, the way it times the workloads; dividing the pass's timings by the
calibration time cancels the drift that both see.  The work resembles a CLI
command: start the interpreter, import numpy and scipy.optimize, then run a
loop of small numpy operations and interpreter-bound work like the CDF
code.  It never imports the program, so no change to the program moves it.
"""

import numpy as np
import scipy.optimize  # noqa: F401  (imported for its cost, as the program does)


def work() -> float:
    rng = np.random.default_rng(12345)
    ys = np.round(rng.random(3000), 4)
    total = 0.0
    for _ in range(1500):
        w = rng.random(ys.size)
        points, inverse = np.unique(ys, return_inverse=True)
        masses = np.bincount(inverse, weights=w) / w.sum()
        cum = np.minimum(np.cumsum(masses), 1.0)
        total += float(points[np.searchsorted(cum, 0.5)])
        total += float(np.abs(np.diff(cum, prepend=0.0)).max())
        total += sum(k * 0.5 for k in range(500))
    return total


if __name__ == "__main__":
    work()
