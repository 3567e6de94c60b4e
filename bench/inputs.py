"""Seeded synthetic samples for the benchmark workloads.

A shape fixes the population: n, |X|, the group shares, K, and a population
seed that draws the covariate frequencies, the treatment propensities
(varying with x and z) and one Beta outcome distribution per
(treatment, x, z) cell.  The sample seed then draws n records from that
population.  Keeping the population fixed per workload means seeds change
the sample, not the problem, so the optimizer faces problems of the same
difficulty on every seed.  y is rounded to 4 decimals, so the union grid of
the fitted array holds at most 10,001 points whatever n is.  The same
(shape, seed) always gives the same bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    n: int
    nx: int
    z_shares: tuple[float, ...]
    k: int
    population: int


def sample_csv(shape: Shape, seed: int) -> str:
    """CSV text with header y,x,z,d for one seeded draw of the shape."""
    nz = len(shape.z_shares)
    pop = np.random.default_rng(shape.population)
    px = pop.dirichlet(np.full(shape.nx, 5.0))
    # Propensity logits per (x, z) cell; their small spread keeps every
    # treatment's share well above zero.
    logits = pop.normal(0.0, 0.5, size=(shape.nx, nz, shape.k))
    e = np.exp(logits)
    e /= e.sum(axis=2, keepdims=True)
    alpha = pop.uniform(1.0, 5.0, size=(shape.k, shape.nx, nz))
    beta = pop.uniform(1.0, 5.0, size=(shape.k, shape.nx, nz))

    rng = np.random.default_rng(seed)
    x = rng.choice(shape.nx, size=shape.n, p=px)
    z = rng.choice(nz, size=shape.n, p=np.asarray(shape.z_shares) / sum(shape.z_shares))
    u = rng.random(shape.n)
    d = np.minimum((u[:, None] > np.cumsum(e[x, z], axis=1)).sum(axis=1), shape.k - 1)
    y = np.round(rng.beta(alpha[d, x, z], beta[d, x, z]), 4)
    lines = ["y,x,z,d"]
    lines.extend(
        f"{yi:.4f},x{xi},z{zi},{di + 1}" for yi, xi, zi, di in zip(y, x, z, d)
    )
    return "\n".join(lines) + "\n"


def write_sample(path: str, shape: Shape, seed: int) -> str:
    """Write the sample to path and return its SHA-256."""
    data = sample_csv(shape, seed).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()
