"""Brownian-bridge tube violations and their series bound.

The tube requires a standard Brownian bridge of length t to stay within
(s ^ (t - s))^gamma of 0 for all s in [r, t - r].  The ``tube`` kind
measures the violation rate of bridges drawn on a uniform grid against the
summable analytic bound; grid-based checking understates violations
between grid points, so measured rates are conservative for violation
detection.
"""

from __future__ import annotations

import math

import numpy as np

from vsbbm.genealogy import tree_rng

SQRT2 = math.sqrt(2.0)


def bridge_violation_bound(r: float, gamma: float) -> float:
    """Series bound on the bridge tube-violation probability:

        8 * sum_{k=floor(r)}^inf k^(1/2-gamma) exp(-k^(2 gamma - 1)/2),

    summed until terms fall below 1e-16 of the partial sum.
    """
    if gamma <= 0.5:
        raise ValueError("gamma must exceed 1/2; the series diverges otherwise")
    if r < 1:
        raise ValueError("r must be >= 1")
    k = math.floor(r)
    total = 0.0
    while True:
        term = 8.0 * k ** (0.5 - gamma) * math.exp(-(k ** (2 * gamma - 1)) / 2.0)
        total += term
        k += 1
        if total > 0 and term < 1e-16 * total:
            return total


def sample_bridge(t: float, n_steps: int, rng, n_draws: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard Brownian bridges 0 -> 0 in time t, exact on a uniform grid."""
    times = np.linspace(0.0, t, n_steps + 1)
    inc = rng.standard_normal((n_draws, n_steps)) * math.sqrt(t / n_steps)
    b = np.concatenate([np.zeros((n_draws, 1)), np.cumsum(inc, axis=1)], axis=1)
    xi = b - (times / t) * b[:, -1:]
    return times, xi


# Bridges per chunk in empirical_bridge_violation.  ``standard_normal``
# fills rows in order, so chunking leaves every draw as it is in one call
# and bounds the working arrays at a chunk's rows.
BRIDGE_CHUNK = 1024


def empirical_bridge_violation(
    t: float,
    r: float,
    gamma: float,
    replicates: int,
    seed: int,
    n_steps: int = 512,
) -> tuple[float, float]:
    """Monte Carlo rate of {exists s in [r, t-r]: |xi(s)| > (s ^ (t-s))^gamma}
    for a standard Brownian bridge, with its standard error.

    An empty window (r >= t/2) gives rate 0 by convention."""
    times = np.linspace(0.0, t, n_steps + 1)
    window = (times >= r) & (times <= t - r)
    if not window.any():
        return 0.0, 0.0
    bound = np.minimum(times, t - times)[window] ** gamma
    rng = tree_rng(seed)
    violated = 0
    for start in range(0, replicates, BRIDGE_CHUNK):
        _, xi = sample_bridge(t, n_steps, rng, min(BRIDGE_CHUNK, replicates - start))
        violated += int(np.count_nonzero(np.any(np.abs(xi[:, window]) > bound, axis=1)))
    rate = violated / replicates
    se = math.sqrt(rate * (1.0 - rate) / replicates)
    return rate, se


def first_moment_constant(d: float, t_grid=None) -> float:
    """Numerical sup over t of t e^{-sqrt(2) d} / (sqrt(2 pi) (m~(t) + d))."""
    if t_grid is None:
        t_grid = np.linspace(1.5, 10**4, 10**5)
    m = SQRT2 * t_grid - np.log(t_grid) / (2 * SQRT2)
    vals = t_grid * math.exp(-SQRT2 * d) / (math.sqrt(2 * math.pi) * (m + d))
    return float(vals.max())
