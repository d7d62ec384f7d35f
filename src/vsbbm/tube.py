"""Brownian-bridge tube violations and their series bound.

The tube requires a standard Brownian bridge of length t to stay within
(s ^ (t - s))^gamma of 0 for all s in [r, t - r].  The ``tube`` kind
measures the violation rate of bridges drawn on a uniform grid against the
summable analytic bound; grid-based checking understates violations
between grid points, so measured rates are conservative for violation
detection.  ``grid_window`` is the one rule for which grid points the
window holds, shared by the measurement and the ``tube`` config check.
Bridges are drawn in row chunks, each built in place and looked at on
the window's columns only.
"""

from __future__ import annotations

import math

import numpy as np

from vsbbm.genealogy import tree_rng

SQRT2 = math.sqrt(2.0)


# Terms bridge_violation_bound may sum.  ``series_terms`` bounds the count
# in closed form: 5.9e3 at r = 10 for gamma = 0.75, 1.8e6 for gamma = 0.65
# (the sum stops after 9.6e5 of them, about 0.4 s on a 2-vCPU VM) and
# 2.4e9 for gamma = 0.6, which would run for minutes.
MAX_SERIES_TERMS = 2**21


def series_terms(r: float, gamma: float) -> int:
    """A count of terms after which ``bridge_violation_bound``'s sum has
    stopped.  Its terms fall with k, and their factor exp(-k^a / 2),
    a = 2 gamma - 1, alone falls below 1e-16 of its value at
    k0 = floor(r) by k = (k0^a + 32 ln 10)^(1/a), where every term is
    below 1e-16 of the first and so of the sum.  ValueError when gamma <=
    1/2, r < 1 or the count exceeds ``MAX_SERIES_TERMS``."""
    if gamma <= 0.5:
        raise ValueError("gamma must exceed 1/2; the series diverges otherwise")
    if r < 1:
        raise ValueError("r must be >= 1")
    k0, a = math.floor(r), 2.0 * gamma - 1.0
    log_last = math.log(k0**a + 32.0 * math.log(10.0)) / a
    if log_last > math.log(k0 + MAX_SERIES_TERMS):
        raise ValueError(
            f"the series bound at r = {r}, gamma = {gamma} needs more than {MAX_SERIES_TERMS} terms; "
            "take a larger gamma"
        )
    return math.ceil(math.exp(log_last)) - k0 + 1


def bridge_violation_bound(r: float, gamma: float) -> float:
    """Series bound on the bridge tube-violation probability:

        8 * sum_{k=floor(r)}^inf k^(1/2-gamma) exp(-k^(2 gamma - 1)/2),

    summed until terms fall below 1e-16 of the partial sum, which happens
    within ``series_terms(r, gamma)`` terms; that raises ValueError where
    the count would be too large.
    """
    k0 = math.floor(r)
    total = 0.0
    for k in range(k0, k0 + series_terms(r, gamma)):
        term = 8.0 * k ** (0.5 - gamma) * math.exp(-(k ** (2 * gamma - 1)) / 2.0)
        total += term
        if term < 1e-16 * total:
            break
    return total


def sample_bridge(t: float, n_steps: int, rng, n_draws: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard Brownian bridges 0 -> 0 in time t, exact on a uniform grid."""
    times = np.linspace(0.0, t, n_steps + 1)
    inc = rng.standard_normal((n_draws, n_steps)) * math.sqrt(t / n_steps)
    b = np.concatenate([np.zeros((n_draws, 1)), np.cumsum(inc, axis=1)], axis=1)
    xi = b - (times / t) * b[:, -1:]
    return times, xi


def grid_window(t: float, r: float, n_steps: int) -> slice:
    """The grid points of ``sample_bridge``'s uniform grid on [0, t] that
    lie in the window [r, t - r], as a slice; empty when none does."""
    times = np.linspace(0.0, t, n_steps + 1)
    inside = ((times >= r) & (times <= t - r)).nonzero()[0]
    return slice(int(inside[0]), int(inside[-1]) + 1) if len(inside) else slice(0, 0)


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

    The bridges are ``sample_bridge``'s, draw for draw, but each chunk is
    scaled and summed in place, and xi is formed on the window's columns
    only: the walk w at grid point j is column j - 1 of the summed
    increments and xi_j = w_j - (s_j / t) w_n.  Grid point 0, pinned at 0
    with a bound of 0, can never violate and is left out.  An empty window
    (no grid point in [r, t - r]; ``grid_window``) gives rate 0 by
    convention."""
    window = grid_window(t, r, n_steps)
    if window.start == window.stop:
        return 0.0, 0.0
    times = np.linspace(0.0, t, n_steps + 1)
    lo = max(window.start, 1)
    bound = np.minimum(times, t - times)[lo : window.stop] ** gamma
    slope = (times / t)[lo : window.stop]
    scale = math.sqrt(t / n_steps)
    rng = tree_rng(seed)
    violated = 0
    for start in range(0, replicates, BRIDGE_CHUNK):
        walk = rng.standard_normal((min(BRIDGE_CHUNK, replicates - start), n_steps))
        walk *= scale
        np.cumsum(walk, axis=1, out=walk)
        xi = walk[:, lo - 1 : window.stop - 1] - slope * walk[:, -1:]
        np.abs(xi, out=xi)
        violated += int(np.count_nonzero(np.any(xi > bound, axis=1)))
    rate = violated / replicates
    se = math.sqrt(rate * (1.0 - rate) / replicates)
    return rate, se


def first_moment_constant(d: float) -> float:
    """Numerical sup over t in [1.5, 1e4] of t e^{-sqrt(2) d} / (sqrt(2 pi) (m~(t) + d))."""
    t_grid = np.linspace(1.5, 10**4, 10**5)
    m = SQRT2 * t_grid - np.log(t_grid) / (2 * SQRT2)
    vals = t_grid * math.exp(-SQRT2 * d) / (math.sqrt(2 * math.pi) * (m + d))
    return float(vals.max())
