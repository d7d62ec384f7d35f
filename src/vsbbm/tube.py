"""Path-localization tube events and Brownian-bridge violation bounds.

The tube requires a path to stay within (Sigma^2(s) ^ (t - Sigma^2(s)))^gamma
of the straight ray to its endpoint, for all s with Sigma^2(s) in [r, t-r].
Grid-based checking understates violations between grid points, so measured
rates are conservative for violation detection.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from vsbbm.extremal import centering
from vsbbm.genealogy import (
    OffspringDistribution,
    replicate_rngs,
    run_replicates,
    sample_tree,
    tree_rng,
)
from vsbbm.sampler import node_positions, skeleton_paths
from vsbbm.speed import SpeedProfile, sigma2

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class TubeSpec:
    """Tube parameters; gamma must exceed 1/2 or the series bound diverges."""

    gamma: float
    r: float
    t: float

    def __post_init__(self):
        if self.gamma <= 0.5:
            raise ValueError("gamma must exceed 1/2")
        if self.r < 0:
            raise ValueError("r must be nonnegative")


def tube_deviation(times, path, endpoint, spec: TubeSpec, profile: SpeedProfile):
    """Per-gridpoint (|deviation| - bound) restricted to the window
    Sigma^2(s) in [r, t-r]; positive entries are violations."""
    t = spec.t
    sig = np.asarray(sigma2(profile, times, t))
    window = (sig >= spec.r) & (sig <= t - spec.r)
    dev = np.abs(path - sig / t * endpoint)
    bound = np.minimum(sig, t - sig) ** spec.gamma
    return (dev - bound)[window]


def in_tube(times, path, spec: TubeSpec, profile: SpeedProfile) -> bool:
    """True iff the tube inequality holds at every grid point of the window.

    ``times``/``path`` are the skeleton of one lineage; the endpoint is the
    final path value.  The grid must cover the window with step <= t/256.
    """
    times = np.asarray(times)
    path = np.asarray(path)
    if len(times) < 2 or np.max(np.diff(times)) > spec.t / 256 + 1e-12:
        raise ValueError("skeleton grid too coarse; need step <= t/256")
    excess = tube_deviation(times, path, path[-1], spec, profile)
    return bool(np.all(excess < 0))


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


def _localizations(offspring, profile, spec, level, n_steps, seed, reps):
    """``_localization`` of every replicate of ``reps``, each on its own
    ``tree`` and ``gauss`` streams."""
    rows = []
    for tree_gen, rng in zip(replicate_rngs(seed, reps, "tree"), replicate_rngs(seed, reps, "gauss")):
        tree = sample_tree(offspring, spec.t, rng=tree_gen)
        rows.append(_localization(tree, profile, spec, level, n_steps, rng))
    return rows


def _localization(tree, profile, spec, level, n_steps, rng):
    """(violated, first violation time or "") on one tree, its positions
    and skeleton paths drawn from ``rng``."""
    t = spec.t
    pos = node_positions(tree, profile, t, rng)
    extreme = tree.leaf_ids[pos[tree.leaf_ids] > level]
    if len(extreme) == 0:
        return 0, ""
    times, paths = skeleton_paths(tree, profile, t, pos, rng, n_steps, leaves=extreme)
    for path in paths:
        excess = tube_deviation(times, path, path[-1], spec, profile)
        if np.any(excess >= 0):
            sig = np.asarray(sigma2(profile, times, t))
            window_times = times[(sig >= spec.r) & (sig <= t - spec.r)]
            return 1, float(window_times[np.argmax(excess >= 0)])
    return 0, ""


def extreme_particle_localization(
    offspring: OffspringDistribution,
    profile: SpeedProfile,
    d: float,
    spec: TubeSpec,
    replicates: int,
    seed: int,
    n_steps: int = 512,
    report_csv=None,
) -> tuple[float, float]:
    """Fraction of replicates containing a particle above m~(t)+d whose path
    exits the tube.

    Only the (rare) extreme lineages get their skeleton filled in, bridging
    conditionally on the branch-time positions; this leaves the joint law
    exact while keeping the sweep cheap.
    """
    level = centering(spec.t, "tilde") + d
    rows = run_replicates(_localizations, (offspring, profile, spec, level, n_steps, seed), replicates)
    if report_csv is not None:
        with open(report_csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["replicate", "violated", "first_violation_time"])
            w.writerows((rep, *row) for rep, row in enumerate(rows))
    rate = sum(v for v, _ in rows) / replicates
    se = math.sqrt(rate * (1.0 - rate) / replicates)
    return rate, se
