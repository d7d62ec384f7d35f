"""Centered extremal statistics of sampled configurations.

Everything here is a pure function over immutable configurations; replicate
aggregation uses exact (fsum) summation so results do not depend on
replicate order.  The forest reductions take per-tree maxima and leaf
counts over the runs of equal tree id that wave-major leaves form, not
leaf by leaf.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from vsbbm.sampler import ParticleConfiguration
from vsbbm.speed import SpeedProfile

SQRT2 = math.sqrt(2.0)


def centering(t: float, kind: str = "tilde") -> float:
    """Front centering at horizon t.

    kind="tilde": sqrt(2) t - (1/(2 sqrt 2)) log t   (weak-correlation regime)
    kind="standard": sqrt(2) t - (3/(2 sqrt 2)) log t (standard BBM)
    """
    if t <= 1:
        raise ValueError("t must exceed 1 so the log correction has fixed sign")
    if kind == "tilde":
        coef = 1.0 / (2.0 * SQRT2)
    elif kind == "standard":
        coef = 3.0 / (2.0 * SQRT2)
    else:
        raise ValueError(f"unknown centering kind {kind!r}")
    return SQRT2 * t - coef * math.log(t)


@dataclass(frozen=True, eq=False)
class ReplicateSummary:
    """Per-replicate scalars kept for aggregation."""

    max_centered: float
    exceedance_counts: np.ndarray
    n_leaves: int


def count_exceedances(config: ParticleConfiguration, u_grid: np.ndarray) -> np.ndarray:
    """N_u = #{leaves with x_i(t) - centering > u} for each u in the sorted
    ascending grid; single pass via a sorted-position search."""
    u_grid = np.asarray(u_grid, dtype=np.float64)
    if np.any(np.diff(u_grid) < 0):
        raise ValueError("u_grid must be sorted ascending")
    centered = np.sort(config.leaf_positions - centering(config.horizon, "tilde"))
    return len(centered) - np.searchsorted(centered, u_grid, side="right")


def summarize(config: ParticleConfiguration, u_grid) -> ReplicateSummary:
    """``forest_summaries`` of the one tree of ``config``."""
    one_tree = np.zeros(config.n_leaves, dtype=np.intp)
    n_leaves, top, counts = forest_summaries(
        one_tree, config.leaf_positions, 1, config.horizon, u_grid
    )
    return ReplicateSummary(
        max_centered=float(top[0]), exceedance_counts=counts[0], n_leaves=int(n_leaves[0])
    )


def empirical_laplace(counts, c) -> tuple[float, float]:
    """Sample mean and standard error of exp(-sum_l c_l N_{u_l}) across
    replicates, from a (replicates x len(u)) matrix of exceedance counts
    N_{u_l} and weights ``c`` of matching length."""
    counts = np.asarray(counts)
    c = np.asarray(c, dtype=np.float64)
    if len(counts) == 0:
        raise ValueError("no replicates")
    if counts.ndim != 2:
        raise ValueError("counts must be a (replicates x len(c)) matrix")
    if np.any(c < 0):
        raise ValueError("Laplace weights c must be nonnegative")
    if counts.shape[1] != len(c):
        raise ValueError("counts and c must have matching length")
    return mean_and_se(np.exp(-(counts @ c)))


def mean_and_se(vals: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error of ``vals``, by exact summation so
    that they do not depend on how the replicates were batched."""
    n = len(vals)
    mean = math.fsum(vals.tolist()) / n
    var = math.fsum(((vals - mean) ** 2).tolist()) / (n - 1) if n > 1 else 0.0
    return mean, math.sqrt(var / n)


def forest_exceedances(
    leaf_tree: np.ndarray, leaf_positions: np.ndarray, n_trees: int, t: float, u_grid
) -> np.ndarray:
    """``count_exceedances`` of every tree of a forest, shape (n_trees,
    len(u_grid)), ``leaf_tree`` giving each leaf's tree.  A leaf falls in
    cell (tree, number of u below its centered position); N_u of the j-th
    u counts the leaves of the tree's cells above j."""
    u_grid = np.asarray(u_grid, dtype=np.float64)
    if np.any(np.diff(u_grid) < 0):
        raise ValueError("u_grid must be sorted ascending")
    width = len(u_grid) + 1
    centered = leaf_positions - centering(t, "tilde")
    # a leaf at or below the lowest u counts for no N_u; on the grids in
    # use that is nearly every leaf, so drop those first
    keep = (centered > u_grid.min(initial=np.inf)).nonzero()[0]
    centered = centered[keep]
    # the smallest integer type that counts to len(u_grid) adds fastest
    below = np.zeros(len(keep), np.min_scalar_type(len(u_grid)))
    for u in u_grid.tolist():
        below += centered > u
    cells = np.bincount(leaf_tree[keep] * width + below, minlength=n_trees * width).reshape(n_trees, width)
    return cells[:, :0:-1].cumsum(axis=1)[:, ::-1]


def forest_summaries(
    leaf_tree: np.ndarray, leaf_positions: np.ndarray, n_trees: int, t: float, u_grid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-tree statistics of the leaves of a forest, by segmented
    reductions: n_leaves and max_centered of shape (n_trees,), and the
    ``forest_exceedances``.  ``leaf_tree`` gives the tree of each leaf.
    Counts and maxima are taken per run of equal ``leaf_tree`` first
    (``_tree_runs``), so only the few run results are scattered into
    trees."""
    counts = forest_exceedances(leaf_tree, leaf_positions, n_trees, t, u_grid)
    starts = _tree_runs(leaf_tree)
    # run lengths summed per tree; float sums of counts below 2**53 are exact
    run_lengths = np.diff(starts, append=len(leaf_tree))
    n_leaves = np.bincount(leaf_tree[starts], weights=run_lengths, minlength=n_trees).astype(np.intp)
    top = _tree_max(leaf_tree, leaf_positions, n_trees, starts)
    return n_leaves, top - centering(t, "tilde"), counts


def _tree_runs(leaf_tree: np.ndarray) -> np.ndarray:
    """Starts of the runs of equal ``leaf_tree``.  Leaves are wave-major,
    so the leaves of one tree in one wave form one run, and a forest of n
    trees over w waves has at most n * w runs, however many leaves."""
    change = np.empty(len(leaf_tree), dtype=bool)
    change[:1] = True
    np.not_equal(leaf_tree[1:], leaf_tree[:-1], out=change[1:])
    return change.nonzero()[0]


def _tree_max(leaf_tree, values, n_trees, starts) -> np.ndarray:
    """Per-tree maximum of ``values``, -inf for a tree with no leaf: one
    ``maximum.reduceat`` over the runs ``starts`` of ``_tree_runs``, then
    the run maxima into their trees."""
    top = np.full(n_trees, -np.inf)
    np.maximum.at(top, leaf_tree[starts], np.maximum.reduceat(values, starts))
    return top


def _check_identity(profile: SpeedProfile) -> None:
    """The martingale is one of standard BBM: the profile must equal x on
    [0, 1], whatever its label."""
    grid = np.linspace(0.0, 1.0, 257)
    if not np.allclose(profile(grid), grid, rtol=0.0, atol=1e-12):
        raise ValueError("McKean martingale is defined for standard BBM (identity profile)")


def forest_mckean(
    leaf_tree: np.ndarray,
    leaf_positions: np.ndarray,
    n_trees: int,
    profile: SpeedProfile,
    s: float,
    sigma_b: float,
) -> np.ndarray:
    """``mckean_martingale`` of every tree of a forest at time s: a segmented
    max and log-sum-exp over the leaves, ``leaf_tree`` giving each leaf's
    tree.  ``profile`` is the one the positions were sampled with."""
    _check_identity(profile)
    if sigma_b < 0:
        raise ValueError("sigma_b must be nonnegative")
    if sigma_b >= 1:
        warnings.warn("sigma_b >= 1: martingale is not uniformly integrable", stacklevel=3)
    exponents = -s * (1.0 + sigma_b**2) + SQRT2 * sigma_b * leaf_positions
    top = _tree_max(leaf_tree, exponents, n_trees, _tree_runs(leaf_tree))
    total = np.bincount(leaf_tree, weights=np.exp(exponents - top[leaf_tree]), minlength=n_trees)
    return np.exp(top + np.log(total))


def mckean_martingale(config: ParticleConfiguration, sigma_b: float) -> float:
    """Exponential additive martingale of standard BBM at time s:

        Y = sum_i exp(-s (1 + sigma_b^2) + sqrt(2) sigma_b x_i(s)),

    computed with log-sum-exp.  Requires a configuration sampled with a
    profile equal to the identity; sigma_b >= 1 is allowed but flagged (the
    martingale is not uniformly integrable there).
    """
    one_tree = np.zeros(config.n_leaves, dtype=np.intp)
    return float(
        forest_mckean(one_tree, config.leaf_positions, 1, config.profile, config.horizon, sigma_b)[0]
    )
