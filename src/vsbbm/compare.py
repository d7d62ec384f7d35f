"""Gaussian-comparison experiment: couple a profile with its envelopes on a
shared genealogy and test the Laplace-transform sandwich empirically.
``collect_exceedances`` runs on ``sampler.forest_batches``, as ``simulate``
does: every profile is placed on the replicate's tree from one draw of
its block's ``gauss`` stream, so the sandwich differences are paired, and
``sandwich_report`` checks and reports them.

The o(1) corrections of the limit statement are untestable at fixed t; the
acceptance band is three combined standard errors, and raw gaps are always
reported so t-trends can be studied.
"""

from __future__ import annotations

import math

import numpy as np

from vsbbm.extremal import forest_exceedances, mean_and_se
from vsbbm.genealogy import OffspringDistribution, run_replicates
from vsbbm.sampler import block_size, forest_batches
from vsbbm.speed import SpeedProfile

N_SE = 3.0

def _exceedances(offspring, profiles, t, u_grid, seed, blocks):
    """Per replicate of the forest blocks ``blocks``: the exceedance counts
    of every profile on its tree, grown in its block's ``tree`` run and
    placed from one draw of the block's ``gauss`` stream."""
    rows = []
    for leaf_tree, stacked, n in forest_batches(seed, t, offspring, tuple(profiles.values()), blocks):
        counts = [forest_exceedances(leaf_tree, pos, n, t, u_grid) for pos in stacked]
        rows += np.stack(counts, axis=1).tolist()
    return rows


def collect_exceedances(
    offspring: OffspringDistribution,
    profiles: dict[str, SpeedProfile],
    t: float,
    u_grid,
    replicates: int,
    seed: int,
    workers: int = 1,
) -> dict[str, np.ndarray]:
    """Replicate exceedance-count matrices for several profiles coupled on
    shared trees (an independent tree per replicate, grown in forest
    blocks of ``sampler.block_size(t)``) and on one shared standard normal
    per node (the block's ``gauss`` stream), so each profile's counts have
    their own law and differences are paired."""
    u_grid = np.asarray(u_grid, dtype=np.float64)
    common = (offspring, profiles, t, u_grid, seed)
    rows = run_replicates(_exceedances, common, replicates, workers, block_size(t))
    counts = np.array(rows, dtype=np.int64).reshape(replicates, len(profiles), len(u_grid))
    return {name: counts[:, i] for i, name in enumerate(profiles)}


def sandwich_report(
    counts_a: np.ndarray,
    counts_upper: np.ndarray,
    counts_lower: np.ndarray,
    u_grid,
    c_grid,
) -> dict:
    """Per-cell sandwich check L_lower - N_SE*SE <= L_A <= L_upper + N_SE*SE.

    The SE in each one-sided check combines both estimators in quadrature.
    Each estimate L = E exp(-c N_u) is the sample mean of exp(-c N_u) over
    the replicates, with its standard error (``extremal.mean_and_se``).
    Returns a JSON-ready report with per-cell estimates, gaps, and
    PASS/FAIL flags plus an aggregate count.  Each cell also reports
    ``SE_gap_upper`` and ``SE_gap_lower``, the SE of the per-replicate
    difference behind each gap: the gap's own noise when the three count
    matrices come from the same replicates.  It does not enter the check.
    """
    u_grid = list(np.asarray(u_grid, dtype=np.float64))
    c_grid = list(np.asarray(c_grid, dtype=np.float64))
    if not (counts_a.shape == counts_upper.shape == counts_lower.shape):
        raise ValueError("mismatched replicate count matrices")
    if len(counts_a) == 0:
        raise ValueError("no replicates")
    if min(c_grid, default=0.0) < 0:
        raise ValueError("Laplace weights c must be nonnegative")
    cells = []
    n_pass = 0
    for i, u in enumerate(u_grid):
        for c in c_grid:
            # exp(-c N_u) per replicate: each L and its SE, and the paired
            # SE of each gap
            e_a, e_up, e_low = (np.exp(-c * m[:, i]) for m in (counts_a, counts_upper, counts_lower))
            (la, se_a), (lu, se_u), (ll, se_l) = map(mean_and_se, (e_a, e_up, e_low))
            se_up = math.hypot(se_a, se_u)
            se_lo = math.hypot(se_a, se_l)
            pass_upper = la <= lu + N_SE * se_up
            pass_lower = la >= ll - N_SE * se_lo
            n_pass += pass_upper and pass_lower
            cells.append(
                {
                    "u": u,
                    "c": c,
                    "L_A": la,
                    "L_up": lu,
                    "L_low": ll,
                    "SE_A": se_a,
                    "SE_up": se_u,
                    "SE_low": se_l,
                    "gap_upper": lu - la,
                    "gap_lower": la - ll,
                    "SE_gap_upper": mean_and_se(e_up - e_a)[1],
                    "SE_gap_lower": mean_and_se(e_a - e_low)[1],
                    "pass_upper": bool(pass_upper),
                    "pass_lower": bool(pass_lower),
                }
            )
    return {
        "cells": cells,
        "n_cells": len(cells),
        "n_pass": int(n_pass),
        "n_se": N_SE,
    }
