"""Gaussian-comparison experiment: couple a profile with its envelopes on a
shared genealogy and test the Laplace-transform sandwich empirically.
``collect_exceedances`` runs on ``sampler.forest_batches``, as ``simulate``
does: every profile is placed on the replicate's tree from one draw of
its ``gauss`` stream, so the sandwich differences are paired, and
``sandwich_report`` checks and reports them.

The o(1) corrections of the limit statement are untestable at fixed t; the
acceptance band is three combined standard errors, and raw gaps are always
reported so t-trends can be studied.
"""

from __future__ import annotations

import math

import numpy as np

from vsbbm.extremal import empirical_laplace, forest_exceedances, mean_and_se
from vsbbm.genealogy import OffspringDistribution, run_replicates
from vsbbm.sampler import forest_batches
from vsbbm.speed import SpeedProfile


def _exceedances(offspring, profiles, t, u_grid, seed, reps):
    """Per replicate of ``reps``: the exceedance counts of every profile on
    one tree from its ``tree`` stream, placed from one ``gauss`` draw."""
    streams = {"gauss": tuple(profiles.values())}
    rows = []
    for leaf_tree, (stacked,), n in forest_batches(seed, t, offspring, streams, reps):
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
    shared trees (trees redrawn per replicate) and on one shared standard
    normal draw per tree (the replicate's ``gauss`` stream), so each
    profile's counts have their own law and differences are paired."""
    u_grid = np.asarray(u_grid, dtype=np.float64)
    rows = run_replicates(_exceedances, (offspring, profiles, t, u_grid, seed), replicates, workers)
    counts = np.array(rows, dtype=np.int64).reshape(replicates, len(profiles), len(u_grid))
    return {name: counts[:, i] for i, name in enumerate(profiles)}


def sandwich_report(
    counts_a: np.ndarray,
    counts_upper: np.ndarray,
    counts_lower: np.ndarray,
    u_grid,
    c_grid,
    n_se: float = 3.0,
) -> dict:
    """Per-cell sandwich check L_lower - n_se*SE <= L_A <= L_upper + n_se*SE.

    The SE in each one-sided check combines both estimators in quadrature.
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
    cells = []
    n_pass = 0
    for i, u in enumerate(u_grid):
        for c in c_grid:
            la, se_a = empirical_laplace(counts_a[:, [i]], [c])
            lu, se_u = empirical_laplace(counts_upper[:, [i]], [c])
            ll, se_l = empirical_laplace(counts_lower[:, [i]], [c])
            # exp(-c N_u) per replicate, for the paired SE of each gap
            e_a, e_up, e_low = (np.exp(-c * m[:, i]) for m in (counts_a, counts_upper, counts_lower))
            se_up = math.hypot(se_a, se_u)
            se_lo = math.hypot(se_a, se_l)
            pass_upper = la <= lu + n_se * se_up
            pass_lower = la >= ll - n_se * se_lo
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
        "n_se": n_se,
    }
