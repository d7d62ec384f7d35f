"""simulate's replicates against the exact law from the F-KPP solver.

For the identity profile, u(t, x) = P(M_t > x) solves the F-KPP equation of
``fkpp`` from u(0, x) = 1{x < 0}, whatever the offspring law, and the same
kernel started from (1 - z) 1{x < 0} gives 1 - E z^{N_x}, N_x the number of
particles above x.  So the law of simulate's maximum and its exceedance
counts have a ground truth, not just another Monte Carlo sample.

The seed, the grid and both thresholds were fixed before the first run:
seed 7 for both laws, 2e4 replicates at t = 6, dx = 0.05 with the initial
jump between grid points (x_min = -50 - dx/2).  Each statistic is gated at
a false-alarm rate near 1e-3: sqrt(n) D <= 1.95 for the Kolmogorov-Smirnov
distance, and the chi-square(9) quantile at p = 1e-3 for the combined
statistic of the nine E z^{N_u} cells.  The cells of one run share its
trees and move together, so they are gated jointly, by the Mahalanobis
distance under the replicates' own covariance, never cell by cell.  The
solver's own error at dx = 0.05 (about 1e-3 in the maximum's mean) is a
small fraction of the Monte Carlo standard error at this size.
"""

import math
from functools import cache

import numpy as np
import pytest
from scipy.stats import chi2

from vsbbm.extremal import centering
from vsbbm import fkpp
from vsbbm.fkpp import SQRT2, _check_range, _ExplicitStep, solve_heaviside
from vsbbm.genealogy import OffspringDistribution, run_replicates
from vsbbm.runner import _simulate_replicates
from vsbbm.sampler import block_size
from vsbbm.speed import identity_profile

LAWS = {
    "binary": OffspringDistribution.binary(),
    "1,3": OffspringDistribution(np.array([1, 3]), np.array([0.5, 0.5])),
}
T, REPLICATES, SEED = 6.0, 20_000, 7
DX = 0.05
X_MIN, X_MAX = -50.0 - DX / 2.0, SQRT2 * T + 40.0
U_GRID = (-1.0, 0.0, 1.0)
C_GRID = (0.1, 0.5, 2.0)
KS_MAX = 1.95
CHI2_MAX = chi2.isf(1e-3, len(U_GRID) * len(C_GRID))


@cache
def _replicates(law: str):
    """max_centered and the counts N_u over U_GRID of simulate's replicates."""
    common = (SEED, T, identity_profile(), LAWS[law], np.array(U_GRID))
    rows = run_replicates(_simulate_replicates, common, REPLICATES, 1, block_size(T))
    top = np.array([r[1] for r in rows])
    counts = np.array([r[2] for r in rows])
    return top, counts


def _solve(law: str, z: float, x_min: float = X_MIN):
    """u(T, x) from u(0, x) = (1 - z) 1{x <= 0}, u = 1 at the left edge
    x_min and 0 at the right, by the solver's kernel and step size.  No
    point of the default grid is 0, so its jump lies between two points."""
    x = np.arange(x_min, X_MAX + DX / 2.0, DX)
    u = (1.0 - z) * (x <= 0.0)
    u[0], u[-1] = 1.0, 0.0
    n_steps = round(T / (DX * DX / 4.0))
    _ExplicitStep(u, LAWS[law], DX, T / n_steps)(n_steps)
    _check_range(u)
    return x, u


def test_kernel_from_zero_height_is_solve_heaviside():
    # the test's own stepping loop at z = 0, on the solver's grid, is the
    # solver bit for bit
    for law in LAWS:
        x, u = _solve(law, 0.0, x_min=fkpp.X_MIN)
        state = solve_heaviside(LAWS[law], T, x_max=X_MAX, dx=DX)
        assert np.array_equal(x, state.x)
        assert np.array_equal(u, state.u)


@pytest.mark.parametrize("law", list(LAWS))
def test_maximum_has_the_pde_law(law):
    x, u = _solve(law, 0.0)
    top, _ = _replicates(law)
    y = np.sort(top)
    # P(M - m(T) <= y) = 1 - u(T, m(T) + y)
    cdf = 1.0 - np.interp(y + centering(T, "tilde"), x, u)
    n = len(y)
    d = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
    assert math.sqrt(n) * d <= KS_MAX


@pytest.mark.parametrize("law", list(LAWS))
def test_exceedance_counts_have_the_pde_law(law):
    _, counts = _replicates(law)
    m = centering(T, "tilde")
    cells, exact = [], []
    for c in C_GRID:
        x, u = _solve(law, math.exp(-c))
        cells.append(np.exp(-c * counts))
        exact.append(1.0 - np.interp(m + np.array(U_GRID), x, u))
    cells, exact = np.hstack(cells), np.concatenate(exact)
    gap = cells.mean(axis=0) - exact
    cov = np.cov(cells, rowvar=False)
    stat = len(cells) * gap @ np.linalg.solve(cov, gap)
    assert stat <= CHI2_MAX
