import math
import time

import numpy as np
import pytest

from vsbbm.genealogy import tree_rng
from vsbbm.tube import (
    BRIDGE_CHUNK,
    bridge_violation_bound,
    empirical_bridge_violation,
    first_moment_constant,
    grid_window,
    sample_bridge,
    series_terms,
)


def test_bridge_violation_bound_value():
    # direct summation oracle: 8 sum_{k>=16} k^{-1/2} e^{-k/2}
    assert bridge_violation_bound(16.0, 1.0) == pytest.approx(0.0016352317054630354, rel=1e-12)


def test_bridge_violation_bound_monotone_in_r():
    vals = [bridge_violation_bound(r, 0.75) for r in (10.0, 20.0, 40.0)]
    assert vals[0] > vals[1] > vals[2]
    assert bridge_violation_bound(5.0, 0.9) >= bridge_violation_bound(6.0, 0.9)


def test_bridge_violation_bound_first_term():
    # floor(r) -> floor(r)+1 drops exactly the first series term
    r, g = 12.0, 0.8
    k = math.floor(r)
    first = 8.0 * k ** (0.5 - g) * math.exp(-(k ** (2 * g - 1)) / 2.0)
    assert bridge_violation_bound(r, g) - bridge_violation_bound(r + 1, g) == pytest.approx(
        first, rel=1e-12
    )


def test_bridge_violation_bound_validation():
    with pytest.raises(ValueError):
        bridge_violation_bound(10.0, 0.5)
    with pytest.raises(ValueError):
        bridge_violation_bound(0.5, 0.75)


def _summed_terms(r, g):
    """The terms the plain loop sums: until one falls below 1e-16 of the
    partial sum."""
    k, total, n = math.floor(r), 0.0, 0
    while True:
        term = 8.0 * k ** (0.5 - g) * math.exp(-(k ** (2 * g - 1)) / 2.0)
        total, k, n = total + term, k + 1, n + 1
        if term < 1e-16 * total:
            return n


def test_bridge_violation_bound_counts_its_terms():
    # near gamma = 1/2 the series takes billions of terms: the bound raises
    # at once instead of summing them, and the values it admits are those
    # of the plain loop, bit for bit
    start = time.perf_counter()
    with pytest.raises(ValueError, match="terms"):
        bridge_violation_bound(10.0, 0.6)
    assert time.perf_counter() - start < 1.0
    assert bridge_violation_bound(10.0, 0.75) == 15.200777644582942
    assert bridge_violation_bound(10.0, 0.65) == 296.2668937334755
    for r, g in ((10.0, 0.75), (10.0, 0.7), (1.0, 0.75), (16.0, 1.0), (5.0, 0.9), (40.0, 0.8)):
        assert _summed_terms(r, g) <= series_terms(r, g) < 2 * _summed_terms(r, g)
    # a first term that underflows to 0 no longer keeps the sum going
    assert bridge_violation_bound(1e6, 1.0) == 0.0


def test_sample_bridge_pinned_and_variance():
    rng = tree_rng(5)
    t, n = 9.0, 256
    times, xi = sample_bridge(t, n, rng, 4000)
    # the draws of seed scheme v4: a change to the bridge's stream, its
    # increments or its pinning to 0 at t changes them
    assert [float(xi[0, 1]), float(xi[0, 85]), float(xi[3999, 128]), float(xi[1234, 255])] == [
        0.06794586674215297,
        1.9324529100038224,
        2.3999160644802475,
        0.009103551160617784,
    ]
    assert np.all(xi[:, 0] == 0.0)
    assert np.all(xi[:, -1] == 0.0)
    j = n // 3
    s = times[j]
    target = s * (t - s) / t
    var = xi[:, j].var(ddof=1)
    assert abs(var - target) < 3 * target * math.sqrt(2.0 / 3999)


def test_empirical_bridge_violation_chunks_match_one_draw():
    # 2.5 chunks: the chunked rate and SE are those of one sample_bridge call
    t, r, gamma, n_steps, seed = 30.0, 4.0, 0.55, 64, 8
    reps = 5 * BRIDGE_CHUNK // 2
    times, xi = sample_bridge(t, n_steps, tree_rng(seed), reps)
    window = (times >= r) & (times <= t - r)
    rate = np.any(np.abs(xi[:, window]) > np.minimum(times, t - times)[window] ** gamma, axis=1).mean()
    se = math.sqrt(rate * (1.0 - rate) / reps)
    assert 0.0 < rate < 1.0
    assert empirical_bridge_violation(t, r, gamma, reps, seed, n_steps) == (rate, se)


@pytest.mark.parametrize(
    "t,r,n_steps,first",
    [
        (8.0, 0.0, 8, 0),  # the window starts at grid point 0 (pinned at 0)
        (8.0, -1.0, 9, 0),  # ... and takes in the endpoint t, also pinned
        (8.0, 1.0, 8, 1),  # starts at grid point 1, whose walk is column 0
        (8.0, 0.5, 7, 1),
        (30.0, 10.0, 64, 22),
        (30.0, 4.0, 33, 5),
    ],
)
def test_empirical_bridge_violation_windowed_matches_sample_bridge(t, r, n_steps, first):
    # xi built on the window's columns, in place, chunk by chunk, gives
    # bit for bit the rate and SE of sample_bridge's bridges over the mask
    gamma, seed = 0.55, 21
    reps = 5 * BRIDGE_CHUNK // 2
    times, xi = sample_bridge(t, n_steps, tree_rng(seed), reps)
    mask = (times >= r) & (times <= t - r)
    assert mask.nonzero()[0][0] == first
    assert np.array_equal(mask.nonzero()[0], np.arange(n_steps + 1)[grid_window(t, r, n_steps)])
    rate = np.any(np.abs(xi[:, mask]) > np.minimum(times, t - times)[mask] ** gamma, axis=1).mean()
    se = math.sqrt(rate * (1.0 - rate) / reps)
    assert 0.0 < rate < 1.0
    assert np.array_equal(empirical_bridge_violation(t, r, gamma, reps, seed, n_steps), (rate, se))


def test_grid_window_is_the_mask_rule():
    for t, r, n_steps in [(30.0, 10.0, 512), (30.0, 14.9, 3), (30.0, 15.0, 2), (10.0, 6.0, 512), (5.0, 0.0, 5)]:
        times = np.linspace(0.0, t, n_steps + 1)
        mask = (times >= r) & (times <= t - r)
        assert np.array_equal(np.arange(n_steps + 1)[grid_window(t, r, n_steps)], mask.nonzero()[0])
    assert grid_window(30.0, 14.9, 3) == slice(0, 0)
    assert grid_window(30.0, 15.0, 2) == slice(1, 2)


def test_empirical_bridge_violation_bounded_by_series():
    rate, se = empirical_bridge_violation(30.0, 10.0, 0.75, replicates=2000, seed=3)
    assert rate <= bridge_violation_bound(10.0, 0.75) + 3 * se


def test_empirical_bridge_violation_empty_window():
    rate, se = empirical_bridge_violation(10.0, 6.0, 0.75, replicates=100, seed=1)
    assert rate == 0.0 and se == 0.0


def test_violation_rate_monotone_in_gamma():
    r_soft, _ = empirical_bridge_violation(20.0, 2.0, 0.51, replicates=2000, seed=9)
    r_hard, _ = empirical_bridge_violation(20.0, 2.0, 0.9, replicates=2000, seed=9)
    assert r_soft >= r_hard


def test_bridge_reflection_symmetry():
    rng = tree_rng(11)
    t, r, g = 20.0, 2.0, 0.75
    times, xi = sample_bridge(t, 512, rng, 2000)
    window = (times >= r) & (times <= t - r)
    bound = np.minimum(times, t - times)[window] ** g
    rate_pos = np.any(np.abs(xi[:, window]) > bound, axis=1).mean()
    rate_neg = np.any(np.abs(-xi[:, window]) > bound, axis=1).mean()
    assert rate_pos == rate_neg  # |.| makes this exact


def test_bridge_independent_of_endpoint():
    # decompose a BM into bridge + ray and check the parts are uncorrelated
    rng = tree_rng(13)
    t, n_steps, reps = 10.0, 128, 10**4
    inc = rng.standard_normal((reps, n_steps)) * math.sqrt(t / n_steps)
    w = np.cumsum(inc, axis=1)
    endpoint = w[:, -1]
    mid = w[:, n_steps // 2 - 1]
    xi_mid = mid - 0.5 * endpoint
    rho = np.corrcoef(xi_mid, endpoint)[0, 1]
    assert abs(rho) <= 3.0 / math.sqrt(reps)


def test_first_moment_constant():
    m0 = first_moment_constant(0.0)
    assert m0 == pytest.approx(0.31066603828134876, rel=1e-6)
    assert first_moment_constant(1.0) < m0
    assert first_moment_constant(2.0) < first_moment_constant(1.0)
