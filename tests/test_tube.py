import math

import numpy as np
import pytest

from vsbbm.genealogy import OffspringDistribution, tree_rng
from vsbbm.speed import identity_profile, sigma2, two_speed
from vsbbm.tube import (
    BRIDGE_CHUNK,
    TubeSpec,
    bridge_violation_bound,
    empirical_bridge_violation,
    extreme_particle_localization,
    first_moment_constant,
    in_tube,
    sample_bridge,
    tube_deviation,
)

BINARY = OffspringDistribution.binary()


def test_tubespec_validation():
    with pytest.raises(ValueError):
        TubeSpec(gamma=0.5, r=1.0, t=10.0)
    with pytest.raises(ValueError):
        TubeSpec(gamma=0.75, r=-1.0, t=10.0)
    TubeSpec(gamma=0.75, r=0.0, t=10.0)


def test_in_tube_zero_path():
    spec = TubeSpec(gamma=0.75, r=1.0, t=10.0)
    times = np.linspace(0, 10.0, 512)
    assert in_tube(times, np.zeros_like(times), spec, identity_profile())


def test_in_tube_ray_path():
    spec = TubeSpec(gamma=0.6, r=1.0, t=10.0)
    prof = two_speed(0.5, 2.0, 2.0 / 3.0)
    times = np.linspace(0, 10.0, 600)
    endpoint = 7.3
    ray = np.asarray(sigma2(prof, times, 10.0)) / 10.0 * endpoint
    assert in_tube(times, ray, spec, prof)


def test_in_tube_planted_violation():
    spec = TubeSpec(gamma=0.75, r=1.0, t=10.0)
    times = np.linspace(0, 10.0, 512)
    path = np.zeros_like(times)
    j = 256  # middle of the window
    bound = min(times[j], 10.0 - times[j]) ** 0.75
    path[j] = bound + 1.0
    assert not in_tube(times, path, spec, identity_profile())
    excess = tube_deviation(times, path, path[-1], spec, identity_profile())
    assert (excess >= 0).sum() == 1


def test_in_tube_coarse_grid_rejected():
    spec = TubeSpec(gamma=0.75, r=1.0, t=10.0)
    times = np.linspace(0, 10.0, 20)
    with pytest.raises(ValueError):
        in_tube(times, np.zeros_like(times), spec, identity_profile())


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


def test_sample_bridge_pinned_and_variance():
    rng = tree_rng(5)
    t, n = 9.0, 256
    times, xi = sample_bridge(t, n, rng, 4000)
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


def test_localization_no_exceedance():
    spec = TubeSpec(gamma=0.75, r=2.0, t=6.0)
    rate, se = extreme_particle_localization(
        BINARY, identity_profile(), d=50.0, spec=spec, replicates=50, seed=21
    )
    assert rate == 0.0


def test_localization_first_moment_bound(tmp_path):
    spec = TubeSpec(gamma=0.75, r=2.0, t=10.0)
    report = tmp_path / "violations.csv"
    rate, se = extreme_particle_localization(
        BINARY,
        identity_profile(),
        d=0.0,
        spec=spec,
        replicates=500,
        seed=22,
        report_csv=report,
    )
    bound = first_moment_constant(0.0) * bridge_violation_bound(2.0, 0.75)
    assert rate <= min(1.0, bound) + 3 * se
    rows = report.read_text().splitlines()
    assert rows[0] == "replicate,violated,first_violation_time"
    assert len(rows) == 501
