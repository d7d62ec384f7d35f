import math
from dataclasses import replace

import numpy as np
import pytest

from vsbbm.extremal import (
    ReplicateSummary,
    centering,
    count_exceedances,
    empirical_laplace,
    forest_mckean,
    forest_summaries,
    mckean_martingale,
    summarize,
)
from vsbbm.genealogy import OffspringDistribution, sample_forest, sample_tree, tree_rng
from vsbbm.sampler import ParticleConfiguration, forest_leaf_positions, sample_leaf_positions
from vsbbm.speed import identity_profile, piecewise_linear, two_speed

BINARY = OffspringDistribution.binary()
SQRT2 = math.sqrt(2.0)


def make_config(t=4.0, seed=1, profile=None):
    profile = profile or identity_profile()
    tree = sample_tree(BINARY, t, seed=seed)
    pos = sample_leaf_positions(tree, profile, t, tree_rng(seed + 1000))
    return ParticleConfiguration(profile=profile, horizon=t, leaf_positions=pos)


def test_centering_values():
    assert centering(100.0, "tilde") == pytest.approx(139.79318270379437, abs=1e-9)
    assert centering(100.0, "standard") == pytest.approx(136.53683563676407, abs=1e-9)
    for t in (2.0, 17.3, 400.0):
        diff = centering(t, "tilde") - centering(t, "standard")
        assert diff == pytest.approx(math.log(t) / SQRT2, abs=1e-12)
    with pytest.raises(ValueError):
        centering(1.0, "tilde")
    with pytest.raises(ValueError):
        centering(10.0, "nope")


def test_count_exceedances_extremes():
    cfg = make_config()
    m = centering(cfg.horizon, "tilde")
    lo = float(cfg.leaf_positions.min() - m) - 1.0
    hi = float(cfg.leaf_positions.max() - m) + 1.0
    counts = count_exceedances(cfg, np.array([lo, hi]))
    assert counts[0] == cfg.n_leaves
    assert counts[1] == 0


def test_count_exceedances_bruteforce():
    cfg = make_config(seed=7)
    m = centering(cfg.horizon, "tilde")
    u_grid = np.linspace(-8, 4, 25)
    counts = count_exceedances(cfg, u_grid)
    brute = [sum(1 for x in cfg.leaf_positions if x - m > u) for u in u_grid]
    assert counts.tolist() == brute
    assert np.all(np.diff(counts) <= 0)
    # max > u iff N_u >= 1
    mx = cfg.leaf_positions.max() - m
    assert all((mx > u) == (c >= 1) for u, c in zip(u_grid, counts))
    with pytest.raises(ValueError):
        count_exceedances(cfg, np.array([1.0, 0.0]))


def test_monotone_coupling_under_shift():
    cfg = make_config(seed=13)
    shift = 1.7
    shifted = ParticleConfiguration(
        profile=cfg.profile,
        horizon=cfg.horizon,
        leaf_positions=cfg.leaf_positions + shift,
    )
    u = np.array([-1.0, 0.0, 1.0])
    assert np.array_equal(
        count_exceedances(shifted, u), count_exceedances(cfg, u - shift)
    )


def count_matrix(u, seeds):
    """Exceedance counts of one configuration per seed, replicates x len(u)."""
    return np.array([count_exceedances(make_config(seed=s), u) for s in seeds])


def test_empirical_laplace_zero_weights():
    counts = count_matrix(np.array([0.0]), range(5))
    est, se = empirical_laplace(counts, np.array([0.0]))
    assert est == 1.0 and se == 0.0


def test_empirical_laplace_large_c_is_indicator():
    counts = count_matrix(np.array([-1.0]), range(60))
    est, _ = empirical_laplace(counts, np.array([50.0]))
    indicator = np.mean(counts[:, 0] == 0)
    assert abs(est - indicator) < 1e-6


def test_empirical_laplace_scalar_recomputation():
    counts = count_matrix(np.array([0.5]), range(100))
    est, se = empirical_laplace(counts, np.array([1.0]))
    vals = [float(np.exp(-float(n))) for n in counts[:, 0]]
    mean = math.fsum(vals) / 100
    var = math.fsum((v - mean) ** 2 for v in vals) / 99
    assert est == mean
    assert se == math.sqrt(var / 100)


def test_empirical_laplace_zero_weight_column_drops_out():
    counts = count_matrix(np.array([0.0, 1.0]), range(30))
    assert empirical_laplace(counts, np.array([0.7, 0.0])) == empirical_laplace(
        counts[:, [0]], np.array([0.7])
    )


def test_empirical_laplace_validation():
    counts = count_matrix(np.array([0.0]), [1])
    with pytest.raises(ValueError):
        empirical_laplace(np.empty((0, 1), dtype=np.int64), np.array([1.0]))
    with pytest.raises(ValueError):
        empirical_laplace(counts, np.array([-1.0]))
    with pytest.raises(ValueError):
        empirical_laplace(counts, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        empirical_laplace(counts[:, 0], np.array([1.0]))


def test_laplace_order_independence():
    counts = count_matrix(np.array([0.0]), range(40))
    a = empirical_laplace(counts, np.array([0.7]))
    b = empirical_laplace(counts[::-1], np.array([0.7]))
    assert abs(a[0] - b[0]) < 1e-12


def test_mckean_sigma0_counts_particles():
    cfg = make_config(t=5.0, seed=21)
    val = mckean_martingale(cfg, 0.0)
    assert val == pytest.approx(cfg.n_leaves * math.exp(-5.0), rel=1e-12)


def test_mckean_single_particle_formula():
    s, x = 3.0, 1.234
    cfg = ParticleConfiguration(profile=identity_profile(), horizon=s, leaf_positions=np.array([x]))
    sb = 0.4
    expected = math.exp(-s * (1 + sb**2) + SQRT2 * sb * x)
    assert mckean_martingale(cfg, sb) == pytest.approx(expected, rel=1e-12)


def test_mckean_mean_one():
    s, reps, sb = 4.0, 3000, 0.3
    rng = tree_rng(77)
    prof = identity_profile()
    vals = np.empty(reps)
    for i in range(reps):
        tree = sample_tree(BINARY, s, seed=0, rng=rng)
        pos = sample_leaf_positions(tree, prof, s, rng)
        cfg = ParticleConfiguration(profile=prof, horizon=s, leaf_positions=pos)
        vals[i] = mckean_martingale(cfg, sb)
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - 1.0) < 3 * se


def test_mckean_requires_identity_profile():
    cfg = make_config(profile=two_speed(0.5, 2.0, 2.0 / 3.0))
    with pytest.raises(ValueError):
        mckean_martingale(cfg, 0.3)


def test_mckean_checks_profile_values_not_label():
    cfg = make_config(seed=5)
    same = ParticleConfiguration(
        profile=piecewise_linear([0.0, 1.0], [0.0, 1.0]),
        horizon=cfg.horizon,
        leaf_positions=cfg.leaf_positions,
    )
    assert same.profile.label != "identity"
    assert mckean_martingale(same, 0.3) == mckean_martingale(cfg, 0.3)
    relabelled = make_config(profile=replace(two_speed(0.5, 2.0, 2.0 / 3.0), label="identity"))
    with pytest.raises(ValueError, match="identity"):
        mckean_martingale(relabelled, 0.3)
    n = relabelled.n_leaves
    with pytest.raises(ValueError, match="identity"):
        forest_mckean(np.zeros(n, dtype=int), relabelled.leaf_positions, 1, relabelled.profile, 4.0, 0.3)


def test_forest_reductions_match_trees_alone():
    # the reductions of each tree of a forest equal the one-tree reductions
    # of its leaves taken alone
    t, n, u = 4.0, 30, np.array([-2.0, -0.5, 0.0, 1.0])
    prof = identity_profile()
    forest = sample_forest(BINARY, t, tree_rng(3), starts=np.zeros(n))
    (pos,) = forest_leaf_positions(forest, (prof,), t, tree_rng(1003))
    leaf_tree = forest.leaf_tree
    m = centering(t, "tilde")
    # a u equal to the top leaf's centered position, above the lowest u:
    # N_u counts strictly above it
    tie = pos.max() - m
    assert tie > u[0]
    u = np.sort(np.append(u, tie))
    n_leaves, top, counts = forest_summaries(leaf_tree, pos, n, t, u)
    mart = forest_mckean(leaf_tree, pos, n, prof, t, 0.4)
    for r in range(n):
        cfg = ParticleConfiguration(profile=prof, horizon=t, leaf_positions=pos[leaf_tree == r])
        assert n_leaves[r] == cfg.n_leaves >= 1
        assert top[r] == cfg.leaf_positions.max() - m
        assert np.array_equal(counts[r], count_exceedances(cfg, u))
        direct = math.fsum(np.exp(-t * (1 + 0.4**2) + math.sqrt(2) * 0.4 * cfg.leaf_positions))
        assert mart[r] == pytest.approx(direct, rel=1e-13)
    with pytest.raises(ValueError, match="sorted"):
        forest_summaries(leaf_tree, pos, n, t, u[::-1])


@pytest.mark.parametrize("n_trees", [1, 2, 55])
def test_forest_summaries_match_leaf_by_leaf_oracle(n_trees):
    # the run-wise counts and maxima are bit for bit those of a bincount
    # and an np.maximum.at over every leaf, for forest_summaries and for
    # the max shift inside forest_mckean; leaves are wave-major, so with
    # several trees they interleave in runs
    t, u = 5.0, np.array([-2.0, 0.0, 1.0])
    prof = identity_profile()
    forest = sample_forest(BINARY, t, tree_rng(8), starts=np.zeros(n_trees))
    (pos,) = forest_leaf_positions(forest, (prof,), t, tree_rng(70))
    leaf_tree = forest.leaf_tree
    if n_trees > 1:
        assert np.count_nonzero(np.diff(leaf_tree)) > n_trees - 1
    n_leaves, top, counts = forest_summaries(leaf_tree, pos, n_trees, t, u)
    want_top = np.full(n_trees, -np.inf)
    np.maximum.at(want_top, leaf_tree, pos)
    assert np.array_equal(n_leaves, np.bincount(leaf_tree, minlength=n_trees))
    assert n_leaves.dtype == np.bincount(leaf_tree).dtype
    assert np.array_equal(top, want_top - centering(t, "tilde"))
    # a tree with no leaf counts 0 of them, with maximum -inf
    more_leaves, more_top, _ = forest_summaries(leaf_tree, pos, n_trees + 1, t, u)
    assert np.array_equal(more_leaves, np.append(n_leaves, 0))
    assert np.array_equal(more_top, np.append(top, -np.inf))
    sigma_b = 0.4
    exponents = -t * (1.0 + sigma_b**2) + SQRT2 * sigma_b * pos
    shift = np.full(n_trees, -np.inf)
    np.maximum.at(shift, leaf_tree, exponents)
    total = np.bincount(leaf_tree, weights=np.exp(exponents - shift[leaf_tree]), minlength=n_trees)
    want_mart = np.exp(shift + np.log(total))
    assert np.array_equal(forest_mckean(leaf_tree, pos, n_trees, prof, t, sigma_b), want_mart)


def test_mckean_domain_checks():
    cfg = make_config()
    with pytest.raises(ValueError):
        mckean_martingale(cfg, -0.1)
    with pytest.warns(UserWarning):
        mckean_martingale(cfg, 1.2)


def test_summarize_fields():
    u = np.array([-1.0, 0.0])
    cfg = make_config(seed=33)
    s = summarize(cfg, u)
    m = centering(cfg.horizon, "tilde")
    assert s.max_centered == pytest.approx(float(cfg.leaf_positions.max() - m))
    assert s.n_leaves == cfg.n_leaves
    assert np.array_equal(s.exceedance_counts, count_exceedances(cfg, u))
