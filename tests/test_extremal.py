import math
from dataclasses import replace

import numpy as np
import pytest

from vsbbm.extremal import (
    centering,
    count_exceedances,
    forest_mckean,
    forest_summaries,
    mean_and_se,
)
from vsbbm.genealogy import OffspringDistribution, run_replicates, sample_forest, sample_tree, tree_rng
from vsbbm.runner import _martingale_replicates
from vsbbm.sampler import block_size, forest_leaf_positions
from vsbbm.speed import identity_profile, piecewise_linear, two_speed

BINARY = OffspringDistribution.binary()
SQRT2 = math.sqrt(2.0)


def make_tree(t=4.0, seed=1, profile=None):
    """The leaf tree ids (all zeros) and leaf positions of one tree."""
    tree = sample_tree(BINARY, t, seed=seed)
    (pos,) = forest_leaf_positions(tree, (profile or identity_profile(),), t, tree_rng(seed + 1000))
    return tree.leaf_tree, pos


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
    _, pos = make_tree()
    m = centering(4.0, "tilde")
    lo = float(pos.min() - m) - 1.0
    hi = float(pos.max() - m) + 1.0
    counts = count_exceedances(pos, 4.0, np.array([lo, hi]))
    assert counts[0] == len(pos)
    assert counts[1] == 0


def test_count_exceedances_bruteforce():
    _, pos = make_tree(seed=7)
    m = centering(4.0, "tilde")
    u_grid = np.linspace(-8, 4, 25)
    counts = count_exceedances(pos, 4.0, u_grid)
    brute = [sum(1 for x in pos if x - m > u) for u in u_grid]
    assert counts.tolist() == brute
    assert np.all(np.diff(counts) <= 0)
    # max > u iff N_u >= 1
    mx = pos.max() - m
    assert all((mx > u) == (c >= 1) for u, c in zip(u_grid, counts))
    with pytest.raises(ValueError):
        count_exceedances(pos, 4.0, np.array([1.0, 0.0]))


def test_monotone_coupling_under_shift():
    _, pos = make_tree(seed=13)
    shift = 1.7
    u = np.array([-1.0, 0.0, 1.0])
    assert np.array_equal(
        count_exceedances(pos + shift, 4.0, u), count_exceedances(pos, 4.0, u - shift)
    )


def test_laplace_order_independence():
    counts = np.array([count_exceedances(make_tree(seed=s)[1], 4.0, [0.0])[0] for s in range(40)])
    a = mean_and_se(np.exp(-0.7 * counts))
    b = mean_and_se(np.exp(-0.7 * counts[::-1]))
    assert abs(a[0] - b[0]) < 1e-12


def test_mckean_sigma0_counts_particles():
    leaf_tree, pos = make_tree(t=5.0, seed=21)
    val = forest_mckean(leaf_tree, pos, 1, identity_profile(), 5.0, 0.0)
    assert val[0] == pytest.approx(len(pos) * math.exp(-5.0), rel=1e-12)


def test_mckean_single_particle_formula():
    s, x = 3.0, 1.234
    sb = 0.4
    expected = math.exp(-s * (1 + sb**2) + SQRT2 * sb * x)
    val = forest_mckean(np.zeros(1, dtype=np.intp), np.array([x]), 1, identity_profile(), s, sb)
    assert val[0] == pytest.approx(expected, rel=1e-12)


def test_mckean_mean_one():
    # the martingale kind's replicates: forest blocks, forest_mckean
    s, reps, sb = 4.0, 3000, 0.3
    vals = np.array(run_replicates(_martingale_replicates, (77, s, sb, BINARY), reps, block=block_size(s)))
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - 1.0) < 3 * se


def test_mckean_requires_identity_profile():
    profile = two_speed(0.5, 2.0, 2.0 / 3.0)
    leaf_tree, pos = make_tree(profile=profile)
    with pytest.raises(ValueError):
        forest_mckean(leaf_tree, pos, 1, profile, 4.0, 0.3)


def test_mckean_checks_profile_values_not_label():
    leaf_tree, pos = make_tree(seed=5)
    same = piecewise_linear([0.0, 1.0], [0.0, 1.0])
    assert same.label != "identity"
    assert np.array_equal(
        forest_mckean(leaf_tree, pos, 1, same, 4.0, 0.3),
        forest_mckean(leaf_tree, pos, 1, identity_profile(), 4.0, 0.3),
    )
    relabelled = replace(two_speed(0.5, 2.0, 2.0 / 3.0), label="identity")
    leaf_tree, pos = make_tree(profile=relabelled)
    with pytest.raises(ValueError, match="identity"):
        forest_mckean(leaf_tree, pos, 1, relabelled, 4.0, 0.3)


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
        x = pos[leaf_tree == r]
        assert n_leaves[r] == len(x) >= 1
        assert top[r] == x.max() - m
        assert np.array_equal(counts[r], count_exceedances(x, t, u))
        direct = math.fsum(np.exp(-t * (1 + 0.4**2) + math.sqrt(2) * 0.4 * x))
        assert mart[r] == pytest.approx(direct, rel=1e-13)
    with pytest.raises(ValueError, match="sorted"):
        forest_summaries(leaf_tree, pos, n, t, u[::-1])


def test_summarize_fields():
    # one tree alone is a forest of one, its leaf_tree all zeros
    t, u = 4.0, np.array([-1.0, 0.0])
    one_tree, x = make_tree(t=t, seed=33)
    assert not one_tree.any()
    n_leaves, top, counts = forest_summaries(one_tree, x, 1, t, u)
    assert n_leaves.tolist() == [len(x)]
    assert top.tolist() == [x.max() - centering(t, "tilde")]
    assert np.array_equal(counts, [count_exceedances(x, t, u)])


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
    leaf_tree, pos = make_tree()
    with pytest.raises(ValueError):
        forest_mckean(leaf_tree, pos, 1, identity_profile(), 4.0, -0.1)
    with pytest.warns(UserWarning):
        forest_mckean(leaf_tree, pos, 1, identity_profile(), 4.0, 1.2)
