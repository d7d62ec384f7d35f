import math

import numpy as np
import pytest

from vsbbm.genealogy import GenealogyTree, OffspringDistribution, sample_forest, sample_tree, tree_rng
from vsbbm.sampler import (
    _edge_std,
    covariance_oracle,
    forest_leaf_positions,
    sample_leaf_positions,
)
from vsbbm.speed import (
    SpeedProfile,
    build_envelopes,
    identity_profile,
    piecewise_linear,
    power_profile,
    sigma2,
    two_speed,
)

BINARY = OffspringDistribution.binary()
CHAIN = OffspringDistribution(np.array([1]), np.array([1.0]))
LAWS = {"binary": BINARY, "1,3": OffspringDistribution(np.array([1, 3]), np.array([0.5, 0.5]))}


def two_leaf_tree(tau, t):
    """Root splits at tau into two leaves living to t."""
    return GenealogyTree(
        horizon=t,
        birth=np.array([0.0, tau, tau]),
        death=np.array([tau, t, t]),
        parent=np.array([-1, 0, 0]),
        wave_sizes=np.array([[1], [2]]),
        leaf_ids=np.array([1, 2]),
        internal_ids=np.array([0]),
    )


def test_single_lineage_is_brownian_motion():
    t = 6.0
    tree = sample_tree(CHAIN, t, seed=1)
    pos = sample_leaf_positions(tree, identity_profile(), t, tree_rng(2), n_draws=10**4)
    var = pos.var(ddof=1)
    # SE of the sample variance of N(0, t) is t * sqrt(2/(n-1))
    se = t * math.sqrt(2.0 / (10**4 - 1))
    assert abs(var - t) < 3 * se
    assert abs(pos.mean()) < 3 * math.sqrt(t / 10**4)


class _Replay:
    """A generator stand-in whose ``standard_normal`` returns given values."""

    def __init__(self, z):
        self.z = z

    def standard_normal(self, shape):
        assert np.shape(self.z) == np.empty(shape).shape
        return self.z


def _tree_of(forest, r):
    """Tree r of the forest as a tree of its own, in local indices, and the
    forest index of each of its nodes."""
    sel = np.flatnonzero(forest.tree_id == r)
    local = np.full(forest.n_nodes, -1)
    local[sel] = np.arange(len(sel))
    parent = forest.parent[sel]
    tree = GenealogyTree(
        horizon=forest.horizon,
        birth=forest.birth[sel],
        death=forest.death[sel],
        parent=np.where(parent < 0, -1, local[parent]),
        wave_sizes=forest.wave_sizes[:, r : r + 1],
        leaf_ids=local[np.intersect1d(sel, forest.leaf_ids)],
        internal_ids=local[np.intersect1d(sel, forest.internal_ids)],
    )
    return tree, sel


def test_forest_leaf_positions_match_trees_alone():
    # one draw over the forest's nodes: each tree gets the positions
    # sample_leaf_positions gives it alone on the normals that draw gave
    # its nodes, and a forest of one tree those it gets on the generator
    law = OffspringDistribution(np.array([1, 3]), np.array([0.5, 0.5]))
    prof, t, n = two_speed(0.5, 2.0, 2.0 / 3.0), 3.0, 25
    forest = sample_forest(law, t, tree_rng(0), starts=np.zeros(n))
    (pos,) = forest_leaf_positions(forest, (prof,), t, tree_rng(100))
    z = tree_rng(100).standard_normal(forest.n_nodes)
    for r in range(n):
        tree, sel = _tree_of(forest, r)
        alone = sample_leaf_positions(tree, prof, t, _Replay(z[sel]))
        assert len(alone) == tree.n_leaves >= 1
        assert np.array_equal(pos[forest.leaf_tree == r], alone)
    one = sample_forest(law, t, tree_rng(1))
    (pos,) = forest_leaf_positions(one, (prof,), t, tree_rng(101))
    assert np.array_equal(pos, sample_leaf_positions(one, prof, t, tree_rng(101)))


def test_forest_leaf_positions_stacked_rows_match_single_profile():
    # row p of a stacked call is the 1-tuple call for profile p, bit for bit
    law = OffspringDistribution(np.array([1, 3]), np.array([0.5, 0.5]))
    t = 4.0
    power2 = power_profile(2)
    pair = build_envelopes(power2, t)
    profiles = (power2, pair.upper, pair.lower, two_speed(0.5, 2.0, 2.0 / 3.0))
    forest = sample_forest(law, t, tree_rng(5), starts=np.zeros(12))
    stacked = forest_leaf_positions(forest, profiles, t, tree_rng(50))
    assert stacked.shape == (len(profiles), forest.n_leaves)
    for row, prof in zip(stacked, profiles):
        (alone,) = forest_leaf_positions(forest, (prof,), t, tree_rng(50))
        assert np.array_equal(row, alone)


def test_edge_std_equals_two_evaluation_formula():
    # bit for bit the all-node formula S(death) - S(birth), though only the
    # internal nodes' deaths and the roots' births are evaluated and every
    # leaf reads S(horizon); roots born at 0, or at 0, 0.7 and 2.5 (the
    # immigrant forests of cluster), on binary and (1,3) laws
    t = 4.0
    power2 = power_profile(2)
    pair = build_envelopes(power2, t)
    profiles = (
        identity_profile(), two_speed(0.5, 2.0, 2.0 / 3.0), power2, pair.upper, pair.lower, power_profile(1.5)
    )
    for law in LAWS.values():
        for starts in (np.zeros(6), [0.0, 0.7, 2.5]):
            forest = sample_forest(law, t, tree_rng(3), starts=starts)
            assert 0 < forest.n_leaves < forest.n_nodes
            stacked = _edge_std(forest, profiles, t)
            assert stacked.shape == (len(profiles), forest.n_nodes)
            for row, prof in zip(stacked, profiles):
                var = sigma2(prof, forest.death, t) - sigma2(prof, forest.birth, t)
                assert np.array_equal(row, np.sqrt(np.maximum(var, 0.0)))


def test_edge_std_rejects_a_fall_that_only_leaf_edges_see():
    # A rises to 1.2 at x = 0.95 and falls back to A(1) = 1.  The one
    # internal edge of a tree that branches at 0.95 t rises, and only the
    # leaves' edges, which read S(horizon), see the fall: one such profile
    # beside a monotone one is enough to raise.
    t = 4.0
    overshoot = SpeedProfile(
        func=lambda x: np.interp(x, [0.0, 0.95, 1.0], [0.0, 1.2, 1.0]), slope_at_0=1.2 / 0.95, slope_at_1=-4.0
    )
    tree = two_leaf_tree(0.95 * t, t)
    assert _edge_std(tree, (identity_profile(),), t).min() > 0.0
    with pytest.raises(ValueError, match="not monotone"):
        _edge_std(tree, (identity_profile(), overshoot), t)
    forest = sample_forest(BINARY, t, tree_rng(10), starts=[0.5] * 10)
    with pytest.raises(ValueError, match="not monotone"):
        _edge_std(forest, (overshoot,), t)


def test_flat_speed_segment_freezes_particles():
    # A = 0 on [0, 1/2]: the leaves of a tree grown to t/2, placed under
    # horizon t, sit exactly at 0; those of the tree grown to t do not
    prof = piecewise_linear([0.0, 0.5, 1.0], [0.0, 0.0, 1.0])
    t = 5.0
    early = sample_tree(BINARY, 0.5 * t, seed=3)
    assert early.n_leaves > 1
    assert np.all(sample_leaf_positions(early, prof, t, tree_rng(4)) == 0.0)
    assert np.any(sample_leaf_positions(sample_tree(BINARY, t, seed=3), prof, t, tree_rng(4)) != 0.0)


def test_covariance_against_oracle():
    t = 4.0
    tree = sample_tree(BINARY, t, seed=10)
    assert tree.n_leaves >= 8
    for prof in (identity_profile(), two_speed(0.5, 2.0, 2.0 / 3.0)):
        pos = sample_leaf_positions(tree, prof, t, tree_rng(11), n_draws=10**4)
        rng = np.random.default_rng(0)
        for _ in range(5):
            i, j = rng.choice(tree.n_leaves, size=2, replace=False)
            prods = (pos[:, i] - pos[:, i].mean()) * (pos[:, j] - pos[:, j].mean())
            est = prods.mean()
            se = prods.std(ddof=1) / math.sqrt(len(prods))
            oracle = covariance_oracle(tree, prof, int(tree.leaf_ids[i]), int(tree.leaf_ids[j]), t)
            assert abs(est - oracle) < 3 * se


def test_covariance_oracle_values():
    t = 5.0
    tree = two_leaf_tree(4.0, t)  # mrca at 0.8 t
    assert covariance_oracle(tree, identity_profile(), 1, 1, t) == pytest.approx(t)
    assert covariance_oracle(tree, identity_profile(), 1, 2, t) == pytest.approx(4.0)
    prof = two_speed(0.5, 2.0, 2.0 / 3.0)
    # t * (1/3 + 2*(0.8 - 2/3)) = 0.6 t
    assert covariance_oracle(tree, prof, 1, 2, t) == pytest.approx(0.6 * t, abs=1e-12)


def test_nonmonotone_profile_rejected():
    dipper = SpeedProfile(
        func=lambda x: np.asarray(x) - 0.4 * np.sin(2 * np.pi * np.asarray(x)),
        slope_at_0=0.0,
        slope_at_1=0.0,
    )
    tree = sample_tree(BINARY, 3.0, seed=5)
    with pytest.raises(ValueError, match="not monotone"):
        sample_leaf_positions(tree, dipper, 3.0, tree_rng(6))


def test_exchangeability_of_symmetric_functionals():
    t = 3.0
    tree = sample_tree(BINARY, t, seed=50)
    pos = sample_leaf_positions(tree, identity_profile(), t, tree_rng(51), n_draws=4000)
    perm = np.random.default_rng(1).permutation(tree.n_leaves)
    assert np.array_equal(pos.max(axis=1), pos[:, perm].max(axis=1))
    # summation order changes under relabeling, so allow fp reassociation
    assert np.allclose(pos.sum(axis=1), pos[:, perm].sum(axis=1), atol=1e-9)


def test_mean_max_standard_bbm_and_tightness():
    # identity profile at t=10: E[max] within [m(10)-3, m(10)+3]; and the
    # exceedance count above the weak-correlation centering obeys the
    # first-moment Markov bound
    from vsbbm.extremal import centering
    from vsbbm.tube import first_moment_constant

    t, reps = 10.0, 1000
    rng = tree_rng(60)
    maxima = np.empty(reps)
    counts = np.empty(reps)
    level = centering(t, "tilde")
    for i in range(reps):
        tree = sample_tree(BINARY, t, rng=rng)
        pos = sample_leaf_positions(tree, identity_profile(), t, rng)
        maxima[i] = pos.max()
        counts[i] = (pos > level).sum()
    m_t = centering(t, "standard")
    assert m_t - 3 < maxima.mean() < m_t + 3
    m_const = first_moment_constant(0.0)
    for n0 in (1, 2, 5, 10):
        rate = (counts >= n0).mean()
        se = math.sqrt(max(rate * (1 - rate), 1e-9) / reps)
        assert rate <= m_const / n0 + 3 * se
