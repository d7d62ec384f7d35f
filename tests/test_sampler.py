import math

import numpy as np
import pytest

from vsbbm.genealogy import GenealogyTree, OffspringDistribution, mrca, sample_forest, sample_tree, tree_rng
from vsbbm.sampler import (
    ParticleConfiguration,
    _edge_std,
    covariance_oracle,
    forest_leaf_positions,
    node_positions,
    sample_bbm,
    sample_leaf_positions,
    skeleton_paths,
)
from vsbbm.speed import (
    SpeedProfile,
    build_envelopes,
    from_function,
    identity_profile,
    piecewise_linear,
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
        n_offspring=np.array([2, 0, 0]),
        wave_starts=np.array([0, 1, 3]),
        leaf_ids=np.array([1, 2]),
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


def test_forest_leaf_positions_match_trees_alone():
    law = OffspringDistribution(np.array([1, 3]), np.array([0.5, 0.5]))
    prof, t, seeds = two_speed(0.5, 2.0, 2.0 / 3.0), 3.0, range(25)
    forest = sample_forest(law, t, [tree_rng(s) for s in seeds])
    (pos,) = forest_leaf_positions(forest, (prof,), t, [tree_rng(100 + s) for s in seeds])
    leaf_tree = forest.tree_id[forest.nodes.leaf_ids]
    for r, s in enumerate(seeds):
        tree = sample_tree(law, t, seed=s)
        alone = sample_leaf_positions(tree, prof, t, tree_rng(100 + s))
        assert np.array_equal(pos[leaf_tree == r], alone)


@pytest.mark.parametrize("law", ["binary", "1,3"])
def test_forest_leaf_positions_of_runs_match_runs_alone(law):
    # runs of 3, 0, 1, 5 and 2 trees on one generator each: every run takes
    # one draw over its nodes and gets the positions it gets alone
    offspring = LAWS[law]
    runs, t, prof = [3, 0, 1, 5, 2], 3.0, two_speed(0.5, 2.0, 2.0 / 3.0)
    starts = [np.sort(np.random.default_rng(g).uniform(0.0, t, n)) for g, n in enumerate(runs)]
    forest = sample_forest(offspring, t, [tree_rng(g) for g in range(5)], np.concatenate(starts), runs)
    (pos,) = forest_leaf_positions(forest, (prof,), t, [tree_rng(20 + g) for g in range(5)])
    leaf_run = np.arange(5).repeat(runs)[forest.tree_id[forest.nodes.leaf_ids]]
    for g, run_starts in enumerate(starts):
        if runs[g]:
            alone = sample_forest(offspring, t, tree_rng(g), starts=run_starts)
            (want,) = forest_leaf_positions(alone, (prof,), t, [tree_rng(20 + g)])
            assert np.array_equal(pos[leaf_run == g], want)


def test_forest_leaf_positions_stacked_rows_match_single_profile():
    # row p of a stacked call is the 1-tuple call for profile p, bit for bit
    law = OffspringDistribution(np.array([1, 3]), np.array([0.5, 0.5]))
    t, seeds = 4.0, range(12)
    power2 = from_function(
        lambda x: np.asarray(x) ** 2, slope_at_0=0.0, slope_at_1=2.0,
        k1_upper=2.0, k1_lower=2.0, k2_upper=2.0, k2_lower=2.0,
    )
    pair = build_envelopes(power2, t)
    profiles = (power2, pair.upper, pair.lower, two_speed(0.5, 2.0, 2.0 / 3.0))
    forest = sample_forest(law, t, [tree_rng(s) for s in seeds])
    stacked = forest_leaf_positions(forest, profiles, t, [tree_rng(50 + s) for s in seeds])
    assert stacked.shape == (len(profiles), forest.nodes.n_leaves)
    for row, prof in zip(stacked, profiles):
        (alone,) = forest_leaf_positions(forest, (prof,), t, [tree_rng(50 + s) for s in seeds])
        assert np.array_equal(row, alone)


def test_edge_std_equals_two_evaluation_formula():
    # S(birth) is read off the parent's S(death); roots, here born at
    # p = 0, 0.7 and 2.5, are evaluated at their own births
    law = OffspringDistribution(np.array([1, 3]), np.array([0.5, 0.5]))
    t = 4.0
    nodes = sample_forest(law, t, tree_rng(3), starts=[0.0, 0.7, 2.5]).nodes
    power2 = from_function(
        lambda x: np.asarray(x) ** 2, slope_at_0=0.0, slope_at_1=2.0,
        k1_upper=2.0, k1_lower=2.0, k2_upper=2.0, k2_lower=2.0,
    )
    pair = build_envelopes(power2, t)
    profiles = (identity_profile(), two_speed(0.5, 2.0, 2.0 / 3.0), power2, pair.upper, pair.lower)
    stacked = _edge_std(nodes, profiles, t)
    assert stacked.shape == (len(profiles), nodes.n_nodes)
    for row, prof in zip(stacked, profiles):
        var = sigma2(prof, nodes.death, t) - sigma2(prof, nodes.birth, t)
        assert np.array_equal(row, np.sqrt(np.maximum(var, 0.0)))


def test_flat_speed_segment_freezes_particles():
    # A = 0 on [0, 1/2]: everything alive before t/2 sits exactly at 0
    prof = piecewise_linear([0.0, 0.5, 1.0], [0.0, 0.0, 1.0], slope_at_0=0.0)
    t = 5.0
    tree = sample_tree(BINARY, t, seed=3)
    pos = node_positions(tree, prof, t, tree_rng(4))
    early = tree.death <= 0.5 * t
    assert np.all(pos[early] == 0.0)
    assert np.any(pos[~early] != 0.0)


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
        node_positions(tree, dipper, 3.0, tree_rng(6))


def test_sample_bbm_deterministic():
    tree = sample_tree(BINARY, 4.0, seed=20)
    a = sample_bbm(tree, identity_profile(), 4.0, seed=21)
    b = sample_bbm(tree, identity_profile(), 4.0, seed=21)
    c = sample_bbm(tree, identity_profile(), 4.0, seed=22)
    assert np.array_equal(a.leaf_positions, b.leaf_positions)
    assert not np.array_equal(a.leaf_positions, c.leaf_positions)


def test_sample_bbm_horizon_mismatch():
    tree = sample_tree(BINARY, 4.0, seed=20)
    with pytest.raises(ValueError):
        sample_bbm(tree, identity_profile(), 5.0, seed=0)


def test_skeleton_consistency():
    t = 4.0
    tree = sample_tree(BINARY, t, seed=30)
    cfg = sample_bbm(tree, two_speed(0.5, 2.0, 2.0 / 3.0), t, seed=31, n_steps=256)
    assert cfg.skeleton_paths.shape == (tree.n_leaves, 257)
    # grid endpoint equals the leaf position exactly; paths start at the root
    assert np.array_equal(cfg.skeleton_paths[:, -1], cfg.leaf_positions)
    assert np.all(cfg.skeleton_paths[:, 0] == 0.0)
    # shared ancestry: paths agree up to (at least) the split time
    times = cfg.skeleton_times
    ids = list(tree.leaf_ids)
    for a in range(min(6, len(ids))):
        for b in range(a + 1, min(6, len(ids))):
            split = mrca(tree, int(ids[a]), int(ids[b]))
            shared = times <= split
            assert np.array_equal(
                cfg.skeleton_paths[a][shared], cfg.skeleton_paths[b][shared]
            )


def test_skeleton_subset_matches_grid_marginals():
    # a skeleton point of a single lineage is N(0, Sigma^2(s))
    t = 3.0
    prof = two_speed(0.5, 2.0, 2.0 / 3.0)
    tree = sample_tree(CHAIN, t, seed=40)
    rng = tree_rng(41)
    n = 4000
    mid = np.empty(n)
    for i in range(n):
        pos = node_positions(tree, prof, t, rng)
        times, paths = skeleton_paths(tree, prof, t, pos, rng, n_steps=64)
        mid[i] = paths[0][32]
    from vsbbm.speed import sigma2

    target = float(sigma2(prof, times[32], t))
    se = target * math.sqrt(2.0 / (n - 1))
    assert abs(mid.var(ddof=1) - target) < 3 * se


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
        tree = sample_tree(BINARY, t, seed=0, rng=rng)
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


def test_export_csv(tmp_path):
    tree = sample_tree(BINARY, 2.0, seed=70)
    cfg = sample_bbm(tree, identity_profile(), 2.0, seed=71, n_steps=16)
    leaf_csv = tmp_path / "leaves.csv"
    skel_csv = tmp_path / "skel.csv"
    cfg.export_csv(leaf_csv)
    cfg.export_skeleton_csv(skel_csv)
    rows = leaf_csv.read_text().splitlines()
    assert rows[0] == "leaf_id,position"
    assert len(rows) == 1 + tree.n_leaves
    srows = skel_csv.read_text().splitlines()
    assert len(srows) == 1 + tree.n_leaves * 17
    bare = sample_bbm(tree, identity_profile(), 2.0, seed=71)
    with pytest.raises(ValueError):
        bare.export_skeleton_csv(tmp_path / "no.csv")
