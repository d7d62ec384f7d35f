"""Exact finite-horizon sampling of variable-speed BBM on a given tree.

Positions are built edge by edge: the displacement over an edge living on
[s1, s2] is N(0, Sigma^2(s2) - Sigma^2(s1)), independent across edges, so
there is no time-discretization error at branch times or at the horizon.
Sigma^2 is evaluated only where it varies from node to node, at the
branch times and the roots' births: every leaf dies at the horizon t and
reads the one value Sigma^2(t).
Every ``GenealogyTree``, one tree or many grown together, takes its
positions from one generator.  ``simulate``, ``martingale`` and
``compare`` place the trees of each replicate block in ``forest_block``:
the block's trees grow on one generator, and ``forest_leaf_positions``
places their leaves under a tuple of profiles from one Gaussian draw;
``cluster`` places the immigrant trees of each block of spines with
``forest_leaf_positions`` too.  Positions are plain arrays, reduced per
tree by the ``extremal.forest_*`` functions with ``tree.leaf_tree``.
``sample_leaf_positions`` places leaves under one profile, with
independent redraws on the same tree, for the covariance checks and as
the tests' oracle.
"""

from __future__ import annotations

import math

import numpy as np

from vsbbm.genealogy import GenealogyTree, mrca, sample_forest, seed_stream, tree_rng
from vsbbm.speed import SpeedProfile, sigma2


def _edge_std(tree: GenealogyTree, profile: SpeedProfile, t: float) -> np.ndarray:
    """Edge deviations sqrt(S(death) - S(birth)) under ``profile``,
    S = Sigma^2, one per node.  Every leaf dies at the horizon, so
    S(death) of a leaf is the one value S(horizon), and only the internal
    nodes' deaths, ``tree.split``, need S of their own.  A child is born
    when its parent dies, so S(birth) is S(death) of the parent; only the
    roots, the first wave, need S at their own birth times,
    ``tree.starts``.  One ``sigma2`` call evaluates all three: internal
    deaths, root births, horizon."""
    n_split, n_roots = len(tree.split), tree.n_trees
    s = sigma2(profile, np.concatenate([tree.split, tree.starts, [tree.horizon]]), t)
    var = np.full(tree.n_nodes, s[-1])
    var[tree.internal_ids] = s[:n_split]
    s_birth = var.take(tree.parent)
    s_birth[:n_roots] = s[n_split:-1]
    var -= s_birth
    if var.min() < -1e-12:
        raise ValueError("negative edge variance; speed function is not monotone")
    return np.sqrt(np.maximum(var, 0.0, out=var), out=var)


def _descend(tree: GenealogyTree, pos: np.ndarray) -> np.ndarray:
    """Turn per-edge increments into positions in place, wave by wave: a
    node adds its parent's position.  Parents sit in earlier waves, so one
    pass suffices; roots keep their own increment."""
    starts = tree.wave_starts
    for w in range(1, len(starts) - 1):
        sl = slice(starts[w], starts[w + 1])
        pos[..., sl] += pos.take(tree.parent[sl], axis=-1)
    return pos


def forest_leaf_positions(
    tree: GenealogyTree,
    profiles: tuple,
    t: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Leaf positions of every tree under each of ``profiles``, shape
    (len(profiles), n_leaves), leaves in ``tree.leaf_ids`` order.  ``rng``
    makes one ``standard_normal`` draw over the nodes in index order and
    every profile scales that one draw, so each profile's row is what
    ``sample_leaf_positions`` gives on the same generator.  The profiles
    are placed one at a time, so only one row of edge deviations is held
    over all nodes."""
    z = rng.standard_normal(tree.n_nodes)
    out = np.empty((len(profiles), tree.n_leaves))
    for row, profile in zip(out, profiles):
        std = _edge_std(tree, profile, t)
        std *= z
        _descend(tree, std).take(tree.leaf_ids, out=row)
    return out


# Nodes per forest block.  A tree of real branchings has
# e^t + (e^t - 1)/(E[k | k >= 2] - 1) nodes on average, 2e^t - 1 for binary
# offspring and fewer for any other law, so sized at 2e^t per tree a block
# holds about 110 trees at t = 5 and one from t = ln 8192 = 9.01 on.  The
# block is the unit of randomness, so the budget fixes which draws a
# replicate gets: changing it changes the results up to t = 9.01.  2**15
# halves the blocks, and so the per-block and per-wave calls, of 2**14;
# 2**16 cut mc-small's time further but raised its peak RSS by 12-15%.
FOREST_NODE_BUDGET = 2**15


def block_size(t: float) -> int:
    """b(t) = max(1, floor(FOREST_NODE_BUDGET / (2e^t))): the replicates
    of one forest block at horizon t."""
    return max(1, int(FOREST_NODE_BUDGET / (2.0 * math.exp(t))))


def forest_block(seed, t, offspring, profiles, block):
    """The replicates of one forest block ``block`` (a ``range``, as
    ``run_replicates`` hands it): the tree of each leaf and the
    (len(profiles), n_leaves) leaf positions under ``profiles``.  The
    block's trees grow as one forest on
    ``tree_rng(seed_stream(seed, block.start, "tree"))``, and its leaves
    are placed under every profile by one draw from
    ``tree_rng(seed_stream(seed, block.start, "gauss"))``, so blocks of
    one give every replicate the streams of its own index.  The trees stay
    independent across replicates."""
    tree = sample_forest(offspring, t, tree_rng(seed_stream(seed, block.start, "tree")), starts=np.zeros(len(block)))
    positions = forest_leaf_positions(tree, profiles, t, tree_rng(seed_stream(seed, block.start, "gauss")))
    return tree.leaf_tree, positions


def sample_leaf_positions(
    tree: GenealogyTree,
    profile: SpeedProfile,
    t: float,
    rng: np.random.Generator,
    n_draws: int | None = None,
) -> np.ndarray:
    """Leaf positions under ``profile``; shape (n_leaves,), or
    (n_draws, n_leaves) for independent redraws on the same tree.  A
    node's position is its parent's plus an independent Gaussian edge
    increment, added wave by wave."""
    shape = (tree.n_nodes,) if n_draws is None else (n_draws, tree.n_nodes)
    pos = _edge_std(tree, profile, t) * rng.standard_normal(shape)
    return _descend(tree, pos)[..., tree.leaf_ids]


def covariance_oracle(
    tree: GenealogyTree, profile: SpeedProfile, k: int, l: int, t: float
) -> float:
    """Model covariance of two leaf positions: t*A(d(k,l)/t)."""
    d = mrca(tree, k, l)
    return float(t * profile(d / t))
