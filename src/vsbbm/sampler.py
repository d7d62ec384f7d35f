"""Exact finite-horizon sampling of variable-speed BBM on a given tree.

Positions are built edge by edge: the displacement over an edge living on
[s1, s2] is N(0, Sigma^2(s2) - Sigma^2(s1)), independent across edges, so
there is no time-discretization error at branch times or at the horizon.
Skeleton positions on a uniform grid are filled in afterwards by Brownian
bridges in Sigma^2-time, conditioned on the branch-time positions, which
keeps the joint law exact at every grid point.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from vsbbm.genealogy import Forest, GenealogyTree, mrca, replicate_rngs, sample_forest, tree_rng
from vsbbm.speed import SpeedProfile, sigma2


@dataclass(frozen=True, eq=False)
class ParticleConfiguration:
    """Leaf positions at the horizon for one tree and one speed profile.

    In skeleton mode, ``skeleton_paths[i]`` holds the path of leaf
    ``tree.leaf_ids[i]`` on the uniform grid ``skeleton_times``; paths of
    leaves sharing an ancestor agree up to the split, and the final grid
    entry equals the leaf position exactly.  ``node_positions`` carries the
    positions at every branch/death time.
    """

    tree: GenealogyTree
    profile: SpeedProfile
    horizon: float
    leaf_positions: np.ndarray
    node_positions: np.ndarray | None = None
    skeleton_times: np.ndarray | None = None
    skeleton_paths: np.ndarray | None = None

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_positions)

    def export_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["leaf_id", "position"])
            for lid, x in zip(self.tree.leaf_ids, self.leaf_positions):
                w.writerow([int(lid), repr(float(x))])

    def export_skeleton_csv(self, path) -> None:
        if self.skeleton_paths is None:
            raise ValueError("configuration was sampled without a skeleton")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["leaf_id", "s", "position"])
            for row, lid in zip(self.skeleton_paths, self.tree.leaf_ids):
                for s, x in zip(self.skeleton_times, row):
                    w.writerow([int(lid), repr(float(s)), repr(float(x))])


def _edge_std(tree: GenealogyTree, profiles: tuple, t: float) -> np.ndarray:
    """Edge deviations sqrt(S(death) - S(birth)) under each of ``profiles``,
    S = Sigma^2, shape (len(profiles), n_nodes).  A child is born when its
    parent dies (``birth`` copies the parent's ``death``), so S(birth) is
    S(death) of the parent; only the roots, the first wave, need S at
    their own birth times."""
    s_death = np.stack([sigma2(profile, tree.death, t) for profile in profiles])
    s_birth = s_death.take(tree.parent, axis=1)
    roots = slice(0, tree.wave_starts[1])
    for row, profile in zip(s_birth, profiles):
        row[roots] = sigma2(profile, tree.birth[roots], t)
    var = np.subtract(s_death, s_birth, out=s_death)
    if np.any(var < -1e-12):
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


def node_positions(
    tree: GenealogyTree,
    profile: SpeedProfile,
    t: float,
    rng: np.random.Generator,
    n_draws: int | None = None,
) -> np.ndarray:
    """Positions of every node at its death time; shape (n_nodes,) or
    (n_draws, n_nodes) for independent redraws on the same tree.

    Vectorized wave by wave: a child's position is its parent's death
    position plus an independent Gaussian edge increment.
    """
    shape = (tree.n_nodes,) if n_draws is None else (n_draws, tree.n_nodes)
    return _descend(tree, _edge_std(tree, (profile,), t)[0] * rng.standard_normal(shape))


def forest_leaf_positions(
    forest: Forest,
    profiles: tuple,
    t: float,
    rngs: list,
) -> np.ndarray:
    """Leaf positions of every tree of the forest under each of ``profiles``,
    shape (len(profiles), n_leaves), leaves in ``forest.nodes.leaf_ids``
    order.  Generator ``rngs[g]`` makes one ``standard_normal`` draw over
    the nodes of its run of ``forest.trees_per_rng[g]`` trees, in the order
    they have in the forest of that run grown alone, and every profile
    scales that one draw: row p holds the positions each run gets alone
    under ``profiles[p]``, and with one tree per generator the positions
    ``sample_leaf_positions`` gives each tree alone."""
    nodes = forest.nodes
    # nodes of each run per wave: differences of the per-tree cumulative
    # counts at the runs' tree boundaries, so a run of no trees has none
    cum = np.zeros((len(forest.wave_sizes), forest.n_trees + 1), dtype=np.int64)
    forest.wave_sizes.cumsum(axis=1, out=cum[:, 1:])
    sizes = np.diff(cum[:, np.concatenate([[0], forest.trees_per_rng.cumsum()])], axis=1)
    run_sizes = sizes.sum(axis=0)
    z = np.concatenate([rng.standard_normal(n) for rng, n in zip(rngs, run_sizes.tolist()) if n])
    if np.count_nonzero(run_sizes) > 1:
        # z is run-major: the nodes run g has in wave w start at z offset
        # (run g's start) + (its nodes in earlier waves), and in the forest
        # at the wave-major offset of block (w, g); shift each block across
        in_z = (sizes.cumsum(axis=0) - sizes + (run_sizes.cumsum() - run_sizes)).ravel()
        flat = sizes.ravel()
        in_forest = flat.cumsum() - flat
        z = z[(in_z - in_forest).repeat(flat) + np.arange(len(z))]
    std = _edge_std(nodes, profiles, t)
    std *= z
    return _descend(nodes, std)[:, nodes.leaf_ids]


# Nodes per forest batch.  A tree of real branchings has
# e^t + (e^t - 1)/(E[k | k >= 2] - 1) nodes on average, 2e^t - 1 for binary
# offspring and fewer for any other law, so sized at 2e^t per tree a batch
# holds about 55 trees at t = 5 and one from t = 9.1 on.  The budget bounds
# memory only: every replicate draws from its own streams.
FOREST_NODE_BUDGET = 2**14


def forest_batches(seed, t, offspring, streams, reps):
    """The replicates ``reps`` in forest batches.  Per batch: the tree of
    each leaf, one (len(profiles), n_leaves) position array per entry
    ``name: profiles`` of ``streams`` and the batch size.  Each replicate
    grows its tree on its ``tree`` stream and places the leaves under
    every profile of ``streams[name]`` with one draw from its stream
    ``name``, so every row holds the positions it gets alone."""
    size = max(1, int(FOREST_NODE_BUDGET / (2.0 * math.exp(t))))
    trees = replicate_rngs(seed, reps, "tree")
    gauss = {name: replicate_rngs(seed, reps, name) for name in streams}
    for i in range(0, len(reps), size):
        n = len(reps[i : i + size])
        forest = sample_forest(offspring, t, list(islice(trees, n)))
        positions = [
            forest_leaf_positions(forest, profiles, t, list(islice(gauss[name], n)))
            for name, profiles in streams.items()
        ]
        yield forest.tree_id[forest.nodes.leaf_ids], positions, n


def sample_leaf_positions(
    tree: GenealogyTree,
    profile: SpeedProfile,
    t: float,
    rng: np.random.Generator,
    n_draws: int | None = None,
) -> np.ndarray:
    """Leaf positions only; shape (n_leaves,) or (n_draws, n_leaves)."""
    pos = node_positions(tree, profile, t, rng, n_draws)
    return pos[..., tree.leaf_ids]


class _EdgeFiller:
    """Per-edge bridge fill-in of grid positions, cached per node so that
    lineages sharing an edge see identical draws."""

    def __init__(self, tree, profile, t, node_pos, times, rng):
        self.tree = tree
        self.t = t
        self.node_pos = node_pos
        self.times = times
        self.sig_grid = np.asarray(sigma2(profile, times, t))
        self.profile = profile
        self.rng = rng
        self._cache: dict[int, tuple[int, np.ndarray]] = {}

    def edge_values(self, node: int) -> tuple[int, np.ndarray]:
        """Grid index of the first covered point and the sampled positions
        at the grid points strictly inside (birth, death)."""
        got = self._cache.get(node)
        if got is not None:
            return got
        tree, times = self.tree, self.times
        b, d = tree.birth[node], tree.death[node]
        j0 = int(np.searchsorted(times, b, side="right"))
        j1 = int(np.searchsorted(times, d, side="left"))
        x0 = 0.0 if tree.parent[node] < 0 else self.node_pos[tree.parent[node]]
        x1 = self.node_pos[node]
        if j1 <= j0:
            out = (j0, np.empty(0))
            self._cache[node] = out
            return out
        s0 = float(sigma2(self.profile, b, self.t))
        s1 = float(sigma2(self.profile, d, self.t))
        s_in = self.sig_grid[j0:j1]
        span = s1 - s0
        if span <= 0:
            vals = np.full(j1 - j0, x0)
        else:
            # Brownian bridge in Sigma^2-time between the edge endpoints
            ss = np.concatenate([[s0], s_in, [s1]])
            inc = np.sqrt(np.maximum(np.diff(ss), 0.0)) * self.rng.standard_normal(len(ss) - 1)
            w = np.cumsum(inc)
            u = (s_in - s0) / span
            vals = x0 + u * (x1 - x0) + (w[:-1] - u * w[-1])
        out = (j0, vals)
        self._cache[node] = out
        return out

    def leaf_path(self, leaf: int) -> np.ndarray:
        tree, times = self.tree, self.times
        chain = []
        node = leaf
        while node >= 0:
            chain.append(node)
            node = tree.parent[node]
        path = np.empty(len(times))
        path[0] = 0.0
        for nd in reversed(chain):
            j0, vals = self.edge_values(nd)
            path[j0 : j0 + len(vals)] = vals
            jd = int(np.searchsorted(times, tree.death[nd]))
            if jd < len(times) and times[jd] == tree.death[nd]:
                path[jd] = self.node_pos[nd]
        # the horizon is always a grid point and always the leaf position
        path[-1] = self.node_pos[leaf]
        return path


def skeleton_paths(
    tree: GenealogyTree,
    profile: SpeedProfile,
    t: float,
    node_pos: np.ndarray,
    rng: np.random.Generator,
    n_steps: int = 512,
    leaves: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Grid-time paths for the requested leaves (default: all leaves),
    conditioned on the branch-time positions ``node_pos``."""
    times = np.linspace(0.0, t, n_steps + 1)
    filler = _EdgeFiller(tree, profile, t, node_pos, times, rng)
    if leaves is None:
        leaves = tree.leaf_ids
    paths = np.empty((len(leaves), len(times)))
    for row, leaf in enumerate(leaves):
        paths[row] = filler.leaf_path(int(leaf))
    return times, paths


def sample_bbm(
    tree: GenealogyTree,
    profile: SpeedProfile,
    t: float,
    seed: int,
    n_steps: int | None = None,
    rng: np.random.Generator | None = None,
) -> ParticleConfiguration:
    """One exact realization of variable-speed BBM on the given tree; with
    ``n_steps``, also every leaf's skeleton path on the uniform grid of
    n_steps + 1 times in [0, t] (no skeleton when None)."""
    if abs(tree.horizon - t) > 1e-12:
        raise ValueError(f"tree horizon {tree.horizon} does not match t={t}")
    if rng is None:
        rng = tree_rng(seed)
    pos = node_positions(tree, profile, t, rng)
    leaf_positions = pos[tree.leaf_ids]
    times = paths = stored_nodes = None
    if n_steps is not None:
        times, paths = skeleton_paths(tree, profile, t, pos, rng, n_steps)
        stored_nodes = pos
    return ParticleConfiguration(
        tree=tree,
        profile=profile,
        horizon=t,
        leaf_positions=leaf_positions,
        node_positions=stored_nodes,
        skeleton_times=times,
        skeleton_paths=paths,
    )


def covariance_oracle(
    tree: GenealogyTree, profile: SpeedProfile, k: int, l: int, t: float
) -> float:
    """Model covariance of two leaf positions: t*A(d(k,l)/t)."""
    d = mrca(tree, k, l)
    return float(t * profile(d / t))
