"""Continuous-time Galton-Watson trees.

Trees are sampled generation by generation into flat numpy arrays so that
populations of ~1e7 nodes stay cheap to build and to query.  The branching
rate is fixed at 1 and the offspring mean at 2, so the expected population
at time t is e^t.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial

import numpy as np

DEFAULT_NODE_CAP = 10**8


class PopulationCapError(RuntimeError):
    """Raised when a tree would exceed the configured node limit."""


@dataclass(frozen=True, eq=False)
class OffspringDistribution:
    """Finite-support offspring law p_k, k >= 1, with mean 2.

    The mean-2 normalization makes E n(t) = e^t for unit branching rate;
    it is validated at construction, as is sum(p) = 1.
    """

    ks: np.ndarray
    ps: np.ndarray
    mean: float = field(init=False)
    second_factorial_moment: float = field(init=False)
    # coefficients of g(v) = sum_j P(K >= j+2) v^j, lowest power first: the
    # F-KPP reaction (1-u) - sum_k p_k (1-u)^k equals u v g(v), v = 1-u
    reaction_coefficients: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ks = np.asarray(self.ks, dtype=np.int64)
        ps = np.asarray(self.ps, dtype=np.float64)
        if ks.ndim != 1 or ps.shape != ks.shape:
            raise ValueError("ks and ps must be 1-d arrays of equal length")
        if np.any(ks < 1):
            raise ValueError("offspring counts must be >= 1")
        if np.any(ps < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(ps.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {ps.sum()}, not 1")
        mean = float(ks @ ps)
        # the degenerate chain p_1 = 1 is allowed as a diagnostic case
        # (single lineage, plain Brownian motion); everything else must
        # carry the mean-2 normalization that makes E n(t) = e^t
        degenerate = len(ks) == 1 and ks[0] == 1
        if not degenerate and abs(mean - 2.0) > 1e-12:
            raise ValueError(f"offspring mean is {mean}, must be 2")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "ps", ps)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "second_factorial_moment", float((ks * (ks - 1)) @ ps))
        p_at_least = np.cumsum(np.bincount(ks, weights=ps, minlength=3)[::-1])[::-1]
        object.__setattr__(self, "reaction_coefficients", p_at_least[2:])

    @property
    def K(self) -> float:
        return self.second_factorial_moment

    @classmethod
    def binary(cls) -> "OffspringDistribution":
        return cls(np.array([2]), np.array([1.0]))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if len(self.ks) == 1:
            return np.full(size, self.ks[0], dtype=np.int64)
        return rng.choice(self.ks, size=size, p=self.ps)


@dataclass(frozen=True, eq=False)
class GenealogyTree:
    """Flat-array record of one Galton-Watson realization up to horizon t.

    Node 0 is the root.  Children always carry larger indices than their
    parent, and ``wave_starts`` records the generation boundaries of the
    breadth-first construction (used for vectorized descent).
    """

    horizon: float
    birth: np.ndarray
    death: np.ndarray
    parent: np.ndarray
    n_offspring: np.ndarray
    wave_starts: np.ndarray
    leaf_ids: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.birth)

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_ids)


def tree_rng(seed: int) -> np.random.Generator:
    """Counter-based generator used for all tree and Gaussian draws."""
    return np.random.Generator(np.random.Philox(seed))


def seed_stream(master: int, replicate: int, stream: str) -> int:
    """Collision-resistant derived seed for (master, replicate, stream);
    stable across versions (pure blake2b of the decimal-rendered triple).
    Every per-replicate generator is ``tree_rng(seed_stream(...))``."""
    msg = f"{master}:{replicate}:{stream}".encode()
    return int.from_bytes(hashlib.blake2b(msg, digest_size=8).digest(), "big")


def _run_chunk(fn, common, reps):
    return [fn(*common, rep) for rep in reps]


def run_replicates(fn, common: tuple, replicates: int, workers: int = 1) -> list:
    """``[fn(*common, rep) for rep in range(replicates)]``, in replicate order.

    With ``workers > 1`` strided chunks of replicate indices run in a
    process pool, so ``fn`` and ``common`` must pickle.  Each replicate
    draws only from streams keyed by its own index, which makes the result
    independent of the worker count.
    """
    workers = min(workers, replicates)
    if workers <= 1:
        return _run_chunk(fn, common, range(replicates))
    from concurrent.futures import ProcessPoolExecutor

    out = [None] * replicates
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunks = [range(i, replicates, workers) for i in range(workers)]
        for i, part in enumerate(pool.map(partial(_run_chunk, fn, common), chunks)):
            out[i::workers] = part
    return out


def sample_tree(
    offspring: OffspringDistribution,
    t: float,
    seed: int,
    node_cap: int = DEFAULT_NODE_CAP,
    rng: np.random.Generator | None = None,
) -> GenealogyTree:
    """Sample a Galton-Watson tree with Exp(1) lifetimes up to horizon t.

    Deterministic given the seed: lifetimes and offspring counts are drawn
    wave by wave in node-index order.  Raises PopulationCapError instead of
    silently truncating when node_cap is exceeded.
    """
    if t <= 0:
        raise ValueError("horizon t must be positive")
    if rng is None:
        rng = tree_rng(seed)

    births: list[np.ndarray] = []
    deaths: list[np.ndarray] = []
    parents: list[np.ndarray] = []
    offspring_counts: list[np.ndarray] = []
    wave_starts = [0]

    cur_birth = np.zeros(1)
    cur_parent = np.full(1, -1, dtype=np.int64)
    total = 0
    while len(cur_birth) > 0:
        m = len(cur_birth)
        total += m
        if total > node_cap:
            raise PopulationCapError(
                f"population exceeded node cap {node_cap} at horizon {t}"
            )
        lifetime = rng.exponential(size=m)
        death = cur_birth + lifetime
        survives = death >= t
        death = np.where(survives, t, death)
        k = np.zeros(m, dtype=np.int64)
        n_internal = int((~survives).sum())
        if n_internal:
            k[~survives] = offspring.sample(rng, n_internal)

        births.append(cur_birth)
        deaths.append(death)
        parents.append(cur_parent)
        offspring_counts.append(k)

        # spawn the next wave
        wave_offset = wave_starts[-1]
        internal_idx = np.nonzero(~survives)[0] + wave_offset
        child_parent = np.repeat(internal_idx, k[~survives])
        child_birth = np.repeat(death[~survives], k[~survives])
        wave_starts.append(wave_offset + m)
        cur_birth = child_birth
        cur_parent = child_parent

    birth = np.concatenate(births)
    death = np.concatenate(deaths)
    parent = np.concatenate(parents)
    n_off = np.concatenate(offspring_counts)
    leaf_ids = np.nonzero(n_off == 0)[0]
    return GenealogyTree(
        horizon=t,
        birth=birth,
        death=death,
        parent=parent,
        n_offspring=n_off,
        wave_starts=np.asarray(wave_starts, dtype=np.int64),
        leaf_ids=leaf_ids,
    )


def _check_leaf(tree: GenealogyTree, node: int) -> None:
    if node < 0 or node >= tree.n_nodes or tree.n_offspring[node] != 0:
        raise KeyError(f"node {node} is not a leaf of this tree")


def mrca(tree: GenealogyTree, k: int, l: int) -> float:
    """Last time the ancestral lines of leaves k and l coincide.

    Walks parent pointers, lifting whichever line was born later; O(depth).
    """
    _check_leaf(tree, k)
    _check_leaf(tree, l)
    if k == l:
        return tree.horizon
    a, b = k, l
    while a != b:
        if tree.birth[a] >= tree.birth[b]:
            a = tree.parent[a]
        else:
            b = tree.parent[b]
        if a < 0 or b < 0:
            raise RuntimeError("walked past the root; corrupt tree")
    # the lines separate when their common ancestor branches
    return float(tree.death[a])


def leaves_at(tree: GenealogyTree, s: float) -> np.ndarray:
    """Ids of all lineages alive at time s; len() gives n(s)."""
    if s < 0 or s > tree.horizon:
        raise ValueError(f"s={s} outside [0, {tree.horizon}]")
    if s == tree.horizon:
        return tree.leaf_ids.copy()
    return np.nonzero((tree.birth <= s) & (tree.death > s))[0]
