"""Continuous-time Galton-Watson trees.

Trees are sampled generation by generation into flat numpy arrays so that
populations of ~1e7 nodes stay cheap to build and to query.  One
``GenealogyTree`` records every tree grown together, in one wave loop,
each from its own start time, on one generator: the trees of one
replicate block in ``sampler.forest_block``, the immigrant trees of one
block of spines in ``cluster``.  A single tree is a forest of one.

The model branches at rate 1 with an offspring law p_k of mean 2, so the
expected population at time t is e^t.  A branching into one child cannot be
told apart from an edge that goes on, and lifetimes are memoryless, so the
trees grow only the real branchings: lifetimes are Exp(1 - p_1) and
offspring counts follow the law of k given k >= 2, the same process in
law.  No node has exactly one child; over an edge the Gaussian increment of
the unsplit edge is the sum of those of its k = 1 pieces.

``run_replicates`` is the one replicate executor.  It calls a function
once per block of replicates, in strided shares of the blocks: the caller
runs share 0, and each other share runs in one child process that sends
its results back through a pipe.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Nodes of the largest tree sample_forest grows.  Measured with tracemalloc
# on binary and (1,3) trees at t = 11-12, growing a tree peaks at 33-44 B
# per node and placing it under three profiles at 68-74 B, so a tree at
# the cap takes about 1.2 GB; 10**8 nodes would take about 7 GB and
# exhaust a 7 GB machine before the cap fired.  ``runner.load_config``
# rejects every horizon where the run expects more than 1e-3 of its trees
# past the cap, replicates * exp(-NODE_CAP / (k e^t)) > 1e-3, k the law's
# largest offspring count: the Yule tail of the tree size, not its mean
# 2e^t.
NODE_CAP = 2**24


class PopulationCapError(RuntimeError):
    """Raised when a tree would exceed ``NODE_CAP`` nodes."""


@dataclass(frozen=True, eq=False)
class OffspringDistribution:
    """Finite-support offspring law p_k, k >= 1, with mean 2.

    The mean-2 normalization makes E n(t) = e^t for unit branching rate;
    it is validated at construction, as is sum(p) = 1.  ``rate`` = 1 - p_1
    is the rate of the real branchings (k >= 2), ``branch_ks`` and ``cdf``
    their law, the law of k given k >= 2.  The chain p_1 = 1 has rate 0
    and no real branchings.
    """

    ks: np.ndarray
    ps: np.ndarray
    # E[K(K-1)], the second factorial moment of the law
    K: float = field(init=False)
    # coefficients of g(v) = sum_j P(K >= j+2) v^j, lowest power first: the
    # F-KPP reaction (1-u) - sum_k p_k (1-u)^k equals u v g(v), v = 1-u
    reaction_coefficients: np.ndarray = field(init=False, repr=False)
    rate: float = field(init=False)
    branch_ks: np.ndarray = field(init=False, repr=False)
    cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ks = np.asarray(self.ks)
        # integral floats such as 2.0 load; 1.9 is not cut down to 1
        integral = ks.dtype.kind in "iu" or (
            ks.dtype.kind == "f" and bool(np.all(np.isfinite(ks) & (ks == np.floor(ks))))
        )
        if not integral:
            raise ValueError(f"offspring counts must be integers, got {ks.tolist()}")
        ks = ks.astype(np.int64)
        ps = np.asarray(self.ps, dtype=np.float64)
        if ks.ndim != 1 or ps.shape != ks.shape:
            raise ValueError("ks and ps must be 1-d arrays of equal length")
        if np.any(ks < 1):
            raise ValueError("offspring counts must be >= 1")
        # each check is written so that NaN fails it
        if not np.all(ps >= 0):
            raise ValueError(f"probabilities must be nonnegative numbers, got {ps.tolist()}")
        if not abs(ps.sum() - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {ps.sum()}, not 1")
        mean = float(ks @ ps)
        # the degenerate chain p_1 = 1 is allowed as a diagnostic case
        # (single lineage, plain Brownian motion); everything else must
        # carry the mean-2 normalization that makes E n(t) = e^t
        degenerate = len(ks) == 1 and ks[0] == 1
        if not (degenerate or abs(mean - 2.0) <= 1e-12):
            raise ValueError(f"offspring mean is {mean}, must be 2")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "ps", ps)
        object.__setattr__(self, "K", float((ks * (ks - 1)) @ ps))
        p_at_least = np.cumsum(np.bincount(ks, weights=ps, minlength=3)[::-1])[::-1]
        object.__setattr__(self, "reaction_coefficients", p_at_least[2:])
        real = ks >= 2
        rate = float(ps[real].sum())
        # the cdf ``rng.choice(branch_ks, p=ps[real] / rate)`` builds; the
        # chain has none
        cdf = (ps[real] / rate).cumsum() if rate else np.zeros(0)
        if rate:
            cdf /= cdf[-1]
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "branch_ks", ks[real])
        object.__setattr__(self, "cdf", cdf)

    @classmethod
    def binary(cls) -> "OffspringDistribution":
        return cls(np.array([2]), np.array([1.0]))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` offspring counts of real branchings, law k given k >= 2,
        by inverse CDF on ``rng.random(size)``: the draws and arithmetic of
        ``rng.choice(branch_ks, size, p=ps[ks >= 2] / rate)`` without its
        per-call validation of p."""
        return self.branch_ks[self.cdf.searchsorted(rng.random(size), side="right")]


@dataclass(frozen=True, eq=False)
class GenealogyTree:
    """Flat-array record of the Galton-Watson trees grown together up to
    horizon t, ``n_trees`` of them; one tree is a forest of one.

    Nodes are wave-major: wave w of all trees is
    ``wave_starts[w]:wave_starts[w + 1]``, the first wave holds the roots
    of trees 0..n_trees-1, and parents are node indices, always smaller
    than their children's.  Within a wave the nodes of tree r are
    contiguous and precede those of tree r + 1, so tree r's nodes in index
    order are the breadth-first order of the tree grown alone.
    ``wave_sizes[w, r]`` counts the nodes of tree r in wave w.
    ``internal_ids`` are the nodes with children, ascending.

    The record keeps only the times placement reads: ``starts``, the
    roots' births, and ``split``, the internal nodes' deaths in
    ``internal_ids`` order.  Every leaf dies at the horizon and every
    child is born when its parent dies, so ``birth`` and ``death`` of all
    nodes follow from these and are derived on first use (``mrca``).
    """

    horizon: float
    starts: np.ndarray  # (n_trees,)
    split: np.ndarray  # (len(internal_ids),)
    parent: np.ndarray
    wave_sizes: np.ndarray  # (waves, n_trees)
    leaf_ids: np.ndarray
    internal_ids: np.ndarray

    @cached_property
    def death(self) -> np.ndarray:
        """The death time of every node: its split, or the horizon."""
        death = np.full(self.n_nodes, float(self.horizon))
        death[self.internal_ids] = self.split
        return death

    @cached_property
    def birth(self) -> np.ndarray:
        """The birth time of every node: its start, or its parent's death."""
        birth = self.death.take(self.parent)
        birth[: self.n_trees] = self.starts
        return birth

    @cached_property
    def wave_starts(self) -> np.ndarray:
        """The first node of every wave, then the node count."""
        return np.concatenate([[0], self.wave_sizes.sum(axis=1).cumsum()])

    @cached_property
    def n_offspring(self) -> np.ndarray:
        """The number of children of every node."""
        return np.bincount(self.parent[self.n_trees :], minlength=self.n_nodes)

    @cached_property
    def tree_id(self) -> np.ndarray:
        """The tree of every node."""
        waves = len(self.wave_sizes)
        return np.tile(np.arange(self.n_trees), waves).repeat(self.wave_sizes.ravel())

    @cached_property
    def leaf_tree(self) -> np.ndarray:
        """The tree of every leaf, in ``leaf_ids`` order."""
        if self.n_trees == 1:
            return np.zeros(self.n_leaves, np.intp)
        return self.tree_id[self.leaf_ids]

    @property
    def n_trees(self) -> int:
        return self.wave_sizes.shape[1]

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_ids)


def tree_rng(seed: int) -> np.random.Generator:
    """SFC64 generator used for all tree and Gaussian draws.  numpy
    expands ``seed`` through a SeedSequence into the initial state, so
    distinct ``seed_stream`` keys give independent streams."""
    if seed is None:
        raise TypeError("tree_rng needs an integer seed, not None")
    return np.random.Generator(np.random.SFC64(seed))


def seed_stream(master: int, replicate: int, stream: str) -> int:
    """Collision-resistant derived seed for (master, replicate, stream);
    stable across versions (pure blake2b of the decimal-rendered triple).
    Every stream's generator is ``tree_rng`` of this seed, a forest
    block's keyed by the block's first replicate."""
    msg = f"{master}:{replicate}:{stream}".encode()
    return int.from_bytes(hashlib.blake2b(msg, digest_size=8).digest(), "big")


def _usable_cpus() -> int | None:
    """The CPUs this process may run on: its affinity set where the
    platform has one (a cpuset can hold fewer than the host's CPUs), else
    ``os.cpu_count()``, which is None when unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def run_replicates(fn, common: tuple, replicates: int, workers: int = 1, block: int = 1) -> list:
    """One result per replicate, in replicate order, of ``fn(*common, b)``
    called once per block ``b``.

    A block is a ``range`` of ``block`` consecutive replicates: block k is
    [k*block, (k+1)*block), the last one possibly shorter.  ``fn`` returns
    one result per replicate of ``b``, in order, and draws only from
    streams keyed by ``b.start``.  The blocks split into w = min(
    ``workers``, blocks, usable CPUs) shares, share s holding blocks s,
    s + w, ...: the caller runs share 0 and child process s, started by
    ``multiprocessing``'s default method, runs share s and sends its
    results back through a pipe, so ``fn`` and ``common`` must pickle
    where that method is spawn.  The results go back by replicate index;
    since a block's draws do not depend on which process runs it, neither
    does the result.  The usable CPUs are this process's affinity set, so
    a job of one block, or one CPU, starts no child.  A child's exception
    is raised here, a child that dies without a result raises
    RuntimeError, and no child outlives the call.

    Each share first allocates and frees one untouched 31 MiB array
    (``_run_blocks``).  Under 64-bit glibc's malloc that leaves the heap
    that one block frees, up to 62 MiB, mapped for the next, where glibc
    would otherwise trim it and the next block fault it back in: every
    forest block of 2**15 nodes, and one-tree blocks up to about 900k
    nodes.  The process keeps that freed heap resident until it exits.
    The warm-up relies only on the documented dynamic thresholds of
    mallopt(3), sets none of them and needs no MALLOC_* environment
    variable.  Under another allocator it only allocates and frees the
    array.
    """
    blocks = [range(k, min(k + block, replicates)) for k in range(0, replicates, block)]
    workers = min(workers, len(blocks), _usable_cpus() or 1)
    if workers <= 1:
        return _run_blocks(fn, common, blocks)
    import multiprocessing

    shares = [blocks[w::workers] for w in range(workers)]
    children = []
    try:
        for share in shares[1:]:
            receiver, sender = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_run_share, args=(sender, fn, common, share))
            child.start()
            children.append((child, receiver))
            # the child holds the only write end, so its death reads as EOF
            sender.close()
        parts = [_run_blocks(fn, common, shares[0])]
        for child, receiver in children:
            try:
                ok, part = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"replicate process {child.pid} exited with code {child.exitcode} before sending its results"
                ) from None
            child.join()
            if not ok:
                raise part
            parts.append(part)
    finally:
        for child, receiver in children:
            child.terminate()
            child.join()
            receiver.close()
    out = [None] * replicates
    for share, part in zip(shares, parts):
        for r, value in zip((r for b in share for r in b), part):
            out[r] = value
    return out


# Bytes of the untouched array ``_run_blocks`` frees before its first block.
# 64-bit glibc maps it and, on freeing it, raises its dynamic mmap threshold
# to its size, 31 MiB, and its heap trim threshold to twice that, 62 MiB,
# and keeps both dynamic (mallopt(3), M_MMAP_THRESHOLD).  31 MiB, not 32:
# a freed mapping moves the thresholds only up to DEFAULT_MMAP_THRESHOLD_MAX,
# 32 MiB, and the chunk of a 32 MiB request, header included, is over it
# and moves nothing.  Arrays under 31 MiB then go on the heap, and what a
# block frees at the heap top stays mapped for the next block, up to
# 62 MiB, instead of being trimmed and faulted back in.  That covers a
# forest block of sampler.FOREST_NODE_BUDGET = 2**15 nodes, which peaks at
# 1.5 MiB grown, placed and reduced under one profile and at 2.4 MiB under
# compare's three (tracemalloc), and the one-tree blocks of t > ln 8192,
# about 9.01, up to about 900k nodes at about 70 B per node: 100 law (1,3)
# replicates at t = 10 and one worker fault in under 300 pages, not about
# 26,000.  The cost: a process keeps up to 62 MiB of freed heap resident
# until it exits.
_HEAP_WARMUP_BYTES = 31 << 20


def _run_blocks(fn, common, share) -> list:
    """The results of ``fn(*common, b)`` for the blocks b of ``share``,
    concatenated, after freeing one untouched _HEAP_WARMUP_BYTES array."""
    np.empty(_HEAP_WARMUP_BYTES, np.uint8)
    return [value for b in share for value in fn(*common, b)]


def _run_share(sender, fn, common, share) -> None:
    """A child's share of ``run_replicates``: sends ``(True, results)`` or
    ``(False, exception)`` through ``sender``."""
    try:
        message = (True, _run_blocks(fn, common, share))
    except Exception as exc:  # the caller raises it
        message = (False, exc)
    sender.send(message)
    sender.close()


def sample_forest(
    offspring: OffspringDistribution,
    t: float,
    rng: np.random.Generator,
    starts: np.ndarray | None = None,
) -> GenealogyTree:
    """Grow Galton-Watson trees up to the shared finite horizon t > 0, all
    in one wave loop on the generator ``rng``, branching only for real:
    lifetimes are Exp(``offspring.rate``), rate 1 - p_1, and every node
    that dies before t has k >= 2 children.  The chain p_1 = 1 grows one
    node per tree, alive to t, and draws nothing.  The root of tree r is
    born at ``starts[r]``, which must lie in [0, t); the default is one
    tree rooted at 0.

    Per wave, ``rng`` draws the lifetimes of all the wave's nodes in one
    call, then, for a law with more than one real offspring count, the
    offspring counts of those that die before t in one call.  Raises
    PopulationCapError instead of silently truncating when any one tree
    would exceed ``NODE_CAP`` nodes, read at call time.
    """
    # written so that NaN fails each check
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"horizon t must be finite and positive, got {t}")
    birth = np.zeros(1) if starts is None else np.array(starts, dtype=np.float64)
    if birth.ndim != 1:
        raise ValueError("starts must be 1-d with one entry per tree")
    n_trees = len(birth)
    if n_trees == 0:
        raise ValueError("a forest needs at least one tree")
    if not (birth.min() >= 0 and birth.max() < t):
        raise ValueError(f"start times must lie in [0, {t})")
    starts = birth
    # one real offspring count fixes every count and draws none
    fixed_k = int(offspring.branch_ks[0]) if len(offspring.branch_ks) == 1 else 0
    scale = 1.0 / offspring.rate if offspring.rate else None

    splits: list[np.ndarray] = []
    parents: list[np.ndarray] = []
    internal_ids: list[np.ndarray] = []
    wave_bounds: list[np.ndarray] = []  # bounds of each wave
    n_nodes = 0

    parent = np.full(n_trees, -1, dtype=np.int64)
    # the nodes of tree r in the current wave are bounds[r]:bounds[r + 1]
    bounds = np.arange(n_trees + 1)
    while len(birth):
        wave_bounds.append(bounds)
        offset = n_nodes
        n_nodes += len(birth)
        # the forest's node count bounds every tree's
        if n_nodes > NODE_CAP:
            per_tree = np.diff(wave_bounds, axis=1).sum(axis=0)
            if per_tree.max() > NODE_CAP:
                raise PopulationCapError(
                    f"population of tree {int(per_tree.argmax())} exceeded "
                    f"node cap {NODE_CAP} at horizon {t}"
                )
        if scale is None:
            # the chain never branches: each root lives to t
            death = np.full(len(birth), float(t))
        else:
            death = rng.exponential(scale, len(birth))
            death += birth
        idx = (death < t).nonzero()[0]
        int_bounds = idx.searchsorted(bounds)
        if fixed_k:
            k = fixed_k
            bounds = fixed_k * int_bounds
        else:
            # a wave with no branching ends the loop and draws no counts
            k = offspring.sample(rng, len(idx)) if len(idx) else idx
            csum = np.zeros(len(k) + 1, dtype=np.int64)
            k.cumsum(out=csum[1:])
            bounds = csum[int_bounds]
        parents.append(parent)
        split = death[idx]
        splits.append(split)

        # spawn the next wave
        birth = split.repeat(k)
        idx += offset
        parent = idx.repeat(k)
        internal_ids.append(idx)

    internal = np.concatenate(internal_ids)
    is_leaf = np.ones(n_nodes, dtype=bool)
    is_leaf[internal] = False
    return GenealogyTree(
        horizon=t,
        starts=starts,
        split=_join(splits),
        parent=_join(parents),
        wave_sizes=np.diff(wave_bounds, axis=1),
        leaf_ids=is_leaf.nonzero()[0],
        internal_ids=internal,
    )


def _join(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def sample_tree(
    offspring: OffspringDistribution,
    t: float,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> GenealogyTree:
    """Sample a Galton-Watson tree of real branchings up to horizon t
    (Exp(1 - p_1) lifetimes, k >= 2 children): ``sample_forest``'s forest
    of one on the generator ``rng``, or ``tree_rng(seed)``; exactly one of
    ``seed`` and ``rng`` is given, else TypeError.

    Deterministic given the seed: lifetimes and offspring counts are drawn
    wave by wave in node-index order.  Raises PopulationCapError instead of
    silently truncating when ``NODE_CAP`` is exceeded.
    """
    if (seed is None) == (rng is None):
        raise TypeError("sample_tree takes exactly one of seed and rng")
    return sample_forest(offspring, t, tree_rng(seed) if rng is None else rng)


def _check_leaf(tree: GenealogyTree, node: int) -> None:
    if node < 0 or node >= tree.n_nodes or tree.n_offspring[node] != 0:
        raise KeyError(f"node {node} is not a leaf of this tree")


def mrca(tree: GenealogyTree, k: int, l: int) -> float:
    """Last time the ancestral lines of leaves k and l coincide.

    Walks parent pointers, lifting whichever line was born later; O(depth).
    Leaves of different trees have no common ancestor: ValueError.
    """
    _check_leaf(tree, k)
    _check_leaf(tree, l)
    if tree.n_trees > 1 and tree.tree_id[k] != tree.tree_id[l]:
        raise ValueError(f"leaves {k} and {l} are in different trees, {tree.tree_id[k]} and {tree.tree_id[l]}")
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

