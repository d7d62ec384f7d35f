import math
import multiprocessing
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chisquare, ks_2samp, kstest

from vsbbm import genealogy
from vsbbm.extremal import centering
from vsbbm.genealogy import (
    GenealogyTree,
    OffspringDistribution,
    PopulationCapError,
    mrca,
    run_replicates,
    sample_forest,
    sample_tree,
    seed_stream,
    tree_rng,
)
from vsbbm.runner import SEED_SCHEME
from vsbbm.sampler import forest_leaf_positions, sample_leaf_positions
from vsbbm.speed import two_speed

BINARY = OffspringDistribution.binary()
CHAIN = OffspringDistribution(np.array([1]), np.array([1.0]))
LAWS = {
    "binary": BINARY,
    "1,3": OffspringDistribution(np.array([1, 3]), np.array([0.5, 0.5])),
    "1,2,3": OffspringDistribution(np.array([1, 2, 3]), np.array([0.25, 0.5, 0.25])),
}


def test_offspring_validation():
    with pytest.raises(ValueError):
        OffspringDistribution(np.array([1, 3]), np.array([0.5, 0.4]))  # sum != 1
    with pytest.raises(ValueError):
        OffspringDistribution(np.array([1, 2]), np.array([0.5, 0.5]))  # mean 1.5
    with pytest.raises(ValueError):
        OffspringDistribution(np.array([0, 4]), np.array([0.5, 0.5]))  # k=0
    # NaN fails no > test: p = (0.5, nan) used to load, and every root of
    # its trees ended up a leaf
    for ps in ([0.5, np.nan], [np.nan, 0.5], [np.nan, np.nan]):
        with pytest.raises(ValueError, match="nonnegative numbers"):
            OffspringDistribution(np.array([1, 3]), np.array(ps))
    d = OffspringDistribution(np.array([1, 3]), np.array([0.5, 0.5]))
    assert abs(d.ks @ d.ps - 2.0) < 1e-12
    assert abs(d.K - 3.0) < 1e-12  # 0.5 * 3 * 2


def test_offspring_counts_must_be_integers():
    # (1.9, 3.9) used to be cut down to the law (1,3) without a word
    for ks in ([1.9, 3.9], [1.0, 3.5], [1.0, np.nan], [1.0, np.inf]):
        with pytest.raises(ValueError, match="offspring counts must be integers"):
            OffspringDistribution(np.array(ks), np.array([0.5, 0.5]))
    # integral floats still load, as the same law
    d = OffspringDistribution(np.array([1.0, 3.0]), np.array([0.5, 0.5]))
    assert d.ks.dtype == np.int64 and d.ks.tolist() == [1, 3]
    assert np.array_equal(d.reaction_coefficients, [0.5, 0.5])


def test_binary_K_is_two():
    assert BINARY.K == 2.0


def test_degenerate_chain_single_lineage():
    # the chain never branches for real: one node per tree, alive to t,
    # and not one draw
    assert CHAIN.rate == 0.0 and len(CHAIN.branch_ks) == 0
    rng = tree_rng(3)
    tree = sample_tree(CHAIN, 7.0, rng=rng)
    assert tree.n_nodes == tree.n_leaves == 1
    assert (tree.birth[0], tree.death[0], tree.parent[0], tree.n_offspring[0]) == (0.0, 7.0, -1, 0)
    assert tree.wave_starts.tolist() == [0, 1]
    assert rng.random() == tree_rng(3).random()
    rng = tree_rng(3)
    forest = sample_forest(CHAIN, 7.0, rng, starts=[0.0, 2.5, 6.0])
    assert forest.birth.tolist() == [0.0, 2.5, 6.0]
    assert forest.death.tolist() == [7.0] * 3
    assert forest.leaf_ids.tolist() == [0, 1, 2]
    assert forest.wave_sizes.tolist() == [[1, 1, 1]] and forest.leaf_tree.tolist() == [0, 1, 2]
    assert rng.random() == tree_rng(3).random()


@pytest.mark.parametrize(
    "ks, ps",
    [([2], [1.0]), ([1, 3], [0.5, 0.5]), ([1, 2, 3], [0.25, 0.5, 0.25]), ([1, 2, 4], [0.4, 0.4, 0.2])],
    ids=["binary", "1,3", "1,2,3", "1,2,4"],
)
def test_sample_is_choice_over_real_branchings(ks, ps):
    law = OffspringDistribution(np.array(ks), np.array(ps))
    real = law.ks >= 2
    assert law.rate == law.ps[real].sum() and law.branch_ks.tolist() == law.ks[real].tolist()
    for seed in range(5):
        want = tree_rng(seed).choice(law.ks[real], 1000, p=law.ps[real] / law.rate)
        assert np.array_equal(law.sample(tree_rng(seed), 1000), want)
    assert BINARY.rate == 1.0


def test_population_mean_binary():
    rng = tree_rng(42)
    reps = 2000
    n = np.array([sample_tree(BINARY, 5.0, rng=rng).n_leaves for _ in range(reps)])
    se = n.std(ddof=1) / math.sqrt(reps)
    assert abs(n.mean() - math.exp(5.0)) < 3 * se


def test_tree_structure_invariants():
    tree = sample_tree(BINARY, 4.0, seed=11)
    assert tree.birth[0] == 0.0 and tree.parent[0] == -1
    internal = tree.n_offspring > 0
    assert np.all(tree.death[internal] > tree.birth[internal])
    assert np.all(tree.death[tree.leaf_ids] == 4.0)
    assert tree.n_leaves == int((tree.death == 4.0).sum())
    kids = tree.parent[1:]
    assert np.all(tree.birth[1:] == tree.death[kids])
    # parents precede children, as the samplers assume
    assert np.all(kids < np.arange(1, tree.n_nodes))


@pytest.mark.parametrize("law", list(LAWS), ids=list(LAWS))
def test_derived_birth_and_death(law):
    # the record keeps the roots' births and the internal nodes' deaths;
    # birth and death of every node follow from them
    t, starts = 4.0, np.array([0.0, 0.5, 2.0, 3.9, 2.0])
    for forest in (sample_forest(LAWS[law], t, tree_rng(4), starts=starts), sample_tree(LAWS[law], t, seed=4)):
        n = forest.n_trees
        assert np.array_equal(forest.death[forest.internal_ids], forest.split)
        assert np.all(forest.death[forest.leaf_ids] == t)
        assert np.array_equal(forest.birth[:n], forest.starts)
        assert np.array_equal(forest.birth[n:], forest.death[forest.parent[n:]])
        assert np.all(forest.split < t) and len(forest.split) == len(forest.internal_ids)


def _traced(fn):
    """(fn(), bytes allocated at the peak, bytes still held after)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak - base, held - base


def test_tree_record_memory_per_node():
    # one law (1,3) tree grown to t = 10: growing it peaks at 33 B a node
    # and the record keeps 19, against 60 and 32 when the record also kept
    # every node's birth and death.  A small tree first, so that what the
    # first call of a process allocates once is not counted
    sample_tree(LAWS["1,3"], 3.0, rng=tree_rng(0))
    tree, peak, held = _traced(lambda: sample_tree(LAWS["1,3"], 10.0, rng=tree_rng(22)))
    assert tree.n_nodes == 110_155
    assert peak / tree.n_nodes <= 48.0
    assert held / tree.n_nodes <= 30.0


def test_sample_tree_deterministic():
    a = sample_tree(BINARY, 5.0, seed=123)
    b = sample_tree(BINARY, 5.0, seed=123)
    assert np.array_equal(a.birth, b.birth)
    assert np.array_equal(a.death, b.death)
    assert np.array_equal(a.parent, b.parent)
    c = sample_tree(BINARY, 5.0, seed=124)
    assert not np.array_equal(a.death, c.death)


def test_population_cap(monkeypatch):
    monkeypatch.setattr(genealogy, "NODE_CAP", 50)
    with pytest.raises(PopulationCapError):
        sample_tree(BINARY, 12.0, seed=0)


def _reference_tree(offspring, t, rng, real_only=True, starts=(0.0,)):
    """Oracle: trees rooted at ``starts`` grown together on ``rng``, wave
    by wave, drawing the lifetimes of a wave and then ``rng.choice``
    offspring counts for its nodes that die before t; returns (birth,
    death, parent, n_offspring, wave_starts, tree of each node).  With the
    default one root at 0 it is one tree grown alone.

    With ``real_only`` it grows only the real branchings, the draws of
    ``sample_forest``: Exp(1 - p_1) lifetimes and counts from the law of k
    given k >= 2.  Without, it is the rate-1 sampler that grows every
    k = 1 event as a node, the reference for the equality in law."""
    ks, ps, scale = offspring.ks, offspring.ps, 1.0
    if real_only:
        real = ks >= 2
        ks, ps, scale = ks[real], ps[real] / offspring.rate, 1.0 / offspring.rate
    births, deaths, parents, kids, trees, waves = [], [], [], [], [], [0]
    birth = np.array(starts, dtype=float)
    parent, tree = np.full(len(birth), -1), np.arange(len(birth))
    while len(birth):
        death = birth + rng.exponential(scale, size=len(birth))
        internal = death < t
        death[~internal] = t
        k = np.zeros(len(birth), dtype=np.int64)
        if internal.any():
            if len(ks) == 1:
                k[internal] = ks[0]
            else:
                k[internal] = rng.choice(ks, size=int(internal.sum()), p=ps)
        for store, arr in zip((births, deaths, parents, kids, trees), (birth, death, parent, k, tree)):
            store.append(arr)
        parent = np.repeat(np.arange(waves[-1], waves[-1] + len(birth)), k)
        birth, tree = np.repeat(death, k), np.repeat(tree, k)
        waves.append(waves[-1] + len(death))
    birth, death, parent, kids, tree = (np.concatenate(a) for a in (births, deaths, parents, kids, trees))
    return birth, death, parent, kids, np.array(waves), tree


@pytest.mark.parametrize("law", list(LAWS), ids=list(LAWS))
def test_sample_forest_matches_trees_grown_alone(law):
    # sample_tree is the reference oracle's one tree grown alone; a forest
    # of 40 trees on one generator is the oracle's wave loop over 40 roots,
    # and tree r's nodes, in forest index order, are its breadth-first order
    offspring, t = LAWS[law], 3.5
    for s in range(10):
        alone = sample_tree(offspring, t, seed=s)
        want = _reference_tree(offspring, t, tree_rng(s))
        got = (alone.birth, alone.death, alone.parent, alone.n_offspring, alone.wave_starts)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    for s in range(5):
        forest = sample_forest(offspring, t, tree_rng(s), starts=np.zeros(40))
        tree_id = forest.tree_id
        birth, death, parent, kids, waves, tree = _reference_tree(offspring, t, tree_rng(s), starts=np.zeros(40))
        assert forest.n_trees == 40
        for got, want in zip(
            (forest.birth, forest.death, forest.parent, forest.n_offspring, forest.wave_starts, tree_id),
            (birth, death, parent, kids, waves, tree),
        ):
            assert np.array_equal(got, want)
        for w in range(len(waves) - 1):
            assert np.all(np.diff(tree_id[waves[w] : waves[w + 1]]) >= 0)
            assert np.array_equal(forest.wave_sizes[w], np.bincount(tree[waves[w] : waves[w + 1]], minlength=40))
        assert np.array_equal(forest.leaf_ids, np.flatnonzero(forest.n_offspring == 0))
        assert np.array_equal(forest.leaf_tree, tree[forest.leaf_ids])
        assert np.array_equal(forest.internal_ids, np.flatnonzero(forest.n_offspring))


def test_sample_forest_population_cap_is_per_tree(monkeypatch):
    # 30 trees rooted at 0 on one generator, as a forest block grows
    def grow():
        return sample_forest(BINARY, 3.0, tree_rng(5), starts=np.zeros(30))

    sizes = np.bincount(grow().tree_id)
    largest = int(sizes.max())
    assert sizes.sum() > largest
    # the forest may hold more nodes than the cap, as long as no tree does
    monkeypatch.setattr(genealogy, "NODE_CAP", largest)
    grow()
    monkeypatch.setattr(genealogy, "NODE_CAP", largest - 1)
    with pytest.raises(PopulationCapError, match=f"tree {int(sizes.argmax())} "):
        grow()


@pytest.mark.parametrize("law", list(LAWS), ids=list(LAWS))
def test_shared_generator_forest_of_one_is_sample_tree(law):
    offspring, t = LAWS[law], 4.0
    for s in range(10):
        shared = sample_forest(offspring, t, tree_rng(s), starts=[0.0])
        default = sample_forest(offspring, t, tree_rng(s))
        alone = sample_tree(offspring, t, rng=tree_rng(s))
        assert alone.n_trees == 1 and not alone.leaf_tree.any()
        for field in ("birth", "death", "parent", "n_offspring", "wave_starts", "wave_sizes", "leaf_ids", "leaf_tree"):
            assert np.array_equal(getattr(shared, field), getattr(alone, field))
            assert np.array_equal(getattr(default, field), getattr(alone, field))


def test_forest_roots_start_at_their_birth_times():
    t, starts = 4.0, np.array([0.0, 0.5, 2.0, 3.9, 2.0])
    forest = sample_forest(LAWS["1,3"], t, tree_rng(8), starts=starts)
    assert np.array_equal(forest.birth[: len(starts)], starts)
    assert np.all(forest.death <= t)
    assert np.all(forest.birth >= starts[forest.tree_id])
    assert np.all(forest.death[forest.leaf_ids] == t)
    with pytest.raises(ValueError):
        sample_forest(BINARY, t, tree_rng(8), starts=[1.0, t])
    for bad in ([-0.5, 1.0], [], [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            sample_forest(BINARY, t, tree_rng(8), starts=bad)


@pytest.mark.parametrize("t, starts", [(np.nan, None), (np.inf, None), (4.0, [0.0, np.nan]), (4.0, [np.inf])])
def test_sample_forest_rejects_a_non_finite_horizon_or_start(t, starts):
    # NaN fails no <= test: t = nan used to grow one node per tree, and a
    # nan start gave its leaves nan positions
    with pytest.raises(ValueError, match="finite and positive" if starts is None else "must lie in"):
        sample_forest(BINARY, t, tree_rng(8), starts=starts)


@pytest.mark.parametrize("law", ["binary", "1,3"])
def test_forest_started_late_has_mean_leaf_count(law):
    # E n(t) of a tree rooted at p is e^(t - p)
    t, n = 4.0, 1500
    starts = np.repeat([0.5, 2.5], n)
    forest = sample_forest(LAWS[law], t, tree_rng(21), starts=starts)
    leaves = np.bincount(forest.leaf_tree, minlength=2 * n)
    for p, counts in zip((0.5, 2.5), (leaves[:n], leaves[n:])):
        se = counts.std(ddof=1) / math.sqrt(n)
        assert abs(counts.mean() - math.exp(t - p)) < 4 * se


NON_BINARY = ["1,3", "1,2,3"]


@pytest.mark.parametrize("law", NON_BINARY)
def test_leaf_count_moments_in_law(law):
    # continuous-time Galton-Watson: E n(t) = e^t and
    # Var n(t) = (K - 1) e^t (e^t - 1), K the second factorial moment
    offspring, t, n = LAWS[law], 2.5, 20_000
    forest = sample_forest(offspring, t, tree_rng(17), starts=np.zeros(n))
    counts = np.bincount(forest.leaf_tree, minlength=n).astype(float)
    mean, var = math.exp(t), (offspring.K - 1) * math.exp(t) * (math.exp(t) - 1)
    assert abs(counts.mean() - mean) < 4 * counts.std(ddof=1) / math.sqrt(n)
    centred = counts - counts.mean()
    var_se = math.sqrt(((centred**4).mean() - counts.var() ** 2) / n)
    assert abs(counts.var(ddof=1) - var) < 4 * var_se


@pytest.mark.parametrize("law", NON_BINARY)
def test_real_branchings_match_rate_one_sampler_in_law(law):
    # n_leaves and the centered maximum under two_speed(0.5, 2, 2/3) of the
    # trees sample_tree grows and of the rate-1 trees that keep every k = 1
    # event as a node, on independent seeds
    offspring, t, reps = LAWS[law], 5.0, 1000
    profile = two_speed(0.5, 2.0, 2.0 / 3.0)
    samples = {}
    for real_only in (True, False):
        leaves, maxima = [], []
        for r in range(reps):
            rng = tree_rng(seed_stream(29, r, f"tree:{real_only}"))
            if real_only:
                tree = sample_tree(offspring, t, rng=rng)
            else:
                birth, death, parent, kids, starts, _ = _reference_tree(offspring, t, rng, real_only=False)
                sizes = np.diff(starts)[:, None]
                internal = np.flatnonzero(kids)
                tree = GenealogyTree(t, birth[:1], death[internal], parent, sizes, np.flatnonzero(kids == 0), internal)
            pos = sample_leaf_positions(tree, profile, t, tree_rng(seed_stream(29, r, f"gauss:{real_only}")))
            leaves.append(tree.n_leaves)
            maxima.append(pos.max() - centering(t))
        samples[real_only] = leaves, maxima
    for new, old in zip(samples[True], samples[False]):
        assert ks_2samp(new, old).pvalue > 0.01


@pytest.mark.parametrize("law", NON_BINARY)
def test_root_branches_at_rate_one_minus_p1(law):
    # the root's first real branching is Exp(1 - p_1), censored at t
    offspring, t, n = LAWS[law], 2.0, 20_000
    rate = 1.0 - float(offspring.ps[offspring.ks == 1].sum())
    assert offspring.rate == rate
    life = sample_forest(offspring, t, tree_rng(23), starts=np.zeros(n)).death[:n]
    alive = math.exp(-rate * t)
    assert abs(np.mean(life == t) - alive) < 4 * math.sqrt(alive * (1 - alive) / n)
    branched = life[life < t]
    assert kstest(branched, lambda x: -np.expm1(-rate * x) / -math.expm1(-rate * t)).pvalue > 0.01


def test_shared_generator_population_cap_is_per_tree(monkeypatch):
    def grow():
        return sample_forest(BINARY, 3.0, tree_rng(4), starts=np.linspace(0.0, 2.0, 30))

    sizes = np.bincount(grow().tree_id)
    largest = int(sizes.max())
    assert sizes.sum() > largest
    monkeypatch.setattr(genealogy, "NODE_CAP", largest)
    grow()
    monkeypatch.setattr(genealogy, "NODE_CAP", largest - 1)
    with pytest.raises(PopulationCapError, match=f"tree {int(sizes.argmax())} "):
        grow()


def _lineage(tree, leaf):
    """Oracle helper: the full ancestor chain of a leaf, root first."""
    chain = []
    node = leaf
    while node >= 0:
        chain.append(node)
        node = int(tree.parent[node])
    return chain[::-1]


def _mrca_oracle(tree, k, l):
    """Brute force: deepest shared node of the two ancestor chains; the
    lines separate when that node dies."""
    shared = set(_lineage(tree, k)) & set(_lineage(tree, l))
    return float(max(tree.death[n] for n in shared)) if k != l else tree.horizon


def test_seed_scheme_is_pinned():
    # the one place the scheme's name is pinned; every manifest test reads
    # runner.SEED_SCHEME
    assert SEED_SCHEME == "blake2b-sfc64-v5"
    # every stream is tree_rng(seed_stream(master, first, name)); a change
    # to the derivation or to numpy's SFC64 seeding would change every
    # artifact.  Each stream pins its first normals and, from a fresh
    # generator, its first exponential: the lifetimes draw on that path
    pinned = {
        (0, 0, "tree"): (
            1718889147194537667,
            [-0.6111965867770314, 1.014042749154405, 1.7615619082782927],
            0.049210048758449636,
        ),
        (2201, 55, "gauss"): (
            15699240675713577639,
            [-0.45582905105176197, -1.0672354359079288, -1.1561862893121855],
            3.7583011763630787,
        ),
        (17, 3, "spine"): (
            2301587245200703011,
            [-1.1812598396231382, 2.3071249384364196, -1.0412339673194009],
            0.37279341848631176,
        ),
        (2**40 + 7, 110, "overshoot"): (
            6795232936772584200,
            [0.20169932690308956, 2.2345330402992762, 0.27743933880637156],
            0.04268902148671623,
        ),
    }
    for (master, first, name), (seed, normals, exponential) in pinned.items():
        assert seed_stream(master, first, name) == seed
        assert tree_rng(seed).standard_normal(3).tolist() == normals
        assert tree_rng(seed).exponential() == exponential


def _share_of(tag, b):
    """The replicates of the one block a call is handed, each beside that
    block and the process that ran the call."""
    return [(tag, b, r, os.getpid()) for r in b]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("block", [1, 4])
def test_run_replicates_hands_workers_whole_blocks(monkeypatch, workers, block):
    # enough CPUs for three shares on any machine
    monkeypatch.setattr(genealogy, "_usable_cpus", lambda: 3)
    out = run_replicates(_share_of, ("x",), 10, workers, block)
    assert [r for _, _, r, _ in out] == list(range(10))
    # every call gets exactly one whole block, starting at a multiple of block
    for _, b, r, _ in out:
        assert isinstance(b, range) and b.start % block == 0 and r in b
        assert b == range(b.start, min(b.start + block, 10))
    # block k runs in the process of share k mod w, the caller's share 0
    w = min(workers, -(-10 // block))
    pids = [pid for _, _, _, pid in out]
    share_pid = {(r // block) % w: pid for r, pid in enumerate(pids)}
    assert [share_pid[(r // block) % w] for r in range(10)] == pids
    assert share_pid[0] == os.getpid() and len(set(share_pid.values())) == w


class _RecordingProcess(multiprocessing.Process):
    """A process that records itself as it starts."""

    starts: list = []

    def start(self):
        self.starts.append(self)
        super().start()


@pytest.fixture
def recorded_starts(monkeypatch):
    monkeypatch.setattr(multiprocessing, "Process", _RecordingProcess)
    monkeypatch.setattr(_RecordingProcess, "starts", [])
    yield _RecordingProcess.starts
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus, children", [(2, 1), (None, 0)])
def test_run_replicates_caps_the_children_at_the_cpu_count(monkeypatch, recorded_starts, cpus, children):
    # 5000 blocks of one replicate asked of 5000 workers: on two CPUs the
    # caller and one child, and no child when the CPU count is unknown
    monkeypatch.setattr(genealogy, "_usable_cpus", lambda: cpus)
    out = run_replicates(_share_of, ("x",), 5000, 5000, 1)
    assert len(recorded_starts) == children
    assert [r for _, _, r, _ in out] == list(range(5000))


def test_run_replicates_counts_only_the_cpus_of_its_affinity(monkeypatch, recorded_starts):
    # a host of 8 CPUs whose cpuset allows one: no child starts
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert genealogy._usable_cpus() == 1
    out = run_replicates(_share_of, ("x",), 8, 8, 1)
    assert recorded_starts == []
    assert [r for _, _, r, _ in out] == list(range(8))
    # without an affinity call the host's count is all there is
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert genealogy._usable_cpus() == 8


class _Hung(Exception):
    """Raised by SIGALRM; not an OSError, which multiprocessing's waits
    swallow."""


def _hung(signum, frame):
    raise _Hung("run_replicates did not return in time")


def _fail_in_children(how, b):
    """Three shares, first blocks 0, 1 and 2: the caller's and the first
    child's return their replicates, the last child's fails at block 2 the
    way ``how`` names; with "caller" the caller's fails at block 0 and
    both children sleep for a minute."""
    if how == "caller":
        if b.start == 0:
            raise ValueError("the caller's share failed")
        time.sleep(60)
    elif b.start == 2:
        if how == "raise":
            raise ValueError("share at block 2 failed")
        os._exit(3)
    return list(b)


@pytest.mark.parametrize(
    "how, error, match",
    [
        pytest.param("raise", ValueError, "share at block 2 failed", id="child-raises"),
        pytest.param("exit", RuntimeError, "exited with code 3", id="child-exits"),
        pytest.param("caller", ValueError, "the caller's share failed", id="caller-raises"),
    ],
)
def test_run_replicates_failures_reach_the_caller_and_end_every_child(
    monkeypatch, recorded_starts, how, error, match
):
    # three shares: the caller's and two children; a child that sleeps
    # for a minute is ended, not waited for, and a hang raises _Hung
    monkeypatch.setattr(genealogy, "_usable_cpus", lambda: 3)
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(20)
    try:
        with pytest.raises(error, match=match):
            run_replicates(_fail_in_children, (how,), 6, 3, 1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(recorded_starts) == 2


@pytest.mark.skipif(
    "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {}), reason="the heap warm-up relies on glibc's malloc"
)
@pytest.mark.parametrize(
    "t, law, first, second",
    [
        # 19 forest blocks of 2**15 nodes; a trimmed heap top faults in
        # about 200 pages a block
        pytest.param(5.0, "OffspringDistribution.binary()", 200, 2000, id="t5-forest-blocks"),
        # 100 one-tree blocks of 3.3e4 nodes on average, some far larger;
        # a trimmed heap top faults in about 26,000 pages in all
        pytest.param(
            10.0, "OffspringDistribution(np.array([1, 3]), np.array([0.5, 0.5]))", 10, 100, id="t10-one-tree-blocks"
        ),
    ],
)
def test_run_replicates_blocks_reuse_the_freed_heap(fresh_python, t, law, first, second):
    # a fresh interpreter, so that no earlier test has moved glibc's
    # thresholds: after a first call, a second call at one worker should
    # fault in next to no new pages
    code = (
        "import resource; import numpy as np\n"
        "from vsbbm import runner; from vsbbm.genealogy import OffspringDistribution, run_replicates\n"
        "from vsbbm.sampler import block_size; from vsbbm.speed import two_speed\n"
        f"common = (7, {t}, two_speed(0.5, 2.0, 2 / 3), {law}, np.array([-1.0, 0.0]))\n"
        f"run_replicates(runner._simulate_replicates, common, {first}, 1, block_size({t}))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        f"run_replicates(runner._simulate_replicates, common, {second}, 1, block_size({t}))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
    )
    assert int(fresh_python("-c", code)) < 1500


def test_mrca_same_leaf():
    tree = sample_tree(BINARY, 3.0, seed=5)
    leaf = int(tree.leaf_ids[0])
    assert mrca(tree, leaf, leaf) == 3.0


def test_mrca_first_branch_point():
    # hand-built tree: root dies at tau=1.25, two leaf children
    tau, t = 1.25, 3.0
    tree = GenealogyTree(
        horizon=t,
        starts=np.array([0.0]),
        split=np.array([tau]),
        parent=np.array([-1, 0, 0]),
        wave_sizes=np.array([[1], [2]]),
        leaf_ids=np.array([1, 2]),
        internal_ids=np.array([0]),
    )
    assert tree.wave_starts.tolist() == [0, 1, 3]
    assert mrca(tree, 1, 2) == tau


def test_mrca_across_trees_is_a_value_error():
    # leaves of different trees share no ancestor; within one tree of the
    # forest mrca is the brute-force oracle's
    forest = sample_forest(BINARY, 3.0, tree_rng(12), starts=np.zeros(3))
    first = [int(forest.leaf_ids[forest.leaf_tree == r][0]) for r in range(3)]
    with pytest.raises(ValueError, match="different trees, 0 and 2"):
        mrca(forest, first[0], first[2])
    with pytest.raises(ValueError, match="different trees, 1 and 0"):
        mrca(forest, first[1], first[0])
    leaves = forest.leaf_ids[forest.leaf_tree == 1]
    assert mrca(forest, int(leaves[0]), int(leaves[-1])) == _mrca_oracle(forest, int(leaves[0]), int(leaves[-1]))


def test_mrca_against_bruteforce_all_pairs():
    tree = sample_tree(BINARY, 4.0, seed=77)
    leaves = tree.leaf_ids[:20]
    for k in leaves:
        for l in leaves:
            assert mrca(tree, int(k), int(l)) == _mrca_oracle(tree, int(k), int(l))


def test_mrca_symmetry_and_ultrametric():
    tree = sample_tree(BINARY, 4.0, seed=8)
    leaves = [int(x) for x in tree.leaf_ids[:10]]
    for k in leaves:
        for l in leaves:
            assert mrca(tree, k, l) == mrca(tree, l, k)
    for k in leaves[:6]:
        for l in leaves[:6]:
            for m in leaves[:6]:
                assert mrca(tree, k, l) >= min(mrca(tree, k, m), mrca(tree, m, l)) - 1e-15


def test_mrca_invalid_leaf():
    tree = sample_tree(BINARY, 3.0, seed=5)
    internal = int(np.nonzero(tree.n_offspring > 0)[0][0])
    with pytest.raises(KeyError):
        mrca(tree, internal, int(tree.leaf_ids[0]))
    with pytest.raises(KeyError):
        mrca(tree, -1, int(tree.leaf_ids[0]))


def test_sample_tree_takes_exactly_one_of_seed_and_rng():
    assert np.array_equal(sample_tree(BINARY, 3.0, seed=5).death, sample_tree(BINARY, 3.0, rng=tree_rng(5)).death)
    with pytest.raises(TypeError, match="exactly one"):
        sample_tree(BINARY, 3.0, seed=5, rng=tree_rng(5))
    with pytest.raises(TypeError):
        sample_tree(BINARY, 3.0)


def test_leaves_at_mean_population():
    rng = tree_rng(31)
    reps = 3000
    counts = np.empty(reps)
    for i in range(reps):
        tree = sample_tree(BINARY, 4.0, rng=rng)
        counts[i] = np.count_nonzero((tree.birth <= 3.0) & (tree.death > 3.0))
    se = counts.std(ddof=1) / math.sqrt(reps)
    assert abs(counts.mean() - math.exp(3.0)) < 3 * se


def test_yule_law_chisquare():
    # binary offspring: n(s) is geometric with success prob e^{-s}
    s, reps = 2.0, 10**4
    rng = tree_rng(1001)
    trees = [sample_tree(BINARY, 3.0, rng=rng) for _ in range(reps)]
    n = np.array([np.count_nonzero((tree.birth <= s) & (tree.death > s)) for tree in trees])
    p = math.exp(-s)
    edges = list(range(1, 16))
    observed = [int((n == k).sum()) for k in edges] + [int((n >= 16).sum())]
    probs = [p * (1 - p) ** (k - 1) for k in edges]
    probs.append(1.0 - sum(probs))
    stat, pval = chisquare(observed, [reps * q for q in probs])
    assert pval > 0.01
