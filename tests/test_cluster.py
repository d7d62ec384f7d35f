import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chisquare, kstest, norm

from vsbbm import cluster as cluster_mod
from vsbbm import genealogy
from vsbbm.cluster import (
    acceptance_estimate,
    collapse_bound,
    decoration_collapse_study,
    size_biased_offspring_probs,
    spine_sample,
)
from vsbbm import sampler as sampler_mod
from vsbbm.genealogy import OffspringDistribution, run_replicates, sample_tree, seed_stream, tree_rng
from vsbbm.runner import load_config, main, run
from vsbbm.sampler import sample_leaf_positions
from vsbbm.speed import identity_profile

BINARY = OffspringDistribution.binary()
MIXED = OffspringDistribution(np.array([1, 2, 3]), np.array([0.3, 0.4, 0.3]))
LAW_13 = OffspringDistribution(np.array([1, 3]), np.array([0.5, 0.5]))
SQRT2 = math.sqrt(2.0)


def test_acceptance_estimate_formula():
    sig, t = 1.1, 3.0
    expected = math.exp(t) * norm.sf(SQRT2 * sig * t / math.sqrt(t))
    assert acceptance_estimate(sig, t) == pytest.approx(expected, rel=1e-12)


def test_size_biased_binary_is_deterministic():
    nus, probs = size_biased_offspring_probs(BINARY)
    assert nus.tolist() == [1]
    assert probs.tolist() == [1.0]


def test_size_biased_normalization_and_frequencies():
    nus, probs = size_biased_offspring_probs(MIXED)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(probs, [0.15, 0.4, 0.45])
    rng = tree_rng(41)
    draws = rng.choice(nus, size=10**4, p=probs)
    observed = [int((draws == v).sum()) for v in nus]
    _, pval = chisquare(observed, [10**4 * p for p in probs])
    assert pval > 0.01


def test_spine_sample_structure():
    sig, y, t = 1.5, 0.7, 3.0
    real = spine_sample(sig, y, t, BINARY, seed=3)
    assert real.endpoint == pytest.approx(SQRT2 * sig * t + y)
    # the endpoint atom y is present and atoms are sorted descending
    assert np.any(np.isclose(real.atoms, y))
    assert np.all(np.diff(real.atoms) <= 0)
    assert len(real.branch_times) == len(real.spine_values) == len(real.offspring_counts)
    assert np.all(np.diff(real.branch_times) >= 0)
    assert np.all(real.offspring_counts == 1)  # binary: size-biased nu = 1 a.s.
    with pytest.raises(ValueError):
        spine_sample(0.9, 0.0, t, BINARY, seed=1)
    with pytest.raises(ValueError):
        spine_sample(1.5, -1.0, t, BINARY, seed=1)


def test_spine_sample_atoms_are_endpoint_plus_immigrant_leaves():
    t = 3.0
    for seed in range(20):
        real = spine_sample(1.5, 0.4, t, MIXED, seed=seed)
        leaves = sum(len(pos) for pos in real.subtree_configs)
        assert len(real.subtree_configs) == real.offspring_counts.sum()
        assert all(len(pos) >= 1 for pos in real.subtree_configs)
        assert len(real.atoms) == 1 + leaves
        immigrants = np.concatenate([[real.endpoint], *real.subtree_configs])
        assert np.allclose(np.sort(immigrants)[::-1] - SQRT2 * 1.5 * t, real.atoms)
    # the single-lineage law has size-biased nu = 0: no immigrants at all
    chain = OffspringDistribution(np.array([1]), np.array([1.0]))
    real = spine_sample(1.5, 0.4, t, chain, seed=0)
    assert real.subtree_configs == [] and real.atoms.tolist() == [0.4]


def test_spine_branch_count_poisson_mean():
    t, reps = 3.0, 2000
    counts = np.array(
        [len(spine_sample(2.0, 0.0, t, BINARY, seed=s).branch_times) for s in range(reps)]
    )
    se = counts.std(ddof=1) / math.sqrt(reps)
    assert abs(counts.mean() - 2 * t) < 3 * se


@pytest.mark.parametrize("law", ["1,3", "mixed"])
def test_spine_draws_only_immigrant_bearing_points(law):
    # a point with nu = 0 adds nothing, so the skeleton draws the points
    # with nu >= 1 only: Poisson(2t(1 - p_1/2)) of them
    offspring, t, n = {"1,3": LAW_13, "mixed": MIXED}[law], 3.0, 4000
    spine, _, _, counts = cluster_mod._spine_skeletons(np.full(n, 1.5), np.zeros(n), t, offspring, tree_rng(61))
    points = np.bincount(spine, minlength=n)
    assert counts.min() >= 1
    p1 = float(offspring.ps[offspring.ks == 1].sum())
    rate = 2.0 * t * (1.0 - p1 / 2.0)
    assert abs(points.mean() - rate) < 4 * math.sqrt(rate / n)
    if law == "1,3":
        # nu given nu >= 1 is fixed at 2: no choice draw
        assert set(counts.tolist()) == {2}


def test_spine_immigrant_count_law_given_at_least_one():
    # MIXED: P(nu = k-1) = k p_k / 2 is 0.15, 0.4, 0.45 for nu = 0, 1, 2;
    # given nu >= 1 it is 0.4 / 0.85 and 0.45 / 0.85
    n = 3000
    counts = cluster_mod._spine_skeletons(np.full(n, 1.5), np.zeros(n), 3.0, MIXED, tree_rng(62))[3]
    observed = [int((counts == v).sum()) for v in (1, 2)]
    assert sum(observed) == len(counts)
    _, pval = chisquare(observed, [len(counts) * p / 0.85 for p in (0.4, 0.45)])
    assert pval > 0.01


def test_spine_bridges_of_a_block_have_the_bridge_law():
    # spines drawn together: each spine's points ascend, and the value at a
    # point s of a spine to z is N(z s/t, s(t - s)/t), whatever the other
    # spines drew
    t, n = 3.0, 2000
    sigma_e, y = np.tile([1.2, 1.5, 2.0], n), np.tile([0.0, 0.5, 1.0], n)
    spine, times, values, _ = cluster_mod._spine_skeletons(sigma_e, y, t, BINARY, tree_rng(63))
    assert np.all((np.diff(times) >= 0) | (np.diff(spine) > 0)) and np.all(np.diff(spine) >= 0)
    assert np.all((times >= 0) & (times < t))
    z = SQRT2 * sigma_e * t + y
    resid = (values - z[spine] * times / t) / np.sqrt(times * (t - times) / t)
    assert kstest(resid, "norm").pvalue > 0.01
    # the first point of each spine, where W has had one increment only
    firsts = np.flatnonzero(np.diff(spine, prepend=-1))
    assert kstest(resid[firsts], "norm").pvalue > 0.01


def test_spine_deterministic():
    a = spine_sample(1.5, 0.0, 2.0, BINARY, seed=9)
    b = spine_sample(1.5, 0.0, 2.0, BINARY, seed=9)
    assert np.array_equal(a.atoms, b.atoms)
    assert np.array_equal(a.branch_times, b.branch_times)
    c = spine_sample(1.5, 0.0, 2.0, BINARY, rng=tree_rng(9))
    assert np.array_equal(a.atoms, c.atoms)
    # a seed beside a generator is ambiguous, not ignored
    with pytest.raises(TypeError, match="exactly one"):
        spine_sample(1.5, 0.0, 2.0, BINARY, seed=9, rng=tree_rng(9))
    with pytest.raises(TypeError):
        spine_sample(1.5, 0.0, 2.0, BINARY)


def test_collapse_bound_properties():
    vals = [collapse_bound(sig, 2.0, BINARY.K) for sig in (1.2, 1.5, 2.0)]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # linear in K
    assert collapse_bound(2.0, 2.0, 2.0) == pytest.approx(
        2.0 * collapse_bound(2.0, 2.0, 1.0), rel=1e-9
    )


def _quad_bound(sigma_e, R, K, gamma):
    # the bound with its integral by adaptive quadrature
    a, b = 1.0 - sigma_e**2, SQRT2 * sigma_e
    val, _ = quad(lambda s: math.exp(a * s + b * (R + (sigma_e * s) ** gamma)), sigma_e**-0.5, np.inf, limit=200)
    return 2.0 * K * sigma_e**-0.5 + 2.0 * K * val


def _rule_bound(sigma_e, R, K, gamma):
    # collapse_bound's arithmetic at any gamma: its exp-sinh rule on the exponent
    log_val, _ = cluster_mod._exp_sinh(cluster_mod._collapse_exponent(sigma_e, R, gamma), sigma_e**-0.5)
    return 2.0 * K * (sigma_e**-0.5 + math.exp(log_val))


def test_collapse_bound_matches_quad():
    cases = [(sig, R) for sig in (1.1, 1.2, 1.3, 1.5, 2.0, 3.0, 5.0) for R in (0, 1, 2, 3)]
    worst = max(
        abs(_rule_bound(sig, R, BINARY.K, gamma) / _quad_bound(sig, R, BINARY.K, gamma) - 1.0)
        for sig, R in cases
        for gamma in (0.5, 0.75)
    )
    assert worst <= 1e-10
    # collapse_bound is the rule at its own gamma
    gamma = cluster_mod.GAMMA
    assert all(collapse_bound(sig, R, BINARY.K) == _rule_bound(sig, R, BINARY.K, gamma) for sig, R in cases)


@pytest.mark.parametrize("sigma_e", [1.05, 1.1])
def test_collapse_bound_rule_self_converged(sigma_e):
    # near sigma_e = 1 the integrand peaks far out and narrow, so the rule
    # halves its step; halving it once more moves the value by < 1e-10
    log_f = cluster_mod._collapse_exponent(sigma_e, 2.0, 0.75)
    lo = sigma_e**-0.5
    log_val, h = cluster_mod._exp_sinh(log_f, lo)
    assert h < cluster_mod.FIRST_STEP
    assert abs(math.expm1(cluster_mod._exp_sinh_sum(log_f, lo, h / 2.0) - log_val)) < 1e-10


def test_collapse_bound_fails_loudly_near_one(monkeypatch):
    for sig in (1.0, 0.9):
        with pytest.raises(ValueError, match="sigma_e"):
            collapse_bound(sig, 2.0, 2.0)
    with pytest.raises(OverflowError, match=r"sigma_e = 1\.02, R = 2"):
        collapse_bound(1.02, 2, 2)
    # finite, though far beyond 1: the integral is near e^562
    assert collapse_bound(1.05, 2, 2) == pytest.approx(3.88e244, rel=1e-3)
    monkeypatch.setattr(cluster_mod, "MAX_HALVINGS", 2)
    with pytest.raises(ArithmeticError, match="did not converge"):
        collapse_bound(1.05, 2, 2)


def test_cluster_with_overflowing_bound_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    path = tmp_path / "cfg.ini"
    path.write_text(
        "[experiment]\nkind = cluster\nt = 3\nreplicates = 4\nsigma_e_list = 1.02 1.5\n\n"
        f"[output]\ndir = {out}\n"
    )
    assert main(["cluster", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "OverflowError" and "1.02" in err["message"]
    assert not out.exists()


def test_decoration_collapse_study(tmp_path):
    # the cluster kind runs the study and writes its rows to collapse.csv
    cfg = tmp_path / "cluster.ini"
    cfg.write_text(
        "[experiment]\nkind = cluster\nt = 3\nreplicates = 150\nsigma_e_list = 1.2 1.5 2\nR = 2\n"
        f"seed = 5\n\n[output]\ndir = {tmp_path / 'out'}\n"
    )
    rows = run(load_config(cfg))["rows"]
    assert rows == decoration_collapse_study([1.2, 1.5, 2.0], R=2.0, t=3.0, replicates=150, seed=5)
    ests = [r["estimate"] for r in rows]
    ses = [r["std_error"] for r in rows]
    for a, b, sa, sb in zip(ests, ests[1:], ses, ses[1:]):
        assert b <= a + 2 * math.hypot(sa, sb)
    assert all(r["analytic_bound"] > 0 for r in rows)
    lines = (tmp_path / "out" / "collapse.csv").read_text().splitlines()
    assert lines[0] == "sigma_e,estimate,std_error,analytic_bound"
    assert lines[1:] == [
        f"{r['sigma_e']},{r['estimate']!r},{r['std_error']!r},{r['analytic_bound']!r}" for r in rows
    ]


def test_decoration_collapse_study_distinct_spine_seeds(monkeypatch):
    # 4097 replicates cross the 2**12 stride of a shifted-integer seed
    # layout; a budget of 1 node gives blocks of one replicate, whose two
    # spines draw from the block's one generator, named by its initial
    # SFC64 state
    seeds, spines = [], []

    def stub(sigma_e, y, t, offspring, rng):
        seeds.append(tuple(rng.bit_generator.state["state"]["state"].tolist()))
        spines.append(len(sigma_e))
        return np.zeros(0, dtype=np.intp), np.empty(0), np.empty(0), np.zeros(0, dtype=np.int64)

    monkeypatch.setattr(cluster_mod, "_spine_skeletons", stub)
    monkeypatch.setattr(sampler_mod, "FOREST_NODE_BUDGET", 1)
    decoration_collapse_study([1.2, 1.5], R=2.0, t=3.0, replicates=4097, seed=0)
    assert spines == [2] * 4097
    assert len(set(seeds)) == 4097


SIGMAS = [1.2, 1.5, 2.0]


def _rate_two_skeleton(sigma_e, y, t, offspring, rng):
    """The skeleton before it drew only immigrant-bearing points:
    Poisson(2t) branch points, each with nu from the full size-biased law,
    nu = 0 included."""
    z = SQRT2 * sigma_e * t + y
    n_branch = rng.poisson(2.0 * t)
    branch_times = np.sort(rng.uniform(0.0, t, size=n_branch))
    spine_values = np.empty(0)
    if n_branch:
        # W at the points, then at t: the bridge is z s/t + W(s) - (s/t) W(t)
        w = np.cumsum(np.sqrt(np.diff(branch_times, prepend=0.0)) * rng.standard_normal(n_branch))
        w_t = w[-1] + math.sqrt(t - branch_times[-1]) * rng.standard_normal()
        spine_values = branch_times / t * z + (w - branch_times / t * w_t)
    nus, probs = size_biased_offspring_probs(offspring)
    counts = rng.choice(nus, size=n_branch, p=probs) if len(nus) > 1 else nus.repeat(n_branch)
    return branch_times, spine_values, counts


def _spine_loop_hits(sigmas, R, t, offspring, y_mode, seed, reps):
    """Law oracle: the study before forest blocks, one spine at a time on
    its own generator per replicate and sigma_e (streams ``spine:<j>`` and
    ``overshoot:<j>``), with the Poisson(2t) skeleton."""
    rows = []
    for r in reps:
        row = []
        for j, sig in enumerate(sigmas):
            y = 0.0
            if y_mode == "exponential":
                y = float(tree_rng(seed_stream(seed, r, f"overshoot:{j}")).exponential(1.0 / (SQRT2 * sig)))
            rng = tree_rng(seed_stream(seed, r, f"spine:{j}"))
            times, values, counts = _rate_two_skeleton(sig, y, t, offspring, rng)
            atoms = 1 + int(y >= -R)
            if counts.sum():
                leaf_pos, _ = cluster_mod._immigrant_leaves(times, values, counts, t, offspring, rng)
                atoms += int(np.sum(leaf_pos - SQRT2 * sig * t >= -R))
            row.append(int(atoms > 2))
        rows.append(row)
    return rows


@pytest.mark.parametrize("y_mode", ["zero", "exponential"])
@pytest.mark.parametrize("law", ["binary", "1,3"])
def test_collapse_equals_spine_sample_loop(monkeypatch, law, y_mode):
    # a budget of 1 node gives blocks of one replicate; with one sigma_e a
    # block is one spine, drawn by spine_sample on the block's spine
    # generator, its overshoot on the block's overshoot generator
    offspring, t, R, seed = {"binary": BINARY, "1,3": LAW_13}[law], 3.0, 2.0, 17
    monkeypatch.setattr(sampler_mod, "FOREST_NODE_BUDGET", 1)
    assert cluster_mod.collapse_block(t, offspring, 1) == 1
    reps = range(3, 90, 2)
    total = 0
    for sig in SIGMAS:
        hits = cluster_mod._collapse([sig], R, t, offspring, y_mode, seed, [range(r, r + 1) for r in reps])
        want = []
        for r in reps:
            y = 0.0
            if y_mode == "exponential":
                y = float(tree_rng(seed_stream(seed, r, "overshoot")).exponential(1.0 / (SQRT2 * sig)))
            real = spine_sample(sig, y, t, offspring, rng=tree_rng(seed_stream(seed, r, "spine")))
            want.append([int(np.sum(real.atoms >= -R) > 1)])
        assert hits == want
        total += sum(h for (h,) in hits)
    assert 0 < total < len(SIGMAS) * len(reps)


@pytest.mark.parametrize("law", ["1,3", "mixed"])
def test_collapse_agrees_in_law_with_per_spine_streams(law):
    # forest blocks and immigrant-bearing points change the draws, not the
    # law: every estimate lies within 4 combined SE of the old sampler's
    offspring, t, R, reps = {"1,3": LAW_13, "mixed": MIXED}[law], 3.0, 2.0, 2000
    rows = decoration_collapse_study(SIGMAS, R, t, reps, seed=31, offspring=offspring, y_mode="exponential")
    old = np.array(_spine_loop_hits(SIGMAS, R, t, offspring, "exponential", 32, range(reps)))
    for row, hits in zip(rows, old.T):
        p = hits.mean()
        se = math.sqrt(p * (1.0 - p) / reps)
        assert abs(row["estimate"] - p) < 4 * math.hypot(row["std_error"], se)


def test_collapse_hits_do_not_depend_on_workers(monkeypatch):
    # (1,3) at t = 3 with 3 sigma_e: 700 nodes give 75 blocks of 2
    # replicates, the default budget blocks of 51, 51 and 48.  The budget
    # sets the block, so it changes the draws; the workers do not.  The
    # shares are capped at the CPU count, so three shares need three CPUs.
    monkeypatch.setattr(genealogy, "_usable_cpus", lambda: 3)
    for budget, want in ((700, 2), (sampler_mod.FOREST_NODE_BUDGET, 51)):
        monkeypatch.setattr(sampler_mod, "FOREST_NODE_BUDGET", budget)
        block = cluster_mod.collapse_block(3.0, LAW_13, 3)
        assert block == want
        common = (SIGMAS, 2.0, 3.0, LAW_13, "exponential", 23)
        one = run_replicates(cluster_mod._collapse, common, 150, 1, block)
        assert len(one) == 150 and 0 < sum(map(sum, one)) < 450
        for workers in (2, 3):
            assert run_replicates(cluster_mod._collapse, common, 150, workers, block) == one


def test_decoration_collapse_study_validation():
    with pytest.raises(ValueError):
        decoration_collapse_study([2.0, 1.5], R=2.0, t=3.0, replicates=10, seed=1)
    with pytest.raises(ValueError):
        decoration_collapse_study([1.5], R=2.0, t=3.0, replicates=10, seed=1, y_mode="x")


def test_plain_bbm_window_first_moment():
    # E #(particles in [a, b] at t) = e^t P(N(0,t) in [a, b])
    t, a, b, reps = 3.0, 1.0, 3.0, 3000
    rng = tree_rng(55)
    prof = identity_profile()
    counts = np.empty(reps)
    for i in range(reps):
        tree = sample_tree(BINARY, t, rng=rng)
        pos = sample_leaf_positions(tree, prof, t, rng)
        counts[i] = ((pos >= a) & (pos <= b)).sum()
    expected = math.exp(t) * (norm.cdf(b / math.sqrt(t)) - norm.cdf(a / math.sqrt(t)))
    se = counts.std(ddof=1) / math.sqrt(reps)
    assert abs(counts.mean() - expected) < 3 * se
