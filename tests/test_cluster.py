import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chisquare, norm

from vsbbm import cluster as cluster_mod
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


def test_spine_deterministic():
    a = spine_sample(1.5, 0.0, 2.0, BINARY, seed=9)
    b = spine_sample(1.5, 0.0, 2.0, BINARY, seed=9)
    assert np.array_equal(a.atoms, b.atoms)
    assert np.array_equal(a.branch_times, b.branch_times)


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


def test_collapse_bound_matches_quad():
    worst = max(
        abs(collapse_bound(sig, R, BINARY.K, gamma) / _quad_bound(sig, R, BINARY.K, gamma) - 1.0)
        for sig in (1.1, 1.2, 1.3, 1.5, 2.0, 3.0, 5.0)
        for R in (0, 1, 2, 3)
        for gamma in (0.5, 0.75)
    )
    assert worst <= 1e-10


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
    # 4097 replicates cross the 2**12 stride of a shifted-integer seed layout;
    # a spine's stream is its generator's Philox key
    seeds = []

    def stub(sigma_e, y, t, offspring, rng):
        seeds.append(tuple(rng.bit_generator.state["state"]["key"].tolist()))
        return np.empty(0), np.empty(0), np.zeros(0, dtype=np.int64)

    monkeypatch.setattr(cluster_mod, "_spine_skeleton", stub)
    decoration_collapse_study([1.2, 1.5], R=2.0, t=3.0, replicates=4097, seed=0)
    assert len(seeds) == 2 * 4097
    assert len(set(seeds)) == 2 * 4097


SIGMAS = [1.2, 1.5, 2.0]


def _spine_loop_hits(sigmas, R, t, offspring, y_mode, seed, reps):
    """Oracle: one ``spine_sample`` per replicate and sigma_e, each on its
    own ``spine:<j>`` generator, as the study ran before its spines grew
    together."""
    rows = []
    for r in reps:
        row = []
        for j, sig in enumerate(sigmas):
            y = 0.0
            if y_mode == "exponential":
                y = float(tree_rng(seed_stream(seed, r, f"overshoot:{j}")).exponential(1.0 / (SQRT2 * sig)))
            rng = tree_rng(seed_stream(seed, r, f"spine:{j}"))
            real = spine_sample(sig, y, t, offspring, rng=rng)
            row.append(int(np.sum(real.atoms >= -R) > 1))
        rows.append(row)
    return rows


@pytest.mark.parametrize("y_mode", ["zero", "exponential"])
@pytest.mark.parametrize("law", ["binary", "1,3"])
def test_collapse_equals_spine_sample_loop(law, y_mode):
    offspring = {"binary": BINARY, "1,3": LAW_13}[law]
    reps = range(3, 90, 2)
    hits = cluster_mod._collapse(SIGMAS, 2.0, 3.0, offspring, y_mode, 17, reps)
    assert hits == _spine_loop_hits(SIGMAS, 2.0, 3.0, offspring, y_mode, 17, reps)
    assert 0 < sum(map(sum, hits)) < 3 * len(reps)


def test_collapse_hits_do_not_depend_on_workers_or_node_budget(monkeypatch):
    common = (SIGMAS, 2.0, 3.0, LAW_13, "exponential", 23)
    one = run_replicates(cluster_mod._collapse, common, 150, workers=1)
    assert run_replicates(cluster_mod._collapse, common, 150, workers=2) == one
    # 1: a batch of one spine; 300 nodes: two spines, so batches straddle replicates
    for budget in (1, 300):
        monkeypatch.setattr(sampler_mod, "FOREST_NODE_BUDGET", budget)
        assert run_replicates(cluster_mod._collapse, common, 150, workers=1) == one


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
        tree = sample_tree(BINARY, t, seed=0, rng=rng)
        pos = sample_leaf_positions(tree, prof, t, rng)
        counts[i] = ((pos >= a) & (pos <= b)).sum()
    expected = math.exp(t) * (norm.cdf(b / math.sqrt(t)) - norm.cdf(a / math.sqrt(t)))
    se = counts.std(ddof=1) / math.sqrt(reps)
    assert abs(counts.mean() - expected) < 3 * se
