"""End-to-end acceptance checks, one per quantitative criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see the
lines for passing tests too) and then asserts the same condition.  The
tolerances are property-level: exact identities are held to 3 standard
errors, trend statements to their stated windows, and runtimes to the
stated budgets.
"""

import json
import math
import time

import numpy as np
from scipy.stats import kstest

from vsbbm.compare import collect_exceedances, sandwich_report
from vsbbm.cluster import decoration_collapse_study
from vsbbm.extremal import forest_mckean
from vsbbm.fkpp import front_position, solve_heaviside, tail_constant
from vsbbm.genealogy import OffspringDistribution, run_replicates, sample_tree, tree_rng
from vsbbm.runner import load_config, run
from vsbbm.sampler import block_size, covariance_oracle, forest_batches, sample_leaf_positions
from vsbbm.speed import build_envelopes, identity_profile, power_profile, two_speed
from vsbbm.tube import bridge_violation_bound, empirical_bridge_violation

BINARY = OffspringDistribution.binary()
SQRT2 = math.sqrt(2.0)


def report(number, ok, detail):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_01_population_mean():
    t, reps = 5.0, 2 * 10**4
    start = time.time()
    rng = tree_rng(1)
    n = np.array([sample_tree(BINARY, t, rng=rng).n_leaves for _ in range(reps)])
    elapsed = time.time() - start
    se = n.std(ddof=1) / math.sqrt(reps)
    dev = abs(n.mean() - math.exp(t))
    ok = dev < 3 * se and elapsed < 10.0
    assert report(
        1, ok, f"mean n(5)={n.mean():.3f} vs e^5={math.exp(5):.3f} "
        f"({dev / se:.2f} SE), {elapsed:.1f}s (budget 10s)"
    )


def test_02_covariance_law():
    t, redraws, n_pairs = 4.0, 10**5, 10
    start = time.time()
    tree = sample_tree(BINARY, t, seed=2)
    profiles = [identity_profile(), two_speed(0.5, 2.0, 2.0 / 3.0), power_profile(2)]
    pair_rng = np.random.default_rng(3)
    worst = 0.0
    ok = True
    for prof in profiles:
        pos = sample_leaf_positions(tree, prof, t, tree_rng(4), n_draws=redraws)
        for _ in range(n_pairs):
            i, j = pair_rng.choice(tree.n_leaves, size=2, replace=False)
            prods = (pos[:, i] - pos[:, i].mean()) * (pos[:, j] - pos[:, j].mean())
            se = prods.std(ddof=1) / math.sqrt(redraws)
            oracle = covariance_oracle(
                tree, prof, int(tree.leaf_ids[i]), int(tree.leaf_ids[j]), t
            )
            z = abs(prods.mean() - oracle) / se
            worst = max(worst, z)
            ok = ok and z < 3.0
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    assert report(
        2, ok, f"3 profiles x {n_pairs} pairs, worst deviation {worst:.2f} SE, "
        f"{elapsed:.1f}s (budget 60s)"
    )


def _mckean_replicates(s, sigma_bs, blocks):
    """Y of every sigma_b per replicate, all from the same positions."""
    prof = identity_profile()
    rows = []
    for leaf_tree, (pos,), n in forest_batches(int(s), s, BINARY, (prof,), blocks):
        rows += np.stack([forest_mckean(leaf_tree, pos, n, prof, s, sb) for sb in sigma_bs], axis=1).tolist()
    return rows


def test_03_mckean_martingale_mean():
    reps, sigma_bs = 10**4, (0.0, 0.3, 0.6)
    start = time.time()
    ok = True
    details = []
    for s in (4.0, 6.0, 8.0):
        rows = np.array(run_replicates(_mckean_replicates, (s, sigma_bs), reps, block=block_size(s)))
        for sb, v in zip(sigma_bs, rows.T):
            se = v.std(ddof=1) / math.sqrt(reps)
            z = abs(v.mean() - 1.0) / se
            ok = ok and z < 3.0
            details.append(f"(s={s:.0f},sb={sb}):{z:.1f}SE")
    elapsed = time.time() - start
    ok = ok and elapsed < 120.0
    assert report(3, ok, " ".join(details) + f", {elapsed:.1f}s (budget 120s)")


def test_04_yule_limit_ks():
    s, reps = 10.0, 10**4
    rng = tree_rng(44)
    n = np.array([sample_tree(BINARY, s, rng=rng).n_leaves for _ in range(reps)])
    stat = kstest(n * math.exp(-s), "expon").statistic
    ok = stat <= 0.02
    assert report(4, ok, f"KS(n(10)e^-10, Exp(1)) = {stat:.4f} (<= 0.02)")


def test_05_bridge_tube_bound():
    t, r, gamma, reps = 30.0, 10.0, 0.75, 10**4
    rate, se = empirical_bridge_violation(t, r, gamma, replicates=reps, seed=5)
    bound = bridge_violation_bound(r, gamma)
    ok = rate <= bound + 3 * se
    assert report(
        5, ok, f"violation rate {rate:.4f} (SE {se:.4f}) vs series bound {bound:.4f}"
    )


def test_06_fkpp_front_position():
    t = 50.0
    target = SQRT2 * t - 3.0 / (2.0 * SQRT2) * math.log(t)
    start = time.time()
    front = front_position(solve_heaviside(BINARY, t, dx=0.05))
    elapsed = time.time() - start
    ok = abs(front - target) <= 0.5 and elapsed < 300.0
    assert report(
        6, ok, f"front(50) = {front:.3f} vs target {target:.3f} "
        f"(|diff| = {abs(front - target):.3f}, tolerance 0.5), {elapsed:.1f}s"
    )


def test_07_tail_constant_trend():
    t = 20.0
    cap = 1.0 / math.sqrt(4.0 * math.pi) + 0.05
    ests = [tail_constant(BINARY, sig, t)[0] for sig in (1.5, 2.0, 3.0)]
    ok = (
        all(e > 0 for e in ests)
        and ests[0] < ests[1] < ests[2]
        and all(e <= cap for e in ests)
    )
    assert report(
        7, ok, "C~ estimates " + ", ".join(f"{e:.4f}" for e in ests)
        + f" (positive, increasing, <= {cap:.4f})"
    )


def test_08_gaussian_comparison_sandwich():
    t, reps = 10.0, 5 * 10**3
    start = time.time()
    prof = power_profile(2)
    env = build_envelopes(prof, t)
    u_grid = [-6.0, -4.0, -2.0, 0.0, 2.0]
    c_grid = [0.1, 0.5, 2.0]
    counts = collect_exceedances(
        BINARY,
        {"a": prof, "up": env.upper, "low": env.lower},
        t,
        u_grid,
        replicates=reps,
        seed=11,
    )
    rep = sandwich_report(counts["a"], counts["up"], counts["low"], u_grid, c_grid)
    elapsed = time.time() - start
    ok = rep["n_pass"] >= 14 and elapsed < 600.0
    assert report(
        8, ok, f"sandwich holds in {rep['n_pass']}/15 cells (need >= 14), "
        f"{elapsed:.1f}s (budget 600s)"
    )


def test_09_decoration_collapse_trend():
    rows = decoration_collapse_study(
        [1.2, 1.5, 2.0], R=2.0, t=3.0, replicates=400, seed=9
    )
    ok = True
    for a, b in zip(rows, rows[1:]):
        band = 2.0 * math.hypot(a["std_error"], b["std_error"])
        ok = ok and b["estimate"] <= a["estimate"] + band
    assert report(
        9, ok, "P(>1 atom) = " + ", ".join(f"{r['estimate']:.3f}" for r in rows)
        + " over sigma_e = 1.2, 1.5, 2 (non-increasing within 2 SE)"
    )


def test_10_determinism(tmp_path):
    text = """\
[experiment]
kind = simulate
t = 3
replicates = 200
seed = 123

[profile]
kind = identity
"""
    results = {}
    for name, workers in (("r1", 1), ("r2", 1), ("w4", 4)):
        cfg_path = tmp_path / f"{name}.ini"
        cfg_path.write_text(text)
        out = tmp_path / name
        cfg = load_config(cfg_path, overrides={"workers": workers, "out": str(out)})
        run(cfg)
        results[name] = out
    identical = (
        (results["r1"] / "summaries.csv").read_bytes()
        == (results["r2"] / "summaries.csv").read_bytes()
        and (results["r1"] / "report.json").read_bytes()
        == (results["r2"] / "report.json").read_bytes()
    )
    rep1 = json.loads((results["r1"] / "report.json").read_text())
    rep4 = json.loads((results["w4"] / "report.json").read_text())
    worker_free = (
        abs(rep1["mean_n_leaves"] - rep4["mean_n_leaves"]) < 1e-12
        and abs(rep1["mean_max_centered"] - rep4["mean_max_centered"]) < 1e-12
    )
    ok = identical and worker_free
    assert report(
        10, ok, f"rerun byte-identical: {identical}; "
        f"1-worker vs 4-worker agreement to 1e-12: {worker_free}"
    )
