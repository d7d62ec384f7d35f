import math

import numpy as np
import pytest

from vsbbm.compare import (
    collect_exceedances,
    coupled_sample,
    interpolate,
    sandwich_report,
)
from vsbbm.extremal import count_exceedances
from vsbbm.genealogy import OffspringDistribution, mrca, sample_tree, seed_stream
from vsbbm.speed import build_envelopes, from_function, identity_profile, two_speed

BINARY = OffspringDistribution.binary()


def power2_profile():
    return from_function(
        lambda x: np.asarray(x) ** 2,
        slope_at_0=0.0,
        slope_at_1=2.0,
        k1_upper=2.0,
        k1_lower=2.0,
        k2_upper=2.0,
        k2_lower=2.0,
        label="power2",
    )


def make_triple(t=6.0, seed=5):
    prof = power2_profile()
    env = build_envelopes(prof, t)
    tree = sample_tree(BINARY, t, seed=seed)
    return tree, coupled_sample(tree, prof, env, t, seed=seed + 1), env


def test_coupled_sample_shares_tree():
    tree, triple, _ = make_triple()
    assert triple.config_a.tree is tree
    assert triple.config_upper.tree is tree
    assert triple.config_lower.tree is tree
    ids = tree.leaf_ids
    assert mrca(tree, int(ids[0]), int(ids[-1])) == mrca(
        triple.config_upper.tree, int(ids[0]), int(ids[-1])
    )


def test_coupled_sample_horizon_check():
    prof = power2_profile()
    env = build_envelopes(prof, 6.0)
    tree = sample_tree(BINARY, 5.0, seed=1)
    with pytest.raises(ValueError, match="envelope"):
        coupled_sample(tree, prof, env, 5.0, seed=2)
    # envelopes for t = 6, but a tree grown to 5
    with pytest.raises(ValueError, match="tree horizon"):
        coupled_sample(tree, prof, env, 6.0, seed=2)


def test_cross_config_independence():
    t = 4.0
    prof = power2_profile()
    env = build_envelopes(prof, t)
    tree = sample_tree(BINARY, t, seed=9)
    n = 600
    a = np.empty(n)
    b = np.empty(n)
    for s in range(n):
        triple = coupled_sample(tree, prof, env, t, seed=s)
        a[s] = triple.config_a.leaf_positions[0]
        b[s] = triple.config_upper.leaf_positions[0]
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) <= 3.0 / math.sqrt(n)


def test_interpolate_endpoints():
    _, triple, _ = make_triple()
    assert np.array_equal(
        interpolate(triple, 1.0).leaf_positions, triple.config_a.leaf_positions
    )
    assert np.array_equal(
        interpolate(triple, 0.0).leaf_positions, triple.config_upper.leaf_positions
    )
    with pytest.raises(ValueError):
        interpolate(triple, 1.2)


def test_interpolate_half_variance():
    # at the horizon every profile has Sigma^2(t) = t, so the h-blend does too
    t = 4.0
    prof = power2_profile()
    env = build_envelopes(prof, t)
    tree = sample_tree(BINARY, t, seed=12)
    n = 2000
    vals = np.empty(n)
    for s in range(n):
        triple = coupled_sample(tree, prof, env, t, seed=s)
        vals[s] = interpolate(triple, 0.5).leaf_positions[0]
    se = t * math.sqrt(2.0 / (n - 1))
    assert abs(vals.var(ddof=1) - t) < 3 * se


def test_interpolate_blended_profile():
    _, triple, env = make_triple()
    half = interpolate(triple, 0.5)
    x = np.linspace(0, 1, 31)
    expected = 0.5 * power2_profile()(x) + 0.5 * env.upper(x)
    assert np.allclose(half.profile(x), expected, atol=1e-12)


def test_collect_exceedances_shapes_and_determinism():
    u = [-2.0, 0.0, 2.0]
    kw = dict(t=4.0, u_grid=u, replicates=50, seed=7)
    prof = power2_profile()
    env = build_envelopes(prof, 4.0)
    profs = {"a": prof, "up": env.upper, "low": env.lower}
    c1 = collect_exceedances(BINARY, profs, **kw)
    c2 = collect_exceedances(BINARY, profs, **kw)
    for name in profs:
        assert c1[name].shape == (50, 3)
        assert np.array_equal(c1[name], c2[name])
        assert np.all(np.diff(c1[name], axis=1) <= 0)


def test_coupled_sample_keys_match_collect_exceedances():
    # replicate 0 of collect_exceedances draws what coupled_sample draws
    t, u = 5.0, [-1.0, 0.0, 1.0]
    prof = power2_profile()
    env = build_envelopes(prof, t)
    counts = collect_exceedances(
        BINARY, {"A": prof, "upper": env.upper, "lower": env.lower}, t, u, 1, seed=42
    )
    tree = sample_tree(BINARY, t, seed=seed_stream(42, 0, "tree"))
    triple = coupled_sample(tree, prof, env, t, seed=42)
    for name, config in (
        ("A", triple.config_a), ("upper", triple.config_upper), ("lower", triple.config_lower)
    ):
        assert np.array_equal(counts[name][0], count_exceedances(config, u))


def test_sandwich_report_identical_inputs():
    u, c = [-1.0, 0.0], [0.5, 2.0]
    counts = collect_exceedances(BINARY, {"a": identity_profile()}, 4.0, u, 200, seed=3)["a"]
    report = sandwich_report(counts, counts, counts, u, c)
    assert report["n_pass"] == report["n_cells"] == 4
    for cell in report["cells"]:
        assert cell["gap_upper"] == 0.0
        assert cell["gap_lower"] == 0.0


def test_sandwich_report_zero_weights():
    u = [0.0]
    counts = collect_exceedances(BINARY, {"a": identity_profile()}, 4.0, u, 100, seed=3)["a"]
    report = sandwich_report(counts, counts, counts, u, [0.0])
    cell = report["cells"][0]
    assert cell["L_A"] == 1.0 and cell["L_up"] == 1.0 and cell["L_low"] == 1.0
    assert cell["pass_upper"] and cell["pass_lower"]


def test_sandwich_report_same_law_triple():
    # three independent draws of the same (identity) law agree cell by cell
    u, c = [-1.0, 1.0], [0.3, 1.0]
    profs = {"x": identity_profile(), "y": identity_profile(), "z": identity_profile()}
    counts = collect_exceedances(BINARY, profs, 4.0, u, 800, seed=17)
    report = sandwich_report(counts["x"], counts["y"], counts["z"], u, c, n_se=3.0)
    assert report["n_pass"] == report["n_cells"]


def test_sandwich_report_validation():
    u = [0.0]
    counts = collect_exceedances(BINARY, {"a": identity_profile()}, 4.0, u, 50, seed=3)["a"]
    with pytest.raises(ValueError):
        sandwich_report(counts, counts[:20], counts, u, [1.0])
