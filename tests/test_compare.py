import math
from dataclasses import replace

import numpy as np
import pytest

from vsbbm.compare import collect_exceedances, sandwich_report
from vsbbm.genealogy import OffspringDistribution, sample_forest, tree_rng
from vsbbm.sampler import _edge_std, forest_leaf_positions
from vsbbm.speed import build_envelopes, identity_profile, piecewise_linear, power_profile

BINARY = OffspringDistribution.binary()


def test_coupled_fields_cross_covariance():
    # A and upper scale one standard normal draw, so a leaf's positions
    # under the two have covariance sum(std_A * std_up) over its lineage
    t = 4.0
    prof = power_profile(2)
    env = build_envelopes(prof, t)
    tree = sample_forest(BINARY, t, tree_rng(9))
    leaf = int(tree.leaf_ids[0])
    lineage = []
    while leaf >= 0:
        lineage.append(leaf)
        leaf = int(tree.parent[leaf])
    std = _edge_std(tree, (prof, env.upper), t)
    want = float(np.sum(std[0, lineage] * std[1, lineage]))
    n = 2000
    prod = np.empty(n)
    for s in range(n):
        pos = forest_leaf_positions(tree, (prof, env.upper), t, tree_rng(s))
        prod[s] = pos[0, 0] * pos[1, 0]
    se = prod.std(ddof=1) / math.sqrt(n)
    # both fields have mean 0, so the mean product estimates the covariance
    assert abs(prod.mean() - want) <= 3 * se
    assert want > 10 * se  # independent fields (covariance 0) would fail


def test_relabelled_copy_gives_zero_gaps():
    # a piecewise profile rebuilt from its own knots is the same profile
    # under another label: on one shared draw every count and gap agrees
    xs = np.array([0.0, 0.4, 0.8, 1.0])
    prof = piecewise_linear(xs, [0.0, 0.2, 0.6, 1.0])
    copy = replace(piecewise_linear(xs, prof(xs)), label="copy")
    u, c = [-2.0, 0.0, 1.0], [0.3, 2.0]
    counts = collect_exceedances(BINARY, {"A": prof, "upper": copy, "lower": prof}, 4.0, u, 200, seed=21)
    assert np.array_equal(counts["A"], counts["upper"])
    assert counts["A"][:, 0].any()
    report = sandwich_report(counts["A"], counts["upper"], counts["lower"], u, c)
    assert report["n_pass"] == report["n_cells"] == 6
    for cell in report["cells"]:
        assert cell["gap_upper"] == cell["gap_lower"] == 0.0
        assert cell["SE_gap_upper"] == cell["SE_gap_lower"] == 0.0


def test_envelopes_of_a_steep_last_segment_build():
    # a last segment of width 1e-5 has end slope 8e4, and s2 (1 - b) with
    # b within 1e-5 of 1 rounds to 1 + 9.7e-12; the endpoint tolerance
    # scales with the slope, so both envelopes are two_speed profiles
    env = build_envelopes(piecewise_linear([0.0, 0.5, 0.99999, 1.0], [0.0, 0.2, 0.2, 1.0]), 10.0)
    for member in (env.upper, env.lower):
        assert member.slope_at_1 == pytest.approx(8e4)
        assert abs(float(member(1.0)) - 1.0) <= 1e-12 * member.slope_at_1


def test_collect_exceedances_shapes_and_determinism():
    u = [-2.0, 0.0, 2.0]
    kw = dict(t=4.0, u_grid=u, replicates=50, seed=7)
    prof = power_profile(2)
    env = build_envelopes(prof, 4.0)
    profs = {"a": prof, "up": env.upper, "low": env.lower}
    c1 = collect_exceedances(BINARY, profs, **kw)
    c2 = collect_exceedances(BINARY, profs, **kw)
    for name in profs:
        assert c1[name].shape == (50, 3)
        assert np.array_equal(c1[name], c2[name])
        assert np.all(np.diff(c1[name], axis=1) <= 0)


def test_sandwich_report_identical_inputs():
    u, c = [-1.0, 0.0], [0.5, 2.0]
    counts = collect_exceedances(BINARY, {"a": identity_profile()}, 4.0, u, 200, seed=3)["a"]
    report = sandwich_report(counts, counts, counts, u, c)
    assert report["n_pass"] == report["n_cells"] == 4
    for cell in report["cells"]:
        assert cell["gap_upper"] == 0.0
        assert cell["gap_lower"] == 0.0
        assert cell["SE_gap_upper"] == cell["SE_gap_lower"] == 0.0


def test_sandwich_report_paired_se():
    # the paired SE is that of the per-replicate difference of exp(-c N)
    rng = np.random.default_rng(4)
    a, up, low = (rng.poisson(lam, size=(300, 2)) for lam in (1.0, 1.5, 0.5))
    u, c = [0.0, 1.0], [0.5]
    report = sandwich_report(a, up, low, u, c)
    for i, cell in enumerate(report["cells"]):
        for key, x, y in (("SE_gap_upper", up, a), ("SE_gap_lower", a, low)):
            diff = np.exp(-0.5 * x[:, i]) - np.exp(-0.5 * y[:, i])
            assert cell[key] == pytest.approx(diff.std(ddof=1) / math.sqrt(300), rel=1e-12)


def test_sandwich_report_zero_weights():
    u = [0.0]
    counts = collect_exceedances(BINARY, {"a": identity_profile()}, 4.0, u, 100, seed=3)["a"]
    report = sandwich_report(counts, counts, counts, u, [0.0])
    cell = report["cells"][0]
    assert cell["L_A"] == 1.0 and cell["L_up"] == 1.0 and cell["L_low"] == 1.0
    assert cell["pass_upper"] and cell["pass_lower"]


def test_sandwich_report_zero_c_is_exact():
    # at c = 0 every exp(-c N_u) is 1, whatever the counts: each estimator
    # reads L = 1 with SE = 0, on three different count columns
    u = [0.0]
    x, y, z = (
        collect_exceedances(BINARY, {"a": identity_profile()}, 4.0, u, 5, seed=seed)["a"]
        for seed in (3, 4, 5)
    )
    cell = sandwich_report(x, y, z, u, [0.0])["cells"][0]
    for key in ("A", "up", "low"):
        assert cell[f"L_{key}"] == 1.0
        assert cell[f"SE_{key}"] == 0.0


def test_sandwich_report_large_c_is_indicator():
    # exp(-50 N) is 1 at N = 0 and below e^-50 otherwise: L is P(N_u = 0)
    u = [-1.0]
    counts = collect_exceedances(BINARY, {"a": identity_profile()}, 4.0, u, 60, seed=3)["a"]
    assert 0 < np.count_nonzero(counts[:, 0]) < 60
    cell = sandwich_report(counts, counts, counts, u, [50.0])["cells"][0]
    assert abs(cell["L_A"] - np.mean(counts[:, 0] == 0)) < 1e-6


def test_sandwich_report_scalar_recomputation():
    # each L and SE is the exact-sum mean and SE of exp(-c N_u), one
    # replicate at a time
    u, c = [0.5], [1.0]
    x, y, z = (
        collect_exceedances(BINARY, {"a": identity_profile()}, 4.0, u, 100, seed=seed)["a"]
        for seed in (5, 6, 7)
    )
    cell = sandwich_report(x, y, z, u, c)["cells"][0]
    for m, key in ((x, "A"), (y, "up"), (z, "low")):
        vals = [float(np.exp(-float(n))) for n in m[:, 0]]
        mean = math.fsum(vals) / 100
        var = math.fsum((v - mean) ** 2 for v in vals) / 99
        assert cell[f"L_{key}"] == mean
        assert cell[f"SE_{key}"] == math.sqrt(var / 100)


def test_sandwich_report_same_law_triple():
    # three independent draws (three seeds) of the same (identity) law
    # agree cell by cell
    u, c = [-1.0, 1.0], [0.3, 1.0]
    x, y, z = (
        collect_exceedances(BINARY, {"a": identity_profile()}, 4.0, u, 800, seed=seed)["a"]
        for seed in (17, 18, 19)
    )
    report = sandwich_report(x, y, z, u, c)
    assert report["n_pass"] == report["n_cells"]


def test_sandwich_report_validation():
    u = [0.0]
    counts = collect_exceedances(BINARY, {"a": identity_profile()}, 4.0, u, 50, seed=3)["a"]
    with pytest.raises(ValueError):
        sandwich_report(counts, counts[:20], counts, u, [1.0])


def test_sandwich_report_rejects_empty_and_negative_c():
    u = [0.0]
    counts = collect_exceedances(BINARY, {"a": identity_profile()}, 4.0, u, 5, seed=3)["a"]
    with pytest.raises(ValueError, match="no replicates"):
        sandwich_report(counts[:0], counts[:0], counts[:0], u, [1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        sandwich_report(counts, counts, counts, u, [1.0, -1.0])
