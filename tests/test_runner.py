import csv
import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import vsbbm
from vsbbm import fkpp as fkpp_mod
from vsbbm import genealogy
from vsbbm import sampler as sampler_mod
from vsbbm.compare import collect_exceedances, sandwich_report
from vsbbm.extremal import centering, count_exceedances, forest_mckean
from vsbbm.genealogy import OffspringDistribution, sample_forest, sample_tree, seed_stream, tree_rng
from vsbbm.runner import (
    EXPERIMENTS,
    ConfigError,
    load_config,
    main,
    run,
)
from vsbbm.sampler import sample_leaf_positions
from vsbbm.speed import build_envelopes, identity_profile

SIM_CONFIG = """\
[experiment]
kind = simulate
t = 3
replicates = 40
seed = 7

[profile]
kind = identity

[output]
dir = {out}
"""

MART_CONFIG = """\
[experiment]
kind = martingale
t = 3
sigma_b = 0.3
replicates = 300
seed = 11

[output]
dir = {out}
"""


COMPARE_CONFIG = """\
[experiment]
kind = compare
t = 5
replicates = 30
u_grid = -2 0 2
c_grid = 0.5 2
seed = 3

[profile]
kind = power
exponent = 2

[output]
dir = {out}
"""

CLUSTER_CONFIG = """\
[experiment]
kind = cluster
t = 3
replicates = 30
sigma_e_list = 1.2 1.5
R = 2
y_mode = exponential
seed = 4

[output]
dir = {out}
"""


def write_config(tmp_path, text, name="cfg.ini", out=None):
    out = out or tmp_path / "out"
    path = tmp_path / name
    path.write_text(text.format(out=out))
    return path, out


def test_seed_stream_stable_and_distinct():
    assert seed_stream(1, 2, "tree") == seed_stream(1, 2, "tree")
    assert seed_stream(1, 2, "tree") != seed_stream(1, 2, "gauss")
    assert seed_stream(1, 2, "tree") != seed_stream(1, 3, "tree")
    assert seed_stream(1, 2, "tree") != seed_stream(2, 2, "tree")


def test_seed_stream_collision_scan():
    seen = {seed_stream(0, rep, "tree") for rep in range(10**6)}
    assert len(seen) == 10**6


def test_load_config_rejects_unknown_key(tmp_path):
    path, _ = write_config(tmp_path, SIM_CONFIG + "\nbogus = 1\n")
    with pytest.raises(ConfigError, match="bogus"):
        load_config(path)


def test_load_config_rejects_scalar_sigma_e(tmp_path):
    # fkpp reads tail slopes from sigma_e_list only; a lone sigma_e would
    # otherwise run silently with no tail constants
    cfg = "[experiment]\nkind = fkpp\nt_end = 5\ndx = 0.1\nsigma_e = 2\n\n[output]\ndir = {out}\n"
    path, _ = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError, match="sigma_e"):
        load_config(path)


@pytest.mark.parametrize("kind", ["simulate", "compare"])
@pytest.mark.parametrize("t", ["1", "0.5"])
def test_load_config_rejects_t_at_most_one(tmp_path, kind, t):
    # the centering and the envelopes need t > 1; without this check the
    # run samples a whole forest batch before centering raises ValueError
    text = SIM_CONFIG.replace("kind = simulate", f"kind = {kind}").replace("t = 3", f"t = {t}")
    path, _ = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match="t > 1"):
        load_config(path)


@pytest.mark.parametrize("kind", ["simulate", "compare"])
@pytest.mark.parametrize("u_grid", ["1 0", "-2 0 -1 2"])
def test_load_config_rejects_unsorted_u_grid(tmp_path, kind, u_grid):
    # exceedance counts need an ascending grid; without this check the run
    # samples a whole forest batch before counting raises ValueError
    text = SIM_CONFIG.replace("kind = simulate", f"kind = {kind}").replace("t = 3", f"t = 3\nu_grid = {u_grid}")
    path, _ = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match="ascending u_grid"):
        load_config(path)


def test_load_config_rejects_unknown_section(tmp_path):
    path, _ = write_config(tmp_path, SIM_CONFIG + "\n[mystery]\na = 1\n")
    with pytest.raises(ConfigError, match="mystery"):
        load_config(path)


def test_load_config_requires_valid_kind(tmp_path):
    path, _ = write_config(tmp_path, SIM_CONFIG.replace("kind = simulate", "kind = dance"))
    with pytest.raises(ConfigError, match="kind"):
        load_config(path)
    bare = tmp_path / "bare.ini"
    bare.write_text("[profile]\nkind = identity\n")
    with pytest.raises(ConfigError, match="experiment"):
        load_config(bare)


def test_config_hash_matches_text(tmp_path):
    path, _ = write_config(tmp_path, SIM_CONFIG)
    cfg = load_config(path)
    assert cfg.config_hash == hashlib.sha256(path.read_text().encode()).hexdigest()[:16]


def test_override_precedence(tmp_path, monkeypatch):
    # command-line flags beat the file; the environment is never read
    path, _ = write_config(tmp_path, SIM_CONFIG)
    monkeypatch.setenv("VSBBM_SEED", "99")
    monkeypatch.setenv("VSBBM_WORKERS", "4")
    cfg = load_config(path)
    assert (cfg.seed, cfg.workers) == (7, 1)
    cfg = load_config(path, overrides={"seed": 123, "workers": 2, "out": str(tmp_path / "x")})
    assert (cfg.seed, cfg.workers, cfg.out_dir) == (123, 2, str(tmp_path / "x"))
    assert load_config(path, overrides={"seed": None}).seed == 7


def test_table_path_is_relative_to_the_config(tmp_path, monkeypatch):
    # the same config loads the same table from any working directory
    configs = tmp_path / "configs"
    (configs / "tables").mkdir(parents=True)
    (configs / "tables" / "a.csv").write_text("0,0\n0.5,0.25\n1,1\n")
    (configs / "cfg.ini").write_text(
        "[experiment]\nkind = simulate\nt = 3\nreplicates = 4\n\n[profile]\nkind = table\npath = tables/a.csv\n"
    )
    grid = np.linspace(0.0, 1.0, 9)
    values = []
    for cwd, cfg in ((tmp_path, "configs/cfg.ini"), (configs / "tables", "../cfg.ini")):
        monkeypatch.chdir(cwd)
        values.append(load_config(cfg).profile(grid))
    assert np.array_equal(values[0], values[1])
    assert np.array_equal(values[0], np.interp(grid, [0.0, 0.5, 1.0], [0.0, 0.25, 1.0]))


def test_profile_and_offspring_parsing(tmp_path):
    text = """\
[experiment]
kind = simulate
t = 2
replicates = 5

[profile]
kind = two_speed
sigma1_sq = 0.5
sigma2_sq = 2.0
b = 0.666666666666666666

[offspring]
ks = 1 3
ps = 0.5 0.5
"""
    path = tmp_path / "p.ini"
    path.write_text(text)
    cfg = load_config(path)
    assert cfg.profile.label == "two_speed"
    assert cfg.offspring.ks.tolist() == [1, 3]
    assert cfg.offspring.K == pytest.approx(3.0)


def test_run_simulate_artifacts_and_determinism(tmp_path, monkeypatch):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    path_a, _ = write_config(tmp_path, SIM_CONFIG, name="a.ini", out=out_a)
    path_b, _ = write_config(tmp_path, SIM_CONFIG, name="b.ini", out=out_b)
    # a process pinned to one CPU: the manifest records the --workers
    # override and the one usable CPU beside the host's count
    monkeypatch.setattr(genealogy, "_usable_cpus", lambda: 1)
    run(load_config(path_a, overrides={"workers": 2}))
    run(load_config(path_b))
    for name in ("summaries.csv", "report.json", "manifest.json"):
        assert (out_a / name).exists()
    # byte-identical artifacts apart from the differing config paths
    assert (out_a / "summaries.csv").read_bytes() == (out_b / "summaries.csv").read_bytes()
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["kind"] == "simulate"
    assert manifest["seed"] == 7
    assert manifest["workers"] == 2
    assert json.loads((out_b / "manifest.json").read_text())["workers"] == 1
    assert set(manifest["files"]) == {"report.json", "summaries.csv"}
    assert manifest["seed_scheme"] == "blake2b-sfc64-v4"
    # t = 3: blocks of floor(2**14 / (2 e^3)) = 407 replicates
    assert manifest["stream_block"] == 407
    for name in ("summaries.csv", "report.json"):
        text = (out_a / name).read_text()
        assert "stream_block" not in text and "seed_scheme" not in text
    env = manifest["environment"]
    assert env["python"] == "%d.%d.%d" % sys.version_info[:3]
    assert env["numpy"] == np.__version__
    assert env["cpu_count"] == os.cpu_count()
    assert env["usable_cpus"] == 1
    assert env["scipy"] is None or env["scipy"][0].isdigit()


@pytest.mark.parametrize(
    "text",
    [SIM_CONFIG, MART_CONFIG, COMPARE_CONFIG, CLUSTER_CONFIG],
    ids=["simulate", "martingale", "compare", "cluster"],
)
def test_run_worker_count_independence(tmp_path, text):
    outs = []
    for name, workers in (("w1", 1), ("w2", 2)):
        out = tmp_path / name
        path, _ = write_config(tmp_path, text, name=f"{name}.ini", out=out)
        cfg = load_config(path, overrides={"workers": workers})
        run(cfg)
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


FOREST_SIM_CONFIG = """\
[experiment]
kind = simulate
t = 4
replicates = 60
u_grid = -2 -0.5 0 1
seed = 13

[profile]
kind = two_speed
sigma1_sq = 0.5
sigma2_sq = 2.0
b = 0.6666666666666666

[offspring]
ks = 1 3
ps = 0.5 0.5

[output]
dir = {out}
"""


def _block_leaves(seed, t, offspring, profiles, replicates, block):
    """Block oracle: the leaf positions of every replicate, shape
    (len(profiles), n_leaves), from its block of ``block`` replicates grown
    alone as one run on the ``tree`` stream of the block's first replicate
    and placed by one draw of that replicate's ``gauss`` stream, which
    every profile scales."""
    out = []
    for first in range(0, replicates, block):
        n = min(block, replicates - first)
        forest = sample_forest(offspring, t, tree_rng(seed_stream(seed, first, "tree")), starts=np.zeros(n))
        gauss = [tree_rng(seed_stream(seed, first, "gauss")) for _ in profiles]
        pos = np.stack([sample_leaf_positions(forest, p, t, g) for p, g in zip(profiles, gauss)])
        out += [pos[:, forest.leaf_tree == r] for r in range(n)]
    return out


def _replicate_leaves(seed, t, offspring, profiles, replicates):
    """Per-replicate oracle (one tree per stream key): every replicate's
    tree from its own ``tree`` stream, placed by its own ``gauss`` stream."""
    out = []
    for rep in range(replicates):
        tree = sample_tree(offspring, t, seed=seed_stream(seed, rep, "tree"))
        pos = [sample_leaf_positions(tree, p, t, tree_rng(seed_stream(seed, rep, "gauss"))) for p in profiles]
        out.append(np.stack(pos))
    return out


def _summary_rows(leaves, t, u_grid):
    """summaries.csv rows of per-replicate leaf positions, leaf by leaf."""
    rows = []
    for rep, (x,) in enumerate(leaves):
        c = x - centering(t, "tilde")
        top = repr(float(x.max()) - centering(t, "tilde"))
        rows.append([str(rep), str(len(x)), top] + [str((c > u).sum()) for u in u_grid])
    return rows


def test_run_simulate_matches_trees_alone(tmp_path):
    # t = 4 gives blocks of 150 replicates: the 60 replicates are one block
    # of 60 trees grown as one run, each tree's summary taken leaf by leaf
    path, out = write_config(tmp_path, FOREST_SIM_CONFIG)
    cfg = load_config(path)
    run(cfg)
    t, u_grid = 4.0, [-2.0, -0.5, 0.0, 1.0]
    with open(out / "summaries.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 60 and sampler_mod.block_size(t) == 150
    leaves = _block_leaves(13, t, cfg.offspring, (cfg.profile,), 60, 150)
    assert rows == _summary_rows(leaves, t, u_grid)


# per kind: config, (t, seed, replicates), the artifact compared
ORACLE_KINDS = {
    "simulate": (FOREST_SIM_CONFIG, (4.0, 13, 60), "summaries.csv"),
    "martingale": (MART_CONFIG, (3.0, 11, 300), "martingale.csv"),
    "compare": (COMPARE_CONFIG, (5.0, 3, 30), "report.json"),
}


def _oracle_artifact(cfg, leaves, t, replicates):
    """The artifact ``ORACLE_KINDS`` compares, built from per-replicate
    leaf positions with the one-tree reductions."""
    if cfg.kind == "simulate":
        header = ["replicate", "n_leaves", "max_centered"] + [f"N_u[{u}]" for u in cfg.params["u_grid"]]
        return [header] + _summary_rows(leaves, t, cfg.params["u_grid"])
    if cfg.kind == "martingale":
        profile = identity_profile()
        sigma_b = cfg.params["sigma_b"]
        # each replicate's leaves alone, as a forest of one
        vals = [float(forest_mckean(np.zeros(len(x), dtype=int), x, 1, profile, t, sigma_b)[0]) for (x,) in leaves]
        return [["replicate", "Y"]] + [[str(r), repr(v)] for r, v in enumerate(vals)]
    u_grid, c_grid = cfg.params["u_grid"], cfg.params["c_grid"]
    counts = np.array([[count_exceedances(x, t, u_grid) for x in pos] for pos in leaves])
    report = sandwich_report(counts[:, 0], counts[:, 1], counts[:, 2], u_grid, c_grid)
    return {**json.loads(json.dumps(report)), "t": t, "replicates": replicates}


def _read_artifact(path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _profiles(cfg, t):
    if cfg.kind != "compare":
        return (cfg.profile or identity_profile(),)
    env = build_envelopes(cfg.profile, t)
    return (cfg.profile, env.upper, env.lower)


@pytest.mark.parametrize("kind", list(ORACLE_KINDS))
def test_forest_block_of_one_matches_per_replicate_streams(tmp_path, monkeypatch, kind):
    # a budget of 1 node gives blocks of one replicate, keyed by its own
    # index: the artifacts are those of one tree per replicate on its own
    # tree and gauss streams
    monkeypatch.setattr(sampler_mod, "FOREST_NODE_BUDGET", 1)
    text, (t, seed, replicates), name = ORACLE_KINDS[kind]
    path, out = write_config(tmp_path, text)
    cfg = load_config(path)
    run(cfg)
    assert json.loads((out / "manifest.json").read_text())["stream_block"] == 1
    offspring = cfg.offspring or OffspringDistribution.binary()
    leaves = _replicate_leaves(seed, t, offspring, _profiles(cfg, t), replicates)
    assert _read_artifact(out / name) == _oracle_artifact(cfg, leaves, t, replicates)


@pytest.mark.parametrize("kind", list(ORACLE_KINDS))
def test_forest_blocks_match_blocks_grown_alone(tmp_path, monkeypatch, kind):
    # a budget of 700 nodes: blocks of 6 at t = 4 (10 blocks), 17 at t = 3
    # (17 blocks and a final one of 11) and 2 at t = 5 (15 blocks)
    monkeypatch.setattr(sampler_mod, "FOREST_NODE_BUDGET", 700)
    text, (t, seed, replicates), name = ORACLE_KINDS[kind]
    block = sampler_mod.block_size(t)
    assert block == {"simulate": 6, "martingale": 17, "compare": 2}[kind]
    path, out = write_config(tmp_path, text)
    cfg = load_config(path)
    run(cfg)
    assert json.loads((out / "manifest.json").read_text())["stream_block"] == block
    offspring = cfg.offspring or OffspringDistribution.binary()
    leaves = _block_leaves(seed, t, offspring, _profiles(cfg, t), replicates, block)
    assert _read_artifact(out / name) == _oracle_artifact(cfg, leaves, t, replicates)


LAW_13_COMPARE_CONFIG = COMPARE_CONFIG.replace("[output]", "[offspring]\nks = 1 3\nps = 0.5 0.5\n\n[output]")


@pytest.mark.parametrize(
    "text", [FOREST_SIM_CONFIG, LAW_13_COMPARE_CONFIG], ids=["simulate-1,3", "compare-1,3"]
)
def test_law_1_3_artifacts_do_not_depend_on_workers(tmp_path, text):
    # trees of real branchings only: a law with p_1 > 0 still draws every
    # replicate from its own streams
    outs = []
    for workers in (1, 2):
        path, out = write_config(tmp_path, text, name=f"w{workers}.ini", out=tmp_path / f"w{workers}")
        cfg = load_config(path, overrides={"workers": workers})
        assert cfg.offspring.ks.tolist() == [1, 3]
        run(cfg)
        files = json.loads((out / "manifest.json").read_text())["files"]
        outs.append({name: (out / name).read_bytes() for name in files})
    assert outs[0] == outs[1] and len(outs[0]) >= 1


# kind -> (its keys, its forest block): each config is three blocks, which
# 2 workers split 2 + 1 and 3 workers 1 + 1 + 1
MULTI_BLOCK_CONFIGS = {
    # t = 5: blocks of 55, so 120 replicates are blocks of 55, 55 and 10
    "simulate": ("t = 5\nreplicates = 120\nseed = 21", 55),
    "martingale": ("t = 5\nsigma_b = 0.3\nreplicates = 120\nseed = 22", 55),
    "compare": ("t = 5\nreplicates = 120\nu_grid = -2 0 2\nc_grid = 0.5 2\nseed = 23", 55),
    # t = 3 with three sigma_e: blocks of 77, so 200 replicates are blocks
    # of 77, 77 and 46
    "cluster": ("t = 3\nreplicates = 200\ny_mode = exponential\nseed = 24", 77),
}


@pytest.mark.parametrize("kind", list(MULTI_BLOCK_CONFIGS))
def test_artifacts_of_several_blocks_do_not_depend_on_workers(tmp_path, monkeypatch, kind):
    # enough CPUs for three shares on any machine
    monkeypatch.setattr(genealogy, "_usable_cpus", lambda: 3)
    keys, block = MULTI_BLOCK_CONFIGS[kind]
    sections = "[profile]\nkind = power\nexponent = 2\n" if kind in ("simulate", "compare") else ""
    text = _kind_config(kind, keys, sections)
    outs = []
    for workers in (1, 2, 3):
        path, out = write_config(tmp_path, text, name=f"w{workers}.ini", out=tmp_path / f"w{workers}")
        run(load_config(path, overrides={"workers": workers}))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stream_block"] == block
        outs.append({name: (out / name).read_bytes() for name in manifest["files"]})
    assert outs[0] == outs[1] == outs[2] and "report.json" in outs[0]


# id -> (kind, keys, sections, sha256 of every artifact but the
# manifest): three forest blocks of the (1,3) law, blocks of one tree
# (t > 8.32), and one small run of every other drawing kind.  A change to
# any draw, block split or reduction changes them.
MC_PINNED = {
    "simulate": (
        "simulate",
        "t = 5\nreplicates = 120\nseed = 21",
        "[profile]\nkind = power\nexponent = 2\n\n[offspring]\nks = 1 3\nps = 0.5 0.5\n",
        {
            "report.json": "5160e8e48004a9ded1f00216cb8f79e8a4b2ddadc9eb74173d2f54de6dc291ea",
            "summaries.csv": "ce801ccc3c07174a3aa3cca8996f0cefc519e1369a534cc8e85dc42e8ce03ec5",
        },
    ),
    "simulate-one-tree-blocks": (
        "simulate",
        "t = 9\nreplicates = 3\nseed = 5",
        "[profile]\nkind = identity\n",
        {
            "report.json": "8f6146dee10cf73084d374a624438b2c15b8c1960a7bd12a592dc7467e53be75",
            "summaries.csv": "0d6e010ce5819e34420785854ed323ece03c895998e77c674176f9f8c1a4ca47",
        },
    ),
    "martingale": (
        "martingale",
        "t = 5\nsigma_b = 0.3\nreplicates = 120\nseed = 22",
        "",
        {
            "martingale.csv": "b1586f300ad6071fb1d39e50ca51d2e776cf90b599c675fb4f86bc298d4689d7",
            "report.json": "07288f03a59809ddf883e100e2f9204a8d7c828a5fe852e44896288f2a537bce",
        },
    ),
    "compare": (
        "compare",
        "t = 5\nreplicates = 120\nu_grid = -2 0 2\nc_grid = 0.5 2\nseed = 23",
        "[profile]\nkind = power\nexponent = 2\n",
        {
            "report.json": "b3e125fc0b3481c3aed5e68b57aefd974d73691c89b29637d94f08f1c2183db9",
        },
    ),
    # the universality ladder's profile b: the one pinned compare on exact
    # piecewise end slopes, the only path where they move the envelopes
    "compare-piecewise": (
        "compare",
        "t = 5\nreplicates = 120\nu_grid = -2 0 2\nc_grid = 0.5 2\nseed = 25",
        "[profile]\nkind = piecewise\nxs = 0 0.4 0.8 1\nys = 0 0.2 0.6 1\n",
        {
            "report.json": "b1640ed1825aec30a3886fe91a36699e550d987ff5f81a64440c541620773258",
        },
    ),
    "cluster": (
        "cluster",
        "t = 3\nreplicates = 200\ny_mode = exponential\nseed = 24",
        "",
        {
            "collapse.csv": "9255ce76b8f138ec5f821d448f0687e4532bac3d2402d1b3cf845a9465651970",
            "report.json": "89a8bdec09739b03aecadda18e8185d0da3c5c789d870eec7dc3806133ace781",
        },
    ),
    "tube": (
        "tube",
        "t = 30\nr = 10\ngamma = 0.75\nreplicates = 1000\nseed = 2",
        "",
        {
            "report.json": "461e98eebc9e3dfb8b7061465fc5062a35034e8cfabc1c18753f6b0c34faead4",
        },
    ),
}


@pytest.mark.parametrize("case,workers", [(case, 1) for case in MC_PINNED] + [("simulate", 2)])
def test_monte_carlo_artifacts_are_pinned(tmp_path, monkeypatch, case, workers):
    # two shares on any machine
    monkeypatch.setattr(genealogy, "_usable_cpus", lambda: 2)
    kind, keys, sections, digests = MC_PINNED[case]
    path, out = write_config(tmp_path, _kind_config(kind, keys, sections))
    run(load_config(path, overrides={"workers": workers}))
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in files} == digests


def test_compare_a_counts_match_simulate(tmp_path):
    # compare and simulate both place the profile from the tree and gauss
    # streams, so compare's A counts are simulate's N_u columns
    text = FOREST_SIM_CONFIG.replace(
        "kind = two_speed\nsigma1_sq = 0.5\nsigma2_sq = 2.0\nb = 0.6666666666666666", "kind = power\nexponent = 2"
    )
    path, out = write_config(tmp_path, text)
    cfg = load_config(path)
    run(cfg)
    with open(out / "summaries.csv", newline="") as fh:
        n_u = np.array([row[3:] for row in list(csv.reader(fh))[1:]], dtype=np.int64)
    t, u_grid = 4.0, [-2.0, -0.5, 0.0, 1.0]
    env = build_envelopes(cfg.profile, t)
    profiles = {"A": cfg.profile, "upper": env.upper, "lower": env.lower}
    counts = collect_exceedances(cfg.offspring, profiles, t, u_grid, 60, seed=13)
    assert n_u.shape == (60, 4) and n_u[:, 0].any()
    assert np.array_equal(counts["A"], n_u)


@pytest.mark.parametrize(
    "sections, word",
    [
        ("", r"needs a \[profile\]"),
        ("[profile]\nkind = piecewise\nxs = 0 0.5 1\nys = 0 0.6 1\n", "A1"),
        ("[profile]\nkind = power\nexponent = 1.8\n", "curvature"),
    ],
    ids=["no-profile", "above-diagonal", "unbounded-curvature"],
)
def test_load_config_rejects_compare_profile_without_envelopes(tmp_path, capsys, sections, word):
    # the identity profile and a profile above the diagonal fail (A1), and
    # x^1.8 has no bound on |A''| near 0, so build_envelopes could never
    # run; compare's [profile] is required, and the load says so as a
    # ConfigError
    path, out = write_config(tmp_path, _kind_config("compare", "t = 3\nreplicates = 4", sections))
    with pytest.raises(ConfigError, match=word):
        load_config(path)
    assert main(["compare", "--config", str(path)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out.exists()


def test_power_below_exponent_two_loads_for_simulate(tmp_path):
    # only compare's envelopes need a finite curvature
    sections = "[profile]\nkind = power\nexponent = 1.8\n"
    path, _ = write_config(tmp_path, _kind_config("simulate", "t = 3\nreplicates = 4", sections))
    assert load_config(path).profile.curvature == float("inf")


def test_load_config_names_a_two_speed_normalization_error(tmp_path):
    # 0.25 b + 2.5 (1 - b) = 1 - 7.5e-12: the normalization check, not
    # the A(1) = 1 check, rejects it
    sections = "[profile]\nkind = two_speed\nsigma1_sq = 0.25\nsigma2_sq = 2.5\nb = 0.66666666667\n"
    path, _ = write_config(tmp_path, _kind_config("simulate", "t = 3\nreplicates = 4", sections))
    with pytest.raises(ConfigError, match="normalization"):
        load_config(path)


def test_compare_loads_a_profile_with_a_steep_last_segment(tmp_path):
    # end slope 8e4: its envelopes' A(1) rounds to 1 + 9.7e-12, inside the
    # tolerance scaled by the slope
    sections = "[profile]\nkind = piecewise\nxs = 0 0.5 0.99999 1\nys = 0 0.2 0.2 1\n"
    path, _ = write_config(tmp_path, _kind_config("compare", "t = 10\nreplicates = 4", sections))
    assert load_config(path).profile.slope_at_1 == pytest.approx(8e4)


@pytest.mark.parametrize(
    "sections, word",
    [
        ("[profile]\nkind = two_speed\nsigma1_sq = 0.5\nsigma2_sq = 2\nb = 0.666666667333333\n",
         "normalization"),
        ("[profile]\nkind = piecewise\nxs = 0 0.75 1\nys = 0 0.5 1.000000001\n", r"A\(1\)=1"),
    ],
    ids=["two_speed", "piecewise"],
)
def test_load_config_rejects_a_profile_off_by_1e9_at_slope_two(tmp_path, sections, word):
    # the scaled tolerance is 2e-12 at slope 2: an error of 1e-9 is no rounding
    path, _ = write_config(tmp_path, _kind_config("simulate", "t = 3\nreplicates = 4", sections))
    with pytest.raises(ConfigError, match=word):
        load_config(path)


def test_import_loads_no_scipy():
    # neither scipy nor numpy.random is needed until a run draws or fits
    code = (
        "import sys, vsbbm.runner; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.random')))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vsbbm.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_runs_of_every_kind_load_no_scipy(tmp_path):
    # a fresh interpreter runs each kind at a tiny size on one worker; the
    # draws need numpy.random, but nothing a run does needs scipy
    paths = []
    for kind, (lines, sections, _, _) in KIND_CASES.items():
        path, _ = write_config(tmp_path, _kind_config(kind, lines, sections), f"{kind}.ini", tmp_path / kind)
        paths.append(str(path))
    code = (
        "import sys; from vsbbm.runner import load_config, run\n"
        f"for p in {paths!r}:\n"
        "    cfg = load_config(p)\n"
        "    assert cfg.workers == 1\n"
        "    run(cfg)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), 'numpy.random' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vsbbm.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[] True"
    assert all((tmp_path / kind / "report.json").exists() for kind in KIND_CASES)


def test_run_martingale_mean_near_one(tmp_path):
    path, out = write_config(tmp_path, MART_CONFIG)
    report = run(load_config(path))
    assert abs(report["mean"] - 1.0) < 5 * report["std_error"]
    rows = (out / "martingale.csv").read_text().splitlines()
    assert len(rows) == 301


def test_run_fkpp(tmp_path):
    text = """\
[experiment]
kind = fkpp
t_end = 3
dx = 0.1

[output]
dir = {out}
"""
    path, out = write_config(tmp_path, text)
    report = run(load_config(path))
    assert (out / "front.csv").exists()
    assert (out / "snapshot.csv").exists()
    assert report["front"] > 1.0


def test_run_fkpp_single_solve_tails(tmp_path, monkeypatch):
    text = """\
[experiment]
kind = fkpp
t_end = 4
dx = 0.1
sigma_e_list = 1.5 2

[output]
dir = {out}
"""
    path, out = write_config(tmp_path, text)
    cfg = load_config(path)
    calls = []
    solve = fkpp_mod.solve_heaviside

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(fkpp_mod, "solve_heaviside", counted)
    report = run(cfg)
    assert len(calls) == 1
    monkeypatch.undo()
    for se_val in (1.5, 2.0):
        est, diag = fkpp_mod.tail_constant(cfg.offspring, se_val, 4.0, dx=0.1)
        got = report["tail_constants"][str(se_val)]
        assert got == {"estimate": est, **diag}
    front = fkpp_mod.front_position(fkpp_mod.solve_heaviside(cfg.offspring, 4.0, dx=0.1))
    assert report["front"] == pytest.approx(front, rel=1e-12)


def test_run_tube(tmp_path):
    text = """\
[experiment]
kind = tube
t = 30
r = 10
gamma = 0.75
replicates = 1000
seed = 2

[output]
dir = {out}
"""
    path, out = write_config(tmp_path, text)
    report = run(load_config(path))
    assert report["rate"] <= report["series_bound"] + 3 * report["std_error"]


def test_run_compare(tmp_path):
    text = """\
[experiment]
kind = compare
t = 5
replicates = 60
u_grid = -2 0 2
c_grid = 0.5 2
seed = 3

[profile]
kind = power
exponent = 2

[output]
dir = {out}
"""
    path, out = write_config(tmp_path, text)
    report = run(load_config(path))
    assert report["n_cells"] == 6
    assert 0 <= report["n_pass"] <= 6


def test_run_cluster(tmp_path):
    text = """\
[experiment]
kind = cluster
t = 3
replicates = 40
sigma_e_list = 1.2 1.5
R = 2
seed = 4

[output]
dir = {out}
"""
    path, out = write_config(tmp_path, text)
    report = run(load_config(path))
    assert len(report["rows"]) == 2
    assert (out / "collapse.csv").exists()
    # two sigma_e at t = 3: blocks of floor(2**14 / (2 * 2 (2(e^3 - 1) - 3))) = 116
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed_scheme"] == "blake2b-sfc64-v4"
    assert manifest["stream_block"] == 116


def test_main_success_and_kind_mismatch(tmp_path, capsys):
    path, out = write_config(tmp_path, SIM_CONFIG)
    assert main(["simulate", "--config", str(path)]) == 0
    assert (out / "manifest.json").exists()
    assert main(["fkpp", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"


def test_main_structured_error_on_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nkind = simulate\nwat = 1\n")
    assert main(["simulate", "--config", str(bad)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "wat" in err["message"]


@pytest.mark.parametrize(
    "kind,text,replicates",
    [("simulate", SIM_CONFIG, 0), ("martingale", MART_CONFIG, 1)],
    ids=["simulate", "martingale"],
)
def test_main_rejects_too_few_replicates(tmp_path, capsys, kind, text, replicates):
    text = re.sub(r"replicates = \d+", f"replicates = {replicates}", text)
    path, out = write_config(tmp_path, text)
    assert main([kind, "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "replicates" in err["message"]
    assert not out.exists()


def test_main_out_override(tmp_path):
    path, _ = write_config(tmp_path, SIM_CONFIG)
    other = tmp_path / "elsewhere"
    assert main(["simulate", "--config", str(path), "--out", str(other), "--seed", "9"]) == 0
    manifest = json.loads((other / "manifest.json").read_text())
    assert manifest["seed"] == 9


# per kind: the [experiment] lines of a valid config, the first of them a
# required key, its other sections, a key of another kind, and a section
# the kind never reads
KIND_CASES = {
    "simulate": ("t = 3\nreplicates = 4", "[profile]\nkind = identity\n", "sigma_b = 0.3", "[mystery]\n"),
    "compare": ("t = 3\nreplicates = 4", "[profile]\nkind = power\nexponent = 2\n", "n_steps = 8", "[tube]\n"),
    "martingale": ("sigma_b = 0.3\nt = 3\nreplicates = 4", "", "u_grid = 0 1", "[profile]\nkind = two_speed\n"),
    "fkpp": ("t_end = 2\ndx = 0.1", "[offspring]\nks = 1 3\nps = 0.5 0.5\n", "replicates = 4", "[profile]\n"),
    "cluster": ("t = 3\nreplicates = 4", "", "gamma = 0.5", "[profile]\nkind = identity\n"),
    "tube": ("r = 10\nt = 30\ngamma = 0.75\nreplicates = 20", "", "R = 2", "[offspring]\nks = 2\nps = 1\n"),
}


def _kind_config(kind, lines, sections=""):
    return f"[experiment]\nkind = {kind}\n{lines}\n\n{sections}\n[output]\ndir = {{out}}\n"


def _bad_configs():
    """pytest params (kind, config text, extra argv, a word the error names)."""
    for kind, (lines, sections, foreign, unread) in KIND_CASES.items():
        first = lines.split("\n")[0]
        key = first.split(" = ")[0]
        cases = {
            "missing-key": (lines.replace(first + "\n", ""), sections, [], key),
            "foreign-key": (f"{lines}\n{foreign}", sections, [], foreign.split(" = ")[0]),
            "unread-section": (lines, sections + unread, [], unread.split("]")[0][1:]),
            "unparsable": (lines.replace(first, f"{key} = soon"), sections, [], key),
            "seed": (f"{lines}\nseed = -3", sections, [], "seed"),
            "seed-flag": (lines, sections, ["--seed", "-3"], "seed"),
            "workers": (f"{lines}\nworkers = 0", sections, [], "workers"),
        }
        for name, (exp, secs, argv, word) in cases.items():
            yield pytest.param(kind, _kind_config(kind, exp, secs), argv, word, id=f"{kind}-{name}")
    extra = [
        ("cluster", "t = 3\nreplicates = 4\nsigma_e_list = 2 1.5", "", "ascending"),
        ("cluster", "t = 3\nreplicates = 4\nsigma_e_list = 1 1.5", "", "> 1"),
        ("cluster", "t = 3\nreplicates = 4\ny_mode = uniform", "", "y_mode"),
        ("fkpp", "t_end = 2\nsigma_e_list = 1 2", "", "> 1"),
        ("simulate", "t = 3\nreplicates = 4", "[profile]\nkind = identity\nexponent = 2\n", "exponent"),
        ("simulate", "t = 3\nreplicates = 4", "[profile]\nkind = two_speed\nsigma1_sq = 0.5\nsigma2_sq = 2\n", "'b'"),
        ("simulate", "t = 3\nreplicates = 4", "[profile]\nkind = spiral\n", "spiral"),
        ("simulate", "t = 3\nreplicates = 4", "[profile]\nkind = two_speed\nsigma1_sq = 0.5\n"
         "sigma2_sq = 0.5\nb = 0.5\n", "normalization"),
        ("simulate", "t = 3\nreplicates = 4", "[offspring]\nks = 1 3\n", "ps"),
        ("simulate", "t = 3\nreplicates = 4", "[profile]\nkind = piecewise\nxs =\nys =\n", "span"),
        ("simulate", "t = 3\nreplicates = 4", "[profile]\nkind = table\npath = missing.csv\n", "missing.csv"),
        ("simulate", "t = 3\nreplicates = 4", "[profile]\nkind = table\npath = one_column.csv\n", "two columns"),
        # normalized, 2 (2/3) - 1 (1/3) = 1, but A falls past the kink
        ("simulate", "t = 3\nreplicates = 4", "[profile]\nkind = two_speed\nsigma1_sq = 2\nsigma2_sq = -1\n"
         "b = 0.6666666666666666\n", "slopes must be >= 0"),
        # NaN fails no > test; each of these used to load and run
        ("simulate", "t = 3\nreplicates = 4", "[profile]\nkind = two_speed\nsigma1_sq = nan\nsigma2_sq = 2\n"
         "b = 0.6666666666666666\n", "slopes must be >= 0"),
        ("simulate", "t = 3\nreplicates = 4", "[profile]\nkind = power\nexponent = nan\n", "finite and > 0"),
        ("simulate", "t = 3\nreplicates = 4", "[profile]\nkind = power\nexponent = inf\n", "finite and > 0"),
        ("simulate", "t = 3\nreplicates = 4", "[profile]\nkind = piecewise\nxs = 0 0.5 1\nys = 0 nan 1\n", "monotone"),
        ("simulate", "t = 3\nreplicates = 4", "[profile]\nkind = piecewise\nxs = 0 nan 1\nys = 0 0.5 1\n", "monotone"),
        ("simulate", "t = 3\nreplicates = 4", "[profile]\nkind = table\npath = nan_y.csv\n", "monotone"),
        ("simulate", "t = 3\nreplicates = 4", "[profile]\nkind = table\npath = nan_x.csv\n", "monotone"),
        ("simulate", "t = 3\nreplicates = 4", "[profile]\nkind = piecewise\nxs = 0 0.5 1\nys = 0 1\n",
         "xs has 3 entries and ys 2"),
    ]
    for i, (kind, lines, sections, word) in enumerate(extra):
        yield pytest.param(kind, _kind_config(kind, lines, sections), [], word, id=f"{kind}-value-{i}")


@pytest.mark.parametrize(
    "kind,key,value,need",
    [
        ("tube", "t", "0", "t > 0"),
        ("tube", "r", "0.5", "r >= 1"),
        ("tube", "gamma", "0.5", "gamma > 1/2"),
        ("tube", "n_steps", "0", "n_steps >= 1"),
        ("cluster", "t", "0", "t > 0"),
        ("cluster", "t", "-1", "t > 0"),
        ("fkpp", "dx", "0", "dx > 0"),
        ("fkpp", "dx", "-0.05", "dx > 0"),
        ("martingale", "t", "0", "t > 0"),
        ("martingale", "sigma_b", "-0.5", "sigma_b >= 0"),
        ("compare", "c_grid", "-5", "every entry >= 0"),
        ("compare", "c_grid", "0.1 -0.5 2", "every entry >= 0"),
        ("cluster", "R", "nan", "a finite R"),
        ("cluster", "R", "inf", "a finite R"),
        ("cluster", "R", "-inf", "a finite R"),
        ("simulate", "t", "inf", "a finite t > 1"),
        ("compare", "t", "inf", "a finite t > 1"),
        ("martingale", "t", "inf", "a finite t > 0"),
        ("cluster", "t", "inf", "a finite t > 0"),
        ("tube", "t", "inf", "a finite t > 0"),
        ("fkpp", "t_end", "inf", "a finite t > 1"),
        ("fkpp", "dx", "inf", "a finite dx > 0"),
        ("simulate", "t", "nan", "a finite t > 1"),
        ("simulate", "t", "16", "node cap"),
        ("martingale", "t", "16", "node cap"),
        ("compare", "t", "16", "node cap"),
        ("cluster", "t", "16", "node cap"),
        ("compare", "u_grid", "", "at least one entry"),
        ("compare", "c_grid", "", "at least one entry"),
        ("cluster", "sigma_e_list", "", "at least one entry"),
    ],
)
def test_main_rejects_out_of_range_value_before_any_output(tmp_path, capsys, kind, key, value, need):
    # unchecked, each of these values runs: to an exit 0 with estimates of
    # 0 or with no cell measured, to a late ValueError, ZeroDivisionError
    # or IndexError, or (t = 16, where a binary tree passes 2**24 nodes
    # with chance exp(-2**24 / (2e^t)) = 0.39) to trees that fill memory
    lines, sections = KIND_CASES[kind][:2]
    lines = re.sub(rf"(?m)^{key} = .*\n?", "", lines).rstrip("\n") + f"\n{key} = {value}"
    path, out = write_config(tmp_path, _kind_config(kind, lines, sections))
    assert main([kind, "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert need in err["message"]
    assert not out.exists()


def test_node_cap_is_read_at_load(tmp_path, monkeypatch):
    # a cap of 100 nodes, 4 replicates: a horizon is admitted while the
    # run's chance of a tree past the cap, 4 exp(-100 / (k e^t)), stays
    # below 1e-3, up to t = ln(100 / (k ln 4000)): 1.797 for the binary
    # law (k = 2), 1.391 for law (1,3) (k = 3); tube draws no tree and
    # keeps its t = 30
    monkeypatch.setattr(genealogy, "NODE_CAP", 100)
    laws = {"": (1.79, 1.8), "[offspring]\nks = 1 3\nps = 0.5 0.5\n": (1.39, 1.4)}
    for kind in ("simulate", "martingale", "compare", "cluster"):
        lines, sections = KIND_CASES[kind][:2]
        for law, (admitted, rejected) in laws.items():
            text = _kind_config(kind, lines.replace("t = 3", f"t = {admitted}"), sections + law)
            path, _ = write_config(tmp_path, text)
            assert load_config(path).params["t"] == admitted
            path, _ = write_config(tmp_path, text.replace(f"t = {admitted}", f"t = {rejected}"))
            with pytest.raises(ConfigError, match="node cap 100"):
                load_config(path)
    path, _ = write_config(tmp_path, _kind_config("tube", KIND_CASES["tube"][0]))
    assert load_config(path).params["t"] == 30


def test_node_cap_bounds_the_tail_not_the_mean(tmp_path, monkeypatch):
    # at cap 1000 a binary tree grown to t = 6.2 has 2e^t = 985 nodes on
    # average, yet 139 of 400 such trees passed the cap; a 40-replicate
    # run there is rejected at load, not stopped mid-run
    monkeypatch.setattr(genealogy, "NODE_CAP", 1000)
    path, _ = write_config(tmp_path, _kind_config("simulate", "t = 6.2\nreplicates = 40"))
    with pytest.raises(ConfigError, match="node cap 1000"):
        load_config(path)


@pytest.mark.parametrize(
    "lines",
    [
        "t = 30\nr = 20\ngamma = 0.75\nreplicates = 20",  # r > t / 2: an empty interval
        "t = 30\nr = 14.9\ngamma = 0.75\nreplicates = 20\nn_steps = 3",  # no grid point in [14.9, 15.1]
    ],
)
def test_main_rejects_tube_window_without_grid_point(tmp_path, capsys, lines):
    # with no grid point to look at, tube would report a rate of 0
    path, out = write_config(tmp_path, _kind_config("tube", lines))
    assert main(["tube", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "holds no point" in err["message"]
    assert not out.exists()


def test_tube_window_of_one_grid_point_runs(tmp_path):
    # r = t / 2 on an even grid leaves the midpoint alone in the window
    lines = "t = 30\nr = 15\ngamma = 0.75\nreplicates = 20\nn_steps = 2"
    path, out = write_config(tmp_path, _kind_config("tube", lines))
    assert main(["tube", "--config", str(path)]) == 0
    assert json.loads((out / "report.json").read_text())["replicates"] == 20


@pytest.mark.parametrize("kind", list(KIND_CASES))
def test_kind_cases_are_valid(tmp_path, kind):
    lines, sections = KIND_CASES[kind][:2]
    path, out = write_config(tmp_path, _kind_config(kind, lines, sections))
    assert load_config(path).kind == kind


@pytest.mark.parametrize("kind,text,argv,word", _bad_configs())
def test_main_rejects_bad_config_before_any_output(tmp_path, capsys, kind, text, argv, word):
    # a table profile's path is relative to the config file's directory
    (tmp_path / "one_column.csv").write_text("0\n0.5\n1\n")
    (tmp_path / "nan_y.csv").write_text("0,0\n0.5,nan\n1,1\n")
    (tmp_path / "nan_x.csv").write_text("0,0\nnan,0.5\n1,1\n")
    path, out = write_config(tmp_path, text)
    assert main([kind, "--config", str(path), *argv]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert word in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("kind", list(KIND_CASES))
def test_help_lists_keys_defaults_and_sections(capsys, kind):
    with pytest.raises(SystemExit) as done:
        main([kind, "--help"])
    assert done.value.code == 0
    text = capsys.readouterr().out
    _, sections, keys = EXPERIMENTS[kind]
    for key, (_, default) in keys.items():
        assert f"  {key} = {'(required)' if default is None else default or '(empty)'}" in text
    assert "  seed = 0" in text and "  workers = 1" in text and "[output]\n  dir = out" in text
    for s, default in sections.items():
        assert f"[{s}] {'(required)' if default is None else '(optional)'}" in text


def test_help_marks_compare_profile_required(capsys):
    texts = {}
    for kind in ("compare", "simulate"):
        with pytest.raises(SystemExit):
            main([kind, "--help"])
        texts[kind] = capsys.readouterr().out
    assert "[profile] (required)" in texts["compare"] and "[profile] (optional)" not in texts["compare"]
    assert "[profile] (optional)" in texts["simulate"] and "[profile] (required)" not in texts["simulate"]
    assert "[offspring] (optional)" in texts["compare"]


def test_readme_lists_every_key_and_default():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    section = readme.split("## Command line")[1].split("\n## ")[0]
    for kind, (_, _, keys) in EXPERIMENTS.items():
        row = next(line for line in section.splitlines() if line.startswith(f"| `{kind}` |"))
        for key, (_, default) in keys.items():
            assert f"`{key} = {default}`" in row if default else f"`{key}`" in row, (kind, key)
