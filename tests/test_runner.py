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
from vsbbm import sampler as sampler_mod
from vsbbm.compare import collect_exceedances
from vsbbm.extremal import summarize
from vsbbm.genealogy import sample_tree, seed_stream, tree_rng
from vsbbm.runner import (
    EXPERIMENTS,
    ConfigError,
    load_config,
    main,
    run,
)
from vsbbm.sampler import ParticleConfiguration, sample_leaf_positions
from vsbbm.speed import build_envelopes

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


def test_run_simulate_artifacts_and_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    path_a, _ = write_config(tmp_path, SIM_CONFIG, name="a.ini", out=out_a)
    path_b, _ = write_config(tmp_path, SIM_CONFIG, name="b.ini", out=out_b)
    run(load_config(path_a))
    run(load_config(path_b))
    for name in ("summaries.csv", "report.json", "manifest.json"):
        assert (out_a / name).exists()
    # byte-identical artifacts apart from the differing config paths
    assert (out_a / "summaries.csv").read_bytes() == (out_b / "summaries.csv").read_bytes()
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["kind"] == "simulate"
    assert manifest["seed"] == 7
    assert set(manifest["files"]) == {"report.json", "summaries.csv"}
    assert manifest["seed_scheme"] == "blake2b-philox-v1"
    env = manifest["environment"]
    assert env["python"] == "%d.%d.%d" % sys.version_info[:3]
    assert env["numpy"] == np.__version__
    assert env["cpu_count"] == os.cpu_count()
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


def test_run_simulate_matches_trees_alone(tmp_path):
    path, out = write_config(tmp_path, FOREST_SIM_CONFIG)
    cfg = load_config(path)
    run(cfg)
    t, u_grid = 4.0, np.array([-2.0, -0.5, 0.0, 1.0])
    with open(out / "summaries.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 60
    for rep, row in enumerate(rows):
        tree = sample_tree(cfg.offspring, t, seed=seed_stream(13, rep, "tree"))
        gauss = tree_rng(seed_stream(13, rep, "gauss"))
        pos = sample_leaf_positions(tree, cfg.profile, t, gauss)
        config = ParticleConfiguration(tree=tree, profile=cfg.profile, horizon=t, leaf_positions=pos)
        s = summarize(config, u_grid)
        want = [str(rep), str(s.n_leaves), repr(s.max_centered)]
        assert row == want + [str(c) for c in s.exceedance_counts]


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


@pytest.mark.parametrize("budget", [1, 700])
def test_forest_batch_size_does_not_change_results(tmp_path, monkeypatch, budget):
    files = {"sim": "summaries.csv", "mart": "martingale.csv", "compare": "report.json"}
    texts = {"sim": FOREST_SIM_CONFIG, "mart": MART_CONFIG, "compare": COMPARE_CONFIG}
    outs = {}
    for label in ("default", "small"):
        if label == "small":
            # 1: a batch of one tree; 700 nodes: a few trees per batch
            monkeypatch.setattr(sampler_mod, "FOREST_NODE_BUDGET", budget)
        for name, text in texts.items():
            path, out = write_config(tmp_path, text, name=f"{label}-{name}.ini", out=tmp_path / label / name)
            run(load_config(path))
            outs[label, name] = (out / files[name]).read_bytes()
    for name in texts:
        assert outs["default", name] == outs["small", name]


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
    ],
    ids=["no-profile", "above-diagonal"],
)
def test_load_config_rejects_compare_profile_without_envelopes(tmp_path, capsys, sections, word):
    # the identity profile and a profile above the diagonal fail (A1), so
    # build_envelopes could never run; compare's [profile] is required, and
    # the load says so as a ConfigError
    path, out = write_config(tmp_path, _kind_config("compare", "t = 3\nreplicates = 4", sections))
    with pytest.raises(ConfigError, match=word):
        load_config(path)
    assert main(["compare", "--config", str(path)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out.exists()


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
        assert got["estimate"] == pytest.approx(est, rel=1e-9, abs=0)
        assert got["value_at_half_horizon"] == pytest.approx(
            diag["value_at_half_horizon"], rel=1e-9, abs=0
        )
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
    ],
)
def test_main_rejects_out_of_range_value_before_any_output(tmp_path, capsys, kind, key, value, need):
    # unchecked, each of these values runs: to an exit 0 with estimates of
    # 0, or to a late ValueError, ZeroDivisionError or IndexError
    lines, sections = KIND_CASES[kind][:2]
    lines = re.sub(rf"(?m)^{key} = .*\n?", "", lines).rstrip("\n") + f"\n{key} = {value}"
    path, out = write_config(tmp_path, _kind_config(kind, lines, sections))
    assert main([kind, "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert need in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("kind", list(KIND_CASES))
def test_kind_cases_are_valid(tmp_path, kind):
    lines, sections = KIND_CASES[kind][:2]
    path, out = write_config(tmp_path, _kind_config(kind, lines, sections))
    assert load_config(path).kind == kind


@pytest.mark.parametrize("kind,text,argv,word", _bad_configs())
def test_main_rejects_bad_config_before_any_output(tmp_path, capsys, kind, text, argv, word):
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
