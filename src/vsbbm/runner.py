"""Experiment runner: config parsing, the six experiment kinds, CLI and
deterministic artifact emission.

Configs are line-oriented ``key = value`` text with sections.  Every output
carries the config hash and master seed; files are written to a temp path
and atomically renamed, so an interrupted run never leaves corrupt
artifacts.  Every Monte Carlo kind runs its replicates through
``genealogy.run_replicates``, each replicate on its own named streams,
whose generators ``genealogy.replicate_rngs`` builds for a whole chunk of
replicates from one vectorised key derivation; ``simulate``, ``martingale``
and ``compare`` grow and place them in ``sampler.forest_batches``.
Aggregation is order-fixed (by replicate index, exact summation), so
results do not depend on the worker count.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from vsbbm import cluster as cluster_mod
from vsbbm import compare as compare_mod
from vsbbm import fkpp as fkpp_mod
from vsbbm import tube as tube_mod
from vsbbm.extremal import centering, forest_mckean, forest_summaries
# sample_tree is not called here; the benchmark's trace (perfbench/) patches
# and calls it as ``vsbbm.runner.sample_tree``
from vsbbm.genealogy import OffspringDistribution, run_replicates, sample_tree  # noqa: F401
from vsbbm.sampler import forest_batches
from vsbbm.speed import (
    SpeedProfile,
    build_envelopes,
    from_function,
    from_table_csv,
    identity_profile,
    piecewise_linear,
    two_speed,
)

def _power_eval(p, x):
    return np.asarray(x) ** p


ENV_PREFIX = "VSBBM_"
KINDS = ("simulate", "fkpp", "compare", "cluster", "tube", "martingale")

_ALLOWED_KEYS = {
    "experiment": {
        "kind", "t", "replicates", "seed", "workers",
        "sigma_b", "u_grid", "c_grid", "r", "gamma", "n_steps",
        "dx", "t_end", "sigma_e_list", "R", "y_mode",
    },
    "profile": {"kind", "sigma1_sq", "sigma2_sq", "b", "xs", "ys", "path", "exponent"},
    "offspring": {"ks", "ps"},
    "output": {"dir"},
}


class ConfigError(ValueError):
    pass


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.replace(",", " ").split()]


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    workers: int
    out_dir: str
    raw_text: str
    params: dict = field(default_factory=dict)
    profile: SpeedProfile | None = None
    offspring: OffspringDistribution | None = None

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode()).hexdigest()[:16]


def _parse_profile(section) -> SpeedProfile:
    kind = section.get("kind", "identity")
    if kind == "identity":
        return identity_profile()
    if kind == "two_speed":
        return two_speed(
            float(section["sigma1_sq"]), float(section["sigma2_sq"]), float(section["b"])
        )
    if kind == "piecewise":
        return piecewise_linear(_float_list(section["xs"]), _float_list(section["ys"]))
    if kind == "table":
        return from_table_csv(section["path"])
    if kind == "power":
        p = float(section["exponent"])
        k = p * (p - 1.0)  # |A''| bound on [0,1] for 1 < p <= 2
        return from_function(
            partial(_power_eval, p),
            slope_at_0=0.0 if p > 1 else None,
            slope_at_1=p,
            k1_upper=k,
            k1_lower=k,
            k2_upper=k,
            k2_lower=k,
            label=f"power{p}",
        )
    raise ConfigError(f"unknown profile kind {kind!r}")


def _parse_offspring(section) -> OffspringDistribution:
    if section is None or ("ks" not in section and "ps" not in section):
        return OffspringDistribution.binary()
    ks = [int(x) for x in section["ks"].replace(",", " ").split()]
    ps = _float_list(section["ps"])
    return OffspringDistribution(np.array(ks), np.array(ps))


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and fully validate a config file; unknown keys are errors."""
    with open(path) as fh:
        text = fh.read()
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(text)
    for section in parser.sections():
        if section not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _ALLOWED_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    if "experiment" not in parser:
        raise ConfigError("missing [experiment] section")
    exp = parser["experiment"]
    kind = exp.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")
    # every kind but fkpp averages replicates and estimates a standard error
    if kind != "fkpp" and int(exp.get("replicates", "0")) < 2:
        raise ConfigError(f"{kind} needs replicates >= 2")
    # simulate centers by extremal.centering and compare builds envelopes;
    # both are defined for t > 1 only, so fail here, before any sampling;
    # both count exceedances, which needs an ascending u_grid
    if kind in ("simulate", "compare"):
        if not float(exp.get("t", "nan")) > 1:
            raise ConfigError(f"{kind} needs t > 1")
        u = _float_list(exp.get("u_grid", ""))
        if any(b < a for a, b in zip(u, u[1:])):
            raise ConfigError(f"{kind} needs an ascending u_grid")
    overrides = overrides or {}

    def pick(name, default=None, cast=str):
        if name in overrides and overrides[name] is not None:
            return overrides[name]
        env = os.environ.get(ENV_PREFIX + name.upper())
        if env is not None:
            return cast(env)
        return default

    seed = int(pick("seed", exp.get("seed", "0"), int))
    workers = int(pick("workers", exp.get("workers", "1"), int))
    out_dir = pick("out", parser.get("output", "dir", fallback="out"))

    params = {k: v for k, v in exp.items() if k not in ("kind", "seed", "workers")}
    profile = _parse_profile(parser["profile"]) if "profile" in parser else identity_profile()
    offspring = _parse_offspring(parser["offspring"] if "offspring" in parser else None)
    return ExperimentConfig(
        kind=kind,
        seed=seed,
        workers=workers,
        out_dir=out_dir,
        raw_text=text,
        params=params,
        profile=profile,
        offspring=offspring,
    )


def _atomic_write(path, writer) -> None:
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path, obj) -> None:
    _atomic_write(path, lambda fh: (json.dump(obj, fh, indent=2, sort_keys=True), fh.write("\n")))


def _write_csv(path, header, rows) -> None:
    def writer(fh):
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)

    _atomic_write(path, writer)


# ---------------------------------------------------------------------------
# replicate workers (top-level so they pickle)

def _simulate_replicates(seed, t, profile, offspring, u_grid, reps):
    rows = []
    for leaf_tree, (pos,), n in forest_batches(seed, t, offspring, {"gauss": profile}, reps):
        n_leaves, top, counts = forest_summaries(leaf_tree, pos, n, t, u_grid)
        rows += zip(n_leaves.tolist(), top.tolist(), counts.tolist())
    return rows


def _martingale_replicates(seed, s_horizon, sigma_b, offspring, reps):
    profile = identity_profile()
    vals = []
    for leaf_tree, (pos,), n in forest_batches(seed, s_horizon, offspring, {"gauss": profile}, reps):
        vals += forest_mckean(leaf_tree, pos, n, profile, s_horizon, sigma_b).tolist()
    return vals


# ---------------------------------------------------------------------------
# experiment drivers

def _run_simulate(cfg: ExperimentConfig, out):
    t = float(cfg.params["t"])
    replicates = int(cfg.params["replicates"])
    u_grid = np.array(_float_list(cfg.params.get("u_grid", "-2 -1 0 1 2")))
    rows = run_replicates(
        _simulate_replicates, (cfg.seed, t, cfg.profile, cfg.offspring, u_grid), replicates, cfg.workers
    )
    csv_rows = [
        [rep, n, repr(mx)] + counts for rep, (n, mx, counts) in enumerate(rows)
    ]
    _write_csv(
        out("summaries.csv"),
        ["replicate", "n_leaves", "max_centered"] + [f"N_u[{u}]" for u in u_grid],
        csv_rows,
    )
    n_vals = [r[0] for r in rows]
    max_vals = [r[1] for r in rows]
    report = {
        "t": t,
        "replicates": replicates,
        "mean_n_leaves": math.fsum(n_vals) / replicates,
        "mean_max_centered": math.fsum(max_vals) / replicates,
        "centering_tilde": centering(t, "tilde"),
    }
    _write_json(out("report.json"), report)
    return report


def _run_martingale(cfg: ExperimentConfig, out):
    s_horizon = float(cfg.params["t"])
    sigma_b = float(cfg.params["sigma_b"])
    replicates = int(cfg.params["replicates"])
    vals = run_replicates(
        _martingale_replicates, (cfg.seed, s_horizon, sigma_b, cfg.offspring), replicates, cfg.workers
    )
    mean = math.fsum(vals) / replicates
    var = math.fsum((v - mean) ** 2 for v in vals) / (replicates - 1)
    se = math.sqrt(var / replicates)
    _write_csv(
        out("martingale.csv"), ["replicate", "Y"], [[r, repr(v)] for r, v in enumerate(vals)]
    )
    report = {
        "s": s_horizon,
        "sigma_b": sigma_b,
        "replicates": replicates,
        "mean": mean,
        "std_error": se,
        "deviation_in_se": abs(mean - 1.0) / se if se > 0 else 0.0,
    }
    _write_json(out("report.json"), report)
    return report


def _run_fkpp(cfg: ExperimentConfig, out):
    t_end = float(cfg.params["t_end"])
    dx = float(cfg.params.get("dx", "0.05"))
    sigma_es = _float_list(cfg.params.get("sigma_e_list", ""))
    # one solve serves the front and every tail: the grid is widened to
    # what the largest sigma_e needs, which leaves the front unmoved
    x_max = max((fkpp_mod.tail_x_max(s, t_end) for s in sigma_es), default=None)
    state, track, snaps = fkpp_mod.solve_heaviside(
        cfg.offspring,
        t_end,
        x_max=x_max,
        dx=dx,
        track_front=True,
        snapshot_times=(t_end / 2.0,),
    )
    _write_csv(
        out("front.csv"), ["t", "front"], [[repr(t), repr(f)] for t, f in track]
    )
    state.export_csv(out("snapshot.csv"))
    report = {
        "t_end": t_end,
        "dx": dx,
        "front": fkpp_mod.front_position(state),
        "reference_m_t": centering(t_end, "standard"),
    }
    if sigma_es:
        tails = {}
        for se_val in sigma_es:
            est, diag = fkpp_mod.tail_estimate(state, snaps[t_end / 2.0], se_val, t_end)
            tails[str(se_val)] = {"estimate": est, **diag}
        report["tail_constants"] = tails
    _write_json(out("report.json"), report)
    return report


def _run_tube(cfg: ExperimentConfig, out):
    t = float(cfg.params["t"])
    r = float(cfg.params["r"])
    gamma = float(cfg.params["gamma"])
    replicates = int(cfg.params["replicates"])
    n_steps = int(cfg.params.get("n_steps", "512"))
    rate, se = tube_mod.empirical_bridge_violation(
        t, r, gamma, replicates, cfg.seed, n_steps
    )
    report = {
        "t": t,
        "r": r,
        "gamma": gamma,
        "replicates": replicates,
        "rate": rate,
        "std_error": se,
        "series_bound": tube_mod.bridge_violation_bound(r, gamma),
    }
    _write_json(out("report.json"), report)
    return report


def _run_compare(cfg: ExperimentConfig, out):
    t = float(cfg.params["t"])
    replicates = int(cfg.params["replicates"])
    u_grid = _float_list(cfg.params.get("u_grid", "-1 0 1 2 3"))
    c_grid = _float_list(cfg.params.get("c_grid", "0.1 0.5 2"))
    envelopes = build_envelopes(cfg.profile, t)
    counts = compare_mod.collect_exceedances(
        cfg.offspring,
        {"A": cfg.profile, "upper": envelopes.upper, "lower": envelopes.lower},
        t,
        u_grid,
        replicates,
        cfg.seed,
        workers=cfg.workers,
    )
    report = compare_mod.sandwich_report(
        counts["A"], counts["upper"], counts["lower"], u_grid, c_grid
    )
    report["t"] = t
    report["replicates"] = replicates
    _write_json(out("report.json"), report)
    return report


def _run_cluster(cfg: ExperimentConfig, out):
    t = float(cfg.params["t"])
    replicates = int(cfg.params["replicates"])
    sigma_e_list = _float_list(cfg.params.get("sigma_e_list", "1.2 1.5 2"))
    big_r = float(cfg.params.get("R", "2"))
    rows = cluster_mod.decoration_collapse_study(
        sigma_e_list,
        big_r,
        t,
        replicates,
        cfg.seed,
        offspring=cfg.offspring,
        y_mode=cfg.params.get("y_mode", "zero"),
        csv_path=out("collapse.csv"),
        workers=cfg.workers,
    )
    report = {"t": t, "R": big_r, "replicates": replicates, "rows": rows}
    _write_json(out("report.json"), report)
    return report


_DRIVERS = {
    "simulate": _run_simulate,
    "martingale": _run_martingale,
    "fkpp": _run_fkpp,
    "tube": _run_tube,
    "compare": _run_compare,
    "cluster": _run_cluster,
}


def run(cfg: ExperimentConfig) -> dict:
    """Run the configured experiment; returns the report and writes a
    manifest listing every artifact plus the config hash."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    produced = []

    def out(name):
        path = os.path.join(cfg.out_dir, name)
        produced.append(name)
        return path

    report = _DRIVERS[cfg.kind](cfg, out)
    manifest = {
        "kind": cfg.kind,
        "seed": cfg.seed,
        "config_hash": cfg.config_hash,
        "files": sorted(produced),
        "version": "0.1.0",
    }
    _write_json(os.path.join(cfg.out_dir, "manifest.json"), manifest)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="vsbbm", description=__doc__)
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(
            args.config,
            overrides={"seed": args.seed, "workers": args.workers, "out": args.out},
        )
        if cfg.kind != args.kind:
            raise ConfigError(
                f"config kind {cfg.kind!r} does not match subcommand {args.kind!r}"
            )
        run(cfg)
    except Exception as exc:  # structured error on stderr, nonzero exit
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
