"""Experiment runner: config parsing, the six experiment kinds, CLI and
deterministic artifact emission.

Configs are line-oriented ``key = value`` text with sections.
``EXPERIMENTS`` declares each kind once: its driver, the sections it reads
and its ``[experiment]`` keys, each with a default or ``REQUIRED``, the
keys with a parser too; ``PROFILES`` maps each ``[profile]`` kind to its
builder in ``vsbbm.speed`` and its keys.
``load_config`` alone reads raw strings: a section or key the kind never
reads, a missing section or key, a value its parser rejects, a
``compare`` profile with no envelopes (one that fails (A1), or has an
infinite end slope or curvature, as ``power`` below exponent 2 has), a
``tube`` window [r, t - r] with no grid point and a tree horizon where
some tree of the run would likely exceed ``genealogy.NODE_CAP`` raise
``ConfigError`` before anything is written.
``--seed``, ``--workers`` and ``--out`` are the only overrides of the
file.  ``run`` writes every artifact to a temp path that is atomically
renamed, so an interrupted run never leaves corrupt artifacts; the
manifest carries the config hash, the master seed, the worker count
after ``--workers``, the seed scheme and the environment: versions, the
host's CPU count and the CPUs this process may run on.  Every Monte
Carlo kind runs its replicates through ``genealogy.run_replicates``,
which splits them into whole blocks of consecutive replicates and runs
one strided share of the blocks in the caller and each other share in
one child process.  A block draws from its own named streams, each
``tree_rng(seed_stream(seed, first, name))`` of the block's first
replicate.  ``simulate``, ``martingale`` and ``compare``
pass the forest block ``sampler.block_size(t)`` and grow and place each
block's trees in ``sampler.forest_batches``, ``compare`` placing its
profile and both envelopes from one draw of the ``gauss`` stream;
``cluster`` passes ``cluster.collapse_block`` and grows each block's
spines and their immigrants on the block's one ``spine`` generator.  Every
forest draws from one generator.  ``tube`` draws its bridges in row
chunks and ``fkpp`` is deterministic.  Every generator is SFC64, seeded
through numpy's SeedSequence from its stream key.  The manifest records
the seed scheme ``blake2b-sfc64-v4`` and the run's stream block.
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
from dataclasses import dataclass
from functools import cache
from itertools import chain

import numpy as np

from vsbbm import cluster as cluster_mod
from vsbbm import compare as compare_mod
from vsbbm import fkpp as fkpp_mod
from vsbbm import genealogy
from vsbbm import tube as tube_mod
from vsbbm.extremal import centering, forest_mckean, forest_summaries
# sample_tree is not called here; the benchmark's trace (perfbench/) patches
# and calls it as ``vsbbm.runner.sample_tree``
from vsbbm.genealogy import OffspringDistribution, run_replicates, sample_tree  # noqa: F401
from vsbbm.sampler import block_size, forest_batches
from vsbbm.speed import (
    SpeedProfile,
    build_envelopes,
    from_table_csv,
    identity_profile,
    piecewise_linear,
    power_profile,
    two_speed,
)


class ConfigError(ValueError):
    pass


# value parsers take the raw string and raise ValueError on a value they
# cannot parse or that is out of range
REQUIRED = None  # the default of a key that the config must set


def _numbers(cast):
    return lambda text: [cast(x) for x in text.replace(",", " ").split()]


_floats, _ints = _numbers(float), _numbers(int)


def _checked(parse, ok, need: str):
    """``parse``, then a ValueError naming ``need`` unless ``ok(value)``."""

    def parser(text):
        if not ok(value := parse(text)):
            raise ValueError(f"needs {need}")
        return value

    return parser


def _finite_above(name: str, low: int):
    """A float parser needing a finite value above ``low``: inf passes
    every lower bound, so it is ruled out by name."""
    return _checked(float, lambda v: math.isfinite(v) and v > low, f"a finite {name} > {low}")


def _non_empty(parse):
    """``parse``, then a ValueError for an empty list: a run with no cell
    to measure would exit 0 having measured nothing."""
    return _checked(parse, len, "at least one entry")


# [profile] kind -> (builder, its keys); every profile key is required
PROFILES = {
    "identity": (identity_profile, {}),
    "two_speed": (
        two_speed,
        {"sigma1_sq": (float, REQUIRED), "sigma2_sq": (float, REQUIRED), "b": (float, REQUIRED)},
    ),
    "piecewise": (piecewise_linear, {"xs": (_floats, REQUIRED), "ys": (_floats, REQUIRED)}),
    "table": (from_table_csv, {"path": (str, REQUIRED)}),
    "power": (power_profile, {"exponent": (float, REQUIRED)}),
}
_OFFSPRING_KEYS = {"ks": (_ints, REQUIRED), "ps": (_floats, REQUIRED)}
_OUTPUT_KEYS = {"dir": (str, "out")}


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    workers: int
    out_dir: str
    raw_text: str
    params: dict
    profile: SpeedProfile | None
    offspring: OffspringDistribution | None

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode()).hexdigest()[:16]


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
    _atomic_write(path, lambda fh: csv.writer(fh).writerows(chain([header], rows)))


# ---------------------------------------------------------------------------
# replicate workers (top-level so they pickle)

def _simulate_replicates(seed, t, profile, offspring, u_grid, blocks):
    rows = []
    for leaf_tree, (pos,), n in forest_batches(seed, t, offspring, (profile,), blocks):
        n_leaves, top, counts = forest_summaries(leaf_tree, pos, n, t, u_grid)
        rows += zip(n_leaves.tolist(), top.tolist(), counts.tolist())
    return rows


def _martingale_replicates(seed, s_horizon, sigma_b, offspring, blocks):
    profile = identity_profile()
    vals = []
    for leaf_tree, (pos,), n in forest_batches(seed, s_horizon, offspring, (profile,), blocks):
        vals += forest_mckean(leaf_tree, pos, n, profile, s_horizon, sigma_b).tolist()
    return vals


# ---------------------------------------------------------------------------
# experiment drivers: each takes its kind's typed keys as keyword arguments
# and returns its report and CSV tables, name -> (header, rows), to ``run``

def _run_simulate(cfg: ExperimentConfig, t, replicates, u_grid):
    u_grid = np.array(u_grid)
    common = (cfg.seed, t, cfg.profile, cfg.offspring, u_grid)
    rows = run_replicates(_simulate_replicates, common, replicates, cfg.workers, block_size(t))
    header = ["replicate", "n_leaves", "max_centered"] + [f"N_u[{u}]" for u in u_grid]
    csv_rows = [[rep, n, repr(mx)] + counts for rep, (n, mx, counts) in enumerate(rows)]
    report = {
        "t": t,
        "replicates": replicates,
        "mean_n_leaves": math.fsum(r[0] for r in rows) / replicates,
        "mean_max_centered": math.fsum(r[1] for r in rows) / replicates,
        "centering_tilde": centering(t, "tilde"),
    }
    return report, {"summaries.csv": (header, csv_rows)}


def _run_martingale(cfg: ExperimentConfig, t, sigma_b, replicates):
    common = (cfg.seed, t, sigma_b, cfg.offspring)
    vals = run_replicates(_martingale_replicates, common, replicates, cfg.workers, block_size(t))
    mean = math.fsum(vals) / replicates
    var = math.fsum((v - mean) ** 2 for v in vals) / (replicates - 1)
    se = math.sqrt(var / replicates)
    report = {
        "s": t,
        "sigma_b": sigma_b,
        "replicates": replicates,
        "mean": mean,
        "std_error": se,
        "deviation_in_se": abs(mean - 1.0) / se if se > 0 else 0.0,
    }
    return report, {"martingale.csv": (["replicate", "Y"], [[r, repr(v)] for r, v in enumerate(vals)])}


def _run_fkpp(cfg: ExperimentConfig, t_end, dx, sigma_e_list):
    state, track, tails = fkpp_mod.solve_with_tails(cfg.offspring, t_end, dx, sigma_e_list)
    report = {
        "t_end": t_end,
        "dx": dx,
        "front": fkpp_mod.front_position(state),
        "reference_m_t": centering(t_end, "standard"),
    }
    if sigma_e_list:
        report["tail_constants"] = {str(s): {"estimate": est, **diag} for s, (est, diag) in tails.items()}
    return report, {
        "front.csv": (["t", "front"], [[repr(t), repr(f)] for t, f in track]),
        "snapshot.csv": (["x", "u"], ([repr(float(x)), repr(float(u))] for x, u in zip(state.x, state.u))),
    }


def _run_tube(cfg: ExperimentConfig, t, r, gamma, replicates, n_steps):
    rate, se = tube_mod.empirical_bridge_violation(t, r, gamma, replicates, cfg.seed, n_steps)
    report = {
        "t": t,
        "r": r,
        "gamma": gamma,
        "replicates": replicates,
        "rate": rate,
        "std_error": se,
        "series_bound": tube_mod.bridge_violation_bound(r, gamma),
    }
    return report, {}


def _run_compare(cfg: ExperimentConfig, t, replicates, u_grid, c_grid):
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
    report = compare_mod.sandwich_report(counts["A"], counts["upper"], counts["lower"], u_grid, c_grid)
    report["t"] = t
    report["replicates"] = replicates
    return report, {}


def _run_cluster(cfg: ExperimentConfig, t, replicates, sigma_e_list, R, y_mode):
    rows = cluster_mod.decoration_collapse_study(
        sigma_e_list,
        R,
        t,
        replicates,
        cfg.seed,
        offspring=cfg.offspring,
        y_mode=y_mode,
        workers=cfg.workers,
    )
    header = ["sigma_e", "estimate", "std_error", "analytic_bound"]
    csv_rows = [[r["sigma_e"]] + [repr(r[key]) for key in header[1:]] for r in rows]
    return {"t": t, "R": R, "replicates": replicates, "rows": rows}, {"collapse.csv": (header, csv_rows)}


# ---------------------------------------------------------------------------
# kind -> (driver, section read besides [experiment] and [output] -> the raw
# keys an absent one reads as or REQUIRED, key -> (parser, default string or
# REQUIRED)); every kind also takes _COMMON_KEYS

_COMMON_KEYS = {
    "seed": (_checked(int, lambda v: v >= 0, "seed >= 0"), "0"),
    "workers": (_checked(int, lambda v: v >= 1, "workers >= 1"), "1"),
}
# every kind but fkpp averages replicates and estimates a standard error
_REPLICATES = (_checked(int, lambda v: v >= 2, "replicates >= 2"), REQUIRED)
# extremal.centering (simulate, and fkpp's reference_m_t) and the envelopes
# of compare are defined for t > 1 only; simulate and compare count
# exceedances over an ascending u_grid
_T_ABOVE_ONE = (_finite_above("t", 1), REQUIRED)
# cluster, tube and martingale run to any finite horizon t > 0; with an
# infinite one no lifetime ends and a tree grows until it fills memory
_T_POSITIVE = (_finite_above("t", 0), REQUIRED)
_U_GRID = _checked(_floats, lambda v: v == sorted(v), "an ascending u_grid")
# a tail constant exists for an end slope sigma_e > 1 only
_SIGMA_ES = _checked(_floats, lambda v: all(s > 1 for s in v), "every entry > 1")
_IDENTITY, _BINARY = {"kind": "identity"}, {"ks": "2", "ps": "1"}

EXPERIMENTS = {
    "simulate": (_run_simulate, {"profile": _IDENTITY, "offspring": _BINARY}, {
        "t": _T_ABOVE_ONE, "replicates": _REPLICATES, "u_grid": (_U_GRID, "-2 -1 0 1 2"),
    }),
    "fkpp": (_run_fkpp, {"offspring": _BINARY}, {
        "t_end": _T_ABOVE_ONE, "dx": (_finite_above("dx", 0), "0.05"),
        "sigma_e_list": (_SIGMA_ES, ""),
    }),
    "compare": (_run_compare, {"profile": REQUIRED, "offspring": _BINARY}, {
        "t": _T_ABOVE_ONE, "replicates": _REPLICATES,
        "u_grid": (_non_empty(_U_GRID), "-1 0 1 2 3"),
        "c_grid": (_non_empty(_checked(_floats, lambda v: all(c >= 0 for c in v), "every entry >= 0")), "0.1 0.5 2"),
    }),
    "cluster": (_run_cluster, {"offspring": _BINARY}, {
        "t": _T_POSITIVE, "replicates": _REPLICATES,
        "sigma_e_list": (_non_empty(_checked(_SIGMA_ES, lambda v: v == sorted(v), "an ascending list")), "1.2 1.5 2"),
        "R": (_checked(float, math.isfinite, "a finite R"), "2"),
        "y_mode": (_checked(str, lambda v: v in ("zero", "exponential"), "zero or exponential"), "zero"),
    }),
    # the series bound of tube needs r >= 1 and gamma > 1/2; load_config
    # also rejects a window [r, t - r] that holds no grid point
    "tube": (_run_tube, {}, {
        "t": _T_POSITIVE, "r": (_checked(float, lambda v: v >= 1, "r >= 1"), REQUIRED),
        "gamma": (_checked(float, lambda v: v > 0.5, "gamma > 1/2"), REQUIRED),
        "replicates": _REPLICATES, "n_steps": (_checked(int, lambda v: v >= 1, "n_steps >= 1"), "512"),
    }),
    "martingale": (_run_martingale, {"offspring": _BINARY}, {
        "t": _T_POSITIVE, "sigma_b": (_checked(float, lambda v: v >= 0, "sigma_b >= 0"), REQUIRED),
        "replicates": _REPLICATES,
    }),
}


# a run may expect at most this many of its trees past the node cap
_CAP_RISK = 1e-3


def _check_population(t, replicates, offspring) -> None:
    """A tree grown to t has e^t leaves on average, and its node count has
    the Yule tail P(more than n nodes) ~ exp(-n / (k e^t)), k the law's
    largest offspring count (a binary tree's leaves are geometric around
    e^t).  A horizon where replicates * exp(-NODE_CAP / (k e^t)), the
    expected number of trees past the cap, exceeds ``_CAP_RISK`` is
    rejected, not stopped mid-run; ``genealogy.NODE_CAP`` is read at call
    time."""
    cap, k = genealogy.NODE_CAP, int(offspring.ks.max())
    risk = replicates * math.exp(-cap * math.exp(-t) / k)
    if risk > _CAP_RISK:
        t_max = math.log(cap / (k * math.log(replicates / _CAP_RISK)))
        raise ConfigError(
            f"t = {t}: {risk:.2g} of {replicates} trees with up to {k} offspring are expected "
            f"past the node cap {cap}, more than {_CAP_RISK} (t <= {t_max:.2f})"
        )


def _check_tube_window(t, r, n_steps) -> None:
    """A tube run measures only the grid points in [r, t - r]; with none
    there it would report a rate of 0 having measured nothing."""
    window = tube_mod.grid_window(t, r, n_steps)
    if window.start == window.stop:
        raise ConfigError(
            f"the window [r, t - r] = [{r}, {t - r}] holds no point of the {n_steps}-step grid on [0, {t}]"
        )


def _parse_keys(section: str, raw: dict, keys: dict) -> dict:
    """Typed values of ``keys`` from the raw strings of one section."""
    values = {}
    for key, (parse, default) in keys.items():
        text = raw.get(key, default)
        if text is REQUIRED:
            raise ConfigError(f"missing key {key!r} in [{section}]")
        try:
            values[key] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {text!r}: {exc}") from None
    return values


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and fully validate a config file.  ``overrides`` maps seed,
    workers or out (the output directory) to a value, or None, for the file's."""
    with open(path) as fh:
        text = fh.read()
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(text)
    raw = {name: dict(parser[name]) for name in parser.sections()}
    if "experiment" not in raw:
        raise ConfigError("missing [experiment] section")
    raw.setdefault("output", {})
    for name, value in (overrides or {}).items():
        if value is not None:
            section, key = ("output", "dir") if name == "out" else ("experiment", name)
            raw[section][key] = str(value)
    kind = raw["experiment"].pop("kind", None)
    if kind not in EXPERIMENTS:
        raise ConfigError(f"kind must be one of {tuple(EXPERIMENTS)}, got {kind!r}")
    _, sections, keys = EXPERIMENTS[kind]
    schemas = {"experiment": {**keys, **_COMMON_KEYS}, "output": _OUTPUT_KEYS, "offspring": _OFFSPRING_KEYS}
    for name in raw:
        if name not in ("experiment", "output", *sections):
            raise ConfigError(f"{kind} reads no [{name}] section")
    for name, default in sections.items():
        if name not in raw:
            if default is REQUIRED:
                raise ConfigError(f"{kind} needs a [{name}] section")
            raw[name] = dict(default)
    if "profile" in sections:
        profile_kind = raw["profile"].pop("kind", "identity")
        if profile_kind not in PROFILES:
            raise ConfigError(f"[profile] kind must be one of {tuple(PROFILES)}, got {profile_kind!r}")
        build_profile, schemas["profile"] = PROFILES[profile_kind]
    # every unknown key is reported before any missing or malformed one
    for name, section in raw.items():
        if unknown := sorted(section.keys() - schemas[name].keys()):
            raise ConfigError(f"unknown key {unknown[0]!r} in [{name}] of {kind}")
    typed = {name: _parse_keys(name, section, schemas[name]) for name, section in raw.items()}
    if "path" in typed.get("profile", {}):
        # a table profile's path is relative to the config file's directory
        typed["profile"]["path"] = os.path.join(os.path.dirname(path), typed["profile"]["path"])
    params = typed["experiment"]
    try:
        profile = build_profile(**typed["profile"]) if "profile" in sections else None
        law = typed.get("offspring")
        offspring = OffspringDistribution(np.array(law["ks"]), np.array(law["ps"])) if law else None
        if kind == "compare":
            # compare needs the envelopes, which exist only where (A1) holds
            # and the end slope and the curvature are finite
            build_envelopes(profile, params["t"])
    except (ValueError, OSError) as exc:  # OSError: a table profile's file cannot be read
        raise ConfigError(str(exc)) from None
    if kind in ("simulate", "martingale", "compare", "cluster"):
        _check_population(params["t"], params["replicates"], offspring)
    if kind == "tube":
        _check_tube_window(params["t"], params["r"], params["n_steps"])
    return ExperimentConfig(
        kind=kind,
        seed=params.pop("seed"),
        workers=params.pop("workers"),
        out_dir=typed["output"]["dir"],
        raw_text=text,
        params=params,
        profile=profile,
        offspring=offspring,
    )


@cache
def _scipy_version() -> str | None:
    """scipy's version from its package metadata, so that scipy is never
    imported, or None when it is not installed; looked up on the first
    run, not at import."""
    from importlib import metadata

    try:
        return metadata.version("scipy")
    except metadata.PackageNotFoundError:
        return None


def _stream_block(cfg: ExperimentConfig) -> int | None:
    """The consecutive replicates that share one set of streams, a forest
    block: ``block_size(t)`` in ``simulate``, ``martingale`` and
    ``compare``, ``cluster.collapse_block`` in ``cluster``; None for
    ``tube`` and ``fkpp``, which key no stream by replicate."""
    if cfg.kind == "cluster":
        return cluster_mod.collapse_block(cfg.params["t"], cfg.offspring, len(cfg.params["sigma_e_list"]))
    return block_size(cfg.params["t"]) if cfg.kind in ("simulate", "martingale", "compare") else None


def run(cfg: ExperimentConfig) -> dict:
    """Run the configured experiment; writes its CSV tables, its
    ``report.json`` and a manifest listing every artifact plus the config
    hash, the seed scheme, the stream block and the environment, and
    returns the report.  ``workers`` is the config's after any override;
    a run uses at most min(``workers``, ``environment.usable_cpus``)
    processes (``genealogy.run_replicates``)."""
    report, tables = EXPERIMENTS[cfg.kind][0](cfg, **cfg.params)
    os.makedirs(cfg.out_dir, exist_ok=True)
    for name, (header, rows) in tables.items():
        _write_csv(os.path.join(cfg.out_dir, name), header, rows)
    _write_json(os.path.join(cfg.out_dir, "report.json"), report)
    manifest = {
        "kind": cfg.kind,
        "seed": cfg.seed,
        "workers": cfg.workers,
        "config_hash": cfg.config_hash,
        "files": sorted([*tables, "report.json"]),
        "version": "0.1.0",
        "seed_scheme": "blake2b-sfc64-v4",
        "stream_block": _stream_block(cfg),
        "environment": {
            "python": "%d.%d.%d" % sys.version_info[:3],
            "numpy": np.__version__,
            "scipy": _scipy_version(),
            "cpu_count": os.cpu_count(),
            "usable_cpus": genealogy._usable_cpus(),
        },
    }
    _write_json(os.path.join(cfg.out_dir, "manifest.json"), manifest)
    return report


def _describe(kind: str) -> str:
    """Help text of one subcommand: its keys, defaults and sections."""
    _, sections, keys = EXPERIMENTS[kind]

    def listing(schema):
        return [
            f"  {key} = {'(required)' if default is REQUIRED else default or '(empty)'}"
            for key, (_, default) in schema.items()
        ]

    lines = [f"[experiment] kind = {kind}", *listing({**keys, **_COMMON_KEYS})]
    lines += ["[output]", *listing(_OUTPUT_KEYS)]
    lines += [f"[{s}] {'(required)' if d is REQUIRED else '(optional)'}" for s, d in sections.items()]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="vsbbm", description=__doc__)
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in EXPERIMENTS:
        p = sub.add_parser(
            kind, description=_describe(kind), formatter_class=argparse.RawDescriptionHelpFormatter
        )
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
