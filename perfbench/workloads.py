"""Workloads of the vsbbm benchmark: the experiment kinds each one runs and
at what size, the INI configs generated from the workload seed, and the
check applied to every run's output.

A workload is a list of operations; one operation is one ``run(cfg)`` of
one experiment kind.  A pass runs every operation once, each with its own
seed derived from (workload, workload seed, pass, operation), so repeated
passes sample fresh trees instead of re-timing the same ones.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

TWO_SPEED = {"kind": "two_speed", "sigma1_sq": "0.5", "sigma2_sq": "2.0", "b": repr(2.0 / 3.0)}
POWER2 = {"kind": "power", "exponent": "2"}
LAW_13 = {"ks": "1 3", "ps": "0.5 0.5"}


def _op(name, kind, experiment, profile=None, offspring=None, tiny=None):
    return {
        "name": name,
        "kind": kind,
        "experiment": experiment,
        "profile": profile,
        "offspring": offspring,
        "tiny": tiny or {},
    }


# Replicate counts are sized so that one pass takes roughly 5-14 s on a
# 2-vCPU Xeon VM, which leaves two or more passes inside a 40 s run,
# set-up probes included.
WORKLOADS = {
    "mc-small": {
        "workers": 2,
        "why": (
            "binary t<=5 trees of ~300 nodes: per-call and per-wave Python "
            "overhead and the process pool dominate; no F-KPP work"
        ),
        "ops": [
            _op("simulate", "simulate", {"t": "5", "replicates": "5000"},
                profile=TWO_SPEED, tiny={"replicates": "40"}),
            _op("martingale", "martingale", {"t": "5", "sigma_b": "0.3", "replicates": "5000"},
                tiny={"replicates": "40"}),
            _op("cluster", "cluster",
                {"t": "3", "R": "2", "sigma_e_list": "1.2 1.5 2", "replicates": "400"},
                tiny={"replicates": "20"}),
        ],
    },
    "mc-large": {
        "workers": 1,
        "why": (
            "law (1,3) t=10 trees of ~5e4 nodes and 1e4x513 bridge arrays: "
            "array work, bytes moved and peak memory dominate; no pool"
        ),
        "ops": [
            _op("compare", "compare",
                {"t": "10", "replicates": "250", "u_grid": "-6 -4 -2 0 2", "c_grid": "0.1 0.5 2"},
                profile=POWER2, offspring=LAW_13, tiny={"replicates": "20"}),
            _op("simulate", "simulate", {"t": "10", "replicates": "300"},
                profile=TWO_SPEED, offspring=LAW_13, tiny={"replicates": "20"}),
            _op("tube", "tube", {"t": "30", "r": "10", "gamma": "0.75", "replicates": "10000"},
                tiny={"replicates": "500"}),
        ],
    },
    "pde": {
        "workers": 1,
        "why": (
            "F-KPP stepping only (binary t=50 dx=0.05, then law (1,3) t=20 "
            "with its tail constant); deterministic, no Monte Carlo layer"
        ),
        "ops": [
            _op("fkpp_binary", "fkpp", {"t_end": "50", "dx": "0.05"},
                tiny={"t_end": "5", "dx": "0.1"}),
            _op("fkpp_law13", "fkpp", {"t_end": "20", "dx": "0.05", "sigma_e_list": "2"},
                offspring=LAW_13, tiny={"t_end": "4", "dx": "0.1"}),
        ],
    },
}

SIZES = ("full", "tiny")


def op_params(op, size):
    params = dict(op["experiment"])
    if size == "tiny":
        params.update(op["tiny"])
    return params


def derived_seed(workload, seed, pass_index, op_index):
    """31-bit config seed for one operation of one pass."""
    msg = f"{workload}:{seed}:{pass_index}:{op_index}".encode()
    return int.from_bytes(hashlib.blake2b(msg, digest_size=8).digest(), "big") >> 33


def config_text(op, params, seed, workers, out_dir):
    lines = ["[experiment]", f"kind = {op['kind']}"]
    lines += [f"{k} = {v}" for k, v in params.items()]
    lines += [f"seed = {seed}", f"workers = {workers}", ""]
    for section in ("profile", "offspring"):
        if op[section]:
            lines.append(f"[{section}]")
            lines += [f"{k} = {v}" for k, v in op[section].items()]
            lines.append("")
    lines += ["[output]", f"dir = {out_dir}", ""]
    return "\n".join(lines)


def write_configs(workload, seed, n_passes, workers, size, work_dir):
    """Write the INI configs of ``n_passes`` passes under ``work_dir``;
    returns one list of config paths per pass, in operation order."""
    spec = WORKLOADS[workload]
    cfg_dir = os.path.join(work_dir, "configs")
    os.makedirs(cfg_dir, exist_ok=True)
    passes = []
    for p in range(n_passes):
        paths = []
        for j, op in enumerate(spec["ops"]):
            out_dir = os.path.join(work_dir, "out", op["name"])
            text = config_text(
                op, op_params(op, size), derived_seed(workload, seed, p, j), workers, out_dir
            )
            path = os.path.join(cfg_dir, f"p{p:02d}-{op['name']}.ini")
            with open(path, "w") as fh:
                fh.write(text)
            paths.append(path)
        passes.append(paths)
    return passes


# ---------------------------------------------------------------------------
# output checks: each reuses an acceptance criterion's rule


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def fkpp_key(offspring, t_end, dx):
    law = "binary" if not offspring else f"ks={offspring['ks']};ps={offspring['ps']}"
    return f"{law}|t_end={float(t_end)}|dx={float(dx)}"


def _check_simulate(op, params, report, out_dir, ref):
    k = ref["tolerances"]["simulate_k_se"]
    with open(os.path.join(out_dir, "summaries.csv")) as fh:
        n = [int(row["n_leaves"]) for row in csv.DictReader(fh)]
    mean = math.fsum(n) / len(n)
    sd = math.sqrt(math.fsum((x - mean) ** 2 for x in n) / (len(n) - 1))
    se = sd / math.sqrt(len(n))
    dev = abs(mean - math.exp(float(params["t"]))) / se
    ok = dev <= k and abs(mean - report["mean_n_leaves"]) <= 1e-9 * mean
    return ok, f"mean n_leaves {mean:.2f} is {dev:.2f} SE from e^t (limit {k})"


def _check_martingale(op, params, report, out_dir, ref):
    k = ref["tolerances"]["martingale_k_se"]
    dev = report["deviation_in_se"]
    return dev <= k, f"deviation {dev:.2f} SE (limit {k})"


def _check_compare(op, params, report, out_dir, ref):
    need = ref["tolerances"]["compare_min_pass"]
    ok = report["n_cells"] == 15 and report["n_pass"] >= need
    return ok, f"sandwich holds in {report['n_pass']}/{report['n_cells']} cells (need {need})"


def _check_cluster(op, params, report, out_dir, ref):
    band_se = ref["tolerances"]["cluster_band_se"]
    rows = report["rows"]
    ok = all(
        b["estimate"] <= a["estimate"] + band_se * math.hypot(a["std_error"], b["std_error"])
        for a, b in zip(rows, rows[1:])
    )
    ests = ", ".join(f"{r['estimate']:.3f}" for r in rows)
    return ok, f"estimates {ests} non-increasing within {band_se} SE"


def _check_tube(op, params, report, out_dir, ref):
    k = ref["tolerances"]["tube_k_se"]
    ok = report["rate"] <= report["series_bound"] + k * report["std_error"]
    return ok, f"rate {report['rate']:.4f} vs bound {report['series_bound']:.4f} + {k} SE"


def _check_fkpp(op, params, report, out_dir, ref):
    tol = ref["tolerances"]
    key = fkpp_key(op["offspring"], params["t_end"], params["dx"])
    expect = ref["fkpp"].get(key)
    if expect is None:
        return False, f"no reference front for {key}"
    diff = abs(report["front"] - expect["front"])
    ok = diff <= tol["fkpp_front_abs"]
    detail = f"front {report['front']:.9f} vs reference {expect['front']:.9f}"
    for se_val, est in expect.get("tail_constants", {}).items():
        got = report["tail_constants"][se_val]["estimate"]
        ok = ok and abs(got - est) <= tol["fkpp_tail_rel"] * abs(est)
        detail += f"; tail({se_val}) {got:.9g} vs {est:.9g}"
    return ok, detail


CHECKS = {
    "simulate": _check_simulate,
    "martingale": _check_martingale,
    "compare": _check_compare,
    "cluster": _check_cluster,
    "tube": _check_tube,
    "fkpp": _check_fkpp,
}


def check_output(op, params, report, out_dir, ref):
    """(ok, detail) for one operation's output."""
    return CHECKS[op["kind"]](op, params, report, out_dir, ref)


def front_offsets(out_dir, times=(12.5, 25.0, 50.0)):
    """front(t) - m(t) read from front.csv, with m(t) = sqrt2 t - 3/(2 sqrt2)
    log t, linearly interpolated between tracked times; 0 where t lies
    beyond the track."""
    with open(os.path.join(out_dir, "front.csv")) as fh:
        track = [(float(r["t"]), float(r["front"])) for r in csv.DictReader(fh)]
    out = {}
    for t in times:
        value = 0.0
        for (t0, f0), (t1, f1) in zip(track, track[1:]):
            if t0 <= t <= t1 + 1e-9:
                front = f0 + (f1 - f0) * (min(t, t1) - t0) / (t1 - t0)
                value = front - (math.sqrt(2.0) * t - 3.0 / (2.0 * math.sqrt(2.0)) * math.log(t))
                break
        out[t] = value
    return out
