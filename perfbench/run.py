"""The vsbbm benchmark: time to a checked solution, set-up time and peak
memory of fixed Monte Carlo and PDE workloads, plus an outside-in layer
trace.

    python3 perfbench/run.py --workload mc-small --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each run generates the workload's INI
configs from the seed under ``.perfbench/``, measures set-up in fresh
interpreters, then runs the workload in one more fresh interpreter
(perfbench/worker.py) through ``vsbbm.runner.load_config`` and
``vsbbm.runner.run``, checking every operation's output.  Untraced, the
set-up probes and the measured passes together take ``--seconds``.
Times are scaled to a reference machine speed by a fixed kernel timed
around every operation and set-up (see ``PROBE_REF_S``).  It prints each
metric by name with its unit, an environment record, and as its last line
one JSON object.  With ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones of a traced pass at one worker.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, write_configs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# config passes written per untraced run; the time budget stops earlier
MAX_PASSES = 12
SETUP_PROBES = 4
RUN_DEADLINE_S = 170.0
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# worker.SpeedProbe's time on the reference host: times are reported as
# measured time x PROBE_REF_S / probe time, i.e. at the reference speed
PROBE_REF_S = 0.006

_TAILED = {"calls": "count", "self_s": "s", "p50_us": "us", "tail_us": "us", "tail_pct": "%"}
_COUNTED = {"calls": "count", "self_s": "s"}


def _fn(prefix, keys):
    return {f"{prefix}.{k}": keys[k] for k in keys}


PER_LAYER = {
    **_fn("genealogy.sample_tree", _TAILED),
    "genealogy.nodes": "count",
    "genealogy.waves": "count",
    "genealogy.us_per_wave": "us",
    "genealogy.us_per_node": "us",
    "genealogy.max_tree_nodes": "count",
    **_fn("sampler.sample_leaf_positions", _TAILED),
    "sampler.nodes": "count",
    "sampler.ns_per_node": "ns",
    "sampler.bytes_computed": "B",
    **_fn("speed.sigma2", _COUNTED),
    **_fn("speed.build_envelopes", _COUNTED),
    **_fn("extremal.summarize", _COUNTED),
    **_fn("extremal.mckean_martingale", _TAILED),
    **_fn("compare.collect_exceedances", _COUNTED),
    "compare.sandwich_report.self_s": "s",
    "cluster.decoration_collapse_study.self_s": "s",
    **_fn("cluster.spine_sample", _TAILED),
    "cluster.subtrees": "count",
    **_fn("cluster.collapse_bound", _COUNTED),
    **_fn("tube.empirical_bridge_violation", _COUNTED),
    "tube.bytes_computed": "B",
    "tube.bridge_violation_bound.self_s": "s",
    **_fn("fkpp.solve_heaviside", _COUNTED),
    **_fn("fkpp.reaction", _COUNTED),
    "fkpp.reaction_share": "ratio",
    "fkpp.us_per_step": "us",
    "fkpp.grid_points": "count",
    **_fn("fkpp.tail_constant", _COUNTED),
    "fkpp.front_offset.t12_5": "length",
    "fkpp.front_offset.t25": "length",
    "fkpp.front_offset.t50": "length",
    "runner.import_s": "s",
    "runner.load_config.self_s": "s",
    "runner.run.self_s": "s",
    "runner.artifact_bytes": "B",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_s": "s",
}


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _run_child(cmd, deadline, capture=False):
    """Run a child in its own session; kill the session at the deadline."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run deadline passed")
    with subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE if capture else None,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{cmd[2]} child overran the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{cmd[2]} child exited with code {proc.returncode}")
    return out


def git_commit():
    """Commit of the checkout read from .git, or None outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_benchmark(workload, seed, seconds, trace, size="full", probes=SETUP_PROBES):
    """Run one benchmark run; returns a dict with the printed lines, the
    final summary object and the full record."""
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    load_before = os.getloadavg()[0]
    spec = WORKLOADS[workload]
    work_dir = os.path.join(ROOT, ".perfbench", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    workers = 1 if trace else spec["workers"]
    configs = write_configs(workload, seed, 1 if trace else MAX_PASSES, workers, size, work_dir)
    worker_spec = {
        "workload": workload,
        "trace": trace,
        "size": size,
        "configs": configs,
        "warmup_configs": write_configs(
            workload, seed, 1, workers, "tiny", os.path.join(work_dir, "warmup")
        )[0] if trace else [],
        "work_dir": work_dir,
        "result_path": os.path.join(work_dir, "worker_result.json"),
    }
    spec_path = os.path.join(work_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(worker_spec, fh, indent=1)
    worker = [sys.executable, os.path.join(HERE, "worker.py")]

    setups, setups_raw, imports, probe_walls = [], [], [], []

    def probe_setup():
        start = time.monotonic()
        out = _run_child(worker + ["setup", spec_path], deadline, capture=True)
        probe_walls.append(time.monotonic() - start)
        probe = json.loads(out.strip().splitlines()[-1])
        setups_raw.append(probe["ready_at"] - start)
        setups.append(setups_raw[-1] * PROBE_REF_S / probe["probe_s"])
        imports.append(probe["import_s"])

    # set-up probes are split around the measured process so that their
    # median spans the whole run rather than one moment of the machine;
    # the measured process stops in time for the later ones to fit too
    for _ in range((probes + 1) // 2):
        probe_setup()
    end_at = started + seconds - (probes // 2) * statistics.median(probe_walls)
    _run_child(worker + ["measure", spec_path, repr(end_at)], deadline)
    for _ in range(probes // 2):
        probe_setup()
    with open(worker_spec["result_path"]) as fh:
        res = json.load(fh)

    records = [rec for p in res["passes"] for rec in p]
    timed = [p for p, role in zip(res["passes"], res["roles"]) if role == "untraced"]
    attempted = len(records)
    failed = sum(not rec["ok"] for rec in records)
    for rec in records:
        rec["ref_s"] = rec["wall_s"] * PROBE_REF_S / rec["probe_s"]
    pass_walls = [sum(r["ref_s"] for r in p) for p in timed]
    pass_walls_raw = [sum(r["wall_s"] for r in p) for p in timed]
    kinds = {}
    for kind in dict.fromkeys(op["kind"] for op in spec["ops"]) if timed else ():
        walls = [sum(r["ref_s"] for r in p if r["kind"] == kind) for p in timed]
        kinds[f"{kind}_s"] = statistics.median(walls)
    env = {
        **res["versions"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "load1_before": load_before,
        "load1_after": os.getloadavg()[0],
        "git_commit": git_commit(),
        "thread_pins": THREAD_PINS,
        "workers": workers,
    }
    correct = failed == 0
    lines = [
        f"# perfbench workload={workload} seed={seed} trace={int(trace)} size={size} "
        f"passes={','.join(res['roles'])} operations={attempted}"
    ]
    if trace:
        layer = dict(res["layer_metrics"])
        layer["runner.import_s"] = statistics.median(imports)
        traced = res["passes"][res["roles"].index("traced")]
        offsets = [r["front_offsets"] for r in traced if "front_offsets" in r]
        for t, name in (("12.5", "t12_5"), ("25.0", "t25"), ("50.0", "t50")):
            layer[f"fkpp.front_offset.{name}"] = offsets[0][t] if offsets else 0.0
        consistent = res["self_time_mismatch_s"] < 1e-6
        correct = correct and res["restored"] and consistent
        metrics = {n: {"value": float(layer.get(n, 0.0)), "unit": u} for n, u in PER_LAYER.items()}
        lines.append(
            f"# traced pass: {res['patched']} attributes patched, restored={res['restored']}, "
            f"self times sum to each runner.run span within "
            f"{res['self_time_mismatch_s']:.2e} s, uncovered {layer['trace.uncovered_s']:.6f} s"
        )
        lines.append(
            f"# a traced call costs {res['traced_call_cost_s'] * 1e6:.3f} us over a plain call; "
            f"run took {time.monotonic() - started:.1f} s"
        )
    else:
        e2e = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(pass_walls),
            "peak_rss_mb": res["self_rss_mb"] + res["child_rss_mb"],
        }
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END.items()}
        lines.append(
            f"# medians over {probes} set-ups and {len(pass_walls)} passes; "
            f"run took {time.monotonic() - started:.1f} s"
        )
        lines.append(f"setup_raw_s = {statistics.median(setups_raw):.6f} s (unscaled)")
        lines.append(f"wall_raw_s = {statistics.median(pass_walls_raw):.6f} s (unscaled)")
        probe_ms = statistics.median(r["probe_s"] for r in records) * 1e3
        lines.append(f"probe_ms = {probe_ms:.4f} ms (reference {PROBE_REF_S * 1e3:g} ms)")
        for name, value in kinds.items():
            lines.append(f"{name} = {value:.6f} s")
        lines.append(f"failed_frac = {failed / attempted:.6f} ratio ({failed} of {attempted} failed)")
    for name, m in metrics.items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
    for i, p in enumerate(res["passes"]):
        for rec in p:
            verdict = "PASS" if rec["ok"] else "FAIL"
            lines.append(f"# check pass{i} {res['roles'][i]} {rec['op']}: {verdict} ({rec['detail']})")
    lines.append("# env " + json.dumps(env, sort_keys=True))
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "size": size,
        "summary": summary,
        "kinds": kinds,
        "failed_frac": failed / attempted,
        "setup_s": statistics.median(setups),
        "setup_raw_s": statistics.median(setups_raw),
        "setups_s": setups,
        "setups_raw_s": setups_raw,
        "elapsed_s": time.monotonic() - started,
        "env": env,
        "roles": res["roles"],
        "passes": res["passes"],
    }
    if pass_walls:
        record.update({
            "wall_s": statistics.median(pass_walls),
            "wall_raw_s": statistics.median(pass_walls_raw),
            "pass_walls_s": pass_walls,
            "pass_walls_raw_s": pass_walls_raw,
        })
    with open(os.path.join(work_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return {"lines": lines, "summary": summary}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vsbbm", "runner.py")):
        print("perfbench: src/vsbbm is missing from this checkout", file=sys.stderr)
        return 2
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for line in result["lines"]:
        print(line)
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
