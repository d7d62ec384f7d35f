"""Measure the benchmark over many seeds and write the baseline record.

    python3 perfbench/baseline.py --out perfbench/baseline.json

It makes two separate sets of untraced runs, one after the other: in each
set every workload runs once per seed in ``SEEDS``, for ``run_seconds``
of BENCHMARK.json.  Then it makes one traced run per workload and seed in
``TRACED_SEEDS``.  For each set and each end-to-end metric, kind time and
unscaled set-up and wall time it records the median, the quartiles and
their spread as a share of the median, with the sample count.  For each
end-to-end metric it compares the second set's median with the first's
against the metric's bound.  It also records the median of every
per-layer metric over the traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from run import HERE, ROOT, cpu_model, git_commit
from workloads import WORKLOADS

SEEDS = tuple(range(1, 11))
TRACED_SEEDS = (1, 2)
SETS = ("a", "b")


def bench(workload, seed, seconds, trace):
    """One run.py run; returns (summary, full record, elapsed seconds)."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: {proc.stderr.strip()}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".perfbench", f"{workload}-seed{seed}-trace{trace}", "result.json")
    with open(path) as fh:
        record = json.load(fh)
    return summary, record, elapsed


def spread_stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "n": len(values),
        "values": values,
    }


def set_stats(runs):
    """Statistics of one set of untraced runs of one workload."""
    summaries = [s for s, _, _ in runs]
    records = [r for _, r, _ in runs]
    return {
        "run_elapsed_s": spread_stats([e for _, _, e in runs]),
        "end_to_end": {
            name: spread_stats([s["metrics"][name]["value"] for s in summaries])
            for name in summaries[0]["metrics"]
        },
        "kinds": {
            kind: spread_stats([r["kinds"][kind] for r in records]) for kind in records[0]["kinds"]
        },
        "unscaled": {
            name: spread_stats([r[name] for r in records]) for name in ("setup_raw_s", "wall_raw_s")
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    runs = {w: {} for w in WORKLOADS}
    for set_name in SETS:
        for workload in WORKLOADS:
            runs[workload][set_name] = []
            for seed in SEEDS:
                runs[workload][set_name].append(bench(workload, seed, seconds, 0))
                summary, _, elapsed = runs[workload][set_name][-1]
                values = {n: round(m["value"], 4) for n, m in summary["metrics"].items()}
                print(set_name, workload, seed, values, f"{elapsed:.1f}s", flush=True)
    traced = {w: [] for w in WORKLOADS}
    for workload in WORKLOADS:
        for seed in TRACED_SEEDS:
            traced[workload].append(bench(workload, seed, seconds, 1))
            print("traced", workload, seed, f"{traced[workload][-1][2]:.1f}s", flush=True)

    out = {
        "git_commit": git_commit(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "seeds": list(SEEDS),
        "traced_seeds": list(TRACED_SEEDS),
        "sets": list(SETS),
        "workloads": {},
    }
    for workload in WORKLOADS:
        all_runs = [run for s in SETS for run in runs[workload][s]] + traced[workload]
        sets = {s: set_stats(runs[workload][s]) for s in SETS}
        agreement = {}
        for name, m in metrics.items():
            first, second = (sets[s]["end_to_end"][name] for s in SETS)
            change = second["median"] / first["median"] - 1.0
            worse = change if m["better"] == "lower" else -change
            agreement[name] = {
                "change": change,
                "bound": m["bound"],
                "within_bound": worse <= m["bound"],
                "spreads": [first["spread"], second["spread"]],
                "spreads_below_third_of_bound": max(first["spread"], second["spread"]) < m["bound"] / 3,
            }
            print(f"{workload} {name}: medians {first['median']:.4g} {second['median']:.4g} "
                  f"change {change:+.4f} spreads {first['spread']:.4f} {second['spread']:.4f} "
                  f"(bound {m['bound']})", flush=True)
        tr = [s for s, _, _ in traced[workload]]
        out["workloads"][workload] = {
            "why": WORKLOADS[workload]["why"],
            "env": runs[workload][SETS[0]][0][1]["env"],
            "all_correct": all(s["correct"] for s, _, _ in all_runs),
            "attempted": sum(s["attempted"] for s, _, _ in all_runs),
            "failed": sum(s["failed"] for s, _, _ in all_runs),
            "sets": sets,
            "agreement": agreement,
            "traced_elapsed_s": [e for _, _, e in traced[workload]],
            "per_layer": {
                name: {
                    "median": statistics.median(s["metrics"][name]["value"] for s in tr),
                    "unit": tr[0]["metrics"][name]["unit"],
                }
                for name in tr[0]["metrics"]
            },
        }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
