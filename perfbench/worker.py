"""Workload process of the vsbbm benchmark; started by run.py in a fresh
interpreter, one per set-up probe and one per measured run.

    python3 perfbench/worker.py setup SPEC.json
    python3 perfbench/worker.py measure SPEC.json END_AT

``setup`` imports ``vsbbm.runner``, loads the first pass's configs, prints
one JSON line and exits.  ``measure`` then runs passes through
``vsbbm.runner.run`` until the ``time.monotonic`` reading END_AT (or,
traced, the fixed passes of ``measure_traced``) and writes a result file.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import resource
import shutil
import sys
import time

from tracing import (
    ALLOC_PROBED,
    AllocProbe,
    Tracer,
    layer_metrics,
    self_times,
    traced_call_cost,
)
from workloads import WORKLOADS, check_output, front_offsets, load_reference, op_params


def _dir_bytes(path):
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


class SpeedProbe:
    """Fixed kernel timed around every operation and every set-up, so that
    run.py can scale times to a reference machine speed.  Its mix follows
    the workloads: small-array numpy stepping, an interpreter loop, and a
    sort over a larger array.  It calls nothing in the program."""

    def __init__(self):
        import numpy

        self._np = numpy
        rng = numpy.random.default_rng(0)
        self._u = rng.random(3000)
        self._x = rng.standard_normal(50_000)

    def _kernel(self):
        np = self._np
        u = self._u.copy()
        for _ in range(100):
            lap = u[2:] - 2.0 * u[1:-1] + u[:-2]
            u[1:-1] += 1e-3 * (lap - np.expm1(np.log1p(-0.5 * u[1:-1])))
        items = []
        for k in range(30_000):
            items.append(k * 0.5)
        np.cumsum(np.sort(self._x))

    def __call__(self):
        """Median of three kernel times, in seconds."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        return sorted(times)[1]


def run_pass(runner, ops, cfgs, size, ref, probe, tracer=None):
    """Run every operation once; returns one record per operation.  Only
    ``runner.run`` is timed; clearing the output directory, the speed probe
    and checking the output happen outside the timed region.  An
    operation's ``probe_s`` is the mean of the probes just before and just
    after it."""
    records = []
    speed = probe()
    for j, (op, cfg) in enumerate(zip(ops, cfgs)):
        params = op_params(op, size)
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        if tracer is not None:
            tracer.run_id = j
        report, error = None, None
        start = time.perf_counter()
        try:
            report = runner.run(cfg)
        except Exception as exc:  # a raising run is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.run_id = None
        speed_before, speed = speed, probe()
        if error is None:
            try:
                ok, detail = check_output(op, params, report, cfg.out_dir, ref)
            except (KeyError, ValueError, OSError, ZeroDivisionError) as exc:
                ok, detail = False, f"check could not read the output: {type(exc).__name__}: {exc}"
        else:
            ok, detail = False, error
        rec = {
            "op": op["name"],
            "kind": op["kind"],
            "wall_s": wall,
            "probe_s": (speed_before + speed) / 2.0,
            "ok": bool(ok),
            "detail": detail,
            "artifact_bytes": _dir_bytes(cfg.out_dir),
        }
        if ok and op["kind"] == "fkpp" and not op["offspring"]:
            rec["front_offsets"] = {str(t): v for t, v in front_offsets(cfg.out_dir).items()}
        records.append(rec)
    return records


def _trace_consistency(tracer, records):
    """Per operation: the runner.run span's self times summed over its
    spans equal the span's duration, and the part of the operation's wall
    time that no span covers."""
    own = self_times(tracer.spans)
    uncovered, worst = 0.0, 0.0
    for j, rec in enumerate(records):
        idx = [i for i, s in enumerate(tracer.spans) if s[4] == j]
        top = [i for i in idx if tracer.spans[i][0] == "runner.run"]
        if len(top) != 1:
            return float("inf"), float("inf")
        span = tracer.spans[top[0]]
        covered = span[2] - span[1]
        worst = max(worst, abs(sum(own[i] for i in idx) - covered))
        uncovered += rec["wall_s"] - covered
    return uncovered, worst


def _versions():
    import numpy
    import scipy

    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def measure_traced(spec, runner, cfgs0, ops, ref, probe):
    """Passes of a traced run, each role once: a tiny warm-up that takes
    the first-call costs, the traced pass, then the allocation probe on
    the operations that call a probed function."""
    warm = [runner.load_config(p) for p in spec["warmup_configs"]]
    passes = {"warmup": run_pass(runner, ops, warm, "tiny", ref, probe)}
    size = spec["size"]
    tracer = Tracer()
    tracer.install()
    patched = len(tracer.patched)
    try:
        tracer.run_id = "load"
        cfgs = [runner.load_config(p) for p in spec["configs"][0]]
        traced = run_pass(runner, ops, cfgs, size, ref, probe, tracer)
    finally:
        restored = tracer.uninstall()
    passes["traced"] = traced

    probed_fns = {f"{layer}.{attr}" for layer, attr, _ in ALLOC_PROBED}
    touched = sorted({s[4] for s in tracer.spans if s[0] in probed_fns})
    alloc = AllocProbe()
    alloc.install()
    try:
        passes["alloc"] = run_pass(
            runner, [ops[j] for j in touched], [cfgs0[j] for j in touched], size, ref, probe
        )
    finally:
        restored = alloc.uninstall() and restored

    uncovered, worst = _trace_consistency(tracer, traced)
    metrics = layer_metrics(tracer.spans, tracer.counters)
    metrics.update(alloc.counters)
    # traced over untraced wall time, minus 1, with the untraced time taken
    # as the traced time less the spans' measured cost: timing an untraced
    # pass as well gives a ratio that the host's speed drift swamps
    call_cost = traced_call_cost()
    added = call_cost * len(tracer.spans)
    metrics["trace.overhead_frac"] = added / (sum(r["wall_s"] for r in traced) - added)
    metrics["trace.uncovered_s"] = uncovered
    metrics["runner.artifact_bytes"] = sum(r["artifact_bytes"] for r in traced)
    with open(os.path.join(spec["work_dir"], "spans.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "start", "end", "parent", "run_id"])
        w.writerows(tracer.spans)
    return {
        "passes": list(passes.values()),
        "roles": list(passes),
        "patched": patched,
        "restored": restored,
        "self_time_mismatch_s": worst,
        "traced_call_cost_s": call_cost,
        "layer_metrics": metrics,
    }


def measure(spec, runner, cfgs0, end_at):
    """Untraced, passes run while the last one still fits before
    ``end_at`` (a ``time.monotonic`` reading); traced, see
    ``measure_traced``."""
    ops = WORKLOADS[spec["workload"]]["ops"]
    ref = load_reference()
    probe = SpeedProbe()
    if spec["trace"]:
        result = measure_traced(spec, runner, cfgs0, ops, ref, probe)
    else:
        result = {"passes": []}
        for p, paths in enumerate(spec["configs"]):
            cfgs = cfgs0 if p == 0 else [runner.load_config(x) for x in paths]
            t0 = time.monotonic()
            result["passes"].append(run_pass(runner, ops, cfgs, spec["size"], ref, probe))
            if time.monotonic() + (time.monotonic() - t0) > end_at:
                break
        result["roles"] = ["untraced"] * len(result["passes"])
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["self_rss_mb"] = self_kb / 1024.0
    result["child_rss_mb"] = child_kb / 1024.0
    result["versions"] = _versions()
    return result


def main(argv):
    mode, spec_path = argv[:2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    import vsbbm.runner as runner

    import_s = time.perf_counter() - t0
    cfgs0 = [runner.load_config(p) for p in spec["configs"][0]]
    if mode == "setup":
        ready_at = time.monotonic()  # system-wide clock, compared with the parent's
        probe_s = SpeedProbe()()
        print(json.dumps({"ready_at": ready_at, "import_s": import_s, "probe_s": probe_s}))
        return 0
    result = measure(spec, runner, cfgs0, float(argv[2]))
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
