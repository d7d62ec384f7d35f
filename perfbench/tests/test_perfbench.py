"""Tests of the benchmark itself: run with

    python3 -m pytest perfbench/tests
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code():
    b = bench_json()
    assert [w["name"] for w in b["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in b["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in b["per_layer"]} == run.PER_LAYER
    for m in b["end_to_end"] + b["per_layer"] + b["workloads"]:
        assert NAME_RE.match(m["name"]), m["name"]
    setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in b["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(workload, trace):
    result = run.run_benchmark(workload, seed=3, seconds=0.0, trace=trace, size="tiny", probes=1)
    summary = result["summary"]
    assert summary["correct"], "\n".join(result["lines"])
    assert summary["attempted"] >= len(workloads.WORKLOADS[workload]["ops"])
    assert summary["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {n: m["unit"] for n, m in summary["metrics"].items()} == expected
    for name, m in summary["metrics"].items():
        assert NAME_RE.match(name)
        assert isinstance(m["value"], float) and math.isfinite(m["value"])
        assert any(line.startswith(f"{name} = ") for line in result["lines"])
    if not trace:
        for name in ("setup_s", "wall_s", "peak_rss_mb"):
            assert summary["metrics"][name]["value"] > 0
        assert any(line.startswith("failed_frac = ") for line in result["lines"])
    else:
        assert summary["metrics"]["trace.spans"]["value"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pde", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["leaf", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["b", 9.0, 9.5, 0, 0],
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([2.5, 2.0, 1.0, 4.0, 0.5])
    assert sum(own) == pytest.approx(spans[0][2] - spans[0][1])
    stats = tracing.function_stats(spans)
    assert stats["b"]["calls"] == 2
    assert stats["b"]["self_s"] == pytest.approx(4.5)
    assert stats["root"]["self_s"] == pytest.approx(2.5)


def test_traced_call_cost_is_positive_and_small():
    cost = tracing.traced_call_cost(rounds=3, calls=2000)
    assert 0.0 < cost < 1e-4


def test_tail_is_the_highest_percentile_with_ten_calls_beyond():
    assert tracing.tail(list(range(19))) == (0.0, 0.0)
    assert tracing.tail(list(range(20))) == (50.0, 9)
    assert tracing.tail(list(range(100))) == (90.0, 89)
    assert tracing.tail(list(range(1000))) == (99.0, 989)


def test_trace_wrappers_restore_every_attribute():
    import importlib

    from vsbbm.genealogy import OffspringDistribution

    modules = {layer: importlib.import_module(f"vsbbm.{layer}") for layer in tracing.LAYERS}
    before = {(layer, k): v for layer, m in modules.items() for k, v in vars(m).items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runner, sampler = modules["runner"], modules["sampler"]
        assert runner.sample_tree is not before[("runner", "sample_tree")]
        assert sampler.sigma2 is not before[("sampler", "sigma2")]
        tree = runner.sample_tree(OffspringDistribution.binary(), 2.0, seed=1)
        assert tracer.counters["genealogy.nodes"] == tree.n_nodes
        assert [s[0] for s in tracer.spans] == ["genealogy.sample_tree"]
    finally:
        assert tracer.uninstall()
    after = {(layer, k): v for layer, m in modules.items() for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_alloc_probe_measures_the_arrays_a_call_allocates():
    import importlib

    runner = importlib.import_module("vsbbm.runner")
    orig = runner.tube_mod.empirical_bridge_violation
    probe = tracing.AllocProbe()
    probe.install()
    try:
        measured = []
        for reps in (200, 800):
            before = probe.counters["tube.bytes_computed"]
            runner.tube_mod.empirical_bridge_violation(30.0, 10.0, 0.75, reps, 1)
            measured.append(probe.counters["tube.bytes_computed"] - before)
    finally:
        assert probe.uninstall()
    assert runner.tube_mod.empirical_bridge_violation is orig
    # at least the float64 bridge array of reps x 513 points is alive at once
    assert measured[0] >= 8 * 200 * 513
    assert 3.0 < measured[1] / measured[0] < 5.0


def test_configs_follow_the_seed(tmp_path):
    def texts(seed, sub):
        paths = workloads.write_configs("mc-small", seed, 2, 2, "full", str(tmp_path / sub))
        return [open(p).read().replace(str(tmp_path / sub), "") for ps in paths for p in ps]

    first = texts(5, "a")
    assert first == texts(5, "b")
    assert first != texts(6, "c")
    seeds = [line for text in first for line in text.splitlines() if line.startswith("seed =")]
    assert len(set(seeds)) == len(seeds)


def test_checks_reject_wrong_output():
    ref = workloads.load_reference()
    ops = {op["name"]: op for w in workloads.WORKLOADS.values() for op in w["ops"]}
    fkpp = ops["fkpp_binary"]
    params = workloads.op_params(fkpp, "full")
    key = workloads.fkpp_key(None, params["t_end"], params["dx"])
    good = {"front": ref["fkpp"][key]["front"]}
    assert workloads.check_output(fkpp, params, good, None, ref)[0]
    assert not workloads.check_output(fkpp, params, {"front": good["front"] + 1e-3}, None, ref)[0]
    rows = [
        {"estimate": 0.5, "std_error": 0.01},
        {"estimate": 0.6, "std_error": 0.01},
    ]
    cluster = ops["cluster"]
    assert not workloads.check_output(cluster, {}, {"rows": rows}, None, ref)[0]
    assert workloads.check_output(cluster, {}, {"rows": rows[::-1]}, None, ref)[0]
    compare = ops["compare"]
    assert not workloads.check_output(compare, {}, {"n_cells": 15, "n_pass": 13}, None, ref)[0]
