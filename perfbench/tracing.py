"""Outside-in layer trace for the vsbbm benchmark.

The tracer wraps public functions of the package modules at the module
attributes their callers look up (``vsbbm.runner.sample_tree``,
``vsbbm.sampler.sigma2``, ...), records one span per call, and restores
every attribute on ``uninstall``.  Nothing inside the program changes.
Spans stay in memory; the caller writes them out when the run ends.
``AllocProbe`` patches the same way, on a pass of its own, and measures
the memory a few array-heavy functions allocate.

A span is ``[name, start, end, parent index, run id]``.  Calls run on one
thread, so child spans nest inside their parent and a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time
import tracemalloc
from collections import defaultdict

LAYERS = (
    "genealogy", "speed", "sampler", "extremal", "compare",
    "cluster", "tube", "fkpp", "runner",
)


def _count_tree(c, args, kwargs, tree):
    c["genealogy.nodes"] += tree.n_nodes
    c["genealogy.waves"] += len(tree.wave_starts) - 1
    c["genealogy.max_tree_nodes"] = max(c["genealogy.max_tree_nodes"], tree.n_nodes)


def _count_positions(c, args, kwargs, pos):
    tree = args[0] if args else kwargs["tree"]
    draws = 1 if pos.ndim == 1 else pos.shape[0]
    c["sampler.nodes"] += draws * tree.n_nodes


def _count_spine(c, args, kwargs, realization):
    c["cluster.subtrees"] += len(realization.subtree_configs)


def _count_solve(c, args, kwargs, result):
    state = result[0] if isinstance(result, tuple) else result
    c["fkpp.grid_points"] += len(state.x)


# (module, function, counter hook) wrapped in a traced run
TRACED = (
    ("genealogy", "sample_tree", _count_tree),
    ("sampler", "sample_leaf_positions", _count_positions),
    ("speed", "sigma2", None),
    ("speed", "build_envelopes", None),
    ("extremal", "summarize", None),
    ("extremal", "mckean_martingale", None),
    ("compare", "collect_exceedances", None),
    ("compare", "sandwich_report", None),
    ("cluster", "decoration_collapse_study", None),
    ("cluster", "spine_sample", _count_spine),
    ("cluster", "collapse_bound", None),
    ("tube", "empirical_bridge_violation", None),
    ("tube", "bridge_violation_bound", None),
    ("fkpp", "solve_heaviside", _count_solve),
    ("fkpp", "reaction", None),
    ("fkpp", "tail_constant", None),
    ("runner", "load_config", None),
    ("runner", "run", None),
)


# functions whose allocations AllocProbe measures, and the counter it feeds
ALLOC_PROBED = (
    ("sampler", "sample_leaf_positions", "sampler.bytes_computed"),
    ("tube", "empirical_bridge_violation", "tube.bytes_computed"),
)


def patch(targets, make_wrapper):
    """Replace every module attribute that refers to a target function
    ``(layer, attr, ...)`` by ``make_wrapper(target, original)``; returns
    the ``(module, attr, original)`` patches for ``restore``."""
    modules = [importlib.import_module(f"vsbbm.{layer}") for layer in LAYERS]
    patches = []
    for target in targets:
        layer, attr = target[:2]
        orig = getattr(importlib.import_module(f"vsbbm.{layer}"), attr)
        wrapper = make_wrapper(target, orig)
        for mod in modules:
            if mod.__dict__.get(attr) is orig:
                patches.append((mod, attr, orig))
                setattr(mod, attr, wrapper)
    return patches


def restore(patches) -> bool:
    """Undo ``patch``; True when every attribute is the original again."""
    for mod, attr, orig in reversed(patches):
        setattr(mod, attr, orig)
    return all(getattr(mod, attr) is orig for mod, attr, orig in patches)


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.run_id = None
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, hook=None):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch every module attribute that refers to a traced function."""
        self._patches = patch(
            TRACED, lambda target, orig: self.wrap(f"{target[0]}.{target[1]}", orig, target[2])
        )

    def uninstall(self) -> bool:
        """Restore every patched attribute; True when all are the originals."""
        patches, self._patches = self._patches, []
        return restore(patches)

    @property
    def patched(self):
        return [(mod.__name__, attr) for mod, attr, _ in self._patches]


def traced_call_cost(rounds=5, calls=20_000):
    """Seconds one traced call costs over a plain call: a no-op function
    is called plain and wrapped, in alternating rounds, and the median
    difference per call is returned.  Spans accumulate across rounds, as
    they do in a traced pass, so their memory and collection costs count
    too."""

    def noop(x):
        return x

    traced = Tracer().wrap("noop", noop)
    diffs = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for i in range(calls):
            noop(i)
        t1 = time.perf_counter()
        for i in range(calls):
            traced(i)
        t2 = time.perf_counter()
        diffs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(diffs)


class AllocProbe:
    """Measures, with ``tracemalloc``, the memory each call of an
    ``ALLOC_PROBED`` function allocates: the peak of memory traced from its
    entry to its return, numpy array buffers included.  Each counter sums
    that peak over the calls.  Tracing is on only inside the probed calls,
    and it slows them, so the probe runs on a pass whose times are not
    used."""

    def __init__(self):
        self.counters = defaultdict(float)
        self._patches = []

    def wrap(self, counter, fn):
        counters = self.counters

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                counters[counter] += tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

        return probed

    def install(self):
        self._patches = patch(ALLOC_PROBED, lambda target, orig: self.wrap(target[2], orig))

    def uninstall(self) -> bool:
        patches, self._patches = self._patches, []
        return restore(patches)


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


TAIL_LADDER = (99.999, 99.99, 99.9, 99.0, 90.0, 50.0)


def percentile(sorted_vals, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_vals)))
    return sorted_vals[rank - 1]


def tail(sorted_vals):
    """(pct, value) for the highest ladder percentile with at least ten
    calls beyond it, or (0, 0) when there are fewer than 20 calls."""
    n = len(sorted_vals)
    for pct in TAIL_LADDER:
        if n - max(1, math.ceil(pct / 100.0 * n)) >= 10:
            return pct, percentile(sorted_vals, pct)
    return 0.0, 0.0


def function_stats(spans):
    """name -> {calls, self_s, p50_us, tail_us, tail_pct}; p50 and tail are
    of whole-call durations."""
    own = self_times(spans)
    durations = defaultdict(list)
    self_sum = defaultdict(float)
    for span, s in zip(spans, own):
        durations[span[0]].append(span[2] - span[1])
        self_sum[span[0]] += s
    out = {}
    for name, durs in durations.items():
        durs.sort()
        pct, tail_val = tail(durs)
        out[name] = {
            "calls": len(durs),
            "self_s": self_sum[name],
            "p50_us": percentile(durs, 50.0) * 1e6,
            "tail_us": tail_val * 1e6,
            "tail_pct": pct,
        }
    return out


def layer_metrics(spans, counters):
    """Per-layer metrics derived from one traced pass.  Functions that did
    not run read 0."""
    stats = function_stats(spans)
    zero = {"calls": 0, "self_s": 0.0, "p50_us": 0.0, "tail_us": 0.0, "tail_pct": 0.0}
    m = {}
    for layer, attr, _ in TRACED:
        for key, value in stats.get(f"{layer}.{attr}", zero).items():
            m[f"{layer}.{attr}.{key}"] = value
    for key, value in counters.items():
        m[key] = value

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    tree_self = m["genealogy.sample_tree.self_s"]
    m["genealogy.us_per_wave"] = ratio(tree_self, m.get("genealogy.waves", 0), 1e6)
    m["genealogy.us_per_node"] = ratio(tree_self, m.get("genealogy.nodes", 0), 1e6)
    m["sampler.ns_per_node"] = ratio(
        m["sampler.sample_leaf_positions.self_s"], m.get("sampler.nodes", 0), 1e9
    )
    solver = m["fkpp.solve_heaviside.self_s"] + m["fkpp.reaction.self_s"]
    m["fkpp.reaction_share"] = ratio(m["fkpp.reaction.self_s"], solver)
    m["fkpp.us_per_step"] = ratio(solver, m["fkpp.reaction.calls"], 1e6)
    m["trace.spans"] = len(spans)
    return m
