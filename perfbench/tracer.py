"""Outside-in tracing of fashsim's layers.

``install()`` replaces the public entry points of fashsim's modules with
wrappers that record spans in memory; the program's own code is never
edited. Each span keeps its name, its parent, ``perf_counter`` and
``thread_time`` at both ends, and a few counts. Functions called ~10^5
times per operation (the per-event commit, the metrics helpers) are
tallied as a call count and a total time on the enclosing span instead of
one span each, which keeps the trace small and its overhead low.

Every binding of a wrapped function in every fashsim module is replaced,
found by identity, because modules import each other's names with
``from .x import y``. Modules are reached through ``sys.modules``:
``import fashsim.sweep`` yields the *function* ``sweep``, which the package
re-exports under the module's name.

Spans opened in an ensemble worker thread take the span that submitted the
work (``engine.run_ensemble``) as their parent. Self time is a span's
duration minus the union of its children's intervals (children overlap
when jobs > 1) minus its tallied time.
"""

import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional

perf_counter = time.perf_counter
thread_time = time.thread_time

_MODULES = ("graph", "model", "kernel", "engine", "sweep", "metrics", "cli")

# Per-layer metrics, each with its unit and the end-to-end metric and
# workload it should move. BENCHMARK.json's per_layer list mirrors this.
LAYER_METRICS = (
    ("model.apply_consumption.s", "s",
     "wall_s on optimize-paper and ensemble-large; ~0 on catalog-wide"),
    ("model.apply_consumption.calls", "count", "same as model.apply_consumption.s"),
    ("engine.step.self_s", "s",
     "wall_s on catalog-wide (penalty loop) and optimize-paper"),
    ("kernel.decide.s", "s", "wall_s on catalog-wide, then ensemble-large"),
    ("kernel.decide.calls", "count", "same as kernel.decide.s"),
    ("kernel.decide.cells", "count", "same as kernel.decide.s"),
    ("kernel.decide.ns_per_cell", "ns", "same as kernel.decide.s"),
    ("kernel.decide.bytes_computed", "B", "same as kernel.decide.s"),
    ("graph.build.s", "s", "wall_s on ensemble-large; ~0 on catalog-wide"),
    ("graph.build.calls", "count", "same as graph.build.s"),
    ("graph.edges", "count", "same as graph.build.s"),
    ("engine.run.wait_s", "s",
     "~0 while every workload runs at jobs=1; grows if threads contend"),
    ("engine.run_ensemble.self_s", "s", "wall_s and peak_rss_mib on optimize-paper"),
    ("engine.run.self_s", "s", "wall_s and peak_rss_mib on optimize-paper"),
    ("engine.init_market.self_s", "s", "wall_s and peak_rss_mib on optimize-paper"),
    ("engine.introduce_items.s", "s", "wall_s on catalog-wide"),
    ("engine.introductions", "count", "same as engine.introduce_items.s"),
    ("metrics.s", "s", "wall_s and peak_rss_mib on catalog-wide"),
    ("metrics.calls", "count", "same as metrics.s"),
    ("cli.main.self_s", "s", "wall_s and peak_rss_mib on catalog-wide"),
    ("cli.rows_written", "count", "same as cli.main.self_s"),
    ("cli.bytes_written", "B", "same as cli.main.self_s"),
    ("sweep.sweep.self_s", "s", "guard only: ~0 everywhere"),
    ("sweep.optimize_advertisement.self_s", "s", "guard only: ~0 everywhere"),
    ("engine.runs", "count", "exact per seed: a change moves it only if results changed"),
    ("engine.rounds", "count", "exact per seed: a change moves it only if results changed"),
    ("engine.events", "count", "exact per seed: a change moves it only if results changed"),
    ("engine.abstentions", "count", "exact per seed: a change moves it only if results changed"),
    ("trace.overhead_s", "s", "none: traced minus untraced median wall_s"),
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "cpu_start", "cpu_end",
                 "tally", "counts")

    def __init__(self, name: str, parent: Optional["Span"]):
        self.name = name
        self.parent = parent
        self.tally: Dict[str, List[float]] = {}   # name -> [calls, seconds]
        self.counts: Dict[str, int] = {}
        self.cpu_start = thread_time()
        self.start = perf_counter()
        self.end = self.start
        self.cpu_end = self.cpu_start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of the current operation, kept in memory until ``reset``."""

    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()

    def reset(self) -> None:
        self.spans = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, fn: Callable, count: Callable = None) -> Callable:
        """Wrap fn so that each call records one span named name.

        count(span, args, result) may add counts to the span.
        """
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            sp = Span(name, stack[-1] if stack else None)
            stack.append(sp)
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = perf_counter()
                sp.cpu_end = thread_time()
                stack.pop()
                recorder.spans.append(sp)
            if count is not None:
                count(sp, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def tally(self, name: str, fn: Callable) -> Callable:
        """Wrap fn so that calls add to a count and time on the open span."""
        recorder = self

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack = recorder._stack()
                if stack:
                    slot = stack[-1].tally.setdefault(name, [0, 0.0])
                    slot[0] += 1
                    slot[1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def adopt(self, parent: Optional[Span], fn: Callable, *args, **kwargs):
        """Run fn in this thread with parent as the enclosing span."""
        saved = getattr(self._local, "stack", None)
        self._local.stack = [parent] if parent is not None else []
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.stack = saved


def _rebind(old, new) -> None:
    """Point every fashsim module attribute bound to old at new."""
    for modname, module in list(sys.modules.items()):
        if modname != "fashsim" and not modname.startswith("fashsim."):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def _count_decide(sp: Span, args, _result) -> None:
    liking, tolerance = args[0], args[1]
    n, m = tolerance.shape[0], int(args[9])
    sp.counts["cells"] = n * m
    # liking, nbr_counts and consumed are read per cell; tolerance, degrees
    # and the output per agent; advertisement and penalty per item.
    sp.counts["bytes"] = (n * m * (liking.itemsize + args[4].itemsize + args[6].itemsize)
                          + n * (tolerance.itemsize + args[5].itemsize + args[12].itemsize)
                          + m * (args[2].itemsize + args[3].itemsize))


def _count_step(sp: Span, args, events) -> None:
    sp.counts["events"] = len(events)
    sp.counts["abstentions"] = args[0].n_agents - len(events)


def _count_introduced(sp: Span, _args, ids) -> None:
    sp.counts["introduced"] = len(ids)


def _count_edges(sp: Span, _args, graph) -> None:
    sp.counts["edges"] = graph.edge_count


def install() -> Recorder:
    """Wrap fashsim's layer entry points; returns the recorder they feed."""
    mods = {name: sys.modules["fashsim." + name] for name in _MODULES}
    engine, graph, model = mods["engine"], mods["graph"], mods["model"]
    rec = Recorder()

    def wrap_function(module, attr, wrapper_of):
        old = getattr(module, attr)
        _rebind(old, wrapper_of(old))

    wrap_function(mods["kernel"], "decide_round",
                  lambda f: rec.span("kernel.decide", f, _count_decide))
    for attr in ("init_market", "run", "run_ensemble"):
        wrap_function(engine, attr, lambda f, a=attr: rec.span("engine." + a, f))
    wrap_function(engine, "step", lambda f: rec.span("engine.step", f, _count_step))
    wrap_function(engine, "introduce_items",
                  lambda f: rec.span("engine.introduce_items", f, _count_introduced))
    for attr in ("sweep", "optimize_advertisement"):
        wrap_function(mods["sweep"], attr, lambda f, a=attr: rec.span("sweep." + a, f))
    for attr in ("gini", "quality_share_correlation", "share_series",
                 "rate_series", "peak_stats"):
        wrap_function(mods["metrics"], attr, lambda f: rec.tally("metrics", f))
    wrap_function(mods["cli"], "main", lambda f: rec.span("cli.main", f))

    graph.TopologySpec.build = rec.span("graph.build", graph.TopologySpec.build,
                                        _count_edges)
    model.MarketState.apply_consumption = rec.tally(
        "model.apply_consumption", model.MarketState.apply_consumption)

    class ParentingPool(ThreadPoolExecutor):
        """Thread pool whose tasks inherit the submitting thread's span."""

        def submit(self, fn, /, *args, **kwargs):
            return super().submit(rec.adopt, rec.current(), fn, *args, **kwargs)

    engine.ThreadPoolExecutor = ParentingPool
    return rec


def _union(intervals) -> float:
    total, reach = 0.0, None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """id(span) -> duration minus its children's union and its tallies."""
    children: Dict[int, List[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(id(sp.parent), []).append(sp)
    result = {}
    for sp in spans:
        kids = [(max(c.start, sp.start), min(c.end, sp.end))
                for c in children.get(id(sp), ())]
        covered = _union([k for k in kids if k[1] > k[0]])
        tallied = sum(s for _, s in sp.tally.values())
        result[id(sp)] = sp.duration - covered - tallied
    return result


def operation_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics of one operation (one cli.main root span).

    cli.rows_written, cli.bytes_written and trace.overhead_s are filled in
    by the caller, which sees the output files and the untraced run.
    """
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    tallies: Dict[str, List[float]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
        for name, (calls, secs) in sp.tally.items():
            slot = tallies.setdefault(name, [0, 0.0])
            slot[0] += calls
            slot[1] += secs

    def total(name):
        return sum(sp.duration for sp in by_name.get(name, ()))

    def self_s(name):
        return sum(selfs[id(sp)] for sp in by_name.get(name, ()))

    def counted(name, key):
        return sum(sp.counts.get(key, 0) for sp in by_name.get(name, ()))

    cells = counted("kernel.decide", "cells")
    commit = tallies.get("model.apply_consumption", [0, 0.0])
    metrics = tallies.get("metrics", [0, 0.0])
    return {
        "model.apply_consumption.s": commit[1],
        "model.apply_consumption.calls": commit[0],
        "engine.step.self_s": self_s("engine.step"),
        "kernel.decide.s": total("kernel.decide"),
        "kernel.decide.calls": len(by_name.get("kernel.decide", ())),
        "kernel.decide.cells": cells,
        "kernel.decide.ns_per_cell": total("kernel.decide") / cells * 1e9 if cells else 0.0,
        "kernel.decide.bytes_computed": counted("kernel.decide", "bytes"),
        "graph.build.s": total("graph.build"),
        "graph.build.calls": len(by_name.get("graph.build", ())),
        "graph.edges": counted("graph.build", "edges"),
        "engine.run.wait_s": sum(sp.duration - (sp.cpu_end - sp.cpu_start)
                                 for sp in by_name.get("engine.run", ())),
        "engine.run_ensemble.self_s": self_s("engine.run_ensemble"),
        "engine.run.self_s": self_s("engine.run"),
        "engine.init_market.self_s": self_s("engine.init_market"),
        "engine.introduce_items.s": total("engine.introduce_items"),
        "engine.introductions": counted("engine.introduce_items", "introduced"),
        "metrics.s": metrics[1],
        "metrics.calls": metrics[0],
        "cli.main.self_s": self_s("cli.main"),
        "sweep.sweep.self_s": self_s("sweep.sweep"),
        "sweep.optimize_advertisement.self_s": self_s("sweep.optimize_advertisement"),
        "engine.runs": len(by_name.get("engine.run", ())),
        "engine.rounds": len(by_name.get("engine.step", ())),
        "engine.events": counted("engine.step", "events"),
        "engine.abstentions": counted("engine.step", "abstentions"),
        # Not a published metric: self times plus tallies over root wall.
        "accounted": (sum(selfs.values()) + sum(s for _, s in tallies.values()))
        / max(total("cli.main"), 1e-12),
    }


def median_metrics(per_op: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(op[k] for op in per_op) for k in per_op[0]}
