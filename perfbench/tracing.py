"""Span recorder and per-call memory tracker for the benchmark's traced
and memory passes.

Both work from outside the program. For each target function the
recorder rebinds every name under which a ``hyperlp`` module holds that
function (a module global, a value in a module-level dict such as the
scorer table, or a class attribute) to a wrapper, so calls made through
any caller module are seen. A target whose module or attribute no longer
exists is reported as absent and skipped.

Targets come in two kinds:

* ``SPAN``: one span per call, with name, start, end, parent span,
  thread, and thread CPU time at both ends. A call on a worker thread
  with no open span of its own is parented to the root span (the CLI
  call), so the pool's work counts as the root's children.
* ``FOLD``: per-pair boundaries (hundreds of thousands of calls a run) are
  folded into a per-thread call count and total time, which is also
  charged to the span open on its thread, so that span's self time
  excludes it. The scorers are timed through ``score``, keyed by its
  scorer id, rather than wrapped a second time. A call that raises is
  not counted.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

SPAN = "span"
FOLD = "fold"

MB = 1024.0 * 1024.0


def _load_plain_counts(args, result):
    return {"hyperedges": len(result.hypergraph.hyperedges)}


def _clique_expand_counts(args, result):
    return {"edges": result.edge_count}


def _build_potential_counts(args, result):
    return {"candidates": result.total}


def _sample_hypergraph_counts(args, result):
    return {"kept": len(result.hyperedges), "attempted": args[0].total}


def _pairs_counts(args, result):
    return {"pairs": len(result.pairs), "negatives": result.n_neg}


def _adjusted_auc_counts(args, result):
    return {"runs_kept": result.n_runs, "runs_failed": len(result.failures)}


@dataclass(frozen=True)
class Target:
    """One wrapped function: metric prefix, defining module, attribute
    path inside it, kind, and an optional counter over (args, result)."""

    name: str
    module: str
    attr: str
    kind: str = SPAN
    counts: Callable | None = None
    keys: tuple[str, ...] = ()


TARGETS: tuple[Target, ...] = (
    Target("cli.main", "hyperlp.cli", "main"),
    Target("datasets.load_plain", "hyperlp.datasets", "load_plain", counts=_load_plain_counts),
    Target("hypergraph.clique_expand", "hyperlp.hypergraph", "clique_expand", counts=_clique_expand_counts),
    Target("hypergraph.without_edge", "hyperlp.hypergraph", "SimpleGraph.without_edge", FOLD),
    Target("latent.build_potential", "hyperlp.latent", "build_potential", counts=_build_potential_counts),
    Target("latent.sample_hypergraph", "hyperlp.latent", "sample_hypergraph", counts=_sample_hypergraph_counts),
    Target("latent.link_probability_map", "hyperlp.latent", "link_probability_map"),
    Target("heuristics.score", "hyperlp.heuristics", "score", FOLD,
           keys=tuple(f"heuristics.{s}" for s in ("cn", "aa", "ra", "pa", "jc", "sr"))),
    Target("heuristics.simrank_matrix", "hyperlp.heuristics", "simrank_matrix"),
    Target("evaluation.leave_one_out", "hyperlp.evaluation", "leave_one_out", counts=_pairs_counts),
    Target("evaluation.split_evaluate", "hyperlp.evaluation", "split_evaluate", counts=_pairs_counts),
    Target("evaluation.auc", "hyperlp.evaluation", "auc"),
    Target("evaluation.auc_conditional", "hyperlp.evaluation", "auc_conditional"),
    Target("evaluation.model_auc", "hyperlp.evaluation", "model_auc"),
    Target("evaluation.overestimation_scan", "hyperlp.evaluation", "overestimation_scan"),
    Target("relocation.adjusted_auc", "hyperlp.relocation", "adjusted_auc", counts=_adjusted_auc_counts),
    Target("relocation.relocate", "hyperlp.relocation", "relocate"),
    Target("relocation.evaluate_protocol", "hyperlp.relocation", "evaluate_protocol"),
)

# The memory pass wraps only the calls whose peak is reported.
MEMORY_TARGETS = ("latent.build_potential", "evaluation.leave_one_out", "evaluation.split_evaluate")


def _resolve(target: Target):
    """(owner, attribute name, function) for a target, or None if gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, leaf, None)
    return None if fn is None else (owner, leaf, fn)


def _rebind(owner, leaf: str, fn, wrapper) -> None:
    """Point every name the package holds for ``fn`` at ``wrapper``."""
    if isinstance(owner, type):
        setattr(owner, leaf, wrapper)
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "hyperlp" or mod_name.startswith("hyperlp.")):
            continue
        for name, value in list(vars(module).items()):
            if value is fn:
                setattr(module, name, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is fn:
                        value[key] = wrapper


def install(targets, make_wrapper) -> list[str]:
    """Wrap every resolvable target; return the names of absent ones."""
    absent = []
    for target in targets:
        found = _resolve(target)
        if found is None:
            absent += [target.name, *target.keys]
            continue
        owner, leaf, fn = found
        _rebind(owner, leaf, fn, make_wrapper(target, fn))
    return absent


@dataclass
class Span:
    name: str
    id: int
    parent: int | None
    thread: int
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    folded_s: float = 0.0
    counts: dict = field(default_factory=dict)
    error: str | None = None

    def as_row(self) -> dict:
        return {k: v for k, v in vars(self).items() if v or k == "parent"}


class _ThreadState:
    def __init__(self):
        self.stack: list[Span] = []
        self.folded: dict[str, list] = defaultdict(lambda: [0, 0.0])


class Recorder:
    """Collects spans and folded counters for one traced CLI call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._root: Span | None = None
        self._keyed: dict[str, tuple[str, ...]] = {}

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            state = self._tls.state = _ThreadState()
            self._states.append(state)
            return state

    def install(self, targets=TARGETS) -> None:
        self.absent = install(targets, self._wrap)

    def _wrap(self, target: Target, fn):
        return self._fold(target, fn) if target.kind == FOLD else self._span(target, fn)

    def _span(self, target: Target, fn):
        recorder = self
        name, counter = target.name, target.counts

        def wrapper(*args, **kwargs):
            state = recorder._state()
            if state.stack:
                parent = state.stack[-1].id
            else:
                parent = recorder._root.id if recorder._root is not None else None
            span = Span(name, next(recorder._ids), parent, threading.get_ident(),
                        time.perf_counter(), time.thread_time())
            if recorder._root is None:
                recorder._root = span
            state.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                span.cpu_end = time.thread_time()
                state.stack.pop()
                recorder.spans.append(span)
                if recorder._root is span:
                    recorder._root = None
            if counter is not None:
                try:
                    span.counts = counter(args, result)
                except (AttributeError, TypeError, IndexError):
                    span.counts = {}
            return result

        return wrapper

    def _fold(self, target: Target, fn):
        tls, new_state, clock = self._tls, self._state, time.perf_counter
        name = target.name
        # A keyed target books each call under the name its first argument
        # selects (the scorer id for ``score``); folded() adds them up.
        sub = {k.rsplit(".", 1)[1]: k for k in target.keys}
        if sub:
            self._keyed[name] = target.keys

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            try:
                state = tls.state
            except AttributeError:
                state = new_state()
            acc = state.folded[sub.get(args[0], name) if sub else name]
            acc[0] += 1
            acc[1] += dt
            if state.stack:
                state.stack[-1].folded_s += dt
            return result

        return wrapper

    def folded(self) -> dict[str, list]:
        """Folded counters summed over threads: name -> [calls, seconds]."""
        total: dict[str, list] = {}
        for state in self._states:
            for name, (calls, secs) in list(state.folded.items()):
                acc = total.setdefault(name, [0, 0.0])
                acc[0] += calls
                acc[1] += secs
        for name, keys in self._keyed.items():
            parts = [total[k] for k in (name, *keys) if k in total]
            total[name] = [sum(p[0] for p in parts), sum(p[1] for p in parts)]
        return total


class MemoryTracker:
    """Peak traced heap growth per call of the memory targets.

    tracemalloc keeps one process-wide peak, so nested calls save the
    peak seen so far before resetting it and hand the larger value back
    on exit. Calls must not overlap across threads: the memory pass runs
    the program with one worker.
    """

    def __init__(self):
        self.peaks: dict[str, list[float]] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []

    def install(self) -> None:
        targets = [t for t in TARGETS if t.name in MEMORY_TARGETS]
        self.absent = install(targets, self._wrap)
        tracemalloc.start()

    def _wrap(self, target: Target, fn):
        tracker = self
        name = target.name

        def wrapper(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if tracker._stack:
                tracker._stack[-1][1] = max(tracker._stack[-1][1], peak)
            frame = [current, 0]
            tracker._stack.append(frame)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = max(tracemalloc.get_traced_memory()[1], frame[1])
                tracker._stack.pop()
                tracker.peaks.setdefault(name, []).append((peak - frame[0]) / MB)
                if tracker._stack:
                    tracker._stack[-1][1] = max(tracker._stack[-1][1], peak)

        return wrapper


# Per-layer metrics: (metric, unit, target, quantity). Quantities: "s" busy
# seconds, "calls", "self_s" busy minus child spans and folded calls,
# "wait_s" span wall minus thread CPU, "count:<key>" a summed counter,
# "ratio:<a>/<b>" two summed counters, "peak" the memory pass's largest
# per-call peak.
PER_LAYER: tuple[tuple[str, str, str, str], ...] = (
    ("cli.main.s", "s", "cli.main", "s"),
    ("cli.self_s", "s", "cli.main", "self_s"),
    ("relocation.adjusted_auc.wait_s", "s", "relocation.adjusted_auc", "wait_s"),
    ("evaluation.leave_one_out.wait_s", "s", "evaluation.leave_one_out", "wait_s"),
    ("evaluation.split_evaluate.wait_s", "s", "evaluation.split_evaluate", "wait_s"),
    ("datasets.load_plain.s", "s", "datasets.load_plain", "s"),
    ("datasets.load_plain.hyperedges", "count", "datasets.load_plain", "count:hyperedges"),
    ("hypergraph.clique_expand.s", "s", "hypergraph.clique_expand", "s"),
    ("hypergraph.clique_expand.calls", "count", "hypergraph.clique_expand", "calls"),
    ("hypergraph.clique_expand.edges", "count", "hypergraph.clique_expand", "count:edges"),
    ("hypergraph.without_edge.s", "s", "hypergraph.without_edge", "s"),
    ("hypergraph.without_edge.calls", "count", "hypergraph.without_edge", "calls"),
    ("latent.build_potential.s", "s", "latent.build_potential", "s"),
    ("latent.build_potential.candidates", "count", "latent.build_potential", "count:candidates"),
    ("latent.build_potential.peak_mb", "MB", "latent.build_potential", "peak"),
    ("latent.sample_hypergraph.s", "s", "latent.sample_hypergraph", "s"),
    ("latent.sample_hypergraph.kept", "count", "latent.sample_hypergraph", "count:kept"),
    ("latent.sample_hypergraph.kept_ratio", "ratio", "latent.sample_hypergraph", "ratio:kept/attempted"),
    ("latent.link_probability_map.s", "s", "latent.link_probability_map", "s"),
    ("heuristics.score.s", "s", "heuristics.score", "s"),
    ("heuristics.score.calls", "count", "heuristics.score", "calls"),
    ("heuristics.cn.s", "s", "heuristics.cn", "s"),
    ("heuristics.aa.s", "s", "heuristics.aa", "s"),
    ("heuristics.ra.s", "s", "heuristics.ra", "s"),
    ("heuristics.pa.s", "s", "heuristics.pa", "s"),
    ("heuristics.jc.s", "s", "heuristics.jc", "s"),
    ("heuristics.sr.s", "s", "heuristics.sr", "s"),
    ("heuristics.simrank_matrix.s", "s", "heuristics.simrank_matrix", "s"),
    ("heuristics.simrank_matrix.calls", "count", "heuristics.simrank_matrix", "calls"),
    ("evaluation.leave_one_out.s", "s", "evaluation.leave_one_out", "s"),
    ("evaluation.leave_one_out.self_s", "s", "evaluation.leave_one_out", "self_s"),
    ("evaluation.leave_one_out.calls", "count", "evaluation.leave_one_out", "calls"),
    ("evaluation.leave_one_out.pairs", "count", "evaluation.leave_one_out", "count:pairs"),
    ("evaluation.leave_one_out.peak_mb", "MB", "evaluation.leave_one_out", "peak"),
    ("evaluation.split_evaluate.s", "s", "evaluation.split_evaluate", "s"),
    ("evaluation.split_evaluate.self_s", "s", "evaluation.split_evaluate", "self_s"),
    ("evaluation.split_evaluate.calls", "count", "evaluation.split_evaluate", "calls"),
    ("evaluation.split_evaluate.pairs", "count", "evaluation.split_evaluate", "count:pairs"),
    ("evaluation.split_evaluate.negatives", "count", "evaluation.split_evaluate", "count:negatives"),
    ("evaluation.split_evaluate.peak_mb", "MB", "evaluation.split_evaluate", "peak"),
    ("evaluation.auc.s", "s", "evaluation.auc", "s"),
    ("evaluation.auc.calls", "count", "evaluation.auc", "calls"),
    ("evaluation.auc_conditional.s", "s", "evaluation.auc_conditional", "s"),
    ("evaluation.model_auc.s", "s", "evaluation.model_auc", "s"),
    ("evaluation.overestimation_scan.s", "s", "evaluation.overestimation_scan", "s"),
    ("relocation.adjusted_auc.s", "s", "relocation.adjusted_auc", "s"),
    ("relocation.adjusted_auc.calls", "count", "relocation.adjusted_auc", "calls"),
    ("relocation.relocate.s", "s", "relocation.relocate", "s"),
    ("relocation.relocate.calls", "count", "relocation.relocate", "calls"),
    ("relocation.evaluate_protocol.calls", "count", "relocation.evaluate_protocol", "calls"),
    ("relocation.runs_kept", "count", "relocation.adjusted_auc", "count:runs_kept"),
    ("relocation.runs_failed", "count", "relocation.adjusted_auc", "count:runs_failed"),
)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def layer_metrics(spans: list[dict], folded: dict, absent: list[str],
                  peaks_mb: dict, memory_absent: list[str]) -> dict:
    """Fold a traced pass and a memory pass into the PER_LAYER metrics.

    A metric of an absent target has value None; one of a target the
    workload never called reads 0.
    """
    by_name: dict[str, list[dict]] = {}
    children: dict[int, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s.get("parent") is not None:
            children.setdefault(s["parent"], []).append(s)

    def self_s(s: dict) -> float:
        lo, hi = s["start"], s["end"]
        kids = [(max(c["start"], lo), min(c["end"], hi)) for c in children.get(s["id"], [])]
        return max(0.0, hi - lo - _covered([k for k in kids if k[1] > k[0]]) - s.get("folded_s", 0.0))

    def count(rows: list[dict], key: str) -> int:
        return sum(r.get("counts", {}).get(key, 0) for r in rows)

    out = {}
    for metric, unit, target, quantity in PER_LAYER:
        rows = by_name.get(target, [])
        calls, secs = folded.get(target, (None, None))
        if quantity == "peak":
            value = None if target in memory_absent else max(peaks_mb.get(target, [0.0]))
        elif target in absent:
            value = None
        elif quantity == "s":
            value = secs if calls is not None else sum(r["end"] - r["start"] for r in rows)
        elif quantity == "calls":
            value = calls if calls is not None else len(rows)
        elif quantity == "self_s":
            value = sum(self_s(r) for r in rows)
        elif quantity == "wait_s":
            value = sum((r["end"] - r["start"]) - (r.get("cpu_end", 0.0) - r.get("cpu_start", 0.0)) for r in rows)
        elif quantity.startswith("count:"):
            value = count(rows, quantity[6:])
        else:
            num, den = quantity[6:].split("/")
            den_total = count(rows, den)
            value = count(rows, num) / den_total if den_total else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out
