"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each treeload layer from the
outside: the program carries no tracing code.  A wrapper is installed on
every treeload module that holds the function, because callers look names
up in their own module (``pmo`` calls ``solvers.cmo``, ``cmo`` calls
``solvers.system_cost``, the harness calls ``harness.pmo``).  scipy's
``linprog`` is wrapped where ``treeload.solvers`` imported it.

A span holds its name, start, end, parent span and request id.  Spans stay
in memory and are written out once the run ends.  ``pmo`` probes subtrees
on a thread pool while the client thread waits inside it, so a span that
starts on another thread with nothing open there takes the client
thread's innermost open span as its parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

# `cli` is left out (each call pays interpreter start-up); `topologies` and
# `units` only hold data and conversions
LAYERS = ("network", "tree", "costs", "solvers", "heuristics", "harness", "verification")

SETUP = -1  # request id of spans recorded while setting up
CHECK = -2  # request id of spans recorded while checking the answers

# per-node terms that system_cost evaluates for every node on every call:
# spans there would make up nine tenths of all spans and most of the tracing
# overhead, and no metric reads them
PER_NODE = (
    "costs.transmission_time",
    "costs.waiting_time",
    "costs.compute_time",
    "costs.relay_load",
    "costs.node_energy",
    "costs.node_cost",
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    evaluated: int | None  # Solution.schedules_evaluated of the result, if any


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = SETUP
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            if stack:
                parent = stack[-1]
            elif stack is not rec._main_stack and rec._main_stack:
                parent = rec._main_stack[-1]
            else:
                parent = None
            sid = next(rec._ids)
            stack.append(sid)
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                rec.spans.append(
                    Span(sid, name, t0, t1, parent, rec.request,
                         getattr(out, "schedules_evaluated", None))
                )

        return traced

    def install(self) -> None:
        """Replace each layer's public functions by span-recording wrappers."""
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"treeload.{layer}"]
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(fn)
                    and f"{layer}.{attr}" not in PER_NODE
                ):
                    targets[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        linprog = sys.modules["treeload.solvers"].linprog
        targets[id(linprog)] = (linprog, self._wrap("solvers.linprog", linprog))
        for modname, mod in list(sys.modules.items()):
            if modname != "treeload" and not modname.startswith("treeload."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = targets.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def write(self, path, t_origin: float) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                doc = s._asdict()
                doc["start"] = s.start - t_origin
                doc["end"] = s.end - t_origin
                fh.write(json.dumps(doc) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover."""
    kids = defaultdict(list)
    for s in spans:
        kids[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for a, b in sorted((max(k.start, s.start), min(k.end, s.end)) for k in kids[s.id]):
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.id] = (s.end - s.start) - covered
    return out


# metric name -> (kind, span names).  "ms" sums the durations of the
# outermost spans of the set, so a set member called inside another is not
# counted twice; "evaluated" sums Solution.schedules_evaluated the same way.
REQUEST_METRICS = {
    "solvers.linprog.calls": ("calls", ("solvers.linprog",)),
    "solvers.linprog.ms": ("ms", ("solvers.linprog",)),
    "solvers.cmo.self_ms": ("self_ms", ("solvers.cmo",)),
    "solvers.pmo.self_ms": ("self_ms", ("solvers.pmo",)),
    "solvers.solve_master_split.ms": ("ms", ("solvers.solve_master_split",)),
    "solvers.schedules_evaluated": ("evaluated", ("solvers.cmo", "solvers.pmo")),
    "solvers.solve_fixed_order.calls": ("calls", ("solvers.solve_fixed_order",)),
    "solvers.scale_solution.ms": ("ms", ("solvers.scale_solution",)),
    "solvers.load_baseline.self_ms": ("self_ms", ("solvers.load_baseline",)),
    "costs.system_cost.calls": ("calls", ("costs.system_cost",)),
    "costs.system_cost.ms": ("ms", ("costs.system_cost",)),
    "tree.build_sink_tree.ms": ("ms", ("tree.build_sink_tree",)),
    "tree.extract_subtree.calls": ("calls", ("tree.extract_subtree",)),
    "tree.prune_tree.calls": ("calls", ("tree.prune_tree",)),
    "tree.tree_fingerprint.ms": ("ms", ("tree.tree_fingerprint",)),
    "heuristics.node_prune.ms": ("ms", ("heuristics.node_prune",)),
    "heuristics.partial_offload_cost.calls": (
        "calls", ("heuristics.partial_offload_cost",)
    ),
    "heuristics.ga.ms": ("ms", ("heuristics.ga",)),
    "heuristics.ga.schedules_evaluated": ("evaluated", ("heuristics.ga",)),
    "heuristics.baselines.ms": ("ms", (
        "heuristics.baseline_local",
        "heuristics.baseline_partial",
        "heuristics.baseline_master_worker",
        "heuristics.baseline_multi_hop",
    )),
    "harness.run_scenario.self_ms": ("self_ms", ("harness.run_scenario",)),
    "harness.emit_json.ms": ("ms", ("harness.emit_json",)),
    "verification.verify_instance.ms": ("ms", ("verification.verify_instance",)),
    "verification.simulate_delivery.ms": ("ms", ("verification.simulate_delivery",)),
}
# counted over the whole traced run: networks are generated while setting up
# and loaded by file-sourced scenario requests
RUN_METRICS = {
    "network.generate_network.ms": ("ms", ("network.generate_network",)),
    "network.load_network.ms": ("ms", ("network.load_network",)),
}
SETUP_METRICS = {
    "setup.solvers.linprog.calls": ("calls", ("solvers.linprog",)),
}
# the answer checks call verify_instance(sol, net) on every re-solved answer
CHECK_METRICS = {
    "check.verification.verify_instance.ms": ("ms", ("verification.verify_instance",)),
    "check.verification.simulate_delivery.ms": ("ms", ("verification.simulate_delivery",)),
}
UNITS = {"calls": "count", "evaluated": "count", "ms": "ms", "self_ms": "ms"}
METRIC_UNITS = {
    name: UNITS[kind]
    for table in (REQUEST_METRICS, RUN_METRICS, SETUP_METRICS, CHECK_METRICS)
    for name, (kind, _) in table.items()
}


def layer_metrics(spans: list[Span], table: dict) -> dict[str, float]:
    """Evaluate a metric table on a set of spans (times in ms)."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)

    def outermost(s: Span, names) -> bool:
        p = by_id.get(s.parent)
        while p is not None:
            if p.name in names:
                return False
            p = by_id.get(p.parent)
        return True

    out = {}
    for metric, (kind, names) in table.items():
        hits = [s for s in spans if s.name in names]
        if kind == "calls":
            out[metric] = len(hits)
        elif kind == "self_ms":
            out[metric] = 1e3 * sum(selfs[s.id] for s in hits)
        elif kind == "ms":
            out[metric] = 1e3 * sum(s.end - s.start for s in hits if outermost(s, names))
        else:
            out[metric] = sum(s.evaluated or 0 for s in hits if outermost(s, names))
    return out


def traced_metrics(spans: list[Span], n: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer values of a run traced through set-up, two passes of n
    requests and the answer checks.

    Counts come from the first pass and must repeat on the second; times are
    the mean of both passes.  Returns the values and the counts that differed.
    """
    passes = [
        layer_metrics(
            [s for s in spans if p * n <= s.request < (p + 1) * n], REQUEST_METRICS
        )
        for p in (1, 2)
    ]
    values, problems = {}, []
    for name, (kind, _) in REQUEST_METRICS.items():
        first, second = passes[0][name], passes[1][name]
        if UNITS[kind] == "count":
            values[name] = first
            if first != second:
                problems.append(f"{name}: {first} then {second} on two traced passes")
        else:
            values[name] = (first + second) / 2
    values.update(layer_metrics([s for s in spans if s.request < 2 * n], RUN_METRICS))
    values.update(layer_metrics([s for s in spans if s.request == SETUP], SETUP_METRICS))
    values.update(layer_metrics([s for s in spans if s.request == CHECK], CHECK_METRICS))
    return values, problems
