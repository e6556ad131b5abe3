"""Spans around the calls into frobenius3's layers, recorded from outside the package.

A layer is one module of the package: cli, solver, walk, modarith, oracle.
`Tracer.installed` swaps, in the modules' namespaces, every name bound to
another layer's public function for a wrapper that records a span (name,
start, end, parent) and the call's counts; nothing under src/ changes. A
few calls inside one layer get spans too, where a per-layer metric needs
them on their own. A span's self time is its length minus the time its
child spans cover.

Spans are aggregated per operation as they close. The raw spans of the
first SPAN_LIMIT calls are also kept in memory for the run record.
"""

import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

PACKAGE = "frobenius3"
LAYERS = ("cli", "solver", "walk", "modarith", "oracle")
# Calls within a layer that a per-layer metric needs as spans of their own.
INNER_CALLS = {
    "solver": ("validate_triple", "least_multiples_all", "assemble_result"),
    "oracle": ("build_sieve",),
}
# walk_step runs once per approximation, up to ~10^5 times an operation; a
# span there would cost more than the walk step it measures.
UNTRACED = {"walk.walk_step"}
SPAN_LIMIT = 200_000


class _JsonProxy:
    """Stands in for the json module in cli, timing json.dumps."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class OpStats:
    """What one operation did in each layer."""

    def __init__(self):
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.walk_s = [0.0, 0.0, 0.0]  # find_least_multiple time by target rank
        self.traces = []
        self.results = []  # (generators, g, degenerate) from solver.frobenius
        self.completed_least_multiples = 0
        self.sieve_entries = 0
        self.walk_counts = {}

    def count_walks(self):
        """Counts read from the returned walk traces; drops the traces."""
        steps = iterations = k2_max = size = 0
        for trace in self.traces:
            steps += len(trace.steps)
            size += sys.getsizeof(trace.steps)
            run = 0
            for step in trace.steps:
                size += (sys.getsizeof(step) + sys.getsizeof(step.k)
                         + sys.getsizeof(step.p) + sys.getsizeof(step.v))
                if step.k == 2:
                    run += 1
                    iterations += run == 1
                    k2_max = max(k2_max, run)
                else:
                    run = 0
                    iterations += 1
        self.walk_counts = {"steps": steps, "iterations": iterations,
                            "k2_run_max": k2_max, "trace_bytes": size}
        self.traces = []


class Tracer:
    def __init__(self):
        self.spans = []  # (op, span id, parent id, name, start, end)
        self.dropped = 0
        self.op = OpStats()
        self._op_index = -1
        self._stack = []  # [span id, seconds covered by child spans]
        self._next_id = 0

    def begin_op(self):
        self._op_index += 1
        self.op = OpStats()

    def end_op(self) -> OpStats:
        self.op.count_walks()
        return self.op

    def wrap(self, name, fn, observe=None):
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                self._close(name, frame, start, end)
                if observe is not None:
                    observe(self.op, args, result, end - start)

        return traced

    def _close(self, name, frame, start, end):
        span_id, covered = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        op = self.op
        op.incl_s[name] += duration
        op.self_s[name] += duration - covered
        op.calls[name] += 1
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((self._op_index, span_id,
                               None if parent is None else parent[0], name, start, end))
        else:
            self.dropped += 1

    @contextmanager
    def installed(self):
        """Wrap every cross-layer call (and INNER_CALLS) while the block runs."""
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        owners = {f"{PACKAGE}.{layer}": layer for layer in LAYERS}
        wrappers, patched = {}, []
        for layer, module in modules.items():
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = owners.get(obj.__module__)
                name = f"{owner}.{obj.__name__}"
                if owner is None or name in UNTRACED:
                    continue
                if owner == layer and obj.__name__ not in INNER_CALLS.get(layer, ()):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(name, obj, _OBSERVERS.get(name))
                patched.append((namespace, attr, obj))
                namespace[attr] = wrappers[obj]
        cli_ns = vars(modules["cli"])
        patched.append((cli_ns, "json", cli_ns["json"]))
        cli_ns["json"] = _JsonProxy(self.wrap("cli.json.dumps", json.dumps))
        try:
            yield self.wrap("cli.main", modules["cli"].main)
        finally:
            for namespace, attr, obj in reversed(patched):
                namespace[attr] = obj


def _observe_walk(op, args, result, seconds):
    inp = args[0]
    rank = sorted((inp.a, inp.b, inp.c)).index(inp.b)
    op.walk_s[rank] += seconds
    if result is not None:
        op.traces.append(result[1])


def _observe_frobenius(op, args, result, seconds):
    if result is not None:
        op.results.append(((result.a1, result.a2, result.a3), result.g, result.degenerate))


def _observe_least_multiples(op, args, result, seconds):
    if result is not None:
        op.completed_least_multiples += 1


def _observe_sieve(op, args, result, seconds):
    op.sieve_entries += args[1] + 1


_OBSERVERS = {
    "walk.find_least_multiple": _observe_walk,
    "solver.frobenius": _observe_frobenius,
    "solver.least_multiples_all": _observe_least_multiples,
    "oracle.build_sieve": _observe_sieve,
}


def unit(metric: str) -> str:
    return "ms" if metric.endswith(("_ms", "_p50")) else "B" if metric.endswith("_bytes") else "count"


def layer_metrics(ops: list[OpStats]) -> dict[str, float]:
    """Per-operation means of the per-layer metrics over the timed operations.

    Ratios "per result" and "per triple" divide totals by the triples that
    solver.frobenius returned (non-degenerate ones for least multiples).
    """
    n = len(ops)

    def ms(*names):
        return 1000 * sum(op.incl_s[name] for op in ops for name in names) / n

    triples = sum(len(op.results) for op in ops)
    nondegenerate = sum(not deg for op in ops for _, _, deg in op.results)
    builds = sum(op.calls["oracle.build_sieve"] for op in ops)
    metrics = {
        "cli.self_ms": 1000 * sum(op.self_s["cli.main"] for op in ops) / n,
        "cli.serialize_ms": ms("solver.result_to_json", "cli.json.dumps"),
        "solver.validate_ms": ms("solver.validate_triple"),
        "solver.assemble_ms": 1000 * sum(op.self_s["solver.assemble_result"] for op in ops) / n,
        "solver.least_multiples_per_result":
            sum(op.completed_least_multiples for op in ops) / nondegenerate if nondegenerate else 0,
    }
    for rank in range(3):
        metrics[f"walk.L{rank + 1}_ms"] = 1000 * sum(op.walk_s[rank] for op in ops) / n
    for key in ("steps", "iterations", "k2_run_max", "trace_bytes"):
        metrics[f"walk.{key}"] = sum(op.walk_counts[key] for op in ops) / n
    metrics.update({
        "modarith.crt_ms": ms("modarith.crt_combine"),
        "oracle.frobenius_ms": ms("oracle.oracle_frobenius"),
        "oracle.least_multiple_ms": ms("oracle.oracle_least_multiple"),
        "oracle.sieve_builds": builds / triples if triples else 0,
        "oracle.sieve_entries": sum(op.sieve_entries for op in ops) / triples if triples else 0,
    })
    return metrics
