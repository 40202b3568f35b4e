"""Span tracing at fmlsim's module boundaries, and the per-layer numbers derived from it.

The tracer replaces public functions with wrappers at the names their
callers look up, so no file under ``src/`` changes.  Each call records one
span ``(operation, name, start, end, parent)``; spans stay in memory and are
written out once, when the operation ends.  Counters are taken from the same
calls' arguments and results.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

# (span name, module whose globals or attributes the caller reads, attribute).
# harness and cli bind their callees with ``from ... import``, so those are
# wrapped where harness/cli look them up; draw_batch, meta_gradient and the
# ural sub-solvers are looked up in their own module's globals.  Nothing
# below function granularity is wrapped (``ural._mu`` alone runs ~200k times
# per round set at n=400, M=100).
LAYERS = (
    ("cli.load_config", "fmlsim.cli", "load_config"),
    ("cli.run", "fmlsim.cli", "run"),
    ("cli.sweep", "fmlsim.cli", "sweep"),
    ("cli.write_outputs", "fmlsim.cli", "_write_outputs"),
    ("tasks.generate_population", "fmlsim.harness", "generate_population"),
    ("wireless.sample_environment", "fmlsim.harness", "sample_environment"),
    ("wireless.round_totals", "fmlsim.harness", "round_totals"),
    ("metacore.local_update", "fmlsim.harness", "local_update"),
    ("metacore.draw_batch", "fmlsim.metacore", "draw_batch"),
    ("metacore.meta_gradient", "fmlsim.metacore", "meta_gradient"),
    ("rng.stream", "fmlsim.rng", "stream"),
    ("harness.adapted_loss", "fmlsim.harness", "adapted_loss"),
    ("selection.select_top_k", "fmlsim.harness", "select_top_k"),
    ("selection.aggregate", "fmlsim.harness", "aggregate"),
    ("ural.ural", "fmlsim.harness", "ural"),
    ("ural.solve_sp1", "fmlsim.ural", "solve_sp1"),
    ("ural.ives", "fmlsim.ural", "ives"),
    ("ural.initial_delay", "fmlsim.ural", "initial_delay"),
    ("ural.rb_matching", "fmlsim.ural", "rb_matching"),
    ("ural.min_cost_assignment", "fmlsim.ural", "min_cost_assignment"),
    ("ural.solve_sp2_power", "fmlsim.ural", "solve_sp2_power"),
    ("ural.g2_objective", "fmlsim.ural", "g2_objective"),
)


def _count_aggregated(counters, args, result):
    counters["selection.aggregated"] += len(args[0])


def _count_matched(counters, args, result):
    counters["ural.offered"] += len(args[3])
    counters["ural.matched"] += len(result[1].z)


def _count_ives(counters, args, result):
    counters["ural.ives.iterations"] += result.iterations


OBSERVERS = {
    "selection.aggregate": _count_aggregated,
    "ural.ural": _count_matched,
    "ural.ives": _count_ives,
}


class Tracer:
    """Records one operation's spans and counters in memory."""

    def __init__(self, operation: int):
        self.operation = operation
        self.spans: list = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        operation = self.operation
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (operation, name, start, end, parent)
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        for name, module_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr)))

    def dump(self) -> dict:
        return {"operation": self.operation, "spans": self.spans,
                "counters": dict(self.counters)}


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus the time its direct children
    cover; calls are single-threaded, so children never overlap.
    """
    child_time = defaultdict(float)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name, _, _ in LAYERS}
    for sid, (_, name, start, end, _) in enumerate(spans):
        entry = totals[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[sid]
    return totals


def per_layer(trace: dict) -> dict[str, float]:
    """The per-layer metrics of one traced operation (before cross-run figures)."""
    t = layer_totals(trace["spans"])
    c = trace["counters"]
    local_updates = t["metacore.local_update"]["calls"]
    offered = c.get("ural.offered", 0)
    return {
        "metacore.local_update.calls": local_updates,
        "metacore.local_update.self_s": t["metacore.local_update"]["self_s"],
        "metacore.draw_batch.calls": t["metacore.draw_batch"]["calls"],
        "metacore.draw_batch.s": t["metacore.draw_batch"]["s"],
        "metacore.meta_gradient.calls": t["metacore.meta_gradient"]["calls"],
        "metacore.meta_gradient.s": t["metacore.meta_gradient"]["s"],
        "rng.stream.calls": t["rng.stream"]["calls"],
        "rng.stream.s": t["rng.stream"]["s"],
        "harness.adapted_loss.calls": t["harness.adapted_loss"]["calls"],
        "harness.adapted_loss.s": t["harness.adapted_loss"]["s"],
        "selection.select_top_k.s": t["selection.select_top_k"]["s"],
        "selection.aggregate.s": t["selection.aggregate"]["s"],
        "selection.aggregated_ratio":
            c.get("selection.aggregated", 0) / local_updates if local_updates else 0.0,
        "ural.solve_sp1.calls": t["ural.solve_sp1"]["calls"],
        "ural.solve_sp1.s": t["ural.solve_sp1"]["s"],
        "ural.ives.self_s": t["ural.ives"]["self_s"],
        "ural.ives.iterations": c.get("ural.ives.iterations", 0),
        "ural.rb_matching.calls": t["ural.rb_matching"]["calls"],
        "ural.rb_matching.self_s": t["ural.rb_matching"]["self_s"],
        "ural.min_cost_assignment.s": t["ural.min_cost_assignment"]["s"],
        "ural.solve_sp2_power.s": t["ural.solve_sp2_power"]["s"],
        "ural.initial_delay.s": t["ural.initial_delay"]["s"],
        "ural.g2_objective.calls": t["ural.g2_objective"]["calls"],
        "ural.matched_ratio": c.get("ural.matched", 0) / offered if offered else 0.0,
        "tasks.generate_population.s": t["tasks.generate_population"]["s"],
        "wireless.sample_environment.s": t["wireless.sample_environment"]["s"],
        "wireless.round_totals.s": t["wireless.round_totals"]["s"],
        "cli.load_config.s": t["cli.load_config"]["s"],
        "cli.write_outputs.s": t["cli.write_outputs"]["s"],
    }
