"""Outside-in tracing of the simulator's layers for the benchmark.

Nothing inside ``src/`` is instrumented.  :func:`instrument` rebinds the
public entry point of each layer (module functions and class methods)
to a wrapper that records one span per call, and puts every original
back when the traced run ends.  Spans carry a name, start and end host
times, the index of the enclosing span and the id of the run they
belong to; they are kept in memory and written out once, at the end.

A span's *self time* is its duration minus the time its child spans
cover (:func:`summarize`).  Calls are strictly nested (one thread, no
re-entry across layers), so children never overlap one another.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, TextIO, Tuple

from repro.experiments import common
from repro.simulator import checkpoint
from repro.simulator.bandwidth import engine, spq, wrr
from repro.simulator.events import EventQueueBase
from repro.simulator.routing.ecmp import EcmpRouter
from repro.simulator.runtime import CoflowSimulation

#: One recorded call: (name, start, end, parent span index or -1, run id).
Span = Tuple[str, float, float, int, str]

#: Scheduler hooks other than ``on_update``/``allocation``; their spans
#: share one name because no single hook is a layer of its own.
SCHEDULER_CALLBACKS = (
    "on_job_arrival",
    "on_coflow_release",
    "on_flow_finish",
    "on_coflow_finish",
    "on_job_finish",
    "on_sync_degraded",
    "on_hosts_changed",
    "on_flow_restart",
)


@dataclass
class Tracer:
    """In-memory span recorder; ``clock`` is injectable for tests."""

    clock: Callable[[], float] = time.perf_counter
    spans: List[Span] = field(default_factory=list)
    run_id: str = ""
    #: checkpoint bytes written, summed by the ``checkpoint.write`` wrapper
    checkpoint_bytes: int = 0
    #: ``on_update`` rounds that reported a change (None counts as changed)
    updates_changed: int = 0
    _stack: List[int] = field(default_factory=list)

    def wrap(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        """``func`` with every call recorded as a span called ``name``."""

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            spans = self.spans
            stack = self._stack
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id))
            stack.append(index)
            start = self.clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3], self.run_id)

        return traced

    def write_to(self, handle: TextIO) -> None:
        """Write every span as one JSON array per line."""
        for span in self.spans:
            handle.write(json.dumps(span, separators=(",", ":")))
            handle.write("\n")


@dataclass
class LayerTotals:
    """Per span name: call count, total and self time in host seconds."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def summarize(spans: List[Span]) -> Dict[str, LayerTotals]:
    """Calls, total time and self time per span name.

    A span nested directly in a span of the same name (a hook calling
    another hook) adds its call and self time but not its duration
    again, so ``total_s`` is wall time covered, never double counted.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, LayerTotals] = {}
    for index, (name, start, end, parent, _) in enumerate(spans):
        totals = out.setdefault(name, LayerTotals())
        totals.calls += 1
        totals.self_s += end - start - child_time[index]
        if parent < 0 or spans[parent][0] != name:
            totals.total_s += end - start
    return out


class _Patcher:
    """Rebinds attributes and restores them exactly, in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    def patch(self, owner: Any, name: str, replacement: Any) -> None:
        # An inherited method is shadowed on ``owner`` and later deleted
        # again, so the class dict ends up exactly as it was.
        owned = name in vars(owner)
        self._undo.append((owner, name, owned, vars(owner).get(name)))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, name, owned, original = self._undo.pop()
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


def _count_changed(tracer: Tracer, func: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(func)
    def counted(*args: Any, **kwargs: Any) -> Any:
        changed = func(*args, **kwargs)
        if changed is None or changed:
            tracer.updates_changed += 1
        return changed

    return counted


def _count_bytes(tracer: Tracer, func: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(func)
    def sized(sim: Any, path: Any, *args: Any, **kwargs: Any) -> Any:
        result = func(sim, path, *args, **kwargs)
        tracer.checkpoint_bytes += os.path.getsize(path)
        return result

    return sized


@contextlib.contextmanager
def instrument(
    tracer: Tracer, scheduler_classes: Tuple[type, ...]
) -> Iterator[Tracer]:
    """Trace every layer for the duration of the ``with`` block.

    ``scheduler_classes`` are the concrete policy classes the traced run
    instantiates.  Set-up is traced through ``common.build_topology`` and
    ``common.build_jobs``, which the benchmark calls by module attribute.
    Every wrapper is removed on exit, also when the block raises.
    """
    patcher = _Patcher()
    wrap = tracer.wrap
    try:
        patcher.patch(common, "build_topology",
                      wrap("topology.build", common.build_topology))
        patcher.patch(common, "build_jobs",
                      wrap("workloads.synthesize", common.build_jobs))
        patcher.patch(CoflowSimulation, "run",
                      wrap("runtime.run", CoflowSimulation.run))
        patcher.patch(EventQueueBase, "push",
                      wrap("events.push", EventQueueBase.push))
        patcher.patch(EventQueueBase, "pop", wrap("events.pop", EventQueueBase.pop))
        for cls in scheduler_classes:
            patcher.patch(cls, "on_update", wrap(
                "scheduler.on_update", _count_changed(tracer, cls.on_update)))
            patcher.patch(cls, "allocation",
                          wrap("scheduler.allocation", cls.allocation))
            for hook in SCHEDULER_CALLBACKS:
                patcher.patch(cls, hook,
                              wrap("scheduler.callbacks", getattr(cls, hook)))
        patcher.patch(engine.AllocationState, "allocate",
                      wrap("bandwidth.allocate", engine.AllocationState.allocate))
        patcher.patch(engine, "allocate_wrr_memberships",
                      wrap("bandwidth.wrr", engine.allocate_wrr_memberships))
        patcher.patch(engine, "allocate_spq_memberships",
                      wrap("bandwidth.spq", engine.allocate_spq_memberships))
        # water_fill_membership is imported by name into each caller, so
        # the caller's module says which allocation mode the fill serves.
        for module, mode in ((wrr, "wrr"), (spq, "spq"), (engine, "maxmin")):
            patcher.patch(module, "water_fill_membership", wrap(
                f"bandwidth.water_fill.{mode}", module.water_fill_membership))
        patcher.patch(EcmpRouter, "route_flow",
                      wrap("routing.route_flow", EcmpRouter.route_flow))
        # The runtime imports write_checkpoint lazily at each call.
        patcher.patch(checkpoint, "write_checkpoint", wrap(
            "checkpoint.write", _count_bytes(tracer, checkpoint.write_checkpoint)))
        patcher.patch(checkpoint, "restore_simulation",
                      wrap("checkpoint.restore", checkpoint.restore_simulation))
        yield tracer
    finally:
        patcher.restore()


def run_id(workload: str, seed: int, iteration: int) -> str:
    """The id shared by the spans of one traced workload iteration."""
    return f"{workload}/seed={seed}/iter={iteration}"


def layer_metrics(
    totals: Dict[str, LayerTotals], tracer: Tracer
) -> Dict[str, float]:
    """Per-layer timings and call counts from one traced iteration."""

    def get(name: str) -> LayerTotals:
        return totals.get(name, LayerTotals())

    fills = [get(f"bandwidth.water_fill.{m}") for m in ("wrr", "spq", "maxmin")]
    fill_s = sum(t.total_s for t in fills)
    fill_calls = sum(t.calls for t in fills)
    run_s = get("runtime.run").total_s
    allocate = get("bandwidth.allocate")
    update = get("scheduler.on_update")
    return {
        "runtime.self_s": get("runtime.run").self_s,
        "runtime.run_s": run_s,
        "events.push_calls": get("events.push").calls,
        "events.push_s": get("events.push").total_s,
        "events.pop_calls": get("events.pop").calls,
        "events.pop_s": get("events.pop").total_s,
        "scheduler.on_update_calls": update.calls,
        "scheduler.on_update_s": update.total_s,
        "scheduler.on_update_share": update.total_s / run_s if run_s else 0.0,
        "scheduler.on_update_changed_ratio": (
            tracer.updates_changed / update.calls if update.calls else 0.0
        ),
        "scheduler.allocation_calls": get("scheduler.allocation").calls,
        "scheduler.allocation_s": get("scheduler.allocation").total_s,
        "scheduler.callbacks_s": get("scheduler.callbacks").total_s,
        "bandwidth.allocate_calls": allocate.calls,
        "bandwidth.allocate_s": allocate.total_s,
        "bandwidth.allocate_self_s": allocate.self_s,
        "bandwidth.wrr_self_s": get("bandwidth.wrr").self_s,
        "bandwidth.spq_self_s": get("bandwidth.spq").self_s,
        "bandwidth.water_fill_calls": fill_calls,
        "bandwidth.water_fill.wrr_s": fills[0].total_s,
        "bandwidth.water_fill.spq_s": fills[1].total_s,
        "bandwidth.water_fill.maxmin_s": fills[2].total_s,
        "bandwidth.water_fill_share": fill_s / run_s if run_s else 0.0,
        "bandwidth.fills_per_allocate": (
            fill_calls / allocate.calls if allocate.calls else 0.0
        ),
        "routing.route_flow_calls": get("routing.route_flow").calls,
        "routing.route_flow_s": get("routing.route_flow").total_s,
        "checkpoint.write_calls": get("checkpoint.write").calls,
        "checkpoint.write_s": get("checkpoint.write").total_s,
        "checkpoint.bytes": tracer.checkpoint_bytes,
        "checkpoint.restore_s": get("checkpoint.restore").total_s,
        "topology.build_s": get("topology.build").total_s,
        "workloads.synthesize_s": get("workloads.synthesize").total_s,
    }
