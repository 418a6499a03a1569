"""Trace plumbing: span records, self time, unwrapping, traced ≡ untraced."""

import itertools
from pathlib import Path

import pytest

from perfbench import bench
from perfbench.tracing import (
    Tracer,
    instrument,
    layer_metrics,
    summarize,
)
from perfbench.workloads import Workload
from repro.core.gurita import GuritaScheduler
from repro.experiments import common
from repro.experiments.common import ScenarioConfig
from repro.schedulers.aalo import AaloScheduler
from repro.schedulers.base import SchedulerPolicy
from repro.schedulers.pfs import PerFlowFairSharing
from repro.simulator import checkpoint
from repro.simulator.bandwidth import engine, spq, wrr
from repro.simulator.events import EventQueueBase
from repro.simulator.routing.ecmp import EcmpRouter
from repro.simulator.runtime import CoflowSimulation

SCHEDULER_CLASSES = (PerFlowFairSharing, AaloScheduler, GuritaScheduler)

#: A durable, faulted scenario small enough for a unit test.
SMALL_DURABLE = Workload(
    name="small-durable",
    config=ScenarioConfig(
        name="small-durable", structure="fb-tao", num_jobs=10,
        fattree_k=4, fault_profile="chaos", seed=5,
    ),
    schedulers=("pfs", "aalo", "gurita"),
    pinned_fingerprint="",
    pinned_events=0,
    why="unit test",
    durable=True,
)


def _owners():
    """Every (owner, attribute) pair that instrument() may rebind."""
    pairs = [
        (common, "build_topology"), (common, "build_jobs"),
        (CoflowSimulation, "run"), (EventQueueBase, "push"),
        (EventQueueBase, "pop"), (engine.AllocationState, "allocate"),
        (engine, "allocate_wrr_memberships"), (engine, "allocate_spq_memberships"),
        (wrr, "water_fill_membership"), (spq, "water_fill_membership"),
        (engine, "water_fill_membership"), (EcmpRouter, "route_flow"),
        (checkpoint, "write_checkpoint"), (checkpoint, "restore_simulation"),
    ]
    hooks = [name for name in vars(SchedulerPolicy) if name.startswith(("on_", "allocation"))]
    pairs += [(cls, hook) for cls in SCHEDULER_CLASSES for hook in hooks]
    return pairs


def _state():
    return [(owner, name, vars(owner).get(name, "<inherited>")) for owner, name in _owners()]


def test_spans_carry_name_times_parent_and_run_id():
    tracer = Tracer(clock=itertools.count().__next__, run_id="r1")
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert tracer.spans == [("outer", 0, 3, -1, "r1"), ("inner", 1, 2, 0, "r1")]


def test_self_time_of_nested_spans():
    spans = [
        ("bandwidth.allocate", 0.0, 10.0, -1, "r"),
        ("bandwidth.wrr", 1.0, 9.0, 0, "r"),
        ("bandwidth.water_fill.wrr", 2.0, 5.0, 1, "r"),
        ("bandwidth.water_fill.wrr", 5.0, 8.0, 1, "r"),
        ("bandwidth.allocate", 20.0, 21.0, -1, "r"),
    ]
    totals = summarize(spans)
    assert totals["bandwidth.allocate"].calls == 2
    assert totals["bandwidth.allocate"].total_s == 11.0
    assert totals["bandwidth.allocate"].self_s == 3.0
    assert totals["bandwidth.wrr"].self_s == 2.0
    assert totals["bandwidth.water_fill.wrr"].calls == 2
    assert totals["bandwidth.water_fill.wrr"].self_s == 6.0


def test_same_name_nesting_is_not_double_counted():
    spans = [("scheduler.callbacks", 0.0, 4.0, -1, "r"),
             ("scheduler.callbacks", 1.0, 3.0, 0, "r")]
    totals = summarize(spans)["scheduler.callbacks"]
    assert (totals.calls, totals.total_s, totals.self_s) == (2, 4.0, 4.0)


def test_wrappers_are_removed_after_the_run(tmp_path: Path):
    before = _state()
    runner = bench.Bench(SMALL_DURABLE, 5, tmp_path)
    runner.reference()
    runner.iteration(Tracer(run_id="t"))
    assert _state() == before
    with pytest.raises(RuntimeError):
        with instrument(Tracer(), SCHEDULER_CLASSES):
            assert _state() != before
            raise RuntimeError("boom")
    assert _state() == before


def test_traced_run_matches_untraced_and_self_times_add_up(tmp_path: Path):
    runner = bench.Bench(SMALL_DURABLE, 5, tmp_path)
    runner.reference()
    untraced = runner.iteration()
    tracer = Tracer(run_id="traced")
    traced = runner.iteration(tracer)
    # every run is checked against the uninterrupted untraced reference
    assert runner.failed == 0 and runner.attempted == 9

    totals = summarize(tracer.spans)
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    assert sum(t.self_s for t in totals.values()) == pytest.approx(roots)
    assert all(run_id == "traced" for *_, run_id in tracer.spans)
    layers = layer_metrics(totals, tracer)
    assert layers["checkpoint.write_calls"] > 0 and layers["checkpoint.bytes"] > 0
    for mode in ("wrr", "spq", "maxmin"):
        assert layers[f"bandwidth.water_fill.{mode}_s"] > 0

    metrics = bench.per_layer([untraced], [traced])
    assert metrics["trace.overhead_s"] == traced.raw_wall_s - untraced.raw_wall_s
    assert metrics["faults.injected"] > 0
