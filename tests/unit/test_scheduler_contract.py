"""Cross-scheduler conformance suite: the SchedulerPolicy contract.

Every test is parameterized over the full registry, so a newly registered
policy is automatically held to the same contract as the paper's
comparators: honest registration metadata, fresh state per instantiation,
deterministic replays, sane allocation requests, and class maps the
allocation engine files exactly (its diff misses no class move).
"""

from __future__ import annotations

from typing import List

import pytest

from repro.schedulers.base import SchedulerPolicy
from repro.schedulers.registry import available_schedulers, make_scheduler
from repro.simulator.bandwidth.request import (
    MAX_SWITCH_CLASSES,
    AllocationMode,
    AllocationRequest,
)
from repro.simulator.runtime import CoflowSimulation, simulate
from repro.simulator.topology.bigswitch import BigSwitchTopology
from repro.workloads.generator import synthesize_workload

ALL_SCHEDULERS = tuple(available_schedulers())

NUM_HOSTS = 8


def small_workload():
    """A small multi-stage workload, rebuilt identically per call."""
    return synthesize_workload(
        num_jobs=6,
        num_hosts=NUM_HOSTS,
        structure="fb-tao",
        seed=11,
        arrival_mode="uniform",
    )


def run_once(name: str):
    return simulate(
        BigSwitchTopology(num_hosts=NUM_HOSTS),
        make_scheduler(name),
        small_workload(),
    )


@pytest.fixture(params=ALL_SCHEDULERS)
def name(request) -> str:
    return request.param


def test_registry_covers_new_comparators():
    """The gap-harness comparators are first-class registry citizens."""
    assert {"sg-dag", "lp-order"} <= set(ALL_SCHEDULERS)
    assert len(ALL_SCHEDULERS) >= 7


class TestRegistration:
    def test_factory_returns_policy_with_matching_name(self, name):
        policy = make_scheduler(name)
        assert isinstance(policy, SchedulerPolicy)
        assert policy.name == name

    def test_fresh_instance_and_state_per_make(self, name):
        first, second = make_scheduler(name), make_scheduler(name)
        assert first is not second
        second_state = vars(second)
        for key, value in vars(first).items():
            if isinstance(value, (dict, list, set)):
                assert value is not second_state[key], key
        assert first.context is None

    def test_update_interval_declaration(self, name):
        interval = make_scheduler(name).update_interval
        assert interval is None or (
            isinstance(interval, float) and interval >= 0.0
        )


class TestClassFiling:
    def test_engine_files_request_classes(self, name):
        sim = CoflowSimulation(
            BigSwitchTopology(num_hosts=NUM_HOSTS),
            make_scheduler(name),
            small_workload(),
            check_invariants=True,
            strict_invariants=True,
        )
        assert sim.invariants is not None
        sim.invariants.audit_interval = 1  # audit every allocation
        report = sim.run().invariant_report
        assert report is not None and report.clean


class TestDeterminism:
    def test_identical_replays_are_bit_identical(self, name):
        first, second = run_once(name), run_once(name)
        jcts_first = {
            job.job_id: job.completion_time() for job in first.jobs
        }
        jcts_second = {
            job.job_id: job.completion_time() for job in second.jobs
        }
        assert jcts_first == jcts_second

    def test_workload_completes(self, name):
        result = run_once(name)
        assert all(
            job.completion_time() is not None for job in result.jobs
        ), f"{name} left jobs unfinished"


class TestAllocationRequests:
    def test_requests_are_wellformed_throughout_a_run(self, name):
        policy = make_scheduler(name)
        captured: List[AllocationRequest] = []
        inner = policy.allocation

        def spy(active_flows, now):
            request = inner(active_flows, now)
            captured.append(request)
            if request.mode is not AllocationMode.MAXMIN:
                active_ids = {flow.flow_id for flow in active_flows}
                assert set(request.priorities) <= active_ids, (
                    f"{name} assigned priorities to inactive flows"
                )
                assert all(
                    0 <= cls < request.num_classes
                    for cls in request.priorities.values()
                ), f"{name} emitted an out-of-range priority class"
            return request

        policy.allocation = spy  # instance attribute shadows the method
        simulate(
            BigSwitchTopology(num_hosts=NUM_HOSTS),
            policy,
            small_workload(),
        )
        assert captured, f"{name} was never asked for an allocation"
        for request in captured:
            assert isinstance(request, AllocationRequest)
            assert 1 <= request.num_classes <= MAX_SWITCH_CLASSES
