"""Every engine allocation equals the from-scratch allocators, bit for bit.

The incremental engine (:class:`AllocationState`) is the runtime's only
allocation path.  The from-scratch :func:`dispatch_allocation` rebuilds
link membership from a route map on every call, so it serves as the
oracle: each ``AllocationState.allocate`` call of a run is checked
against it over the engine's own routes and (possibly fault-revoked)
capacities.  That covers every reallocation of the run, cache hits and
delta-updated class memberships included, not only the JCTs they add up
to.
"""

import os

import pytest

from repro.experiments.common import (
    ScenarioConfig,
    build_fault_profile,
    build_jobs,
)
from repro.experiments.figures import figure5_configs, figure6_config
from repro.schedulers.registry import available_schedulers, make_scheduler
from repro.simulator.bandwidth.engine import AllocationState
from repro.simulator.bandwidth.request import dispatch_allocation
from repro.simulator.runtime import simulate
from repro.simulator.topology.fattree import FatTreeTopology

CONFIG = ScenarioConfig(name="parity", num_jobs=10, fattree_k=4, seed=7)

FABRICS = {"perfect": "", "chaos": "chaos"}


@pytest.fixture
def oracle(monkeypatch):
    """Wrap ``AllocationState.allocate``; collect ``(rates, expected)``."""
    checked = []
    allocate = AllocationState.allocate

    def allocate_and_check(self, request):
        rates = allocate(self, request)
        capacities = [
            self.capacity_of(link_id)
            for link_id in range(self.all_flows.num_links)
        ]
        expected = dispatch_allocation(request, self.all_flows.routes, capacities)
        checked.append((dict(rates), expected))
        return rates

    monkeypatch.setattr(AllocationState, "allocate", allocate_and_check)
    return checked


def _run_checked(config, scheduler_name, checked):
    topology = FatTreeTopology(k=config.fattree_k)
    jobs = build_jobs(config, topology.num_hosts)
    result = simulate(
        topology,
        make_scheduler(scheduler_name),
        jobs,
        faults=build_fault_profile(config),
    )
    assert result.all_done
    assert checked, "the run made no allocation"
    mismatches = [
        index for index, (rates, expected) in enumerate(checked)
        if rates != expected
    ]
    assert not mismatches, (
        f"{len(mismatches)} of {len(checked)} allocations differ from "
        f"dispatch_allocation, first at call {mismatches[0]}"
    )
    # Epochs with no active flows return before the engine is consulted.
    assert result.engine_stats.allocations == len(checked)
    assert len(checked) <= result.reallocations
    return result


@pytest.mark.parametrize("fabric", sorted(FABRICS))
@pytest.mark.parametrize("scheduler_name", available_schedulers())
def test_allocations_match_oracle(oracle, scheduler_name, fabric):
    config = CONFIG.with_overrides(fault_profile=FABRICS[fabric])
    result = _run_checked(config, scheduler_name, oracle)
    if fabric == "chaos":
        assert result.fault_stats is not None
        assert result.fault_stats.faults_injected > 0


#: The figure 5 scenarios plus fig-6 fb-tao at k=4, under Gurita.  About
#: 20 s, so they run only with ``REPRO_RUN_SLOW=1`` (the CI engine-smoke
#: job sets it).
PAPER_WORKLOADS = [
    config.with_overrides(num_jobs=24, fattree_k=4)
    for config in figure5_configs(seed=42)
] + [figure6_config("fb-tao", num_jobs=30, seed=42).with_overrides(fattree_k=4)]


@pytest.mark.skipif(
    not os.environ.get("REPRO_RUN_SLOW"),
    reason="set REPRO_RUN_SLOW=1 to check the paper workloads",
)
@pytest.mark.parametrize(
    "config", PAPER_WORKLOADS, ids=[config.name for config in PAPER_WORKLOADS]
)
def test_paper_workloads_match_oracle(oracle, config):
    _run_checked(config, "gurita", oracle)
