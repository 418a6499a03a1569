"""Integration tests for fault injection and graceful degradation.

The robustness contracts, end to end:

* a fixed fault seed produces bit-identical JCTs whether the scenario
  runs serially or through the parallel grid engine;
* a zero-fault run is untouched by the subsystem's existence (canonical
  encodings — and therefore unit seeds and cache keys — are unchanged
  for configs that do not opt in);
* under HR degradation receivers keep scheduling on stale Ψ̈ instead of
  deadlocking;
* the ECMP router degrades with typed errors, never arithmetic ones;
* the runtime invariants hold in strict mode throughout fault/repair
  cycles, including the new downed-link / crashed-host checks;
* the incremental engine stays coherent across capacity revocation and
  rerouting.
"""

from __future__ import annotations

import pytest

from repro.errors import NoPathError
from repro.experiments.chaos import BASELINE, chaos_configs, run_chaos
from repro.experiments.common import (
    ScenarioConfig,
    build_jobs,
    build_topology,
    run_scenario,
)
from repro.experiments.parallel import WorkUnit, canonical_config, run_grid
from repro.jobs.flow import Flow
from repro.schedulers.registry import make_scheduler
from repro.simulator.bandwidth.engine import AllocationState
from repro.simulator.bandwidth.request import AllocationRequest
from repro.simulator.faults import (
    POLICY_RESUME,
    FaultProfile,
    HostFault,
    HRDegradation,
    derive_fault_seed,
    profile_from_name,
)
from repro.simulator.routing.ecmp import EcmpRouter, select_route
from repro.simulator.runtime import CoflowSimulation, simulate
from repro.simulator.topology.fattree import FatTreeTopology

FAULTED = ScenarioConfig(
    name="faulted",
    num_jobs=10,
    fattree_k=4,
    seed=7,
    schedulers=("pfs", "gurita"),
    fault_profile="chaos",
    fault_intensity=1.0,
    fault_seed=123,
)


def _jcts(outcome):
    return {
        name: sim.job_completion_times()
        for name, sim in outcome.results.items()
    }


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestFaultDeterminism:
    def test_serial_and_parallel_runs_are_bit_identical(self):
        serial = run_scenario(FAULTED)
        report = run_grid([WorkUnit(config=FAULTED)] , parallel=2)
        (parallel_outcome,) = report.scenario_results()
        assert _jcts(serial) == _jcts(parallel_outcome)

    def test_repeated_runs_are_bit_identical(self):
        assert _jcts(run_scenario(FAULTED)) == _jcts(run_scenario(FAULTED))

    def test_fault_seed_actually_changes_the_timeline(self):
        other = FAULTED.with_overrides(fault_seed=124)
        assert _jcts(run_scenario(FAULTED)) != _jcts(run_scenario(other))

    def test_chaos_report_is_deterministic(self):
        config = FAULTED.with_overrides(
            name="chaos-det", fault_profile="", fault_seed=0
        )
        one = run_chaos(config, profiles=("link-flap",), parallel=1)
        two = run_chaos(config, profiles=("link-flap",), parallel=2)
        assert _jcts(one.baseline) == _jcts(two.baseline)
        assert _jcts(one.outcomes["link-flap"]) == _jcts(
            two.outcomes["link-flap"]
        )
        assert one.degradation("link-flap") == two.degradation("link-flap")


# ----------------------------------------------------------------------
# Zero-fault neutrality
# ----------------------------------------------------------------------
class TestZeroFaultNeutrality:
    def test_default_config_encoding_has_no_fault_fields(self):
        encoding = canonical_config(ScenarioConfig())
        assert "fault_profile" not in encoding
        assert "fault_intensity" not in encoding
        assert "fault_seed" not in encoding

    def test_faulted_config_encoding_differs(self):
        assert canonical_config(FAULTED) != canonical_config(
            FAULTED.with_overrides(
                fault_profile="", fault_intensity=1.0, fault_seed=0
            )
        )

    def test_chaos_baseline_strips_fault_fields(self):
        configs = chaos_configs(FAULTED, profiles=("link-flap",))
        baseline = configs[0]
        assert baseline.fault_profile == ""
        assert baseline.fault_seed == 0
        assert BASELINE in baseline.name

    def test_no_profile_run_reports_no_fault_stats(self):
        outcome = run_scenario(
            FAULTED.with_overrides(fault_profile="", fault_seed=0)
        )
        for result in outcome.results.values():
            assert result.fault_stats is None


# ----------------------------------------------------------------------
# HR degradation: stale Ψ̈ continuation, no deadlock
# ----------------------------------------------------------------------
class TestHRDegradation:
    def test_receivers_continue_on_stale_psi(self):
        config = FAULTED.with_overrides(
            name="hr", fault_profile="hr-loss", schedulers=("gurita",)
        )
        outcome = run_scenario(config)
        result = outcome.results["gurita"]
        stats = result.fault_stats
        assert stats is not None
        assert stats.hr_rounds_dropped > 0
        # The decisive assertion: every job still completes — receivers
        # schedule on their stale view rather than blocking on the HR.
        assert all(job.completion_time() is not None for job in result.jobs)
        assert stats.max_hr_staleness > 0.0

    def test_total_hr_loss_with_failover_completes(self):
        topology = FatTreeTopology(k=4)
        config = FAULTED.with_overrides(schedulers=("gurita",))
        jobs = build_jobs(config, topology.num_hosts)
        # Crash every host that serves as an HR for a while: pick host 0
        # and rely on failover election to move the role.
        profile = FaultProfile(
            name="hr-crash",
            specs=(HostFault(host=0, at=0.0005, duration=0.02),),
            hr=HRDegradation(drop_fraction=0.5),
            seed=derive_fault_seed(7, "hr-crash"),
        )
        result = simulate(
            topology, make_scheduler("gurita"), jobs, faults=profile
        )
        assert all(job.completion_time() is not None for job in result.jobs)


# ----------------------------------------------------------------------
# Typed routing errors
# ----------------------------------------------------------------------
class TestEcmpDegradation:
    def test_select_route_refuses_empty_candidates(self):
        with pytest.raises(NoPathError):
            select_route([], selector=12345)

    def test_partitioned_pair_raises_no_path(self):
        topology = FatTreeTopology(k=4)
        router = EcmpRouter(topology)
        # Down every link attached to host 0's node: full partition.
        host_node = "h0"
        downed = {
            link.link_id
            for link in topology.links
            if host_node in (link.src_node, link.dst_node)
        }
        router.set_downed_links(downed)
        flow = Flow(flow_id=1, coflow_id=1, src=0, dst=5,
                    size_bytes=100)
        with pytest.raises(NoPathError):
            router.route_flow(flow)

    def test_reroute_is_deterministic_and_avoids_downed_links(self):
        topology = FatTreeTopology(k=4)
        router = EcmpRouter(topology)
        flow = Flow(flow_id=3, coflow_id=1, src=0, dst=9,
                    size_bytes=100)
        original = router.route_flow(flow)
        # Down a link on the chosen path that alternate paths avoid (the
        # first hop is the host's only uplink; downing it would partition).
        candidates = router.alive_routes(flow.src, flow.dst)
        target = next(
            link_id
            for link_id in original
            if any(link_id not in c for c in candidates)
        )
        router.set_downed_links({target})
        rerouted = router.route_flow(flow)
        assert target not in rerouted
        assert rerouted == router.route_flow(flow)
        # Repair: the flow hashes back onto its original path.
        router.set_downed_links(set())
        assert router.route_flow(flow) == original


# ----------------------------------------------------------------------
# Invariants under faults
# ----------------------------------------------------------------------
class TestInvariantsUnderFaults:
    @pytest.mark.parametrize("profile", ["link-flap", "host-crash", "chaos"])
    def test_strict_invariants_hold_through_fault_cycles(self, profile):
        config = FAULTED.with_overrides(
            name=f"inv-{profile}", fault_profile=profile
        )
        topology = build_topology(config)
        jobs = build_jobs(config, topology.num_hosts)
        faults = profile_from_name(
            profile, seed=derive_fault_seed(config.seed, profile)
        )
        sim = CoflowSimulation(
            topology,
            make_scheduler("gurita"),
            jobs,
            check_invariants=True,
            strict_invariants=True,
            faults=faults,
        )
        result = sim.run()
        assert result.invariant_report is not None
        assert result.invariant_report.clean

    def test_unparked_flows_are_refiled_in_their_class(self):
        """A host crash parks gurita's flows (engine remove); recovery
        unparks them (engine add, lowest class).  The engine's priority
        diff must move each back to its class by the next allocation."""
        config = FAULTED.with_overrides(schedulers=("gurita",))
        topology = build_topology(config)
        jobs = build_jobs(config, topology.num_hosts)
        crashes = tuple(
            HostFault(host=host, at=0.042, duration=0.002, policy=POLICY_RESUME)
            for host in range(4)
        )
        sim = CoflowSimulation(
            topology,
            make_scheduler("gurita"),
            jobs,
            check_invariants=True,
            strict_invariants=True,
            faults=FaultProfile(name="park-unpark", specs=crashes, seed=1),
        )
        assert sim.invariants is not None
        sim.invariants.audit_interval = 1  # audit every allocation
        result = sim.run()
        assert result.fault_stats is not None
        assert result.fault_stats.flows_parked > 0
        assert result.fault_stats.flows_recovered > 0
        assert result.invariant_report is not None
        assert result.invariant_report.clean

    def test_resume_policy_preserves_progress(self):
        config = FAULTED.with_overrides(schedulers=("pfs",))
        topology = build_topology(config)
        jobs_restart = build_jobs(config, topology.num_hosts)
        jobs_resume = build_jobs(config, topology.num_hosts)
        crash = dict(host=0, at=0.001, duration=0.01)
        restart = simulate(
            build_topology(config), make_scheduler("pfs"), jobs_restart,
            faults=FaultProfile(
                name="r0", seed=1,
                specs=(HostFault(policy="restart", **crash),),
            ),
        )
        resume = simulate(
            build_topology(config), make_scheduler("pfs"), jobs_resume,
            faults=FaultProfile(
                name="r1", seed=1,
                specs=(HostFault(policy=POLICY_RESUME, **crash),),
            ),
        )
        assert restart.fault_stats is not None
        assert resume.fault_stats is not None
        assert resume.fault_stats.flow_restarts == 0
        # Restart-from-zero can only prolong the schedule relative to
        # checkpoint-resume (identical fault timing otherwise).
        if restart.fault_stats.flow_restarts > 0:
            assert restart.makespan >= resume.makespan


# ----------------------------------------------------------------------
# Engine coherence under revocation / rerouting
# ----------------------------------------------------------------------
class TestEngineFaultSurface:
    def _state(self):
        topology = FatTreeTopology(k=4)
        state = AllocationState(topology.links.capacities())
        return topology, state

    def test_set_capacity_revokes_and_restores(self):
        _topology, state = self._state()
        original = state.capacity_of(0)
        state.set_capacity(0, 0.0)
        assert state.capacity_of(0) == 0.0
        state.set_capacity(0, original)
        assert state.capacity_of(0) == original
        assert state.stats.capacity_revocations == 2

    def test_set_capacity_rejects_bad_input(self):
        _topology, state = self._state()
        with pytest.raises(Exception):
            state.set_capacity(10**9, 1.0)
        with pytest.raises(Exception):
            state.set_capacity(0, -1.0)

    def test_update_route_preserves_class_membership(self):
        topology, state = self._state()
        flow = Flow(flow_id=1, coflow_id=1, src=0, dst=9,
                    size_bytes=100)
        router = EcmpRouter(topology)
        route = router.route_flow(flow)
        state.add_flow(flow.flow_id, route)
        alternates = router.alive_routes(flow.src, flow.dst)
        new_route = next(r for r in alternates if r != route)
        state.update_route(flow.flow_id, new_route)
        rates = state.allocate(AllocationRequest())
        assert rates[flow.flow_id] > 0.0
