"""Unit tests for Gurita's configuration, HR decisions, and GuritaPlus."""

import pytest

from repro.core.config import GuritaConfig
from repro.core.critical_path import AvaCriticalPathEstimator
from repro.core.gurita import GuritaScheduler
from repro.core.gurita_plus import GuritaPlusScheduler
from repro.core.head_receiver import HeadReceiver
from repro.core.starvation import build_request
from repro.errors import SchedulerError
from repro.jobs import JobBuilder
from repro.simulator.bandwidth.request import AllocationMode


class _FakeContext:
    """Just enough SchedulerContext for driving hooks directly."""

    def __init__(self, job):
        self._job = job

    def job(self, job_id):
        assert job_id == self._job.job_id
        return self._job

    def coflow(self, coflow_id):
        return self._job.coflow(coflow_id)


class TestConfig:
    def test_defaults_follow_paper(self):
        config = GuritaConfig()
        assert config.num_classes == 4  # evaluation uses four queues
        assert config.update_interval == pytest.approx(8e-3)
        assert config.beta_floor == pytest.approx(0.1)
        assert config.starvation_mitigation is True

    def test_threshold_object_built(self):
        config = GuritaConfig(num_classes=8, psi_first=1e6, psi_base=4.0)
        assert config.thresholds.num_classes == 8
        assert config.thresholds.class_of(0.5e6) == 0

    def test_validation(self):
        with pytest.raises(SchedulerError):
            GuritaConfig(critical_path_bonus=1.0)
        with pytest.raises(SchedulerError):
            GuritaConfig(beta_floor=0.0)
        with pytest.raises(SchedulerError):
            GuritaConfig(update_interval=0.0)

    @pytest.mark.parametrize("mode", ["bogus", "", "Literal"])
    def test_unknown_wrr_weight_mode_rejected(self, mode):
        with pytest.raises(SchedulerError, match="wrr_weight_mode"):
            GuritaConfig(wrr_weight_mode=mode)

    @pytest.mark.parametrize("utilization", [-0.5, 0.0, 1.0, 1.5])
    def test_wrr_utilization_outside_unit_interval_rejected(self, utilization):
        with pytest.raises(SchedulerError, match="wrr_utilization"):
            GuritaConfig(wrr_utilization=utilization)

    def test_wrr_settings_in_range_accepted(self):
        config = GuritaConfig(wrr_weight_mode="literal", wrr_utilization=0.5)
        assert config.wrr_weight_mode == "literal"
        assert config.wrr_utilization == 0.5


class TestStarvationRequest:
    def test_wrr_when_mitigation_on(self):
        request = build_request(GuritaConfig(), {1: 0})
        assert request.mode is AllocationMode.WRR

    def test_spq_when_mitigation_off(self):
        request = build_request(
            GuritaConfig(starvation_mitigation=False), {1: 0}
        )
        assert request.mode is AllocationMode.SPQ


def _two_stage_job(ids, first_sizes, second_sizes):
    builder = JobBuilder(ids=ids)
    first = builder.add_coflow([(i, 50 + i, s) for i, s in enumerate(first_sizes)])
    second = builder.add_coflow(
        [(i, 60 + i, s) for i, s in enumerate(second_sizes)],
        depends_on=[first],
    )
    return builder.build(), first, second


class TestHeadReceiver:
    def test_no_decisions_before_release(self, ids):
        job, _f, _s = _two_stage_job(ids, [100.0], [10.0])
        hr = HeadReceiver(job, GuritaConfig())
        assert hr.decide(AvaCriticalPathEstimator()) == []

    def test_decides_for_running_stage_only(self, ids):
        job, first, _second = _two_stage_job(ids, [100.0], [10.0])
        for coflow in job.arrive(0.0):
            coflow.release(0.0)
        hr = HeadReceiver(job, GuritaConfig())
        decisions = hr.decide(AvaCriticalPathEstimator())
        assert [d.coflow_id for d in decisions] == [first]
        assert decisions[0].stage == 1

    def test_heavier_observation_demotes(self, ids):
        config = GuritaConfig(psi_first=100.0, psi_base=10.0)
        job, first, _second = _two_stage_job(
            ids, [1000.0, 10.0, 10.0], [1.0]
        )
        for coflow in job.arrive(0.0):
            coflow.release(0.0)
        coflow = job.coflow(first)
        hr = HeadReceiver(job, config)
        # Nothing observed: psi 0 -> top class.
        assert hr.decide(AvaCriticalPathEstimator())[0].priority_class == 0
        # One elephant flow races ahead: beta ~ 1, width 3, lmax 600.
        coflow.flows[0].rate = 100.0
        coflow.flows[0].advance(6.0)
        decision = hr.decide(AvaCriticalPathEstimator())[0]
        assert decision.psi > 100.0
        assert decision.priority_class >= 1

    def test_stage_psi_sums_parallel_coflows(self, ids):
        builder = JobBuilder(ids=ids)
        a = builder.add_coflow([(0, 1, 100.0)])
        b = builder.add_coflow([(2, 3, 100.0)])
        job = builder.build()
        for coflow in job.arrive(0.0):
            coflow.release(0.0)
        for coflow in job.coflows:
            coflow.flows[0].rate = 10.0
            coflow.flows[0].advance(1.0)
        hr = HeadReceiver(job, GuritaConfig(critical_path_bonus=0.0))
        decisions = hr.decide(AvaCriticalPathEstimator())
        assert len(decisions) == 2
        total = sum(d.psi for d in decisions)
        for decision in decisions:
            assert decision.stage_psi == pytest.approx(total)


class TestGuritaHooks:
    def test_new_coflows_start_at_top_priority(self, ids):
        scheduler = GuritaScheduler()
        job, first, _second = _two_stage_job(ids, [100.0], [10.0])
        scheduler.on_job_arrival(job, 0.0)
        released = job.arrive(0.0)
        for coflow in released:
            coflow.release(0.0)
            scheduler.on_coflow_release(coflow, 0.0)
        flow = job.coflow(first).flows[0]
        request = scheduler.allocation([flow], 0.0)
        assert request.priorities[flow.flow_id] == 0

    def test_promotion_does_not_touch_inflight_flows(self, ids):
        scheduler = GuritaScheduler()
        job, first, _second = _two_stage_job(ids, [100.0], [10.0])
        scheduler.on_job_arrival(job, 0.0)
        scheduler.context = _FakeContext(job)
        for coflow in job.arrive(0.0):
            coflow.release(0.0)
            scheduler.on_coflow_release(coflow, 0.0)
        # Demote then attempt to promote.
        assert scheduler._apply_decision(first, 2) is True
        flow_id = job.coflow(first).flows[0].flow_id
        assert scheduler._flow_class[flow_id] == 2
        assert scheduler._apply_decision(first, 0) is False
        # In-flight flow keeps its old (demoted) priority.
        assert scheduler._flow_class[flow_id] == 2
        # But the coflow-level class for future flows improved.
        assert scheduler._coflow_class[first] == 0

    def test_released_flows_inherit_demoted_job_class(self, ids):
        """Regression (§IV.B demotion rule): a coflow released while its
        job is demoted must inherit the job's current class, not reset to
        class 0 and cut the line until the next δ-round."""
        scheduler = GuritaScheduler()
        builder = JobBuilder(ids=ids)
        a = builder.add_coflow([(0, 1, 100.0)])
        blocker = builder.add_coflow([(2, 3, 5000.0)])
        after_a = builder.add_coflow([(4, 5, 10.0)], depends_on=[a])
        job = builder.build()
        scheduler.on_job_arrival(job, 0.0)
        scheduler.context = _FakeContext(job)
        for coflow in job.arrive(0.0):
            coflow.release(0.0)
            scheduler.on_coflow_release(coflow, 0.0)
        # The δ-round demotes the heavy running stage (mirrors on_update's
        # bookkeeping: apply the decision, then record the job class).
        scheduler._apply_decision(blocker, 2)
        scheduler._job_class[job.job_id] = 2
        # Coflow a completes; after_a releases while blocker still runs.
        for flow in job.coflow(a).flows:
            flow.rate = 1.0
            flow.advance(100.0)
            flow.finish(100.0)
        scheduler.on_coflow_finish(job.coflow(a), 100.0)
        released = job.coflow(after_a)
        released.release(100.0)
        scheduler.on_coflow_release(released, 100.0)
        assert scheduler._coflow_class[after_a] == 2
        for flow in released.flows:
            assert scheduler._flow_class[flow.flow_id] == 2
            request = scheduler.allocation([flow], 100.0)
            assert request.priorities[flow.flow_id] == 2

    def test_job_class_resets_when_demoted_stage_finishes(self, ids):
        """Stage sensitivity: once the demoted stage completes, the job's
        class is recomputed from the still-running stages, so the next
        stage starts back at the top queue (unlike Aalo's accumulation)."""
        scheduler = GuritaScheduler()
        job, first, second = _two_stage_job(ids, [100.0], [10.0])
        scheduler.on_job_arrival(job, 0.0)
        scheduler.context = _FakeContext(job)
        for coflow in job.arrive(0.0):
            coflow.release(0.0)
            scheduler.on_coflow_release(coflow, 0.0)
        scheduler._apply_decision(first, 3)
        scheduler._job_class[job.job_id] = 3
        for flow in job.coflow(first).flows:
            flow.rate = 1.0
            flow.advance(100.0)
            flow.finish(100.0)
        scheduler.on_coflow_finish(job.coflow(first), 100.0)
        assert scheduler._job_class[job.job_id] == 0
        released = job.coflow(second)
        released.release(100.0)
        scheduler.on_coflow_release(released, 100.0)
        for flow in released.flows:
            assert scheduler._flow_class[flow.flow_id] == 0


class TestGuritaPlus:
    def test_no_periodic_updates(self):
        assert GuritaPlusScheduler().update_interval is None

    def test_critical_sets_tracked_per_job(self, ids):
        scheduler = GuritaPlusScheduler()
        job, first, second = _two_stage_job(ids, [100.0], [10.0])
        scheduler.on_job_arrival(job, 0.0)
        assert scheduler._critical_sets[job.job_id] == {first, second}
        scheduler.on_job_finish(job, 1.0)
        assert job.job_id not in scheduler._critical_sets
