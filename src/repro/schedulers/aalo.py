"""Aalo — centralized coflow scheduling without prior knowledge (ref [5]).

Aalo's Discretized Coflow-Aware Least-Attained-Service (D-CLAS) demotes a
coflow through exponentially spaced priority queues as its *accumulated
bytes sent* grow.  It is the paper's centralized comparator: a coordinator
with a global view of bytes sent, and no coordinator latency (§V, "Aalo's
additional delay ... is not considered").

The view is global but not instantaneous.  Aalo declares no
``update_interval``, so it re-reads bytes sent only when the runtime
reallocates, i.e. at each event batch: a job that crosses a D-CLAS
threshold between flow events is demoted at the next batch.  Forcing
1 ms or 0.1 ms refreshes on FB-t (40 jobs) moved average JCT by about
0.1% (0.39631 s → 0.39592 s) at 5× / 40× the events, so the batch-grained
view is kept.

Following the paper's critique of TBS schemes, attained service accumulates
at the *job* level across stages: a job that transmitted heavily in early
stages keeps its demoted priority in later stages, which is exactly the
behaviour Gurita's per-stage blocking effect avoids.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.jobs.coflow import Coflow
from repro.jobs.flow import Flow
from repro.schedulers.base import SchedulerPolicy
from repro.schedulers.thresholds import ExponentialThresholds
from repro.simulator.bandwidth.request import (
    DEFAULT_NUM_CLASSES,
    AllocationMode,
    AllocationRequest,
)


class AaloScheduler(SchedulerPolicy):
    """Centralized D-CLAS over job-level accumulated bytes sent.

    Subclasses change what a job's class is read from by overriding
    :meth:`coflow_class`; the request shape stays the same.
    """

    name = "aalo"

    def __init__(
        self,
        num_classes: int = DEFAULT_NUM_CLASSES,
        thresholds: Optional[ExponentialThresholds] = None,
    ) -> None:
        super().__init__()
        self.num_classes = num_classes
        self.thresholds = (
            thresholds
            if thresholds is not None
            else ExponentialThresholds(num_classes)
        )

    def coflow_class(self, coflow: Coflow) -> int:
        """Priority class of ``coflow``'s flows, from its job's bytes sent."""
        assert self.context is not None
        # Global view: exact bytes sent so far by the whole job.
        return self.thresholds.class_of(self.context.job_bytes_sent(coflow.job_id))

    def allocation(self, active_flows: List[Flow], now: float) -> AllocationRequest:
        assert self.context is not None
        priorities: Dict[int, int] = {
            flow.flow_id: self.coflow_class(self.context.coflow(flow.coflow_id))
            for flow in active_flows
        }
        return AllocationRequest(
            mode=AllocationMode.SPQ,
            priorities=priorities,
            num_classes=self.num_classes,
        )
