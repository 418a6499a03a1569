"""Stream — decentralized opportunistic inter-coflow scheduling (ref [14]).

Stream is the paper's decentralized TBS comparator.  Each receiver demotes
its coflows through exponentially spaced priority queues as the *observed*
(received) bytes of the owning job accumulate — no central coordinator, so
information is local and lags the senders.  Stream also leverages the
coflow communication pattern: very wide (many-to-many) coflows are demoted
one extra class because their aggregate traffic is likely to congest
receivers.

Stream is therefore Aalo's D-CLAS (:class:`AaloScheduler`) with two
changes, both in :meth:`StreamScheduler.coflow_class`: the job's bytes
are read from a snapshot refreshed every ``observation_interval``
seconds, and wide coflows drop one class.

The paper's critique (§V): "Stream requires larger jobs to transmit at
lower priority regardless of the amount of bytes sent per stage" — the
accumulated score never resets when a new stage starts.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.jobs.coflow import Coflow
from repro.jobs.job import Job
from repro.schedulers.aalo import AaloScheduler
from repro.schedulers.thresholds import ExponentialThresholds
from repro.simulator.bandwidth.request import DEFAULT_NUM_CLASSES

#: Receivers refresh their local observations at this period (seconds).
DEFAULT_OBSERVATION_INTERVAL = 8e-3

#: Coflows wider than this are demoted one class (many-to-many pattern).
DEFAULT_WIDE_COFLOW = 50


class StreamScheduler(AaloScheduler):
    """Aalo's D-CLAS on lagged receiver observations + width demotion."""

    name = "stream"

    def __init__(
        self,
        num_classes: int = DEFAULT_NUM_CLASSES,
        thresholds: Optional[ExponentialThresholds] = None,
        observation_interval: float = DEFAULT_OBSERVATION_INTERVAL,
        wide_coflow: int = DEFAULT_WIDE_COFLOW,
    ) -> None:
        super().__init__(num_classes, thresholds)
        self.update_interval = observation_interval
        self.wide_coflow = wide_coflow
        #: job id -> bytes observed at receivers as of the last update.
        self._observed_job_bytes: Dict[int, float] = {}

    def on_update(self, now: float) -> bool:
        """Receivers snapshot locally observed bytes (information lag).

        Returns True only when some job's snapshot crossed a priority
        threshold, so the runtime can skip no-op reallocations.
        """
        assert self.context is not None
        changed = False
        for job in self.context.jobs():
            if job.completion_time() is not None:
                continue
            old = self._observed_job_bytes.get(job.job_id, 0.0)
            new = self.context.job_bytes_sent(job.job_id)
            self._observed_job_bytes[job.job_id] = new
            if self.thresholds.class_of(old) != self.thresholds.class_of(new):
                changed = True
        return changed

    def on_job_arrival(self, job: Job, now: float) -> None:
        self._observed_job_bytes.setdefault(job.job_id, 0.0)

    def coflow_class(self, coflow: Coflow) -> int:
        """The job's class as of the last observation, one class lower
        for wide coflows, clamped to the lowest class."""
        observed = self._observed_job_bytes.get(coflow.job_id, 0.0)
        cls = self.thresholds.class_of(observed)
        if coflow.active_width > self.wide_coflow:
            cls += 1
        return min(cls, self.num_classes - 1)
