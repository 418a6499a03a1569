"""Scheduling-policy interface.

A :class:`SchedulerPolicy` observes the lifecycle of jobs/coflows/flows via
hooks and, whenever the runtime reallocates bandwidth, answers with an
:class:`~repro.simulator.bandwidth.request.AllocationRequest` (allocation
mode + per-flow priority classes).  Policies never touch rates directly —
that separation mirrors the paper's deployment story, where schedulers only
set DSCP bits and switches enforce them.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, FrozenSet, List, Optional

from repro.jobs.coflow import Coflow
from repro.jobs.flow import Flow
from repro.jobs.job import Job
from repro.schedulers.context import SchedulerContext
from repro.simulator.bandwidth.request import AllocationRequest

__all__ = ["SchedulerContext", "SchedulerPolicy"]


class SchedulerPolicy(abc.ABC):
    """Base class for all scheduling policies.

    Subclasses override the hooks they care about; every hook has a no-op
    default.  ``update_interval`` (seconds), when set, makes the runtime
    call :meth:`on_update` periodically — this models coordination rounds
    such as Gurita's head-receiver updates (interval δ) or Aalo's
    coordinator epochs.

    :meth:`allocation` returns the complete current class map each round;
    the allocation engine diffs it against the map its class layout was
    filed under, so a policy never reports which flows it re-classed.
    """

    #: Human-readable policy name (used in reports and benchmarks).
    name: str = "base"
    #: Seconds between periodic :meth:`on_update` calls; None disables
    #: them, 0.0 means a coordination round after *every* event batch.
    update_interval: Optional[float] = None

    def __init__(self) -> None:
        self.context: Optional[SchedulerContext] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, context: SchedulerContext) -> None:
        """Called once by the runtime before the simulation starts."""
        self.context = context

    # ------------------------------------------------------------------
    # Checkpoint contract
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """Capture the policy's complete mutable state for a checkpoint.

        The default covers every policy in the tree: a shallow copy of
        ``__dict__`` (policies keep all mutable state in instance
        attributes — priority maps, virtual clocks, head-receiver
        tables, the bound context).  The payload is pickled as part of
        one simulator-wide object graph, so references into shared
        runtime structures (the context's job/coflow/flow dicts) are
        preserved as *references*, not copies.

        Override only if the policy holds unpicklable state; the parity
        suite asserts restore-then-run is bit-identical for every
        registered scheduler.
        """
        return {"class": type(self).__name__, "attrs": dict(self.__dict__)}

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`snapshot_state` (same concrete class only)."""
        from repro.errors import CheckpointError

        if state.get("class") != type(self).__name__:
            raise CheckpointError(
                f"scheduler snapshot is for {state.get('class')!r}, "
                f"cannot restore into {type(self).__name__!r}"
            )
        self.__dict__.update(state["attrs"])

    # ------------------------------------------------------------------
    # Lifecycle hooks (all optional)
    # ------------------------------------------------------------------
    def on_job_arrival(self, job: Job, now: float) -> None:
        """A job arrived; its leaf coflows are about to be released."""

    def on_coflow_release(self, coflow: Coflow, now: float) -> None:
        """A coflow's dependencies completed; its flows just became active."""

    def on_flow_finish(self, flow: Flow, now: float) -> None:
        """A flow delivered its last byte."""

    def on_coflow_finish(self, coflow: Coflow, now: float) -> None:
        """Every flow of the coflow completed."""

    def on_job_finish(self, job: Job, now: float) -> None:
        """Every coflow of the job completed."""

    def on_update(self, now: float) -> Optional[bool]:
        """Periodic coordination round (only if ``update_interval`` set).

        May return ``False`` to tell the runtime that no priority changed,
        letting it skip the (expensive) rate recomputation; returning
        ``True`` or ``None`` forces a reallocation.
        """
        return None

    # ------------------------------------------------------------------
    # Degraded-operation hooks (fault injection; all optional)
    # ------------------------------------------------------------------
    def on_sync_degraded(self, now: float) -> Optional[bool]:
        """A coordination round was dropped or delayed by a fault.

        Called *instead of* :meth:`on_update` for that round.  The default
        — do nothing — is the paper's graceful-degradation baseline:
        receivers keep scheduling on their last-synced (stale) priority
        view rather than blocking.  Policies with a staleness bound may
        adjust priorities locally and return ``True`` to force a
        reallocation; ``False``/``None`` skip it.
        """
        return False

    def on_hosts_changed(self, crashed: FrozenSet[int], now: float) -> None:
        """The set of crashed hosts changed (a crash or a recovery).

        ``crashed`` is the complete current set, not a delta.  Policies
        with host-resident components (e.g. Gurita's head receivers) use
        this to trigger failover elections.
        """

    def on_flow_restart(self, flow: Flow, now: float) -> None:
        """A host crash aborted ``flow`` under the restart-from-zero
        policy: its delivered bytes were discarded.  Policies keeping
        receiver-side byte accounting must reset it here."""

    # ------------------------------------------------------------------
    # The one mandatory method
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def allocation(self, active_flows: List[Flow], now: float) -> AllocationRequest:
        """Return the bandwidth-division instructions for this round."""
