"""Opt-in runtime invariant checking for the flow-level simulator.

Static analysis (``tools/simlint``) catches determinism hazards in the
source; this module guards the *running* simulation against conservation
and causality violations — the failure classes that dominate
simulator-vs-theory gaps in coflow-scheduling evaluations:

* **capacity conservation** — the allocated rate on every link must not
  exceed its capacity (within a relative tolerance for float drift);
* **volume conservation** — no active flow may hold negative remaining
  bytes;
* **event causality** — the event loop must never pop an event earlier
  than the simulation clock (beyond float time resolution);
* **cache coherence** — a sampled audit that rebuilds the incremental
  allocation engine's link memberships from scratch and diffs them against
  the live :class:`~repro.simulator.bandwidth.engine.AllocationState`,
  and checks each membership's slot index against its link view.
  This is the race-detector analogue for the engine's delta-maintained
  caches: a flow the engine's priority diff left in the wrong class
  shows up here, not as a silently wrong JCT.

The checker is **off by default** (zero hot-path cost).  Enable it per run
with ``CoflowSimulation(..., check_invariants=True)`` or process-wide with
the environment variable ``REPRO_INVARIANTS=1`` (``REPRO_INVARIANTS=strict``
additionally raises :class:`~repro.errors.SimulationError` on the first
violation).  Violation counters are surfaced on
:attr:`~repro.simulator.runtime.SimulationResult.invariant_report` and via
:func:`repro.simulator.observability.invariant_counters`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.jobs.flow import VOLUME_EPSILON, Flow
from repro.simulator.bandwidth.engine import AllocationState
from repro.simulator.bandwidth.maxmin import LinkMembership
from repro.simulator.bandwidth.request import AllocationMode, AllocationRequest
from repro.simulator.timecmp import time_resolution

#: Environment variable that switches the checker on without code changes.
INVARIANTS_ENV = "REPRO_INVARIANTS"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def invariants_from_env() -> Tuple[bool, bool]:
    """(enabled, strict) according to :data:`INVARIANTS_ENV`."""
    raw = os.environ.get(INVARIANTS_ENV, "").strip().lower()
    if raw == "strict":
        return True, True
    return raw in _TRUTHY, False


@dataclass(frozen=True)
class InvariantViolation:
    """One recorded invariant violation."""

    kind: str
    time: float
    message: str

    def render(self) -> str:
        return f"[{self.kind}] t={self.time:.9g}: {self.message}"


@dataclass
class InvariantReport:
    """Aggregated outcome of one run's invariant checking."""

    #: individual check invocations (allocations, event pops, audits)
    checks: int = 0
    #: violation count per kind (zero-filled for all kinds)
    counts: Dict[str, int] = field(default_factory=dict)
    #: first few violations, verbatim, for debugging
    examples: List[InvariantViolation] = field(default_factory=list)

    @property
    def total_violations(self) -> int:
        return sum(self.counts.values())

    @property
    def clean(self) -> bool:
        return self.total_violations == 0

    def summary(self) -> str:
        if self.clean:
            return f"invariants: {self.checks} checks, 0 violations"
        per_kind = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.counts.items()) if count
        )
        return (
            f"invariants: {self.checks} checks, "
            f"{self.total_violations} violations ({per_kind})"
        )


class InvariantChecker:
    """Asserts simulator invariants during a run; counts what it finds.

    ``strict=True`` raises :class:`SimulationError` on the first violation
    (the CI mode); otherwise violations are counted and surfaced on the
    final report so a long run is never aborted mid-flight.
    """

    CAPACITY = "capacity"
    NEGATIVE_VOLUME = "negative_volume"
    CAUSALITY = "causality"
    CACHE_COHERENCE = "cache_coherence"
    DOWNED_LINK = "downed_link"
    CRASHED_HOST = "crashed_host"
    KINDS: Tuple[str, ...] = (
        CAPACITY,
        NEGATIVE_VOLUME,
        CAUSALITY,
        CACHE_COHERENCE,
        DOWNED_LINK,
        CRASHED_HOST,
    )

    def __init__(
        self,
        capacities: Sequence[float],
        *,
        relative_tolerance: float = 1e-6,
        audit_interval: int = 64,
        strict: bool = False,
        max_examples: int = 20,
    ) -> None:
        if audit_interval < 1:
            raise SimulationError("audit_interval must be >= 1")
        self._caps: List[float] = [float(c) for c in capacities]
        self.relative_tolerance = relative_tolerance
        self.audit_interval = audit_interval
        self.strict = strict
        self.max_examples = max_examples
        self._counts: Dict[str, int] = {kind: 0 for kind in self.KINDS}
        self._examples: List[InvariantViolation] = []
        self._checks = 0
        self._allocations_since_audit = 0
        #: live fault state mirrored in by the runtime (empty = no faults)
        self._downed_links: Set[int] = set()
        self._crashed_hosts: Set[int] = set()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record(self, kind: str, now: float, message: str) -> None:
        self._counts[kind] += 1
        violation = InvariantViolation(kind=kind, time=now, message=message)
        if len(self._examples) < self.max_examples:
            self._examples.append(violation)
        if self.strict:
            raise SimulationError(f"invariant violation {violation.render()}")

    def report(self) -> InvariantReport:
        return InvariantReport(
            checks=self._checks,
            counts=dict(self._counts),
            examples=list(self._examples),
        )

    # ------------------------------------------------------------------
    # Fault state mirroring (wired by the runtime's fault injector)
    # ------------------------------------------------------------------
    def note_capacity(self, link_id: int, capacity: float) -> None:
        """Mirror a fault-injected capacity revocation/restoration.

        Keeps the conservation check honest during flaps: allocated rate
        is compared against the *revoked* capacity, not the nominal one,
        so an engine that keeps handing out pre-fault bandwidth is a
        violation rather than a silently optimistic run.
        """
        if 0 <= link_id < len(self._caps):
            self._caps[link_id] = float(capacity)

    def note_fault_state(
        self,
        downed_links: Iterable[int],
        crashed_hosts: Iterable[int],
    ) -> None:
        """Mirror the live downed-link / crashed-host sets."""
        self._downed_links = set(downed_links)
        self._crashed_hosts = set(crashed_hosts)

    # ------------------------------------------------------------------
    # Event causality
    # ------------------------------------------------------------------
    def check_event_causality(self, event_time: float, now: float) -> None:
        """The event loop must never pop an event behind the clock."""
        self._checks += 1
        if event_time < now - time_resolution(now):
            self._record(
                self.CAUSALITY,
                now,
                f"popped event at t={event_time!r} behind clock t={now!r}",
            )

    # ------------------------------------------------------------------
    # Conservation (rates and volumes)
    # ------------------------------------------------------------------
    def check_allocation(
        self,
        flows: Iterable[Flow],
        rates: Mapping[int, float],
        now: float,
    ) -> None:
        """Per-link allocated rate <= capacity; no negative volumes.

        With fault state mirrored in (:meth:`note_fault_state`), also
        asserts graceful degradation: no rate on a downed link, and no
        progress credited to a flow whose endpoint host has crashed.
        """
        self._checks += 1
        usage: Dict[int, float] = {}
        for flow in flows:
            rate = rates.get(flow.flow_id, 0.0)
            if rate < 0.0:
                self._record(
                    self.CAPACITY,
                    now,
                    f"flow {flow.flow_id} allocated negative rate {rate!r}",
                )
            if flow.remaining_bytes < -VOLUME_EPSILON:
                self._record(
                    self.NEGATIVE_VOLUME,
                    now,
                    f"flow {flow.flow_id} has negative remaining volume "
                    f"{flow.remaining_bytes!r}",
                )
            if rate > 0.0:
                if self._downed_links:
                    for link_id in flow.route:
                        if link_id in self._downed_links:
                            self._record(
                                self.DOWNED_LINK,
                                now,
                                f"flow {flow.flow_id} allocated rate {rate!r} "
                                f"over downed link {link_id}",
                            )
                if self._crashed_hosts and (
                    flow.src in self._crashed_hosts
                    or flow.dst in self._crashed_hosts
                ):
                    self._record(
                        self.CRASHED_HOST,
                        now,
                        f"flow {flow.flow_id} credited rate {rate!r} while "
                        f"endpoint host is crashed "
                        f"(src={flow.src}, dst={flow.dst})",
                    )
            for link_id in flow.route:
                usage[link_id] = usage.get(link_id, 0.0) + rate
        for link_id in sorted(usage):
            cap = self._caps[link_id]
            allowed = cap * (1.0 + self.relative_tolerance)
            if usage[link_id] > allowed:
                self._record(
                    self.CAPACITY,
                    now,
                    f"link {link_id} allocated {usage[link_id]!r} "
                    f"over capacity {cap!r}",
                )

    # ------------------------------------------------------------------
    # Cache coherence (the incremental engine's delta-maintained caches)
    # ------------------------------------------------------------------
    def maybe_audit_engine(
        self,
        engine: AllocationState,
        flows: Sequence[Flow],
        request: AllocationRequest,
        now: float,
    ) -> bool:
        """Run the from-scratch audit on every ``audit_interval``-th call."""
        self._allocations_since_audit += 1
        if self._allocations_since_audit < self.audit_interval:
            return False
        self._allocations_since_audit = 0
        self.audit_engine(engine, flows, request, now)
        return True

    def audit_engine(
        self,
        engine: AllocationState,
        flows: Sequence[Flow],
        request: AllocationRequest,
        now: float,
    ) -> None:
        """Rebuild memberships from the runtime's ground truth and diff.

        ``flows`` is the runtime's active set *after* the allocation round,
        i.e. the state the engine's caches claim to mirror.
        """
        self._checks += 1
        expected_routes = {flow.flow_id: flow.route for flow in flows}
        actual_routes = dict(engine.all_flows.routes)
        if actual_routes != expected_routes:
            missing = sorted(set(expected_routes) - set(actual_routes))
            stale = sorted(set(actual_routes) - set(expected_routes))
            wrong = [
                fid
                for fid in sorted(set(expected_routes) & set(actual_routes))
                if expected_routes[fid] != actual_routes[fid]
            ]
            self._record(
                self.CACHE_COHERENCE,
                now,
                "engine membership diverged from active flows "
                f"(missing={missing[:5]}, stale={stale[:5]}, "
                f"wrong_route={wrong[:5]})",
            )
            return  # per-link diffs below would just repeat the story

        expected_counts: Dict[int, int] = {}
        expected_members: Dict[int, Set[int]] = {}
        for flow_id, route in expected_routes.items():
            for link_id in route:
                expected_counts[link_id] = expected_counts.get(link_id, 0) + 1
                expected_members.setdefault(link_id, set()).add(flow_id)
        actual_members = {
            link_id: set(members)
            for link_id, members in engine.all_flows.link_members.items()
        }
        if actual_members != expected_members:
            self._record(
                self.CACHE_COHERENCE,
                now,
                "engine per-link member sets diverged from a from-scratch "
                "rebuild",
            )
        for link_id in sorted(expected_counts):
            actual = int(engine.all_flows.counts[link_id])
            if actual != expected_counts[link_id]:
                self._record(
                    self.CACHE_COHERENCE,
                    now,
                    f"link {link_id} member count {actual} != rebuilt "
                    f"{expected_counts[link_id]}",
                )

        memberships = [engine.all_flows] + list(engine.class_members or ())
        for membership in memberships:
            self._audit_slot_index(membership, now)
        self._audit_class_layout(engine, expected_routes, request, now)

    def _audit_slot_index(self, membership: LinkMembership, now: float) -> None:
        """The fill's slot index must mirror the membership's link view.

        Live slots agree with ``link_members`` and ``counts``, dormant
        slots are empty, no link holds two slots, and every flow's slot
        route maps back to its route.
        """
        link_members = membership.link_members
        slot_links = membership.slot_links
        problems: List[str] = []
        if len(set(slot_links)) != len(slot_links):
            problems.append("a link holds two slots")
        if len(membership.slot_of) != len(slot_links):
            problems.append(
                f"slot_of maps {len(membership.slot_of)} links for "
                f"{len(slot_links)} slots"
            )
        live = 0
        for slot, link_id in enumerate(slot_links):
            members = membership.slot_members[slot]
            count = membership.slot_counts[slot]
            if membership.slot_of.get(link_id) != slot:
                problems.append(f"slot_of[{link_id}] is not slot {slot}")
            if count:
                live += 1
                if (
                    link_members.get(link_id) is not members
                    or count != len(members)
                    or count != int(membership.counts[link_id])
                ):
                    problems.append(f"live slot {slot} (link {link_id}) is stale")
            elif members or link_id in link_members:
                problems.append(f"dormant slot {slot} (link {link_id}) is occupied")
        if live != len(link_members):
            problems.append(
                f"{live} live slots for {len(link_members)} occupied links"
            )
        slot_routes = membership.slot_routes
        for flow_id in sorted(membership.routes):
            mapped = [
                slot_links[slot]
                for slot in slot_routes.get(flow_id, ())
                if 0 <= slot < len(slot_links)
            ]
            if mapped != list(membership.routes[flow_id]):
                problems.append(f"flow {flow_id} slot route maps elsewhere")
        if len(slot_routes) != len(membership.routes):
            problems.append("slot routes and routes hold different flows")
        if problems:
            self._record(
                self.CACHE_COHERENCE,
                now,
                "membership slot index diverged from its link view: "
                + "; ".join(problems[:3]),
            )

    def _audit_class_layout(
        self,
        engine: AllocationState,
        expected_routes: Mapping[int, Tuple[int, ...]],
        request: AllocationRequest,
        now: float,
    ) -> None:
        """Per-class memberships must mirror the latest request's classes."""
        if request.mode is AllocationMode.MAXMIN:
            return  # class caches unused (possibly stale by design)
        class_members = engine.class_members
        if class_members is None or engine.num_classes != request.num_classes:
            return  # engine rebuilds lazily on the next classed request
        class_of = engine.class_of
        for flow_id in sorted(expected_routes):
            expected_cls = request.priorities.get(flow_id, request.num_classes - 1)
            expected_cls = min(max(expected_cls, 0), request.num_classes - 1)
            actual_cls = class_of.get(flow_id)
            if actual_cls != expected_cls:
                self._record(
                    self.CACHE_COHERENCE,
                    now,
                    f"flow {flow_id} cached in class {actual_cls}, request "
                    f"says {expected_cls} (priority change not filed)",
                )
        for cls, membership in enumerate(class_members):
            for flow_id in sorted(membership.routes):
                if class_of.get(flow_id) != cls:
                    self._record(
                        self.CACHE_COHERENCE,
                        now,
                        f"flow {flow_id} present in class-{cls} membership "
                        f"but class map says {class_of.get(flow_id)}",
                    )
