"""Max-min fair rate allocation by progressive filling.

This is the simulator's model of TCP sharing (the paper implements "a rate
limiter that behaves like TCP"): flows traversing a bottleneck link share it
equally, and no flow can increase its rate without decreasing that of a flow
with an equal or smaller rate (Bertsekas & Gallager's water-filling).

This is the hot path of the whole simulator, and it has one round loop
(:func:`_water_fill_scalar`).  It maintains the per-link fair-share
vector *incrementally*: the full vector is derived once per fill, then
each round only finds its minimum, freezes the members of the bottleneck
links, and recomputes the share at only the links those flows touched;
a link's count hits zero the round it bottlenecks, so each member list
is scanned at most once per fill.  Within one round every frozen flow
subtracts the *same* bottleneck share from its links, which keeps the
rates bit-identical to the historical full-recompute loop.  There is
deliberately no numpy-vectorised round loop: a CSR one lost on every
measured workload (``docs/performance.md``, "Deleted alternatives").

The membership structures (which flows cross which link) are factored into
:class:`LinkMembership` so the incremental engine
(:mod:`repro.simulator.bandwidth.engine`) can keep them alive across
allocation epochs and mutate them by flow add/remove deltas instead of
rebuilding them on every call.  The from-scratch entry point
(:func:`allocate_maxmin`) builds a fresh membership per call; it is the
reference the engine is tested against, not a runtime path.

Float comparisons against the bottleneck share and against exhausted
residual capacity are routed through the blessed helpers
:func:`share_at_most` / :func:`capacity_exhausted` (the
:mod:`repro.simulator.timecmp` discipline applied to rates): capacities
revoked to zero by fault injection, or degraded to within ``_EPSILON`` of
zero, must freeze their flows instead of spinning the progressive-filling
loop on sub-epsilon residuals.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple, Union

import numpy as np
import numpy.typing as npt

from repro.simulator.hotpath import hot_path
from repro.simulator.units import BytesPerSec

#: Rate tolerance for freeze/exhaustion comparisons (bytes/second).
_EPSILON: BytesPerSec = 1e-9


def share_at_most(
    shares: npt.NDArray[np.float64],
    bottleneck: BytesPerSec,
    out: Union[npt.NDArray[np.bool_], None] = None,
) -> npt.NDArray[np.bool_]:
    """Blessed comparison: which ``shares`` equal ``bottleneck`` within
    tolerance?

    The absolute ``_EPSILON`` slack mirrors the historical behaviour (and
    keeps the figure fingerprints bit-identical); links whose fair share
    ties with the bottleneck within it freeze in the same round instead of
    spinning one near-empty round each.  ``out`` lets the hot loop reuse
    a round-scratch buffer.
    """
    result: npt.NDArray[np.bool_] = np.less_equal(
        shares, bottleneck + _EPSILON, out=out
    )
    return result


def capacity_exhausted(capacity: BytesPerSec) -> bool:
    """Blessed comparison: is a residual capacity effectively zero?

    Fault-degraded links (``set_capacity`` to zero, or drift within
    ``_EPSILON`` of it) cannot host progress; their flows must freeze at
    share zero rather than keep the filling loop alive.
    """
    return capacity <= _EPSILON

#: A flow's route: the directed link ids it traverses.
Route = Tuple[int, ...]

class LinkMembership:
    """Per-link flow membership: who crosses each link, and how many.

    Holds exactly the structures the water-filling loop needs — a route per
    flow, an insertion-ordered member table per link, and a per-link count
    vector — and supports O(|route|) add/remove so the incremental engine
    can maintain one instance across allocation epochs.

    ``link_members`` maps link id -> insertion-ordered dict used as an
    ordered set (values are ``None``); deterministic iteration order is what
    keeps engine allocations reproducible run to run.
    """

    __slots__ = ("num_links", "routes", "counts", "link_members", "route_arrays")

    def __init__(self, num_links: int) -> None:
        self.num_links = num_links
        self.routes: Dict[int, Route] = {}
        self.counts: npt.NDArray[np.int64] = np.zeros(num_links, dtype=np.int64)
        self.link_members: Dict[int, Dict[int, None]] = {}
        #: per-flow route as an index array, kept in lockstep with
        #: ``routes`` — ``wrr.allocate_wrr_memberships`` gathers these for
        #: its ``np.add.at`` charges instead of converting tuples per call.
        self.route_arrays: Dict[int, npt.NDArray[np.intp]] = {}

    @classmethod
    def from_routes(
        cls, flow_routes: Mapping[int, Route], num_links: int
    ) -> "LinkMembership":
        """Build membership from scratch."""
        membership = cls(num_links)
        for flow_id, route in flow_routes.items():
            membership.add(flow_id, route)
        return membership

    def add(self, flow_id: int, route: Route) -> None:
        if flow_id in self.routes:
            raise ValueError(f"flow {flow_id} already in membership")
        self.routes[flow_id] = route
        self.route_arrays[flow_id] = np.asarray(route, dtype=np.intp)
        for link_id in route:
            self.counts[link_id] += 1
            members = self.link_members.get(link_id)
            if members is None:
                # setdefault(link_id, {}) paid for an empty dict on every
                # hop; this allocates only when a link gains its first
                # member.
                members = self.link_members[link_id] = {}  # simlint: ignore[SIM202] (first-member only)
            members[flow_id] = None

    def remove(self, flow_id: int) -> None:
        route = self.routes.pop(flow_id)
        del self.route_arrays[flow_id]
        for link_id in route:
            self.counts[link_id] -= 1
            members = self.link_members[link_id]
            del members[flow_id]
            if not members:
                del self.link_members[link_id]

    def __len__(self) -> int:
        return len(self.routes)

    def __contains__(self, flow_id: int) -> bool:
        return flow_id in self.routes


@hot_path
def water_fill_membership(
    membership: LinkMembership,
    residual: npt.NDArray[np.float64],
) -> Dict[int, BytesPerSec]:
    """Max-min fair rates for ``membership`` within ``residual`` capacity.

    The core of :func:`water_fill`, operating on prebuilt membership
    structures.  ``membership`` is *not* mutated (the per-link counts are
    copied); ``residual`` *is* mutated — allocated bandwidth is subtracted
    and tiny negative drift is clamped — so callers can layer allocations,
    e.g. one priority class after another.
    """
    rates: Dict[int, BytesPerSec] = {}
    if not membership.routes:
        return rates

    _water_fill_scalar(membership, residual, rates)

    # Clean up float drift: clamp tiny negative residuals to zero.
    np.clip(residual, 0.0, None, out=residual)
    return rates


@hot_path
def _water_fill_scalar(
    membership: LinkMembership,
    res: npt.NDArray[np.float64],
    rates: Dict[int, BytesPerSec],
) -> None:
    """Progressive filling with an incrementally maintained share vector.

    Writes each flow's rate into ``rates`` and subtracts the allocated
    bandwidth from ``res`` in place.
    """
    routes = membership.routes
    shares = np.empty_like(res)
    num_buf = np.empty_like(res)
    mask_buf = np.empty(res.size, dtype=bool)

    # Initial share vector — same floats as the historical np.where
    # formulation: divide only where counts > 0, +inf everywhere else.
    # Subsequent rounds update *touched links only* with the identical
    # scalar formula (max(res, 0) / count), so every round sees exactly
    # the share vector the full recompute would have produced.
    shares.fill(np.inf)
    np.maximum(res, 0.0, out=num_buf)
    np.greater(membership.counts, 0, out=mask_buf)
    np.divide(num_buf, membership.counts, out=shares, where=mask_buf)

    # Round state lives in plain python containers — scalar list indexing
    # is several times cheaper than numpy item access at these sizes.
    # ``res`` is written back below (all float arithmetic is IEEE double
    # either way — bit-identical).
    link_members = membership.link_members
    res_l: List[float] = res.tolist()
    counts_l: List[int] = membership.counts.tolist()
    inf = np.inf

    frozen: Dict[int, None] = {}
    remaining = len(routes)
    while remaining > 0:
        bottleneck_share = float(shares.min())
        if not np.isfinite(bottleneck_share):
            # Remaining flows traverse no contended link (empty routes, or
            # inconsistent membership) — they cannot be rate-limited here.
            for flow_id in routes:
                if flow_id not in frozen:
                    rates[flow_id] = 0.0
            break
        bottleneck_links = (
            share_at_most(shares, bottleneck_share, out=mask_buf)
            .nonzero()[0]
            .tolist()
        )
        # A link's count hits zero the round it bottlenecks, so each
        # link's member list is scanned at most once per fill — skipping
        # already-frozen members with a dict check beats maintaining
        # shrunken member copies.
        newly_frozen: List[int] = []  # simlint: ignore[SIM202] (per-round scratch, bounded by flows frozen this round)
        for link_id in bottleneck_links:
            members = link_members.get(link_id)
            if members:
                for flow_id in members:
                    if flow_id not in frozen:
                        frozen[flow_id] = None
                        newly_frozen.append(flow_id)
        if not newly_frozen:
            # Defensive: should be impossible, but never spin forever.
            for flow_id in routes:
                if flow_id not in frozen:
                    rates[flow_id] = bottleneck_share
            break
        for flow_id in newly_frozen:
            rates[flow_id] = bottleneck_share
            route = routes[flow_id]
            for link_id in route:
                res_l[link_id] -= bottleneck_share
                counts_l[link_id] -= 1
            # Refresh the touched links' shares right away; a link shared
            # with a later flow of this round just gets recomputed again,
            # and only the final value is ever read (next round's min).
            for link_id in route:
                count = counts_l[link_id]
                if count > 0:
                    residual = res_l[link_id]
                    shares[link_id] = (
                        residual if residual > 0.0 else 0.0
                    ) / count
                else:
                    shares[link_id] = inf
        remaining -= len(newly_frozen)
    res[:] = res_l


@hot_path
def water_fill(
    flow_routes: Mapping[int, Route],
    residual: Union[npt.NDArray[np.float64], List[float]],
) -> Dict[int, BytesPerSec]:
    """Max-min fair rates for ``flow_routes`` within ``residual`` capacity.

    ``residual`` is indexed by link id and is **mutated** (allocated
    bandwidth is subtracted) so callers can layer allocations, e.g. one
    priority class after another.  Pass a ``numpy.ndarray`` to avoid a
    copy; plain lists are converted (and mutated via slice write-back).

    Builds the membership structures from scratch on every call — the
    incremental engine keeps a persistent :class:`LinkMembership` and calls
    :func:`water_fill_membership` directly instead.

    Returns a rate (bytes/second) for every flow in ``flow_routes``.
    """
    if not flow_routes:
        return {}

    if isinstance(residual, np.ndarray):
        res = residual
    else:
        res = np.asarray(residual, dtype=np.float64)
    membership = LinkMembership.from_routes(flow_routes, len(res))
    rates = water_fill_membership(membership, res)
    if not isinstance(residual, np.ndarray):
        residual[:] = res.tolist()
    return rates


def allocate_maxmin(
    flow_routes: Mapping[int, Route],
    capacities: Sequence[BytesPerSec],
) -> Dict[int, BytesPerSec]:
    """Max-min fair rates against fresh link capacities (non-mutating)."""
    return water_fill(flow_routes, np.array(capacities, dtype=float))
