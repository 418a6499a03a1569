"""Max-min fair rate allocation by progressive filling.

This is the simulator's model of TCP sharing (the paper implements "a rate
limiter that behaves like TCP"): flows traversing a bottleneck link share it
equally, and no flow can increase its rate without decreasing that of a flow
with an equal or smaller rate (Bertsekas & Gallager's water-filling).

This is the hot path of the whole simulator, and it has one round loop
(:func:`_water_fill_scalar`).  It runs in the membership's *slot space*:
a compact numbering of the links the membership occupies, kept by
:class:`LinkMembership` across fills.  A fill gathers the residual at
those slots, derives the share vector once, then each round only finds
its minimum, freezes the members of the bottleneck links (visited in
link-id order) and recomputes the share at the slots those flows
touched; a link's count hits zero the round it bottlenecks, so each
member list is scanned at most once per fill.  Within one round every
frozen flow subtracts the *same* bottleneck share from its links, which
keeps the rates bit-identical to the historical full-recompute loop.
Only the slots are written back, so a fill costs O(occupied links), not
O(fabric): at FatTree k=16 a fill touches about 640 of 6,144 links.
There is deliberately no numpy-vectorised round loop and no heap: both
lost on every measured workload (``docs/performance.md``, "Deleted
alternatives").

The membership structures (which flows cross which link) live in
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

import math
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

#: Dormant slots a membership tolerates before it compacts its slot space
#: (see :meth:`LinkMembership.remove`).
_COMPACT_FLOOR = 64

#: The global (link-id-indexed) view: the fields that are pickled.  The
#: slot index is derived state, rebuilt on unpickling.
_GLOBAL_VIEW = ("num_links", "routes", "counts", "link_members", "route_arrays")


class LinkMembership:
    """Per-link flow membership: who crosses each link, and how many.

    Holds exactly the structures the water-filling loop needs and
    supports O(|route|) add/remove, so the incremental engine can
    maintain one instance across allocation epochs.  There are two views
    of the same membership.

    The **global view**, indexed by link id:

    * ``routes`` — flow id -> route;
    * ``link_members`` — link id -> insertion-ordered dict used as an
      ordered set (values are ``None``); deterministic iteration order is
      what keeps allocations reproducible run to run;
    * ``counts`` — per-link member count over all ``num_links`` links;
    * ``route_arrays`` — each route as an index array, for the
      ``np.add.at`` charges in :mod:`repro.simulator.bandwidth.wrr`.

    The **slot index**, a compact numbering of the links the membership
    occupies, which the fill loop runs in:

    * ``slot_of`` — link id -> slot; ``slot_links`` — slot -> link id;
    * ``slot_counts`` — member count per slot;
    * ``slot_members`` — member dict per slot, the same dict objects as
      ``link_members``;
    * ``slot_routes`` — flow id -> the flow's route as slots.

    A link whose count drops to zero keeps its slot as a *dormant* slot
    and revives it when re-occupied, so no link ever has two slots.  Once
    dormant slots outnumber live ones (beyond ``_COMPACT_FLOOR``), the
    slot space is rebuilt in ascending link order.  Slot numbering never
    reaches the output: the fill orders bottlenecks by link id.
    """

    __slots__ = _GLOBAL_VIEW + (
        "slot_of",
        "slot_links",
        "slot_counts",
        "slot_members",
        "slot_routes",
        "_slot_array",
    )

    def __init__(self, num_links: int) -> None:
        self.num_links = num_links
        self.routes: Dict[int, Route] = {}
        self.counts: npt.NDArray[np.int64] = np.zeros(num_links, dtype=np.int64)
        self.link_members: Dict[int, Dict[int, None]] = {}
        self.route_arrays: Dict[int, npt.NDArray[np.intp]] = {}
        self.compact_slots()  # an empty slot index

    @classmethod
    def from_routes(
        cls, flow_routes: Mapping[int, Route], num_links: int
    ) -> "LinkMembership":
        """Build membership from scratch."""
        membership = cls(num_links)
        for flow_id, route in flow_routes.items():
            membership.add(flow_id, route)
        return membership

    def __getstate__(self) -> Tuple[None, Dict[str, object]]:
        # Only the global view, in the layout default ``__slots__``
        # pickling uses; ``__setstate__`` rebuilds the slot index.
        return None, {name: getattr(self, name) for name in _GLOBAL_VIEW}

    def __setstate__(self, state: Tuple[None, Dict[str, object]]) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self.compact_slots()

    @hot_path
    def compact_slots(self) -> None:
        """Renumber the slot space over the occupied links, in ascending
        link order, dropping every dormant slot."""
        link_members = self.link_members
        slot_links = sorted(link_members)
        slot_of = {link_id: slot for slot, link_id in enumerate(slot_links)}
        self.slot_of = slot_of
        self.slot_links = slot_links
        self.slot_members = [link_members[link_id] for link_id in slot_links]
        self.slot_counts = [len(members) for members in self.slot_members]
        self.slot_routes: Dict[int, List[int]] = {
            flow_id: [slot_of[link_id] for link_id in route]
            for flow_id, route in self.routes.items()
        }
        self._slot_array: Union[npt.NDArray[np.intp], None] = None

    @hot_path
    def slot_array(self) -> npt.NDArray[np.intp]:
        """``slot_links`` as an index array (cached until a slot opens)."""
        array = self._slot_array
        if array is None:
            array = self._slot_array = np.array(self.slot_links, dtype=np.intp)
        return array

    def add(self, flow_id: int, route: Route) -> None:
        if flow_id in self.routes:
            raise ValueError(f"flow {flow_id} already in membership")
        if len(set(route)) != len(route):
            raise ValueError(f"flow {flow_id} route {route} repeats a link")
        self.routes[flow_id] = route
        self.route_arrays[flow_id] = np.asarray(route, dtype=np.intp)
        counts = self.counts
        slot_of = self.slot_of
        slot_links = self.slot_links
        slot_counts = self.slot_counts
        slot_members = self.slot_members
        slot_route: List[int] = []
        for link_id in route:
            counts[link_id] += 1
            slot = slot_of.get(link_id)
            if slot is None:
                # First occupation opens the next slot.  A link never
                # holds two slots, so the slot lists stay within
                # num_links (and compaction drops the dormant ones).
                slot = slot_of[link_id] = len(slot_links)
                members: Dict[int, None] = {}  # simlint: ignore[SIM202] (first occupation only)
                self.link_members[link_id] = members
                slot_links.append(link_id)
                slot_counts.append(0)
                slot_members.append(members)
                self._slot_array = None
            elif not slot_counts[slot]:
                # Revive a dormant slot, member dict and all.
                self.link_members[link_id] = slot_members[slot]
            slot_counts[slot] += 1
            slot_members[slot][flow_id] = None
            slot_route.append(slot)
        self.slot_routes[flow_id] = slot_route

    def remove(self, flow_id: int) -> None:
        route = self.routes.pop(flow_id)
        del self.route_arrays[flow_id]
        counts = self.counts
        slot_counts = self.slot_counts
        slot_members = self.slot_members
        for link_id, slot in zip(route, self.slot_routes.pop(flow_id)):
            counts[link_id] -= 1
            slot_counts[slot] -= 1
            members = slot_members[slot]
            del members[flow_id]
            if not members:
                del self.link_members[link_id]
        live = len(self.link_members)
        dormant = len(self.slot_links) - live
        if dormant > live and dormant > _COMPACT_FLOOR:
            self.compact_slots()

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
    """Progressive filling in the membership's slot space.

    Writes each flow's rate into ``rates`` and subtracts the allocated
    bandwidth from ``res`` in place.  Only the slot links of ``res`` are
    read or written; every other link carries no member of this fill.
    """
    routes = membership.routes
    slot_routes = membership.slot_routes
    slot_links = membership.slot_links
    slot_members = membership.slot_members
    slots = membership.slot_array()
    res_s = res[slots]
    counts_s = membership.counts[slots]

    # Initial shares — per element the same floats as the historical
    # full-width np.where formulation: divide only where counts > 0, +inf
    # elsewhere (dormant slots).  Later rounds update only the slots a
    # frozen flow touches, with the identical scalar formula
    # (max(res, 0) / count).
    inf = np.inf
    shares = np.full(slots.size, inf)
    mask_buf = np.greater(counts_s, 0)
    np.divide(np.maximum(res_s, 0.0), counts_s, out=shares, where=mask_buf)

    # Round state lives in plain python lists sized to the slot count —
    # scalar list indexing is several times cheaper than numpy item
    # access.  ``res`` is written back below (all float arithmetic is
    # IEEE double either way — bit-identical).
    res_l: List[float] = res_s.tolist()
    counts_l = membership.slot_counts.copy()

    frozen: Dict[int, None] = {}
    remaining = len(routes)
    while remaining > 0:
        bottleneck_share = float(np.minimum.reduce(shares, initial=inf))
        if not math.isfinite(bottleneck_share):
            # Remaining flows traverse no contended link (empty routes, or
            # inconsistent membership) — they cannot be rate-limited here.
            for flow_id in routes:
                if flow_id not in frozen:
                    rates[flow_id] = 0.0
            break
        bottleneck_slots = (
            share_at_most(shares, bottleneck_share, out=mask_buf)
            .nonzero()[0]
            .tolist()
        )
        # Visit bottlenecks in link-id order, whatever their slots: frozen
        # order is ``rates`` insertion order, which the WRR charges in
        # ``wrr.py`` depend on for bit-identity.
        bottleneck_slots.sort(key=slot_links.__getitem__)
        # A link's count hits zero the round it bottlenecks, so each
        # link's member list is scanned at most once per fill — skipping
        # already-frozen members with a dict check beats maintaining
        # shrunken member copies.
        newly_frozen: List[int] = []  # simlint: ignore[SIM202] (per-round scratch, bounded by flows frozen this round)
        for slot in bottleneck_slots:
            for flow_id in slot_members[slot]:
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
            # One pass per hop: a route never repeats a link, so each
            # share is recomputed after that link's last decrement of the
            # flow.  A slot shared with a later flow of this round just
            # gets recomputed again; only next round's min reads it.
            for slot in slot_routes[flow_id]:
                residual = res_l[slot] - bottleneck_share
                res_l[slot] = residual
                count = counts_l[slot] - 1
                counts_l[slot] = count
                if count > 0:
                    shares[slot] = (residual if residual > 0.0 else 0.0) / count
                else:
                    shares[slot] = inf
        remaining -= len(newly_frozen)
    res[slots] = res_l


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
