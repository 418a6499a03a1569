"""Bandwidth allocation: max-min (TCP), SPQ, and WRR-emulated SPQ.

The simulator allocates through one path, the incremental engine
(:class:`AllocationState`), which keeps link membership alive across
allocation epochs and applies flow/priority deltas.  The from-scratch
allocators (:func:`dispatch_allocation` and the ``allocate_*`` functions
it dispatches to) share the same water-filling core and serve as the
reference implementation the engine is tested against.
"""

from repro.simulator.bandwidth.engine import AllocationState, EngineStats
from repro.simulator.bandwidth.maxmin import (
    LinkMembership,
    allocate_maxmin,
    water_fill,
    water_fill_membership,
)
from repro.simulator.bandwidth.request import (
    DEFAULT_NUM_CLASSES,
    MAX_SWITCH_CLASSES,
    AllocationMode,
    AllocationRequest,
    dispatch_allocation,
)
from repro.simulator.bandwidth.spq import (
    allocate_spq,
    allocate_spq_memberships,
    group_by_class,
)
from repro.simulator.bandwidth.wrr import (
    allocate_wrr,
    allocate_wrr_memberships,
    class_loads_from_counts,
    spq_waiting_times,
    wrr_weights,
)

__all__ = [
    "AllocationMode",
    "AllocationRequest",
    "AllocationState",
    "DEFAULT_NUM_CLASSES",
    "EngineStats",
    "LinkMembership",
    "MAX_SWITCH_CLASSES",
    "allocate_maxmin",
    "allocate_spq",
    "allocate_spq_memberships",
    "allocate_wrr",
    "allocate_wrr_memberships",
    "class_loads_from_counts",
    "dispatch_allocation",
    "group_by_class",
    "spq_waiting_times",
    "water_fill",
    "water_fill_membership",
    "wrr_weights",
]
