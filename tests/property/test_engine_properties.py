"""Property-based tests for the incremental allocation engine's class diff.

Random sequences of structural deltas (add, remove, re-route, capacity
change, re-adding a finished flow id) are interleaved with allocations
under random SPQ/WRR/MAXMIN requests.  The engine finds class moves only
by diffing each classed request's priority map against the map its class
layout was filed under, so these maps are drawn to stress that diff:
they omit flows, name flows that are not active, use out-of-range
classes that clamp, and MAXMIN requests land between classed ones.
"""

from hypothesis import given, settings, strategies as st

from repro.simulator.bandwidth.engine import AllocationState
from repro.simulator.bandwidth.request import (
    AllocationMode,
    AllocationRequest,
    dispatch_allocation,
)

NUM_LINKS = 6
#: Flow ids drawn for ops and priority maps; maps may name ids that are
#: not active.
FLOW_IDS = st.integers(min_value=0, max_value=9)

ROUTES = st.lists(
    st.integers(min_value=0, max_value=NUM_LINKS - 1),
    min_size=1,
    max_size=3,
    unique=True,
).map(tuple)

CAPACITIES = st.sampled_from((0.0, 1.0, 2.5, 4.0, 10.0))

#: Raw classes: out-of-range ones clamp to 0 or ``num_classes - 1``.
PRIORITY_MAPS = st.dictionaries(
    FLOW_IDS, st.sampled_from((-2, 0, 1, 3, 7)), max_size=10
)

#: (mode, index into the drawn map pool, num_classes).  Drawing maps from
#: a small pool makes rounds repeat a map, or return to one after a
#: MAXMIN round, as often as real policies do between class changes.
REQUEST_SPECS = st.tuples(
    st.sampled_from(
        (AllocationMode.SPQ, AllocationMode.WRR, AllocationMode.MAXMIN)
    ),
    st.integers(min_value=0, max_value=2),
    st.sampled_from((2, 4, 4, 4)),
)

STRUCTURAL_OPS = st.one_of(
    st.tuples(st.just("add"), FLOW_IDS, ROUTES),
    st.tuples(st.just("remove"), FLOW_IDS),
    st.tuples(st.just("reroute"), FLOW_IDS, ROUTES),
    st.tuples(
        st.just("capacity"),
        st.integers(min_value=0, max_value=NUM_LINKS - 1),
        CAPACITIES,
    ),
)

#: Rounds of up to three structural ops, each followed by an allocation.
ROUNDS = st.lists(
    st.tuples(st.lists(STRUCTURAL_OPS, max_size=3), REQUEST_SPECS),
    min_size=1,
    max_size=12,
)


def effective_class(request, flow_id):
    """The class a from-scratch grouping files ``flow_id`` under."""
    cls = request.priorities.get(flow_id, request.num_classes - 1)
    return min(max(cls, 0), request.num_classes - 1)


@given(
    capacities=st.lists(CAPACITIES, min_size=NUM_LINKS, max_size=NUM_LINKS),
    initial=st.dictionaries(FLOW_IDS, ROUTES, min_size=1, max_size=6),
    maps=st.lists(PRIORITY_MAPS, min_size=3, max_size=3),
    rounds=ROUNDS,
)
@settings(max_examples=300, deadline=None)
def test_class_diff_files_like_a_fresh_grouping(capacities, initial, maps, rounds):
    """After every allocate, each active flow sits in the class its
    request gives it, and the rates equal the from-scratch oracle's."""
    state = AllocationState(capacities)
    routes = {}
    caps = list(capacities)
    for flow_id, route in initial.items():
        state.add_flow(flow_id, route)
        routes[flow_id] = route
    for ops, (mode, index, num_classes) in rounds:
        for op in ops:
            kind = op[0]
            if kind == "add" and op[1] not in routes:
                state.add_flow(op[1], op[2])
                routes[op[1]] = op[2]
            elif kind == "remove" and op[1] in routes:
                state.remove_flow(op[1])
                del routes[op[1]]
            elif kind == "reroute" and op[1] in routes:
                state.update_route(op[1], op[2])
                routes[op[1]] = op[2]
            elif kind == "capacity":
                state.set_capacity(op[1], op[2])
                caps[op[1]] = op[2]
        request = AllocationRequest(
            mode=mode, priorities=dict(maps[index]), num_classes=num_classes
        )
        rates = state.allocate(request)
        assert rates == dispatch_allocation(request, routes, caps)
        if request.mode is not AllocationMode.MAXMIN:
            assert state.class_of == {
                flow_id: effective_class(request, flow_id) for flow_id in routes
            }
