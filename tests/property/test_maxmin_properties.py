"""Property-based tests for max-min fairness (the allocator's contract)."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.simulator.bandwidth import maxmin
from repro.simulator.bandwidth.maxmin import LinkMembership, allocate_maxmin
from repro.simulator.bandwidth.spq import allocate_spq
from repro.simulator.bandwidth.wrr import allocate_wrr

NUM_LINKS = 6


@st.composite
def allocation_problems(draw, max_dead_links=0):
    """Random (flow_routes, capacities) with up to 12 flows on 6 links.

    ``max_dead_links`` zeroes up to that many capacities, the state a
    fault-revoked link leaves behind.
    """
    num_flows = draw(st.integers(min_value=1, max_value=12))
    flow_routes = {}
    for flow_id in range(num_flows):
        length = draw(st.integers(min_value=1, max_value=3))
        route = draw(
            st.lists(
                st.integers(min_value=0, max_value=NUM_LINKS - 1),
                min_size=length,
                max_size=length,
                unique=True,
            )
        )
        flow_routes[flow_id] = tuple(route)
    capacities = draw(
        st.lists(
            st.floats(min_value=0.5, max_value=100.0),
            min_size=NUM_LINKS,
            max_size=NUM_LINKS,
        )
    )
    if max_dead_links:
        dead = draw(
            st.lists(
                st.integers(min_value=0, max_value=NUM_LINKS - 1),
                max_size=max_dead_links,
                unique=True,
            )
        )
        for link in dead:
            capacities[link] = 0.0
    return flow_routes, capacities


def link_usage(flow_routes, rates):
    usage = [0.0] * NUM_LINKS
    for flow_id, route in flow_routes.items():
        for link in route:
            usage[link] += rates[flow_id]
    return usage


@given(allocation_problems(max_dead_links=2))
@settings(max_examples=200, deadline=None)
def test_maxmin_never_oversubscribes(problem):
    flow_routes, capacities = problem
    rates = allocate_maxmin(flow_routes, capacities)
    for link, used in enumerate(link_usage(flow_routes, rates)):
        assert used <= capacities[link] * (1 + 1e-6) + 1e-6


@given(allocation_problems(max_dead_links=2))
@settings(max_examples=200, deadline=None)
def test_maxmin_rates_non_negative_and_complete(problem):
    flow_routes, capacities = problem
    rates = allocate_maxmin(flow_routes, capacities)
    assert set(rates) == set(flow_routes)
    assert all(rate >= 0.0 for rate in rates.values())


@given(allocation_problems(max_dead_links=2))
@settings(max_examples=200, deadline=None)
def test_maxmin_saturates_each_flows_bottleneck(problem):
    """Max-min optimality: every flow has at least one saturated link
    (else its rate could be raised, contradicting max-min)."""
    flow_routes, capacities = problem
    rates = allocate_maxmin(flow_routes, capacities)
    usage = link_usage(flow_routes, rates)
    for flow_id, route in flow_routes.items():
        assert any(
            usage[link] >= capacities[link] * (1 - 1e-6) - 1e-6
            for link in route
        ), f"flow {flow_id} has slack on every link"


@given(allocation_problems(max_dead_links=2))
@settings(max_examples=150, deadline=None)
def test_maxmin_bottleneck_fairness(problem):
    """Bertsekas-Gallager characterisation: every flow has a bottleneck
    link — a saturated link on which no other flow gets a *higher* rate.
    (If every one of a flow's saturated links carried a faster flow, the
    slower flow could be raised at the faster one's expense.)"""
    flow_routes, capacities = problem
    rates = allocate_maxmin(flow_routes, capacities)
    usage = link_usage(flow_routes, rates)
    for flow_id, route in flow_routes.items():
        has_bottleneck = False
        for link in route:
            if usage[link] < capacities[link] * (1 - 1e-6) - 1e-6:
                continue  # not saturated
            sharers = [f for f, r in flow_routes.items() if link in r]
            if all(rates[other] <= rates[flow_id] + 1e-6 for other in sharers):
                has_bottleneck = True
                break
        assert has_bottleneck, f"flow {flow_id} lacks a bottleneck link"


@given(allocation_problems(), st.integers(min_value=2, max_value=4))
@settings(max_examples=150, deadline=None)
def test_spq_dominance(problem, num_classes):
    """Raising a flow to the top class never reduces its rate."""
    flow_routes, capacities = problem
    flow_id = min(flow_routes)
    low = {f: (1 if f == flow_id else 0) for f in flow_routes}
    high = {f: (0 if f == flow_id else 1) for f in flow_routes}
    rate_low = allocate_spq(flow_routes, low, capacities, num_classes)[flow_id]
    rate_high = allocate_spq(flow_routes, high, capacities, num_classes)[flow_id]
    assert rate_high >= rate_low - 1e-6


@given(allocation_problems())
@settings(max_examples=150, deadline=None)
def test_wrr_no_starvation_and_capacity(problem):
    flow_routes, capacities = problem
    priorities = {f: f % 4 for f in flow_routes}
    rates = allocate_wrr(flow_routes, priorities, capacities, num_classes=4)
    for link, used in enumerate(link_usage(flow_routes, rates)):
        assert used <= capacities[link] * (1 + 1e-6) + 1e-3
    # Starvation mitigation: every flow makes progress.
    assert all(rate > 0.0 for rate in rates.values())


#: Links of the membership-delta property (more than NUM_LINKS, so slots
#: go dormant and revive often).
DELTA_LINKS = 10


def delta_routes():
    return st.lists(
        st.integers(min_value=0, max_value=DELTA_LINKS - 1),
        min_size=0,
        max_size=4,
        unique=True,
    ).map(tuple)


def fill_bits(membership, capacities):
    """The fill's full output: ``rates`` items in order, residual bytes."""
    residual = np.array(capacities, dtype=float)
    rates = maxmin.water_fill_membership(membership, residual)
    return [(f, float(r).hex()) for f, r in rates.items()], residual.tobytes()


def tie_prone_capacities():
    return st.lists(
        st.sampled_from((0.0, 1.0, 2.5, 3.0, 7.0, 1e9)),
        min_size=DELTA_LINKS,
        max_size=DELTA_LINKS,
    )


def full_width_fill(flow_routes, capacities):
    """Textbook progressive filling over every link of the fabric.

    Each round recomputes every link's share, freezes the members of
    every link within ``_EPSILON`` of the minimum (links ascending,
    members in flow order), then charges the frozen flows.
    """
    res = [float(c) for c in capacities]
    counts = [0] * len(res)
    members = [[] for _ in res]
    for flow_id, route in flow_routes.items():
        for link in route:
            counts[link] += 1
            members[link].append(flow_id)
    rates = {}
    while len(rates) < len(flow_routes):
        shares = [
            max(r, 0.0) / c if c else math.inf for r, c in zip(res, counts)
        ]
        bottleneck = min(shares)
        if bottleneck == math.inf:
            for flow_id in flow_routes:
                rates.setdefault(flow_id, 0.0)
            break
        frozen = dict.fromkeys(
            flow_id
            for link, share in enumerate(shares)
            if share <= bottleneck + maxmin._EPSILON
            for flow_id in members[link]
            if flow_id not in rates
        )
        for flow_id in frozen:
            rates[flow_id] = bottleneck
            for link in flow_routes[flow_id]:
                res[link] -= bottleneck
                counts[link] -= 1
    return rates, [max(r, 0.0) for r in res]


@given(
    flow_routes=st.dictionaries(
        st.integers(min_value=0, max_value=30), delta_routes(), max_size=12
    ),
    capacities=tie_prone_capacities(),
)
@settings(max_examples=300, deadline=None)
def test_slot_space_fill_matches_full_width_filling(flow_routes, capacities):
    """The slot-space loop gives the full-width textbook loop's rates, in
    the same ``rates`` order (what the WRR charges depend on), and the
    same residual."""
    residual = np.array(capacities, dtype=float)
    rates = maxmin.water_fill(flow_routes, residual)
    expected_rates, expected_residual = full_width_fill(flow_routes, capacities)
    assert list(rates.items()) == list(expected_rates.items())
    assert residual.tolist() == expected_residual


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(("add", "remove", "reroute")),
            st.integers(min_value=0, max_value=7),
            delta_routes(),
        ),
        min_size=1,
        max_size=40,
    ),
    capacities=tie_prone_capacities(),
    floor=st.sampled_from((0, 2, maxmin._COMPACT_FLOOR)),
)
@settings(max_examples=200, deadline=None)
def test_delta_maintained_membership_fills_like_a_fresh_one(
    ops, capacities, floor
):
    """After every add/remove/re-route, the fill on the live membership
    (with whatever dormant slots and compactions its history left) is
    bit-identical to the fill on one built from scratch."""
    membership = LinkMembership(DELTA_LINKS)
    routes = {}
    with mock.patch.object(maxmin, "_COMPACT_FLOOR", floor):
        for op, flow_id, route in ops:
            if op == "add" and flow_id not in routes:
                membership.add(flow_id, route)
                routes[flow_id] = route
            elif op == "remove" and flow_id in routes:
                membership.remove(flow_id)
                del routes[flow_id]
            elif op == "reroute" and flow_id in routes:
                membership.remove(flow_id)
                membership.add(flow_id, route)
                del routes[flow_id]
                routes[flow_id] = route
            else:
                continue
            fresh = LinkMembership.from_routes(routes, DELTA_LINKS)
            assert fill_bits(membership, capacities) == fill_bits(
                fresh, capacities
            )
