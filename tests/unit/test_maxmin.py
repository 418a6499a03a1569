"""Unit tests for max-min fair water-filling."""

import pickle

import numpy as np
import pytest

from repro.simulator.bandwidth.maxmin import (
    _COMPACT_FLOOR,
    LinkMembership,
    allocate_maxmin,
    water_fill,
    water_fill_membership,
)


class TestBasics:
    def test_empty_input(self):
        assert allocate_maxmin({}, [10.0]) == {}

    def test_single_flow_takes_bottleneck(self):
        rates = allocate_maxmin({1: (0, 1)}, [10.0, 4.0])
        assert rates[1] == pytest.approx(4.0)

    def test_equal_split_on_shared_link(self):
        rates = allocate_maxmin({1: (0,), 2: (0,), 3: (0,)}, [9.0])
        assert all(rates[f] == pytest.approx(3.0) for f in (1, 2, 3))

    def test_classic_three_flow_example(self):
        # Flows: A on link0 only, B on link0+link1, C on link1 only.
        # link0 cap 10, link1 cap 4: B bottlenecked at 2 (link1 split),
        # then A gets the remaining 8 of link0, C gets 2.
        rates = allocate_maxmin(
            {1: (0,), 2: (0, 1), 3: (1,)}, [10.0, 4.0]
        )
        assert rates[2] == pytest.approx(2.0)
        assert rates[3] == pytest.approx(2.0)
        assert rates[1] == pytest.approx(8.0)

    def test_disjoint_flows_each_get_full_capacity(self):
        rates = allocate_maxmin({1: (0,), 2: (1,)}, [5.0, 7.0])
        assert rates[1] == pytest.approx(5.0)
        assert rates[2] == pytest.approx(7.0)


class TestMaxMinProperties:
    def test_no_link_oversubscribed(self):
        flows = {i: (i % 3, 3 + i % 2) for i in range(12)}
        caps = [6.0, 4.0, 9.0, 5.0, 7.0]
        rates = allocate_maxmin(flows, caps)
        usage = [0.0] * len(caps)
        for flow_id, route in flows.items():
            for link in route:
                usage[link] += rates[flow_id]
        for link, cap in enumerate(caps):
            assert usage[link] <= cap + 1e-6

    def test_work_conserving_on_bottlenecks(self):
        # Every flow crosses link 0; link 0 must be saturated.
        flows = {i: (0,) for i in range(5)}
        rates = allocate_maxmin(flows, [10.0])
        assert sum(rates.values()) == pytest.approx(10.0)

    def test_water_fill_mutates_residual(self):
        residual = np.array([10.0, 10.0])
        water_fill({1: (0,)}, residual)
        assert residual[0] == pytest.approx(0.0)
        assert residual[1] == pytest.approx(10.0)

    def test_layering_respects_prior_allocation(self):
        residual = np.array([10.0])
        first = water_fill({1: (0,)}, residual)
        second = water_fill({2: (0,)}, residual)
        assert first[1] == pytest.approx(10.0)
        assert second[2] == pytest.approx(0.0)

    def test_zero_capacity_gives_zero_rates(self):
        rates = allocate_maxmin({1: (0,), 2: (0,)}, [0.0])
        assert rates[1] == 0.0 and rates[2] == 0.0


class TestEdgeCases:
    def test_zero_capacity_link_does_not_block_others(self):
        # Flow 1 crosses the dead link, flow 2 a healthy one: the dead
        # link's zero share must freeze only its own flows.
        rates = allocate_maxmin({1: (0,), 2: (1,)}, [0.0, 8.0])
        assert rates[1] == pytest.approx(0.0)
        assert rates[2] == pytest.approx(8.0)

    def test_zero_capacity_on_shared_route(self):
        # A flow crossing one dead and one live link gets nothing, and the
        # live link's capacity goes to the other flow.
        rates = allocate_maxmin({1: (0, 1), 2: (1,)}, [0.0, 6.0])
        assert rates[1] == pytest.approx(0.0)
        assert rates[2] == pytest.approx(6.0)

    def test_empty_route_flow_gets_zero(self):
        # A flow traversing no links cannot be rate-limited by any
        # bottleneck; the guard assigns it zero instead of spinning.
        rates = allocate_maxmin({1: ()}, [5.0])
        assert rates == {1: 0.0}

    def test_empty_route_flow_among_normal_flows(self):
        rates = allocate_maxmin({1: (0,), 2: ()}, [5.0])
        assert rates[1] == pytest.approx(5.0)
        assert rates[2] == 0.0

    def test_list_residual_write_back_mutation(self):
        # Plain-list residuals are converted to an array internally and
        # written back via slice assignment so the caller sees the layered
        # allocation.
        residual = [10.0, 4.0]
        rates = water_fill({1: (0,), 2: (1,)}, residual)
        assert isinstance(residual, list)
        assert residual == [0.0, 0.0]
        assert rates[1] == pytest.approx(10.0)
        assert rates[2] == pytest.approx(4.0)

    def test_list_residual_layering(self):
        residual = [9.0]
        first = water_fill({1: (0,)}, residual)
        second = water_fill({2: (0,)}, residual)
        assert first[1] == pytest.approx(9.0)
        assert second[2] == pytest.approx(0.0)
        assert residual == [0.0]

    def test_list_residual_untouched_when_no_flows(self):
        residual = [3.0]
        assert water_fill({}, residual) == {}
        assert residual == [3.0]

    def test_defensive_no_contended_link_branch(self):
        # All flows have empty routes: every share is infinite, which
        # exercises the "remaining flows traverse no contended link"
        # guard.
        rates = allocate_maxmin({1: (), 2: ()}, [5.0])
        assert rates == {1: 0.0, 2: 0.0}

    def test_defensive_no_newly_frozen_branch(self):
        # Craft an inconsistent membership (counts claim a flow on link 0
        # but the member table is empty) to drive the "should be
        # impossible" spin guard: the survivors are frozen at the
        # bottleneck share instead of looping forever.
        membership = LinkMembership(1)
        membership.add(1, (0,))
        # The slot's member dict is link 0's: emptying one empties both.
        assert membership.slot_members[0] is membership.link_members[0]
        membership.slot_members[0].clear()
        rates = water_fill_membership(membership, np.array([6.0]))
        assert rates == {1: 6.0}


def fill(membership, capacities):
    """(rates as (flow, float.hex) items in order, residual bytes)."""
    residual = np.array(capacities, dtype=float)
    rates = water_fill_membership(membership, residual)
    return [(f, float(r).hex()) for f, r in rates.items()], residual.tobytes()


class TestRouteValidation:
    def test_route_repeating_a_link_is_rejected_before_mutation(self):
        membership = LinkMembership(2)
        membership.add(2, (1,))
        with pytest.raises(ValueError, match="repeats a link"):
            membership.add(1, (0, 0))
        # Nothing of flow 1 was recorded: no count, no member, no slot.
        assert 1 not in membership
        assert membership.counts.tolist() == [0, 1]
        assert list(membership.link_members) == [1]
        assert membership.slot_links == [1]
        assert set(membership.slot_routes) == {2}
        assert water_fill_membership(membership, np.array([3.0, 3.0])) == {2: 3.0}


class TestSlotIndex:
    def test_slot_members_are_the_link_member_dicts(self):
        membership = LinkMembership.from_routes({1: (4, 2), 2: (2,)}, 6)
        assert membership.slot_links == [4, 2]
        assert membership.slot_of == {4: 0, 2: 1}
        assert membership.slot_counts == [1, 2]
        assert membership.slot_routes == {1: [0, 1], 2: [1]}
        for slot, link_id in enumerate(membership.slot_links):
            assert membership.slot_members[slot] is membership.link_members[link_id]

    def test_dormant_slot_revival_and_compaction(self):
        num_links = 2 * _COMPACT_FLOOR + 4
        caps = [float(1 + link % 5) for link in range(num_links)]
        # One flow per link, opened in descending link order, so slot
        # order is the reverse of link order.
        membership = LinkMembership(num_links)
        routes = {}
        for link in reversed(range(num_links)):
            membership.add(link, (link,))
            routes[link] = (link,)
        assert membership.slot_links == list(reversed(range(num_links)))

        # Revival: an emptied link keeps its slot as a dormant slot and
        # gets it back, member dict and all, when re-occupied.
        slot = membership.slot_of[5]
        members = membership.slot_members[slot]
        membership.remove(5)
        del routes[5]
        assert 5 not in membership.link_members
        assert membership.slot_of[5] == slot and membership.slot_counts[slot] == 0
        membership.add(1000, (5, 7))
        routes[1000] = (5, 7)
        assert membership.slot_of[5] == slot
        assert membership.link_members[5] is members
        assert membership.slot_counts[slot] == 1
        assert len(membership.slot_links) == num_links
        assert fill(membership, caps) == fill(
            LinkMembership.from_routes(routes, num_links), caps
        )

        # Compaction: once dormant slots outnumber live ones (and exceed
        # the floor), the slot space is renumbered over the live links
        # in ascending link order.
        compacted = False
        for link in range(8, num_links):
            before = len(membership.slot_links)
            membership.remove(link)
            del routes[link]
            if len(membership.slot_links) < before:
                compacted = True
                break
        assert compacted
        live = sorted(membership.link_members)
        assert membership.slot_links == live
        assert membership.slot_of == {link: s for s, link in enumerate(live)}
        assert membership.slot_counts == [
            int(membership.counts[link]) for link in live
        ]
        for flow_id, route in membership.routes.items():
            slots = membership.slot_routes[flow_id]
            assert [membership.slot_links[s] for s in slots] == list(route)
        assert fill(membership, caps) == fill(
            LinkMembership.from_routes(routes, num_links), caps
        )

    def test_pickle_keeps_the_link_view_and_rebuilds_slots(self):
        membership = LinkMembership.from_routes({1: (3, 0), 2: (0,), 3: (2,)}, 4)
        membership.remove(3)  # leaves link 2's slot dormant
        state = membership.__getstate__()
        assert list(state[1]) == [
            "num_links", "routes", "counts", "link_members", "route_arrays",
        ]
        restored = pickle.loads(pickle.dumps(membership))
        assert restored.routes == membership.routes
        assert restored.slot_links == [0, 3]  # compact, ascending
        for slot, link_id in enumerate(restored.slot_links):
            assert restored.slot_members[slot] is restored.link_members[link_id]
        caps = [4.0, 1.0, 2.0, 3.0]
        assert fill(restored, caps) == fill(membership, caps)
