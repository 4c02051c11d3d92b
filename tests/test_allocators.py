"""Tests for rate allocators: water-filling and the four flow policies.

Includes hypothesis property tests of the allocation invariants every
work-conserving policy must satisfy: non-negative rates, no link
over-subscription, and every active flow either progressing or blocked by
a saturated link.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.flow import Flow
from repro.network.policies.base import (
    RATE_EPSILON,
    group_by_key,
    water_fill,
)
from repro.network.policies.fair import FairAllocator
from repro.network.policies.fcfs import FCFSAllocator
from repro.network.policies.las import LASAllocator
from repro.network.policies.registry import (
    available_policies,
    make_allocator,
    register_policy,
)
from repro.network.policies.srpt import SRPTAllocator
from repro.errors import ConfigError


def flow(fid, path, size=1e9, arrival=0.0, attained=0.0) -> Flow:
    f = Flow(
        flow_id=fid, src="x", dst="y", size=size, path=tuple(path),
        arrival_time=arrival,
    )
    if attained:
        f.advance(attained)
    return f


class TestWaterFill:
    def test_single_flow_gets_bottleneck(self):
        flows = [flow(0, ["l1", "l2"])]
        residual = {"l1": 10.0, "l2": 4.0}
        rates = {}
        water_fill(flows, residual, rates)
        assert rates[0] == pytest.approx(4.0)

    def test_two_flows_share_equally(self):
        flows = [flow(0, ["l"]), flow(1, ["l"])]
        rates = {}
        water_fill(flows, {"l": 10.0}, rates)
        assert rates[0] == pytest.approx(5.0)
        assert rates[1] == pytest.approx(5.0)

    def test_max_min_unlocks_leftover(self):
        """Classic max-min: flow A constrained elsewhere frees capacity."""
        flows = [flow(0, ["l1", "l2"]), flow(1, ["l2"])]
        rates = {}
        water_fill(flows, {"l1": 2.0, "l2": 10.0}, rates)
        assert rates[0] == pytest.approx(2.0)
        assert rates[1] == pytest.approx(8.0)

    def test_disjoint_flows_get_full_capacity(self):
        flows = [flow(0, ["l1"]), flow(1, ["l2"])]
        rates = {}
        water_fill(flows, {"l1": 3.0, "l2": 7.0}, rates)
        assert rates[0] == pytest.approx(3.0)
        assert rates[1] == pytest.approx(7.0)

    def test_mutates_residual(self):
        flows = [flow(0, ["l"])]
        residual = {"l": 5.0}
        water_fill(flows, residual, {})
        assert residual["l"] == pytest.approx(0.0)

    @given(
        num_flows=st.integers(1, 8),
        num_links=st.integers(1, 5),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_allocation_invariants(self, num_flows, num_links, data):
        links = [f"l{i}" for i in range(num_links)]
        capacities = {
            l: data.draw(st.floats(0.5, 100.0), label=f"cap-{l}")
            for l in links
        }
        flows = []
        for fid in range(num_flows):
            path = data.draw(
                st.lists(st.sampled_from(links), min_size=1, max_size=num_links, unique=True),
                label=f"path-{fid}",
            )
            flows.append(flow(fid, path))
        residual = dict(capacities)
        rates = {}
        water_fill(flows, residual, rates)
        # 1. non-negative rates
        assert all(r >= 0 for r in rates.values())
        # 2. no link oversubscribed
        for link in links:
            used = sum(rates[f.flow_id] for f in flows if link in f.path)
            assert used <= capacities[link] * (1 + 1e-9)
        # 3. work conservation: every flow has a saturated link
        for f in flows:
            saturated = any(
                sum(rates[g.flow_id] for g in flows if link in g.path)
                >= capacities[link] * (1 - 1e-9)
                for link in f.path
            )
            assert saturated

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_max_min_fairness_property(self, data):
        """On a single shared link every flow gets an equal share."""
        n = data.draw(st.integers(1, 10))
        cap = data.draw(st.floats(1.0, 50.0))
        flows = [flow(i, ["l"]) for i in range(n)]
        rates = {}
        water_fill(flows, {"l": cap}, rates)
        for i in range(n):
            assert rates[i] == pytest.approx(cap / n)


class TestGroupByKey:
    def test_orders_ascending(self):
        flows = [flow(0, ["l"]), flow(1, ["l"]), flow(2, ["l"])]
        keys = {0: 3.0, 1: 1.0, 2: 2.0}
        groups = group_by_key(flows, keys)
        assert [g[0].flow_id for g in groups] == [1, 2, 0]

    def test_merges_ties_within_tolerance(self):
        flows = [flow(0, ["l"]), flow(1, ["l"])]
        keys = {0: 1.0, 1: 1.5}
        assert len(group_by_key(flows, keys, tolerance=1.0)) == 1
        assert len(group_by_key(flows, keys, tolerance=0.1)) == 2


class TestFairAllocator:
    def test_equal_sharing(self):
        alloc = FairAllocator()
        flows = [flow(0, ["l"]), flow(1, ["l"]), flow(2, ["l"])]
        rates = alloc.allocate(flows, {"l": 9.0})
        assert all(rates[i] == pytest.approx(3.0) for i in range(3))


class TestFCFSAllocator:
    def test_earlier_arrival_wins(self):
        alloc = FCFSAllocator()
        flows = [flow(0, ["l"], arrival=0.0), flow(1, ["l"], arrival=1.0)]
        rates = alloc.allocate(flows, {"l": 5.0})
        assert rates[0] == pytest.approx(5.0)
        assert rates[1] == pytest.approx(0.0)

    def test_loser_backfills_other_links(self):
        alloc = FCFSAllocator()
        flows = [
            flow(0, ["l1"], arrival=0.0),
            flow(1, ["l1", "l2"], arrival=1.0),
            flow(2, ["l2"], arrival=2.0),
        ]
        rates = alloc.allocate(flows, {"l1": 5.0, "l2": 5.0})
        assert rates[0] == pytest.approx(5.0)
        assert rates[1] == pytest.approx(0.0)
        assert rates[2] == pytest.approx(5.0)  # backfills l2

    def test_simultaneous_arrivals_share(self):
        alloc = FCFSAllocator()
        flows = [flow(0, ["l"], arrival=0.0), flow(1, ["l"], arrival=0.0)]
        rates = alloc.allocate(flows, {"l": 4.0})
        assert rates[0] == pytest.approx(2.0)
        assert rates[1] == pytest.approx(2.0)


class TestSRPTAllocator:
    def test_smaller_remaining_preempts(self):
        alloc = SRPTAllocator()
        flows = [flow(0, ["l"], size=10e9), flow(1, ["l"], size=1e9)]
        rates = alloc.allocate(flows, {"l": 5.0})
        assert rates[1] == pytest.approx(5.0)
        assert rates[0] == pytest.approx(0.0)

    def test_remaining_not_original_size(self):
        alloc = SRPTAllocator()
        nearly_done = flow(0, ["l"], size=10e9)
        nearly_done.advance(9.9e9)  # 0.1e9 remaining
        fresh = flow(1, ["l"], size=1e9)
        rates = alloc.allocate([nearly_done, fresh], {"l": 5.0})
        assert rates[0] == pytest.approx(5.0)
        assert rates[1] == pytest.approx(0.0)

    def test_exact_ties_with_same_arrival_share(self):
        alloc = SRPTAllocator()
        flows = [
            flow(0, ["l"], size=1e9, arrival=0.0),
            flow(1, ["l"], size=1e9, arrival=0.0),
        ]
        rates = alloc.allocate(flows, {"l": 4.0})
        assert rates[0] == pytest.approx(2.0)
        assert rates[1] == pytest.approx(2.0)

    def test_equal_size_earlier_arrival_wins(self):
        alloc = SRPTAllocator()
        flows = [
            flow(0, ["l"], size=1e9, arrival=1.0),
            flow(1, ["l"], size=1e9, arrival=0.0),
        ]
        rates = alloc.allocate(flows, {"l": 4.0})
        assert rates[1] == pytest.approx(4.0)
        assert rates[0] == pytest.approx(0.0)


class TestLASAllocator:
    def test_least_attained_preempts(self):
        alloc = LASAllocator()
        veteran = flow(0, ["l"], size=10e9, attained=5e9)
        fresh = flow(1, ["l"], size=20e9)
        rates = alloc.allocate([veteran, fresh], {"l": 5.0})
        assert rates[1] == pytest.approx(5.0)
        assert rates[0] == pytest.approx(0.0)

    def test_equal_attained_share(self):
        alloc = LASAllocator()
        flows = [flow(0, ["l"], size=1e9), flow(1, ["l"], size=9e9)]
        rates = alloc.allocate(flows, {"l": 4.0})
        assert rates[0] == pytest.approx(2.0)
        assert rates[1] == pytest.approx(2.0)

    def test_crossing_hint(self):
        alloc = LASAllocator()
        veteran = flow(0, ["l"], size=10e9, attained=4e9)
        fresh = flow(1, ["l"], size=20e9)
        rates = alloc.allocate([veteran, fresh], {"l": 2e9})
        # fresh runs at 2e9 b/s and must cover a 4e9-bit attained gap.
        hint = alloc.next_change_hint([veteran, fresh], rates)
        assert hint == pytest.approx(2.0)

    def test_no_hint_when_converged(self):
        alloc = LASAllocator()
        flows = [flow(0, ["l"]), flow(1, ["l"])]
        rates = alloc.allocate(flows, {"l": 2.0})
        assert alloc.next_change_hint(flows, rates) is None


class TestRegistry:
    def test_known_policies(self):
        for name in ("fair", "fcfs", "las", "srpt", "dctcp", "l2dct", "pase"):
            assert make_allocator(name) is not None

    def test_transport_aliases(self):
        assert isinstance(make_allocator("dctcp"), FairAllocator)
        assert isinstance(make_allocator("l2dct"), LASAllocator)
        assert isinstance(make_allocator("pase"), SRPTAllocator)

    def test_unknown_policy_raises(self):
        with pytest.raises(ConfigError):
            make_allocator("bogus")

    def test_register_custom(self):
        register_policy("custom-fair-test", FairAllocator)
        assert isinstance(make_allocator("custom-fair-test"), FairAllocator)
        assert "custom-fair-test" in available_policies()


@pytest.mark.parametrize("policy", ["fair", "fcfs", "las", "srpt"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_policy_respects_capacities(policy, data):
    """Cross-policy invariant sweep (hypothesis)."""
    links = ["l0", "l1", "l2"]
    capacities = {l: data.draw(st.floats(1.0, 10.0)) for l in links}
    flows = []
    for fid in range(data.draw(st.integers(1, 6))):
        path = data.draw(
            st.lists(st.sampled_from(links), min_size=1, max_size=3, unique=True)
        )
        flows.append(
            flow(
                fid,
                path,
                size=data.draw(st.floats(1.0, 1e9)),
                arrival=data.draw(st.floats(0.0, 10.0)),
            )
        )
    rates = make_allocator(policy).allocate(flows, capacities)
    assert set(rates) == {f.flow_id for f in flows}
    for link in links:
        used = sum(rates[f.flow_id] for f in flows if link in f.path)
        assert used <= capacities[link] * (1 + 1e-9)
    # Work conservation: some flow must be moving.
    assert any(r > RATE_EPSILON for r in rates.values())
