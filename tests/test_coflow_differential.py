"""Exact differential: the interned coflow allocation pass against the
LinkId-keyed bodies it replaced (``tests/coflow_oracle.py``).

``==`` on the rate dicts, no tolerance, for all five coflow policies.
The strategy aims at the places where the two could part: sizes from one
bit to 1e13, failed (0.0) and sub-epsilon links, links the capacity map
lacks, bare flows among coflow members, a link listed twice in a path,
and a reroute between two calls.  One hand-built case holds a cached
share in ``(0, RATE_EPSILON]`` beside exact-zero shares, where the
back-fill may not collapse its zero rounds and must replay the epsilon
chain.  The ``slow`` leg compares every allocation of 160-host replays.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.coflow.coflow import Coflow
from repro.coflow.policies import make_coflow_allocator
from repro.experiments.runner import replay_coflow_trace
from repro.network.flow import Flow
from repro.network.policies.base import RATE_EPSILON
from repro.topology.fabrics import three_tier_clos
from repro.workloads import generate_coflow_trace, make_distribution

from tests import coflow_oracle

POLICIES = coflow_oracle.POLICIES

LINK_POOL = tuple(f"l{i}" for i in range(7))

#: Failed link, two kinds of sub-epsilon dust, the epsilon itself, then
#: ordinary capacities (equal ones make exact share ties likely).
CAPACITIES = st.one_of(
    st.sampled_from((0.0, 5e-324, 4e-10, RATE_EPSILON, 1e9, 1e9, 4e9)),
    st.floats(min_value=1e-12, max_value=1e10),
)


@st.composite
def scenarios(draw) -> Tuple[List[Flow], Dict[str, float]]:
    n_links = draw(st.integers(min_value=1, max_value=len(LINK_POOL)))
    links = LINK_POOL[:n_links]
    capacities = {
        link: draw(CAPACITIES)
        for link in links
        if draw(st.integers(0, 9))  # one link in ten is not in the map
    }
    coflows = [
        Coflow(coflow_id=i, arrival_time=draw(st.floats(0.0, 10.0)))
        for i in range(draw(st.integers(0, 3)))
    ]
    flows: List[Flow] = []
    for flow_id in range(draw(st.integers(min_value=1, max_value=10))):
        path = draw(
            st.lists(st.sampled_from(links), min_size=1, max_size=4)
        )  # not unique: a link may be listed twice
        size = draw(
            st.one_of(
                st.sampled_from((1.0, 1e9, 1e13)),
                st.floats(min_value=1.0, max_value=1e13),
            )
        )
        flow = Flow(
            flow_id=flow_id,
            src="s",
            dst="d",
            size=size,
            path=tuple(path),
            arrival_time=draw(st.floats(0.0, 10.0)),
            coflow=draw(st.sampled_from([None, *coflows])),
        )
        if flow.coflow is not None:
            flow.coflow.attach_flow(flow)
        flow.advance(size * draw(st.sampled_from((0.0, 0.25, 0.9))))
        flows.append(flow)
    order = draw(st.permutations(range(len(flows))))
    return [flows[i] for i in order], capacities


def assert_matches_oracle(flows, capacities, context="") -> None:
    for policy in POLICIES:
        got = make_coflow_allocator(policy).allocate(flows, capacities)
        want = coflow_oracle.allocate(policy, flows, capacities)
        assert got == want, f"{policy} diverged from the oracle {context}"


@given(scenarios())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_allocation_equals_oracle(scenario):
    assert_matches_oracle(*scenario)


@given(scenarios(), st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_reroute_between_calls(scenario, data):
    """A path swapped between two calls (what ``fail_link`` does to a
    rerouted flow) must allocate on the new links at once."""
    flows, capacities = scenario
    assert_matches_oracle(flows, capacities, "before the reroute")
    victim = data.draw(st.sampled_from(flows))
    victim.path = tuple(
        data.draw(st.lists(st.sampled_from(LINK_POOL), min_size=1, max_size=4))
    )
    assert_matches_oracle(flows, capacities, "after the reroute")


def test_dust_share_beside_zero_shares_replays_the_chain():
    """Links a, c, e back-fill at share exactly 0.0 while b holds
    2**-31 <= RATE_EPSILON: the zero rounds may not be collapsed.  The
    chain stops on a, then on b (0.0 does not undercut 2**-31 by more
    than the epsilon), which freezes flow 1 at 2**-31 and drains d by it
    before flow 2 takes the rest; one sweep over a, c, e would instead
    freeze flow 1 at 0.0 through c and hand flow 2 all of 2**-18.
    """
    capacities = {"a": 0.0, "b": 2.0**-31, "c": 0.0, "d": 2.0**-18, "e": 2.0**-20}
    shuffle = Coflow(coflow_id=0, arrival_time=0.0)
    flows = [
        Flow(0, "s", "d", 1.0, ("a",), 0.0),
        Flow(1, "s", "d", 1.0, ("b", "c", "d"), 0.0),
        # MADD: gamma = 2**20 on e, so flow 2 takes half of d (2**-19).
        Flow(2, "s", "d", 2.0, ("d",), 0.0, coflow=shuffle),
        Flow(3, "s", "d", 1.0, ("e",), 0.0, coflow=shuffle),
    ]
    assert 0.0 < capacities["b"] <= RATE_EPSILON
    assert_matches_oracle(flows, capacities)
    rates = make_coflow_allocator("varys").allocate(flows, capacities)
    assert rates == {0: 0.0, 1: 0.0, 2: 2.0**-18 - 2.0**-31, 3: 2.0**-20}


@pytest.mark.slow
@pytest.mark.parametrize("policy", POLICIES)
def test_oracle_soak_clos_160(policy, monkeypatch):
    """Every allocation of a contended 160-host NEAT replay, compared
    with the oracle on the live flows (progress and all)."""
    allocator_cls = type(make_coflow_allocator(policy))
    allocate = allocator_cls.allocate
    calls = []

    def checked(self, flows, capacities):
        rates = allocate(self, flows, capacities)
        assert rates == coflow_oracle.allocate(policy, flows, capacities)
        calls.append(len(flows))
        return rates

    monkeypatch.setattr(allocator_cls, "allocate", checked)
    topo = three_tier_clos()  # 4 pods x 4 racks x 10 hosts
    trace = generate_coflow_trace(
        hosts=topo.hosts,
        distribution=make_distribution("hadoop"),
        load=0.7,
        edge_capacity=1e9,
        num_arrivals=120,
        seed=5,
    )
    replay_coflow_trace(
        trace, topo, network_policy=policy, placement="neat", seed=5,
        max_candidates=8,
    )
    assert len(calls) > 200 and max(calls) > 20
