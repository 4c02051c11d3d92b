"""Exact differential: the mover scan of
``repro.network.policies.base.earliest_adjacent_crossing`` against the
sort-every-link body it replaced (``tests/hint_oracle.py``).

``==`` on the returned hint, no tolerance, for SRPT (remaining size, the
upper flow moves) and LAS (attained service, the lower flow moves).  The
strategy aims at the places where the two could part: keys tied exactly
and broken by flow id (sizes and progress are drawn from a few values,
so three-way ties are common), links where nobody transmits, a mover
that is the smallest or largest flow on its link, a path that lists a
link twice, sizes from one bit to 1e13, rates of 0.0, sub-epsilon dust
and 1e10, and every source of member lists: tracked for all links, for
some, for none.  The lock-step legs compare at every recompute of fabric
runs, one of them with a reroute; the ``slow`` leg does so on 160 hosts.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.runner import replay_flow_trace
from repro.faults import FaultPlan, LinkDown
from repro.network.flow import Flow
from repro.network.policies.base import RATE_EPSILON, earliest_adjacent_crossing
from repro.network.policies.registry import make_allocator
from repro.topology.fabrics import three_tier_clos
from repro.workloads import generate_flow_trace, make_distribution

from tests import hint_oracle
from tests.test_goldens import regen_goldens

POLICIES = tuple(hint_oracle.POLICIES)

LINK_POOL = tuple(f"l{i}" for i in range(5))

RATES = st.sampled_from((0.0, 0.0, 5e-324, 4e-10, RATE_EPSILON, 1e9, 1e9, 1e10))


def both(policy, flows, rates, tracked: Optional[Dict[str, List[Flow]]]):
    """(new hint, oracle hint) over the same inputs; ``tracked`` maps the
    links that have a persistent member list to it (None: no tracking)."""
    allocator_cls = type(make_allocator(policy))
    before = {link: list(members) for link, members in (tracked or {}).items()}
    new = earliest_adjacent_crossing(
        flows,
        rates,
        key=allocator_cls.hint_key,
        upper_moves=allocator_cls.hint_upper_moves,
        tolerance=allocator_cls.hint_tolerance,
        members_on=tracked.get if tracked is not None else None,
    )
    assert (tracked or {}) == before, "the mover scan only reads the lists"

    def copies(link_id):  # the oracle sorts what it is handed
        return list(tracked[link_id]) if link_id in tracked else None

    old = hint_oracle.earliest_adjacent_crossing(
        flows, rates, members_on=copies if tracked is not None else None,
        **hint_oracle.POLICIES[policy],
    )
    return new, old


@st.composite
def scenarios(draw):
    links = LINK_POOL[: draw(st.integers(1, len(LINK_POOL)))]
    flows: List[Flow] = []
    rates: Dict[int, float] = {}
    for flow_id in range(draw(st.integers(1, 9))):
        path = draw(
            st.lists(st.sampled_from(links), min_size=1, max_size=4)
        )  # not unique: a link may be listed twice
        size = draw(
            st.one_of(
                st.sampled_from((1.0, 1e9, 1e9, 1e13)),
                st.floats(min_value=1.0, max_value=1e13),
            )
        )
        flow = Flow(flow_id, "s", "d", size, tuple(path), 0.0)
        flow.advance(size * draw(st.sampled_from((0.0, 0.25, 0.25, 0.9))))
        flows.append(flow)
        if draw(st.integers(0, 9)):  # one flow in ten has no rate entry
            rates[flow_id] = draw(RATES)
    if draw(st.booleans()):  # an all-stalled link set
        rates = dict.fromkeys(rates, 0.0)
    # Member lists in arrival order, which is not id order.
    arrival = draw(st.permutations(flows))
    members: Dict[str, List[Flow]] = {}
    for flow in arrival:
        for link_id in flow.path:
            members.setdefault(link_id, []).append(flow)
    tracking = draw(st.sampled_from(("all", "some", "none")))
    if tracking == "none":
        tracked = None
    elif tracking == "all":
        tracked = members
    else:
        tracked = {
            link: lst for link, lst in members.items() if draw(st.booleans())
        }
    return draw(st.permutations(flows)), rates, tracked


@pytest.mark.parametrize("policy", POLICIES)
@given(scenarios())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_hint_equals_oracle(policy, scenario):
    new, old = both(policy, *scenario)
    assert new == old


def _flow(flow_id, size, path, done=0.0):
    flow = Flow(flow_id, "s", "d", size, tuple(path), 0.0)
    flow.advance(done)
    return flow


def test_three_way_tie_is_broken_by_flow_id():
    """Flows 0-2 tie on the key; the only converging pair is the tie's
    last member by flow id with the mover beside it."""
    # SRPT: flow 3 (9e9 left, 1 Gbps) closes on the tie at 5e9 from above.
    flows = [_flow(i, 5e9, "a") for i in range(3)] + [_flow(3, 9e9, "a")]
    # Rates on the tie differ, so which of 0-2 is the neighbour shows.
    rates = {0: 3e8, 1: 2e8, 2: 1e8, 3: 1e9}
    new, old = both("srpt", flows[::-1], rates, None)
    assert new == old == 4e9 / (1e9 - 1e8)
    # LAS: flow 0 (nothing attained, 1 Gbps) closes on the tie from below;
    # its neighbour is the tie's first member by flow id.
    flows = [_flow(0, 9e9, "a")] + [_flow(i, 9e9, "a", done=4e9) for i in (1, 2, 3)]
    rates = {0: 1e9, 1: 1e8, 2: 2e8, 3: 3e8}
    new, old = both("las", flows[::-1], rates, None)
    assert new == old == 4e9 / (1e9 - 1e8)


@pytest.mark.parametrize("policy", POLICIES)
def test_stalled_links_and_extreme_movers_hint_nothing(policy):
    flows = [_flow(0, 2e9, "ab", done=1e9), _flow(1, 8e9, "ab", done=3e9)]
    # Nobody transmits.
    assert both(policy, flows, {0: 0.0, 1: 0.0}, None) == (None, None)
    # Only the flow that already leads transmits: smallest remaining
    # under SRPT, largest attained under LAS; it diverges.
    leader = 0 if policy == "srpt" else 1
    assert both(policy, flows, {leader: 1e9}, None) == (None, None)
    # The other one transmitting converges, on each of the two links.
    new, old = both(policy, flows, {1 - leader: 1e9}, None)
    assert new == old and new is not None


def test_a_link_listed_twice_pairs_the_flow_with_its_real_neighbour():
    twice, other = _flow(0, 9e9, "aab"), _flow(1, 4e9, "a")
    tracked = {"a": [twice, twice, other], "b": [twice]}
    new, old = both("srpt", [twice, other], {0: 1e9}, tracked)
    assert new == old == 5e9 / 1e9


# ----------------------------------------------------------------------
# Lock-step: every hint of a fabric run
# ----------------------------------------------------------------------
def _check_every_hint(monkeypatch, policy) -> List[Optional[float]]:
    """Wrap the policy's ``next_change_hint`` to compare each hint with
    the oracle's over copies of the tracked lists; returns the hints."""
    allocator_cls = type(make_allocator(policy))
    hint = allocator_cls.next_change_hint
    old_kwargs = hint_oracle.POLICIES[policy]
    hints: List[Optional[float]] = []

    def checked(self, flows, rates):
        got = hint(self, flows, rates)

        def copies(link_id):
            members = self._link_members.get(link_id)
            return list(members) if members is not None else None

        want = hint_oracle.earliest_adjacent_crossing(
            flows, rates, members_on=copies if self._tracked_flows else None,
            **old_kwargs,
        )
        assert got == want, f"{policy}: hint {len(hints)} diverged"
        hints.append(got)
        return got

    monkeypatch.setattr(allocator_cls, "next_change_hint", checked)
    return hints


@pytest.mark.parametrize("policy", POLICIES)
def test_lockstep_golden_scenario(policy, monkeypatch):
    hints = _check_every_hint(monkeypatch, policy)
    regen_goldens.generate(policy)
    assert len(hints) > 40 and any(h is not None for h in hints)


def _clos_replay(topo, policy, *, num_arrivals, seed, faults=None):
    trace = generate_flow_trace(
        hosts=topo.hosts,
        distribution=make_distribution("websearch"),
        load=0.7,
        edge_capacity=1e9,
        num_arrivals=num_arrivals,
        seed=seed,
    )
    return replay_flow_trace(
        trace, topo, network_policy=policy, placement="minload", seed=seed,
        faults=faults,
    )


@pytest.mark.parametrize("policy", POLICIES)
def test_lockstep_faulted_run_with_a_reroute(policy, monkeypatch):
    """After ``fail_link`` moves flows, the tracked lists the new scan
    reads must list them on their new links: the oracle, given the same
    lists, agrees at every later recompute."""
    hints = _check_every_hint(monkeypatch, policy)
    scenario = regen_goldens.SCENARIO
    topo = three_tier_clos(
        pods=scenario["pods"],
        racks_per_pod=scenario["racks_per_pod"],
        hosts_per_rack=scenario["hosts_per_rack"],
    )
    plan = FaultPlan(
        events=(
            LinkDown(time=0.03, link="agg0_0->core1"),
            LinkDown(time=0.06, link="agg1_1->tor2"),
        ),
        seed=scenario["seed"],
    )
    run = _clos_replay(
        topo, policy, num_arrivals=scenario["num_arrivals"],
        seed=scenario["seed"], faults=plan,
    )
    assert run.flows_rerouted >= 2 and run.flows_aborted == 0
    assert len(hints) > 40 and any(h is not None for h in hints)


@pytest.mark.slow
@pytest.mark.parametrize("policy", POLICIES)
def test_lockstep_soak_clos_160(policy, monkeypatch):
    hints = _check_every_hint(monkeypatch, policy)
    _clos_replay(three_tier_clos(), policy, num_arrivals=400, seed=7)
    assert len(hints) > 800 and sum(h is not None for h in hints) > 20
