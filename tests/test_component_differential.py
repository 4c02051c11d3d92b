"""Exact differential: the sharing components the fabric keeps as flows
come and go (``NetworkFabric._join`` / ``_leave`` / ``_split``) against
the walk-per-event expansion they replaced (``tests/component_oracle.py``).

After every step of a generated history (submit / advance / cancel_flow /
degrade_link / fail_link / fail_host on the 8-host Clos of
``tests/fabric_history.py``, so reroutes, aborts, merges and bridge
removals all occur) and under every scoped allocator, each occupied
link's component must be the oracle's expansion from that link: same
flow ids, same link set.  The bookkeeping around it is checked at the
same points: components are pairwise disjoint and never empty, only occupied links are labelled, and the pending
``fabric-hint`` events are exactly the live components' own.  A coflow
allocator (not ``incremental_safe``) keeps no component at all.  The
``slow`` leg checks the same after every recompute of faulted 160-host
replays.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultPlan, LinkDown
from repro.network.fabric import NetworkFabric, _Component
from repro.topology.fabrics import three_tier_clos

from tests import component_oracle
from tests.fabric_history import (
    FAULTED, RACK_PAIRS, Run, a_host, drive, histories, op,
)
from tests.test_fabric import _pending_hints
from tests.test_hint_differential import _clos_replay

SCOPED = ("fair", "fcfs", "las", "srpt")


def assert_components_match_the_oracle(fabric, every_link=True):
    """``every_link``: expand from each occupied link, not just from one
    link per kept component (the rest follow by connectivity)."""
    component_on = fabric._component_on
    occupied = {link for link, members in fabric._by_link.items() if members}
    assert set(component_on) == occupied
    components = []
    for link_id in sorted(occupied):
        component = component_on[link_id]
        if component in components and not every_link:
            continue
        flows, links = component_oracle.expand_component(fabric, (link_id,))
        assert sorted(component.flows) == [flow.flow_id for flow in flows]
        assert component.links == links
        if component not in components:
            components.append(component)
    for component in components:
        assert component.flows, "an empty component is still labelled"
        assert all(component_on[link] is component for link in component.links)
        assert all(
            fabric._active[flow_id] is flow
            for flow_id, flow in component.flows.items()
        )
    assert sum(len(c.flows) for c in components) == len(fabric._active)
    assert sum(len(c.links) for c in components) == len(occupied)
    # Every pending hint is one live component's own, and vice versa.
    owned = [c.hint_event for c in components if c.hint_event is not None]
    pending = _pending_hints(fabric.engine)
    assert len(owned) == len(pending)
    assert {id(event) for event in owned} == {id(event) for event in pending}
    if not fabric._hinting:
        assert not pending


#: Histories that get to split a component: long enough for a bridge to
#: arrive between two components and leave before them, with rack-local
#: flows (which keep components apart) and short ones (which leave
#: first) mixed into the other suites' steps.
_splitting = histories(
    *FAULTED,
    st.builds(lambda pair, size: ("submit", *pair, size),
              st.sampled_from(RACK_PAIRS), st.floats(1e8, 4e9)),
    op("submit", a_host, a_host, st.floats(1e5, 1e7)),
    min_size=12,
    max_size=40,
)


@pytest.mark.parametrize("policy", SCOPED)
@given(_splitting)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_kept_components_equal_the_oracle_after_every_step(policy, ops):
    run = drive(ops, Run(policy), after_op=assert_components_match_the_oracle)
    fabric = run.drain()
    assert fabric._component_on == {} and not _pending_hints(fabric.engine)


@given(histories(*FAULTED))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_coflow_allocator_keeps_no_component(ops):
    def check(fabric):
        assert fabric._component_on is None
        assert not _pending_hints(fabric.engine)

    drive(ops, Run("varys"), after_op=check)


def _bridged(policy):
    """Flows 0 and 1 share nothing until flow 2 bridges them."""
    history = [
        ("submit", "h000", "h001", 4e9),
        ("submit", "h002", "h003", 4e9),
        ("submit", "h000", "h003", 4e9),
    ]
    fabric = drive(history, Run(policy)).fabric
    return fabric, fabric._active[2]


@pytest.mark.parametrize("policy", SCOPED)
def test_a_removed_bridge_leaves_two_components(policy):
    fabric, bridge = _bridged(policy)
    assert len(set(map(id, fabric._component_on.values()))) == 1
    fabric.cancel_flow(bridge)
    assert len(set(map(id, fabric._component_on.values()))) == 2
    assert_components_match_the_oracle(fabric)


def test_the_differential_sees_a_skipped_split_and_a_skipped_merge(monkeypatch):
    """The two ways the kept components can rot, each caught by the
    check above: a removal that never splits leaves one label over two
    components, a join that never merges leaves two over one."""
    with monkeypatch.context() as patch:
        patch.setattr(NetworkFabric, "_split", lambda *args: None)
        fabric, bridge = _bridged("srpt")
        fabric.cancel_flow(bridge)
        with pytest.raises(AssertionError):
            assert_components_match_the_oracle(fabric)

    def join_without_merge(self, flow):
        home = self._component_on.get(flow.path[0]) or _Component()
        home.flows[flow.flow_id] = flow
        home.links.update(flow.path)
        for link_id in flow.path:
            self._component_on.setdefault(link_id, home)

    monkeypatch.setattr(NetworkFabric, "_join", join_without_merge)
    fabric, _ = _bridged("srpt")
    with pytest.raises(AssertionError):
        assert_components_match_the_oracle(fabric)


@pytest.mark.slow
@pytest.mark.parametrize("policy", SCOPED)
def test_component_soak_clos_160(policy, monkeypatch):
    """After every recompute of a 160-host replay with three link
    failures (reroutes move flows between components mid-run)."""
    recompute = NetworkFabric._recompute
    checks = []

    def checked(self, *args, **kwargs):
        recompute(self, *args, **kwargs)
        assert_components_match_the_oracle(self, every_link=False)
        checks.append(len(self._component_on))

    monkeypatch.setattr(NetworkFabric, "_recompute", checked)
    plan = FaultPlan(
        events=(
            LinkDown(time=0.03, link="tor0->agg0_0"),
            LinkDown(time=0.06, link="agg1_1->core2"),
            LinkDown(time=0.09, link="agg2_0->tor9"),
        ),
        seed=7,
    )
    run = _clos_replay(
        three_tier_clos(), policy, num_arrivals=400, seed=7, faults=plan
    )
    assert run.flows_rerouted >= 2 and run.flows_aborted == 0
    assert len(checks) > 800 and max(checks) > 100
