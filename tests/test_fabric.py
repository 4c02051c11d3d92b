"""Tests for the network fabric: event integration, FCTs, and agreement
with hand-computed fluid-model results under every scheduling policy."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.network.fabric import NetworkFabric
from repro.network.policies.registry import make_allocator
from repro.sim.engine import Engine
from repro.topology.fabrics import single_switch, three_tier_clos

from tests import full_recompute_oracle
from tests.conftest import FILLS, pin_fill


def fresh(policy="fair", hosts=4):
    engine = Engine()
    fabric = NetworkFabric(engine, single_switch(hosts), make_allocator(policy))
    return engine, fabric


class TestBasics:
    def test_single_flow_runs_at_line_rate(self):
        engine, fabric = fresh()
        flow = fabric.submit("h000", "h001", 2e9)  # 2 Gb over 1 Gbps
        engine.run()
        assert flow.fct() == pytest.approx(2.0)

    def test_local_flow_completes_instantly(self):
        engine, fabric = fresh()
        flow = fabric.submit("h000", "h000", 5e9)
        assert flow.completion_time == 0.0
        assert fabric.records[0].optimal_fct == 0.0

    def test_records_accumulate_in_completion_order(self):
        engine, fabric = fresh()
        fabric.submit("h000", "h001", 2e9, tag="slow")
        fabric.submit("h002", "h003", 1e9, tag="fast")
        engine.run()
        assert [r.tag for r in fabric.records] == ["fast", "slow"]

    def test_optimal_fct_uses_path_bottleneck(self):
        engine, fabric = fresh()
        assert fabric.optimal_fct("h000", "h001", 3e9) == pytest.approx(3.0)
        assert fabric.optimal_fct("h000", "h000", 3e9) == 0.0

    def test_flows_at_host_and_on_link(self):
        engine, fabric = fresh()
        fabric.submit("h000", "h001", 2e9)
        fabric.submit("h000", "h002", 2e9)
        assert len(fabric.flows_at_host("h000")) == 2
        assert len(fabric.flows_at_host("h001")) == 1
        assert len(fabric.flows_on_link("h000->sw0")) == 2
        assert len(fabric.flows_on_link("sw0->h001")) == 1
        engine.run()
        assert fabric.flows_at_host("h000") == []
        assert fabric.flows_on_link("h000->sw0") == []

    def test_link_queued_bits_decreases(self):
        engine, fabric = fresh()
        fabric.submit("h000", "h001", 2e9)
        start = fabric.link_queued_bits("h000->sw0")
        engine.run(until=1.0)
        mid = fabric.link_queued_bits("h000->sw0")
        assert start == pytest.approx(2e9)
        assert mid == pytest.approx(1e9)

    def test_link_rate_utilization(self):
        engine, fabric = fresh()
        fabric.submit("h000", "h001", 2e9)
        assert fabric.link_rate_utilization("h000->sw0") == pytest.approx(1.0)
        assert fabric.link_rate_utilization("h002->sw0") == 0.0

    def test_completion_listener_fires(self):
        engine, fabric = fresh()
        seen = []
        fabric.add_completion_listener(lambda f, r: seen.append(r.tag))
        fabric.submit("h000", "h001", 1e9, tag="x")
        engine.run()
        assert seen == ["x"]

    def test_arrival_listener_fires_for_remote_only(self):
        engine, fabric = fresh()
        seen = []
        fabric.add_arrival_listener(lambda f: seen.append(f.flow_id))
        fabric.submit("h000", "h000", 1e9)  # local: no arrival event
        remote = fabric.submit("h000", "h001", 1e9)
        assert seen == [remote.flow_id]


class TestFairDynamics:
    def test_two_flows_share_then_speed_up(self):
        """1 Gb and 3 Gb share a downlink: fair FCTs are 2 s and 4 s."""
        engine, fabric = fresh("fair")
        small = fabric.submit("h000", "h002", 1e9)
        big = fabric.submit("h001", "h002", 3e9)
        engine.run()
        assert small.fct() == pytest.approx(2.0)
        assert big.fct() == pytest.approx(4.0)

    def test_late_arrival_shares_remaining(self):
        engine, fabric = fresh("fair")
        first = fabric.submit("h000", "h002", 2e9)
        engine.run(until=1.0)  # first has 1 Gb left
        second = fabric.submit("h001", "h002", 1e9)
        engine.run()
        # Both have 1 Gb left at t=1; share until both finish at t=3.
        assert first.fct() == pytest.approx(3.0)
        assert second.fct() == pytest.approx(2.0)


class TestSRPTDynamics:
    def test_short_preempts_long(self):
        engine, fabric = fresh("srpt")
        long = fabric.submit("h000", "h002", 4e9)
        engine.run(until=1.0)
        short = fabric.submit("h001", "h002", 1e9)
        engine.run()
        assert short.fct() == pytest.approx(1.0)
        assert long.fct() == pytest.approx(5.0)  # 4 s work + 1 s preempted

    def test_preemption_switches_when_remaining_crosses(self):
        engine, fabric = fresh("srpt")
        first = fabric.submit("h000", "h002", 3e9)
        engine.run(until=2.0)  # remaining 1 Gb
        second = fabric.submit("h001", "h002", 2e9)
        engine.run()
        # first (1 Gb left) still smaller: finishes at 3 s; second waits.
        assert first.fct() == pytest.approx(3.0)
        assert second.fct() == pytest.approx(3.0)


class TestLASDynamics:
    def test_newcomer_catches_up_then_shares(self):
        """FB scheduling: 2 Gb flow runs 1 s alone, then a fresh 2 Gb flow
        preempts until it has also attained 1 Gb, then they share."""
        engine, fabric = fresh("las")
        old = fabric.submit("h000", "h002", 2e9)
        engine.run(until=1.0)
        young = fabric.submit("h001", "h002", 2e9)
        engine.run()
        # young runs alone 1 s (catching up), then both share at 0.5:
        # each has 1 Gb left -> 2 more seconds. Finish at t=4.
        assert young.fct() == pytest.approx(3.0)
        assert old.fct() == pytest.approx(4.0)

    def test_las_equivalent_to_fair_for_simultaneous_flows(self):
        for policy in ("las", "fair"):
            engine, fabric = fresh(policy)
            a = fabric.submit("h000", "h002", 1e9)
            b = fabric.submit("h001", "h002", 3e9)
            engine.run()
            assert a.fct() == pytest.approx(2.0)
            assert b.fct() == pytest.approx(4.0)


class TestFCFSDynamics:
    def test_strict_ordering(self):
        engine, fabric = fresh("fcfs")
        first = fabric.submit("h000", "h002", 2e9)
        engine.run(until=0.5)
        second = fabric.submit("h001", "h002", 1e9)
        engine.run()
        assert first.fct() == pytest.approx(2.0)
        assert second.fct() == pytest.approx(2.5)  # waits until t=2


class TestClosFabric:
    def test_cross_pod_flow_at_line_rate(self):
        engine = Engine()
        topo = three_tier_clos(pods=2, racks_per_pod=2, hosts_per_rack=2)
        fabric = NetworkFabric(engine, topo, make_allocator("fair"))
        flow = fabric.submit(topo.hosts[0], topo.hosts[-1], 1e9)
        engine.run()
        assert flow.fct() == pytest.approx(1.0)  # edge is the bottleneck

    def test_oversubscribed_core_throttles(self):
        engine = Engine()
        topo = three_tier_clos(
            pods=2, racks_per_pod=1, hosts_per_rack=4,
            aggs_per_pod=1, cores=1, oversubscription=10.0,
        )
        fabric = NetworkFabric(engine, topo, make_allocator("fair"))
        # Four cross-pod flows share the single 1 Gbps core path.
        flows = [
            fabric.submit(topo.hosts[i], topo.hosts[4 + i], 1e9)
            for i in range(4)
        ]
        engine.run()
        assert all(f.fct() > 1.5 for f in flows)

    def test_many_flows_all_complete(self):
        engine, fabric = fresh("fair", hosts=8)
        import random
        rng = random.Random(3)
        hosts = fabric.topology.hosts
        for i in range(60):
            src, dst = rng.sample(list(hosts), 2)
            fabric.submit(src, dst, rng.uniform(1e7, 1e9))
        engine.run()
        assert len(fabric.records) == 60
        assert all(r.fct >= 0 for r in fabric.records)
        # Nothing beats the empty-network optimum.
        assert all(r.slowdown >= 1.0 - 1e-9 for r in fabric.records)


# ----------------------------------------------------------------------
# The sharing components the fabric keeps, and the hints they own
# ----------------------------------------------------------------------
from repro.coflow.policies import make_coflow_allocator  # noqa: E402


def _allocator(policy):
    return (
        make_coflow_allocator(policy) if policy == "varys"
        else make_allocator(policy)
    )


def _two_components(allocator):
    """Two disjoint sharing components on one switch, each an old flow
    caught up by a younger one: {0, 2} into h001 and {1, 3} into h004."""
    engine = Engine()
    fabric = NetworkFabric(engine, single_switch(7), allocator)
    fabric.submit("h000", "h001", 4e9)
    fabric.submit("h003", "h004", 4e9)
    engine.run(until=1.0)
    fabric.submit("h002", "h001", 4e9)
    fabric.submit("h005", "h004", 4e9)
    return engine, fabric


def _component_of(fabric, flow_id):
    return fabric._component_on[fabric._active[flow_id].path[0]]


def _pending_hints(engine):
    return [
        event for event in engine._queue._heap
        if event.label == "fabric-hint" and not event.cancelled
    ]


def _count_walks(monkeypatch):
    """Every walk of the sharing graph, as the links it was asked to
    re-join: ``_split`` is the fabric's only method that walks it."""
    walks = []
    split = NetworkFabric._split
    monkeypatch.setattr(
        NetworkFabric,
        "_split",
        lambda self, component, shared: walks.append(tuple(shared))
        or split(self, component, shared),
    )
    return walks


@pytest.mark.parametrize("policy", ["fair", "fcfs", "las", "srpt", "varys"])
def test_only_a_removal_walks_the_sharing_graph(policy, monkeypatch):
    """Counted, not timed: no link is walked on a ``submit`` (not even
    one that merges two components) or on a fired hint, a removal whose
    flow leaves at most one occupied link walks nothing, and removing a
    bridge walks once.  Fair and FCFS keep the same components LAS and
    SRPT do but never ask for a hint; a coflow allocator keeps none."""
    walks = _count_walks(monkeypatch)
    engine, fabric = _two_components(_allocator(policy))
    bridge = fabric.submit("h000", "h004", 4e9)
    assert walks == []
    if policy == "varys":
        assert fabric._component_on is None
    else:
        whole = _component_of(fabric, 0)
        assert sorted(whole.flows) == [0, 1, 2, 3, 4]
        assert set(fabric._component_on.values()) == {whole}
    assert len(_pending_hints(engine)) == (policy == "las")

    fabric.cancel_flow(bridge)
    shared = ("h000->sw0", "sw0->h004")  # flow 0 and flows 1, 3 remain
    assert walks == ([] if policy == "varys" else [shared])
    if policy != "varys":
        assert sorted(_component_of(fabric, 0).flows) == [0, 2]
        assert sorted(_component_of(fabric, 1).flows) == [1, 3]
    assert len(_pending_hints(engine)) == 2 * (policy == "las")

    # Hints fire (LAS) and every flow completes: each removal empties
    # the flow's uplink and leaves only its downlink occupied.
    engine.run()
    assert len(fabric.records) == 4
    assert len(walks) == (policy != "varys")
    assert not fabric._component_on


@pytest.mark.parametrize("scoped", [True, False])
def test_both_modes_hand_the_allocator_the_one_capacity_map(
    scoped, monkeypatch
):
    """Scoped (a flow policy) or full (a coflow allocator), the allocator
    is handed the fabric's own map (it only looks links up), never a
    per-event copy of the scope's links."""
    allocator, handed = _allocator("fair" if scoped else "varys"), []
    allocate = allocator.allocate
    monkeypatch.setattr(
        allocator,
        "allocate",
        lambda flows, capacities: handed.append(capacities)
        or allocate(flows, capacities),
    )
    engine = Engine()
    fabric = NetworkFabric(engine, single_switch(7), allocator)
    assert (fabric._component_on is not None) == scoped
    fabric.submit("h000", "h001", 4e9)
    fabric.submit("h003", "h004", 4e9)
    engine.run(until=1.0)
    fabric.submit("h002", "h001", 4e9)
    engine.run()
    assert handed
    assert all(capacities is fabric._capacities for capacities in handed)


@pytest.mark.parametrize("policy", ["las", "srpt"])
def test_hinting_allocator_scopes_per_true_component(policy):
    engine, fabric = _two_components(make_allocator(policy))
    into_h001, into_h004 = _component_of(fabric, 0), _component_of(fabric, 1)
    assert into_h001 is not into_h004
    assert _component_of(fabric, 2) is into_h001
    assert _component_of(fabric, 3) is into_h004
    assert sorted(into_h001.flows) == [0, 2]
    assert sorted(into_h004.flows) == [1, 3]
    assert into_h001.links == {"h000->sw0", "h002->sw0", "sw0->h001"}
    assert into_h004.links == {"h003->sw0", "h005->sw0", "sw0->h004"}


def test_las_hint_is_cancelled_only_for_the_swallowed_component():
    engine, fabric = _two_components(make_allocator("las"))
    into_h001, into_h004 = _component_of(fabric, 0), _component_of(fabric, 1)
    # The younger flow catches up its elder's 1 Gb at t = 2: one pending
    # hint per component.
    hints = [component.hint_event for component in (into_h001, into_h004)]
    assert [h.label for h in hints] == ["fabric-hint"] * 2
    assert [h.time for h in hints] == [pytest.approx(2.0)] * 2
    assert not any(h.cancelled for h in hints)
    # An arrival into h001 swallows that component only.
    engine.run(until=1.5)
    fabric.submit("h006", "h001", 4e9)
    assert hints[0].cancelled and into_h001.hint_event is not hints[0]
    assert not hints[1].cancelled and into_h004.hint_event is hints[1]
    assert _component_of(fabric, 0) is into_h001
    assert sorted(into_h001.flows) == [0, 2, 4]
    assert _component_of(fabric, 1) is into_h004
    engine.run()
    assert len(fabric.records) == 5


#: Per policy: submissions ``(time, src, dst, size)`` that build one
#: sharing component out of two halves joined by a single bridge flow
#: (the last submitted, h000 -> h003), when that bridge has completed,
#: and each half's flow ids with the time of its own pending hint.
_BRIDGED = {
    # Per half a small flow into the sink stalls a medium one, whose
    # uplink a large flow then uses: the large one undercuts the medium.
    "srpt": (
        [
            (0.0, "h004", "h001", 2e9), (0.0, "h000", "h001", 3e9),
            (0.0, "h000", "h005", 3.5e9), (0.0, "h006", "h003", 2e9),
            (0.0, "h002", "h003", 3e9), (0.0, "h002", "h007", 3.5e9),
            (0.0, "h000", "h003", 0.2e9),
        ],
        0.25,
        [((0, 1, 2), 0.7), ((3, 4, 5), 0.5)],
    ),
    # Per half a newcomer catches up its elder's attained service.
    "las": (
        [
            (0.0, "h000", "h001", 4e9), (0.0, "h002", "h003", 4e9),
            (1.0, "h004", "h001", 2e9), (1.0, "h005", "h003", 2e9),
            (1.0, "h000", "h003", 0.1e9),
        ],
        1.25,
        [((0, 2), 2.0), ((1, 3), 2.1)],
    ),
}


@pytest.mark.parametrize("policy", ["las", "srpt"])
def test_only_a_removal_splits_scopes(policy, monkeypatch):
    """Arrivals merge components and a fired hint hands over its own, so
    neither walks the graph; only a removal can split one, and a
    completed bridge leaves two components, each with its own hint."""
    walks = _count_walks(monkeypatch)
    submissions, bridge_done, halves = _BRIDGED[policy]
    engine = Engine()
    fabric = NetworkFabric(engine, single_switch(8), make_allocator(policy))
    for time, src, dst, size in submissions:
        engine.run(until=time)
        fabric.submit(src, dst, size)
    everyone = list(range(len(submissions)))
    whole = _component_of(fabric, 0)
    assert sorted(whole.flows) == everyone
    assert all(_component_of(fabric, fid) is whole for fid in everyone)
    assert walks == []

    engine.run(until=bridge_done)
    assert [r.flow_id for r in fabric.records] == [everyone[-1]]
    assert walks == [("h000->sw0", "sw0->h003")]
    parts = [_component_of(fabric, ids[0]) for ids, _ in halves]
    assert [tuple(sorted(part.flows)) for part in parts] == [
        ids for ids, _ in halves
    ]
    assert parts[0].links.isdisjoint(parts[1].links)
    assert [part.hint_event.time for part in parts] == [
        pytest.approx(at) for _, at in halves
    ]
    assert len(_pending_hints(engine)) == 2

    # The earlier hint fires: its half is recomputed as it stands, with
    # no walk, and the other half's hint stays pending.
    first = min((0, 1), key=lambda i: halves[i][1])
    fired, other_hint = parts[first].hint_event, parts[1 - first].hint_event
    engine.run(until=(halves[0][1] + halves[1][1]) / 2)
    assert len(walks) == 1
    assert _component_of(fabric, halves[first][0][0]) is parts[first]
    assert tuple(sorted(parts[first].flows)) == halves[first][0]
    assert parts[first].hint_event is not fired and not fired.cancelled
    assert parts[1 - first].hint_event is other_hint
    assert not other_hint.cancelled
    engine.run()
    assert len(fabric.records) == len(submissions)


# ----------------------------------------------------------------------
# host_edge_state: the daemons' one-pass read
# ----------------------------------------------------------------------
def _clos():
    return three_tier_clos(pods=2, racks_per_pod=2, hosts_per_rack=2, cores=2)


_HOSTS = tuple(_clos().hosts)
# Failable links: all but the tor <-> agg*_1 <-> core1 plane, so every
# host pair keeps a route and ``submit`` cannot raise RoutingError.
_FABRIC_LINKS = tuple(
    sorted(
        link.link_id
        for link in _clos().links()
        if not link.is_edge
        and not ("_1" in link.link_id and "core0" not in link.link_id)
    )
)

_EVERY_LINK = tuple(sorted(link.link_id for link in _clos().links()))

_fabric_op = st.one_of(
    st.tuples(
        st.just("submit"),
        st.sampled_from(_HOSTS),
        st.sampled_from(_HOSTS),
        st.floats(1e6, 4e9),
    ),
    st.tuples(st.just("advance"), st.floats(1e-4, 1.5)),
    st.tuples(st.just("cancel_flow"), st.integers(0, 63)),
    st.tuples(
        st.just("degrade_link"),
        st.sampled_from(_EVERY_LINK),
        st.sampled_from((0.25, 0.5, 2.0, 4.0)),
    ),
    st.tuples(st.just("fail_link"), st.sampled_from(_FABRIC_LINKS)),
    st.tuples(st.just("fail_host"), st.sampled_from(_HOSTS)),
)
_fabric_ops = st.lists(_fabric_op, min_size=1, max_size=14)


def _driven(ops, policy, after_op=None):
    """A fabric after ``ops``, stopped between events (so flows are
    mid-flight and unsynced, as a placement query finds them);
    ``after_op(fabric)`` runs after every op.  A submit that touches a
    failed host is skipped; ``cancel_flow`` picks among the active
    flows by index."""
    engine = Engine()
    fabric = NetworkFabric(engine, _clos(), _allocator(policy))
    for op in ops:
        if op[0] == "submit":
            if op[1] != op[2] and all(map(fabric.host_is_up, op[1:3])):
                fabric.submit(op[1], op[2], op[3])
        elif op[0] == "advance":
            engine.run(until=engine.now + op[1])
        elif op[0] == "cancel_flow":
            active = sorted(fabric._active)
            if active:
                fabric.cancel_flow(fabric._active[active[op[1] % len(active)]])
        else:  # degrade_link / fail_link / fail_host
            getattr(fabric, op[0])(*op[1:])
        if after_op is not None:
            after_op(fabric)
    return fabric


@pytest.mark.parametrize("fill", FILLS)
@given(_fabric_ops, st.sampled_from(("fair", "fcfs", "las", "srpt")))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_every_recompute_of_a_history_is_the_full_allocation(
    fill, ops, policy
):
    """The full-recompute oracle after every recompute of a generated
    history (submit, advance, cancel, degrade, fail a link or a host)
    and of the drain that follows it."""
    with pytest.MonkeyPatch.context() as patch:
        pin_fill(patch, fill)
        checked = full_recompute_oracle.install(patch)
        fabric = _driven(ops, policy)
        fabric.engine.run()
    assert not fabric._active
    assert len(checked) >= len(fabric.records)


def _progress(fabric):
    return {
        flow_id: (flow.remaining, flow.attained, fabric._synced_at[flow_id])
        for flow_id, flow in fabric._active.items()
    }


@given(_fabric_ops, st.sampled_from(("fair", "srpt")))
@settings(max_examples=60, deadline=None)
def test_host_edge_state_equals_the_two_reads_it_replaced(ops, policy):
    """``host_edge_state`` is ``flows_on_link`` + ``flows_at_host`` bit
    for bit: the sizes and their order (which follows the link index,
    not the host index: a reroute re-inserts a flow into the former
    only), the node state, and what the call leaves behind in every
    flow.  Both directions of every host, after arbitrary histories."""
    one_pass, two_reads = _driven(ops, policy), _driven(ops, policy)
    topology = one_pass.topology
    for host in _HOSTS:
        for link in (topology.host_downlink(host), topology.host_uplink(host)):
            sizes, node_state = one_pass.host_edge_state(host, link.link_id)
            on_link = [f.remaining for f in two_reads.flows_on_link(link.link_id)]
            at_host = [f.remaining for f in two_reads.flows_at_host(host)]
            assert sizes == on_link
            assert node_state == (min(at_host) if at_host else float("inf"))
            assert _progress(one_pass) == _progress(two_reads)


def test_host_edge_state_orders_sizes_by_the_link_index_after_a_reroute():
    """The explicit case behind the property above: once ``fail_link``
    has rerouted the older of two flows into h000, the link index lists
    it last while the host index still lists it first."""
    engine = Engine()
    fabric = NetworkFabric(engine, _clos(), make_allocator("fair"))
    old = fabric.submit("h007", "h000", 3e9)
    new = fabric.submit("h005", "h000", 1e9)
    engine.run(until=0.5)
    fabric.fail_link(old.path[1])
    assert fabric.flows_rerouted >= 1
    assert fabric.flows_at_host("h000") == [old, new]
    assert fabric.flows_on_link("tor0->h000") == [new, old]
    sizes, node_state = fabric.host_edge_state("h000", "tor0->h000")
    assert sizes == [new.remaining, old.remaining]
    assert node_state == new.remaining


@given(_fabric_ops, st.sampled_from(("fair", "srpt")))
@settings(max_examples=60, deadline=None)
def test_host_queued_bits_equals_the_sum_it_replaced(ops, policy):
    """``host_queued_bits`` is ``sum`` over ``flows_at_host`` bit for
    bit (an idle host reads 0), and leaves every flow as that read did."""
    one_pass, summed = _driven(ops, policy), _driven(ops, policy)
    for host in _HOSTS:
        assert one_pass.host_queued_bits(host) == sum(
            f.remaining for f in summed.flows_at_host(host)
        )
        assert _progress(one_pass) == _progress(summed)


# ----------------------------------------------------------------------
# The allocator's tracked member lists follow the link index
# ----------------------------------------------------------------------
def _tracked_ids(fabric):
    return {
        link_id: sorted(flow.flow_id for flow in members)
        for link_id, members in fabric.allocator._link_members.items()
        if members
    }


def _assert_tracked_lists_follow_the_link_index(fabric):
    assert _tracked_ids(fabric) == {
        link_id: sorted(members)
        for link_id, members in fabric._by_link.items()
        if members
    }


@given(_fabric_ops, st.sampled_from(("las", "srpt")))
@settings(max_examples=60, deadline=None)
def test_tracked_member_lists_follow_the_link_index(ops, policy):
    """After every step of a generated history (reroutes included) the
    hinting allocators' per-link member lists hold exactly the flows the
    fabric indexes on that link, and nothing once the network drains."""
    fabric = _driven(ops, policy, _assert_tracked_lists_follow_the_link_index)
    fabric.engine.run()
    assert _tracked_ids(fabric) == {}
    assert fabric.allocator._tracked_flows == 0


@pytest.mark.parametrize("policy", ["las", "srpt"])
def test_reroute_moves_the_flow_between_tracked_lists(policy):
    """The pinned case behind the property above: ``fail_link`` swaps a
    flow's path, and the allocator must see it leave the old links and
    arrive on the new ones (it kept the old lists, and a finished ghost
    in them, when the swap went unannounced)."""
    engine = Engine()
    fabric = NetworkFabric(engine, _clos(), make_allocator(policy))
    flow = fabric.submit("h000", "h007", 8e9)
    engine.run(until=0.5)
    old_path = flow.path
    fabric.fail_link(old_path[2])  # the agg -> core hop
    assert fabric.flows_rerouted == 1 and flow.path != old_path
    tracked = fabric.allocator._link_members
    for link_id in set(old_path) - set(flow.path):
        assert flow not in tracked[link_id]
    for link_id in flow.path:
        assert tracked[link_id] == [flow]
    _assert_tracked_lists_follow_the_link_index(fabric)
    engine.run()
    assert len(fabric.records) == 1
    assert _tracked_ids(fabric) == {}
    assert fabric.allocator._tracked_flows == 0
