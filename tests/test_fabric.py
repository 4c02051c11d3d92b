"""Tests for the network fabric: event integration, FCTs, and agreement
with hand-computed fluid-model results under every scheduling policy."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.network import kernels
from repro.network.fabric import NetworkFabric
from repro.network.policies.registry import make_allocator
from repro.placement.baselines import host_queued_bits
from repro.sim.engine import Engine
from repro.topology.fabrics import single_switch, three_tier_clos

from tests import full_recompute_oracle
from tests.coflow_query_oracle import residual
from tests.conftest import FILLS, make_fabric as fresh, pin_fill
from tests.fabric_history import (
    FAIL_LINK, FAULTED, FLOW_SIZE, HOSTS, NEAR_TIES, READ, SHUFFLE, Run,
    any_allocator, clos, coflows, drive, histories, read_everything,
    seeded_resubmits,
)


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
    engine, fabric = _two_components(any_allocator(policy))
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
    allocator, handed = any_allocator("fair" if scoped else "varys"), []
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
# Generated histories (tests/fabric_history.py): the full recompute, and
# host_edge_states, the daemons' one-pass read
# ----------------------------------------------------------------------
_histories = histories(*FAULTED)


@pytest.mark.parametrize("fill", FILLS)
@given(_histories, st.sampled_from(("fair", "fcfs", "las", "srpt")))
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
        fabric = drive(ops, Run(policy)).drain()
    assert len(checked) >= len(fabric.records)


@pytest.mark.slow
@pytest.mark.parametrize("policy", ["fair", "fcfs", "las", "srpt", "varys"])
@pytest.mark.parametrize("fill", FILLS)
@given(histories(
    *FAULTED, SHUFFLE, READ, *coflows(FLOW_SIZE), min_size=4, max_size=40
))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_every_history_holds_the_driver_invariants(fill, policy, ops):
    """The soak of tests/fabric_history.py: every op but the query, under
    every fill and every flow and coflow policy, with the full-recompute
    oracle after every recompute and the checks ``drive`` makes after
    every op and every event of the history and its drain."""
    with pytest.MonkeyPatch.context() as patch:
        pin_fill(patch, fill)
        full_recompute_oracle.install(patch)
        drive(ops, Run(policy)).drain()


def test_a_victim_the_evacuation_sync_finishes_leaves_a_record():
    """``fail_link`` syncs each flow on the link first; one that the sync
    finishes (1e9 bits at 1e9 bit/s, 2**-53 s before its completion)
    ends there, with its record, instead of being rerouted."""
    run = drive([("submit", "h000", "h004", 1e9), ("advance", 1 - 2**-53)],
                Run("fair"), expect="ok")
    drive([("fail_link", run.flows[0].path[2])], run, expect="ok")
    fabric = run.drain()
    assert fabric.flows_rerouted == 0 and len(fabric.records) == 1


@given(
    histories(*FAULTED, SHUFFLE, FAIL_LINK, min_size=4),
    st.sampled_from(("fair", "srpt")),
)
@settings(max_examples=60, deadline=None)
def test_host_edge_state_equals_the_two_reads_it_replaced(ops, policy):
    """``host_edge_states`` is ``flows_on_link`` + ``flows_at_host`` at
    their residuals (each flow's ``remaining`` as a sync now would leave
    it, spelled in ``tests/coflow_query_oracle.py``) bit for bit: the sizes
    and their order (which follows the link index, not the host index: a
    reroute re-inserts a flow into the former only) and the node state.
    Both directions of every host, one read each and then all of them in
    one call, after arbitrary histories (shuffles crowd a host's links and
    link failures come twice as often, so the two orders end apart in
    about 1 history in 10); no read writes any flow."""
    run = drive(ops, Run(policy))
    fabric, before = run.fabric, run.state()
    topology = fabric.topology
    reads = [
        (host, link.link_id)
        for host in HOSTS
        for link in (topology.host_downlink(host), topology.host_uplink(host))
    ]
    for read in reads:
        ((sizes, node_state),) = fabric.host_edge_states([read])
        host, link_id = read
        on_link = [residual(fabric, f) for f in fabric.flows_on_link(link_id)]
        at_host = [residual(fabric, f) for f in fabric.flows_at_host(host)]
        assert sizes == on_link
        assert node_state == (min(at_host) if at_host else float("inf"))
    assert fabric.host_edge_states(reads) == [
        fabric.host_edge_states([read])[0] for read in reads
    ]
    assert run.state() == before


def test_host_edge_state_orders_sizes_by_the_link_index_after_a_reroute():
    """The explicit case behind the property above: once ``fail_link``
    has rerouted the older of two flows into h000, the link index lists
    it last while the host index still lists it first."""
    engine = Engine()
    fabric = NetworkFabric(engine, clos(), make_allocator("fair"))
    old = fabric.submit("h007", "h000", 3e9)
    new = fabric.submit("h005", "h000", 1e9)
    engine.run(until=0.5)
    fabric.fail_link(old.path[1])
    assert fabric.flows_rerouted >= 1
    assert fabric.flows_at_host("h000") == [old, new]
    assert fabric.flows_on_link("tor0->h000") == [new, old]
    ((sizes, node_state),) = fabric.host_edge_states([("h000", "tor0->h000")])
    assert sizes == [new.remaining, old.remaining]
    assert node_state == new.remaining


@given(_histories, st.sampled_from(("fair", "srpt")))
@settings(max_examples=60, deadline=None)
def test_host_queued_bits_equals_the_sum_it_replaced(ops, policy):
    """A host's queued bits are ``sum`` over ``flows_at_host`` of their
    residuals bit for bit (an idle host reads 0), and the read writes no
    flow."""
    run = drive(ops, Run(policy))
    fabric, before = run.fabric, run.state()
    for host in HOSTS:
        assert fabric.hosts_queued_bits([host]) == [sum(
            residual(fabric, f) for f in fabric.flows_at_host(host)
        )]
    assert run.state() == before


@given(
    _histories,
    st.sampled_from(("fair", "srpt")),
    st.lists(st.sampled_from(HOSTS), max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_hosts_queued_bits_is_one_read_per_host(ops, policy, hosts):
    """minLoad's batched read equals one ``host_queued_bits`` per host with
    ``==`` (int 0 for an idle host, repeats and any order included), and
    leaves every flow as those reads did, after faulted histories too."""
    batched, one_by_one = Run(policy), Run(policy)
    drive(ops, batched, one_by_one)
    assert batched.fabric.hosts_queued_bits(hosts) == [
        host_queued_bits(one_by_one.fabric, host) for host in hosts
    ]
    assert batched.state() == one_by_one.state()


_read_histories = histories(*FAULTED, SHUFFLE, READ, READ, min_size=4, max_size=24)


@given(
    _read_histories, st.sampled_from(("fair", "fcfs", "las", "srpt", "varys"))
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_reads_at_any_instant_leave_the_trajectory_alone(ops, policy):
    """Reads of random hosts and links at random instants of a generated
    history (coflows, faults and a listener that submits included) write
    nothing: each flow's ``remaining``, ``attained`` and sync time at each
    read and after every op, and every flow and coflow record after the
    drain, equal those of the same history whose read events only look
    (the two run in lock-step)."""
    seen = ([], [])

    def reader(read, into):
        def at(run, host, link_id):
            read(run, host, link_id)
            into.append(run.state())

        return at

    runs = [
        Run(policy, reader(read, into))
        for read, into in zip((read_everything, lambda *_: None), seen)
    ]
    drive(ops, *runs)
    read_run, looked = [
        (run.drain().records, run.tracker.records) for run in runs
    ]
    assert seen[0] == seen[1] and read_run == looked


@pytest.mark.slow
@pytest.mark.parametrize("policy", ["fair", "srpt", "las"])
def test_a_read_of_every_host_before_every_submit_moves_no_record(
    policy, monkeypatch
):
    """ROADMAP M6 on the 160-host fig5 trace (websearch, load 0.7, 1,000
    arrivals, seed 42) under NEAT: ``hosts_queued_bits`` over every host
    before every submit leaves every record bit-identical (123 / 104 / 148
    fair / SRPT / LAS records moved while reads synced)."""
    from repro.experiments import MacroConfig, replay_flow_trace

    config = MacroConfig(
        pods=4, racks_per_pod=4, hosts_per_rack=10, workload="websearch",
        load=0.7, num_arrivals=1000, seed=42,
    )
    topology = config.build_topology()
    trace = config.build_trace(topology)

    def records():
        run = replay_flow_trace(
            trace, topology, network_policy=policy, placement="neat",
            seed=trace.seed,
        )
        return run.records

    plain = records()
    submit = NetworkFabric.submit

    def read_then_submit(fabric, *args, **kwargs):
        fabric.hosts_queued_bits(fabric.topology.hosts)
        return submit(fabric, *args, **kwargs)

    monkeypatch.setattr(NetworkFabric, "submit", read_then_submit)
    assert records() == plain


# ----------------------------------------------------------------------
# The member lists a hint tracks per link follow the link index
# ----------------------------------------------------------------------
_REROUTED = [
    ("submit", "h000", "h007", 8e9),
    ("submit", "h001", "h006", 6e9),
    ("submit", "h002", "h007", 3e9),
    ("submit", "h000", "h005", 2e9),
    ("advance", 0.5),
    ("fail_link", "core0->agg1_0"),  # on all four paths: each reroutes
    ("advance", 0.5),
    ("submit", "h003", "h006", 1e9),
]


def _tracked_lists(flows):
    """The per-link member lists the sorted sweep tracks as it walks
    ``flows``: link -> the ids of the flows crossing it."""
    lists = {}
    for flow in flows:
        for link_id in flow.path:
            lists.setdefault(link_id, []).append(flow.flow_id)
    return {link_id: sorted(ids) for link_id, ids in lists.items()}


def _check_whole_hints(patch, policy):
    """Make every hint of ``policy`` assert the sorted sweep's precondition
    (DESIGN.md §5.1): the flows handed over are active and include every
    flow the fabric indexes on any link of theirs, so the lists the sweep
    tracks from them are the links' members.  Returns the tracked lists
    of every hint, in order."""
    fabrics, hints = [], []
    schedule_hints = NetworkFabric._schedule_hints
    allocator_cls = type(make_allocator(policy))
    hint = allocator_cls.next_change_hint

    def scheduling(fabric, survivors, intact):
        fabrics.append(fabric)
        schedule_hints(fabric, survivors, intact)

    def checked(allocator, flows, rates):
        fabric = fabrics[-1]
        ids = {flow.flow_id for flow in flows}
        assert len(ids) == len(flows) and ids <= fabric._active.keys()
        lists = _tracked_lists(flows)
        for link_id, members in lists.items():
            assert members == sorted(fabric._by_link[link_id])
        hints.append(lists)
        return hint(allocator, flows, rates)

    patch.setattr(NetworkFabric, "_schedule_hints", scheduling)
    patch.setattr(allocator_cls, "next_change_hint", checked)
    return hints


@given(_histories, st.sampled_from(("las", "srpt")))
@settings(max_examples=60, deadline=None)
def test_tracked_member_lists_follow_the_link_index(ops, policy):
    """At every hint of a generated history (reroutes included) and of
    its drain, the hinted flows are whole sharing components: the
    per-link lists the sweep tracks from them hold exactly the flows the
    fabric indexes on those links, and the index is empty once the
    network drains."""
    with pytest.MonkeyPatch.context() as patch:
        _check_whole_hints(patch, policy)
        fabric = drive(ops, Run(policy)).drain()
    assert not any(fabric._by_link.values())


@pytest.mark.parametrize("policy", ["las", "srpt"])
def test_reroute_moves_the_flow_between_tracked_lists(policy, monkeypatch):
    """The pinned cases behind the property above: ``fail_link`` swaps a
    flow's path, and the next hint must track it on the new links and
    on none of the old ones, which the link index no longer lists it on."""
    hints = _check_whole_hints(monkeypatch, policy)
    engine = Engine()
    fabric = NetworkFabric(engine, clos(), make_allocator(policy))
    flow = fabric.submit("h000", "h007", 8e9)
    engine.run(until=0.5)
    old_path = flow.path
    before = len(hints)
    fabric.fail_link(old_path[2])  # the agg -> core hop
    assert fabric.flows_rerouted == 1 and flow.path != old_path
    assert len(hints) > before
    tracked = hints[-1]
    for link_id in set(old_path) - set(flow.path):
        assert link_id not in tracked
        assert flow.flow_id not in fabric._by_link[link_id]
    for link_id in flow.path:
        assert tracked[link_id] == [flow.flow_id]
    engine.run()
    assert len(fabric.records) == 1 and not any(fabric._by_link.values())

    del hints[:]
    fabric = drive(_REROUTED, Run(policy)).drain()
    assert fabric.flows_rerouted == 4 and len(hints) >= 5


@pytest.mark.parametrize("policy", ["las", "srpt"])
def test_a_hint_after_a_re_entrant_submit_sees_every_flow(policy, monkeypatch):
    """A completion listener that submits runs after the recompute that
    settled its flow (DESIGN.md §5.1, "Listeners"), so no recompute hints
    a stale survivor list: every hint, the resubmits' included, is handed
    whole sharing components."""
    hints = _check_whole_hints(monkeypatch, policy)
    for seed in range(10):
        engine = Engine()
        fabric = NetworkFabric(engine, clos(), make_allocator(policy))
        seeded_resubmits(engine, fabric, seed)
        engine.run()
        assert not fabric._active and len(fabric.records) == 32
    assert len(hints) > 100


# ----------------------------------------------------------------------
# The priority closure: a swap no hint reports
# ----------------------------------------------------------------------
def test_an_unhinted_swap_re_fills_both_flows(monkeypatch):
    """Two SRPT flows on ``sw0->h002``, 0.5 bit apart (inside
    ``SIZE_TIE_TOLERANCE``) and arrived at different times, are neither
    one priority group nor a hinted pair: the one behind moves three
    times as fast and passes the other with no event.  The next arrival
    touches neither flow's links, yet the per-link rank check makes the
    link they share live, so both are re-filled (DESIGN.md §5.1,
    "Priority closure"), under the full-recompute oracle."""
    checked = full_recompute_oracle.install(monkeypatch)
    refilled, refill = [], kernels.refill

    def spy(groups, *args):
        rates = refill(groups, *args)
        refilled.append(set(rates))
        return rates

    monkeypatch.setattr(kernels, "refill", spy)
    engine = Engine()
    fabric = NetworkFabric(engine, single_switch(5), make_allocator("srpt"))
    fabric.degrade_link("h000->sw0", 0.25)
    ahead = fabric.submit("h000", "h002", 1e8)  # 0.25 Gbps, its uplink's
    held = fabric.submit("h000", "h003", 1e9)  # behind it on that uplink
    engine.run(until=1e-3)
    behind = fabric.submit("h001", "h002", fabric.residual(ahead) + 0.5)
    recomputes = len(checked)
    engine.run(until=2e-3)
    assert len(checked) == recomputes  # no hint, no event
    assert fabric.residual(behind) < fabric.residual(ahead) - 1e5
    fabric.submit("h004", "h003", 2e9)  # on held's downlink only
    assert {ahead.flow_id, behind.flow_id, held.flow_id} <= refilled[-1]
    rates = fabric._rates
    assert (rates[behind.flow_id], rates[ahead.flow_id]) == (1e9, 0.0)
    assert rates[held.flow_id] == 0.25e9
    engine.run()
    assert len(fabric.records) == 4


def _swaps(patch):
    """Wrap the priority closure's refill: the list gains a flow id for
    each refill in which that flow, known from the last cascade, now comes
    after a flow ranked behind it there on one of its links."""
    swaps, refill = [], kernels.refill

    def spying(groups, capacities, fills, *rest):
        highest = {}
        for (flow,) in groups:
            rank = fills[flow.flow_id][0] if flow.flow_id in fills else 0
            if rank and any(highest.get(link, 0) > rank for link in flow.path):
                swaps.append(flow.flow_id)
                break
            for link_id in flow.path:
                highest[link_id] = max(highest.get(link_id, 0), rank)
        return refill(groups, capacities, fills, *rest)

    patch.setattr(kernels, "refill", spying)
    return swaps


def test_near_ties_swap_with_no_hint_under_the_oracle():
    """Generated near ties (``NEAR_TIE``: half a bit apart, the second
    arrived 1 us later, some slowed by a degraded link) under SRPT, with
    the full-recompute oracle after every recompute.  Enough histories
    reach a swap no event reports that a closure without the per-link
    rank check fails here."""
    reached = []

    @given(histories(*NEAR_TIES, min_size=6, max_size=20))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def one(ops):
        with pytest.MonkeyPatch.context() as patch:
            full_recompute_oracle.install(patch)
            swaps = _swaps(patch)
            drive(ops, Run("srpt")).drain()
        reached.append(bool(swaps))

    one()
    assert sum(reached) >= 3, f"{sum(reached)} of {len(reached)} histories"
