"""Failure-injection tests: cancelled flows, empty fallbacks, edge cases.

A production scheduler survives tasks that die mid-transfer, candidate
sets that collapse, and daemons asked about idle hosts; these tests pin
that behaviour down.
"""

from __future__ import annotations

import pytest

from repro.coflow.policies.registry import make_coflow_allocator
from repro.coflow.tracking import CoflowTracker
from repro.errors import FlowError
from repro.network.fabric import NetworkFabric
from repro.network.policies.registry import make_allocator
from repro.placement.base import PlacementRequest
from repro.placement.neat import build_neat
from repro.sim.engine import Engine
from repro.topology.fabrics import single_switch

from tests import full_recompute_oracle


@pytest.fixture
def full_recompute(monkeypatch):
    """Check every recompute against the full allocation
    (``tests/full_recompute_oracle.py``); returns the oracle's log."""
    return full_recompute_oracle.install(monkeypatch)


@pytest.fixture(params=[True, False], ids=["incremental", "full"])
def incremental(request, monkeypatch):
    """Every failure path runs on the plain fabric (``incremental``) and
    with every recompute checked against the full allocation (``full``):
    cancellation is exactly where scoped and full recomputes part if the
    component bookkeeping forgets a flow."""
    if not request.param:
        full_recompute_oracle.install(monkeypatch)
    return request.param


def fresh(policy="fair", hosts=4):
    engine = Engine()
    fabric = NetworkFabric(engine, single_switch(hosts), make_allocator(policy))
    return engine, fabric


class TestCancelFlow:
    def test_cancel_frees_bandwidth_immediately(self, incremental):
        engine, fabric = fresh()
        victim = fabric.submit("h000", "h002", 4e9)
        survivor = fabric.submit("h001", "h002", 2e9)
        engine.run(until=1.0)
        fabric.cancel_flow(victim)
        engine.run()
        # Survivor had 1.5 Gb left at t=1; alone it finishes at t=2.5.
        assert survivor.fct() == pytest.approx(2.5)

    def test_cancelled_flow_leaves_no_record(self, incremental):
        engine, fabric = fresh()
        victim = fabric.submit("h000", "h001", 4e9)
        fabric.cancel_flow(victim)
        engine.run()
        assert fabric.records == ()
        assert fabric.active_flows() == []

    def test_cancel_inactive_flow_rejected(self, incremental):
        engine, fabric = fresh()
        flow = fabric.submit("h000", "h001", 1e9)
        engine.run()
        with pytest.raises(FlowError):
            fabric.cancel_flow(flow)

    def test_cancel_coflow_member_rejected(self):
        engine = Engine()
        fabric = NetworkFabric(
            engine, single_switch(4), make_coflow_allocator("varys")
        )
        tracker = CoflowTracker(fabric)
        coflow = tracker.submit_coflow([("h000", "h001", 1e9)])
        with pytest.raises(FlowError):
            fabric.cancel_flow(coflow.flows[0])

    def test_node_state_reflects_cancellation(self, incremental):
        engine, fabric = fresh()
        neat = build_neat(fabric)
        short = fabric.submit("h000", "h001", 1e8)
        # Cache sees the short flow...
        neat.place(
            PlacementRequest(size=1e9, data_node="h000", candidates=("h001",))
        )
        fabric.cancel_flow(short)
        # ...but a fresh query reflects the cancellation.
        reply_host = neat.place(
            PlacementRequest(
                size=5e9, data_node="h000", candidates=("h001", "h002")
            )
        )
        assert reply_host in ("h001", "h002")


class TestDegenerateInputs:
    def test_single_candidate_is_used(self, incremental):
        engine, fabric = fresh()
        neat = build_neat(fabric)
        host = neat.place(
            PlacementRequest(size=1e9, data_node="h000", candidates=("h003",))
        )
        assert host == "h003"

    def test_candidates_equal_data_node(self, incremental):
        engine, fabric = fresh()
        neat = build_neat(fabric)
        host = neat.place(
            PlacementRequest(size=1e9, data_node="h000", candidates=("h000",))
        )
        assert host == "h000"
        # Local read: no flow needed, predicted time zero.
        assert neat.daemon.decisions[-1].predicted_time == 0.0

    def test_all_hosts_busy_still_places(self, incremental):
        engine, fabric = fresh(hosts=3)
        neat = build_neat(fabric)
        for dst in ("h001", "h002"):
            fabric.submit("h000", dst, 1e8)
        host = neat.place(
            PlacementRequest(
                size=9e9, data_node="h000", candidates=("h001", "h002")
            )
        )
        assert host in ("h001", "h002")

    def test_zero_capacity_query_never_happens(self, incremental):
        """Daemons answer even for a fully saturated link (finite FCT)."""
        engine, fabric = fresh()
        for _ in range(10):
            fabric.submit("h000", "h001", 1e9)
        neat = build_neat(fabric)
        host = neat.place(
            PlacementRequest(
                size=1e9, data_node="h002", candidates=("h001",)
            )
        )
        assert host == "h001"
        assert neat.daemon.decisions[-1].predicted_time > 1.0


class TestScopedVsFullDifferential:
    """Cancellations and data-plane faults must leave every scoped
    recompute equal to the full one, and the oracle must change nothing."""

    @staticmethod
    def run_chaos():
        engine, fabric = fresh(hosts=6)
        cancel_me = fabric.submit("h000", "h001", 8e9)
        for i in range(4):
            fabric.submit(f"h00{i}", f"h00{(i + 2) % 6}", 2e9 + i * 1e8)
        engine.schedule_at(0.3, lambda: fabric.cancel_flow(cancel_me))
        engine.schedule_at(
            0.6, lambda: fabric.degrade_link("h002->sw0", 0.5)
        )
        engine.schedule_at(0.9, lambda: fabric.fail_link("h003->sw0"))
        engine.run()
        return fabric

    def test_cancel_and_faults_byte_identical(
        self, full_recompute, monkeypatch
    ):
        checked = self.run_chaos()
        assert full_recompute  # every recompute compared
        monkeypatch.undo()
        plain = self.run_chaos()
        assert checked.records == plain.records
        assert checked.flows_aborted == plain.flows_aborted == 1
        assert checked.engine.now == plain.engine.now

    #: Per removal: flows of which the first bridges the rest into one
    #: component.  Cancelling it leaves {h000 -> h003} and {h002 -> h001};
    #: failing sw0 -> h001 aborts it and h002 -> h001, and leaves
    #: {h000 -> h003} and {h002 -> h004}.  Either way the recompute's
    #: scope is two components, and the oracle checks that the second
    #: one's rates moved too (one flow in each doubles its rate).
    BRIDGED = {
        "cancel_flow": (("h000", "h001"), ("h002", "h001"), ("h000", "h003")),
        "fail_link": (
            ("h000", "h001"), ("h002", "h001"), ("h000", "h003"),
            ("h002", "h004"),
        ),
    }

    @pytest.mark.parametrize("removal", sorted(BRIDGED))
    def test_a_removed_bridge_recomputes_both_halves(
        self, removal, full_recompute
    ):
        engine, fabric = fresh(hosts=6)
        flows = [fabric.submit(s, d, 4e9) for s, d in self.BRIDGED[removal]]
        engine.run(until=0.5)
        if removal == "cancel_flow":
            fabric.cancel_flow(flows[0])
        else:
            fabric.fail_link("sw0->h001")
        assert len(fabric.active_flows()) == 2
        engine.run()
        assert len(full_recompute) >= len(flows) + 1
