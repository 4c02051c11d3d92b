"""Tests for the coflow model, schedulers, and CCT tracking."""

from __future__ import annotations

import pytest

from repro.coflow.coflow import Coflow
from repro.coflow.policies.base import (
    collect_coflows,
    column_bottleneck,
    link_columns,
)
from repro.coflow.policies.registry import (
    available_coflow_policies,
    make_coflow_allocator,
)
from repro.coflow.tracking import CoflowTracker
from repro.errors import CoflowError, ConfigError
from repro.network.fabric import NetworkFabric
from repro.network.flow import Flow
from repro.network.policies.registry import make_allocator
from repro.sim.engine import Engine
from repro.topology.base import TopoNode, Topology
from repro.topology.fabrics import single_switch


def coflow_fabric(policy="varys", hosts=6):
    engine = Engine()
    fabric = NetworkFabric(
        engine, single_switch(hosts), make_coflow_allocator(policy)
    )
    return engine, fabric, CoflowTracker(fabric)


def gamma_of(members, capacities):
    """A group's bottleneck duration alone on ``capacities``."""
    cols_of, _crossing, capacity = link_columns(members, capacities)
    demand = {}
    for flow in members:
        for col in cols_of[flow.flow_id]:
            demand[col] = demand.get(col, 0.0) + flow.remaining
    return column_bottleneck(demand, capacity)


def bare_flow(fid, path, size=1e9, arrival=0.0, coflow=None):
    return Flow(
        flow_id=fid, src="x", dst="y", size=size, path=tuple(path),
        arrival_time=arrival, coflow=coflow,
    )


class TestCoflowModel:
    def test_aggregates(self):
        c = Coflow(coflow_id=0, arrival_time=0.0)
        c.attach_flow(bare_flow(0, ["a"], size=3.0))
        c.attach_flow(bare_flow(1, ["a", "b"], size=5.0))
        assert c.total_size == 8.0
        assert c.size_on_link("a") == 8.0
        assert c.size_on_link("b") == 5.0
        assert c.link_demands() == {"a": 8.0, "b": 5.0}

    def test_seal_empty_rejected(self):
        with pytest.raises(CoflowError):
            Coflow(coflow_id=0, arrival_time=0.0).seal()

    def test_attach_after_seal_rejected(self):
        c = Coflow(coflow_id=0, arrival_time=0.0)
        c.attach_flow(bare_flow(0, ["a"]))
        c.seal()
        with pytest.raises(CoflowError):
            c.attach_flow(bare_flow(1, ["a"]))

    def test_cct_requires_completion(self):
        c = Coflow(coflow_id=0, arrival_time=1.0)
        c.attach_flow(bare_flow(0, ["a"]))
        with pytest.raises(CoflowError):
            c.cct()

    def test_finished_requires_seal(self):
        c = Coflow(coflow_id=0, arrival_time=0.0)
        f = bare_flow(0, ["a"])
        c.attach_flow(f)
        f.completion_time = 1.0
        assert not c.finished
        c.seal()
        assert c.finished


class TestCollectCoflows:
    def test_groups_by_coflow(self):
        c = Coflow(coflow_id=7, arrival_time=0.0)
        f1 = bare_flow(0, ["a"], coflow=c)
        f2 = bare_flow(1, ["b"], coflow=c)
        lone = bare_flow(2, ["a"])
        flows = [f1, lone, f2]
        cols_of = link_columns(flows, {})[0]
        groups = collect_coflows(flows, cols_of)
        assert len(groups) == 2
        coflow_group = next(g for g in groups if g[0] is c)
        assert {f.flow_id for f in coflow_group[1]} == {0, 1}
        # Demand per column (a -> 0, b -> 1) and the smallest member id.
        assert coflow_group[2:] == [{0: 1e9, 1: 1e9}, 0]

    def test_bottleneck_duration(self):
        flows = [bare_flow(0, ["a"], size=4e9), bare_flow(1, ["a", "b"], size=2e9)]
        assert gamma_of(flows, {"a": 1e9, "b": 1e9}) == pytest.approx(6.0)
        # link a carries 6 Gb

    def test_bottleneck_inf_on_saturated_link(self):
        flows = [bare_flow(0, ["a"])]
        assert gamma_of(flows, {"a": 0.0}) == float("inf")


class TestVarysScheduling:
    def test_small_coflow_preempts_large(self):
        engine, fabric, tracker = coflow_fabric("varys")
        big = tracker.submit_coflow(
            [("h000", "h002", 8e9), ("h001", "h002", 8e9)], tag="big"
        )
        engine.run(until=0.001)
        small = tracker.submit_coflow([("h003", "h002", 1e9)], tag="small")
        engine.run()
        # On h002's downlink, SEBF serves the 1 Gb coflow first.
        assert small.cct() == pytest.approx(1.0, rel=0.01)
        assert big.cct() == pytest.approx(17.0, rel=0.01)

    def test_madd_rates_are_proportional(self):
        c = Coflow(coflow_id=0, arrival_time=0.0)
        flows = [
            bare_flow(0, ["a"], size=2e9, coflow=c),
            bare_flow(1, ["a"], size=1e9, coflow=c),
        ]
        rates = make_coflow_allocator("varys").allocate(flows, {"a": 1.5e9})
        # Gamma = 3 Gb / 1.5 Gbps = 2 s and every member finishes exactly
        # then: rate = remaining / gamma (the link is full, no back-fill).
        assert rates[0] == pytest.approx(1e9)
        assert rates[1] == pytest.approx(0.5e9)

    def test_backfill_accelerates_non_bottleneck_flow(self):
        """Work conservation: with idle capacity, the small flow of a
        coflow runs faster than its MADD pace (Varys backfilling)."""
        engine, fabric, tracker = coflow_fabric("varys")
        c = tracker.submit_coflow(
            [("h000", "h002", 2e9), ("h001", "h003", 1e9)]
        )
        engine.run()
        big_end, small_end = (f.completion_time for f in c.flows)
        assert small_end <= big_end
        assert c.cct() == pytest.approx(2.0, rel=0.01)  # bottleneck gamma

    def test_cct_record_fields(self):
        engine, fabric, tracker = coflow_fabric("varys")
        tracker.submit_coflow(
            [("h000", "h002", 2e9), ("h001", "h002", 2e9)], tag="t"
        )
        engine.run()
        rec = tracker.records[0]
        assert rec.num_flows == 2
        assert rec.total_size == pytest.approx(4e9)
        assert rec.optimal_cct == pytest.approx(4.0)  # shared downlink
        assert rec.cct == pytest.approx(4.0)
        assert rec.gap_from_optimal == pytest.approx(0.0)


class TestSCFScheduling:
    def test_smallest_total_first(self):
        engine, fabric, tracker = coflow_fabric("scf")
        big = tracker.submit_coflow([("h000", "h002", 6e9)], tag="big")
        engine.run(until=0.001)
        small = tracker.submit_coflow([("h001", "h002", 2e9)], tag="small")
        engine.run()
        assert small.cct() == pytest.approx(2.0, rel=0.01)
        assert big.cct() == pytest.approx(8.0, rel=0.01)


class TestCoflowFCFS:
    def test_arrival_order(self):
        engine, fabric, tracker = coflow_fabric("coflow-fcfs")
        first = tracker.submit_coflow([("h000", "h002", 4e9)], tag="first")
        engine.run(until=0.001)
        second = tracker.submit_coflow([("h001", "h002", 1e9)], tag="second")
        engine.run()
        assert first.cct() == pytest.approx(4.0, rel=0.01)
        assert second.cct() == pytest.approx(5.0, rel=0.01)


class TestCoflowFair:
    def test_two_coflows_share_total_progress(self):
        engine, fabric, tracker = coflow_fabric("coflow-fair")
        a = tracker.submit_coflow([("h000", "h002", 2e9)], tag="a")
        b = tracker.submit_coflow([("h001", "h002", 2e9)], tag="b")
        engine.run()
        assert a.cct() == pytest.approx(4.0, rel=0.01)
        assert b.cct() == pytest.approx(4.0, rel=0.01)

    def test_disjoint_coflows_full_rate(self):
        engine, fabric, tracker = coflow_fabric("coflow-fair")
        a = tracker.submit_coflow([("h000", "h002", 2e9)])
        b = tracker.submit_coflow([("h001", "h003", 2e9)])
        engine.run()
        assert a.cct() == pytest.approx(2.0, rel=0.01)
        assert b.cct() == pytest.approx(2.0, rel=0.01)


class TestCoflowLAS:
    def test_fresh_coflow_preempts(self):
        engine, fabric, tracker = coflow_fabric("coflow-las")
        old = tracker.submit_coflow([("h000", "h002", 4e9)], tag="old")
        engine.run(until=1.0)  # old has attained 1 Gb
        young = tracker.submit_coflow([("h001", "h002", 1e9)], tag="young")
        engine.run()
        assert young.cct() == pytest.approx(1.0, rel=0.05)


class TestTracker:
    def test_all_local_coflow_completes_at_seal(self):
        engine, fabric, tracker = coflow_fabric()
        c = tracker.submit_coflow([("h000", "h000", 1e9)])
        assert c.finished
        assert tracker.records[0].cct == 0.0

    def test_listener_fires(self):
        engine, fabric, tracker = coflow_fabric()
        seen = []
        tracker.add_completion_listener(lambda c, r: seen.append(r.tag))
        tracker.submit_coflow([("h000", "h001", 1e9)], tag="z")
        engine.run()
        assert seen == ["z"]

    def test_empty_coflow_rejected(self):
        engine, fabric, tracker = coflow_fabric()
        with pytest.raises(CoflowError):
            tracker.submit_coflow([])

    def test_foreign_coflow_rejected(self):
        engine, fabric, tracker = coflow_fabric()
        foreign = Coflow(coflow_id=999, arrival_time=0.0)
        with pytest.raises(CoflowError):
            tracker.submit_flow(foreign, "h000", "h001", 1e9)

    def test_optimal_cct_is_frozen_at_submit(self):
        """A member rerouted by ``fail_link`` keeps the optimum of the
        path it started on, as ``FlowRecord.optimal_fct`` does: the two
        a->b paths differ in capacity, so an optimum read from the
        rerouted path would be a different number."""
        topo = Topology("two-speed")
        topo.add_node(TopoNode("a", "host", rack=0, pod=0))
        topo.add_node(TopoNode("b", "host", rack=1, pod=0))
        for switch, capacity in (("s1", 1e9), ("s2", 2e9)):
            topo.add_node(TopoNode(switch, "switch"))
            topo.add_duplex_link("a", switch, capacity, is_edge=True)
            topo.add_duplex_link(switch, "b", capacity, is_edge=True)
        engine = Engine()
        fabric = NetworkFabric(engine, topo, make_coflow_allocator("varys"))
        tracker = CoflowTracker(fabric)
        coflow = tracker.submit_coflow([("a", "b", 1e9), ("a", "b", 3e9)])
        first_hop = coflow.flows[0].path[0]  # the ECMP pick, s1 or s2
        at_submit = 4e9 / topo.link(first_hop).capacity
        engine.schedule_at(0.1, lambda: fabric.fail_link(first_hop))
        engine.run()
        assert fabric.flows_rerouted == 2
        assert coflow.flows[0].path[0] != first_hop
        (record,) = tracker.records
        assert record.optimal_cct == at_submit
        assert sum(r.optimal_fct for r in fabric.records) == at_submit


class TestCoflowRegistry:
    def test_known_names(self):
        for name in ("varys", "sebf", "scf", "tcf", "coflow-fcfs",
                     "coflow-las", "coflow-fair", "baraat", "aalo"):
            assert make_coflow_allocator(name) is not None
        assert "varys" in available_coflow_policies()

    def test_unknown_raises(self):
        with pytest.raises(ConfigError):
            make_coflow_allocator("nope")
