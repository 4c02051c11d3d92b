"""Edge-case tests accumulated across subsystems."""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.metrics.report import gap_by_bin_table
from repro.network.fabric import NetworkFabric
from repro.network.flow import FlowRecord
from repro.network.policies.registry import make_allocator
from repro.placement.base import PlacementRequest
from repro.placement.baselines import MinLoadPolicy
from repro.sim.engine import Engine
from repro.topology.fabrics import three_tier_clos

from tests.conftest import make_fabric as fresh
from tests.fabric_history import assert_within_capacity, seeded_resubmits


class TestMinLoadMeasures:
    def test_measures_can_disagree(self):
        """Queued-bits and utilisation rank hosts differently: a host with
        one huge *preempted* flow has many bits but zero allocated rate."""
        engine, fabric = fresh("srpt")
        # h001: one huge flow (queued bits high). Under SRPT a smaller
        # concurrent flow elsewhere keeps rates simple; utilisation of
        # h001's downlink is 1.0 though, so craft the preemption:
        fabric.submit("h000", "h001", 9e9)
        fabric.submit("h003", "h001", 1e8)  # preempts on h001's downlink
        # bits(h001) = 9.1e9; utilisation(h001 downlink) = 1.0 either way.
        bits_policy = MinLoadPolicy(fabric, measure="bits")
        util_policy = MinLoadPolicy(fabric, measure="utilization")
        request = PlacementRequest(
            size=1e9, data_node="h000", candidates=("h001", "h002")
        )
        assert bits_policy.place(request) == "h002"
        assert util_policy.place(request) == "h002"

    def test_idle_cluster_any_choice(self):
        engine, fabric = fresh()
        policy = MinLoadPolicy(fabric, random.Random(0))
        hits = {
            policy.place(
                PlacementRequest(
                    size=1e9, data_node="h000", candidates=("h001", "h002")
                )
            )
            for _ in range(20)
        }
        assert hits == {"h001", "h002"}


class TestEngineCancellation:
    def test_cancel_already_fired_event_is_noop(self):
        engine = Engine()
        fired = []
        event = engine.schedule_at(1.0, lambda: fired.append(1))
        engine.run()
        engine.cancel(event)  # no error, no double-accounting
        engine.cancel(event)
        assert fired == [1]
        assert engine.pending_events == 0

    def test_event_cancelling_later_event(self):
        engine = Engine()
        fired = []
        later = engine.schedule_at(2.0, lambda: fired.append("later"))
        engine.schedule_at(1.0, lambda: engine.cancel(later))
        engine.run()
        assert fired == []


class TestReportMetricParam:
    def records(self, gaps):
        return [
            FlowRecord(
                flow_id=i, src="a", dst="b", size=1e6 * (i + 1),
                arrival_time=0.0, completion_time=(1 + gap) * 0.008,
                optimal_fct=0.008,
            )
            for i, gap in enumerate(gaps)
        ]

    def test_p95_metric_column(self):
        table = gap_by_bin_table(
            {"x": self.records([0.5, 1.5, 2.5])}, metric="p95_gap",
            num_bins=1,
        )
        assert "x" in table

    def test_single_record(self):
        table = gap_by_bin_table({"x": self.records([1.0])})
        assert "x" in table


class TestFabricReentrancy:
    def test_submit_from_completion_listener(self):
        """A listener submitting a follow-up flow (pipelined stages) must
        not corrupt fabric state."""
        engine, fabric = fresh()
        spawned = []

        def listener(flow, record):
            if flow.tag == "first":
                follow = fabric.submit("h002", "h003", 1e9, tag="second")
                spawned.append(follow)

        fabric.add_completion_listener(listener)
        fabric.submit("h000", "h001", 1e9, tag="first")
        engine.run()
        assert len(fabric.records) == 2
        assert spawned[0].fct() == pytest.approx(1.0)

    @pytest.mark.parametrize("policy", ["fair", "srpt", "las"])
    def test_a_resubmitting_listener_keeps_rates_within_capacity(self, policy):
        """A completion listener that resubmits runs after the recompute
        that settled its flow, so the fabric never splices rates computed
        on a stale survivor list: after every event, no link carries more
        than its capacity (12 seeded arrivals on a 16-host Clos, up to 20
        resubmits, ten seeds)."""
        for seed in range(10):
            engine = Engine()
            fabric = NetworkFabric(
                engine,
                three_tier_clos(pods=2, racks_per_pod=2, hosts_per_rack=4),
                make_allocator(policy),
            )
            seeded_resubmits(engine, fabric, seed)
            while engine.step():
                assert_within_capacity(fabric)
            assert not fabric._active and len(fabric.records) == 32

    @pytest.mark.parametrize("policy", ["fair", "fcfs", "las", "srpt"])
    def test_a_submit_between_simultaneous_completions(self, policy):
        """Two equal flows finish at the same instant and the first one's
        listener submits into their component: the second is settled once,
        and the run ends on an empty fabric with three records."""
        engine, fabric = fresh(policy)
        submitted = []

        def listener(flow, record):
            if not submitted:
                submitted.append(fabric.submit("h002", "h001", 1e9))

        fabric.add_completion_listener(listener)
        fabric.submit("h000", "h001", 1e9)
        fabric.submit("h000", "h001", 1e9)
        engine.run()
        assert not fabric._active and len(fabric.records) == 3
        assert [r.completion_time for r in fabric.records] == [2.0, 2.0, 3.0]

    def test_many_simultaneous_arrivals(self):
        engine, fabric = fresh(hosts=8)
        for i in range(20):
            engine.schedule_at(
                1.0,
                lambda i=i: fabric.submit(
                    f"h{i % 4:03d}", f"h{4 + i % 4:03d}", 1e8
                ),
            )
        engine.run()
        assert len(fabric.records) == 20


class TestChangePointLivelock:
    """The change-point livelock (DESIGN.md §5.1, "Change-point hints"):
    LAS + NEAT on the 16-host quick copy of the fig5 benchmark trace (40
    arrivals, seed 42) with every size and capacity scaled by 2**32.  The
    fluid model is scale-free, and unscaled, or at 2**30, the replay takes
    89 events; from 2**31 a hint re-fires at one instant until the engine's
    cap.  Pinned as a bounded-event failure, not a timeout."""

    @pytest.mark.xfail(strict=True, raises=SimulationError)
    def test_las_neat_at_2_to_the_32_finishes(self, monkeypatch):
        import dataclasses
        import functools

        from repro.experiments import MacroConfig, runner
        from repro.units import gbps

        scale = 2.0 ** 32
        config = MacroConfig(
            pods=2, racks_per_pod=2, hosts_per_rack=4, workload="websearch",
            load=0.7, num_arrivals=40, seed=42,
        )
        trace = config.build_trace(config.build_topology())
        trace = dataclasses.replace(trace, arrivals=tuple(
            dataclasses.replace(arrival, size=arrival.size * scale)
            for arrival in trace.arrivals
        ))
        topology = three_tier_clos(
            pods=2, racks_per_pod=2, hosts_per_rack=4,
            edge_capacity=gbps(1) * scale, fabric_capacity=gbps(10) * scale,
        )
        monkeypatch.setattr(
            runner, "Engine", functools.partial(Engine, max_events=2_000)
        )
        run = runner.replay_flow_trace(
            trace, topology, network_policy="las", placement="neat",
            seed=trace.seed,
        )
        assert len(run.records) == len(trace.arrivals)
