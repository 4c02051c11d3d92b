"""Tests for the distributed control plane: bus, network daemon, and the
placement daemon's caching/filtering behaviour."""

from __future__ import annotations

import pytest

from repro.daemons.bus import MessageBus
from repro.daemons.messages import (
    CoflowPredictionRequest,
    FlowPredictionRequest,
)
from repro.daemons.network_daemon import NetworkDaemon
from repro.daemons.placement_daemon import TaskPlacementDaemon
from repro.errors import DaemonError, DaemonUnreachable, MessageDropped
from repro.network.fabric import NetworkFabric
from repro.network.policies.registry import make_allocator
from repro.coflow.tracking import CoflowTracker
from repro.coflow.policies.registry import make_coflow_allocator
from repro.placement.base import PlacementRequest
from repro.predictor.compressed import exponential_bins
from repro.predictor.registry import make_coflow_predictor, make_flow_predictor
from repro.sim.engine import Engine
from repro.telemetry import MetricsRegistry, Telemetry
from repro.topology.fabrics import single_switch


def setup(policy="fair", hosts=4, coflow=False):
    engine = Engine()
    allocator = (
        make_coflow_allocator("varys") if coflow else make_allocator(policy)
    )
    fabric = NetworkFabric(engine, single_switch(hosts), allocator)
    return engine, fabric


class TestMessageBus:
    def test_call_routes_to_handler(self):
        engine, fabric = setup()
        bus = MessageBus(engine)
        bus.register("h000", lambda payload: ("pong", payload))
        assert bus.call("h000", "ping") == ("pong", "ping")

    def test_duplicate_registration_rejected(self):
        engine, fabric = setup()
        bus = MessageBus(engine)
        bus.register("h000", lambda p: p)
        with pytest.raises(DaemonError):
            bus.register("h000", lambda p: p)

    def test_unknown_endpoint_rejected(self):
        engine, fabric = setup()
        bus = MessageBus(engine)
        with pytest.raises(DaemonError):
            bus.call("ghost", None)

    def test_accounting(self):
        engine, fabric = setup()
        bus = MessageBus(engine, rtt=0.001)
        bus.register("h000", lambda p: p)
        bus.call("h000", 1)
        bus.call("h000", 2)
        assert bus.messages_sent == 4
        assert bus.calls == 2
        assert bus.estimated_control_latency == pytest.approx(0.002)
        bus.install_fault_model(_DelayThenLose(delay=0.25))
        bus.call("h000", 3)  # delivered, 0.25 s delay accrued
        with pytest.raises(MessageDropped):
            bus.call("h000", 4)  # eaten by the loss window
        assert bus.messages_dropped == 1
        assert bus.estimated_control_latency == pytest.approx(0.253)
        bus.reset_counters()
        assert bus.messages_sent == bus.calls == bus.messages_dropped == 0
        assert bus.estimated_control_latency == 0.0

    def test_counter_matches_property_under_faults(self):
        """``bus.messages_sent`` (the registry counter) and
        ``MessageBus.messages_sent`` count the same messages: a request
        to a down host or eaten by a loss window went out too."""
        engine, fabric = setup()
        registry = MetricsRegistry()
        bus = MessageBus(engine, telemetry=Telemetry(registry=registry))
        bus.register("h000", lambda p: p)
        bus.register("h001", lambda p: p)
        bus.register_controller(lambda p: None)
        bus.install_fault_model(_DelayThenLose(delay=0.0))
        bus.call("h000", 1)  # delivered: request + reply
        with pytest.raises(MessageDropped):
            bus.call("h000", 2)  # message_loss: the request still went out
        assert bus.push("h000", 3) is False  # lost push
        bus.mark_host_down("h001")
        with pytest.raises(DaemonUnreachable):
            bus.call("h001", 4)  # host_down: the request still went out
        assert bus.push("h001", 5) is False
        counters = registry.as_dict()["counters"]
        assert bus.messages_sent == 6
        assert counters["bus.messages_sent"] == bus.messages_sent
        assert counters["bus.messages_dropped"] == bus.messages_dropped == 4
        assert counters["bus.calls"] == bus.calls == 1


class _DelayThenLose:
    """Fault model: delivers the first message, loses every later one."""

    def __init__(self, delay: float) -> None:
        self._delay = delay
        self._seen = 0

    def should_drop(self, kind: str) -> bool:
        self._seen += 1
        return self._seen > 1

    def message_delay(self) -> float:
        return self._delay


class TestNetworkDaemon:
    def test_node_state_tracks_smallest_flow(self):
        engine, fabric = setup()
        daemon = NetworkDaemon("h001", fabric, make_flow_predictor("fair"))
        assert daemon.node_state() == float("inf")
        fabric.submit("h000", "h001", 3e9)
        fabric.submit("h002", "h001", 1e9)
        assert daemon.node_state() == pytest.approx(1e9)
        engine.run(until=0.25)
        # Sizes are residual: the 1 Gb flow shrank.
        assert daemon.node_state() < 1e9

    def test_predict_incoming_flow(self):
        engine, fabric = setup()
        daemon = NetworkDaemon("h001", fabric, make_flow_predictor("fair"))
        fabric.submit("h000", "h001", 2e9)
        reply = daemon.predict_flow(1e9, "in")
        # Fair: (1 + min(2,1)) Gb on a 1 Gbps downlink = 2 s.
        assert reply.predicted_time == pytest.approx(2.0)
        assert reply.host == "h001"
        assert reply.node_state == pytest.approx(2e9)

    def test_predict_outgoing_uses_uplink(self):
        engine, fabric = setup()
        daemon = NetworkDaemon("h001", fabric, make_flow_predictor("fair"))
        fabric.submit("h001", "h002", 2e9)  # load on h001's uplink
        incoming = daemon.predict_flow(1e9, "in").predicted_time
        outgoing = daemon.predict_flow(1e9, "out").predicted_time
        assert incoming == pytest.approx(1.0)
        assert outgoing == pytest.approx(2.0)

    def test_handle_dispatch(self):
        engine, fabric = setup()
        daemon = NetworkDaemon("h001", fabric, make_flow_predictor("fair"))
        reply = daemon.handle(FlowPredictionRequest(size=1e9))
        assert reply.predicted_time == pytest.approx(1.0)
        with pytest.raises(DaemonError):
            daemon.handle("garbage")

    def test_coflow_prediction_requires_predictor(self):
        engine, fabric = setup()
        daemon = NetworkDaemon("h001", fabric, make_flow_predictor("fair"))
        with pytest.raises(DaemonError):
            daemon.handle(CoflowPredictionRequest(total_size=1e9, size_on_link=1e9))

    def test_coflow_prediction_groups_by_coflow(self):
        engine, fabric = setup(coflow=True)
        tracker = CoflowTracker(fabric)
        daemon = NetworkDaemon(
            "h002",
            fabric,
            make_flow_predictor("fair"),
            coflow_predictor=make_coflow_predictor("tcf"),
        )
        tracker.submit_coflow(
            [("h000", "h002", 2e9), ("h001", "h002", 2e9)]
        )
        reply = daemon.handle(
            CoflowPredictionRequest(total_size=1e9, size_on_link=1e9)
        )
        # Objective (2) under TCF: the new 1 Gb coflow preempts the 4 Gb
        # one (CCT 1 s) and delays it by its own 1 Gb on the link (+1 s).
        assert reply.predicted_time == pytest.approx(2.0)
        # Node state is at coflow granularity: smallest coflow total (4 Gb).
        assert reply.node_state == pytest.approx(4e9)

    def test_compressed_mode_tracks_arrivals_and_departures(self):
        engine, fabric = setup()
        daemon = NetworkDaemon(
            "h001",
            fabric,
            make_flow_predictor("fair"),
            bin_boundaries=exponential_bins(1e6, 1e10, 8),
        )
        fabric.submit("h000", "h001", 2e9)
        busy = daemon.predict_flow(2e9, "in").predicted_time
        assert busy > 2.0  # sees the existing flow
        engine.run()
        idle = daemon.predict_flow(2e9, "in").predicted_time
        assert idle == pytest.approx(2.0)


class TestPlacementDaemonUnit:
    def build(self, fabric, **kwargs):
        bus = MessageBus(fabric.engine)
        for host in fabric.topology.hosts:
            daemon = NetworkDaemon(host, fabric, make_flow_predictor("fair"))
            bus.register(host, daemon.handle)
        return TaskPlacementDaemon(fabric.topology, bus, **kwargs), bus

    def test_decision_records_evidence(self):
        engine, fabric = setup()
        daemon, bus = self.build(fabric)
        daemon.place_flow(
            PlacementRequest(
                size=1e9, data_node="h000", candidates=("h001", "h002")
            )
        )
        decision = daemon.decisions[-1]
        assert decision.host in ("h001", "h002")
        assert set(decision.queried_hosts) == {"h001", "h002"}
        assert not decision.used_fallback

    def test_optimistic_cache_update_on_placement(self):
        engine, fabric = setup()
        daemon, bus = self.build(fabric)
        host = daemon.place_flow(
            PlacementRequest(size=1e9, data_node="h000", candidates=("h001",))
        )
        assert daemon.cached_node_state(host) == pytest.approx(1e9)

    def test_note_task_finished_invalidates_cache(self):
        engine, fabric = setup()
        daemon, bus = self.build(fabric)
        host = daemon.place_flow(
            PlacementRequest(size=1e9, data_node="h000", candidates=("h001",))
        )
        daemon.note_task_finished(host)
        assert daemon.cached_node_state(host) == float("inf")

    def test_disable_node_state_queries_everyone(self):
        engine, fabric = setup()
        daemon, bus = self.build(fabric, use_node_state=False)
        # Prime cache with small node states via a first placement.
        daemon.place_flow(
            PlacementRequest(size=1e8, data_node="h000", candidates=("h001",))
        )
        fabric.submit("h000", "h001", 1e8)
        bus.reset_counters()
        daemon.place_flow(
            PlacementRequest(
                size=5e9, data_node="h000", candidates=("h001", "h002")
            )
        )
        # Without the filter both candidates are queried.
        assert set(daemon.decisions[-1].preferred_hosts) == {"h001", "h002"}

    def test_push_node_state_update(self):
        from repro.daemons.messages import NodeStateUpdate

        engine, fabric = setup()
        daemon, bus = self.build(fabric)
        daemon.handle_node_state_update(
            NodeStateUpdate(host="h001", node_state=5e8)
        )
        assert daemon.cached_node_state("h001") == pytest.approx(5e8)
        # A pushed small state makes h001 non-preferred for big tasks.
        daemon.place_flow(
            PlacementRequest(
                size=2e9, data_node="h000", candidates=("h001", "h002")
            )
        )
        assert daemon.decisions[-1].preferred_hosts == ("h002",)

    def test_source_link_excluded_when_requested(self):
        engine, fabric = setup()
        bus = MessageBus(fabric.engine)
        for host in fabric.topology.hosts:
            NetworkDaemon(host, fabric, make_flow_predictor("fair"))
            # register fresh handlers
        # rebuild cleanly
        engine, fabric = setup()
        daemon, bus = self.build(fabric)
        no_src = TaskPlacementDaemon(
            fabric.topology, bus, include_source_link=False
        )
        fabric.submit("h000", "h003", 9e9)  # big load on the source uplink
        no_src.place_flow(
            PlacementRequest(
                size=1e9, data_node="h000", candidates=("h001", "h002")
            )
        )
        # Prediction ignores the 9 Gb uplink backlog.
        assert no_src.decisions[-1].predicted_time == pytest.approx(1.0)


    def test_source_link_floors_every_remote_score(self):
        """With ``include_source_link`` no transfer is predicted faster
        than the data node's uplink; the data node itself still scores 0
        (it makes no transfer)."""
        engine, fabric = setup()
        daemon, bus = self.build(fabric, include_source_link=True)
        fabric.submit("h000", "h003", 9e9)  # big load on the source uplink
        chosen = daemon.place_flow(
            PlacementRequest(
                size=1e9, data_node="h000", candidates=("h001", "h000", "h002")
            )
        )
        assert chosen == "h000"
        # Fair on the uplink: (1 + min(9, 1)) Gb at 1 Gbps = 2 s > the 1 s
        # an idle downlink predicts.
        assert daemon.decisions[-1].candidate_scores == (
            ("h001", 2.0), ("h000", 0.0), ("h002", 2.0)
        )
        assert bus.calls == 3  # the uplink, then the two remote candidates


# ----------------------------------------------------------------------
# The per-candidate query chain (one loop, four entry points)
# ----------------------------------------------------------------------
CANDIDATES = tuple(f"h{i:03d}" for i in range(1, 16))


def neat_on(fabric, **kwargs):
    from repro.placement.neat import build_neat

    return build_neat(fabric, **kwargs)


def busy_flow_fabric():
    """The pinned 16-host fabric: h000 feeds flows of 1..8 Gb into
    h001..h008, h009..h015 idle, clock stopped mid-flight at 0.1 s."""
    engine, fabric = setup(hosts=16)
    for i in range(1, 9):
        fabric.submit("h000", f"h{i:03d}", 1e9 * i)
    engine.run(until=0.1)
    return engine, fabric


def busy_coflow_fabric():
    """Three five-mapper shuffles into h001, h006 and h011, mid-flight."""
    engine, fabric = setup(hosts=16, coflow=True)
    tracker = CoflowTracker(fabric)
    for reducer in (1, 6, 11):
        mappers = (0, reducer + 1, reducer + 2, reducer + 3, reducer + 4)
        tracker.submit_coflow(
            [(f"h{m:03d}", f"h{reducer:03d}", 1e9) for m in mappers]
        )
    engine.run(until=0.1)
    return engine, fabric


def calls_made(action) -> int:
    """Python + C function calls ``action()`` makes (no wall clock)."""
    import sys

    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(profiler)
    try:
        action()
    finally:
        sys.setprofile(None)
    return count


class TestQueryChain:
    def test_a_drop_mid_decision_costs_that_host_only(self):
        """A seeded loss window and a down host in the middle of one
        decision: exactly those hosts score inf, the rest are still
        queried in order, and the message counts, failure count and the
        loss stream's position are the ones the pre-refactor daemon
        produced on this plan (pinned there)."""
        from repro.faults.injector import arm_faults
        from repro.faults.plan import FaultPlan, HostDown, MessageLoss

        engine, fabric = setup(hosts=16)
        neat = neat_on(fabric)
        plan = FaultPlan(
            events=(
                MessageLoss(start=0.0, p=0.25),
                HostDown(time=0.05, host="h004"),
            ),
            seed=7,
        )
        injector = arm_faults(plan, fabric, neat)
        for i in range(1, 9):
            fabric.submit("h000", f"h{i:03d}", 1e9 * i)
        engine.run(until=0.1)

        chosen = neat.daemon.place_flow(
            PlacementRequest(size=5e8, data_node="h000", candidates=CANDIDATES)
        )
        decision = neat.daemon.decisions[-1]
        lost = ("h003", "h004", "h011")
        assert chosen == "h009" and decision.predicted_time == 0.5
        assert decision.preferred_hosts == CANDIDATES
        assert decision.queried_hosts == tuple(
            h for h in CANDIDATES if h not in lost
        )
        scores = dict(decision.candidate_scores)
        assert [h for h in CANDIDATES if scores[h] == float("inf")] == list(lost)
        assert neat.bus.calls == 12
        assert neat.bus.messages_sent == 2 * 12 + 3
        assert neat.bus.messages_dropped == 3
        assert neat.daemon.query_failures == 3
        # h004 is down, not lost: it consumed no draw.  14 draws so far.
        assert injector._rng.random() == 0.3468439075625007

    def test_reducer_reports_only_hosts_that_answered(self):
        """``queried_hosts`` of a reducer decision lists neither the
        candidate that needed no query (it already holds every byte) nor
        the ones whose request the loss window ate."""
        from repro.faults.injector import arm_faults
        from repro.faults.plan import FaultPlan, MessageLoss

        engine, fabric = setup(hosts=8, coflow=True)
        neat = neat_on(fabric, coflow_predictor="tcf")
        arm_faults(
            FaultPlan(events=(MessageLoss(start=0.0, p=0.4),), seed=3),
            fabric,
            neat,
        )
        candidates = tuple(fabric.topology.hosts)
        neat.daemon.place_reducer([("h000", 1e9)], candidates)
        decision = neat.daemon.decisions[-1]
        lost = [
            h for h, s in decision.candidate_scores if s == float("inf")
        ]
        assert decision.host == "h000"  # full locality, never asked
        assert 0 < len(lost) < len(candidates) - 1
        assert decision.queried_hosts == tuple(
            h for h in candidates if h != "h000" and h not in lost
        )

    @pytest.mark.parametrize("kind", ["flow", "coflow"])
    def test_one_request_object_per_decision(self, kind):
        """Algorithm 1 asks every candidate the same question: all the
        queries of a decision carry the identical request object."""
        engine, fabric = setup(hosts=16)
        bus = MessageBus(engine)
        seen = []

        def endpoint(host):
            def handle(payload):
                seen.append(payload)
                from repro.daemons.messages import PredictionReply

                return PredictionReply(host, 1.0, float("inf"))

            return handle

        for host in fabric.topology.hosts:
            bus.register(host, endpoint(host))
        daemon = TaskPlacementDaemon(fabric.topology, bus)
        if kind == "flow":
            daemon.place_flow(
                PlacementRequest(
                    size=5e8, data_node="h000", candidates=CANDIDATES
                )
            )
        else:
            daemon.place_coflow_flow(5e8, 1e9, "h000", CANDIDATES)
        assert len(seen) == len(CANDIDATES)
        assert all(payload is seen[0] for payload in seen)

    def test_calls_per_queried_candidate_stay_bounded(self):
        """The structural guard on the host cost of a decision: function
        calls (Python and C) per queried candidate, decision overhead
        amortised over the 15 candidates of the pinned fabrics.  The
        chain makes 25.6 per flow query and 46.9 per coflow query (CPython
        3.11); the coflow query made 64.9 before it read the link and the
        node state in one lean pass each, and the loop before the shared
        query chain made 45.6 and 80.2."""
        engine, fabric = busy_flow_fabric()
        daemon = neat_on(fabric).daemon
        request = PlacementRequest(
            size=5e8, data_node="h000", candidates=CANDIDATES
        )
        calls = calls_made(lambda: daemon.place_flow(request))
        assert daemon.decisions[-1].queried_hosts == CANDIDATES
        assert calls / len(CANDIDATES) <= 33

        engine, fabric = busy_coflow_fabric()
        daemon = neat_on(fabric, coflow_predictor="tcf").daemon
        calls = calls_made(
            lambda: daemon.place_coflow_flow(5e8, 1e9, "h000", CANDIDATES)
        )
        assert daemon.decisions[-1].queried_hosts == CANDIDATES
        assert calls / len(CANDIDATES) <= 52

    def test_predict_coflow_reads_the_link_before_syncing_the_host(self):
        """The order a CCT query touches the fabric in is part of its
        answer: it syncs the flows on the edge link, reads the link state
        (``Coflow.remaining_total`` then sees the coflow's *other* flows
        as of their last sync), and only then syncs the rest of the
        host's flows for the node state.  Syncing the whole host first,
        as the flow path's one-pass read does, changes the score."""
        from repro.predictor.fabric_state import coflow_link_state

        def scenario():
            engine, fabric = setup(hosts=4, coflow=True)
            tracker = CoflowTracker(fabric)
            # one coflow through h001 in both directions, one elsewhere
            tracker.submit_coflow(
                [("h000", "h001", 2e9), ("h001", "h002", 3e9)]
            )
            tracker.submit_coflow([("h003", "h001", 1e9)])
            engine.run(until=0.3)
            daemon = NetworkDaemon(
                "h001",
                fabric,
                make_flow_predictor("fair"),
                coflow_predictor=make_coflow_predictor("coflow-fair"),
            )
            return fabric, daemon

        fabric, daemon = scenario()
        reply = daemon.predict_coflow(4e9, 1e9, "in")

        fabric, _ = scenario()
        state = coflow_link_state(fabric, "sw0->h001")
        expected = make_coflow_predictor("coflow-fair").link_objective(
            4e9, 1e9, state
        )
        assert reply.predicted_time == expected

        fabric, daemon = scenario()
        fabric.flows_at_host("h001")  # the merged pass, made by hand
        assert daemon.predict_coflow(4e9, 1e9, "in").predicted_time != expected
