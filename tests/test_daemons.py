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

    def test_custom_coflow_predictor_answers_a_round(self):
        """A predictor written against ``CoflowLinkState`` alone answers a
        query round unchanged (``predict_link_objective``'s default)."""
        from repro.predictor.coflow_cct import CoflowCCTPredictor
        from repro.predictor.fabric_state import coflow_link_state

        class Crowd(CoflowCCTPredictor):
            def cct(self, new_total, new_on_link, link):
                return float(len(link.coflows))

            def delta_sum(self, new_total, new_on_link, link):
                return sum(c.size_on_link for c in link.coflows) / link.capacity

        engine, fabric = setup(coflow=True)
        CoflowTracker(fabric).submit_coflow(
            [("h000", "h002", 2e9), ("h001", "h002", 2e9)]
        )
        fabric.submit("h003", "h002", 1e9)
        engine.run(until=0.5)
        daemons = [
            NetworkDaemon(host, fabric, make_flow_predictor("fair"),
                          coflow_predictor=Crowd())
            for host in ("h002", "h003")
        ]  # fmt: skip
        replies = NetworkDaemon.answer_round(
            daemons, CoflowPredictionRequest(1e9, 1e9)
        )
        state = coflow_link_state(fabric, "sw0->h002")
        assert replies[0].predicted_time == Crowd().link_objective(1e9, 1e9, state)
        # a coflow and a bare flow; 5 Gb less the 0.5 Gb the link carried
        assert replies[0].predicted_time == 2.0 + 4.5
        assert replies[1].predicted_time == 0.0

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
        amortised over the 15 candidates of the pinned fabrics.  A query
        round admitted at once and answered in one pass per host makes 12.4
        per flow query and 18.9 per coflow query (CPython 3.11; 15.4 and
        20.9 with a residual map per round and an admission call per host,
        16.3 and 22.7 while the round synced the flows it read); a coflow
        round answered host by host
        made 48.5, the per-host call chain before rounds 25.6 and 46.9, the
        coflow query 64.9 before it read the link and the node state in
        one lean pass each, and the loop before the shared query chain
        made 45.6 and 80.2."""
        engine, fabric = busy_flow_fabric()
        daemon = neat_on(fabric).daemon
        request = PlacementRequest(
            size=5e8, data_node="h000", candidates=CANDIDATES
        )
        calls = calls_made(lambda: daemon.place_flow(request))
        assert daemon.decisions[-1].queried_hosts == CANDIDATES
        assert calls / len(CANDIDATES) <= 13.7

        engine, fabric = busy_coflow_fabric()
        daemon = neat_on(fabric, coflow_predictor="tcf").daemon
        calls = calls_made(
            lambda: daemon.place_coflow_flow(5e8, 1e9, "h000", CANDIDATES)
        )
        assert daemon.decisions[-1].queried_hosts == CANDIDATES
        assert calls / len(CANDIDATES) <= 20.8

    def test_predict_coflow_reads_the_link_before_syncing_the_host(self):
        """No read is part of another's answer: a CCT query's link state
        is the link-only read's (a coflow's total counts its flows at
        other hosts at their residuals now), and reading the whole host
        first, as the flow path's one-pass read does, changes no bit of
        the reply (it used to sync the host's flows)."""
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
        fabric.host_edge_states([("h001", "sw0->h001")])  # the host, first
        assert daemon.predict_coflow(4e9, 1e9, "in") == reply


# ----------------------------------------------------------------------
# One query round vs the parent's loop of per-host calls
# ----------------------------------------------------------------------
def _parent_call(bus, host, payload):
    """``MessageBus.call`` before query rounds, as the reference: this
    host's admission, fault draws and accounting, then its own endpoint
    answers, before the next host's message goes out.  The probe sees a
    round of this one host (1.15's ``note_bus_round``)."""
    from repro.daemons.messages import message_kind

    def lost(reason, error):
        bus._messages_sent += 1
        bus._messages_dropped += 1
        if bus._probe is not None:
            bus._probe.note_bus_drop(bus.engine.now, host, payload, reason)
        raise error(host)

    if host in bus._down_hosts:
        lost("host_down", DaemonUnreachable)
    handler = bus._endpoints.get(host)
    if handler is None:
        raise DaemonError(host)
    if bus._fault_model is not None:
        if bus._fault_model.should_drop(message_kind(payload)):
            lost("loss_window", MessageDropped)
        bus._delay_accrued += bus._fault_model.message_delay()
    bus._messages_sent += 2
    bus._calls += 1
    if bus._probe is not None:
        bus._probe.note_bus_round(bus.engine.now, [host], payload, bus._rtt)
    return handler(payload)


def _per_host_round(bus, hosts, payload, *, strict=False):
    """``call_round`` turned back into a loop of per-host calls."""
    delivered, replies = [], []
    for host in hosts:
        try:
            replies.append(_parent_call(bus, host, payload))
        except (DaemonUnreachable, MessageDropped):
            if strict:
                raise
            continue
        delivered.append(host)
    return delivered, replies


def _observed_neat_replay(monkeypatch, topology, trace, neat_kwargs, **spec):
    """Replay ``trace`` under NEAT (a flow trace under fair, a coflow trace
    through ``replay_coflow_trace`` under Varys) with the trace, decision
    log, causal stream and registry armed; returns everything a query
    round must leave unchanged, down to the fault plan's next loss draw.
    The trace is compared in its 1.14 form (``expand_bus_rounds``): a run
    of delivered hosts is one ``bus_round`` line here, one line per host
    under the reference's per-host calls."""
    import dataclasses
    import io
    from functools import partial

    from repro.experiments import runner
    from repro.placement import registry as placements
    from repro.placement.neat import build_neat
    from repro.telemetry import CausalTracer, DecisionLog, JsonlTraceSink
    from repro.workloads.traces import CoflowArrival

    from repro.faults.injector import arm_faults as arm
    from tests.trace_oracle import expand_bus_rounds

    armed, policies = [], []
    make = placements.make_placement_policy

    def arming(*args):
        armed.append(arm(*args))
        return armed[-1]

    def making(*args, **kwargs):
        policies.append(make(*args, **kwargs))
        return policies[-1]

    monkeypatch.setattr(runner, "arm_faults", arming)
    monkeypatch.setattr(runner, "make_placement_policy", making)
    monkeypatch.setattr(placements, "build_neat", partial(build_neat, **neat_kwargs))
    buf = io.StringIO()
    sink = JsonlTraceSink(buf)
    telemetry = Telemetry(
        registry=MetricsRegistry(),
        trace=sink,
        decisions=DecisionLog(trace=sink),
        causal=CausalTracer(),
    )
    coflows = isinstance(trace.arrivals[0], CoflowArrival)
    replay = runner.replay_coflow_trace if coflows else runner.replay_flow_trace
    result = replay(
        trace, topology, network_policy="varys" if coflows else "fair",
        placement="neat", seed=trace.seed, max_candidates=8,
        telemetry=telemetry, **spec,
    )  # fmt: skip
    telemetry.close()
    injector = armed[0]
    return {
        "records": [dataclasses.asdict(r) for r in result.records],
        "trace": expand_bus_rounds(buf.getvalue()).splitlines(),
        "causal": telemetry.causal.events,
        "decisions": [dataclasses.asdict(r) for r in telemetry.decisions.records],
        "registry": telemetry.registry.as_dict(),
        "query_failures": policies[0].daemon.query_failures,
        "messages_sent": policies[0].bus.messages_sent,
        "next_draw": injector._rng.random() if injector is not None else None,
    }


def _golden_setup(coflows=False):
    """The observed goldens' pinned 20-host scenario (regen_goldens.py):
    the ``fair_neat`` flow trace, or ``varys_neat``'s 15 Hadoop coflows."""
    import importlib.util
    from pathlib import Path

    from repro.topology.fabrics import three_tier_clos
    from repro.workloads import (
        generate_coflow_trace,
        generate_flow_trace,
        make_distribution,
    )

    path = Path(__file__).resolve().parent / "goldens" / "regen_goldens.py"
    spec = importlib.util.spec_from_file_location("regen_goldens", path)
    goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(goldens)
    scenario = goldens.SCENARIO
    topology = three_tier_clos(
        pods=scenario["pods"],
        racks_per_pod=scenario["racks_per_pod"],
        hosts_per_rack=scenario["hosts_per_rack"],
    )
    make_trace = generate_coflow_trace if coflows else generate_flow_trace
    trace = make_trace(
        hosts=topology.hosts,
        distribution=make_distribution(
            "hadoop" if coflows else scenario["workload"]
        ),
        load=scenario["load"],
        edge_capacity=1e9,
        num_arrivals=15 if coflows else scenario["num_arrivals"],
        seed=scenario["seed"],
    )
    return topology, trace, goldens._faulted_plan()


def _parent_handle(handle):
    """``NetworkDaemon.handle`` with a CCT query answered by the parent's
    per-host chain, kept verbatim in ``tests/coflow_query_oracle.py``:
    link read, then the host's node state, one host at a time."""
    from tests import coflow_query_oracle

    def handled(daemon, payload):
        if not isinstance(payload, CoflowPredictionRequest):
            return handle(daemon, payload)
        return coflow_query_oracle.predict_coflow(
            daemon, payload.total_size, payload.size_on_link, payload.direction
        )

    return handled


def _assert_round_matches_per_host_calls(monkeypatch, setup, neat_kwargs, **spec):
    rounds = _observed_neat_replay(monkeypatch, *setup, neat_kwargs, **spec)
    monkeypatch.setattr(MessageBus, "call_round", _per_host_round)
    monkeypatch.setattr(
        NetworkDaemon, "handle", _parent_handle(NetworkDaemon.handle)
    )
    per_host = _observed_neat_replay(monkeypatch, *setup, neat_kwargs, **spec)
    assert rounds.keys() == per_host.keys()
    for key in rounds:
        assert rounds[key] == per_host[key], key
    return rounds


class TestQueryRound:
    """A decision's queries are one bus round (``MessageBus.call_round``);
    the reference is the parent's loop of one ``call`` per host, a CCT
    query answered by the parent's per-host chain."""

    @pytest.mark.parametrize(
        "leg",
        [
            "fair_neat", "faulted_neat", "faulted_ttl_source_link_bins",
            "varys_neat", "faulted_varys_neat",
        ],
    )  # fmt: skip
    def test_round_matches_per_host_calls(self, monkeypatch, leg):
        topology, trace, plan = _golden_setup(coflows="varys" in leg)
        neat_kwargs, spec = {}, {}
        if leg.startswith("faulted"):  # the faulted golden's knobs
            spec = dict(faults=plan, state_ttl=0.001, push_updates=True)
        if leg == "faulted_ttl_source_link_bins":
            neat_kwargs = dict(
                include_source_link=True,
                bin_boundaries=exponential_bins(1e4, 1e9, 12),
            )
        outputs = _assert_round_matches_per_host_calls(
            monkeypatch, (topology, trace), neat_kwargs, **spec
        )
        assert outputs["decisions"] and outputs["trace"]
        if leg.startswith("faulted"):
            assert outputs["query_failures"] > 0
            assert outputs["next_draw"] is not None

    def test_a_loss_mid_round_ends_its_run(self, monkeypatch):
        """``TestQueryChain``'s pinned losses (h003 lost, h004 down, h011
        lost) in one observed decision: each run of delivered hosts is one
        ``bus_round`` line and each loss one ``bus_drop``, in admission
        order, and the registry and the causal task's message and drop
        counts are the ones per-host calls give."""
        import io
        import json

        from repro.faults.injector import arm_faults
        from repro.faults.plan import FaultPlan, HostDown, MessageLoss
        from repro.telemetry import CausalTracer, JsonlTraceSink
        from tests.trace_oracle import expand_bus_rounds

        def decide():
            buf = io.StringIO()
            telemetry = Telemetry(
                registry=MetricsRegistry(),
                trace=JsonlTraceSink(buf),
                causal=CausalTracer(),
            )
            engine = Engine(telemetry=telemetry)
            fabric = NetworkFabric(
                engine, single_switch(16), make_allocator("fair"),
                telemetry=telemetry,
            )  # fmt: skip
            neat = neat_on(fabric, telemetry=telemetry)
            plan = FaultPlan(
                events=(
                    MessageLoss(start=0.0, p=0.25),
                    HostDown(time=0.05, host="h004"),
                ),
                seed=7,
            )
            arm_faults(plan, fabric, neat, telemetry)
            for i in range(1, 9):
                fabric.submit("h000", f"h{i:03d}", 1e9 * i)
            engine.run(until=0.1)
            telemetry.probe.begin_task(engine.now, "t0", "flow", 5e8, "h000")
            neat.daemon.place_flow(
                PlacementRequest(size=5e8, data_node="h000", candidates=CANDIDATES)
            )
            telemetry.probe.end_task(engine.now)
            telemetry.close()
            return (
                buf.getvalue(),
                telemetry.registry.as_dict(),
                [e for e in telemetry.causal.events if e["ev"] == "task_end"],
            )

        text, registry, task_ends = decide()
        bus = [json.loads(line) for line in text.splitlines() if '"bus_' in line]
        assert [(e["event"], e.get("hosts") or e["host"]) for e in bus] == [
            ("bus_round", ["h001", "h002"]),
            ("bus_drop", "h003"),
            ("bus_drop", "h004"),
            ("bus_round", [f"h{i:03d}" for i in range(5, 11)]),
            ("bus_drop", "h011"),
            ("bus_round", ["h012", "h013", "h014", "h015"]),
        ]
        assert [e.get("reason") for e in bus if e["event"] == "bus_drop"] == [
            "loss_window", "host_down", "loss_window",
        ]  # fmt: skip
        assert task_ends[0]["messages"] == 12 and task_ends[0]["dropped"] == 3
        assert registry["counters"]["placement.query_failures"] == 3
        monkeypatch.setattr(MessageBus, "call_round", _per_host_round)
        per_host_text, *per_host = decide()
        assert per_host_text.count("bus_round") == 12
        assert expand_bus_rounds(text) == expand_bus_rounds(per_host_text)
        assert [registry, task_ends] == per_host

    @pytest.mark.parametrize("predictor", ["coflow-fair", "tcf"])
    def test_coflow_round_matches_per_host_calls_through_hosts(
        self, monkeypatch, predictor
    ):
        """What the replays cannot reach (a coflow never enters one of its
        own sources there): coflows that cross several candidates' downlinks
        and leave through their uplinks, mid-flight under fair sharing, so
        a CCT read's totals depend on the hosts' order and on the link
        being read before the rest of the host.  Three decisions a round
        each, against the parent's per-host chain."""
        import dataclasses

        def decide():
            engine, fabric = setup(hosts=16)
            tracker = CoflowTracker(fabric)
            for i in range(1, 13, 3):
                tracker.submit_coflow([
                    ("h000", f"h{i:03d}", 2e9),
                    (f"h{i:03d}", f"h{i + 1:03d}", 3e9),
                    (f"h{i + 2:03d}", f"h{i + 1:03d}", 1e9 * i),
                    (f"h{i + 1:03d}", f"h{i + 3:03d}", 2.5e9),
                ])  # fmt: skip
            neat = neat_on(fabric, coflow_predictor=predictor)
            for until in (0.1, 0.7, 1.9):
                engine.run(until=until)
                neat.daemon.place_coflow_flow(5e8, 2e9, "h000", CANDIDATES)
            return (
                [dataclasses.asdict(d) for d in neat.daemon.decisions],
                neat.bus.messages_sent,
                [(f.flow_id, f.remaining, f.attained, fabric._synced_at[f.flow_id])
                 for f in fabric.active_flows()],
            )  # fmt: skip

        rounds = decide()
        monkeypatch.setattr(MessageBus, "call_round", _per_host_round)
        monkeypatch.setattr(
            NetworkDaemon, "handle", _parent_handle(NetworkDaemon.handle)
        )
        assert rounds == decide()
        assert all(d["queried_hosts"] == CANDIDATES for d in rounds[0])

    @pytest.mark.parametrize("hosts", [CANDIDATES, ("h001", "h002", "ghost", "h003")])
    def test_a_fault_free_round_is_admitted_as_per_host(self, hosts):
        """With no fault model and no host down, admission draws nothing and
        ``call_round`` counts the round at once: the same delivered hosts,
        replies, counters and ``bus_round`` lines as the per-host admission
        a fault model that never drops takes.  An unregistered host raises
        ``DaemonError`` after the hosts before it were counted (two calls,
        four messages), and no ``bus_round`` line goes out."""
        import io

        from repro.telemetry import JsonlTraceSink

        class NeverDrops:
            def should_drop(self, kind):
                return False

            def message_delay(self):
                return 0.0

        def round_trip(model):
            buf = io.StringIO()
            telemetry = Telemetry(registry=MetricsRegistry(), trace=JsonlTraceSink(buf))
            engine, fabric = busy_flow_fabric()
            neat = neat_on(fabric, telemetry=telemetry, control_rtt=0.001)
            if model is not None:
                neat.bus.install_fault_model(model)
            try:
                outcome = neat.bus.call_round(hosts, FlowPredictionRequest(5e8, "in"))
            except DaemonError as error:
                outcome = str(error)
            bus = neat.bus
            telemetry.close()
            return (
                outcome,
                (bus.messages_sent, bus.calls, bus.messages_dropped,
                 bus.estimated_control_latency),
                telemetry.registry.as_dict()["counters"],
                [line for line in buf.getvalue().splitlines() if "bus_round" in line],
            )  # fmt: skip

        fault_free = round_trip(None)
        assert fault_free == round_trip(NeverDrops())
        outcome, counters, _, lines = fault_free
        if "ghost" in hosts:
            assert outcome == "no daemon registered at 'ghost'"
            assert counters[:3] == (4, 2, 0) and lines == []
        else:
            assert outcome[0] == list(CANDIDATES) and len(outcome[1]) == 15
            assert counters[:3] == (30, 15, 0) and len(lines) == 1

    @pytest.mark.slow
    def test_round_matches_per_host_calls_clos_160(self, monkeypatch):
        """The benchmark's 160-host Clos under a lossy bus, a host going
        down, the state TTL, pushes and the source-link floor."""
        from repro.faults import FaultPlan, HostDown, MessageLoss
        from repro.topology.fabrics import three_tier_clos
        from repro.workloads import generate_flow_trace, make_distribution

        topology = three_tier_clos(pods=4, racks_per_pod=4, hosts_per_rack=10)
        trace = generate_flow_trace(
            hosts=topology.hosts,
            distribution=make_distribution("websearch"),
            load=0.7,
            edge_capacity=1e9,
            num_arrivals=1000,
            seed=42,
        )
        plan = FaultPlan(
            events=(
                MessageLoss(start=0.0, p=0.1),
                HostDown(time=0.05, host=topology.hosts[17]),
            ),
            seed=42,
        )
        outputs = _assert_round_matches_per_host_calls(
            monkeypatch,
            (topology, trace),
            dict(include_source_link=True),
            faults=plan, state_ttl=0.005, push_updates=True,
        )  # fmt: skip
        assert outputs["query_failures"] > 100

    @pytest.mark.slow
    def test_coflow_round_matches_per_host_calls_clos_160(self, monkeypatch):
        """Varys coflows on the benchmark's 160-host Clos under a lossy
        bus, a host going down and pushes: ~1,200 rounds of up to 8 hosts.
        No state TTL: with one, the stale-state fallback places nearly
        every coflow flow without a query (the 20-host faulted leg has it)."""
        from repro.faults import FaultPlan, HostDown, MessageLoss
        from repro.topology.fabrics import three_tier_clos
        from repro.workloads import generate_coflow_trace, make_distribution

        topology = three_tier_clos(pods=4, racks_per_pod=4, hosts_per_rack=10)
        trace = generate_coflow_trace(
            hosts=topology.hosts,
            distribution=make_distribution("hadoop"),
            load=0.7,
            edge_capacity=1e9,
            num_arrivals=300,
            seed=42,
        )
        plan = FaultPlan(
            events=(
                MessageLoss(start=0.0, p=0.1),
                HostDown(time=0.05, host=topology.hosts[17]),
            ),
            seed=42,
        )
        outputs = _assert_round_matches_per_host_calls(
            monkeypatch,
            (topology, trace),
            {},
            faults=plan, push_updates=True,
        )  # fmt: skip
        assert outputs["query_failures"] > 100
