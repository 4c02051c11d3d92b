"""Experiment runner: replay a trace through one placement/network combo.

Every macro experiment in the paper is "generate one trace, replay it under
each (placement policy, network policy) pair, compare completion times".
:func:`replay_flow_trace` and :func:`replay_coflow_trace` are those replay
loops; :func:`compare_policies` sweeps a set of placement policies over a
shared trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

from repro.coflow.tracking import CoflowTracker
from repro.coflow.policies.registry import make_coflow_allocator
from repro.errors import ConfigError, RoutingError
from repro.faults import FaultPlan, arm_faults
from repro.network.fabric import NetworkFabric
from repro.network.policies.registry import make_allocator
from repro.placement.base import PlacementRequest
from repro.placement.coflow_placement import (
    RackLocalCoflowPlacer,
    place_coflow_sequential,
)
from repro.placement.registry import make_placement_policy
from repro.sim.engine import Engine
from repro.topology.base import NodeId, Topology
from repro.workloads.noise import SizeEstimator
from repro.workloads.traces import CoflowArrival, TaskArrival, Trace

if TYPE_CHECKING:  # pragma: no cover - avoids an experiments<->telemetry cycle
    from repro.telemetry import Telemetry


@dataclass
class RunResult:
    """Everything a replay produces."""

    placement: str
    network_policy: str
    records: Tuple
    #: tag -> predicted completion time at placement (NEAT/minFCT only).
    predictions: Dict[str, float] = field(default_factory=dict)
    #: control-plane messages sent (NEAT only; 0 for baselines).
    control_messages: int = 0
    events_processed: int = 0
    sim_duration: float = 0.0
    #: degraded-operation tallies — all zero on fault-free runs.
    flows_aborted: int = 0
    flows_rerouted: int = 0
    tasks_dropped: int = 0
    stale_fallbacks: int = 0


def _candidate_pool(
    hosts: Sequence[NodeId],
    data_node: NodeId,
    *,
    exclude_data_node: bool,
    max_candidates: Optional[int],
    rng: random.Random,
) -> Tuple[NodeId, ...]:
    pool = [h for h in hosts if not (exclude_data_node and h == data_node)]
    if max_candidates is not None and len(pool) > max_candidates:
        pool = rng.sample(pool, max_candidates)
        pool.sort()
    return tuple(pool)


def _replay(
    trace: Trace,
    kind: str,
    make_place_task: Callable[[object], Callable[[], None]],
    size_and_data_node: Callable[[object], Tuple[float, NodeId]],
    fabric: NetworkFabric,
    policy,
    injector,
    probe,
    *,
    placement: str,
    network_policy: str,
    horizon: Optional[float],
    tracker: Optional[CoflowTracker] = None,
    predictions: Optional[Dict[str, float]] = None,
) -> RunResult:
    """The loop both replays share: open the run, schedule one placement
    per arrival, run the network to empty (or ``horizon``), close the run."""
    engine = fabric.engine
    arrival_type = CoflowArrival if kind == "coflow" else TaskArrival
    if probe is not None:
        probe.begin_run(engine.now, placement, network_policy, fabric, tracker)

    def arrival_callback(arrival):
        place_task = make_place_task(arrival)
        if probe is None:
            return place_task

        def on_arrival() -> None:
            # Every task arrival opens a trace context: the placement
            # decision, its control messages, and the spawned flows all
            # attribute to this trace id.
            size, data_node = size_and_data_node(arrival)
            probe.begin_task(engine.now, arrival.tag, kind, size, data_node)
            try:
                place_task()
            finally:
                probe.end_task(engine.now)

        return on_arrival

    for arrival in trace.arrivals:
        if not isinstance(arrival, arrival_type):
            raise ConfigError(f"replay_{kind}_trace needs a {kind} trace")
        engine.schedule_at(arrival.time, arrival_callback(arrival))
    engine.run(until=horizon)
    records = tracker.records if tracker is not None else fabric.records
    if probe is not None:
        probe.end_run(engine.now, len(records), engine.events_processed)

    bus = getattr(policy, "bus", None)
    daemon = getattr(policy, "daemon", None)
    return RunResult(
        placement=placement,
        network_policy=network_policy,
        records=records,
        predictions=predictions if predictions is not None else {},
        control_messages=bus.messages_sent if bus is not None else 0,
        events_processed=engine.events_processed,
        sim_duration=engine.now,
        flows_aborted=fabric.flows_aborted,
        flows_rerouted=fabric.flows_rerouted,
        tasks_dropped=injector.tasks_dropped if injector is not None else 0,
        stale_fallbacks=daemon.stale_fallbacks if daemon is not None else 0,
    )


def replay_flow_trace(
    trace: Trace,
    topology: Topology,
    *,
    network_policy: str,
    placement: str,
    predictor: str = "fair",
    seed: int = 1,
    exclude_data_node: bool = True,
    max_candidates: Optional[int] = None,
    horizon: Optional[float] = None,
    size_estimator: Optional[SizeEstimator] = None,
    telemetry: Optional["Telemetry"] = None,
    faults: Optional[FaultPlan] = None,
    state_ttl: Optional[float] = None,
    push_updates: bool = False,
) -> RunResult:
    """Replay a flow trace: place every task, run the network to empty.

    Args:
        trace: arrivals produced by :func:`~repro.workloads.generate_flow_trace`.
        topology: the fabric to simulate on (reused read-only across runs).
        network_policy: flow scheduling policy name (fair/fcfs/las/srpt or
            dctcp/l2dct/pase).
        placement: placement policy name (neat/minfct/minload/mindist/random).
        predictor: FCT predictor for NEAT/minFCT (Proposition 4.1 says
            "fair" is the right default regardless of ``network_policy``).
        seed: randomness for candidate sampling and tie-breaks (shared by
            every policy so comparisons stay paired).
        exclude_data_node: disallow running the task where its data lives
            (keeps every task a real network transfer, as in the paper's
            placement experiments).
        max_candidates: subsample this many candidate hosts per task
            (models slot availability; also bounds daemon queries).
        horizon: stop the simulation at this time instead of draining.
        size_estimator: when given, the *placement* layer sees
            ``estimator.estimate(size)`` while the network transfers the
            true size — the §7 flow-size-uncertainty model.
        telemetry: optional :class:`~repro.telemetry.Telemetry` bundle:
            metrics, trace events, and the placement-decision log are all
            recorded against this run.
        faults: optional :class:`~repro.faults.FaultPlan` to inject.  An
            empty (or absent) plan leaves the run byte-identical to a
            fault-free one.
        state_ttl: NEAT node-state TTL enabling the stale-state fallback
            (see :func:`~repro.placement.neat.build_neat`).
        push_updates: enable NEAT's push-style state dissemination.
    """
    engine = Engine(telemetry=telemetry)
    fabric = NetworkFabric(
        engine,
        topology,
        make_allocator(network_policy),
        telemetry=telemetry,
    )
    place_rng = random.Random(seed)
    pool_rng = random.Random(seed + 7)
    policy = make_placement_policy(
        placement, fabric, rng=place_rng, predictor=predictor,
        state_ttl=state_ttl, push_updates=push_updates,
        telemetry=telemetry,
    )
    injector = arm_faults(faults, fabric, policy, telemetry)
    probe = telemetry.probe if telemetry is not None else None
    hosts = topology.hosts
    predictions: Dict[str, float] = {}

    def make_place_task(arrival: TaskArrival):
        def place_task() -> None:
            candidates = _candidate_pool(
                hosts,
                arrival.data_node,
                exclude_data_node=exclude_data_node,
                max_candidates=max_candidates,
                rng=pool_rng,
            )
            if injector is not None:
                # The cluster manager knows which hosts are dead (the
                # paper's heartbeat layer); tasks whose data node is gone
                # or whose every candidate is gone cannot be placed.
                if not fabric.host_is_up(arrival.data_node):
                    injector.note_task_dropped(arrival.tag)
                    return
                candidates = tuple(
                    h for h in candidates if fabric.host_is_up(h)
                )
                if not candidates:
                    injector.note_task_dropped(arrival.tag)
                    return
            seen_size = (
                size_estimator.estimate(arrival.size)
                if size_estimator is not None
                else arrival.size
            )
            request = PlacementRequest(
                size=seen_size,
                data_node=arrival.data_node,
                candidates=candidates,
                tag=arrival.tag,
            )
            span = probe.enter_place() if probe is not None else None
            host = policy.place(request)
            if span is not None:
                probe.exit_place(span)
            policy.notify_placed(request, host)
            try:
                fabric.submit(
                    arrival.data_node, host, arrival.size, tag=arrival.tag
                )
            except RoutingError:
                if injector is None:
                    raise
                # A link failure partitioned data node from host
                # between placement and submission.
                injector.note_task_dropped(arrival.tag)
                return
            daemon = getattr(policy, "daemon", None)
            if daemon is not None and daemon.decisions:
                predictions[arrival.tag] = daemon.decisions[-1].predicted_time

        return place_task

    return _replay(
        trace,
        "flow",
        make_place_task,
        lambda arrival: (arrival.size, arrival.data_node),
        fabric,
        policy,
        injector,
        probe,
        placement=placement,
        network_policy=network_policy,
        horizon=horizon,
        predictions=predictions,
    )


def replay_coflow_trace(
    trace: Trace,
    topology: Topology,
    *,
    network_policy: str,
    placement: str,
    predictor: str = "fair",
    coflow_predictor: Optional[str] = None,
    seed: int = 1,
    exclude_data_node: bool = True,
    max_candidates: Optional[int] = None,
    horizon: Optional[float] = None,
    telemetry: Optional["Telemetry"] = None,
    faults: Optional[FaultPlan] = None,
    state_ttl: Optional[float] = None,
    push_updates: bool = False,
) -> RunResult:
    """Replay a coflow trace under a coflow scheduling policy.

    Placement follows §5.1.2: each coflow's flows are placed sequentially
    in descending size order through the configured placement policy.

    Under a fault plan, a coflow whose placement or submission hits a dead
    host is dropped as a whole (any already-submitted constituent flows
    drain but the coflow never completes — a failed job, counted in
    ``tasks_dropped``).
    """
    engine = Engine(telemetry=telemetry)
    fabric = NetworkFabric(
        engine,
        topology,
        make_coflow_allocator(network_policy),
        telemetry=telemetry,
    )
    tracker = CoflowTracker(fabric, telemetry=telemetry)
    place_rng = random.Random(seed)
    pool_rng = random.Random(seed + 7)
    if coflow_predictor is None:
        coflow_predictor = network_policy
    policy = make_placement_policy(
        placement,
        fabric,
        rng=place_rng,
        predictor=predictor,
        coflow_predictor=coflow_predictor if placement == "neat" else None,
        state_ttl=state_ttl,
        push_updates=push_updates,
        telemetry=telemetry,
    )
    injector = arm_faults(faults, fabric, policy, telemetry)
    probe = telemetry.probe if telemetry is not None else None
    # The paper's minDist coflow adaptation keeps a coflow's flows in one
    # rack near the input data (Fig. 7 description).
    if placement == "mindist":
        place_coflow = RackLocalCoflowPlacer(policy).place_coflow
    else:
        place_coflow = partial(place_coflow_sequential, policy)
    hosts = topology.hosts

    def make_place_task(arrival: CoflowArrival):
        def place_task() -> None:
            sources = {node for node, _size in arrival.transfers}
            pool = [
                h for h in hosts if not (exclude_data_node and h in sources)
            ]
            if max_candidates is not None and len(pool) > max_candidates:
                pool = sorted(pool_rng.sample(pool, max_candidates))
            if injector is not None:
                if any(not fabric.host_is_up(node) for node in sources):
                    injector.note_task_dropped(arrival.tag)
                    return
                pool = [h for h in pool if fabric.host_is_up(h)]
                if not pool:
                    injector.note_task_dropped(arrival.tag)
                    return
            span = probe.enter_place() if probe is not None else None
            try:  # a coflow's submits share one allocation (DESIGN §5.2.1)
                with fabric.batch():
                    place_coflow(tracker, arrival.transfers, pool, tag=arrival.tag)
            except RoutingError:
                if injector is None:
                    raise
                injector.note_task_dropped(arrival.tag)
            if span is not None:
                probe.exit_place(span)

        return place_task

    return _replay(
        trace,
        "coflow",
        make_place_task,
        lambda arrival: (
            arrival.total_size,
            max(arrival.transfers, key=lambda ts: ts[1])[0],
        ),
        fabric,
        policy,
        injector,
        probe,
        placement=placement,
        network_policy=network_policy,
        horizon=horizon,
        tracker=tracker,
    )


def compare_policies(
    trace: Trace,
    topology: Topology,
    *,
    network_policy: str,
    placements: Sequence[str],
    coflows: bool = False,
    **kwargs,
) -> Dict[str, RunResult]:
    """Replay one trace under several placement policies (paired design)."""
    replay = replay_coflow_trace if coflows else replay_flow_trace
    results: Dict[str, RunResult] = {}
    for placement in placements:
        results[placement] = replay(
            trace,
            topology,
            network_policy=network_policy,
            placement=placement,
            **kwargs,
        )
    return results
