"""The serving loop: NEAT as a long-lived placement service.

:class:`PlacementServer` runs one timed open-loop session inside the
deterministic simulator: an :class:`~repro.service.workload.OpenLoopSource`
keeps offering tasks, an :class:`~repro.service.admission.AdmissionQueue`
bounds how many may wait, and the loop drains admitted requests into the
existing :class:`~repro.daemons.placement_daemon.TaskPlacementDaemon` in
adaptive **micro-batches**: a batch is placed as soon as it holds
``batch_max`` requests or the oldest admitted request has waited
``batch_wait`` simulated seconds — small batches under light load (low
latency), full batches under heavy load (amortisation).  Each batch costs
one :class:`~repro.daemons.messages.LinkStateRequest` per *distinct*
candidate host instead of one prediction query per (request, candidate)
pair; see ``TaskPlacementDaemon.place_batch``.

Determinism contract: the decision log and every field of
:meth:`ServiceReport.to_dict` depend only on ``(scenario, seed,
status_interval)`` — simulated time throughout.  Wall-clock measurements
(per-request decision latency, placements/sec) are observation-only: they
appear in the text report, the metrics registry (every session event is
reported once to the telemetry probe, whose metrics channel owns the
``service.*`` names), and the BENCH artifact, never in the deterministic
report JSON.  Heartbeat events are scheduled
whether or not anyone is listening, so attaching a status stream or a
Prometheus file does not change the simulated trajectory.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.daemons.messages import LinkStateRequest  # noqa: F401 (re-export)
from repro.errors import RoutingError
from repro.faults import FaultPlan, arm_faults
from repro.metrics.stats import mean, percentile
from repro.network.fabric import NetworkFabric
from repro.network.policies.registry import make_allocator
from repro.placement.base import PlacementRequest
from repro.placement.neat import build_neat
from repro.predictor.registry import make_flow_predictor
from repro.service.admission import AdmissionQueue, QueuedRequest
from repro.service.scenario import ServiceScenario
from repro.sim.engine import Engine
from repro.sim.randomness import hash_seed

if TYPE_CHECKING:  # pragma: no cover - avoids a service<->telemetry cycle
    from repro.campaign.status import StatusWriter
    from repro.telemetry import Telemetry

__all__ = ["PlacementServer", "ServiceReport", "render_service_report"]


def _stats(values: List[float]) -> Dict[str, float]:
    if not values:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0}
    return {
        "count": len(values),
        "mean": mean(values),
        "p50": percentile(values, 50),
        "p99": percentile(values, 99),
    }


@dataclass
class ServiceReport:
    """Everything one serving session produced.

    Every field except the ``wall_*`` block is a pure function of the
    scenario and seed (simulated time only); :meth:`to_dict` emits exactly
    that deterministic subset.
    """

    scenario: str
    seed: int
    duration: float
    offered: int
    admitted: int
    rejected: int
    dropped: int
    decisions: int
    batches: int
    queue_depth_peak: int
    queue_wait: Dict[str, float]
    batch_size: Dict[str, float]
    predicted_fct: Dict[str, float]
    completed_flows: int
    realized_fct: Dict[str, float]
    stale_fallbacks: int
    control_messages: int
    events_processed: int
    sim_time: float
    #: wall-clock observation-only block (varies run to run).
    wall_seconds: float = 0.0
    placements_per_second: float = 0.0
    decision_latency: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """The deterministic report: byte-identical for same (seed, scenario)."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "duration": self.duration,
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "dropped": self.dropped,
            "decisions": self.decisions,
            "batches": self.batches,
            "queue_depth_peak": self.queue_depth_peak,
            "queue_wait": dict(self.queue_wait),
            "batch_size": dict(self.batch_size),
            "predicted_fct": dict(self.predicted_fct),
            "completed_flows": self.completed_flows,
            "realized_fct": dict(self.realized_fct),
            "stale_fallbacks": self.stale_fallbacks,
            "control_messages": self.control_messages,
            "events_processed": self.events_processed,
            "sim_time": self.sim_time,
        }


def render_service_report(report: ServiceReport) -> str:
    """Human-readable session summary (includes the wall-clock block)."""
    lines = [
        f"service session: {report.scenario} (seed {report.seed})",
        "=" * 60,
        f"offered {report.offered} tasks over {report.duration:g}s "
        f"(sim ran to {report.sim_time:.3f}s)",
        f"admitted={report.admitted}  rejected={report.rejected}"
        + (f"  dropped={report.dropped}" if report.dropped else "")
        + f"  queue depth peak={report.queue_depth_peak}",
        f"decisions={report.decisions} in {report.batches} batches "
        f"(mean batch {report.batch_size['mean']:.2f}, "
        f"p99 {report.batch_size['p99']:.0f})",
        f"queue wait   mean={report.queue_wait['mean'] * 1e3:.3f}ms  "
        f"p99={report.queue_wait['p99'] * 1e3:.3f}ms (sim)",
        f"predicted FCT mean={report.predicted_fct['mean']:.4f}s  "
        f"p99={report.predicted_fct['p99']:.4f}s",
        f"completed {report.completed_flows} flows: realized FCT "
        f"mean={report.realized_fct['mean']:.4f}s  "
        f"p99={report.realized_fct['p99']:.4f}s",
        f"control messages={report.control_messages}  "
        f"events={report.events_processed}"
        + (
            f"  stale fallbacks={report.stale_fallbacks}"
            if report.stale_fallbacks
            else ""
        ),
    ]
    if report.wall_seconds > 0:
        lines.append(
            f"wall: {report.wall_seconds:.3f}s, "
            f"{report.placements_per_second:.0f} placements/s, "
            f"decision latency p50="
            f"{report.decision_latency.get('p50', 0.0) * 1e6:.1f}us "
            f"p99={report.decision_latency.get('p99', 0.0) * 1e6:.1f}us"
        )
    return "\n".join(lines)


class PlacementServer:
    """One open-loop serving session over the NEAT control plane."""

    def __init__(
        self,
        scenario: ServiceScenario,
        *,
        telemetry: Optional["Telemetry"] = None,
        faults: Optional[FaultPlan] = None,
        status: Optional["StatusWriter"] = None,
        status_interval: float = 1.0,
        prometheus_out: Optional[str] = None,
        prometheus_prefix: str = "repro_",
        slo_specs=None,
        recorder=None,
        rollups_out: Optional[str] = None,
        stall_after: Optional[float] = None,
    ) -> None:
        """Args:
            scenario: the session's full configuration.
            telemetry: optional bundle — the admission queue and serving
                loop report to its probe, decisions go into its log.
            faults: optional fault plan injected into the session.
            status: optional :class:`StatusWriter` receiving heartbeat
                records (``repro status`` can watch a live session).
            status_interval: simulated seconds between heartbeats.  Part
                of the deterministic inputs (heartbeats are engine
                events); attaching/removing ``status`` is not.
            prometheus_out: path refreshed with the metrics snapshot in
                Prometheus text format at every heartbeat.
            slo_specs: optional :class:`~repro.telemetry.slo.SLOSpec`
                list evaluated at every heartbeat against windowed
                rollups; alert transitions go to the status stream, the
                recorder, and the ``slo.*`` counters — never the
                deterministic record/trace streams.
            recorder: optional
                :class:`~repro.telemetry.recorder.FlightRecorder`; an
                SLO breach, a serve stall, or a crash dumps a replayable
                post-mortem bundle into its directory.
            rollups_out: path written with the rollup store's JSON when
                the session ends (``repro slo check`` consumes it).
            stall_after: dump/flag a stall when no new decision lands
                for this many simulated seconds while requests queue.
        """
        self._scenario = scenario
        self._telemetry = telemetry
        self._faults = faults
        self._status = status
        self._status_interval = float(status_interval)
        self._prometheus_out = prometheus_out
        self._prometheus_prefix = prometheus_prefix
        self._slo_specs = list(slo_specs) if slo_specs else []
        self._recorder = recorder
        self._rollups_out = rollups_out
        self._stall_after = stall_after
        #: SLO engine of the last :meth:`run` (alert history lives here).
        self.last_slo_engine = None
        #: Rollup store of the last :meth:`run`.
        self.last_rollups = None
        #: The placement daemon of the last completed :meth:`run` (its
        #: ``decisions`` are the session's deterministic decision log).
        self.last_daemon = None

    # ------------------------------------------------------------------
    # The session
    # ------------------------------------------------------------------
    def run(self) -> ServiceReport:
        scenario = self._scenario
        telemetry = self._telemetry
        engine = Engine(telemetry=telemetry)
        topology = scenario.build_topology()
        fabric = NetworkFabric(
            engine,
            topology,
            make_allocator(scenario.network_policy),
            telemetry=telemetry,
        )
        policy = build_neat(
            fabric,
            predictor=scenario.predictor,
            rng=random.Random(hash_seed(scenario.seed, "service:ties")),
            control_rtt=scenario.control_rtt,
            state_ttl=scenario.state_ttl,
            push_updates=scenario.push_updates,
            telemetry=telemetry,
        )
        daemon = policy.daemon
        injector = arm_faults(self._faults, fabric, policy, telemetry)
        predictor = make_flow_predictor(scenario.predictor)
        admission = AdmissionQueue(
            policy=scenario.admission_policy,
            capacity=scenario.queue_capacity,
            token_rate=scenario.token_rate,
            token_burst=scenario.token_burst,
            telemetry=telemetry,
        )
        pool_rng = random.Random(hash_seed(scenario.seed, "service:pool"))
        hosts = topology.hosts
        probe = reg = causal = None
        if telemetry is not None:
            probe = telemetry.attach("service")
            reg, causal = telemetry.registry, telemetry.causal

        # Live observability layer: windowed rollups, SLO burn rates,
        # and the flight recorder.  All three are observers — they read
        # registry/causal state at heartbeats and never touch the
        # simulated trajectory (the differential determinism tests pin
        # this).
        store = None
        slo_engine = None
        recorder = self._recorder
        if self._slo_specs or self._rollups_out is not None:
            from repro.telemetry.timeseries import TimeseriesStore

            store = TimeseriesStore(bin_width=self._status_interval)
        if self._slo_specs:
            from repro.telemetry.slo import SLOEngine

            slo_engine = SLOEngine(self._slo_specs, store, reg)
        if recorder is not None and causal is not None:
            recorder.attach(causal.events)
        if probe is not None:
            # The session is one run, as a replay is: its causal events
            # group for `repro explain` and its decisions join outcomes.
            probe.begin_run(0.0, "neat", scenario.network_policy, fabric, None)
        self.last_slo_engine = slo_engine
        self.last_rollups = store

        arrivals = iter(scenario.build_source(topology))
        queue_waits: List[float] = []
        batch_sizes: List[float] = []
        decision_wall: List[float] = []
        state = {
            "seq": 0,
            "dropped": 0,
            "decisions": 0,
            "batches": 0,
            "trigger": None,
            "trigger_at": 0.0,
            "busy_until": 0.0,
        }
        batch_max = scenario.batch_max
        batch_wait = scenario.batch_wait

        # ------------------------------------------------------------------
        # Arrival pump: one pending arrival event at a time (lazy stream).
        # ------------------------------------------------------------------
        def pump() -> None:
            arrival = next(arrivals, None)
            if arrival is None:
                return
            engine.schedule_at(
                arrival.time,
                lambda a=arrival: on_arrival(a),
                label="service-arrival",
            )

        def on_arrival(arrival) -> None:
            pump()
            request = QueuedRequest(
                seq=state["seq"], arrival=arrival, admitted_at=engine.now
            )
            state["seq"] += 1
            if admission.offer(request):
                note_enqueued()

        # ------------------------------------------------------------------
        # Adaptive micro-batching.  The controller is a serial resource
        # with a modeled service time per batch (``busy_until``); a drain
        # trigger never fires while it is busy, which is what lets an
        # open-loop overload back the admission queue up.
        # ------------------------------------------------------------------
        def trigger(delay: float) -> None:
            """Request a drain after ``delay`` (clamped to server busy time).

            Triggers only ever move *earlier*: a full batch (delay 0)
            overrides a pending deadline, a later deadline never delays
            an earlier one.
            """
            at = max(engine.now + delay, state["busy_until"])
            if state["trigger"] is not None:
                if at >= state["trigger_at"]:
                    return
                engine.cancel(state["trigger"])
            state["trigger"] = engine.schedule_at(
                at, fire_trigger, label="service-batch"
            )
            state["trigger_at"] = at

        def fire_trigger() -> None:
            state["trigger"] = None
            drain()

        def note_enqueued() -> None:
            trigger(0.0 if admission.depth >= batch_max else batch_wait)

        def drain() -> None:
            batch = admission.take(batch_max)
            if not batch:
                return
            wall_start = _time.perf_counter()
            requests: List[PlacementRequest] = []
            kept: List[QueuedRequest] = []
            for queued in batch:
                arrival = queued.arrival
                pool = [h for h in hosts if h != arrival.data_node]
                cap = scenario.max_candidates
                if cap is not None and len(pool) > cap:
                    pool = sorted(pool_rng.sample(pool, cap))
                if injector is not None:
                    if not fabric.host_is_up(arrival.data_node):
                        injector.note_task_dropped(arrival.tag)
                        state["dropped"] += 1
                        continue
                    pool = [h for h in pool if fabric.host_is_up(h)]
                    if not pool:
                        injector.note_task_dropped(arrival.tag)
                        state["dropped"] += 1
                        continue
                requests.append(
                    PlacementRequest(
                        size=arrival.size,
                        data_node=arrival.data_node,
                        candidates=tuple(pool),
                        tag=arrival.tag,
                    )
                )
                kept.append(queued)
            first_wait = len(queue_waits)
            if requests:
                placed = daemon.place_batch(requests, predictor)
                for queued, request, host in zip(kept, requests, placed):
                    queue_waits.append(engine.now - queued.admitted_at)
                    try:
                        fabric.submit(
                            request.data_node,
                            host,
                            request.size,
                            tag=request.tag,
                        )
                    except RoutingError:
                        # Partitioned between placement and submission.
                        if injector is not None:
                            injector.note_task_dropped(request.tag)
                        state["dropped"] += 1
                state["decisions"] += len(requests)
            elapsed = _time.perf_counter() - wall_start
            # Wall-clock, observation-only: never feeds back into the
            # simulated trajectory.
            per_request = elapsed / len(requests) if requests else 0.0
            decision_wall.extend([per_request] * len(requests))
            state["batches"] += 1
            batch_sizes.append(float(len(batch)))
            if probe is not None:
                probe.on_batch(
                    engine.now,
                    len(batch),
                    queue_waits[first_wait:],
                    len(requests),
                    per_request,
                )
            state["busy_until"] = engine.now + (
                scenario.batch_overhead
                + scenario.per_request_cost * len(batch)
            )
            if admission.depth:
                trigger(0.0 if admission.depth >= batch_max else batch_wait)

        # ------------------------------------------------------------------
        # Heartbeats: always scheduled, so observers don't change the run.
        # ------------------------------------------------------------------
        stall = {"decisions": 0, "since": 0.0, "flagged": False}

        def emit_cell(cell_state: str, **extra) -> None:
            """The session's one status cell, in ``cell_state``."""
            if self._status is not None:
                self._status.emit(
                    "cell",
                    cell=0,
                    spec=scenario.name,
                    state=cell_state,
                    sim_time=engine.now,
                    decisions=state["decisions"],
                    queue_depth=admission.depth,
                    rejected=admission.rejected,
                    events_processed=engine.events_processed,
                    **extra,
                )

        def post_mortem(reason: str, offending=None) -> None:
            if recorder is None:
                return
            metrics = reg.as_dict() if reg is not None else None
            if metrics is not None and telemetry.profiler is not None:
                metrics["profile"] = telemetry.profiler.as_dict()
            recorder.dump(
                reason,
                now=engine.now,
                offending=offending,
                metrics=metrics,
                scenario=scenario.to_dict(),
                faults=self._faults.to_dict() if self._faults else None,
                context={
                    "seed": scenario.seed,
                    "scenario": scenario.name,
                    "sim_time": engine.now,
                    "decisions": state["decisions"],
                    "queue_depth": admission.depth,
                    "firing": slo_engine.firing if slo_engine else [],
                },
            )

        def check_stall(now: float) -> None:
            if self._stall_after is None:
                return
            if state["decisions"] != stall["decisions"]:
                stall["decisions"] = state["decisions"]
                stall["since"] = now
                stall["flagged"] = False
                return
            stalled = (
                admission.depth > 0
                and now - stall["since"] >= self._stall_after
            )
            if stalled and not stall["flagged"]:
                stall["flagged"] = True
                if self._status is not None:
                    self._status.emit(
                        "stall",
                        spec=scenario.name,
                        sim_time=now,
                        stalled_for=now - stall["since"],
                        queue_depth=admission.depth,
                        decisions=state["decisions"],
                    )
                post_mortem("stall")

        def heartbeat() -> None:
            now = engine.now
            if store is not None and reg is not None:
                store.sample(now, reg)
            if recorder is not None:
                recorder.poll()
            if slo_engine is not None:
                for alert in slo_engine.evaluate(now):
                    event = alert.as_event()
                    if recorder is not None:
                        recorder.observe(event)
                    if self._status is not None:
                        self._status.emit(
                            "slo_alert",
                            **{k: v for k, v in event.items() if k != "ev"},
                        )
                    if alert.state == "firing":
                        post_mortem(
                            f"slo-breach-{alert.slo}",
                            offending={
                                "slo": alert.slo,
                                "state": alert.state,
                                "burn_fast": alert.burn_fast,
                                "burn_slow": alert.burn_slow,
                                "spec": alert.spec.to_dict(),
                            },
                        )
            check_stall(now)
            if slo_engine is not None and self._status is not None:
                emit_cell("running", slo=slo_engine.summary(now))
            else:
                emit_cell("running")
            self._write_prometheus()
            if engine.pending_events > 0:
                engine.schedule(
                    self._status_interval, heartbeat, label="service-heartbeat"
                )

        wall_begin = _time.perf_counter()
        if self._status is not None:
            # One "campaign" of one cell: `repro status` renders a live
            # session with the same tooling as a sweep.  The final record
            # is the worker-style `finished` below — deliberately no
            # supervisor terminal record, which stall detection must
            # tolerate (SETTLED_STATES).
            self._status.emit(
                "campaign_start",
                campaign=f"serve:{scenario.name}",
                cells=1,
                jobs=1,
            )
        pump()
        engine.schedule(self._status_interval, heartbeat, label="service-heartbeat")
        try:
            engine.run()
        except BaseException:
            # Post-mortem before the exception propagates: the bundle
            # carries the exact (scenario, seed) so the crash replays.
            post_mortem("crash")
            emit_cell("crashed")
            self._write_rollups(store)
            raise
        wall_total = _time.perf_counter() - wall_begin

        predicted = [
            d.predicted_time
            for d in daemon.decisions
            if d.predicted_time >= 0
        ]
        fcts = [record.fct for record in fabric.records]
        report = ServiceReport(
            scenario=scenario.name,
            seed=scenario.seed,
            duration=scenario.duration,
            offered=admission.offered,
            admitted=admission.admitted,
            rejected=admission.rejected,
            dropped=state["dropped"],
            decisions=state["decisions"],
            batches=state["batches"],
            queue_depth_peak=admission.depth_peak,
            queue_wait=_stats(queue_waits),
            batch_size=_stats(batch_sizes),
            predicted_fct=_stats(predicted),
            completed_flows=len(fabric.records),
            realized_fct=_stats(fcts),
            stale_fallbacks=daemon.stale_fallbacks,
            control_messages=policy.bus.messages_sent,
            events_processed=engine.events_processed,
            sim_time=engine.now,
            wall_seconds=wall_total,
            placements_per_second=(
                state["decisions"] / wall_total if wall_total > 0 else 0.0
            ),
            decision_latency=_stats(decision_wall),
        )
        emit_cell("finished")
        self._write_prometheus()
        if probe is not None:
            probe.end_run(engine.now, len(fabric.records), engine.events_processed)
        if store is not None and reg is not None:
            store.sample(engine.now, reg)  # capture the final partial bin
        if recorder is not None:
            recorder.poll()
        self._write_rollups(store)
        self.last_daemon = daemon
        return report

    def _write_rollups(self, store) -> None:
        if self._rollups_out is None or store is None:
            return
        import json
        import os

        parent = os.path.dirname(self._rollups_out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self._rollups_out, "w", encoding="utf-8") as fp:
            json.dump(store.to_dict(), fp, indent=2, sort_keys=True)
            fp.write("\n")

    def _write_prometheus(self) -> None:
        if self._prometheus_out is None:
            return
        from repro.telemetry.prometheus import render_prometheus

        telemetry = self._telemetry
        registry = telemetry.registry if telemetry is not None else None
        text = render_prometheus(
            registry.as_dict() if registry is not None else {},
            prefix=self._prometheus_prefix,
        )
        with open(self._prometheus_out, "w", encoding="utf-8") as fp:
            fp.write(text)


def decisions_as_jsonl(daemon) -> str:
    """Serialise a daemon's decision list as deterministic JSONL.

    Sim-time fields only — two identical sessions produce byte-identical
    output (the ``repro serve --decisions-out`` format).
    """
    import json

    lines = []
    for d in daemon.decisions:
        lines.append(
            json.dumps(
                {
                    "tag": d.tag,
                    "kind": d.kind,
                    "size": d.size,
                    "host": d.host,
                    "predicted_time": d.predicted_time,
                    "preferred": list(d.preferred_hosts),
                    "queried": list(d.queried_hosts),
                    "used_fallback": d.used_fallback,
                    "used_stale_fallback": d.used_stale_fallback,
                    "scores": [[h, s] for h, s in d.candidate_scores],
                },
                separators=(",", ":"),
                default=str,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
