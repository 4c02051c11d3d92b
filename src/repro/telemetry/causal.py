"""Request-scoped causal tracing and FCT/CCT blame decomposition.

The fifth observability channel: while the event trace answers *what*
happened and the decision log answers *what the controller believed*,
the causal layer answers *why a particular task was slow*.  Every task
arrival is assigned a trace id which is threaded — without any signature
changes, the simulator being single-threaded and synchronous — through
the placement decision, the control-plane messages it triggered, each
spawned flow's full lifecycle (submit, every rate change, reroute,
abort, completion) and, for coflows, the coflow's completion.

On top of the recorded stream, :func:`analyze` rebuilds each run's rate
and capacity step functions and splits every realized FCT into four
**additive** components (the decomposition invariant: they sum to the
FCT within float dust, enforced by tests at 1e-6):

* ``serialization`` — time the flow would have needed for the bits
  moved at the pristine (run-start) bottleneck capacity of its path.
  Deliberately *not* the engine's submit-frozen optimal: that bakes in
  any capacity fault active at submit, which would charge the fault's
  slowdown to serialization;
* ``queueing`` — time spent queued in the placement daemon.  Placement
  is synchronous in this fluid model, so the component is structurally
  zero; it is carried explicitly so the schema survives an asynchronous
  control plane, and the *estimated* control latency rides separately in
  ``control_messages`` / the decision log;
* ``fault`` — extra serialization caused by degraded/failed capacity on
  the flow's path (``bits/r_fault - bits/r_base`` per constant-capacity
  segment, where ``r_fault`` is the path bottleneck *during* the segment
  and ``r_base`` the pristine one).  Signed: a boost above the pristine
  capacity yields negative fault time;
* ``contention`` — the remainder of each segment
  (``dt - bits/r_fault``): time lost to competing flows and to the
  scheduling policy itself, attributed per segment to the most-utilised
  path link and split across the flows sharing it in proportion to
  their rates.

Per coflow, the critical path is the last-completing constituent flow:
``CCT = skew + serialization + queueing + contention + fault`` where
``skew`` is how long the coflow waited for the critical flow to even be
submitted.

Determinism contract: recording is purely observational (no simulation
state is read back mutably), so tracing on changes no records, and the
recorded stream — and therefore :meth:`CausalTracer.save`'s JSONL — is
byte-identical across same-(seed, plan) runs.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.stats import percentile
from repro.telemetry.trace import _json_safe, read_trace

__all__ = [
    "CausalTracer",
    "FlowBlame",
    "CoflowBlame",
    "RunAnalysis",
    "RunScan",
    "scan_runs",
    "analyze",
    "load_causal",
    "aggregate_blame",
    "blame_shares_dict",
    "render_explain",
    "BLAME_COMPONENTS",
]

#: The additive FCT components, in display order.
BLAME_COMPONENTS = ("serialization", "queueing", "contention", "fault")


class CausalTracer:
    """Records the causal event stream for one or more runs.

    A probe channel (:mod:`repro.telemetry.probe`): every ``on_*`` /
    ``note_*`` / ``begin_*`` / ``end_*`` method is a probe point and is
    purely observational.
    """

    def __init__(self) -> None:
        self._events: List[Dict[str, object]] = []
        self._run = -1
        self._open = False
        # Window declarations recorded before a run opens (the injector
        # arms before the runner binds its run context) park here and are
        # flushed right after the next ``run_start``.
        self._pending: List[Dict[str, object]] = []
        self._next_trace = 0
        self._current: Optional[int] = None
        self._task_messages = 0
        self._task_dropped = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def events(self) -> List[Dict[str, object]]:
        """The recorded stream (list of dicts, chronological per run)."""
        return self._events

    @property
    def events_recorded(self) -> int:
        return len(self._events)

    @property
    def current_trace(self) -> Optional[int]:
        """The open task's trace id (None outside a task context)."""
        return self._current

    # ------------------------------------------------------------------
    # Run boundaries
    # ------------------------------------------------------------------
    def begin_run(
        self, t: float, placement: str, network_policy: str, fabric,
        tracker=None,
    ) -> int:
        self._run += 1
        self._open = True
        self._current = None
        capacities = {
            link.link_id: fabric.link_capacity(link.link_id)
            for link in fabric.topology.links()
        }
        self._events.append(
            {
                "ev": "run_start",
                "t": t,
                "run": self._run,
                "placement": placement,
                "network_policy": network_policy,
                "capacities": dict(sorted(capacities.items())),
            }
        )
        if self._pending:
            self._events.extend(self._pending)
            self._pending.clear()
        return self._run

    def end_run(self, t: float, records: int, events_processed=None) -> None:
        self._open = False
        self._events.append(
            {"ev": "run_end", "t": t, "run": self._run, "records": records}
        )

    # ------------------------------------------------------------------
    # Task (request) context
    # ------------------------------------------------------------------
    def begin_task(
        self, t: float, tag: str, kind: str, size: float, data_node: str
    ) -> int:
        trace = self._next_trace
        self._next_trace += 1
        self._current = trace
        self._task_messages = 0
        self._task_dropped = 0
        self._events.append(
            {
                "ev": "task",
                "t": t,
                "trace": trace,
                "tag": tag,
                "kind": kind,
                "size": size,
                "data_node": data_node,
            }
        )
        return trace

    def end_task(self, t: float) -> None:
        if self._current is None:
            return
        self._events.append(
            {
                "ev": "task_end",
                "t": t,
                "trace": self._current,
                "messages": self._task_messages,
                "dropped": self._task_dropped,
            }
        )
        self._current = None

    def note_bus_message(self, t, host, payload, rtt) -> None:
        if self._current is not None:
            self._task_messages += 1

    def note_bus_drop(self, t, host, payload, reason) -> None:
        if self._current is not None:
            self._task_dropped += 1

    # ------------------------------------------------------------------
    # Placement decisions
    # ------------------------------------------------------------------
    def on_decision(self, t: float, decision, data_node, candidates) -> None:
        self._events.append(
            {
                "ev": "decision",
                "t": t,
                "trace": self._current,
                "chosen": decision.host,
                "predicted": decision.predicted_time,
                "fallback": decision.used_fallback,
                "stale": decision.used_stale_fallback,
            }
        )

    # ------------------------------------------------------------------
    # Flow lifecycle (fabric hooks)
    # ------------------------------------------------------------------
    def on_flow_submit(self, t: float, flow, optimal: float) -> None:
        self._events.append(
            {
                "ev": "flow",
                "t": t,
                "trace": self._current,
                "flow": flow.flow_id,
                "src": flow.src,
                "dst": flow.dst,
                "size": flow.size,
                "path": list(flow.path),
                "optimal": optimal,
            }
        )

    def on_rate(self, t: float, flow_id: int, rate: float) -> None:
        self._events.append(
            {"ev": "rate", "t": t, "flow": flow_id, "rate": rate}
        )

    def on_reroute(self, t: float, flow) -> None:
        self._events.append(
            {
                "ev": "reroute",
                "t": t,
                "flow": flow.flow_id,
                "path": list(flow.path),
            }
        )

    def on_abort(self, t: float, flow) -> None:
        self._events.append(
            {
                "ev": "abort",
                "t": t,
                "flow": flow.flow_id,
                "remaining": flow.remaining,
            }
        )

    def on_flow_done(self, t: float, record) -> None:
        self._events.append(
            {
                "ev": "done",
                "t": t,
                "flow": record.flow_id,
                "fct": record.fct,
                "optimal": record.optimal_fct,
            }
        )

    def on_capacity(
        self, t: float, link: str, capacity: float, factor=None, victims=0
    ) -> None:
        self._events.append(
            {"ev": "cap", "t": t, "link": link, "capacity": capacity}
        )

    # ------------------------------------------------------------------
    # Coflows
    # ------------------------------------------------------------------
    def on_coflow(self, t: float, coflow) -> None:
        self._events.append(
            {
                "ev": "coflow",
                "t": t,
                "trace": self._current,
                "coflow": coflow.coflow_id,
                "tag": coflow.tag,
                "flows": [flow.flow_id for flow in coflow.flows],
                "total": coflow.total_size,
            }
        )

    def on_coflow_done(self, t: float, record) -> None:
        self._events.append(
            {
                "ev": "coflow_done",
                "t": t,
                "coflow": record.coflow_id,
                "cct": record.cct,
                "optimal": record.optimal_cct,
            }
        )

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def on_fault(self, t: float, payload: Dict[str, object]) -> None:
        record: Dict[str, object] = {"ev": "fault", "t": t}
        record.update(payload)
        self._events.append(record)

    def on_window(self, t: float, payload: Dict[str, object]) -> None:
        record: Dict[str, object] = {"ev": "window", "t": t}
        record.update(payload)
        if self._open:
            self._events.append(record)
        else:
            self._pending.append(record)

    # ------------------------------------------------------------------
    # Engine stats
    # ------------------------------------------------------------------
    def on_engine_stats(
        self, t: float, events_processed: int, heap_high_water: int,
        pending: int = 0, new_events: int = 0,
    ) -> None:
        self._events.append(
            {
                "ev": "engine",
                "t": t,
                "run": self._run,
                "events_processed": events_processed,
                "heap_high_water": heap_high_water,
            }
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> int:
        """Write the stream as JSONL; returns the number of lines."""
        with open(path, "w", encoding="utf-8") as fp:
            for event in self._events:
                fp.write(json.dumps(_json_safe(event), separators=(",", ":")))
                fp.write("\n")
        return len(self._events)


def load_causal(path: str) -> List[Dict[str, object]]:
    """Read a saved causal stream (tolerates a truncated final line)."""
    return read_trace(path)


# ======================================================================
# Decomposition engine
# ======================================================================
@dataclass
class FlowBlame:
    """One completed flow's FCT split into additive blame components.

    ``serialization + queueing + contention + fault == fct`` within
    float tolerance (the decomposition invariant).
    """

    run: int
    placement: str
    network_policy: str
    flow: int
    trace: Optional[int]
    tag: str
    src: str
    dst: str
    size: float
    arrival: float
    completion: float
    fct: float
    optimal: float
    serialization: float
    queueing: float
    contention: float
    fault: float
    bottleneck_link: Optional[str] = None
    contenders: Tuple[Tuple[str, float], ...] = ()
    rate_changes: int = 0
    reroutes: int = 0
    stale_fallback: bool = False
    control_messages: int = 0

    @property
    def components(self) -> Dict[str, float]:
        return {
            "serialization": self.serialization,
            "queueing": self.queueing,
            "contention": self.contention,
            "fault": self.fault,
        }

    @property
    def residual(self) -> float:
        """``sum(components) - fct`` — float dust when the invariant holds."""
        return (
            self.serialization + self.queueing + self.contention + self.fault
        ) - self.fct


@dataclass
class CoflowBlame:
    """A coflow's CCT explained through its critical-path flow."""

    run: int
    placement: str
    network_policy: str
    coflow: int
    trace: Optional[int]
    tag: str
    arrival: float
    completion: float
    cct: float
    optimal: float
    critical_flow: int
    skew: float
    serialization: float
    queueing: float
    contention: float
    fault: float
    bottleneck_link: Optional[str] = None
    contenders: Tuple[Tuple[str, float], ...] = ()
    width: int = 0

    @property
    def components(self) -> Dict[str, float]:
        return {
            "skew": self.skew,
            "serialization": self.serialization,
            "queueing": self.queueing,
            "contention": self.contention,
            "fault": self.fault,
        }

    @property
    def residual(self) -> float:
        return (
            self.skew
            + self.serialization
            + self.queueing
            + self.contention
            + self.fault
        ) - self.cct


@dataclass
class RunAnalysis:
    """Everything :func:`analyze` derives from one run's causal stream."""

    run: int
    placement: str
    network_policy: str
    flows: Dict[int, FlowBlame] = field(default_factory=dict)
    coflows: Dict[int, CoflowBlame] = field(default_factory=dict)
    aborted: List[Dict[str, object]] = field(default_factory=list)
    faults: List[Dict[str, object]] = field(default_factory=list)
    windows: List[Dict[str, object]] = field(default_factory=list)
    tasks: Dict[int, Dict[str, object]] = field(default_factory=dict)


def _value_at(steps: List[Tuple[float, float]], t: float) -> float:
    """Step-function value in effect at time ``t``."""
    idx = bisect_right(steps, (t, float("inf"))) - 1
    if idx < 0:
        idx = 0
    return steps[idx][1]


def _min_over(steps: List[Tuple[float, float]], t0: float, t1: float) -> float:
    """Minimum step-function value over ``[t0, t1)``."""
    idx = bisect_right(steps, (t0, float("inf"))) - 1
    if idx < 0:
        idx = 0
    low = steps[idx][1]
    j = idx + 1
    while j < len(steps) and steps[j][0] < t1:
        if steps[j][1] < low:
            low = steps[j][1]
        j += 1
    return low


def _change_times(
    steps: List[Tuple[float, float]], t0: float, t1: float
) -> List[float]:
    """Step change times strictly inside ``(t0, t1)``."""
    idx = bisect_right(steps, (t0, float("inf")))
    out: List[float] = []
    while idx < len(steps) and steps[idx][0] < t1:
        out.append(steps[idx][0])
        idx += 1
    return out


class _FlowState:
    """Raw per-flow evidence accumulated while scanning one run."""

    __slots__ = (
        "flow", "trace", "tag", "src", "dst", "size", "arrival", "optimal",
        "path", "rate_steps", "path_steps", "done", "abort", "rate_changes",
        "reroutes",
    )

    def __init__(self, event: Dict[str, object]) -> None:
        self.flow = event["flow"]
        self.trace = event.get("trace")
        self.tag = ""
        self.src = event["src"]
        self.dst = event["dst"]
        self.size = event["size"]
        self.arrival = event["t"]
        self.optimal = event["optimal"]
        self.path: Tuple[str, ...] = tuple(event["path"])
        self.rate_steps: List[Tuple[float, float]] = [(self.arrival, 0.0)]
        self.path_steps: List[Tuple[float, Tuple[str, ...]]] = [
            (self.arrival, self.path)
        ]
        self.done: Optional[Dict[str, object]] = None
        self.abort: Optional[Dict[str, object]] = None
        self.rate_changes = 0
        self.reroutes: List[Dict[str, object]] = []

    @property
    def end(self) -> Optional[float]:
        if self.done is not None:
            return self.done["t"]
        if self.abort is not None:
            return self.abort["t"]
        return None

    def rate_at(self, t: float) -> float:
        return _value_at(self.rate_steps, t)

    def path_at(self, t: float) -> Tuple[str, ...]:
        idx = bisect_right(self.path_steps, (t, ("￿",))) - 1
        if idx < 0:
            idx = 0
        return self.path_steps[idx][1]

    def alive_at(self, t: float) -> bool:
        end = self.end
        return self.arrival <= t and (end is None or t < end)


def _push_step(steps: List[Tuple[float, object]], t: float, value) -> None:
    """Append a breakpoint, replacing a same-time predecessor."""
    if steps and steps[-1][0] == t:
        steps[-1] = (t, value)
    else:
        steps.append((t, value))


def flow_label(tag: str, flow_id: int) -> str:
    """How reports and the Perfetto export name one flow."""
    return f"{tag}#{flow_id}" if tag else f"flow#{flow_id}"


def _decompose_flow(
    state: _FlowState,
    cap_steps: Dict[str, List[Tuple[float, float]]],
    members: Dict[str, List[_FlowState]],
    run: int,
    placement: str,
    network_policy: str,
) -> FlowBlame:
    done = state.done
    fct = done["fct"]
    optimal = done["optimal"]
    completion = done["t"]
    r_opt = state.size / optimal if optimal > 0 else 0.0

    serialization = 0.0
    contention = 0.0
    fault = 0.0
    link_blame: Dict[str, float] = {}
    contender_seconds: Dict[str, float] = {}

    # Segment boundaries: every rate change, every reroute, and — within
    # a segment — every capacity change on the current path, so that
    # ``r_fault`` is exact per constant-capacity piece.
    boundaries = sorted(
        {t for t, _ in state.rate_steps}
        | {t for t, _ in state.path_steps}
        | {state.arrival, completion}
    )
    boundaries = [t for t in boundaries if state.arrival <= t <= completion]

    for t0, t1 in zip(boundaries, boundaries[1:]):
        if t1 <= t0:
            continue
        path = state.path_at(t0)
        # Serialization baseline: the pristine (run-start) bottleneck along
        # the current path.  The engine's ``optimal`` is frozen at submit and
        # bakes in any capacity fault active at that instant, which would
        # charge the fault's slowdown to serialization; measuring against the
        # pristine capacities keeps fault positive for flows submitted
        # mid-fault and zero once the link is restored.
        r_base = min(
            (cap_steps[link][0][1] for link in path if link in cap_steps),
            default=0.0,
        )
        if r_base <= 0.0:
            r_base = r_opt
        cuts = {t0, t1}
        for link in path:
            steps = cap_steps.get(link)
            if steps:
                cuts.update(_change_times(steps, t0, t1))
        pieces = sorted(cuts)
        rate = state.rate_at(t0)
        for p0, p1 in zip(pieces, pieces[1:]):
            dt = p1 - p0
            if dt <= 0:
                continue
            bits = rate * dt
            if bits <= 0.0 or r_base <= 0.0:
                # Preempted (zero-rate) pieces are pure contention; local
                # flows (optimal == 0) never reach here (fct == 0).
                contention += dt
                seg_contention = dt
                seg_fault = 0.0
            else:
                r_fault = min(
                    (
                        _min_over(cap_steps[link], p0, p1)
                        for link in path
                        if link in cap_steps
                    ),
                    default=r_base,
                )
                ser = bits / r_base
                if r_fault > 0.0:
                    at_fault_rate = bits / r_fault
                    seg_fault = at_fault_rate - ser
                    seg_contention = dt - at_fault_rate
                else:  # pragma: no cover - flows never cross dead links
                    seg_fault = 0.0
                    seg_contention = dt - ser
                serialization += ser
                fault += seg_fault
                contention += seg_contention
            if seg_contention > 1e-12:
                _attribute_contention(
                    state,
                    path,
                    p0,
                    seg_contention,
                    cap_steps,
                    members,
                    link_blame,
                    contender_seconds,
                )

    bottleneck = None
    if link_blame:
        bottleneck = max(link_blame.items(), key=lambda kv: (kv[1], kv[0]))[0]
    contenders = tuple(
        sorted(
            contender_seconds.items(), key=lambda kv: (-kv[1], kv[0])
        )[:5]
    )
    return FlowBlame(
        run=run,
        placement=placement,
        network_policy=network_policy,
        flow=state.flow,
        trace=state.trace,
        tag=state.tag,
        src=state.src,
        dst=state.dst,
        size=state.size,
        arrival=state.arrival,
        completion=completion,
        fct=fct,
        optimal=optimal,
        serialization=serialization,
        queueing=0.0,
        contention=contention,
        fault=fault,
        bottleneck_link=bottleneck,
        contenders=contenders,
        rate_changes=state.rate_changes,
        reroutes=len(state.reroutes),
    )


def _attribute_contention(
    state: _FlowState,
    path: Tuple[str, ...],
    t: float,
    seconds: float,
    cap_steps: Dict[str, List[Tuple[float, float]]],
    members: Dict[str, List[_FlowState]],
    link_blame: Dict[str, float],
    contender_seconds: Dict[str, float],
) -> None:
    """Charge a contended piece to the busiest path link's co-tenants."""
    best_link: Optional[str] = None
    best_util = -1.0
    best_others: List[Tuple[str, float]] = []
    for link in sorted(path):
        cap = _value_at(cap_steps[link], t) if link in cap_steps else 0.0
        others: List[Tuple[str, float]] = []
        used = 0.0
        for other in members.get(link, ()):  # includes ``state`` itself
            if not other.alive_at(t) or link not in other.path_at(t):
                continue
            rate = other.rate_at(t)
            used += rate
            if other.flow != state.flow and rate > 0.0:
                others.append((flow_label(other.tag, other.flow), rate))
        util = used / cap if cap > 0 else float("inf")
        if util > best_util:
            best_util = util
            best_link = link
            best_others = others
    if best_link is None:  # pragma: no cover - paths are never empty here
        return
    link_blame[best_link] = link_blame.get(best_link, 0.0) + seconds
    total = sum(rate for _, rate in best_others)
    if total > 0.0:
        for label, rate in best_others:
            contender_seconds[label] = (
                contender_seconds.get(label, 0.0) + seconds * rate / total
            )
    else:
        # Nobody else held the link: the scheduling policy itself paused
        # or throttled the flow (e.g. FCFS ordering, MADD pacing).
        contender_seconds["<policy>"] = (
            contender_seconds.get("<policy>", 0.0) + seconds
        )


class RunScan:
    """One run's slice of a causal stream, sorted into evidence.

    The one scanner of the stream: :func:`analyze` decomposes blame from
    it and :func:`repro.telemetry.perfetto.to_perfetto` renders it.
    """

    def __init__(self, head: Dict[str, object]) -> None:
        self.run = head.get("run", 0)
        self.placement = head.get("placement", "")
        self.network_policy = head.get("network_policy", "")
        self.start = head["t"]
        #: ``run_end`` time (None: the stream stops mid-run) and the
        #: latest time any event of the run carried.
        self.end: Optional[float] = None
        self.last_t = self.start
        #: Every ``(t, link, capacity)`` record in stream order, the
        #: pristine run-start capacities first.
        self.caps: List[Tuple[float, str, float]] = [
            (self.start, link, cap)
            for link, cap in head.get("capacities", {}).items()
        ]
        self.flows: Dict[int, _FlowState] = {}
        self.tasks: Dict[int, Dict[str, object]] = {}
        self.coflows: Dict[int, Dict[str, object]] = {}
        self.faults: List[Dict[str, object]] = []
        self.windows: List[Dict[str, object]] = []

    def feed(self, event: Dict[str, object]) -> None:
        ev = event["ev"]
        t = event.get("t", self.last_t)
        if t > self.last_t:
            self.last_t = t
        if ev == "flow":
            self.flows[event["flow"]] = _FlowState(event)
        elif ev in ("rate", "reroute", "done", "abort"):
            state = self.flows.get(event["flow"])
            if state is None:
                return
            if ev == "rate":
                _push_step(state.rate_steps, t, event["rate"])
                state.rate_changes += 1
            elif ev == "reroute":
                _push_step(state.path_steps, t, tuple(event["path"]))
                state.reroutes.append(event)
            elif ev == "done":
                state.done = event
            else:
                state.abort = event
        elif ev == "cap":
            self.caps.append((t, event["link"], event["capacity"]))
        elif ev == "task":
            self.tasks[event["trace"]] = dict(event)
        elif ev == "task_end":
            task = self.tasks.get(event["trace"])
            if task is not None:
                task["messages"] = event.get("messages", 0)
                task["dropped"] = event.get("dropped", 0)
        elif ev == "decision":
            task = self.tasks.get(event.get("trace"))
            if task is not None:
                task["decision"] = dict(event)
        elif ev == "coflow":
            self.coflows[event["coflow"]] = dict(event)
        elif ev == "coflow_done":
            coflow = self.coflows.get(event["coflow"])
            if coflow is not None:
                coflow["done"] = event
        elif ev == "fault":
            self.faults.append(dict(event))
        elif ev == "window":
            self.windows.append(dict(event))
        elif ev == "run_end":
            self.end = t

    def tag_flows(self) -> None:
        """Tag flows from their tasks (flows carry the trace id; tasks
        the tag)."""
        for state in self.flows.values():
            task = self.tasks.get(state.trace)
            if task is not None:
                state.tag = task.get("tag", "")

    def cap_steps(self) -> Dict[str, List[Tuple[float, float]]]:
        """Each link's capacity step function."""
        steps: Dict[str, List[Tuple[float, float]]] = {}
        for t, link, capacity in self.caps:
            _push_step(steps.setdefault(link, []), t, capacity)
        return steps


def scan_runs(events: Sequence[Dict[str, object]]) -> List[RunScan]:
    """Split a causal stream at its ``run_start`` records and scan each
    run (events before the first ``run_start`` belong to no run)."""
    scans: List[RunScan] = []
    for event in events:
        if event.get("ev") == "run_start":
            scans.append(RunScan(event))
        elif scans:
            scans[-1].feed(event)
    for scan in scans:
        scan.tag_flows()
    return scans


def analyze(events: Sequence[Dict[str, object]]) -> List[RunAnalysis]:
    """Rebuild per-run blame decompositions from a causal stream."""
    return [_analyze_run(scan) for scan in scan_runs(events)]


def _analyze_run(scan: RunScan) -> RunAnalysis:
    run = scan.run
    placement = scan.placement
    network_policy = scan.network_policy
    cap_steps = scan.cap_steps()
    states = scan.flows
    tasks = scan.tasks
    coflows = scan.coflows
    analysis = RunAnalysis(
        run=run,
        placement=placement,
        network_policy=network_policy,
        faults=scan.faults,
        windows=scan.windows,
        tasks=tasks,
    )

    members: Dict[str, List[_FlowState]] = {}
    for flow_id in sorted(states):
        state = states[flow_id]
        seen = set()
        for _t, path in state.path_steps:
            for link in path:
                if link not in seen:
                    seen.add(link)
                    members.setdefault(link, []).append(state)

    for flow_id in sorted(states):
        state = states[flow_id]
        if state.done is not None:
            blame = _decompose_flow(
                state, cap_steps, members, run, placement, network_policy
            )
            task = tasks.get(state.trace) if state.trace is not None else None
            if task is not None:
                decision = task.get("decision")
                blame.stale_fallback = bool(
                    decision.get("stale") if decision else False
                )
                blame.control_messages = int(task.get("messages", 0))
            analysis.flows[flow_id] = blame
        elif state.abort is not None:
            analysis.aborted.append(
                {
                    "flow": state.flow,
                    "tag": state.tag,
                    "t": state.abort["t"],
                    "remaining": state.abort["remaining"],
                }
            )

    for coflow_id in sorted(coflows):
        raw = coflows[coflow_id]
        done = raw.get("done")
        if done is None:
            continue
        flow_ids = [f for f in raw.get("flows", []) if f in analysis.flows]
        if not flow_ids:
            continue
        crit_id = max(
            flow_ids, key=lambda f: (analysis.flows[f].completion, f)
        )
        crit = analysis.flows[crit_id]
        arrival = raw["t"]
        analysis.coflows[coflow_id] = CoflowBlame(
            run=run,
            placement=placement,
            network_policy=network_policy,
            coflow=coflow_id,
            trace=raw.get("trace"),
            tag=raw.get("tag", ""),
            arrival=arrival,
            completion=crit.completion,
            cct=done["cct"],
            optimal=done["optimal"],
            critical_flow=crit_id,
            skew=crit.arrival - arrival,
            serialization=crit.serialization,
            queueing=crit.queueing,
            contention=crit.contention,
            fault=crit.fault,
            bottleneck_link=crit.bottleneck_link,
            contenders=crit.contenders,
            width=len(raw.get("flows", [])),
        )
    return analysis


# ======================================================================
# Aggregation and rendering
# ======================================================================
def aggregate_blame(blames: Sequence[FlowBlame]) -> Dict[str, object]:
    """Blame-component *shares* of FCT aggregated across flows.

    Returns ``{component: Aggregate}`` (mean/stdev/p50/p95/p99 of
    ``component / fct`` over completed flows with positive FCT); empty
    components map to ``None``.
    """
    from repro.experiments.repetitions import aggregate

    shares: Dict[str, List[float]] = {c: [] for c in BLAME_COMPONENTS}
    for blame in blames:
        if blame.fct > 0:
            for component in BLAME_COMPONENTS:
                shares[component].append(
                    getattr(blame, component) / blame.fct
                )
    return {
        component: aggregate(values) if values else None
        for component, values in shares.items()
    }


def blame_shares_dict(blames: Sequence[FlowBlame]) -> Dict[str, object]:
    """JSON-safe form of :func:`aggregate_blame` for campaign payloads."""
    out: Dict[str, object] = {}
    for component, agg in aggregate_blame(blames).items():
        out[component] = agg.as_dict() if agg is not None else None
    return out


def _fmt_secs(value: float) -> str:
    return f"{value:.6g}s"


def _share(value: float, total: float) -> str:
    if total <= 0:
        return "-"
    return f"{100.0 * value / total:.1f}%"


def _flow_lines(blame: FlowBlame, rank: int) -> List[str]:
    lines = [
        f"#{rank} task={blame.tag or '<untagged>'} flow={blame.flow} "
        f"trace={blame.trace} run={blame.placement}/{blame.network_policy}",
        f"   {blame.src} -> {blame.dst}  size={blame.size:.6g}b  "
        f"fct={_fmt_secs(blame.fct)}  optimal={_fmt_secs(blame.optimal)}  "
        f"slowdown={blame.fct / blame.optimal:.2f}x"
        if blame.optimal > 0
        else f"   {blame.src} -> {blame.dst}  size={blame.size:.6g}b  "
             f"fct={_fmt_secs(blame.fct)} (local)",
    ]
    parts = "  ".join(
        f"{component}={_fmt_secs(getattr(blame, component))} "
        f"({_share(getattr(blame, component), blame.fct)})"
        for component in BLAME_COMPONENTS
    )
    lines.append(f"   blame: {parts}")
    if blame.bottleneck_link is not None:
        contenders = ", ".join(
            f"{label} ({_fmt_secs(seconds)})"
            for label, seconds in blame.contenders
        )
        lines.append(
            f"   bottleneck={blame.bottleneck_link}"
            + (f"  contenders: {contenders}" if contenders else "")
        )
    flags = []
    if blame.stale_fallback:
        flags.append("stale_fallback")
    if blame.reroutes:
        flags.append(f"reroutes={blame.reroutes}")
    lines.append(
        f"   rate_changes={blame.rate_changes} "
        f"control_messages={blame.control_messages}"
        + ("  " + " ".join(flags) if flags else "")
    )
    return lines


def _coflow_lines(blame: CoflowBlame, rank: int) -> List[str]:
    lines = [
        f"#{rank} coflow={blame.coflow} task={blame.tag or '<untagged>'} "
        f"width={blame.width} run={blame.placement}/{blame.network_policy}",
        f"   cct={_fmt_secs(blame.cct)}  optimal={_fmt_secs(blame.optimal)}  "
        f"critical_flow={blame.critical_flow}",
    ]
    parts = "  ".join(
        f"{name}={_fmt_secs(value)} ({_share(value, blame.cct)})"
        for name, value in blame.components.items()
    )
    lines.append(f"   blame: {parts}")
    if blame.bottleneck_link is not None:
        lines.append(f"   critical-path bottleneck={blame.bottleneck_link}")
    return lines


def render_explain(
    analyses: Sequence[RunAnalysis],
    *,
    task: Optional[str] = None,
    worst: Optional[int] = None,
    pct: Optional[float] = None,
) -> str:
    """Render the blame report the ``repro explain`` CLI prints."""
    flows = [b for a in analyses for b in a.flows.values()]
    coflows = [b for a in analyses for b in a.coflows.values()]
    aborted = [entry for a in analyses for entry in a.aborted]
    faults = [f for a in analyses for f in a.faults]

    if task is not None:
        flows = [b for b in flows if b.tag == task]
        coflows = [b for b in coflows if b.tag == task]
    if pct is not None and flows:
        threshold = percentile([b.fct for b in flows], pct)
        flows = [b for b in flows if b.fct >= threshold]
    flows.sort(key=lambda b: (-b.fct, b.run, b.flow))
    coflows.sort(key=lambda b: (-b.cct, b.run, b.coflow))
    if worst is None and task is None and pct is None:
        worst = 5
    if worst is not None:
        flows = flows[:worst]
        coflows = coflows[:worst]

    lines = ["causal blame report", "==================="]
    runs = ", ".join(
        f"{a.placement}/{a.network_policy}"
        f" ({len(a.flows)} flows, {len(a.coflows)} coflows)"
        for a in analyses
    )
    lines.append(f"runs: {runs}")
    if faults:
        lines.append(
            "faults applied: "
            + ", ".join(
                f"{f.get('kind')}@t={f.get('time', f.get('t'))}"
                for f in faults
            )
        )
    all_flows = [b for a in analyses for b in a.flows.values()]
    shares = aggregate_blame(all_flows)
    share_parts = []
    for component in BLAME_COMPONENTS:
        agg = shares.get(component)
        if agg is not None:
            share_parts.append(
                f"{component} p50={agg.p50:.3f} p95={agg.p95:.3f} "
                f"p99={agg.p99:.3f}"
            )
    if share_parts:
        lines.append("component shares: " + "; ".join(share_parts))

    if flows:
        lines += ["", "slowest flows"]
        for rank, blame in enumerate(flows, 1):
            lines += _flow_lines(blame, rank)
    if coflows:
        lines += ["", "slowest coflows (critical path)"]
        for rank, blame in enumerate(coflows, 1):
            lines += _coflow_lines(blame, rank)
    if aborted:
        lines += ["", f"aborted flows: {len(aborted)}"]
        for entry in aborted[:10]:
            lines.append(
                f"   flow={entry['flow']} tag={entry['tag']} "
                f"t={entry['t']:.6g} remaining={entry['remaining']:.6g}b"
            )
    if not flows and not coflows:
        lines += ["", "no completed flows matched the filter"]
    return "\n".join(lines)
