"""Zero-dependency metrics registry: counters, gauges, histograms.

The registry is the quantitative half of the telemetry layer
(:mod:`repro.telemetry`): subsystems record *how much* happened (flows
completed, rate recomputes, control messages), while the trace sink
(:mod:`repro.telemetry.trace`) records *what* happened event by event.

Every value is derived from simulated time (FCTs, CCTs, counts) and is
safe to assert on in tests, with one exception:
``service.decision_latency_seconds``, the serving loop's wall-clock
latency per decision, which the SLO engine reads.  Wall time per
subsystem is the span profiler's (:mod:`repro.telemetry.profiler`).

Metrics off is ``Telemetry.registry is None``: there is no disabled
registry.  Neither the simulation core nor the placement service touches
a registry: :class:`MetricsProbe` subscribes one to the probe
(:mod:`repro.telemetry.probe`) and owns every metric name their events
feed.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.telemetry.timeseries import QuantileSketch

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsProbe",
    "merge_snapshots",
]


class Counter:
    """Monotonically increasing count (e.g. ``fabric.flows_completed``)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Last-written value (e.g. ``engine.heap_high_water``)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        """Keep the maximum over all writes (high-water marks)."""
        if value > self.value:
            self.value = value


class Histogram(QuantileSketch):
    """Distribution of observed values: a named
    :class:`~repro.telemetry.timeseries.QuantileSketch`.

    The sketch carries the exact ``count``/``sum``/``min``/``max`` and a
    fixed-memory log-bucketed tail (relative quantile error bounded by
    its ``alpha``, default 1%), so a histogram costs the same after a
    million observations as after a hundred, merges exactly across
    workers, and feeds windowed rollups via sketch deltas.
    """

    __slots__ = ("name",)

    def __init__(self, name: str = "", **sketch) -> None:
        super().__init__(**sketch)  # ``from_dict`` passes alpha / max_buckets
        self.name = name

    observe = QuantileSketch.add

    def summary(self) -> Dict[str, object]:
        out: Dict[str, object] = super().summary()
        if self.count:
            out["sketch"] = self.to_dict()
        return out


class MetricsRegistry:
    """Namespace of metrics, created on first use, JSON-exportable."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Accessors (get-or-create; names are dotted, e.g. "bus.messages")
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name)
        return metric

    # ------------------------------------------------------------------
    # Read-only iteration (windowed-rollup sampling)
    # ------------------------------------------------------------------
    def counters_by_name(self) -> Dict[str, Counter]:
        """Live counter objects by name (treat as read-only)."""
        return self._counters

    def gauges_by_name(self) -> Dict[str, Gauge]:
        return self._gauges

    def histograms_by_name(self) -> Dict[str, Histogram]:
        return self._histograms

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """JSON-safe snapshot of every metric."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.summary()
                for name, h in sorted(self._histograms.items())
            },
        }

    def write_json(
        self, path: str, *, extra: Optional[Dict[str, object]] = None
    ) -> None:
        """Write the snapshot (plus optional ``extra`` keys) to ``path``."""
        payload = dict(self.as_dict())
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(payload, fp, indent=2, sort_keys=True, default=str)
            fp.write("\n")


#: Metrics a component owns from the moment it is built, so a snapshot
#: shows them at zero (not absent) when nothing happened:
#: component -> (registry accessor, metric names).
_COMPONENT_METRICS = {
    "fabric": (
        ("counter", (
            "fabric.flows_submitted", "fabric.flows_completed",
            "fabric.flows_aborted", "fabric.flows_rerouted",
            "fabric.recompute.full", "fabric.recompute.scoped",
        )),
        ("histogram", (
            "fabric.recompute.component_flows", "fabric.fct_seconds",
            "fabric.fct_gap",
        )),
    ),
    "bus": (
        ("counter", ("bus.messages_sent", "bus.calls", "bus.messages_dropped")),
    ),
    "placement_daemon": (
        ("counter", ("placement.stale_fallbacks", "placement.query_failures")),
    ),
    "coflow_tracker": (
        ("counter", ("coflow.coflows_submitted", "coflow.coflows_completed")),
        ("histogram", ("coflow.cct_seconds",)),
    ),
    "faults": (
        ("counter", (
            "faults.injected", "faults.applied", "faults.tasks_dropped",
        )),
    ),
    "admission": (
        ("counter", ("service.tasks_offered", "service.tasks_rejected")),
        ("gauge", ("service.queue_depth",)),
    ),
    "service": (
        ("counter", ("service.batches", "service.decisions")),
        ("histogram", (
            "service.queue_wait_seconds", "service.batch_size",
            "service.decision_latency_seconds",
        )),
    ),
}


class MetricsProbe:
    """Probe channel feeding a :class:`MetricsRegistry`.

    Every counter/gauge/histogram name the simulation core and the
    placement service produce is spelled here and nowhere else.  It
    subscribes to no timed section: those are the span profiler's.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._counters = registry.counters_by_name()
        self._gauges = registry.gauges_by_name()
        self._histograms = registry.histograms_by_name()

    def on_attach(self, component: str) -> None:
        for accessor, names in _COMPONENT_METRICS.get(component, ()):
            for name in names:
                getattr(self._registry, accessor)(name)

    def on_engine_stats(
        self, t, events_processed, heap_high_water, pending, new_events
    ) -> None:
        self._registry.counter("engine.events_processed").inc(new_events)
        self._registry.gauge("engine.heap_high_water").set_max(heap_high_water)

    def on_flow_submit(self, t, flow, optimal) -> None:
        self._counters["fabric.flows_submitted"].value += 1

    def on_reroute(self, t, flow) -> None:
        self._counters["fabric.flows_rerouted"].value += 1

    def on_abort(self, t, flow) -> None:
        self._counters["fabric.flows_aborted"].value += 1

    def on_flow_done(self, t, record) -> None:
        self._counters["fabric.flows_completed"].value += 1
        self._histograms["fabric.fct_seconds"].observe(record.fct)
        if record.optimal_fct > 0:
            # FCT stretch vs the contention-free optimum: the paper's
            # headline ratio, live as a histogram so SLOs can bound its
            # tail.
            self._histograms["fabric.fct_gap"].observe(
                record.fct / record.optimal_fct
            )

    def on_recompute(
        self, t, active, component_flows, component_links, scoped
    ) -> None:
        self._counters[
            "fabric.recompute.scoped" if scoped else "fabric.recompute.full"
        ].value += 1
        self._histograms["fabric.recompute.component_flows"].observe(
            component_flows
        )

    def note_bus_message(self, t, host, payload, rtt) -> None:
        self._counters["bus.messages_sent"].value += 2  # request + reply
        self._counters["bus.calls"].value += 1

    def note_bus_drop(self, t, host, payload, reason) -> None:
        self._counters["bus.messages_sent"].value += 1  # it went out regardless
        self._counters["bus.messages_dropped"].value += 1

    def on_bus_push(self, t, host, payload, delay) -> None:
        self._counters["bus.messages_sent"].value += 1

    def on_query_failure(self) -> None:
        self._counters["placement.query_failures"].value += 1

    def on_decision(self, t, decision, data_node, candidates) -> None:
        if decision.used_stale_fallback:
            self._counters["placement.stale_fallbacks"].value += 1

    def on_coflow(self, t, coflow) -> None:
        self._counters["coflow.coflows_submitted"].value += 1

    def on_coflow_done(self, t, record) -> None:
        self._counters["coflow.coflows_completed"].value += 1
        self._histograms["coflow.cct_seconds"].observe(record.cct)

    def on_fault_plan(self, events: int) -> None:
        self._counters["faults.injected"].value += events

    def on_fault(self, t, payload) -> None:
        self._counters["faults.applied"].value += 1

    def on_task_dropped(self, t, tag) -> None:
        self._counters["faults.tasks_dropped"].value += 1

    def on_offer(self) -> None:
        self._counters["service.tasks_offered"].value += 1

    def on_reject(self) -> None:
        self._counters["service.tasks_rejected"].value += 1

    def on_enqueue(self, depth: int) -> None:
        # High-water mark; the depth after a drain rides the heartbeat
        # stream instead.
        self._gauges["service.queue_depth"].set_max(depth)

    def on_batch(self, t, size, queue_waits, placed, wall_per_request) -> None:
        self._counters["service.batches"].value += 1
        self._counters["service.decisions"].value += placed
        self._histograms["service.batch_size"].observe(float(size))
        observe_wait = self._histograms["service.queue_wait_seconds"].observe
        for wait in queue_waits:
            observe_wait(wait)
        # The registry's one wall-clock value, observation-only: never
        # feeds back into the simulated trajectory.
        self._histograms["service.decision_latency_seconds"].observe(
            wall_per_request, placed
        )


class SnapshotAccumulator:
    """Fixed-memory incremental fold of registry snapshots.

    The streaming campaign executor feeds one cell's
    :meth:`MetricsRegistry.as_dict` snapshot at a time through
    :meth:`add` and never retains the snapshot afterwards — the
    accumulator's state is bounded by the number of *distinct metric
    names*, not the number of cells.  :func:`merge_snapshots` is a thin
    wrapper over this class, so "fold one at a time" and "merge the
    whole batch" are literally the same arithmetic in the same order —
    the foundation of the streaming/batch byte-identity guarantee.

    Merge semantics (unchanged from the original ``merge_snapshots``):
    counters sum, gauges keep the maximum (high-water), histograms
    combine count/mean/min/max exactly and merge their quantile sketches
    when every input carried one.  Any other section (a ``timers`` one
    in snapshots written before 1.8, say) is ignored.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Dict[str, object]] = {}
        self._kind_of: Dict[str, str] = {}
        self._snapshots = 0

    @property
    def snapshots_folded(self) -> int:
        return self._snapshots

    def _claim(self, name: str, kind: str) -> None:
        previous = self._kind_of.setdefault(name, kind)
        if previous != kind:
            raise ValueError(
                f"cannot merge heterogeneous snapshots: metric {name!r} "
                f"is a {previous} in one snapshot and a {kind} in another"
            )

    def add(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Fold one snapshot into the accumulator (snapshot not retained)."""
        self._snapshots += 1
        for name, value in snapshot.get("counters", {}).items():
            self._claim(name, "counter")
            self._counters[name] = self._counters.get(name, 0.0) + value
        for name, value in snapshot.get("gauges", {}).items():
            self._claim(name, "gauge")
            if name not in self._gauges or value > self._gauges[name]:
                self._gauges[name] = value
        for name, summary in snapshot.get("histograms", {}).items():
            self._claim(name, "histogram")
            count = summary.get("count", 0)
            if not count:
                continue
            into = self._histograms.get(name)
            if into is None:
                into = self._histograms[name] = {
                    "count": count,
                    "total": summary["mean"] * count,
                    "min": summary["min"],
                    "max": summary["max"],
                    "sketch": None,
                    "sketchless": 0,
                }
            else:
                into["count"] += count
                into["total"] += summary["mean"] * count
                into["min"] = min(into["min"], summary["min"])
                into["max"] = max(into["max"], summary["max"])
            if "sketch" in summary:
                incoming = QuantileSketch.from_dict(summary["sketch"])
                if into["sketch"] is None:
                    into["sketch"] = incoming
                else:
                    into["sketch"].merge(incoming)  # type: ignore[union-attr]
            else:
                into["sketchless"] += 1

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """The merged snapshot (same shape as ``merge_snapshots``)."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                name: _merged_histogram(h)
                for name, h in sorted(self._histograms.items())
            },
        }


def merge_snapshots(snapshots) -> Dict[str, Dict[str, object]]:
    """Fold several :meth:`MetricsRegistry.as_dict` snapshots into one.

    The campaign orchestrator runs each cell with its own registry (in
    its own process); this merges the exported snapshots into one
    campaign-level view: counters sum, gauges keep the maximum
    (high-water semantics), and histograms combine
    ``count``/``mean``/``min``/``max`` exactly.
    Summaries that carry a serialized quantile sketch (every snapshot
    written since the sketch-backed registry) additionally merge their
    sketches, so merged histograms keep p50/p95/p99; legacy summaries
    without one merge exact stats only and omit the quantiles.

    Implemented as one :class:`SnapshotAccumulator` pass, so batch
    merging and the campaign executor's streaming fold are the same
    arithmetic in the same order.

    Raises:
        ValueError: when the snapshots are *heterogeneous* — the same
            metric name appears under different kinds (e.g. a counter in
            one run and a histogram in another).  Summing a count into a
            distribution would silently corrupt both, so the conflict is
            an error naming the metric and both kinds.
    """
    accumulator = SnapshotAccumulator()
    for snapshot in snapshots:
        accumulator.add(snapshot)
    return accumulator.as_dict()


def _merged_histogram(h: Dict[str, object]) -> Dict[str, object]:
    out: Dict[str, object] = {
        "count": h["count"],
        "mean": h["total"] / h["count"],  # type: ignore[operator]
        "min": h["min"],
        "max": h["max"],
    }
    # Quantiles are claimed only when *every* input carried a sketch —
    # a partial merge would silently misweight the sketchless runs.
    if h["sketch"] is not None and not h["sketchless"]:
        merged: QuantileSketch = h["sketch"]  # type: ignore[assignment]
        # The sketch's summary supplies the tails; the exact stats stay
        # the ones folded from the inputs' own means, in fold order.
        out = {**merged.summary(), **out, "sketch": merged.to_dict()}
    return out
