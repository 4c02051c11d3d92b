"""End-to-end telemetry: metrics, structured tracing, explainability.

One :class:`Telemetry` object threads through the whole stack (engine,
fabric, bus, daemons, placement policies, experiment runner) and bundles
the observability channels:

* :attr:`Telemetry.registry` — counters / gauges / histograms
  (:mod:`repro.telemetry.registry`);
* :attr:`Telemetry.trace` — a structured JSONL event sink
  (:mod:`repro.telemetry.trace`);
* :attr:`Telemetry.decisions` — the placement-decision log with
  realized-outcome joins (:mod:`repro.telemetry.decisions`);
* :attr:`Telemetry.profiler` — a hierarchical wall-clock span profiler,
  the one source of wall time per subsystem
  (:mod:`repro.telemetry.profiler`);
* :attr:`Telemetry.causal` — request-scoped causal traces with FCT/CCT
  blame decomposition (:mod:`repro.telemetry.causal`).

Off is ``None``, everywhere: a channel that is not armed is a ``None``
attribute (there are no disabled twins and no ``enabled`` flags), and
the armed ones are composed into one :attr:`Telemetry.probe`
(:mod:`repro.telemetry.probe`), the only thing the simulation core and
the placement service report to, itself ``None`` when nothing is armed.
Components take ``telemetry: Optional[Telemetry] = None`` and pay one
``is not None`` branch per probe site when telemetry is off; consumers
of a channel's output test ``tele.registry is not None`` the same way.

Quickstart (the bundle is a context manager; it closes its trace sink
on exit, so nobody hand-closes ``tele.trace``)::

    from repro.telemetry import create_telemetry
    from repro.experiments import MacroConfig, replay_flow_trace

    with create_telemetry(trace_path="/tmp/t.jsonl", profile=True) as tele:
        cfg = MacroConfig(num_arrivals=100)
        topo = cfg.build_topology()
        replay_flow_trace(cfg.build_trace(topo), topo,
                          network_policy="fair", placement="neat",
                          telemetry=tele)
    print(tele.decisions.error_summary())
    print(tele.profiler.as_dict()["labels"])
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.telemetry.decisions import DecisionLog, DecisionRecord
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsProbe,
    MetricsRegistry,
    merge_snapshots,
)
from repro.telemetry.profiler import SpanProfiler, render_profile
from repro.telemetry.causal import CausalTracer
from repro.telemetry.probe import PROBE_POINTS, Probe
from repro.telemetry.trace import (
    JsonlTraceSink,
    RotatingJsonlTraceSink,
    TraceProbe,
    TraceSink,
    read_rotated_trace,
    read_trace,
)
from repro.telemetry.timeseries import (
    QuantileSketch,
    TimeseriesStore,
    merge_sketches,
)
from repro.telemetry.slo import (
    SLOAlert,
    SLOEngine,
    SLOSpec,
    default_slo_specs,
    load_slo_specs,
)
from repro.telemetry.recorder import FlightRecorder

__all__ = [
    "Telemetry",
    "create_telemetry",
    "Probe",
    "PROBE_POINTS",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "TraceSink",
    "JsonlTraceSink",
    "RotatingJsonlTraceSink",
    "read_trace",
    "read_rotated_trace",
    "CausalTracer",
    "DecisionLog",
    "DecisionRecord",
    "SpanProfiler",
    "render_profile",
    "merge_snapshots",
    "render_report",
    "QuantileSketch",
    "TimeseriesStore",
    "merge_sketches",
    "SLOSpec",
    "SLOAlert",
    "SLOEngine",
    "load_slo_specs",
    "default_slo_specs",
    "FlightRecorder",
]


class _TimelineChannel:
    """Probe channel attaching a fabric timeline sampler to every run."""

    def __init__(self, interval: float, timelines: list) -> None:
        self._interval = interval
        self._timelines = timelines
        self._label = ""
        self._sampler = None

    def begin_run(
        self, t, placement, network_policy, fabric, tracker=None
    ) -> None:
        from repro.metrics.timeline import TimelineSampler

        topo = fabric.topology
        self._label = f"{placement}/{network_policy}"
        self._sampler = TimelineSampler(
            fabric,
            interval=self._interval,
            watch_links=[topo.host_downlink(h).link_id for h in topo.hosts],
        )

    def end_run(self, t, *_totals) -> None:
        self._timelines.append((self._label, self._sampler.samples))
        self._sampler = None  # it holds the fabric, which holds the probe


class Telemetry:
    """Bundle of the telemetry channels plus timeline config.

    Attributes:
        registry: metrics registry (``None``: metrics off).
        trace: structured event sink (``None``: no trace).
        decisions: placement-decision log (``None``: off).
        profiler: hierarchical wall-clock span profiler (``None``: off).
        causal: request-scoped causal tracer (``None``: off).
        timeline_interval: when set, every replayed fabric gets a
            :class:`~repro.metrics.timeline.TimelineSampler` at this
            sampling interval (seconds of sim time) and ``(label,
            samples)`` is appended to :attr:`timelines`.
        timelines: collected ``(label, samples)`` pairs, one per run.
        probe: the armed channels composed into one
            :class:`~repro.telemetry.probe.Probe`; ``None`` when nothing
            is armed.
    """

    __slots__ = (
        "registry",
        "trace",
        "decisions",
        "profiler",
        "causal",
        "timeline_interval",
        "timelines",
        "probe",
    )

    def __init__(
        self,
        *,
        registry: Optional[MetricsRegistry] = None,
        trace: Optional[TraceSink] = None,
        decisions: Optional[DecisionLog] = None,
        profiler: Optional[SpanProfiler] = None,
        causal: Optional[CausalTracer] = None,
        timeline_interval: Optional[float] = None,
    ) -> None:
        self.registry = registry
        self.trace = trace
        self.decisions = decisions
        self.profiler = profiler
        self.causal = causal
        self.timeline_interval = timeline_interval
        self.timelines: List[Tuple[str, Sequence]] = []
        # Fan-out order of the plain events (the trace before the decision
        # log's joins); the timed sections are the profiler's alone.
        channels = [
            profiler,
            MetricsProbe(registry) if registry is not None else None,
            TraceProbe(trace) if trace is not None else None,
            decisions,
            causal,
            _TimelineChannel(timeline_interval, self.timelines)
            if timeline_interval is not None
            else None,
        ]
        channels = [channel for channel in channels if channel is not None]
        self.probe: Optional[Probe] = Probe(channels) if channels else None

    def attach(self, component: str) -> Optional[Probe]:
        """The probe a newly built ``component`` reports to (``None``:
        telemetry is off), after telling the channels it exists."""
        probe = self.probe
        if probe is not None:
            probe.on_attach(component)
        return probe

    def close(self) -> None:
        """Flush/close the trace sink (safe to call repeatedly)."""
        if self.trace is not None:
            self.trace.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def create_telemetry(
    *,
    trace_path: Optional[str] = None,
    metrics: bool = True,
    decisions: bool = True,
    profile: bool = False,
    causal: bool = False,
    timeline_interval: Optional[float] = None,
    wall_clock: bool = False,
    trace_rotate_bytes: Optional[int] = None,
    trace_backups: int = 4,
) -> Telemetry:
    """Convenience factory for a fully armed :class:`Telemetry`.

    Args:
        trace_path: write a JSONL trace here (omit for no trace file);
            a ``.gz`` suffix writes a deterministic gzip stream.
        metrics: collect counters/gauges/histograms.
        decisions: collect the placement-decision log.
        profile: attach a :class:`SpanProfiler` (hierarchical wall-clock
            spans; never perturbs simulation results).
        causal: attach a :class:`CausalTracer` recording the request-
            scoped causal stream (purely observational; changes no
            simulation records).
        timeline_interval: attach fabric timeline samplers at this
            interval (seconds of simulation time).
        wall_clock: stamp trace records with wall time (breaks
            byte-identical determinism; ``wall*`` fields only).
        trace_rotate_bytes: rotate the trace every this-many
            uncompressed bytes (``path.1`` … ``path.N`` backups; read
            the set back with :func:`read_rotated_trace`); None writes
            one unbounded file.
        trace_backups: rotated segments kept beyond the active one.
    """
    sink: Optional[TraceSink] = None
    if trace_path is not None:
        if trace_rotate_bytes is not None:
            sink = RotatingJsonlTraceSink(
                trace_path,
                max_bytes=trace_rotate_bytes,
                backups=trace_backups,
                wall_clock=wall_clock,
            )
        else:
            sink = JsonlTraceSink(trace_path, wall_clock=wall_clock)
    return Telemetry(
        registry=MetricsRegistry() if metrics else None,
        trace=sink,
        decisions=DecisionLog(trace=sink) if decisions else None,
        profiler=SpanProfiler() if profile else None,
        causal=CausalTracer() if causal else None,
        timeline_interval=timeline_interval,
    )


from repro.telemetry.report import render_report  # noqa: E402  (cycle-free tail import)
