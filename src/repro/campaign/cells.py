"""Cell execution: what a campaign worker runs for one :class:`RunSpec`.

Cells must be *pure*: everything they need rides in the
:class:`~repro.campaign.spec.RunSpec`, and their payload must be
JSON-safe and deterministic (no wall-clock values), which is what makes
both the result cache and the byte-identity of a campaign's aggregate
across worker counts sound.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.campaign.spec import RunSpec
from repro.campaign.status import StatusWriter
from repro.errors import ConfigError
from repro.experiments.figures import FIGURES
from repro.metrics.stats import afct, average_gap


def _macro_payload(spec: RunSpec) -> Dict[str, object]:
    """Run one flow/coflow placement-comparison cell."""
    from repro.experiments.runner import compare_policies
    from repro.telemetry import CausalTracer, MetricsRegistry, Telemetry
    from repro.telemetry.causal import analyze, blame_shares_dict
    from repro.telemetry.profiler import current_profiler

    registry = MetricsRegistry()
    # The ambient profiler is None unless a status-emitting campaign
    # worker installed a real one; span data never enters the
    # payload, so caching and byte-identity are unaffected either way.
    # The causal tracer rides along so every cell's payload carries the
    # blame decomposition tails; it observes the run without touching
    # simulation state, so records stay byte-identical.
    telemetry = Telemetry(
        registry=registry,
        profiler=current_profiler(),
        causal=CausalTracer(),
    )
    cfg = spec.config
    topology = cfg.build_topology()
    trace = cfg.build_trace(topology)
    results = compare_policies(
        trace,
        topology,
        network_policy=spec.network_policy,
        placements=list(spec.placements),
        coflows=spec.kind == "coflow_macro",
        predictor=spec.predictor,
        seed=cfg.seed,
        max_candidates=cfg.max_candidates,
        faults=spec.faults,
        state_ttl=cfg.state_ttl,
        push_updates=cfg.push_node_state,
        telemetry=telemetry,
    )
    blame = {
        analysis.placement: blame_shares_dict(list(analysis.flows.values()))
        for analysis in analyze(telemetry.causal.events)
    }
    per_placement = {
        name: {
            "average_gap": average_gap(r.records),
            "mean_completion": afct(r.records),
            "num_records": len(r.records),
            "control_messages": r.control_messages,
            "events_processed": r.events_processed,
            "sim_duration": r.sim_duration,
            "flows_aborted": r.flows_aborted,
            "flows_rerouted": r.flows_rerouted,
            "tasks_dropped": r.tasks_dropped,
            "stale_fallbacks": r.stale_fallbacks,
            "blame": blame.get(name),
        }
        for name, r in results.items()
    }
    return {
        "kind": spec.kind,
        "network_policy": spec.network_policy,
        "workload": cfg.workload,
        "load": cfg.load,
        "seed": cfg.seed,
        "faults": spec.faults.canonical() if spec.faults is not None else None,
        "per_placement": per_placement,
        "metrics": registry.as_dict(),
    }


def execute_cell(spec: RunSpec) -> Dict[str, object]:
    """Execute one cell and return its deterministic JSON payload.

    This is the default ``cell_fn`` — a module-level function so worker
    processes can import it by reference.
    """
    if spec.kind in ("flow_macro", "coflow_macro"):
        return _macro_payload(spec)
    return execute_figure(spec)


def execute_figure(spec: RunSpec) -> Dict[str, object]:
    """Run one ``repro all`` cell: its figure-table row at the spec's
    config, and the row's summary line as the payload."""
    figure = FIGURES.get(spec.figure or "")
    if figure is None:
        raise ConfigError(f"unknown figure cell {spec.figure!r}")
    verdict = figure.verdict(
        figure.run(spec.config, network=spec.network_policy)
    )
    return {"figure": spec.figure, "line": f"{figure.id:5s} {verdict}"}


def payload_events(payload) -> Optional[int]:
    """Total simulator events behind a payload, when it exposes them."""
    if not isinstance(payload, dict):
        return None
    per_placement = payload.get("per_placement")
    if isinstance(per_placement, dict):
        total = 0
        found = False
        for entry in per_placement.values():
            events = entry.get("events_processed") if isinstance(entry, dict) \
                else None
            if isinstance(events, (int, float)):
                total += int(events)
                found = True
        return total if found else None
    events = payload.get("events_processed")
    return int(events) if isinstance(events, (int, float)) else None


def run_cell(
    cell_fn: Callable[[RunSpec], Dict[str, object]],
    index: int,
    spec: RunSpec,
    attempt: int,
    status: Optional[StatusWriter] = None,
) -> Dict[str, object]:
    """Run one attempt of one cell, with worker-side status heartbeats.

    With a status writer, the attempt emits a ``running`` record before
    the cell and a ``finished`` record after it — the latter carrying
    ``events_processed`` and the spans snapshot of a per-attempt ambient
    :class:`~repro.telemetry.profiler.SpanProfiler`, which the cell's own
    Telemetry picks up via :func:`current_profiler`.  Profiler data flows
    only into the status stream, never the payload, so cached results
    stay byte-identical with or without status reporting.
    """
    if status is None:
        return cell_fn(spec)
    from repro.telemetry.profiler import SpanProfiler, set_current_profiler

    status.emit(
        "cell",
        cell=index,
        state="running",
        attempt=attempt,
        spec=spec.describe(),
    )
    profiler = SpanProfiler()
    previous = set_current_profiler(profiler)
    try:
        payload = cell_fn(spec)
    finally:
        set_current_profiler(previous)
    status.emit(
        "cell",
        cell=index,
        state="finished",
        attempt=attempt,
        spec=spec.describe(),
        events_processed=payload_events(payload),
        spans=profiler.as_dict() if profiler.paths() else None,
    )
    return payload
