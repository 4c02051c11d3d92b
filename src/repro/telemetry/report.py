"""Human-readable telemetry report.

Renders one text block from a :class:`~repro.telemetry.Telemetry`
bundle: counters, gauges, histogram summaries, the span profile (wall
time per subsystem, with ``--profile``), placement-decision accuracy,
and sampled link utilisation from any attached timeline samplers.  This
is the report the CLI prints after a figure run with ``--trace`` /
``--metrics-out`` / ``--timeline``.
"""

from __future__ import annotations

from typing import List

from repro.metrics.stats import mean
from repro.telemetry.profiler import render_profile

__all__ = [
    "DEGRADED_COUNTERS",
    "SERVICE_COUNTERS",
    "SERVICE_GAUGES",
    "OBSERVABILITY_COUNTERS",
    "render_report",
    "render_snapshot",
    "snapshot_as_dict",
]

#: Degraded-operation counters: the fault-tolerance paths a healthy run
#: never takes.  Reports and the Prometheus exporter always emit these
#: (zero-defaulted), so "no degraded operation" is an explicit signal
#: rather than an absent series dashboards cannot alert on.
DEGRADED_COUNTERS = (
    "fabric.flows_aborted",
    "fabric.flows_rerouted",
    "bus.messages_dropped",
    "placement.stale_fallbacks",
    "faults.tasks_dropped",
)

#: Streaming-service counters (``repro serve``), zero-defaulted the same
#: way: a batch run that never served anything reports explicit zeros,
#: and a service dashboard can alert on rejections from the first scrape.
SERVICE_COUNTERS = (
    "service.tasks_rejected",
    "service.batches",
    "service.decisions",
)

#: Service gauges zero-defaulted alongside (queue depth high-water mark).
SERVICE_GAUGES = ("service.queue_depth",)

#: Live-observability counters (SLO engine + flight recorder),
#: zero-defaulted the same way: "no alert ever fired" and "no
#: post-mortem was ever dumped" are explicit, alertable zeros.
OBSERVABILITY_COUNTERS = (
    "slo.evaluations",
    "slo.alerts_fired",
    "recorder.dumps_written",
)


def _fmt(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def _snapshot_lines(snapshot) -> List[str]:
    """Section lines for a metrics snapshot (counters/gauges/histograms,
    plus the span profile when a ``profile`` key rides along, as in
    ``--metrics-out`` files from ``--profile`` runs)."""
    lines: List[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        lines += ["", "counters"]
        width = max(len(name) for name in counters)
        for name, value in counters.items():
            lines.append(f"  {name:<{width}}  {_fmt(value)}")

    gauges = snapshot.get("gauges", {})
    if gauges:
        lines += ["", "gauges"]
        width = max(len(name) for name in gauges)
        for name, value in gauges.items():
            lines.append(f"  {name:<{width}}  {_fmt(value)}")

    histograms = snapshot.get("histograms", {})
    if histograms:
        lines += ["", "histograms"]
        for name, summary in histograms.items():
            if summary.get("count", 0) == 0:
                lines.append(f"  {name}: empty")
                continue
            quantiles = ""
            if "p50" in summary:
                quantiles = (
                    f" p50={_fmt(summary['p50'])} p95={_fmt(summary['p95'])}"
                )
                if "p99" in summary:
                    quantiles += f" p99={_fmt(summary['p99'])}"
            lines.append(
                f"  {name}: n={summary['count']}"
                f" mean={_fmt(summary['mean'])}"
                f"{quantiles}"
                f" max={_fmt(summary['max'])}"
            )

    profile = snapshot.get("profile")
    if profile and profile.get("flame"):
        lines += _profile_lines(profile)
    return lines


#: The zero-defaulted sections every report carries: ``(title, counters,
#: gauges)``, rendered in this order.
_ZERO_DEFAULTED_SECTIONS = (
    (
        "degraded operation (all zero on a healthy run)",
        DEGRADED_COUNTERS,
        (),
    ),
    (
        "placement service (zero unless `repro serve` ran)",
        SERVICE_COUNTERS,
        SERVICE_GAUGES,
    ),
    (
        "live SLO layer (zero unless --slo/--recorder armed)",
        OBSERVABILITY_COUNTERS,
        (),
    ),
)


def _zero_defaulted_lines(snapshot) -> List[str]:
    """The zero-defaulted sections (omitted only when the snapshot
    carries no counters at all, i.e. metrics were off)."""
    counters = snapshot.get("counters")
    if not counters:
        return []
    gauges = snapshot.get("gauges", {})
    lines: List[str] = []
    for title, counter_names, gauge_names in _ZERO_DEFAULTED_SECTIONS:
        lines += ["", title]
        width = max(len(name) for name in counter_names + gauge_names)
        for name in counter_names:
            lines.append(f"  {name:<{width}}  {_fmt(counters.get(name, 0))}")
        for name in gauge_names:
            lines.append(f"  {name:<{width}}  {_fmt(gauges.get(name, 0))}")
    return lines


def _profile_lines(profile) -> List[str]:
    lines = ["", "span profile (flame view; excl = self time)"]
    for line in render_profile(profile).splitlines():
        lines.append("  " + line)
    return lines


def render_snapshot(snapshot) -> str:
    """Render a saved metrics snapshot (a ``--metrics-out`` JSON or a
    merged campaign snapshot) as the same aligned text report."""
    lines = ["telemetry report", "================"]
    lines += _snapshot_lines(snapshot)
    lines += _zero_defaulted_lines(snapshot)
    decisions = snapshot.get("placement_decisions")
    if decisions and decisions.get("decisions"):
        lines += ["", "placement decisions"]
        lines.append(
            f"  recorded={decisions['decisions']}"
            f" joined={decisions['joined']}"
            f" with_error={decisions['with_error']}"
        )
    return "\n".join(lines)


def snapshot_as_dict(snapshot) -> dict:
    """Normalize a saved metrics snapshot for machine consumption
    (``repro report --json``).

    Core metric sections are always present, degraded-operation counters
    are zero-defaulted and mirrored into a dedicated ``degraded`` block,
    and any extra sections (``placement_decisions``, ``profile``, ...)
    pass through untouched.
    """
    counters = dict(snapshot.get("counters", {}))
    for name in (
        DEGRADED_COUNTERS + SERVICE_COUNTERS + OBSERVABILITY_COUNTERS
    ):
        counters.setdefault(name, 0)
    gauges = dict(snapshot.get("gauges", {}))
    for name in SERVICE_GAUGES:
        gauges.setdefault(name, 0)
    service = {name: counters[name] for name in SERVICE_COUNTERS}
    service.update({name: gauges[name] for name in SERVICE_GAUGES})
    out = {
        "counters": counters,
        "gauges": gauges,
        "histograms": dict(snapshot.get("histograms", {})),
        "degraded": {name: counters[name] for name in DEGRADED_COUNTERS},
        "service": service,
        "observability": {
            name: counters[name] for name in OBSERVABILITY_COUNTERS
        },
    }
    for key, value in snapshot.items():
        if key not in out:
            out[key] = value
    return out


def render_report(telemetry) -> str:
    """Render the telemetry bundle as an aligned text report: the live
    metrics snapshot, then what only the bundle holds (span profile,
    prediction error, sampled timelines)."""
    registry = telemetry.registry
    lines: List[str] = [
        render_snapshot(registry.as_dict() if registry is not None else {})
    ]

    if telemetry.profiler is not None:
        lines += _profile_lines(telemetry.profiler.as_dict())

    if telemetry.decisions is not None:
        summary = telemetry.decisions.error_summary()
        lines += ["", "placement decisions"]
        lines.append(
            f"  recorded={summary['decisions']}"
            f" joined={summary['joined']}"
            f" with_error={summary['with_error']}"
        )
        if "mean_abs_error" in summary:
            lines.append(
                "  prediction error:"
                f" mean|err|={summary['mean_abs_error']:.3f}"
                f" median={summary['median_error']:+.3f}"
                f" p95|err|={summary['p95_abs_error']:.3f}"
            )

    if telemetry.timelines:
        lines += ["", "link utilisation (sampled timelines)"]
        for label, samples in telemetry.timelines:
            if not samples:
                lines.append(f"  {label}: no samples")
                continue
            utils = [
                util
                for sample in samples
                for util, _bits in sample.links.values()
            ]
            peak_flows = max(s.active_flows for s in samples)
            if utils:
                lines.append(
                    f"  {label}: samples={len(samples)}"
                    f" mean_util={mean(utils):.3f}"
                    f" peak_util={max(utils):.3f}"
                    f" peak_active_flows={peak_flows}"
                )
            else:
                lines.append(
                    f"  {label}: samples={len(samples)}"
                    f" peak_active_flows={peak_flows} (no links watched)"
                )

    return "\n".join(lines)
