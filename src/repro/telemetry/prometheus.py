"""Prometheus text-exposition rendering of a metrics snapshot.

Converts a :meth:`~repro.telemetry.registry.MetricsRegistry.as_dict`
snapshot (or a ``--metrics-out`` JSON file, which is that snapshot plus
extras) into the Prometheus text format, so a saved run's metrics can be
pushed to a Pushgateway or scraped from a file exporter without any
Prometheus client library.

Mapping:

* counters  -> ``<prefix><name>_total`` (TYPE counter)
* gauges    -> ``<prefix><name>`` (TYPE gauge)
* histograms-> TYPE histogram: real cumulative ``_bucket{le="..."}``
  series rendered from the registry's log-bucketed quantile sketch
  (closed by ``le="+Inf"``), plus ``_sum`` / ``_count``.  Legacy
  summaries without a serialized sketch fall back to TYPE summary
  with ``{quantile="0.5"|"0.95"}`` series (or bare sum/count when even
  quantiles are missing).
* profiler  -> ``<prefix>span_*`` series labelled by flame path, when the
  snapshot carries a ``profile`` section (``--profile`` runs do): the
  only wall time per subsystem

Metric names are sanitised to the Prometheus charset (dots become
underscores); label values are escaped per the exposition format.
"""

from __future__ import annotations

import re
from typing import Dict, List

__all__ = ["render_prometheus"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _name(prefix: str, raw: str, suffix: str = "") -> str:
    base = _NAME_RE.sub("_", raw)
    if base and base[0].isdigit():
        base = "_" + base
    return f"{prefix}{base}{suffix}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _num(value) -> str:
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def render_prometheus(snapshot: Dict, *, prefix: str = "repro_") -> str:
    """Render a metrics snapshot in Prometheus text exposition format."""
    lines: List[str] = []

    def header(name: str, kind: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    # Degraded-operation and placement-service counters are exported
    # zero-defaulted whenever the snapshot carries metrics at all: an
    # absent series cannot be alerted on, a zero one can.  (A fully
    # empty snapshot — metrics were off — still renders empty.)
    from repro.telemetry.report import (
        DEGRADED_COUNTERS,
        OBSERVABILITY_COUNTERS,
        SERVICE_COUNTERS,
        SERVICE_GAUGES,
    )

    counters = dict(snapshot.get("counters", {}))
    gauges = dict(snapshot.get("gauges", {}))
    if counters:
        for raw in (
            DEGRADED_COUNTERS + SERVICE_COUNTERS + OBSERVABILITY_COUNTERS
        ):
            counters.setdefault(raw, 0)
        for raw in SERVICE_GAUGES:
            gauges.setdefault(raw, 0)
    for raw, value in counters.items():
        name = _name(prefix, raw, "_total")
        header(name, "counter", f"counter {raw}")
        lines.append(f"{name} {_num(value)}")

    for raw, value in gauges.items():
        name = _name(prefix, raw)
        header(name, "gauge", f"gauge {raw}")
        lines.append(f"{name} {_num(value)}")

    for raw, summary in snapshot.get("histograms", {}).items():
        name = _name(prefix, raw)
        count = summary.get("count", 0)
        if "sketch" in summary:
            from repro.telemetry.timeseries import QuantileSketch

            sketch = QuantileSketch.from_dict(summary["sketch"])
            header(name, "histogram", f"histogram {raw}")
            for bound, cumulative in sketch.cumulative_buckets():
                lines.append(
                    f'{name}_bucket{{le="{_num(bound)}"}} {_num(cumulative)}'
                )
            lines.append(f'{name}_bucket{{le="+Inf"}} {_num(count)}')
            lines.append(f"{name}_sum {_num(sketch.total)}")
            lines.append(f"{name}_count {_num(count)}")
            continue
        header(name, "summary", f"histogram {raw}")
        if count:
            for quantile, key in (("0.5", "p50"), ("0.95", "p95")):
                if key in summary:
                    lines.append(
                        f'{name}{{quantile="{quantile}"}} '
                        f"{_num(summary[key])}"
                    )
            mean = summary.get("mean", 0.0)
            lines.append(f"{name}_sum {_num(mean * count)}")
        lines.append(f"{name}_count {_num(count)}")

    flame = snapshot.get("profile", {}).get("flame", {})
    if flame:
        calls_name = f"{prefix}span_calls_total"
        incl_name = f"{prefix}span_inclusive_seconds_total"
        excl_name = f"{prefix}span_exclusive_seconds_total"
        header(calls_name, "counter", "span entries per flame path")
        header(incl_name, "counter", "inclusive span seconds per flame path")
        header(excl_name, "counter", "exclusive span seconds per flame path")
        for path, stats in flame.items():
            label = f'{{path="{_escape_label(path)}"}}'
            lines.append(f"{calls_name}{label} {_num(stats['calls'])}")
            lines.append(
                f"{incl_name}{label} {_num(stats['inclusive_seconds'])}"
            )
            lines.append(
                f"{excl_name}{label} {_num(stats['exclusive_seconds'])}"
            )

    return "\n".join(lines) + ("\n" if lines else "")
