"""Metrics-snapshot tooling tests: export, rendering, merging.

Covers the Prometheus text exporter, the snapshot report renderer, and
the merge_snapshots edge cases (heterogeneous kinds, empty, singleton).
"""

from __future__ import annotations

import json

import pytest

from repro.telemetry import MetricsRegistry, merge_snapshots
from repro.telemetry.prometheus import render_prometheus
from repro.telemetry.report import render_snapshot, snapshot_as_dict


# ----------------------------------------------------------------------
# Prometheus exporter
# ----------------------------------------------------------------------
class TestPrometheus:
    def test_full_snapshot_mapping(self):
        reg = MetricsRegistry()
        reg.counter("bus.messages").inc(7)
        reg.gauge("engine.heap").set(3.0)
        for v in (1.0, 2.0, 3.0):
            reg.histogram("fct").observe(v)
        snapshot = reg.as_dict()
        snapshot["profile"] = {
            "flame": {
                "engine.event;alloc": {
                    "calls": 2,
                    "inclusive_seconds": 0.5,
                    "exclusive_seconds": 0.25,
                },
            }
        }
        text = render_prometheus(snapshot)
        assert "# TYPE repro_bus_messages_total counter" in text
        assert "repro_bus_messages_total 7.0" in text
        assert "repro_engine_heap 3.0" in text
        assert '# TYPE repro_fct histogram' in text
        assert 'repro_fct_bucket{le="+Inf"} 3.0' in text
        assert "repro_fct_sum 6.0" in text
        assert "repro_fct_count 3.0" in text
        # Real cumulative buckets from the sketch: monotone, closed by
        # +Inf, and consistent with the total count.
        bucket_counts = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_fct_bucket")
        ]
        assert bucket_counts == sorted(bucket_counts)
        assert bucket_counts[-1] == 3.0
        assert (
            'repro_span_inclusive_seconds_total{path="engine.event;alloc"} 0.5'
            in text
        )
        assert text.endswith("\n")

    def test_name_sanitisation_and_prefix(self):
        text = render_prometheus(
            {"counters": {"weird-name.1": 2}}, prefix="x_"
        )
        assert "x_weird_name_1_total 2.0" in text

    def test_empty_snapshot(self):
        assert render_prometheus({}) == ""


# ----------------------------------------------------------------------
# Snapshot report renderer (repro report without --prometheus)
# ----------------------------------------------------------------------
class TestRenderSnapshot:
    def test_renders_sections_and_profile(self):
        reg = MetricsRegistry()
        reg.counter("fabric.flows_completed").inc(9)
        snapshot = reg.as_dict()
        snapshot["profile"] = {
            "flame": {
                "engine.event": {
                    "calls": 4,
                    "inclusive_seconds": 1.0,
                    "exclusive_seconds": 1.0,
                },
            },
            "labels": {},
        }
        snapshot["placement_decisions"] = {
            "decisions": 5, "joined": 4, "with_error": 3,
        }
        text = render_snapshot(snapshot)
        assert "fabric.flows_completed" in text
        assert "span profile" in text and "engine.event" in text
        assert "recorded=5" in text

    def test_merged_snapshot_without_quantiles(self):
        merged = merge_snapshots(
            [
                MetricsRegistry().as_dict(),
                {
                    "histograms": {
                        "fct": {"count": 2, "mean": 1.5, "min": 1, "max": 2}
                    }
                },
            ]
        )
        text = render_snapshot(merged)
        assert "fct: n=2 mean=1.5 max=2" in text  # no p50/p95 claimed


def test_snapshot_with_1_7_timers_section_still_renders(tmp_path, capsys):
    """A ``--metrics-out`` file written by repro 1.7 carries a wall-clock
    ``timers`` section: the text and Prometheus reports and the merge
    ignore it, and ``--json`` passes it through untouched like any
    section it does not know."""
    from repro.__main__ import main

    reg = MetricsRegistry()
    reg.counter("fabric.flows_completed").inc(9)
    reg.gauge("engine.heap_high_water").set(4.0)
    reg.histogram("fabric.fct_seconds").observe(0.5)
    current = json.loads(json.dumps(reg.as_dict()))  # as read from a file
    timers = {
        "allocator": {"calls": 12, "wall_seconds": 0.04},
        "placement": {"calls": 9, "wall_seconds": 0.25},
    }
    old = {**current, "timers": timers}
    path = tmp_path / "metrics-1.7.json"
    path.write_text(json.dumps(old), encoding="utf-8")

    def report(*flags) -> str:
        assert main(["report", str(path), *flags]) == 0
        return capsys.readouterr().out

    assert report() == render_snapshot(current) + "\n"
    assert report("--prometheus") == render_prometheus(current)
    assert json.loads(report("--json")) == {
        **snapshot_as_dict(current), "timers": timers,
    }
    assert merge_snapshots([old, old]) == merge_snapshots([current, current])


# ----------------------------------------------------------------------
# merge_snapshots edge cases (registry satellite)
# ----------------------------------------------------------------------
class TestMergeSnapshots:
    def test_empty_merge(self):
        merged = merge_snapshots([])
        assert merged == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_singleton_merge_preserves_values(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(2.5)
        for v in (1.0, 3.0):
            reg.histogram("h").observe(v)
        merged = merge_snapshots([reg.as_dict()])
        assert merged["counters"]["c"] == 3
        assert merged["gauges"]["g"] == 2.5
        hist = merged["histograms"]["h"]
        assert hist["count"] == 2
        assert hist["mean"] == 2.0
        assert hist["min"] == 1.0
        assert hist["max"] == 3.0
        # Sketch-backed snapshots keep their quantiles through a merge.
        assert hist["p50"] == pytest.approx(1.0, rel=0.02)
        assert hist["p99"] == pytest.approx(3.0, rel=0.02)

    def test_heterogeneous_same_run_kinds_error(self):
        a = {"counters": {"m": 1.0}}
        b = {"histograms": {"m": {"count": 1, "mean": 2.0, "min": 2, "max": 2}}}
        with pytest.raises(ValueError, match="heterogeneous.*'m'"):
            merge_snapshots([a, b])

    def test_heterogeneous_counter_vs_gauge_errors(self):
        with pytest.raises(ValueError, match="counter.*gauge|gauge.*counter"):
            merge_snapshots(
                [{"counters": {"m": 1.0}}, {"gauges": {"m": 5.0}}]
            )

    def test_heterogeneous_empty_histogram_still_claims_kind(self):
        """An empty histogram must still conflict with a counter of the
        same name — the kind claim happens before the count==0 skip."""
        with pytest.raises(ValueError, match="heterogeneous"):
            merge_snapshots(
                [
                    {"histograms": {"m": {"count": 0}}},
                    {"counters": {"m": 1.0}},
                ]
            )

    def test_homogeneous_merge_sums_and_maxes(self):
        a = MetricsRegistry()
        a.counter("c").inc(1)
        a.gauge("g").set(1.0)
        b = MetricsRegistry()
        b.counter("c").inc(2)
        b.gauge("g").set(5.0)
        merged = merge_snapshots([a.as_dict(), b.as_dict()])
        assert merged["counters"]["c"] == 3
        assert merged["gauges"]["g"] == 5.0  # high-water semantics
