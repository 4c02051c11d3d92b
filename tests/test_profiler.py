"""Span profiler tests: tree accounting, determinism, disabled cost.

The load-bearing guarantee is the determinism contract: a profiled run
must produce byte-identical completion records and JSONL traces to an
unprofiled one — the profiler reads wall clocks but never writes into
simulation state.
"""

from __future__ import annotations

import io
import json
import time

import pytest

from repro.experiments.config import MacroConfig
from repro.experiments.runner import replay_flow_trace
from repro.telemetry import (
    DecisionLog,
    JsonlTraceSink,
    MetricsRegistry,
    SpanProfiler,
    Telemetry,
    render_profile,
    render_report,
)
from repro.telemetry.profiler import current_profiler, set_current_profiler


def small_config(**overrides) -> MacroConfig:
    defaults = dict(
        pods=2, racks_per_pod=2, hosts_per_rack=4,
        num_arrivals=60, workload="hadoop", seed=11,
    )
    defaults.update(overrides)
    return MacroConfig(**defaults)


def replay_small(telemetry=None):
    cfg = small_config()
    topo = cfg.build_topology()
    trace = cfg.build_trace(topo)
    return replay_flow_trace(
        trace, topo, network_policy="fair", placement="neat",
        seed=cfg.seed, max_candidates=6, telemetry=telemetry,
    )


# ----------------------------------------------------------------------
# Tree accounting
# ----------------------------------------------------------------------
class TestSpanTree:
    def test_nested_paths_and_counts(self):
        prof = SpanProfiler()
        for _ in range(3):
            with prof.span("outer"):
                with prof.span("inner"):
                    pass
        with prof.span("inner"):  # same label, different parent
            pass
        assert prof.paths() == [
            ("inner",), ("outer",), ("outer", "inner")
        ]
        assert prof.stats(("outer",)).calls == 3
        assert prof.stats(("outer", "inner")).calls == 3
        assert prof.stats(("inner",)).calls == 1

    def test_exclusive_excludes_child_time(self):
        prof = SpanProfiler()
        with prof.span("outer"):
            with prof.span("inner"):
                time.sleep(0.02)
        outer = prof.stats(("outer",))
        inner = prof.stats(("outer", "inner"))
        assert inner.inclusive >= 0.02
        assert outer.inclusive >= inner.inclusive
        # outer did (almost) nothing itself
        assert outer.exclusive == pytest.approx(
            outer.inclusive - inner.inclusive
        )
        assert outer.exclusive < inner.inclusive

    def test_open_parent_does_not_lose_child_time(self):
        """Children popping while the parent is still open must be
        credited when the parent finally pops."""
        prof = SpanProfiler()
        with prof.span("parent"):
            for _ in range(5):
                with prof.span("child"):
                    time.sleep(0.002)
        parent = prof.stats(("parent",))
        child = prof.stats(("parent", "child"))
        assert parent.child == pytest.approx(child.inclusive)

    def test_recursion_no_double_count_in_label_totals(self):
        prof = SpanProfiler()

        def recurse(depth):
            with prof.span("rec"):
                if depth:
                    recurse(depth - 1)

        recurse(2)
        totals = prof.label_totals()["rec"]
        assert totals["calls"] == 3
        # inclusive only counts the outermost node, so it cannot exceed
        # the root span's inclusive time
        root = prof.stats(("rec",))
        assert totals["inclusive_seconds"] == pytest.approx(root.inclusive)

    def test_depth_tracks_stack(self):
        prof = SpanProfiler()
        assert prof.depth == 0
        with prof.span("a"):
            assert prof.depth == 1
            with prof.span("b"):
                assert prof.depth == 2
        assert prof.depth == 0

    def test_as_dict_and_render(self):
        prof = SpanProfiler()
        with prof.span("a"):
            with prof.span("b"):
                pass
        snap = prof.as_dict()
        assert set(snap["flame"]) == {"a", "a;b"}
        assert snap["flame"]["a"]["calls"] == 1
        text = render_profile(snap)
        assert "a" in text and "b" in text and "calls=1" in text
        assert render_profile({"flame": {}}) == "(no spans recorded)"


class TestAmbientProfiler:
    def test_ambient_default_and_restore(self):
        assert current_profiler() is None
        mine = SpanProfiler()
        previous = set_current_profiler(mine)
        try:
            assert current_profiler() is mine
        finally:
            assert set_current_profiler(previous) is mine
        assert current_profiler() is None


# ----------------------------------------------------------------------
# Instrumentation coverage
# ----------------------------------------------------------------------
class TestInstrumentation:
    def test_replay_records_expected_span_tree(self):
        prof = SpanProfiler()
        replay_small(Telemetry(profiler=prof))
        labels = prof.label_totals()
        for expected in (
            "fabric.recompute.scoped",
            "fabric.expand_component",
            "alloc.fair",
            "fabric.splice",
            "placement.place",
            "predictor.fct",
        ):
            assert expected in labels, f"missing span label {expected}"
        # natural nesting: the predictor runs inside placement scoring
        assert any(
            path[-1] == "predictor.fct" and "placement.place" in path
            for path in prof.paths()
        )
        # engine dispatch spans wrap everything that runs inside events
        assert any(path[0].startswith("engine.event.") for path in prof.paths())

    def test_report_includes_flame_view(self):
        tele = Telemetry(registry=MetricsRegistry(), profiler=SpanProfiler())
        replay_small(tele)
        report = render_report(tele)
        assert "span profile" in report
        assert "placement.place" in report


# ----------------------------------------------------------------------
# Determinism: profiler on == profiler off, byte for byte
# ----------------------------------------------------------------------
class TestProfilerDeterminism:
    def run_once(self, *, profile: bool):
        buf = io.StringIO()
        sink = JsonlTraceSink(buf)
        tele = Telemetry(
            registry=MetricsRegistry(),
            trace=sink,
            decisions=DecisionLog(trace=sink),
            profiler=SpanProfiler() if profile else None,
        )
        result = replay_small(tele)
        tele.close()
        return result.records, buf.getvalue()

    def test_profiled_run_is_byte_identical_to_unprofiled(self):
        records_off, trace_off = self.run_once(profile=False)
        records_on, trace_on = self.run_once(profile=True)
        assert records_on == records_off
        assert trace_on == trace_off

    def test_profiler_output_varies_but_results_do_not(self):
        prof = SpanProfiler()
        replay_small(Telemetry(profiler=prof))
        assert prof.paths()  # spans were recorded ...
        records_a, _ = self.run_once(profile=True)
        records_b, _ = self.run_once(profile=True)
        assert records_a == records_b  # ... while results stay fixed


# ----------------------------------------------------------------------
# Disabled cost
# ----------------------------------------------------------------------
class TestProfilerDisabledOverhead:
    def test_disabled_profiler_is_not_composed(self):
        """Profiler-off is structural (host-time claims live in
        ``benchmarks/e2e``): with no profiler nothing joins the probe, so
        no timed site hands back a token, the registry armed or not."""
        tele = Telemetry(registry=MetricsRegistry(), profiler=None)
        assert tele.probe.enter_event("fabric-hint") is None
        assert tele.probe.enter_recompute(True) is None
        assert tele.probe.enter_alloc("fair") is None
        replay_small(tele)
        assert tele.profiler is None
        assert Telemetry(profiler=None).probe is None

    def test_abandoned_spans_do_not_corrupt_the_tree(self):
        """An exception between enter and exit leaves a span open; the
        next exit of an enclosing span drops it instead of mis-nesting."""
        prof = SpanProfiler()
        outer = prof.begin("outer")
        prof.begin("abandoned")  # never ended
        prof.end(outer)
        assert prof.depth == 0
        assert prof.paths() == [("outer",)]
