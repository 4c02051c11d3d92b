"""Telemetry layer tests: registry, trace, decisions, determinism, CLI.

The determinism contract is the load-bearing guarantee: two replays from
the same seed must produce byte-identical JSONL traces (with wall-clock
stamping off; modulo ``wall*`` fields when it is on).
"""

from __future__ import annotations

import io
import json
import time

import pytest

from repro.experiments.config import MacroConfig
from repro.experiments.runner import replay_coflow_trace, replay_flow_trace
from repro.telemetry import (
    DecisionLog,
    JsonlTraceSink,
    MetricsRegistry,
    SpanProfiler,
    Telemetry,
    create_telemetry,
    render_report,
)


def small_config(**overrides) -> MacroConfig:
    defaults = dict(
        pods=2, racks_per_pod=2, hosts_per_rack=4,
        num_arrivals=60, workload="hadoop", seed=11,
    )
    defaults.update(overrides)
    return MacroConfig(**defaults)


def replay_small(telemetry=None, *, placement="neat", config=None):
    cfg = config if config is not None else small_config()
    topo = cfg.build_topology()
    trace = cfg.build_trace(topo)
    return replay_flow_trace(
        trace, topo, network_policy="fair", placement=placement,
        seed=cfg.seed, max_candidates=6, telemetry=telemetry,
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2)
        reg.gauge("g").set(3.0)
        reg.gauge("g").set_max(1.0)  # lower: ignored
        for v in (1.0, 2.0, 3.0):
            reg.histogram("h").observe(v)
        snap = reg.as_dict()
        assert snap["counters"]["c"] == 3
        assert snap["gauges"]["g"] == 3.0
        assert snap["histograms"]["h"]["count"] == 3
        assert snap["histograms"]["h"]["mean"] == pytest.approx(2.0)

    def test_write_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("x").inc(5)
        path = tmp_path / "m.json"
        reg.write_json(str(path), extra={"note": {"k": 1}})
        payload = json.loads(path.read_text())
        assert payload["counters"]["x"] == 5
        assert payload["note"] == {"k": 1}

    def test_histogram_is_a_named_sketch(self):
        """One set of books: the summary is the sketch's own, plus the
        serialized sketch for merging."""
        hist = MetricsRegistry().histogram("h")
        assert hist.summary() == {"count": 0}
        for v in (1.0, 3.0):
            hist.observe(v)
        summary = hist.summary()
        assert list(summary) == [
            "count", "mean", "min", "max", "p50", "p95", "p99", "sketch",
        ]
        assert summary["sketch"] == hist.to_dict()
        assert (summary["count"], summary["mean"]) == (2, 2.0)
        assert (summary["min"], summary["max"]) == (1.0, 3.0)


# ----------------------------------------------------------------------
# Trace sink
# ----------------------------------------------------------------------
class TestTraceSink:
    def test_jsonl_lines(self):
        buf = io.StringIO()
        sink = JsonlTraceSink(buf)
        sink.emit("ev", 1.5, {"a": 1, "inf": float("inf")})
        sink.close()
        rec = json.loads(buf.getvalue())
        assert rec == {"event": "ev", "t": 1.5, "a": 1, "inf": "inf"}
        assert sink.events_written == 1

    def test_wall_clock_fields_are_prefixed(self):
        buf = io.StringIO()
        sink = JsonlTraceSink(buf, wall_clock=True)
        sink.emit("ev", 0.0)
        sink.close()
        rec = json.loads(buf.getvalue())
        wall_keys = [k for k in rec if k.startswith("wall")]
        assert wall_keys == ["wall"]
        assert rec["wall"] == pytest.approx(time.time(), abs=60)

    def test_wall_clock_mode_keeps_all_records_readable(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(str(path), wall_clock=True)
        sink.emit("first", 0.0, {"x": 1})
        sink.emit("second", 1.0)
        sink.close()
        from repro.telemetry import read_trace

        events = read_trace(str(path))
        assert [e["event"] for e in events] == ["first", "second"]
        assert all("wall" in e for e in events)

    def test_repeated_close_is_idempotent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(str(path))
        sink.emit("ev", 0.0)
        sink.close()
        sink.close()  # second close must not raise or truncate
        sink.emit("after", 1.0)  # emits after close are dropped silently
        sink.close()
        assert sink.events_written == 1
        from repro.telemetry import read_trace

        assert len(read_trace(str(path))) == 1

    def test_read_trace_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(str(path))
        sink.emit("kept", 0.0, {"n": 1})
        sink.emit("kept", 1.0, {"n": 2})
        sink.close()
        # Simulate a crash mid-write: chop the final record in half.
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 12])
        from repro.telemetry import read_trace

        events = read_trace(str(path))
        assert [e["n"] for e in events] == [1]

    def test_read_trace_rejects_mid_file_corruption(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"event": "ok", "t": 0.0}\n'
            '{"event": "broken", "t": \n'
            '{"event": "ok", "t": 1.0}\n'
        )
        from repro.telemetry import read_trace

        with pytest.raises(ValueError, match="malformed trace record"):
            read_trace(str(path))


# ----------------------------------------------------------------------
# Decision log
# ----------------------------------------------------------------------
class TestDecisionLog:
    def record_one(self, log, tag="t1", score_kind="predicted_time"):
        return log.record(
            time=0.0, kind="flow", tag=tag, size=100.0, data_node="h0",
            candidates=("h1", "h2"), preferred=("h1",), used_fallback=False,
            scores=(("h1", 2.0), ("h2", 3.0)), score_kind=score_kind,
            chosen="h1", predicted_time=2.0,
        )

    def test_join_computes_relative_error(self):
        log = DecisionLog()
        rec = self.record_one(log)
        log.note_completed("t1", 3.0, 3.0)
        assert rec.realized_time == 3.0
        assert rec.error == pytest.approx(0.5)
        summary = log.error_summary()
        assert summary["decisions"] == 1
        assert summary["joined"] == 1
        assert summary["mean_abs_error"] == pytest.approx(0.5)

    def test_non_time_scores_never_join(self):
        log = DecisionLog()
        rec = self.record_one(log, score_kind="queued_bits")
        log.note_completed("t1", 3.0, 3.0)
        assert rec.realized_time is None

    def test_begin_run_clears_pending(self):
        class Fabric:
            def add_completion_listener(self, listener):
                pass

        log = DecisionLog()
        rec = self.record_one(log)
        log.begin_run(0.0, "minload", "fair", Fabric())
        log.note_completed("t1", 3.0, 3.0)  # stale tag from previous run
        assert rec.realized_time is None


# ----------------------------------------------------------------------
# End-to-end: replay with telemetry armed
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_flow_replay_records_everything(self):
        buf = io.StringIO()
        sink = JsonlTraceSink(buf)
        tele = Telemetry(
            registry=MetricsRegistry(),
            trace=sink,
            decisions=DecisionLog(trace=sink),
            profiler=SpanProfiler(),
        )
        run = replay_small(tele)
        tele.close()
        events = [json.loads(line) for line in buf.getvalue().splitlines()]
        kinds = {e["event"] for e in events}
        assert {"run_start", "flow_arrival", "flow_completion",
                "rate_recompute", "bus_round", "placement_decision",
                "decision_outcome", "engine_run", "run_end"} <= kinds

        decisions = [e for e in events if e["event"] == "placement_decision"]
        assert len(decisions) == 60
        sample = decisions[0]
        assert sample["candidates"] and sample["chosen"] in sample["candidates"]
        assert set(sample["scores"]) == set(sample["preferred"])
        assert sample["score_kind"] == "predicted_time"

        outcomes = [e for e in events if e["event"] == "decision_outcome"]
        assert len(outcomes) == 60  # every flow completes and joins
        assert all(o["realized"] is not None for o in outcomes)
        assert any(o["error"] is not None for o in outcomes)

        counters = tele.registry.as_dict()["counters"]
        assert counters["fabric.flows_completed"] == 60
        assert counters["bus.messages_sent"] == run.control_messages
        rounds = [e for e in events if e["event"] == "bus_round"]
        assert sum(len(e["hosts"]) for e in rounds) == counters["bus.calls"] > 0
        assert "timers" not in tele.registry.as_dict()
        labels = tele.profiler.label_totals()
        assert labels["placement.place"]["calls"] == 60
        summary = tele.decisions.error_summary()
        assert summary["joined"] == summary["decisions"] == 60

    def test_coflow_replay_records_coflow_events(self):
        buf = io.StringIO()
        sink = JsonlTraceSink(buf)
        tele = Telemetry(
            registry=MetricsRegistry(),
            trace=sink,
            decisions=DecisionLog(trace=sink),
        )
        cfg = small_config(coflows=True, num_arrivals=20)
        topo = cfg.build_topology()
        trace = cfg.build_trace(topo)
        replay_coflow_trace(
            trace, topo, network_policy="varys", placement="neat",
            seed=cfg.seed, max_candidates=6, telemetry=tele,
        )
        tele.close()
        events = [json.loads(line) for line in buf.getvalue().splitlines()]
        arrivals = [e for e in events if e["event"] == "coflow_arrival"]
        completions = [e for e in events if e["event"] == "coflow_completion"]
        assert len(arrivals) == 20
        assert len(completions) == 20
        assert all(c["cct"] >= 0 for c in completions)
        # every constituent decision of a coflow joins that coflow's CCT
        summary = tele.decisions.error_summary()
        assert summary["joined"] == summary["decisions"] > 0

    def test_baseline_decisions_are_recorded_too(self):
        tele = Telemetry(decisions=DecisionLog())
        replay_small(tele, placement="minload")
        recs = tele.decisions.records
        assert len(recs) == 60
        assert recs[0].score_kind == "queued_bits"
        assert recs[0].placement == "minload"

    def test_timeline_collection(self):
        tele = Telemetry(timeline_interval=0.02)
        replay_small(tele)
        assert len(tele.timelines) == 1
        label, samples = tele.timelines[0]
        assert label == "neat/fair"
        # sampler must survive the gap before the first arrival and keep
        # sampling until the fabric drains
        assert len(samples) >= 2
        assert any(s.active_flows > 0 for s in samples)

    def test_report_renders(self):
        tele = create_telemetry(profile=True)
        replay_small(tele)
        text = render_report(tele)
        assert "telemetry report" in text
        # wall time per subsystem: the span profile's section
        assert "span profile" in text
        assert "placement.place" in text and "alloc.fair" in text
        assert "prediction error" in text


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def trace_once(self, *, wall_clock=False) -> str:
        buf = io.StringIO()
        sink = JsonlTraceSink(buf, wall_clock=wall_clock)
        tele = Telemetry(trace=sink, decisions=DecisionLog(trace=sink))
        replay_small(tele)
        tele.close()
        return buf.getvalue()

    def test_same_seed_traces_are_byte_identical(self):
        assert self.trace_once() == self.trace_once()

    def test_wall_clock_breaks_only_wall_fields(self):
        def strip_wall(text: str) -> list:
            out = []
            for line in text.splitlines():
                rec = json.loads(line)
                out.append(
                    {k: v for k, v in rec.items() if not k.startswith("wall")}
                )
            return out

        a = self.trace_once(wall_clock=True)
        b = self.trace_once(wall_clock=True)
        assert strip_wall(a) == strip_wall(b)
        assert all("wall" in json.loads(line) for line in a.splitlines())


# ----------------------------------------------------------------------
# Disabled overhead
# ----------------------------------------------------------------------
class TestDisabledOverhead:
    def test_unarmed_bundle_is_all_none(self):
        """Off has one spelling: a bundle with nothing armed composes no
        probe and every channel attribute is None (no disabled twins)."""
        tele = Telemetry()
        assert tele.probe is None
        assert tele.attach("fabric") is None
        for channel in ("registry", "trace", "decisions", "profiler", "causal"):
            assert getattr(tele, channel) is None, channel
        tele.close()  # nothing to close, nothing raised
        armed = create_telemetry(profile=True, causal=True)
        for channel in ("registry", "decisions", "profiler", "causal"):
            assert getattr(armed, channel) is not None, channel
        assert armed.trace is None  # no trace_path given

    def test_noop_primitives_are_cheap(self):
        """The disabled path is one ``is not None`` check per site."""
        tele = Telemetry()
        n = 50_000
        start = time.perf_counter()
        for _ in range(n):
            if tele.trace is not None:  # pragma: no cover - disabled
                tele.trace.emit("x", 0.0)
        elapsed = time.perf_counter() - start
        # generous bound: ~50k guard checks must stay well under 50ms
        assert elapsed < 0.5

    @pytest.mark.parametrize(
        "telemetry", [None, Telemetry()], ids=["none", "null-bundle"]
    )
    def test_disabled_components_hold_no_probe(self, telemetry):
        """Telemetry off is structural, not a timing claim: nothing is
        composed, so every component's one handle is None and each probe
        site costs a failed ``is not None`` branch (host-time claims live
        in ``benchmarks/e2e``)."""
        from repro.coflow.tracking import CoflowTracker
        from repro.faults import FaultInjector, FaultPlan, LinkDegrade
        from repro.network.fabric import NetworkFabric
        from repro.network.policies.registry import make_allocator
        from repro.placement.neat import build_neat
        from repro.service import AdmissionQueue
        from repro.sim.engine import Engine
        from repro.topology.fabrics import single_switch

        engine = Engine(telemetry=telemetry)
        fabric = NetworkFabric(
            engine, single_switch(4), make_allocator("fair"),
            telemetry=telemetry,
        )
        neat = build_neat(fabric, coflow_predictor="varys", telemetry=telemetry)
        plan = FaultPlan(
            events=(LinkDegrade(time=0.1, link="h000->sw0", factor=0.5),)
        )
        components = [
            engine,
            fabric,
            neat.bus,
            neat.daemon,
            neat.bus._endpoints["h000"].__self__,  # a NetworkDaemon
            CoflowTracker(fabric, telemetry=telemetry),
            FaultInjector(plan, fabric, telemetry=telemetry),
            AdmissionQueue(telemetry=telemetry),
        ]
        for component in components:
            assert component._probe is None, type(component).__name__


# ----------------------------------------------------------------------
# The probe seam
# ----------------------------------------------------------------------
class TestProbe:
    def armed(self) -> Telemetry:
        return create_telemetry(profile=True, causal=True, timeline_interval=0.1)

    def test_channels_implement_only_probe_points(self):
        """Every probe-ish method of every channel is in the closed set,
        and every point of the set has an owner."""
        from repro.telemetry import (
            PROBE_POINTS, CausalTracer, MetricsProbe, SpanProfiler, TraceProbe,
        )
        from repro.telemetry.probe import _CLAIM_PREFIXES

        implemented = set()
        for channel in (
            CausalTracer, DecisionLog, MetricsProbe, SpanProfiler, TraceProbe,
        ):
            claimed = {
                name for name in dir(channel)
                if name.startswith(_CLAIM_PREFIXES)
            }
            assert claimed <= set(PROBE_POINTS), channel.__name__
            implemented |= claimed
        assert implemented == set(PROBE_POINTS)
        # The placement service's points: in the closed set, and owned
        # by the metrics channel (which spells every ``service.*`` name).
        service_points = {"on_offer", "on_reject", "on_enqueue", "on_batch"}
        assert service_points <= set(PROBE_POINTS)
        assert all(hasattr(MetricsProbe, point) for point in service_points)

    def test_unknown_probe_point_fails_loudly(self):
        from repro.telemetry import Probe

        class Typo:
            def on_flow_dne(self, t, record):  # not on_flow_done
                pass

        with pytest.raises(TypeError, match="on_flow_dne is not a probe point"):
            Probe([Typo()])

    def test_single_subscriber_is_bound_directly(self):
        """One subscriber costs one call: the probe attribute *is* the
        channel's bound method, not a fan-out frame around it."""
        tele = self.armed()
        assert tele.probe.on_rate == tele.causal.on_rate
        assert tele.probe.enter_expand == tele.profiler.enter_expand
        # every timed section is the profiler's alone, metrics armed or not
        assert tele.registry is not None
        assert tele.probe.enter_alloc == tele.profiler.enter_alloc
        assert tele.probe.exit_alloc == tele.profiler.exit_alloc

    def test_second_timed_subscriber_fails_loudly(self):
        """A timed section takes one subscriber: a second channel timing
        it is refused, not handed a token list nothing unwinds."""
        from repro.telemetry import Probe, SpanProfiler

        class Stopwatch:
            def enter_alloc(self, allocator_name):
                return 0.0

            def exit_alloc(self, token):
                pass

        with pytest.raises(TypeError, match="'alloc' takes one subscriber"):
            Probe([SpanProfiler(), Stopwatch()])

    def test_observed_replay_leaves_no_reference_cycles(self):
        """No channel may point back at a component that holds the probe:
        a finished replay is freed by reference counting, not parked as
        cyclic garbage on top of whatever runs next."""
        import gc

        replay_small(self.armed())  # first-run imports and caches
        gc.collect()
        gc.disable()
        try:
            replay_small(self.armed())
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_unsubscribed_timed_point_yields_no_token(self):
        """No profiler, no metrics: ``enter_*`` hands back None, so the
        call site skips the matching ``exit_*`` too."""
        tele = Telemetry(decisions=DecisionLog())
        assert tele.probe is not None
        assert tele.probe.enter_alloc("fair") is None
        assert tele.probe.enter_event("fabric-hint") is None


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCLI:
    def test_fig5_trace_and_metrics(self, tmp_path, capsys):
        from repro.__main__ import main

        trace_path = tmp_path / "t.jsonl"
        metrics_path = tmp_path / "m.json"
        timeline_path = tmp_path / "tl.json"
        rc = main([
            "fig5", "--arrivals", "30", "--hosts-per-rack", "4",
            "--trace", str(trace_path),
            "--metrics-out", str(metrics_path),
            "--timeline", str(timeline_path),
            "--timeline-interval", "0.05",
            "--profile",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry report" in out
        assert "span profile" in out and "placement.place" in out
        assert "link utilisation" in out

        events = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        decisions = [e for e in events if e["event"] == "placement_decision"]
        outcomes = [e for e in events if e["event"] == "decision_outcome"]
        assert decisions and outcomes
        assert all(
            {"candidates", "scores", "chosen", "predicted"} <= set(d)
            for d in decisions
        )
        assert all({"realized", "error"} <= set(o) for o in outcomes)

        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["fabric.flows_completed"] > 0
        assert metrics["placement_decisions"]["joined"] > 0
        assert "timers" not in metrics
        assert any(
            path.endswith("placement.place") for path in metrics["profile"]["flame"]
        )

        timeline = json.loads(timeline_path.read_text())
        labels = [t["label"] for t in timeline["timelines"]]
        assert labels == ["neat/fair", "minload/fair", "mindist/fair"]
        assert all(t["samples"] for t in timeline["timelines"])

    def test_bad_observability_flags_error_cleanly(self, tmp_path, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["fig5", "--trace", str(tmp_path / "no" / "dir" / "t.jsonl")])
        assert exc.value.code == 2
        assert "cannot open --trace" in capsys.readouterr().err

        with pytest.raises(SystemExit) as exc:
            main(["fig5", "--timeline", str(tmp_path / "tl.json"),
                  "--timeline-interval", "0"])
        assert exc.value.code == 2
        assert "must be positive" in capsys.readouterr().err
