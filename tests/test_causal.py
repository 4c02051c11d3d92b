"""Causal tracing and blame decomposition: invariants, determinism, CLI.

The causal layer threads a trace id from task arrival through placement,
flow lifecycle, and completion, then splits each realized FCT into
additive serialization / queueing / contention / fault components.  The
tests pin the three contracts that make it trustworthy:

* **additivity** — the components sum to the realized FCT (to float
  precision) for *every* completed flow, faulted or not;
* **attribution honesty** — an uncontended, fault-free flow is pure
  serialization (fct == optimal), and blame only appears when its cause
  (a contender, a degrade window) was actually present;
* **observer determinism** — tracing on changes no simulation records
  and no event-trace bytes, and same-(seed, plan) runs emit
  byte-identical causal traces.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.coflow.policies.registry import make_coflow_allocator
from repro.coflow.tracking import CoflowTracker
from repro.experiments.config import MacroConfig
from repro.experiments.runner import replay_flow_trace
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, LinkDegrade
from repro.network.fabric import NetworkFabric
from repro.network.policies.registry import make_allocator
from repro.sim.engine import Engine
from repro.telemetry import CausalTracer, JsonlTraceSink, Telemetry, read_trace
from repro.telemetry.causal import (
    BLAME_COMPONENTS,
    analyze,
    render_explain,
    scan_runs,
)
from repro.telemetry.perfetto import save_perfetto, to_perfetto
from repro.topology.fabrics import single_switch


GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

#: sha256 of ``json.dumps(to_perfetto(events), sort_keys=True,
#: separators=(",", ":"))`` per golden causal stream, recorded at the
#: commit before PR 21.  1.19 regenerated the ``fair_neat`` and
#: ``faulted_neat`` streams (reads write no progress: a few completion
#: times moved in the last bit; 1.18 ``8669d94e...`` and ``19e275ff...``).
PERFETTO_DIGESTS = {
    "fair_neat":
        "2dcf53d17282c5584abd10742de08f46ac3452f2b7e825dc871e65df1c7b827f",
    "faulted_neat":
        "792f93497b5a4c1de38956365cf0dadaad16263e911ae33471304ae436b5a877",
    "varys_neat":
        "64e53ec6a3926566aaa98a596da586ec6dd87f95c2c7773c2d1b809080d3475b",
}


def small_config(**overrides):
    defaults = dict(
        pods=1,
        racks_per_pod=2,
        hosts_per_rack=3,
        workload="websearch",
        num_arrivals=30,
        seed=11,
        load=0.7,
    )
    defaults.update(overrides)
    return MacroConfig(**defaults)


def degrade_plan(link, *, at=0.05, factor=0.25, restore_at=5.0):
    """Degrade ``link`` by ``factor`` at ``at``, undo it at ``restore_at``."""
    return FaultPlan(
        events=(
            LinkDegrade(time=at, link=link, factor=factor),
            LinkDegrade(time=restore_at, link=link, factor=1.0 / factor),
        ),
        seed=3,
        name="degrade",
    )


def replay_with_causal(cfg, *, faults=None, placement="neat"):
    tracer = CausalTracer()
    topology = cfg.build_topology()
    trace = cfg.build_trace(topology)
    result = replay_flow_trace(
        trace,
        topology,
        network_policy="fair",
        placement=placement,
        seed=cfg.seed,
        faults=faults,
        telemetry=Telemetry(causal=tracer),
    )
    return result, tracer


# ----------------------------------------------------------------------
# The decomposition invariant
# ----------------------------------------------------------------------
class TestAdditivity:
    def test_components_sum_to_fct_on_faulted_run(self):
        cfg = small_config()
        plan = degrade_plan("tor0->agg0_0", at=0.02, restore_at=1.0)
        result, tracer = replay_with_causal(cfg, faults=plan)
        analyses = analyze(tracer.events)
        assert len(analyses) == 1
        analysis = analyses[0]
        assert len(analysis.flows) == len(result.records)
        for blame in analysis.flows.values():
            total = (
                blame.serialization
                + blame.queueing
                + blame.contention
                + blame.fault
            )
            assert total == pytest.approx(blame.fct, abs=1e-6)
            assert blame.residual == pytest.approx(0.0, abs=1e-6)

    def test_components_sum_to_cct(self):
        cfg = small_config()
        _result, tracer = replay_with_causal(cfg)
        for analysis in analyze(tracer.events):
            for blame in analysis.coflows.values():
                total = blame.skew + sum(blame.components.values())
                assert total == pytest.approx(blame.cct, abs=1e-6)

    def test_uncontended_fault_free_flow_is_pure_serialization(self):
        engine = Engine()
        tracer = CausalTracer()
        fabric = NetworkFabric(
            engine,
            single_switch(4),
            make_allocator("fair"),
            telemetry=Telemetry(causal=tracer),
        )
        tracer.begin_run(
            0.0,
            placement="direct",
            network_policy="fair",
            fabric=fabric,
        )
        # Disjoint host pairs: no shared link, no contention, no faults.
        fabric.submit("h000", "h001", 2e8)
        fabric.submit("h002", "h003", 4e8)
        engine.run()
        tracer.end_run(engine.now, records=len(fabric.records))
        analysis = analyze(tracer.events)[0]
        assert len(analysis.flows) == 2
        for blame in analysis.flows.values():
            assert blame.fct == pytest.approx(blame.optimal)
            assert blame.serialization == pytest.approx(blame.fct)
            assert blame.contention == pytest.approx(0.0, abs=1e-9)
            assert blame.fault == pytest.approx(0.0, abs=1e-9)
            assert blame.queueing == 0.0
            assert blame.contenders == ()


# ----------------------------------------------------------------------
# Observer determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def _replay(self, tmp_path, label, *, causal):
        cfg = small_config()
        topology = cfg.build_topology()
        trace = cfg.build_trace(topology)
        trace_path = tmp_path / f"{label}.jsonl"
        sink = JsonlTraceSink(str(trace_path))
        tracer = CausalTracer() if causal else None
        result = replay_flow_trace(
            trace,
            topology,
            network_policy="fair",
            placement="neat",
            seed=cfg.seed,
            faults=degrade_plan("tor0->agg0_0"),
            telemetry=Telemetry(trace=sink, causal=tracer),
        )
        sink.close()
        return result, trace_path.read_bytes(), tracer

    def test_causal_on_changes_no_records_and_no_trace_bytes(self, tmp_path):
        result_off, bytes_off, _ = self._replay(tmp_path, "off", causal=False)
        result_on, bytes_on, tracer = self._replay(
            tmp_path, "on", causal=True
        )
        assert result_on.records == result_off.records
        assert bytes_on == bytes_off
        assert tracer.events_recorded > 0

    def test_same_seed_same_plan_byte_identical_causal_traces(self, tmp_path):
        paths = []
        for label in ("a", "b"):
            cfg = small_config()
            plan = degrade_plan("tor0->agg0_0")
            _result, tracer = replay_with_causal(cfg, faults=plan)
            path = tmp_path / f"{label}.jsonl"
            tracer.save(str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert len(paths[0].read_bytes()) > 0


# ----------------------------------------------------------------------
# The faulted two-coflow scenario (the acceptance round-trip)
# ----------------------------------------------------------------------
@pytest.fixture()
def faulted_coflow_tracer():
    """Two coflows whose flows share a downlink through a degrade window.

    Both flows converge on h001's downlink (1 Gb/s): they contend with
    each other from t=0, and from t=0.05 the link runs at quarter
    capacity until after both complete — so every blame component except
    queueing must come out nonzero.
    """
    engine = Engine()
    tracer = CausalTracer()
    tele = Telemetry(causal=tracer)
    fabric = NetworkFabric(
        engine, single_switch(4), make_coflow_allocator("varys"),
        telemetry=tele,
    )
    tracker = CoflowTracker(fabric, telemetry=tele)
    plan = degrade_plan("sw0->h001", at=0.05, factor=0.25, restore_at=9.0)
    injector = FaultInjector(plan, fabric, telemetry=tele)
    injector.arm()
    tracer.begin_run(
        0.0,
        placement="direct",
        network_policy="varys",
        fabric=fabric,
    )
    tracker.submit_coflow([("h000", "h001", 2e8)], tag="job-a")
    tracker.submit_coflow([("h002", "h001", 2e8)], tag="job-b")
    engine.run()
    tracer.end_run(engine.now, records=len(fabric.records))
    assert len(tracker.records) == 2
    return tracer


class TestFaultAttribution:
    def test_degrade_window_gets_nonzero_blame(self, faulted_coflow_tracer):
        analysis = analyze(faulted_coflow_tracer.events)[0]
        assert len(analysis.flows) == 2
        assert len(analysis.coflows) == 2
        # Varys serializes the two coflows on the shared downlink.
        # Flow 0 runs alone: 5e7 bits at 1 Gb/s until the degrade at
        # t=0.05, then 1.5e8 bits at 0.25 Gb/s -> done at 0.65; its whole
        # slowdown is fault time.  Flow 1 waits behind it (pure
        # contention, charged to flow 0), then sends its 2e8 bits through
        # the degraded link -> done at 1.45.
        first = analysis.flows[0]
        assert first.fct == pytest.approx(0.65)
        assert first.serialization == pytest.approx(0.2)
        assert first.contention == pytest.approx(0.0, abs=1e-9)
        assert first.fault == pytest.approx(0.45)
        assert first.contenders == ()
        second = analysis.flows[1]
        assert second.fct == pytest.approx(1.45)
        assert second.serialization == pytest.approx(0.2)
        assert second.contention == pytest.approx(0.65)
        assert second.fault == pytest.approx(0.6)
        assert second.bottleneck_link == "sw0->h001"
        assert second.contenders[0][0] == "flow#0"
        assert second.contenders[0][1] == pytest.approx(0.65)
        assert analysis.coflows[0].cct == pytest.approx(0.65)
        assert analysis.coflows[0].fault == pytest.approx(0.45)
        assert analysis.coflows[1].cct == pytest.approx(1.45)
        assert analysis.coflows[1].fault == pytest.approx(0.6)
        assert analysis.faults  # both applied degrade events recorded

    def test_explain_renders_fault_blame(self, faulted_coflow_tracer):
        text = render_explain(analyze(faulted_coflow_tracer.events))
        assert "causal blame report" in text
        assert "fault=0.6s" in text and "fault=0.45s" in text
        assert "bottleneck=sw0->h001" in text
        assert "job-a" in text and "job-b" in text

    def test_perfetto_roundtrip(self, faulted_coflow_tracer, tmp_path):
        out = tmp_path / "trace.perfetto.json"
        count = save_perfetto(faulted_coflow_tracer.events, str(out))
        doc = json.loads(out.read_text())
        assert len(doc["traceEvents"]) == count > 0
        phases = {event["ph"] for event in doc["traceEvents"]}
        assert {"M", "X", "C", "i"} <= phases
        names = {event["name"] for event in doc["traceEvents"]}
        assert "link_degrade" in names  # fault instants present
        # Flow slices carry rate-change sub-slices.
        rate_slices = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"].startswith("rate=")
        ]
        assert rate_slices

    @pytest.mark.parametrize("golden", sorted(PERFETTO_DIGESTS))
    def test_perfetto_export_is_pinned(self, golden):
        """The export of the golden causal streams, byte for byte (the
        digests were recorded before ``to_perfetto`` moved onto the
        blame analysis's scanner)."""
        events = read_trace(str(GOLDEN_DIR / f"{golden}.causal.jsonl"))
        text = json.dumps(
            to_perfetto(events), sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == PERFETTO_DIGESTS[golden]

    def test_one_scan_feeds_analysis_and_export(self, faulted_coflow_tracer):
        """``scan_runs`` is the only reader of the stream: what it holds
        is what the blame report and the export show."""
        (scan,) = scan_runs(faulted_coflow_tracer.events)
        (analysis,) = analyze(faulted_coflow_tracer.events)
        assert set(analysis.flows) <= set(scan.flows)
        assert analysis.faults == scan.faults
        assert scan.end is not None and scan.end == scan.last_t
        # The degrade and its undo are steps on the faulted link.
        assert max(len(steps) for steps in scan.cap_steps().values()) == 3

    def test_save_load_roundtrip_preserves_analysis(
        self, faulted_coflow_tracer, tmp_path
    ):
        path = tmp_path / "causal.jsonl"
        written = faulted_coflow_tracer.save(str(path))
        events = read_trace(str(path))
        assert len(events) == written
        reloaded = analyze(events)[0]
        original = analyze(faulted_coflow_tracer.events)[0]
        for flow_id, blame in original.flows.items():
            assert reloaded.flows[flow_id].components == pytest.approx(
                blame.components
            )


# ----------------------------------------------------------------------
# The CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_explain_cli(self, faulted_coflow_tracer, tmp_path, capsys):
        from repro.__main__ import main

        faulted_coflow_tracer.save(str(tmp_path / "causal.jsonl"))
        rc = main(["explain", str(tmp_path), "--worst", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "causal blame report" in out
        assert "fault=0.6s" in out

    def test_explain_cli_task_filter(
        self, faulted_coflow_tracer, tmp_path, capsys
    ):
        from repro.__main__ import main

        path = tmp_path / "causal.jsonl"
        faulted_coflow_tracer.save(str(path))
        rc = main(["explain", str(path), "--task", "job-a"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "job-a" in out
        assert "task=job-b" not in out

    def test_trace_export_cli(self, faulted_coflow_tracer, tmp_path, capsys):
        from repro.__main__ import main

        faulted_coflow_tracer.save(str(tmp_path / "causal.jsonl"))
        rc = main(["trace", "export", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        exported = tmp_path / "causal.perfetto.json"
        assert exported.exists()
        assert str(exported) in out
        doc = json.loads(exported.read_text())
        assert doc["traceEvents"]

    def test_figure_run_writes_causal_trace(self, tmp_path, capsys):
        from repro.__main__ import main

        out_dir = tmp_path / "run"
        rc = main(
            [
                "fig5",
                "--arrivals", "8",
                "--hosts-per-rack", "3",
                "--causal", str(out_dir) + "/",
            ]
        )
        assert rc == 0
        events = read_trace(str(out_dir / "causal.jsonl"))
        analyses = analyze(events)
        # fig5 compares three placements on the shared trace.
        assert [a.placement for a in analyses] == [
            "neat", "minload", "mindist"
        ]
        # Every policy reports through the probe: the baselines' runs
        # carry one decision per placed task (one flow each), as NEAT's.
        runs = {}
        for event in events:
            if event["ev"] == "run_start":
                counts = runs[event["placement"]] = {"decision": 0, "flow": 0}
            elif event["ev"] in counts:
                counts[event["ev"]] += 1
        for placement in ("minload", "mindist"):
            assert runs[placement]["decision"] == runs[placement]["flow"] == 8
        assert "causal trace written" in capsys.readouterr().out

    def test_report_json_cli(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("fabric.flows_completed").inc(4)
        metrics = tmp_path / "m.json"
        registry.write_json(str(metrics))
        rc = main(["report", str(metrics), "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert payload["counters"]["fabric.flows_completed"] == 4
        # Degraded counters are zero-defaulted in machine output too.
        assert payload["degraded"]["fabric.flows_aborted"] == 0
        assert payload["counters"]["bus.messages_dropped"] == 0


# ----------------------------------------------------------------------
# Campaign payload integration
# ----------------------------------------------------------------------
class TestCampaignBlame:
    def test_macro_payload_carries_blame_shares(self):
        from repro.campaign.executor import execute_cell
        from repro.campaign.spec import flow_grid

        campaign = flow_grid(
            name="blame-test",
            base_config=small_config(num_arrivals=12),
            seeds=[5],
            placements=("neat", "minload"),
        )
        payload = execute_cell(campaign.cells[0])
        for name in ("neat", "minload"):
            blame = payload["per_placement"][name]["blame"]
            assert set(blame) == set(BLAME_COMPONENTS)
            shares = blame["serialization"]
            assert shares["count"] > 0
            assert 0.0 < shares["mean"] <= 1.0 + 1e-9
            json.dumps(payload)  # payload must stay JSON-safe
