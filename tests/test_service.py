"""Streaming placement service tests: scenarios, serving loop, CLI.

The contracts under test, in order of importance:

1. Determinism — same (seed, scenario) twice gives byte-identical
   decision logs and report JSON, with or without observers attached.
2. Backpressure — an open-loop overload produces nonzero rejections with
   the queue depth bounded by its capacity, for every admission policy.
3. Amortisation — batched placement sends fewer control-plane messages
   than one-at-a-time placement of the same offered stream.
4. The `repro serve` CLI end to end, including the status stream a
   finished session leaves behind (settled, not stalled).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.campaign import (
    StatusWriter,
    read_status,
    resolve_status_path,
    summarize_status,
)
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.service import PlacementServer, ServiceScenario
from repro.service.server import decisions_as_jsonl
from repro.telemetry import create_telemetry


def tiny_scenario(**overrides):
    defaults = dict(
        name="tiny",
        pods=1,
        racks_per_pod=2,
        hosts_per_rack=4,
        duration=1.0,
        seed=11,
        arrivals={"kind": "poisson", "load": 0.5},
    )
    defaults.update(overrides)
    return ServiceScenario(**defaults)


def overload_scenario(**overrides):
    # Offered rate far above the modeled controller capacity
    # (~1 / per_request_cost), with a small queue: rejections must
    # happen, queue depth must stay bounded.
    defaults = dict(
        name="overload",
        pods=1,
        racks_per_pod=2,
        hosts_per_rack=4,
        duration=0.5,
        seed=3,
        arrivals={"kind": "poisson", "rate": 2000.0},
        queue_capacity=8,
        batch_max=8,
        batch_overhead=0.01,
        per_request_cost=0.005,
    )
    defaults.update(overrides)
    return ServiceScenario(**defaults)


# ----------------------------------------------------------------------
# Scenario files
# ----------------------------------------------------------------------
class TestScenario:
    def test_json_round_trip(self):
        scenario = tiny_scenario(
            admission_policy="token-bucket",
            token_rate=50.0,
            token_burst=5,
            max_candidates=4,
            control_rtt=0.001,
        )
        clone = ServiceScenario.from_dict(scenario.to_dict())
        assert clone == scenario
        # and through actual JSON text
        again = ServiceScenario.from_dict(
            json.loads(json.dumps(scenario.to_dict()))
        )
        assert again == scenario

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(tiny_scenario().to_dict()))
        assert ServiceScenario.from_json_file(path) == tiny_scenario()
        missing = tmp_path / "nope.json"
        with pytest.raises(ConfigError, match="cannot read"):
            ServiceScenario.from_json_file(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            ServiceScenario.from_json_file(bad)

    def test_unknown_keys_rejected(self):
        spec = tiny_scenario().to_dict()
        spec["turbo"] = True
        with pytest.raises(ConfigError, match="unknown scenario keys: turbo"):
            ServiceScenario.from_dict(spec)

    def test_validation_errors(self):
        with pytest.raises(ConfigError, match="duration"):
            tiny_scenario(duration=0.0)
        with pytest.raises(ConfigError, match="batch_max"):
            tiny_scenario(batch_max=0)
        with pytest.raises(ConfigError, match="admission policy"):
            tiny_scenario(admission_policy="coin-flip")
        with pytest.raises(ConfigError, match="queue_capacity"):
            tiny_scenario(queue_capacity=0)
        with pytest.raises(ConfigError, match="token_rate"):
            tiny_scenario(admission_policy="token-bucket")

    def test_load_and_rate_are_exclusive(self):
        scenario = tiny_scenario(
            arrivals={"kind": "poisson", "load": 0.5, "rate": 10.0}
        )
        with pytest.raises(ConfigError, match="both 'load' and 'rate'"):
            scenario.build_profile()

    def test_load_scales_with_hosts(self):
        small = tiny_scenario().build_profile()
        big = tiny_scenario(hosts_per_rack=8).build_profile()
        assert big.rate == pytest.approx(small.rate * 2)


# ----------------------------------------------------------------------
# Serving loop
# ----------------------------------------------------------------------
class TestServer:
    def test_deterministic_report_and_decisions(self):
        first_server = PlacementServer(tiny_scenario())
        first = first_server.run()
        second_server = PlacementServer(tiny_scenario())
        second = second_server.run()
        assert first.to_dict() == second.to_dict()
        assert decisions_as_jsonl(first_server.last_daemon) == (
            decisions_as_jsonl(second_server.last_daemon)
        )
        assert first.decisions > 0
        assert first.batches > 0
        assert first.completed_flows == first.decisions
        assert first.offered == first.admitted + first.rejected

    def test_observers_do_not_change_the_run(self, tmp_path):
        bare = PlacementServer(tiny_scenario()).run()
        status = StatusWriter(resolve_status_path(tmp_path / "svc"))
        watched_server = PlacementServer(
            tiny_scenario(),
            telemetry=create_telemetry(),
            status=status,
            prometheus_out=str(tmp_path / "prom.txt"),
        )
        watched = watched_server.run()
        assert watched.to_dict() == bare.to_dict()

    @pytest.mark.parametrize(
        "policy,extra",
        [
            ("drop-tail", {}),
            ("shed-fct", {}),
            ("token-bucket", {"token_rate": 50.0, "token_burst": 5}),
        ],
    )
    def test_overload_rejects_with_bounded_queue(self, policy, extra):
        scenario = overload_scenario(admission_policy=policy, **extra)
        report = PlacementServer(scenario).run()
        assert report.rejected > 0
        assert report.queue_depth_peak <= scenario.queue_capacity
        assert report.decisions > 0
        assert report.offered > report.admitted

    def test_shed_fct_keeps_short_flows(self):
        droptail = PlacementServer(overload_scenario()).run()
        shed = PlacementServer(
            overload_scenario(admission_policy="shed-fct")
        ).run()
        # Shedding the queued giant for a short newcomer biases the
        # admitted mix toward short flows.
        assert shed.predicted_fct["mean"] < droptail.predicted_fct["mean"]

    def test_batching_amortises_control_messages(self):
        batched = PlacementServer(tiny_scenario()).run()
        serial = PlacementServer(
            tiny_scenario(batch_max=1, batch_wait=0.0)
        ).run()
        assert batched.decisions > 0 and serial.decisions > 0
        per_decision_batched = batched.control_messages / batched.decisions
        per_decision_serial = serial.control_messages / serial.decisions
        assert per_decision_batched < per_decision_serial

    def test_telemetry_counters_match_report(self):
        telemetry = create_telemetry()
        report = PlacementServer(
            overload_scenario(), telemetry=telemetry
        ).run()
        counters = telemetry.registry.as_dict()["counters"]
        gauges = telemetry.registry.as_dict()["gauges"]
        assert counters["service.decisions"] == report.decisions
        assert counters["service.batches"] == report.batches
        assert counters["service.tasks_offered"] == report.offered
        assert counters["service.tasks_rejected"] == report.rejected
        assert gauges["service.queue_depth"] == report.queue_depth_peak

    def test_status_stream_is_settled_not_stalled(self, tmp_path):
        status = StatusWriter(resolve_status_path(tmp_path / "svc"))
        PlacementServer(
            tiny_scenario(), status=status, status_interval=0.25
        ).run()
        records = read_status(resolve_status_path(tmp_path / "svc"))
        states = [
            r["state"] for r in records if r.get("record") == "cell"
        ]
        assert states[-1] == "finished"
        assert "running" in states
        summary = summarize_status(records, now=1e9, stall_threshold=1)
        assert summary["stalled"] == []


# ----------------------------------------------------------------------
# Determinism pin: the session's deterministic outputs, byte for byte
# ----------------------------------------------------------------------
EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

#: The one wall-clock value of a session's registry.
WALL_HISTOGRAM = "service.decision_latency_seconds"

#: sha256 of each deterministic output of 3 s of
#: ``examples/service_diurnal.json`` (alone, and under
#: ``examples/service_outage.json``), canonical JSON, recorded at the
#: commit before PR 21 moved ``repro.service`` onto the probe.
SERVE_DIGESTS = {
    "plain": {
        "report":
            "e4f58ea00cb0bb79b11bb1021d87e100abf34a9f754213a663f8ba845275bea8",
        "decisions":
            "0fcff6d4733a4f961a91db294f96667c8c7a3bc592d2ab8c76561c3443d63ce7",
        "registry":
            "3dcd00ec4534cd38662db97f6cbedb202ddfe9a4ae03212dbec37a9249727b42",
        "rollups":
            "85e5ae54cdfaf8128665399ca170ae5fb3bc08670f1cf231ed968a17f38ff0b9",
    },
    "outage": {
        "report":
            "4a0875f307fdd6ac326f35a11af0c272492e6f30415d8b333f1c50937687a872",
        "decisions":
            "52e47a15897ba919f17e64fb15e1d019421544b33899c4ab740928ec8838ea3f",
        "registry":
            "f345cc1a9e7dc9fe1633ee0552fc04b89a8b263f8b5e8630a2581593ef8f1ef3",
        "rollups":
            "721d07d6ef70f1195e1974cc9bab3d016bde275c5f2ba169683f259542948856",
    },
}


def _digest(value) -> str:
    if not isinstance(value, str):
        value = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(value.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(SERVE_DIGESTS))
def test_serve_outputs_are_pinned(case, tmp_path):
    scenario = dataclasses.replace(
        ServiceScenario.from_json_file(str(EXAMPLES / "service_diurnal.json")),
        duration=3.0,
    )
    faults = None
    if case == "outage":
        faults = FaultPlan.load(str(EXAMPLES / "service_outage.json"))
    telemetry = create_telemetry()
    server = PlacementServer(
        scenario,
        telemetry=telemetry,
        faults=faults,
        rollups_out=str(tmp_path / "rollups.json"),
    )
    report = server.run()
    snapshot = telemetry.registry.as_dict()
    snapshot["histograms"].pop(WALL_HISTOGRAM)
    rollups = server.last_rollups.to_dict()
    rollups["histograms"].pop(WALL_HISTOGRAM)
    assert {
        "report": _digest(report.to_dict()),
        "decisions": _digest(decisions_as_jsonl(server.last_daemon)),
        "registry": _digest(snapshot),
        "rollups": _digest(rollups),
    } == SERVE_DIGESTS[case]


# ----------------------------------------------------------------------
# The repro serve CLI
# ----------------------------------------------------------------------
class TestServeCli:
    def write_scenario(self, tmp_path, **overrides):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(tiny_scenario(**overrides).to_dict()))
        return str(path)

    def test_serve_byte_identical_outputs(self, tmp_path, capsys):
        scenario = self.write_scenario(tmp_path)
        outs = []
        for tag in ("a", "b"):
            report = tmp_path / f"report-{tag}.json"
            decisions = tmp_path / f"decisions-{tag}.jsonl"
            assert main([
                "serve", scenario,
                "--report-out", str(report),
                "--decisions-out", str(decisions),
            ]) == 0
            outs.append((report.read_bytes(), decisions.read_bytes()))
        capsys.readouterr()
        assert outs[0] == outs[1]
        assert json.loads(outs[0][0])["decisions"] > 0
        assert outs[0][1].count(b"\n") == json.loads(outs[0][0])["decisions"]

    def test_serve_json_and_overrides(self, tmp_path, capsys):
        scenario = self.write_scenario(tmp_path)
        assert main([
            "serve", scenario, "--json", "--duration", "0.5", "--seed", "9",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 9
        assert payload["duration"] == 0.5
        assert payload["decisions"] > 0

    def test_serve_status_and_metrics(self, tmp_path, capsys):
        scenario = self.write_scenario(tmp_path)
        status_dir = tmp_path / "status"
        metrics = tmp_path / "metrics.json"
        prom = tmp_path / "metrics.prom"
        assert main([
            "serve", scenario,
            "--status", str(status_dir),
            "--status-interval", "0.25",
            "--metrics-out", str(metrics),
            "--prometheus-out", str(prom),
        ]) == 0
        capsys.readouterr()
        # the finished session reads as settled, not stalled
        assert main([
            "status", str(status_dir), "--stall-threshold", "1",
        ]) == 0
        assert "finished" in capsys.readouterr().out
        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"]["service.decisions"] > 0
        text = prom.read_text()
        assert "repro_service_decisions_total" in text
        assert "repro_service_tasks_rejected_total 0" in text

    def test_serve_rejects_bad_inputs(self, tmp_path, capsys):
        scenario = self.write_scenario(tmp_path)
        missing = tmp_path / "missing.json"
        with pytest.raises(SystemExit) as exc:
            main(["serve", str(missing)])
        assert exc.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["serve", scenario, "--status-interval", "0"])
        assert exc.value.code == 2
        capsys.readouterr()
