"""End-to-end live observability: the serve loop with SLOs, the flight
recorder, rollups, ``repro top``, and ``repro slo check``.

The contracts, in order of importance:

1. Differential determinism — arming the whole live layer (SLO engine,
   recorder, rollup export, stall watchdog) changes no deterministic
   output: report JSON and decision log stay byte-identical.
2. An induced fault (rack outage dropping tasks) fires the burn-rate
   alert, lands in the status stream, and dumps a post-mortem bundle
   whose (scenario, seed, faults) replays the session exactly and whose
   events ``repro explain`` can decompose.
3. A wedged serving loop (batching that never flushes) trips the stall
   watchdog: a stall status record and a stall bundle.
4. ``repro top --once`` and ``repro slo check`` give CI-friendly exit
   codes off the artifacts a session leaves behind.
"""

from __future__ import annotations

import gc
import json

import pytest

from repro.__main__ import main
from repro.campaign import read_status, resolve_status_path
from repro.service import ServiceScenario

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


BREACH_SLOS = {
    "slos": [
        {
            "name": "drop-rate",
            "kind": "ratio",
            "metric": "faults.tasks_dropped",
            "total": "service.tasks_offered",
            "budget": 0.01,
            "fast_window": 0.5,
            "slow_window": 1.0,
        },
        {
            "name": "queue-depth",
            "kind": "gauge",
            "metric": "service.queue_depth",
            "bound": 1000.0,
            "fast_window": 0.5,
            "slow_window": 1.0,
        },
    ]
}

#: Half the tiny topology's hosts go dark at t=1.0: every arrival whose
#: candidates all landed on a dead rack is dropped, so the drop-rate SLO
#: must breach its 1% budget.
OUTAGE = {
    "name": "rack-outage",
    "seed": 7,
    "events": [
        {"kind": "host_down", "time": 1.0, "host": f"h00{i}"}
        for i in range(4)
    ],
}


def scenario_dict(**overrides):
    spec = dict(
        name="tiny",
        pods=1,
        racks_per_pod=2,
        hosts_per_rack=4,
        duration=4.0,
        seed=11,
        arrivals={"kind": "poisson", "load": 0.5},
    )
    spec.update(overrides)
    return ServiceScenario(**spec).to_dict()


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def breach_run(tmp_path, capsys):
    """One served session with an induced outage and the full live
    layer armed; yields the artifact paths."""
    scenario = write_json(tmp_path / "scenario.json", scenario_dict())
    faults = write_json(tmp_path / "faults.json", OUTAGE)
    slos = write_json(tmp_path / "slo.json", BREACH_SLOS)
    art = {
        "scenario": scenario,
        "faults": faults,
        "slos": slos,
        "status": tmp_path / "status",
        "recorder": tmp_path / "recorder",
        "rollups": tmp_path / "rollups.json",
        "decisions": tmp_path / "decisions.jsonl",
        "report": tmp_path / "report.json",
    }
    assert main([
        "serve", scenario,
        "--faults", faults,
        "--slo", slos,
        "--recorder", str(art["recorder"]),
        "--rollups-out", str(art["rollups"]),
        "--status", str(art["status"]),
        "--status-interval", "0.25",
        "--decisions-out", str(art["decisions"]),
        "--report-out", str(art["report"]),
    ]) == 0
    art["stderr"] = capsys.readouterr().err
    return art


class TestDifferentialDeterminism:
    def test_live_layer_changes_no_records(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "scenario.json", scenario_dict())
        faults = write_json(tmp_path / "faults.json", OUTAGE)
        outs = []
        for tag, extra in (
            ("plain", []),
            ("live", [
                "--slo", "default",
                "--recorder", str(tmp_path / "recorder"),
                "--rollups-out", str(tmp_path / "rollups.json"),
                "--stall-after", "10",
                "--status", str(tmp_path / "status"),
            ]),
        ):
            report = tmp_path / f"report-{tag}.json"
            decisions = tmp_path / f"decisions-{tag}.jsonl"
            assert main([
                "serve", scenario, "--faults", faults,
                "--report-out", str(report),
                "--decisions-out", str(decisions),
            ] + extra) == 0
            outs.append((report.read_bytes(), decisions.read_bytes()))
        capsys.readouterr()
        assert outs[0] == outs[1]
        assert json.loads(outs[0][0])["decisions"] > 0


class TestBreachEndToEnd:
    def test_alert_fires_into_status_stream(self, breach_run):
        records = read_status(resolve_status_path(str(breach_run["status"])))
        alerts = [r for r in records if r.get("record") == "slo_alert"]
        assert any(
            a["slo"] == "drop-rate" and a["state"] == "firing"
            for a in alerts
        )
        fired = next(a for a in alerts if a["state"] == "firing")
        assert fired["burn_fast"] >= 1.0 and fired["burn_slow"] >= 1.0
        assert fired["t"] >= 1.0  # not before the outage
        # ... and the heartbeat records carry the SLO summary for `top`.
        assert any(
            r.get("record") == "cell" and r.get("slo") is not None
            for r in records
        )
        assert "slo firing: drop-rate" in breach_run["stderr"]

    def test_bundle_written_and_replayable(self, breach_run, tmp_path,
                                           capsys):
        recorder = breach_run["recorder"]
        bundles = sorted(p for p in recorder.iterdir() if p.is_dir())
        assert bundles, "no post-mortem bundle written"
        bundle = bundles[0]
        assert "slo-breach-drop-rate" in bundle.name
        names = sorted(p.name for p in bundle.iterdir())
        assert names == [
            "bundle.json", "events.jsonl", "faults.json",
            "metrics.json", "scenario.json",
        ]
        manifest = json.loads((bundle / "bundle.json").read_text())
        assert manifest["offending"]["slo"] == "drop-rate"
        assert manifest["context"]["seed"] == 11
        assert "--faults" in manifest["replay"]
        metrics = json.loads((bundle / "metrics.json").read_text())
        assert metrics["counters"]["faults.tasks_dropped"] > 0

        # The bundle replays the exact session: same decisions, byte for
        # byte, from only what the bundle contains.
        replay = tmp_path / "replay.jsonl"
        assert main([
            "serve", str(bundle / "scenario.json"),
            "--seed", str(manifest["context"]["seed"]),
            "--faults", str(bundle / "faults.json"),
            "--decisions-out", str(replay),
        ]) == 0
        capsys.readouterr()
        assert replay.read_bytes() == breach_run["decisions"].read_bytes()

    def test_explain_consumes_bundle_events(self, breach_run, capsys):
        bundle = sorted(breach_run["recorder"].iterdir())[0]
        assert main(["explain", str(bundle / "events.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "blame" in out or "fct" in out.lower()

    def test_slo_check_flags_breach(self, breach_run, capsys):
        assert main([
            "slo", "check", breach_run["slos"], str(breach_run["rollups"]),
            "--json",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["breached"] is True
        by_name = {r["slo"]: r for r in payload["slos"]}
        assert by_name["drop-rate"]["firing"] is True
        assert by_name["queue-depth"]["firing"] is False

    def test_top_once_renders_frame(self, breach_run, capsys):
        assert main(["top", str(breach_run["status"]), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out and "(settled)" in out
        assert "drop-rate" in out
        assert "slo_alert" in out


class TestHealthyRun:
    def test_slo_check_passes_and_no_bundles(self, tmp_path, capsys):
        # Collect the earlier tests' garbage now: a full collection of it
        # landing mid-serve (83 ms measured) holds one 16-decision batch
        # over the stock 5 ms latency SLO, which fires the alert.
        gc.collect()
        scenario = write_json(tmp_path / "scenario.json", scenario_dict())
        rollups = tmp_path / "rollups.json"
        recorder = tmp_path / "recorder"
        assert main([
            "serve", scenario,
            "--slo", "default",
            "--recorder", str(recorder),
            "--rollups-out", str(rollups),
            "--status-interval", "0.25",
        ]) == 0
        capsys.readouterr()
        assert not recorder.exists() or not any(recorder.iterdir())
        assert main(["slo", "check", "default", str(rollups)]) == 0
        capsys.readouterr()

    def test_slo_check_rejects_bad_inputs(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["slo", "check", "default", str(missing)]) == 2
        capsys.readouterr()


class TestStallWatchdog:
    def test_wedged_batcher_trips_stall(self, tmp_path, capsys):
        # Batches flush at 1000 requests or after 50 simulated seconds —
        # neither happens inside a 2 s session, so arrivals queue and no
        # decision ever lands: the watchdog must flag it and dump.
        scenario = write_json(
            tmp_path / "scenario.json",
            scenario_dict(
                name="wedged", duration=2.0,
                batch_max=1000, batch_wait=50.0,
            ),
        )
        status = tmp_path / "status"
        recorder = tmp_path / "recorder"
        assert main([
            "serve", scenario,
            "--recorder", str(recorder),
            "--stall-after", "0.5",
            "--status", str(status),
            "--status-interval", "0.25",
        ]) == 0
        capsys.readouterr()
        records = read_status(resolve_status_path(str(status)))
        stalls = [r for r in records if r.get("record") == "stall"]
        assert stalls
        assert stalls[0]["stalled_for"] >= 0.5
        assert stalls[0]["queue_depth"] > 0
        bundles = [p.name for p in sorted(recorder.iterdir())]
        assert any("stall" in name for name in bundles)
