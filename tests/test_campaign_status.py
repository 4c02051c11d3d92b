"""Campaign health-stream tests: heartbeats, stall detection, CLI.

The scenario that motivates the whole feature is the killed campaign: a
worker that dies mid-cell leaves that cell's last status record
non-terminal (``running``), and ``repro status`` must flag it as stalled
once it has been silent beyond the threshold.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import (
    STATUS_FILENAME,
    StatusWriter,
    canonical_json,
    flow_grid,
    read_status,
    render_status,
    resolve_status_path,
    run_campaign,
    summarize_status,
)
from repro.experiments.config import MacroConfig


def tiny_campaign(**overrides):
    defaults = dict(
        base_config=MacroConfig(
            pods=1, racks_per_pod=2, hosts_per_rack=4, num_arrivals=30,
        ),
        seeds=[1],
        network_policies=["fair"],
        loads=[0.5, 0.7],
        placements=("minload",),
    )
    defaults.update(overrides)
    return flow_grid(**defaults)


# ----------------------------------------------------------------------
# Writer / reader
# ----------------------------------------------------------------------
class TestStatusFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "status.jsonl"
        writer = StatusWriter(path)
        writer.emit("campaign_start", cells=2, jobs=1)
        writer.emit("cell", cell=0, state="running")
        records = read_status(path)
        assert [r["record"] for r in records] == ["campaign_start", "cell"]
        assert all("wall" in r for r in records)

    def test_truncated_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "status.jsonl"
        StatusWriter(path).emit("cell", cell=0, state="running")
        with open(path, "a", encoding="utf-8") as fp:
            fp.write('{"record": "cell", "cel')  # killed mid-write
        records = read_status(path)
        assert len(records) == 1
        assert records[0]["state"] == "running"

    def test_creates_parent_directory(self, tmp_path):
        path = tmp_path / "deep" / "nest" / "status.jsonl"
        StatusWriter(path).emit("campaign_start")
        assert read_status(path)

    def test_resolve_status_path(self, tmp_path):
        assert resolve_status_path(tmp_path) == tmp_path / STATUS_FILENAME
        file_path = tmp_path / "custom.jsonl"
        assert resolve_status_path(file_path) == file_path


# ----------------------------------------------------------------------
# Summaries and stall detection
# ----------------------------------------------------------------------
class TestSummaries:
    def test_terminal_cells_never_stall(self):
        records = [
            {"record": "campaign_start", "wall": 0.0, "cells": 1, "jobs": 1},
            {"record": "cell", "wall": 1.0, "cell": 0, "state": "running"},
            {"record": "cell", "wall": 2.0, "cell": 0, "state": "ok"},
            {"record": "campaign_end", "wall": 3.0},
        ]
        summary = summarize_status(records, now=1e9, stall_threshold=10)
        assert summary["stalled"] == []
        assert summary["meta"]["ended"] is True
        assert summary["counts"] == {"ok": 1}

    def test_non_terminal_cell_stalls_after_threshold(self):
        records = [
            {"record": "cell", "wall": 100.0, "cell": 0, "state": "running"},
        ]
        fresh = summarize_status(records, now=150.0, stall_threshold=60)
        assert fresh["stalled"] == []
        stale = summarize_status(records, now=161.0, stall_threshold=60)
        assert stale["stalled"] == [0]
        assert stale["cells"][0].stalled

    def test_latest_record_wins(self):
        records = [
            {"record": "cell", "wall": 1.0, "cell": 0, "state": "running"},
            {"record": "cell", "wall": 2.0, "cell": 0, "state": "finished",
             "events_processed": 42},
            {"record": "cell", "wall": 3.0, "cell": 0, "state": "failed",
             "error": "boom"},
        ]
        summary = summarize_status(records, now=4.0, stall_threshold=10)
        cell = summary["cells"][0]
        assert cell.state == "failed"
        assert cell.events_processed == 42
        assert cell.error == "boom"
        assert not cell.stalled  # failed is terminal

    def test_finished_last_record_never_stalls(self):
        # A worker-side stream whose final record is "finished" (the
        # supervisor never appended a terminal ok/failed — e.g. a
        # `repro serve` session) is settled, not stalled, no matter how
        # old it is.
        records = [
            {"record": "campaign_start", "wall": 0.0, "cells": 1, "jobs": 1},
            {"record": "cell", "wall": 1.0, "cell": 0, "state": "running"},
            {"record": "cell", "wall": 2.0, "cell": 0, "state": "finished",
             "events_processed": 7},
        ]
        summary = summarize_status(records, now=1e9, stall_threshold=1)
        assert summary["stalled"] == []
        cell = summary["cells"][0]
        assert cell.state == "finished"
        assert not cell.stalled

    def test_render_mentions_stalls(self):
        records = [
            {"record": "cell", "wall": 0.0, "cell": 3, "state": "running",
             "spec": "seed=1"},
        ]
        summary = summarize_status(records, now=1000.0, stall_threshold=1)
        text = render_status(summary, now=1000.0)
        assert "STALLED" in text
        assert "seed=1" in text


# ----------------------------------------------------------------------
# Integration with run_campaign
# ----------------------------------------------------------------------
class TestCampaignIntegration:
    def test_serial_run_emits_full_lifecycle(self, tmp_path):
        path = tmp_path / "status.jsonl"
        campaign = tiny_campaign()
        run_campaign(campaign, jobs=1, status_path=path)
        records = read_status(path)
        kinds = [r["record"] for r in records]
        assert kinds[0] == "campaign_start"
        assert kinds[-1] == "campaign_end"
        per_cell_states = {}
        for rec in records:
            if rec["record"] == "cell":
                per_cell_states.setdefault(rec["cell"], []).append(
                    rec["state"]
                )
        for states in per_cell_states.values():
            assert states == ["running", "finished", "ok"]

    def test_worker_heartbeats_carry_spans_and_events(self, tmp_path):
        path = tmp_path / "status.jsonl"
        run_campaign(tiny_campaign(), jobs=2, status_path=path)
        finished = [
            r for r in read_status(path)
            if r["record"] == "cell" and r["state"] == "finished"
        ]
        assert finished
        for rec in finished:
            assert rec["events_processed"] > 0
            assert "placement.place" in rec["spans"]["labels"]

    def test_status_does_not_perturb_payloads(self, tmp_path):
        campaign = tiny_campaign()
        plain = run_campaign(campaign, jobs=1)
        observed = run_campaign(
            campaign, jobs=1, status_path=tmp_path / "s.jsonl"
        )
        assert [canonical_json(p) for p in plain.payloads()] == [
            canonical_json(p) for p in observed.payloads()
        ]

    def test_failed_cell_reaches_terminal_failed_state(self, tmp_path):
        def explode(spec):
            raise RuntimeError("boom")

        path = tmp_path / "status.jsonl"
        report = run_campaign(
            tiny_campaign(),
            jobs=1,
            cell_fn=explode,
            retries=0,
            status_path=path,
        )
        assert all(o.status == "failed" for o in report.outcomes)
        summary = summarize_status(read_status(path), now=time.time())
        assert all(c.state == "failed" for c in summary["cells"])
        assert summary["stalled"] == []  # quarantine is terminal, not a stall


# ----------------------------------------------------------------------
# The killed campaign (the motivating scenario)
# ----------------------------------------------------------------------
_KILLED_SCRIPT = """
import sys, time
from repro.campaign import flow_grid, run_campaign
from repro.experiments.config import MacroConfig

def sleepy(spec):
    time.sleep(120)
    return {}

campaign = flow_grid(
    base_config=MacroConfig(num_arrivals=10), seeds=[1], loads=[0.5],
)
run_campaign(campaign, jobs=1, cell_fn=sleepy, status_path=sys.argv[1])
"""


class TestKilledCampaign:
    def test_kill_leaves_non_terminal_record_and_stall_flags_it(
        self, tmp_path
    ):
        path = tmp_path / "status.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILLED_SCRIPT, str(path)], env=env
        )
        try:
            deadline = time.time() + 30
            while time.time() < deadline:
                if path.exists() and any(
                    r.get("state") == "running" for r in read_status(path)
                ):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("campaign never reported a running cell")
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)

        records = read_status(path)
        last_cell = [r for r in records if r["record"] == "cell"][-1]
        assert last_cell["state"] == "running"  # non-terminal: no ok/failed
        assert not any(r["record"] == "campaign_end" for r in records)
        summary = summarize_status(
            records, now=time.time() + 1.0, stall_threshold=0.5
        )
        assert summary["stalled"] == [last_cell["cell"]]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestStatusCli:
    def test_status_exit_codes(self, tmp_path, capsys):
        from repro.__main__ import main

        writer = StatusWriter(tmp_path / STATUS_FILENAME)
        writer.emit("campaign_start", campaign="t", cells=1, jobs=1)
        writer.emit("cell", cell=0, state="running", spec="seed=1")
        # fresh and within threshold: healthy
        assert main(["status", str(tmp_path)]) == 0
        # threshold zero: the running cell counts as stalled
        assert main(
            ["status", str(tmp_path), "--stall-threshold", "0"]
        ) == 1
        out = capsys.readouterr().out
        assert "STALLED" in out

    def test_corrupt_middle_line_is_an_error(self, tmp_path, capsys):
        """Only a truncated tail is tolerated: a damaged record mid-file
        would hide every later one, so it is refused, naming the line."""
        from repro.__main__ import main

        path = tmp_path / STATUS_FILENAME
        writer = StatusWriter(path)
        writer.emit("campaign_start", campaign="t", cells=1, jobs=1)
        with open(path, "a", encoding="utf-8") as fp:
            fp.write('{"record": "cell", "cel\n')
        writer.emit("cell", cell=0, state="running", spec="seed=1")
        with pytest.raises(SystemExit) as exc:
            main(["status", str(tmp_path)])
        assert exc.value.code == 2
        assert f"{path}:2: malformed" in capsys.readouterr().err

    def test_run_with_status_flag_writes_file(self, tmp_path, capsys):
        from repro.__main__ import main

        rc = main([
            "run", "--seeds", "1", "--networks", "fair", "--loads", "0.5",
            "--placements", "minload", "--pods", "1", "--racks-per-pod", "2",
            "--hosts-per-rack", "4", "--arrivals", "20", "--no-cache",
            "--status", str(tmp_path),
        ])
        assert rc == 0
        records = read_status(tmp_path / STATUS_FILENAME)
        assert records[0]["record"] == "campaign_start"
        assert records[-1]["record"] == "campaign_end"
        capsys.readouterr()
        assert main(["status", str(tmp_path)]) == 0
