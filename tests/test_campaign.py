"""Tests for the campaign orchestrator: determinism, cache, supervision.

The worker-injection helpers (`_hang_*`, `_exit_cell`, ...) must be
module-level so worker processes can resolve them by reference; they
coordinate with the parent through files under ``REPRO_TEST_SCRATCH``
(inherited by forked/spawned workers via the environment).
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaign import (
    Campaign,
    MacroSummary,
    ResultCache,
    RunSpec,
    build_all_campaign,
    canonical_json,
    derive_seeds,
    flow_grid,
    render_campaign_report,
    run_campaign,
    spec_key,
)
from repro.errors import ConfigError
from repro.experiments.config import MacroConfig
from repro.experiments.repetitions import aggregate, repeat_flow_macro

TINY = MacroConfig(
    pods=1, racks_per_pod=2, hosts_per_rack=4,
    workload="websearch", num_arrivals=50,
)


def _tiny_grid(**overrides) -> Campaign:
    options = dict(
        base_config=TINY,
        seeds=[1, 2],
        network_policies=["fair"],
        loads=[0.5, 0.7],
        placements=("minload", "mindist"),
    )
    options.update(overrides)
    return flow_grid(**options)


# ----------------------------------------------------------------------
# Injectable cell functions (module-level: picklable into workers)
# ----------------------------------------------------------------------
def _echo_cell(spec: RunSpec) -> dict:
    return {"seed": spec.config.seed, "label": spec.describe()}


def _raise_cell(spec: RunSpec) -> dict:
    raise ValueError(f"boom seed={spec.config.seed}")


def _exit_cell(spec: RunSpec) -> dict:
    os._exit(17)  # hard crash: no exception, no cleanup


def _scratch() -> Path:
    return Path(os.environ["REPRO_TEST_SCRATCH"])


def _hang_forever(spec: RunSpec) -> dict:
    time.sleep(300)
    return {"unreachable": True}


def _hang_once(spec: RunSpec) -> dict:
    """Hang on the first attempt, succeed on the retry (fresh worker)."""
    marker = _scratch() / f"attempted-{spec.config.seed}"
    if marker.exists():
        return {"seed": spec.config.seed, "attempt": 2}
    marker.touch()
    time.sleep(300)
    return {"unreachable": True}


def _hang_first_cell_once(spec: RunSpec) -> dict:
    """Cell 0 (load 0.5) hangs once; its neighbours take 0.6 s each and
    refuse to run twice."""
    if spec.config.load == 0.5:
        return _hang_once(spec)
    marker = _scratch() / f"ran-{spec.config.load!r}"
    os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    time.sleep(0.6)
    return {"load": spec.config.load}


def _flaky_cell(spec: RunSpec) -> dict:
    """Raise on the first attempt, succeed on the second (same worker ok)."""
    marker = _scratch() / f"flaky-{spec.config.seed}"
    if marker.exists():
        return {"seed": spec.config.seed, "attempt": 2}
    marker.touch()
    raise RuntimeError("transient")


@pytest.fixture
def scratch(tmp_path, monkeypatch) -> Path:
    monkeypatch.setenv("REPRO_TEST_SCRATCH", str(tmp_path))
    return tmp_path


# ----------------------------------------------------------------------
# Specs, hashing, seeds
# ----------------------------------------------------------------------
class TestSpec:
    def test_grid_shape_and_order(self):
        campaign = _tiny_grid()
        assert len(campaign) == 4
        axes = [
            (c.config.seed, c.config.load) for c in campaign.cells
        ]
        assert axes == [(1, 0.5), (1, 0.7), (2, 0.5), (2, 0.7)]

    def test_grid_needs_exactly_one_seed_axis(self):
        with pytest.raises(ConfigError):
            flow_grid(base_config=TINY)
        with pytest.raises(ConfigError):
            flow_grid(base_config=TINY, seeds=[1], repetitions=2)

    def test_derived_seeds_are_stable_and_distinct(self):
        seeds = derive_seeds(42, 4)
        assert seeds == derive_seeds(42, 4)
        assert len(set(seeds)) == 4
        assert seeds != derive_seeds(43, 4)

    def test_figure_kind_requires_figure_id(self):
        with pytest.raises(ConfigError):
            RunSpec(kind="figure", config=TINY)
        with pytest.raises(ConfigError):
            RunSpec(kind="flow_macro", config=TINY, figure="fig5")

    def test_spec_key_stable_and_sensitive(self):
        spec = RunSpec(kind="flow_macro", config=TINY)
        assert spec_key(spec) == spec_key(spec)
        # Every content field flips the key...
        for changed in (
            replace(spec, config=replace(TINY, load=0.71)),
            replace(spec, config=replace(TINY, seed=43)),
            replace(spec, config=replace(TINY, num_arrivals=51)),
            replace(spec, network_policy="las"),
            replace(spec, placements=("minload",)),
            replace(spec, predictor="srpt"),
        ):
            assert spec_key(changed) != spec_key(spec)
        # ...while the display label never does.
        assert spec_key(replace(spec, label="renamed")) == spec_key(spec)
        # A package-version bump also invalidates.
        assert spec_key(spec, version="0.0.0") != spec_key(spec)

    def test_spec_key_separates_faulted_cell_from_twin(self):
        from repro.faults import FaultPlan, LinkDegrade, MessageLoss

        spec = RunSpec(kind="flow_macro", config=TINY)
        plan = FaultPlan(
            events=(
                LinkDegrade(time=1.0, link="h000->tor0", factor=0.5),
                MessageLoss(start=0.0, p=0.5, kinds=("node_state",)),
            ),
            seed=3,
            name="brownout",
        )
        faulted = replace(spec, faults=plan)
        # A faulted cell never shares a cache entry with its fault-free
        # twin, and the plan's content (events, seed) is what matters...
        assert spec_key(faulted) != spec_key(spec)
        assert spec_key(
            replace(spec, faults=FaultPlan(plan.events, seed=4, name="brownout"))
        ) != spec_key(faulted)
        assert spec_key(
            replace(spec, faults=FaultPlan(plan.events[:1], seed=3))
        ) != spec_key(faulted)
        # ...while renaming the plan (display only) never flips the key.
        assert spec_key(
            replace(spec, faults=FaultPlan(plan.events, seed=3, name="other"))
        ) == spec_key(faulted)

    def test_flow_grid_fault_axis(self):
        from repro.faults import FaultPlan, MessageLoss

        plan = FaultPlan(
            events=(MessageLoss(start=0.0, p=1.0),), name="lossy"
        )
        campaign = flow_grid(
            base_config=TINY, seeds=[1], faults=[None, plan]
        )
        assert len(campaign) == 2
        twin, faulted = campaign.cells
        assert twin.faults is None
        assert faulted.faults == plan
        assert "faults=lossy" in faulted.label
        assert spec_key(twin) != spec_key(faulted)


# ----------------------------------------------------------------------
# Byte-identity: cached == fresh (worker-count identity: the
# execution-shape matrix in test_campaign_queue.py)
# ----------------------------------------------------------------------
class TestByteIdentity:
    def test_cached_payloads_match_fresh_bytes(self, tmp_path):
        campaign = _tiny_grid(seeds=[3], loads=[0.6])
        fresh = run_campaign(campaign, jobs=1)
        cache = ResultCache(tmp_path)
        run_campaign(campaign, jobs=1, cache=cache)
        warm = run_campaign(campaign, jobs=1, cache=ResultCache(tmp_path))
        assert [canonical_json(p) for p in warm.payloads()] == [
            canonical_json(p) for p in fresh.payloads()
        ]
        assert [o.status for o in warm.outcomes] == ["cached"]


# ----------------------------------------------------------------------
# Cache behaviour
# ----------------------------------------------------------------------
class TestCache:
    def test_rerun_hits_and_config_change_misses(self, tmp_path):
        campaign = _tiny_grid()
        first = ResultCache(tmp_path)
        run_campaign(campaign, jobs=1, cache=first)
        assert first.stats.misses == 4 and first.stats.hits == 0
        assert first.stats.writes == 4
        assert len(first) == 4

        second = ResultCache(tmp_path)
        run_campaign(campaign, jobs=1, cache=second)
        assert second.stats.hits == 4 and second.stats.misses == 0

        # Any config field change forces a recompute of the changed cells.
        edited = _tiny_grid(
            base_config=replace(TINY, num_arrivals=51)
        )
        third = ResultCache(tmp_path)
        run_campaign(edited, jobs=1, cache=third)
        assert third.stats.hits == 0 and third.stats.misses == 4

    @pytest.mark.parametrize("shape", ["jobs1", "jobs2", "resumed"])
    def test_cache_stats_come_from_the_done_markers(self, tmp_path, shape):
        # Workers' own hit/miss counters die with their processes and
        # the supervisor reads every result back, so neither can be the
        # source: the report counts cells by how each was obtained, and
        # every execution shape must print the same numbers.
        campaign = _tiny_grid()
        if shape == "resumed":
            options = dict(jobs=2, directory=tmp_path / "q")
            rerun = dict(jobs=1, directory=tmp_path / "q", resume=True)
        else:
            options = dict(jobs=int(shape[-1]), cache=ResultCache(tmp_path))
            rerun = dict(jobs=int(shape[-1]), cache=ResultCache(tmp_path))
        first = run_campaign(campaign, cell_fn=_echo_cell, **options)
        assert str(first.cache_stats) == "hits=0 misses=4 writes=4"
        second = run_campaign(
            None if shape == "resumed" else campaign,
            cell_fn=_echo_cell,
            **rerun,
        )
        assert str(second.cache_stats) == "hits=4 misses=0 writes=0"
        if "cache" in rerun:
            assert str(rerun["cache"].stats) == "hits=4 misses=0 writes=0"

    def test_corrupt_blob_is_a_miss(self, tmp_path):
        campaign = _tiny_grid(seeds=[1], loads=[0.5])
        cache = ResultCache(tmp_path)
        run_campaign(campaign, jobs=1, cache=cache)
        blob = next(tmp_path.glob("??/*.json"))
        blob.write_text("{truncated", encoding="utf-8")
        recovered = ResultCache(tmp_path)
        report = run_campaign(campaign, jobs=1, cache=recovered)
        assert recovered.stats.misses == 1
        assert report.outcomes[0].status == "ok"

    def test_cell_fn_injection_serial_and_parallel(self):
        campaign = _tiny_grid()
        for jobs in (1, 2):
            report = run_campaign(campaign, jobs=jobs, cell_fn=_echo_cell)
            assert [o.payload["seed"] for o in report.outcomes] == [
                1, 1, 2, 2,
            ]


# ----------------------------------------------------------------------
# Supervision: timeouts, retries, quarantine
# ----------------------------------------------------------------------
class TestSupervision:
    def test_timeout_then_retry_succeeds_on_fresh_worker(self, scratch):
        campaign = _tiny_grid(seeds=[7], loads=[0.5])
        report = run_campaign(
            campaign, jobs=2, cell_fn=_hang_once, timeout=1.0, retries=1,
            lease_ttl=2.0,
        )
        outcome = report.outcomes[0]
        assert outcome.status == "ok"
        assert outcome.attempts == 2
        assert outcome.payload == {"seed": 7, "attempt": 2}

    def test_timeout_costs_in_flight_neighbours_nothing(self, scratch):
        # Worker A hangs on cell 0 and is killed at ~1.0 s; worker B runs
        # cell 1 (0-0.6 s) and is inside cell 2 (0.6-1.2 s) at that
        # moment.  Killing A must not touch B: its cells run exactly
        # once (a second run would raise) and spend one attempt.
        campaign = _tiny_grid(seeds=[7], loads=[0.5, 0.7, 0.9])
        report = run_campaign(
            campaign, jobs=2, cell_fn=_hang_first_cell_once, timeout=1.0,
            retries=1, lease_ttl=2.0,
        )
        assert [o.status for o in report.outcomes] == ["ok", "ok", "ok"]
        assert [o.attempts for o in report.outcomes] == [2, 1, 1]

    def test_always_hanging_cell_is_quarantined(self, scratch):
        campaign = _tiny_grid(seeds=[8], loads=[0.5])
        report = run_campaign(
            campaign, jobs=2, cell_fn=_hang_forever, timeout=0.8, retries=1,
            lease_ttl=2.0,
        )
        outcome = report.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 2
        assert "timeout" in outcome.error
        assert "quarantined" in report.failure_report()

    def test_always_raising_cell_is_quarantined(self):
        campaign = _tiny_grid(seeds=[9], loads=[0.5])
        for jobs in (1, 2):
            report = run_campaign(
                campaign, jobs=jobs, cell_fn=_raise_cell, retries=2,
            )
            outcome = report.outcomes[0]
            assert outcome.status == "failed"
            assert outcome.attempts == 3
            assert "boom seed=9" in outcome.error

    def test_hard_crash_is_quarantined_not_fatal(self):
        campaign = _tiny_grid(seeds=[4], loads=[0.5])
        report = run_campaign(
            campaign, jobs=2, cell_fn=_exit_cell, retries=1, lease_ttl=2.0,
        )
        outcome = report.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 2
        assert "crash" in outcome.error

    def test_serial_retry_recovers_flaky_cell(self, scratch):
        campaign = _tiny_grid(seeds=[5], loads=[0.5])
        report = run_campaign(
            campaign, jobs=1, cell_fn=_flaky_cell, retries=1,
        )
        outcome = report.outcomes[0]
        assert outcome.status == "ok"
        assert outcome.attempts == 2

    def test_progress_lines_cover_every_cell(self):
        campaign = _tiny_grid()
        lines = []
        run_campaign(
            campaign, jobs=1, cell_fn=_echo_cell, progress=lines.append
        )
        assert len(lines) == 4
        assert lines[0].startswith("[1/4]")
        assert lines[-1].startswith("[4/4]")


# ----------------------------------------------------------------------
# Aggregation and consumers
# ----------------------------------------------------------------------
class TestAggregation:
    def test_aggregate_percentiles(self):
        agg = aggregate([1.0, 2.0, 3.0, 4.0, 100.0])
        assert agg.mean == pytest.approx(22.0)
        assert agg.p50 == pytest.approx(3.0)
        assert agg.p95 > agg.p50
        assert agg.p99 > agg.p95
        assert agg.p99 <= 100.0
        assert "p99" in agg.detailed()

    def test_grid_aggregates_and_report(self):
        campaign = _tiny_grid()
        report = run_campaign(campaign, jobs=1)
        grid = report.aggregate_payload()["grid"]
        assert set(grid) == {"fair|0.5", "fair|0.7"}
        for per_placement in grid.values():
            assert set(per_placement) == {"minload", "mindist"}
            assert all(a["count"] == 2 for a in per_placement.values())
        # The group statistics match the exact ones over the same gaps
        # (the sketch is exact at a group's extremes).
        gaps = [
            p["per_placement"]["minload"]["average_gap"]
            for p in report.payloads()
            if p["load"] == 0.5
        ]
        exact = aggregate(gaps)
        stat = next(
            gap for net, load, name, gap, _ in report.aggregate.rows()
            if (load, name) == (0.5, "minload")
        )
        assert stat.as_dict()["mean"] == pytest.approx(exact.mean)
        assert stat.stdev == pytest.approx(exact.stdev)
        assert stat.as_dict()["min"] == min(gaps)
        text = render_campaign_report(report)
        assert "p99" in text and "± " in text
        assert "blame shares" in text and "contention" in text
        assert "merged counters" in text
        assert "cache: hits=0 misses=4 writes=4" in text

    def test_merged_metrics_sum_counters(self):
        campaign = _tiny_grid(seeds=[1], loads=[0.5, 0.7])
        report = run_campaign(campaign, jobs=1)
        merged = report.merged_metrics()
        per_cell = [
            o.payload["metrics"]["counters"]["fabric.flows_completed"]
            for o in report.outcomes
        ]
        assert merged["counters"]["fabric.flows_completed"] == sum(per_cell)

    def test_repeat_flow_macro_through_campaign(self, tmp_path):
        repeated = repeat_flow_macro(
            network_policy="fair",
            config=TINY,
            seeds=[1, 2, 3],
            placements=("minload", "mindist"),
            jobs=2,
            cache=ResultCache(tmp_path),
        )
        gaps = repeated.gap_aggregates()
        assert set(gaps) == {"minload", "mindist"}
        assert all(a.count == 3 for a in gaps.values())
        assert all(a.p99 >= a.p50 for a in gaps.values())
        assert "p95" in repeated.report()
        # The cache now serves all three seeds.
        warm_cache = ResultCache(tmp_path)
        repeat_flow_macro(
            network_policy="fair",
            config=TINY,
            seeds=[1, 2, 3],
            placements=("minload", "mindist"),
            cache=warm_cache,
        )
        assert warm_cache.stats.hits == 3
        assert warm_cache.stats.misses == 0

    def test_macro_summary_requires_macro_payload(self):
        with pytest.raises(ConfigError):
            MacroSummary({"line": "not a macro payload"})


# ----------------------------------------------------------------------
# Figure campaign + CLI
# ----------------------------------------------------------------------
class TestFigureCampaignAndCli:
    def test_build_all_campaign_shape(self):
        campaign = build_all_campaign(TINY)
        assert [c.figure for c in campaign.cells] == [
            "fig1", "fig3", "fig5", "fig6a", "fig6b",
            "fig7", "fig8", "fig9", "fig10", "fig11",
        ]
        assert campaign.cells[5].config.coflows is True

    def test_cli_run_sweep_caches_second_pass(self, tmp_path, capsys):
        from repro.__main__ import main

        argv = [
            "run", "--seeds", "1,2", "--loads", "0.6",
            "--placements", "minload", "--arrivals", "40",
            "--hosts-per-rack", "4", "--racks-per-pod", "2", "--pods", "1",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "misses=2" in first
        assert "p99" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "hits=2" in second
        assert "misses=0" in second

    def test_cli_kept_queue_resume_and_aggregate_out(self, tmp_path, capsys):
        from repro.__main__ import main

        grid = [
            "--seeds", "1,2", "--loads", "0.6", "--placements", "minload",
            "--arrivals", "40", "--hosts-per-rack", "4",
            "--racks-per-pod", "2", "--pods", "1",
        ]
        queue, outs = tmp_path / "q", [tmp_path / f"{i}.json" for i in "abc"]
        assert main(
            ["run", *grid, "--distributed", str(queue),
             "--aggregate-out", str(outs[0])]
        ) == 0
        assert "hits=0 misses=2 writes=2" in capsys.readouterr().out
        assert (queue / "status.jsonl").exists()
        assert main(
            ["run", "--resume", str(queue), "--aggregate-out", str(outs[1])]
        ) == 0
        assert "hits=2 misses=0 writes=0" in capsys.readouterr().out
        assert main(
            ["run", *grid, "--no-cache", "--cache-dir", str(tmp_path / "c"),
             "--aggregate-out", str(outs[2])]
        ) == 0
        assert not (tmp_path / "c").exists()
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[0].read_bytes() == outs[2].read_bytes()
        # One queue cannot be both seeded and resumed; a stale directory
        # is an error message, not a traceback.
        assert main(
            ["run", *grid, "--distributed", str(queue), "--resume", str(queue)]
        ) == 2
        assert main(["run", "--resume", str(tmp_path / "missing")]) == 2
        assert "not a campaign queue" in capsys.readouterr().err

    def test_cli_rejects_bad_jobs(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["all", "--jobs", "0", "--cache-dir", str(tmp_path)])
        with pytest.raises(SystemExit):
            main(["run", "--jobs", "-1", "--resume", str(tmp_path)])
