"""Additional runner / outcome coverage: horizons, FCFS placement, export."""

from __future__ import annotations

import json

import pytest

from repro.experiments.config import MacroConfig
from repro.experiments.figures import FIGURES
from repro.experiments.runner import (
    compare_policies,
    replay_coflow_trace,
    replay_flow_trace,
)
from repro.metrics.stats import average_gap
from repro.workloads.distributions import make_distribution
from repro.workloads.traces import generate_coflow_trace, generate_flow_trace

CFG = MacroConfig(
    pods=1, racks_per_pod=2, hosts_per_rack=6,
    workload="websearch", num_arrivals=120, seed=8,
)


def flow_trace(topo):
    return generate_flow_trace(
        hosts=topo.hosts,
        distribution=make_distribution("websearch"),
        load=0.6, edge_capacity=1e9, num_arrivals=120, seed=8,
    )


class TestHorizon:
    def test_horizon_truncates_run(self):
        topo = CFG.build_topology()
        trace = flow_trace(topo)
        midpoint = trace.arrivals[len(trace) // 2].time
        run = replay_flow_trace(
            trace, topo, network_policy="fair", placement="minload",
            horizon=midpoint,
        )
        assert 0 < len(run.records) < len(trace)
        assert run.sim_duration == pytest.approx(midpoint)

    def test_coflow_horizon(self):
        topo = CFG.build_topology()
        trace = generate_coflow_trace(
            hosts=topo.hosts,
            distribution=make_distribution("websearch"),
            load=0.6, edge_capacity=1e9, num_arrivals=40, seed=8,
        )
        run = replay_coflow_trace(
            trace, topo, network_policy="varys", placement="minload",
            horizon=trace.arrivals[10].time,
        )
        assert len(run.records) < 40


class TestFCFSPlacement:
    def test_neat_beats_baselines_under_fcfs_too(self):
        """FCFS is the fourth policy family of §4.1; placement awareness
        should pay off there exactly like under Fair."""
        topo = CFG.build_topology()
        trace = flow_trace(topo)
        results = compare_policies(
            trace, topo, network_policy="fcfs",
            placements=["neat", "minload", "mindist"],
            predictor="fcfs", seed=8,
        )
        gaps = {n: average_gap(r.records) for n, r in results.items()}
        assert gaps["neat"] <= gaps["minload"] * 1.05
        assert gaps["neat"] <= gaps["mindist"] * 1.05


class TestSummaryExport:
    def test_summary_dict_is_json_safe(self):
        (outcome,) = FIGURES["fig5"].run(CFG).values()
        payload = outcome.summary_dict()
        text = json.dumps(payload)
        restored = json.loads(text)
        assert restored["workload"] == "websearch"
        assert set(restored["average_gaps"]) == {"neat", "minload", "mindist"}
        assert restored["improvement_vs_minload"] >= 0

    def test_summary_counts_match(self):
        (outcome,) = FIGURES["fig5"].run(CFG).values()
        payload = outcome.summary_dict()
        assert all(
            count == CFG.num_arrivals
            for count in payload["num_records"].values()
        )


class TestCoflowReplayExtras:
    def test_max_candidates_respected_for_coflows(self):
        topo = CFG.build_topology()
        trace = generate_coflow_trace(
            hosts=topo.hosts,
            distribution=make_distribution("websearch"),
            load=0.5, edge_capacity=1e9, num_arrivals=20, seed=8,
        )
        run = replay_coflow_trace(
            trace, topo, network_policy="varys", placement="neat",
            max_candidates=3, seed=8,
        )
        assert len(run.records) == 20
        assert run.control_messages > 0

    def test_scf_replay(self):
        topo = CFG.build_topology()
        trace = generate_coflow_trace(
            hosts=topo.hosts,
            distribution=make_distribution("websearch"),
            load=0.5, edge_capacity=1e9, num_arrivals=15, seed=8,
        )
        for placement in ("neat", "minload", "mindist"):
            run = replay_coflow_trace(
                trace, topo, network_policy="scf", placement=placement,
                seed=8,
            )
            assert len(run.records) == 15
