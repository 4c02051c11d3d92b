"""Tests for the §7 extensions: size-noise estimators and path-aware NEAT."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.experiments.config import MacroConfig
from repro.experiments.runner import replay_flow_trace
from repro.metrics.stats import average_gap
from repro.network.fabric import NetworkFabric
from repro.network.policies.registry import make_allocator
from repro.placement.base import PlacementRequest
from repro.placement.pathaware import LinkStateProvider, PathAwareNEATPolicy
from repro.placement.registry import make_placement_policy
from repro.predictor.flow_fct import FairPredictor
from repro.sim.engine import Engine
from repro.telemetry import DecisionLog, Telemetry
from repro.topology.fabrics import single_switch, three_tier_clos
from repro.workloads.noise import ExactSizes, LogNormalNoise, QuantizedHistory


class TestSizeEstimators:
    def test_exact_is_identity(self):
        assert ExactSizes().estimate(123.0) == 123.0

    def test_lognormal_zero_sigma_is_identity(self):
        est = LogNormalNoise(0.0, random.Random(0))
        assert est.estimate(5e6) == 5e6

    def test_lognormal_median_unbiased(self):
        est = LogNormalNoise(0.7, random.Random(1))
        ratios = sorted(est.estimate(1e6) / 1e6 for _ in range(2001))
        median = ratios[1000]
        assert 0.85 < median < 1.18

    def test_lognormal_rejects_negative_sigma(self):
        with pytest.raises(WorkloadError):
            LogNormalNoise(-1.0, random.Random(0))

    def test_quantized_bucket_midpoint(self):
        est = QuantizedHistory(base=4.0)
        # 20 lies in [16, 64): estimate = 16 * 2 = 32.
        assert est.estimate(20.0) == pytest.approx(32.0)

    @given(size=st.floats(1.0, 1e12), base=st.floats(1.5, 16.0))
    @settings(max_examples=100, deadline=None)
    def test_quantized_error_bounded_by_sqrt_base(self, size, base):
        est = QuantizedHistory(base=base)
        ratio = est.estimate(size) / size
        bound = math.sqrt(base) * (1 + 1e-9)
        assert 1 / bound <= ratio <= bound

    def test_quantized_rejects_bad_base(self):
        with pytest.raises(WorkloadError):
            QuantizedHistory(base=1.0)

    def test_replay_uses_estimates_but_transfers_truth(self):
        cfg = MacroConfig(
            pods=1, racks_per_pod=2, hosts_per_rack=6,
            workload="websearch", num_arrivals=100, seed=3,
        )
        topo = cfg.build_topology()
        trace = cfg.build_trace(topo)
        run = replay_flow_trace(
            trace, topo, network_policy="fair", placement="neat",
            seed=3, size_estimator=QuantizedHistory(base=4.0),
        )
        # Every flow still transfers its true size.
        by_tag = {r.tag: r for r in run.records}
        for arrival in trace.arrivals:
            assert by_tag[arrival.tag].size == pytest.approx(arrival.size)

    def test_noise_robustness_vs_baseline(self):
        cfg = MacroConfig(
            pods=1, racks_per_pod=2, hosts_per_rack=8,
            workload="websearch", num_arrivals=300, seed=9,
        )
        topo = cfg.build_topology()
        trace = cfg.build_trace(topo)
        noisy = replay_flow_trace(
            trace, topo, network_policy="fair", placement="neat", seed=9,
            size_estimator=LogNormalNoise(0.5, random.Random(5)),
        )
        minload = replay_flow_trace(
            trace, topo, network_policy="fair", placement="minload", seed=9,
        )
        assert average_gap(noisy.records) < average_gap(minload.records)


class TestPathAwareNEAT:
    def make(self, oversubscription=1.0):
        engine = Engine()
        topo = three_tier_clos(
            pods=2, racks_per_pod=2, hosts_per_rack=3,
            oversubscription=oversubscription,
        )
        fabric = NetworkFabric(engine, topo, make_allocator("fair"))
        policy = PathAwareNEATPolicy(fabric, FairPredictor())
        return engine, fabric, policy

    def test_link_state_provider_reads_fabric(self):
        engine, fabric, policy = self.make()
        fabric.submit("h000", "h001", 2e9)
        provider = LinkStateProvider(fabric)
        up = fabric.topology.host_uplink("h000").link_id
        assert provider.link_state(up).flow_sizes == (2e9,)

    def test_avoids_congested_core_path(self):
        """With a hot cross-pod path, the path-aware policy sees the core
        contention edge-only NEAT cannot."""
        engine, fabric, policy = self.make(oversubscription=6.0)
        hosts = fabric.topology.hosts
        # Saturate the cross-pod direction with background flows whose
        # *destinations* differ from our candidates (edge links clean).
        for i in range(3):
            fabric.submit(hosts[i], hosts[6 + i], 5e9)
        # Candidate A: cross-pod (congested core); B: same rack as data.
        data = hosts[0]
        same_rack, cross_pod = hosts[1], hosts[9]
        chosen = policy.place(
            PlacementRequest(
                size=1e9, data_node=data,
                candidates=(cross_pod, same_rack),
            )
        )
        assert chosen == same_rack

    def test_locality_is_free(self):
        engine, fabric, policy = self.make()
        chosen = policy.place(
            PlacementRequest(
                size=1e9, data_node="h000", candidates=("h000", "h001"),
            )
        )
        assert chosen == "h000"

    def test_node_state_filter_applies(self):
        engine, fabric, policy = self.make()
        fabric.submit("h005", "h001", 1e8)  # short flow on h001
        chosen = policy.place(
            PlacementRequest(
                size=5e9, data_node="h000", candidates=("h001", "h002"),
            )
        )
        assert chosen == "h002"

    def test_registry_exposes_neat_path(self):
        engine, fabric, _ = self.make()
        telemetry = Telemetry(decisions=DecisionLog())
        policy = make_placement_policy(
            "neat-path", fabric, telemetry=telemetry
        )
        host = policy.place(
            PlacementRequest(
                size=1e9, data_node="h000", candidates=("h001", "h002"),
                tag="t0",
            )
        )
        assert host in ("h001", "h002")
        (record,) = telemetry.decisions.records
        assert (record.chosen, record.tag) == (host, "t0")
        assert record.score_kind == "objective"
        assert record.predicted_time is None
        assert [h for h, _ in record.scores] == ["h001", "h002"]

    def test_registry_exposes_neat_nofilter(self):
        engine, fabric, _ = self.make()
        policy = make_placement_policy("neat-nofilter", fabric)
        host = policy.place(
            PlacementRequest(
                size=1e9, data_node="h000", candidates=("h001",),
            )
        )
        assert host == "h001"
