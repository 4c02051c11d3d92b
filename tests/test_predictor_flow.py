"""Tests for the FCT predictors (§4.1): equations (3)-(9), the invariance
proposition, and agreement with the simulated fabric."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, PredictionError
from repro.network.fabric import NetworkFabric
from repro.network.policies.registry import make_allocator
from repro.predictor.flow_fct import (
    FCFSPredictor,
    FairPredictor,
    LASPredictor,
    SRPTPredictor,
)
from repro.predictor.registry import (
    available_flow_predictors,
    make_flow_predictor,
)
from repro.predictor.state import LinkState, link_state_from_flows
from repro.sim.engine import Engine
from repro.topology.fabrics import single_switch

GBPS = 1e9

link_sizes = st.lists(st.floats(1e3, 1e10), min_size=0, max_size=12)
new_sizes = st.floats(1e3, 1e10)


def state(sizes, capacity=GBPS) -> LinkState:
    return LinkState("l", capacity, tuple(sizes))


class TestLinkState:
    def test_aggregates(self):
        s = state([2e9, 3e9])
        assert s.total_bits == pytest.approx(5e9)
        assert s.num_flows == 2
        assert s.min_flow_size == pytest.approx(2e9)

    def test_idle_min_is_inf(self):
        assert state([]).min_flow_size == float("inf")

    def test_rejects_bad_capacity(self):
        with pytest.raises(PredictionError):
            LinkState("l", 0.0, ())

    def test_rejects_nonpositive_flow(self):
        with pytest.raises(PredictionError):
            state([1e9, 0.0])

    def test_without_one(self):
        s = state([1e9, 2e9]).without_one(1e9)
        assert s.flow_sizes == (2e9,)

    def test_without_one_missing_raises(self):
        with pytest.raises(PredictionError):
            state([1e9]).without_one(5e9)

    def test_from_flows_drops_finished(self):
        s = link_state_from_flows("l", GBPS, [1e9, 0.0, -1.0, 2e9])
        assert s.flow_sizes == (1e9, 2e9)


class TestEquations:
    """The figure-1 scenario: two 10 Gb flows (node 1) / one 4 Gb (node 3)."""

    node1 = state([10e9, 10e9])
    node3 = state([4e9])
    new = 5e9

    def test_eq3_fcfs(self):
        assert FCFSPredictor().fct(self.new, self.node1) == pytest.approx(25.0)
        assert FCFSPredictor().fct(self.new, self.node3) == pytest.approx(9.0)

    def test_eq4_fair(self):
        assert FairPredictor().fct(self.new, self.node1) == pytest.approx(15.0)
        assert FairPredictor().fct(self.new, self.node3) == pytest.approx(9.0)

    def test_eq7_srpt(self):
        assert SRPTPredictor().fct(self.new, self.node1) == pytest.approx(5.0)
        assert SRPTPredictor().fct(self.new, self.node3) == pytest.approx(9.0)

    def test_eq5_fair_delta(self):
        pred = FairPredictor()
        assert pred.delta(self.new, 10e9, self.node1) == pytest.approx(5.0)
        assert pred.delta(self.new, 4e9, self.node3) == pytest.approx(4.0)

    def test_eq8_srpt_delta(self):
        pred = SRPTPredictor()
        assert pred.delta(self.new, 10e9, self.node1) == pytest.approx(5.0)
        assert pred.delta(self.new, 4e9, self.node3) == pytest.approx(0.0)

    def test_fcfs_delta_is_zero(self):
        assert FCFSPredictor().delta_sum(self.new, self.node1) == 0.0

    def test_las_is_fair(self):
        assert LASPredictor().fct(self.new, self.node1) == FairPredictor().fct(
            self.new, self.node1
        )

    def test_objective_totals_match_figure1(self):
        """FCT + sum-delta reproduces the 'increase in total completion
        time' column of Figure 1."""
        fair = FairPredictor()
        assert fair.link_objective(self.new, self.node1) == pytest.approx(25.0)
        assert fair.link_objective(self.new, self.node3) == pytest.approx(13.0)
        srpt = SRPTPredictor()
        assert srpt.link_objective(self.new, self.node1) == pytest.approx(15.0)
        assert srpt.link_objective(self.new, self.node3) == pytest.approx(9.0)
        fcfs = FCFSPredictor()
        assert fcfs.link_objective(self.new, self.node1) == pytest.approx(25.0)
        assert fcfs.link_objective(self.new, self.node3) == pytest.approx(9.0)

    def test_path_prediction_is_bottleneck(self):
        pred = FairPredictor()
        links = [self.node1, self.node3]
        assert pred.predict_path(self.new, links) == pytest.approx(15.0)

    def test_empty_path_is_free(self):
        assert FairPredictor().predict_path(1e9, []) == 0.0
        assert FairPredictor().objective(1e9, []) == 0.0


class TestIdentity9:
    """Equation (9): SRPT's per-link objective equals the Fair FCT."""

    @given(sizes=link_sizes, new=new_sizes)
    @settings(max_examples=200, deadline=None)
    def test_identity_holds_for_any_state(self, sizes, new):
        s = state(sizes)
        lhs = SRPTPredictor().link_objective(new, s)
        rhs = FairPredictor().fct(new, s)
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestProposition41:
    """With equal link capacities, Fair / LAS / SRPT objectives all rank
    candidate links the same way as the fair-sharing FCT."""

    @given(
        candidates=st.lists(link_sizes, min_size=2, max_size=5),
        new=new_sizes,
    )
    @settings(max_examples=100, deadline=None)
    def test_argmin_invariance(self, candidates, new):
        states = [
            LinkState(f"l{i}", GBPS, tuple(sizes))
            for i, sizes in enumerate(candidates)
        ]
        fair = FairPredictor()
        las = LASPredictor()
        srpt = SRPTPredictor()

        def argmin(scores):
            best = min(scores)
            return {i for i, v in enumerate(scores) if v <= best + 1e-9}

        baseline = argmin([fair.fct(new, s) for s in states])
        for pred in (fair, las, srpt):
            chosen = argmin([pred.link_objective(new, s) for s in states])
            # The objective's argmin set must intersect the fair-FCT one
            # (equal for SRPT by eq. (9); equal for Fair/LAS since the
            # objective is monotone in the same sum at equal capacity).
            assert chosen & baseline


class TestPredictorVsSimulation:
    """The predictor must agree exactly with the fluid simulator when no
    future arrivals occur (the predictor's stated operating assumption)."""

    @pytest.mark.parametrize(
        "policy,predictor",
        [("fair", "fair"), ("fcfs", "fcfs"), ("srpt", "srpt")],
    )
    @given(existing=st.lists(st.floats(1e8, 8e9), min_size=0, max_size=5),
           new=st.floats(1e8, 8e9))
    @settings(max_examples=30, deadline=None)
    def test_exact_agreement(self, policy, predictor, existing, new):
        engine = Engine()
        topo = single_switch(8)
        fabric = NetworkFabric(engine, topo, make_allocator(policy))
        # All existing flows converge on h007's downlink from distinct srcs.
        for i, size in enumerate(existing):
            fabric.submit(f"h{i:03d}", "h007", size)
        engine.run(until=1e-9)
        # Predict from the daemon's view of the downlink: residuals now,
        # not each flow's ``remaining`` as of its last event.
        link = topo.host_downlink("h007")
        link_state = link_state_from_flows(
            link.link_id,
            link.capacity,
            (fabric.residual(f) for f in fabric.flows_on_link(link.link_id)),
        )
        predicted = make_flow_predictor(predictor).fct(new, link_state)
        flow = fabric.submit("h006", "h007", new)
        engine.run()
        assert flow.fct() == pytest.approx(predicted, rel=1e-6)

    def test_las_agreement_for_fresh_flows(self):
        """LAS FCT matches the Fair prediction when existing flows have
        negligible attained service."""
        engine = Engine()
        topo = single_switch(6)
        fabric = NetworkFabric(engine, topo, make_allocator("las"))
        for i, size in enumerate([2e9, 6e9]):
            fabric.submit(f"h{i:03d}", "h005", size)
        engine.run(until=1e-6)
        link = topo.host_downlink("h005")
        link_state = link_state_from_flows(
            link.link_id,
            link.capacity,
            (fabric.residual(f) for f in fabric.flows_on_link(link.link_id)),
        )
        predicted = make_flow_predictor("las").fct(3e9, link_state)
        flow = fabric.submit("h004", "h005", 3e9)
        engine.run()
        assert flow.fct() == pytest.approx(predicted, rel=1e-3)


class TestRegistry:
    def test_names(self):
        for name in ("fair", "fcfs", "las", "srpt", "dctcp", "l2dct", "pase"):
            assert make_flow_predictor(name) is not None
        assert "fair" in available_flow_predictors()

    def test_unknown(self):
        with pytest.raises(ConfigError):
            make_flow_predictor("bogus")
