"""Tests for joint coflow placement and the fabric-state snapshot helpers."""

from __future__ import annotations

import pytest

from repro.coflow.policies.registry import make_coflow_allocator
from repro.coflow.tracking import CoflowTracker
from repro.errors import PlacementError
from repro.network.fabric import NetworkFabric
from repro.placement.coflow_placement import (
    place_coflow_joint,
    place_coflow_sequential,
)
from repro.placement.neat import build_neat
from repro.predictor.fabric_state import coflow_link_state, flow_link_state
from repro.predictor.registry import make_coflow_predictor
from repro.sim.engine import Engine
from repro.topology.fabrics import single_switch


def setup(hosts=6):
    engine = Engine()
    fabric = NetworkFabric(
        engine, single_switch(hosts), make_coflow_allocator("varys")
    )
    return engine, fabric, CoflowTracker(fabric)


class TestFabricStateHelpers:
    def test_flow_link_state(self):
        engine, fabric, _ = setup()
        fabric.submit("h000", "h001", 2e9)
        fabric.submit("h000", "h002", 3e9)
        state = flow_link_state(fabric, "h000->sw0")
        assert sorted(state.flow_sizes) == [2e9, 3e9]
        assert state.capacity == fabric.topology.link("h000->sw0").capacity

    def test_coflow_link_state_groups(self):
        engine, fabric, tracker = setup()
        tracker.submit_coflow(
            [("h000", "h002", 2e9), ("h001", "h002", 2e9)]
        )
        fabric.submit("h003", "h002", 1e9)  # bare flow
        state = coflow_link_state(fabric, "sw0->h002")
        assert len(state.coflows) == 2
        totals = sorted(c.total_size for c in state.coflows)
        assert totals == [1e9, 4e9]
        grouped = max(state.coflows, key=lambda c: c.total_size)
        assert grouped.size_on_link == pytest.approx(4e9)

    def test_coflow_link_state_uses_residuals(self):
        engine, fabric, tracker = setup()
        tracker.submit_coflow([("h000", "h002", 2e9)])
        engine.run(until=1.0)
        state = coflow_link_state(fabric, "sw0->h002")
        assert state.coflows[0].size_on_link == pytest.approx(1e9)


class TestJointPlacement:
    def test_prefers_idle_destinations(self):
        engine, fabric, tracker = setup()
        fabric.submit("h004", "h001", 8e9)  # h001's downlink busy
        coflow = place_coflow_joint(
            tracker,
            [("h000", 1e9), ("h005", 1e9)],
            ["h001", "h002", "h003"],
            make_coflow_predictor("varys"),
        )
        assert all(f.dst != "h001" for f in coflow.flows)

    def test_spreads_over_distinct_downlinks(self):
        """Two equal flows to idle candidates: the bottleneck objective
        prefers distinct destinations over stacking one downlink."""
        engine, fabric, tracker = setup()
        coflow = place_coflow_joint(
            tracker,
            [("h000", 2e9), ("h005", 2e9)],
            ["h001", "h002"],
            make_coflow_predictor("varys"),
        )
        assert len({f.dst for f in coflow.flows}) == 2

    def test_locality_wins_when_candidate_is_source(self):
        engine, fabric, tracker = setup()
        coflow = place_coflow_joint(
            tracker,
            [("h001", 5e9)],
            ["h001", "h002"],
            make_coflow_predictor("varys"),
        )
        assert coflow.flows[0].dst == "h001"
        assert tracker.records[0].cct == 0.0

    def test_assignment_explosion_rejected(self):
        engine, fabric, tracker = setup()
        with pytest.raises(PlacementError):
            place_coflow_joint(
                tracker,
                [("h000", 1e9)] * 4,
                ["h001", "h002", "h003"],
                make_coflow_predictor("varys"),
                max_assignments=10,
            )

    def test_validates_inputs(self):
        engine, fabric, tracker = setup()
        predictor = make_coflow_predictor("varys")
        with pytest.raises(PlacementError):
            place_coflow_joint(tracker, [], ["h001"], predictor)
        with pytest.raises(PlacementError):
            place_coflow_joint(tracker, [("h000", 1e9)], [], predictor)

    def test_joint_never_worse_than_sequential_one_shot(self):
        """On a single coflow against a fixed background, the exhaustive
        search achieves a CCT <= the sequential heuristic's."""
        results = {}
        for mode in ("sequential", "joint"):
            engine, fabric, tracker = setup()
            fabric.submit("h004", "h001", 4e9)
            fabric.submit("h004", "h002", 2e9)
            transfers = [("h000", 2e9), ("h005", 1e9)]
            pool = ["h001", "h002", "h003"]
            if mode == "joint":
                coflow = place_coflow_joint(
                    tracker, transfers, pool, make_coflow_predictor("varys")
                )
            else:
                neat = build_neat(fabric, coflow_predictor="varys")
                coflow = place_coflow_sequential(
                    neat, tracker, transfers, pool
                )
            engine.run()
            results[mode] = coflow.cct()
        assert results["joint"] <= results["sequential"] + 1e-9


@pytest.mark.parametrize("name", ["varys", "coflow-fair", "coflow-fcfs"])
def test_joint_scores_equal_the_snapshot_objective(name):
    """The search scores raw triples from one batched read: the assignment
    it picks is the argmin of ``link_objective`` over the per-link
    snapshots, with busy links mid-transfer and ties broken the same way."""
    import itertools

    engine, fabric, tracker = setup(8)
    tracker.submit_coflow([("h006", "h001", 3e9), ("h007", "h002", 1e9)])
    tracker.submit_coflow([("h006", "h003", 2e9)])
    fabric.submit("h007", "h001", 5e8)  # a bare flow
    engine.run(until=0.7)
    predictor = make_coflow_predictor(name)
    transfers = [("h000", 2e9), ("h005", 1e9), ("h006", 5e8)]
    pool = ["h001", "h002", "h003", "h004"]
    topo = fabric.topology
    total = sum(size for _node, size in transfers)
    best, best_score = None, float("inf")
    for assignment in itertools.product(pool, repeat=len(transfers)):
        loads = {}
        for (node, size), host in zip(transfers, assignment):
            for link in (topo.host_uplink(node), topo.host_downlink(host)):
                loads[link.link_id] = loads.get(link.link_id, 0.0) + size
        score = max(
            predictor.link_objective(total, on_link, coflow_link_state(fabric, l))
            for l, on_link in loads.items()
        )
        if score < best_score:
            best, best_score = assignment, score
    coflow = place_coflow_joint(tracker, transfers, pool, predictor)
    assert tuple(f.dst for f in coflow.flows) == best
