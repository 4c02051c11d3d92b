"""Chaos harness for :mod:`repro.faults`.

Three pillars, per the degraded-operation design:

1. **Plan hygiene** — serialisation round-trips, validation (standalone and
   against a topology), canonical form stability.
2. **Data-plane faults** — degrade/fail semantics on a live fabric
   (capacity scaling, evacuate-then-zero, reroute vs abort, host down).
3. **Differential determinism** — an empty plan is byte-identical to no
   plan (records *and* JSONL trace), a fixed (seed, plan) pair replays
   byte-identically, and full node-state loss still completes every task
   through the stale-state fallback.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import FaultError, FlowError, TopologyError
from repro.experiments.config import MacroConfig
from repro.experiments.runner import replay_flow_trace
from repro.faults import (
    FaultInjector,
    FaultPlan,
    HostDown,
    LinkDegrade,
    LinkDown,
    MessageDelay,
    MessageLoss,
    StateStaleness,
    arm_faults,
)
from repro.network.fabric import NetworkFabric
from repro.network.policies.registry import make_allocator
from repro.sim.engine import Engine
from repro.telemetry import create_telemetry
from repro.topology.base import TopoNode, Topology
from repro.topology.fabrics import single_switch
from repro.units import gbps

from tests.conftest import make_fabric


def two_path_topology() -> Topology:
    """Hosts a/b joined by two disjoint switch paths (s1 and s2)."""
    topo = Topology("two-path")
    topo.add_node(TopoNode("a", "host", rack=0, pod=0))
    topo.add_node(TopoNode("b", "host", rack=1, pod=0))
    topo.add_node(TopoNode("s1", "switch"))
    topo.add_node(TopoNode("s2", "switch"))
    for sw in ("s1", "s2"):
        topo.add_duplex_link("a", sw, gbps(1), is_edge=(sw == "s1"))
        topo.add_duplex_link(sw, "b", gbps(1), is_edge=(sw == "s1"))
    return topo


SMALL = MacroConfig(
    pods=1, racks_per_pod=1, hosts_per_rack=6, num_arrivals=60, seed=11
)


def replay(cfg: MacroConfig, **kwargs):
    topo = cfg.build_topology()
    trace = cfg.build_trace(topo)
    defaults = dict(network_policy="fair", placement="neat", seed=cfg.seed)
    defaults.update(kwargs)
    return replay_flow_trace(trace, topo, **defaults)


# ----------------------------------------------------------------------
# 1. Plan hygiene
# ----------------------------------------------------------------------
class TestFaultPlan:
    def full_plan(self) -> FaultPlan:
        return FaultPlan(
            events=(
                LinkDegrade(time=2.0, link="h000->sw0", factor=0.5),
                LinkDown(time=1.0, link="sw0->h001"),
                HostDown(time=3.0, host="h002"),
                MessageLoss(start=0.5, p=0.25, until=4.0, kinds=("node_state",)),
                MessageDelay(start=0.0, delay=0.01),
                StateStaleness(start=1.0, lag=5.0, until=None),
            ),
            seed=7,
            name="kitchen-sink",
        )

    def test_json_round_trip(self):
        plan = self.full_plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_load_from_file(self, tmp_path):
        plan = self.full_plan()
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.load(str(path)) == plan

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(FaultError, match="cannot read"):
            FaultPlan.load(str(tmp_path / "nope.json"))

    def test_canonical_excludes_name(self):
        plan = self.full_plan()
        renamed = FaultPlan(events=plan.events, seed=plan.seed, name="other")
        assert plan.canonical_json() == renamed.canonical_json()
        assert plan.to_json() != renamed.to_json()

    def test_empty_plan(self):
        assert FaultPlan.empty().is_empty
        assert not self.full_plan().is_empty
        FaultPlan.empty().validate(single_switch(4))

    def test_point_and_window_partition(self):
        plan = self.full_plan()
        points = plan.point_events()
        windows = plan.window_events()
        assert len(points) + len(windows) == len(plan.events)
        assert [e.time for e in points] == sorted(e.time for e in points)
        assert [e.start for e in windows] == sorted(e.start for e in windows)

    def test_describe_lists_every_event(self):
        text = self.full_plan().describe()
        for kind in (
            "link_down", "link_degrade", "host_down",
            "message_loss", "message_delay", "state_staleness",
        ):
            assert kind in text

    @pytest.mark.parametrize(
        "raw",
        [
            {"events": [{"kind": "quake", "time": 0.0}]},
            {"events": [{"kind": "link_down", "time": -1.0, "link": "x"}]},
            {"events": [{"kind": "link_degrade", "time": 0.0, "link": "x",
                         "factor": 0.0}]},
            {"events": [{"kind": "message_loss", "start": 0.0, "p": 1.5}]},
            {"events": [{"kind": "message_loss", "start": 2.0, "p": 0.5,
                         "until": 1.0}]},
            {"events": [{"kind": "message_loss", "start": 0.0, "p": 0.5,
                         "kinds": ["gossip"]}]},
            {"events": [{"kind": "link_down", "time": 0.0}]},
            {"events": "not-a-list"},
        ],
        ids=[
            "unknown-kind", "negative-time", "zero-factor", "p-over-1",
            "until-before-start", "bad-message-kind", "missing-field",
            "events-not-list",
        ],
    )
    def test_from_dict_rejects_malformed(self, raw):
        with pytest.raises(FaultError):
            FaultPlan.from_dict(raw)

    def test_topology_validation_catches_bad_references(self):
        topo = single_switch(4)
        bad_link = FaultPlan(events=(LinkDown(time=0.0, link="h009->sw0"),))
        bad_host = FaultPlan(events=(HostDown(time=0.0, host="h999"),))
        with pytest.raises(FaultError, match="unknown link"):
            bad_link.validate(topo)
        with pytest.raises(FaultError, match="unknown host"):
            bad_host.validate(topo)
        # The same references are fine without a topology to check against.
        bad_link.validate()
        bad_host.validate()


# ----------------------------------------------------------------------
# 2. Data-plane faults on a live fabric
# ----------------------------------------------------------------------
class TestFabricFaults:
    def test_degrade_halves_capacity_doubles_fct(self):
        engine, fabric = make_fabric()
        fabric.submit("h000", "h001", 1e6)
        engine.run()
        baseline = fabric.records[0].fct

        engine2, fabric2 = make_fabric()
        fabric2.degrade_link("h000->sw0", 0.5)
        fabric2.submit("h000", "h001", 1e6)
        engine2.run()
        assert fabric2.records[0].fct == pytest.approx(2 * baseline)

    def test_degrade_above_one_restores(self):
        engine, fabric = make_fabric()
        cap = fabric.link_capacity("h000->sw0")
        fabric.degrade_link("h000->sw0", 0.25)
        fabric.degrade_link("h000->sw0", 4.0)
        assert fabric.link_capacity("h000->sw0") == pytest.approx(cap)

    def test_degrade_rejects_bad_inputs(self):
        engine, fabric = make_fabric()
        with pytest.raises(FlowError, match="factor"):
            fabric.degrade_link("h000->sw0", 0.0)
        with pytest.raises(TopologyError):
            fabric.degrade_link("h000->nowhere", 0.5)

    def test_fail_link_aborts_when_no_alternate_path(self):
        engine, fabric = make_fabric()
        fabric.submit("h000", "h001", 1e9)  # ~1 s at 1 Gbps
        engine.schedule_at(0.1, lambda: fabric.fail_link("h000->sw0"))
        engine.run()
        assert fabric.flows_aborted == 1
        assert fabric.flows_rerouted == 0
        assert len(fabric.records) == 0
        assert "h000->sw0" in fabric._failed_links
        # idempotent: failing the same link again changes nothing
        fabric.fail_link("h000->sw0")
        assert fabric.flows_aborted == 1
        assert fabric.link_capacity("h000->sw0") == 0.0

    def test_degrade_after_fail_is_noop(self):
        engine, fabric = make_fabric()
        fabric.fail_link("h000->sw0")
        fabric.degrade_link("h000->sw0", 2.0)
        assert fabric.link_capacity("h000->sw0") == 0.0

    def test_fail_link_reroutes_onto_surviving_path(self):
        engine = Engine()
        topo = two_path_topology()
        fabric = NetworkFabric(engine, topo, make_allocator("fair"))
        fabric.submit("a", "b", 1e9)
        (flow,) = fabric.active_flows()
        first_hop = flow.path[0]  # "a->s1" or "a->s2" (ECMP pick)
        engine.schedule_at(0.2, lambda: fabric.fail_link(first_hop))
        engine.run()
        assert fabric.flows_rerouted == 1
        assert fabric.flows_aborted == 0
        assert len(fabric.records) == 1
        rec = fabric.records[0]
        # equal-capacity alternate path: the reroute is seamless, progress
        # carries over and the fluid-model FCT is unchanged
        assert rec.fct == pytest.approx(1.0)

    def test_fail_host_takes_both_edges_down(self):
        engine, fabric = make_fabric()
        fabric.submit("h000", "h001", 1e9)
        fabric.submit("h002", "h003", 1e9)
        engine.schedule_at(0.1, lambda: fabric.fail_host("h001"))
        engine.run()
        assert not fabric.host_is_up("h001")
        assert fabric.host_is_up("h000")
        assert "h001" in fabric._down_hosts
        assert {"h001->sw0", "sw0->h001"} <= fabric._failed_links
        # the h000->h001 flow died with the host; the other one finished
        assert fabric.flows_aborted == 1
        assert len(fabric.records) == 1
        assert fabric.records[0].src == "h002"
        with pytest.raises(FlowError, match="not a host"):
            fabric.fail_host("sw0")

    def test_completed_records_unaffected_by_later_faults(self):
        """Optimal FCT is frozen at submit, so a fault cannot rewrite
        history for flows that already finished."""
        engine, fabric = make_fabric()
        fabric.submit("h000", "h001", 1e6)
        engine.run()
        before = fabric.records[0]
        fabric.fail_link("h002->sw0")
        assert fabric.records[0] == before


# ----------------------------------------------------------------------
# Injector mechanics
# ----------------------------------------------------------------------
class TestInjector:
    def test_arm_faults_returns_none_for_empty(self):
        engine, fabric = make_fabric()
        assert arm_faults(None, fabric) is None
        assert arm_faults(FaultPlan.empty(), fabric) is None

    def test_arm_with_empty_plan_installs_nothing(self):
        engine, fabric = make_fabric()
        injector = FaultInjector(FaultPlan.empty(), fabric)
        injector.arm()
        assert injector.applied_faults == 0
        engine.run()
        assert engine.events_processed == 0

    def test_note_task_dropped_counts_and_traces(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with create_telemetry(trace_path=str(path)) as tele:
            engine = Engine(telemetry=tele)
            fabric = NetworkFabric(
                engine, single_switch(4), make_allocator("fair"),
                telemetry=tele,
            )
            plan = FaultPlan(events=(HostDown(time=0.0, host="h000"),))
            injector = FaultInjector(plan, fabric, telemetry=tele)
            injector.arm()
            engine.run()
            injector.note_task_dropped("t1")
        assert injector.tasks_dropped == 1
        counters = tele.registry.as_dict()["counters"]
        assert counters["faults.injected"] == 1
        assert counters["faults.applied"] == 1
        assert counters["faults.tasks_dropped"] == 1
        blob = path.read_bytes()
        assert b"fault_applied" in blob
        assert b"task_dropped" in blob

    def test_injector_validates_against_topology(self):
        engine, fabric = make_fabric()
        plan = FaultPlan(events=(LinkDown(time=0.0, link="h042->sw0"),))
        with pytest.raises(FaultError, match="unknown link"):
            FaultInjector(plan, fabric)

    def test_double_arm_rejected(self):
        engine, fabric = make_fabric()
        plan = FaultPlan(events=(LinkDegrade(time=0.0, link="h000->sw0",
                                             factor=0.5),))
        injector = FaultInjector(plan, fabric)
        injector.arm()
        with pytest.raises(FaultError, match="already armed"):
            injector.arm()

    def test_point_events_fire_at_their_times(self):
        engine, fabric = make_fabric()
        plan = FaultPlan(events=(
            LinkDegrade(time=1.0, link="h000->sw0", factor=0.5),
            LinkDown(time=2.0, link="h001->sw0"),
        ))
        injector = arm_faults(plan, fabric)
        assert injector.applied_faults == 0
        engine.run()
        assert injector.applied_faults == 2
        assert fabric.link_capacity("h000->sw0") == pytest.approx(gbps(0.5))
        assert "h001->sw0" in fabric._failed_links

    def test_window_model_activation(self):
        engine, fabric = make_fabric()
        plan = FaultPlan(events=(
            MessageDelay(start=1.0, delay=0.01, until=2.0),
            MessageDelay(start=1.5, delay=0.02, until=3.0),
            StateStaleness(start=1.0, lag=5.0, until=2.0),
        ))
        injector = FaultInjector(plan, fabric)
        assert injector.message_delay() == 0.0  # now=0: nothing active
        assert injector.staleness_lag() == 0.0
        engine.schedule_at(1.7, lambda: None)
        engine.run()
        assert injector.message_delay() == pytest.approx(0.03)  # stacked
        assert injector.staleness_lag() == pytest.approx(5.0)

    def test_deterministic_loss_windows_draw_nothing(self):
        """p>=1 and p<=0 windows never touch the RNG stream, so plans
        built from certain-loss windows stay draw-free (determinism does
        not depend on message count)."""
        engine, fabric = make_fabric()
        plan = FaultPlan(events=(
            MessageLoss(start=0.0, p=1.0, kinds=("node_state",)),
            MessageLoss(start=0.0, p=0.0),
        ))
        injector = FaultInjector(plan, fabric)
        state = injector._rng.getstate()
        assert injector.should_drop("node_state") is True
        assert injector.should_drop("prediction") is False
        assert injector._rng.getstate() == state

    def test_fractional_loss_is_seed_deterministic(self):
        def decisions(seed: int):
            engine, fabric = make_fabric()
            plan = FaultPlan(
                events=(MessageLoss(start=0.0, p=0.5),), seed=seed
            )
            injector = FaultInjector(plan, fabric)
            return [injector.should_drop("prediction") for _ in range(64)]

        assert decisions(1) == decisions(1)
        assert decisions(1) != decisions(2)


# ----------------------------------------------------------------------
# 3. Differential determinism + degraded mode
# ----------------------------------------------------------------------
class TestDeterminism:
    def run_traced(self, tmp_path, tag: str, **kwargs):
        path = tmp_path / f"{tag}.jsonl"
        with create_telemetry(trace_path=str(path)) as tele:
            result = replay(SMALL, telemetry=tele, **kwargs)
        return result, path.read_bytes()

    def test_empty_plan_is_byte_identical_to_no_plan(self, tmp_path):
        base, base_trace = self.run_traced(tmp_path, "base")
        empty, empty_trace = self.run_traced(
            tmp_path, "empty", faults=FaultPlan.empty()
        )
        assert base.records == empty.records
        assert base.events_processed == empty.events_processed
        assert base_trace == empty_trace
        assert empty.flows_aborted == 0
        assert empty.tasks_dropped == 0

    def test_same_seed_same_plan_replays_byte_identically(self, tmp_path):
        topo = SMALL.build_topology()
        plan = FaultPlan(
            events=(
                LinkDegrade(time=0.5, link=topo.host_uplink("h000").link_id,
                            factor=0.5),
                HostDown(time=2.0, host="h005"),
                MessageLoss(start=0.0, p=0.5, kinds=("node_state",)),
            ),
            seed=3,
            name="chaos",
        )
        kwargs = dict(faults=plan, state_ttl=0.5, push_updates=True)
        first, first_trace = self.run_traced(tmp_path, "run1", **kwargs)
        second, second_trace = self.run_traced(tmp_path, "run2", **kwargs)
        assert first.records == second.records
        assert first_trace == second_trace
        assert first.stale_fallbacks == second.stale_fallbacks
        assert first.tasks_dropped == second.tasks_dropped

    def test_faulted_run_diverges_from_baseline(self):
        topo = SMALL.build_topology()
        plan = FaultPlan(events=(
            LinkDegrade(time=0.0, link=topo.host_uplink("h000").link_id,
                        factor=0.1),
        ))
        base = replay(SMALL)
        faulted = replay(SMALL, faults=plan)
        assert base.records != faulted.records


class TestDegradedMode:
    def test_full_node_state_loss_still_completes_every_task(self):
        """ISSUE acceptance: MessageLoss(p=1.0) on node-state updates must
        not deadlock placement — the stale-state fallback places every
        task and every FCT stays finite."""
        plan = FaultPlan(
            events=(MessageLoss(start=0.0, p=1.0, kinds=("node_state",)),),
            name="dead-updates",
        )
        with create_telemetry() as tele:
            result = replay(
                SMALL,
                faults=plan,
                state_ttl=1e-9,  # every snapshot is instantly stale
                push_updates=True,
                telemetry=tele,
            )
        assert len(result.records) == SMALL.num_arrivals
        for rec in result.records:
            assert math.isfinite(rec.fct) and rec.fct > 0
        assert result.tasks_dropped == 0
        assert result.stale_fallbacks > 0
        counters = tele.registry.as_dict()["counters"]
        assert counters["placement.stale_fallbacks"] == result.stale_fallbacks
        assert counters["bus.messages_dropped"] > 0

    def test_staleness_window_forces_fallback_without_loss(self):
        plan = FaultPlan(
            events=(StateStaleness(start=0.0, lag=1e9),), name="ancient"
        )
        result = replay(SMALL, faults=plan, state_ttl=10.0)
        assert len(result.records) == SMALL.num_arrivals
        assert result.stale_fallbacks > 0

    def test_without_ttl_no_fallback_ever_fires(self):
        plan = FaultPlan(events=(StateStaleness(start=0.0, lag=1e9),))
        result = replay(SMALL, faults=plan)  # state_ttl=None
        assert result.stale_fallbacks == 0
        assert len(result.records) == SMALL.num_arrivals

    def test_host_down_drops_its_tasks_but_spares_the_rest(self):
        plan = FaultPlan(events=(HostDown(time=0.0, host="h000"),))
        result = replay(SMALL, faults=plan)
        assert result.tasks_dropped > 0
        assert len(result.records) == SMALL.num_arrivals - result.tasks_dropped
        for rec in result.records:
            assert "h000" not in (rec.src, rec.dst)
            assert math.isfinite(rec.fct)

    def test_baselines_see_data_plane_faults_only(self):
        """minload has no bus/daemon; the injector still applies
        data-plane faults without blowing up."""
        plan = FaultPlan(events=(HostDown(time=0.0, host="h000"),))
        result = replay(SMALL, placement="minload", faults=plan)
        assert result.tasks_dropped > 0
        assert result.stale_fallbacks == 0

    def test_message_delay_window_inflates_control_latency(self):
        engine, fabric = make_fabric()
        plan = FaultPlan(events=(MessageDelay(start=0.0, delay=0.25),))
        injector = FaultInjector(plan, fabric)
        injector.arm()
        assert injector.message_delay() == pytest.approx(0.25)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestFaultsCli:
    def write_plan(self, tmp_path, plan: FaultPlan):
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self.write_plan(tmp_path, FaultPlan(
            events=(MessageLoss(start=0.0, p=0.5),), name="lossy"
        ))
        assert main(["faults", "validate", path]) == 0
        out = capsys.readouterr().out
        assert "plan OK" in out
        assert "message_loss" in out

    def test_validate_rejects_bad_json(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["faults", "validate", str(path)]) == 1
        assert "invalid fault plan" in capsys.readouterr().err

    def test_validate_checks_topology_references(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self.write_plan(tmp_path, FaultPlan(
            events=(LinkDown(time=0.0, link="h999->tor0"),)
        ))
        # standalone: fine; against a topology: unknown link
        assert main(["faults", "validate", path]) == 0
        capsys.readouterr()
        assert main([
            "faults", "validate", path,
            "--pods", "1", "--racks-per-pod", "1", "--hosts-per-rack", "4",
        ]) == 1
        assert "unknown link" in capsys.readouterr().err

    def test_run_cli_accepts_faults_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        plan = FaultPlan(
            events=(MessageLoss(start=0.0, p=1.0, kinds=("node_state",)),),
            name="smoke",
        )
        path = self.write_plan(tmp_path, plan)
        argv = [
            "run", "--seeds", "1", "--loads", "0.6",
            "--placements", "neat", "--arrivals", "30",
            "--hosts-per-rack", "4", "--racks-per-pod", "1", "--pods", "1",
            "--faults", path, "--state-ttl", "1e-9", "--push-node-state",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "faults.injected = 1" in out
        assert "placement.stale_fallbacks" in out

    def test_run_cli_rejects_unreadable_plan(self, tmp_path, capsys):
        from repro.__main__ import main

        argv = [
            "run", "--seeds", "1", "--placements", "minload",
            "--arrivals", "10", "--hosts-per-rack", "4",
            "--racks-per-pod", "1", "--pods", "1",
            "--faults", str(tmp_path / "missing.json"),
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 2
        assert "cannot read fault plan" in capsys.readouterr().err

    def test_fig5_honours_state_ttl(self, tmp_path, capsys):
        """fig5 takes the fault-injection group and acts on all of it: a
        TTL shorter than the lossy bus's refresh gap forces stale-state
        fallbacks (the TTL used to be accepted and dropped)."""
        import json
        from pathlib import Path

        from repro.__main__ import main

        plan = Path(__file__).resolve().parents[1] / "examples" / "lossy_bus.json"
        metrics = tmp_path / "m.json"
        assert main([
            "fig5", "--arrivals", "30", "--pods", "1", "--racks-per-pod", "1",
            "--hosts-per-rack", "4", "--faults", str(plan),
            "--state-ttl", "0.001", "--metrics-out", str(metrics),
        ]) == 0
        capsys.readouterr()
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["placement.stale_fallbacks"] > 0
