"""The binding closure: a fair recompute re-fills only what its event reaches.

An allocator that declares ``one_max_min_group`` (fair) lets the fabric
re-fill, on an arrival or a removal, only the flows reachable from the
event over links that can bind, keeping every other cached rate
(DESIGN.md §5.1, "Binding closure").  These tests run each scenario with
the declaration on and patched off (every fill then takes the whole
settled sharing component, the allocation the fabric made before), and
require byte-equal records and JSONL traces, with the full-recompute
oracle installed where the scenario's own rates are exact, and a count
of narrowed fills above zero, so no leg passes by never narrowing.

* ``test_a_re_entering_listener_ends_narrowing``: a completion listener
  and an arrival listener that submit synchronously, under the oracle
  (listeners run on a settled fabric, so narrowing goes on after them);
* ``test_a_sub_floor_component_fills_whole``: links degraded until a
  share is below ``kernels.ARGMIN_FLOOR``: a pinned near-tie the closure
  alone would fill differently, and seeded runs with cancellations and
  equal sizes (flows finish together while settling), under the oracle;
* ``test_faulted_replays_match_whole_fills``: replays with a degraded and
  a failed link, under the oracle, every fill leg;
* the work-conservation guard on a non-empty fill and an empty one;
* ``TestFairRecomputeCost``: a ``sys.setprofile`` budget on calls per fair
  recompute of a pinned 40-host replay, and the mean flows per fill
  against the mean sharing component, so a closure that silently stops
  narrowing fails tier-1; the same budget per SRPT and LAS recompute, per
  minLoad decision and per coflow allocation, and the mean flows the
  priority closure re-fills per SRPT refill against its cascade.
"""

from __future__ import annotations

import io
import random
import sys
from typing import List

import pytest

from repro.errors import FlowError
from repro.coflow.policies.base import CoflowAllocator
from repro.experiments.runner import replay_coflow_trace, replay_flow_trace
from repro.faults import FaultPlan, LinkDegrade, LinkDown
from repro.network.fabric import NetworkFabric
from repro.network import kernels
from repro.network.kernels import ARGMIN_FLOOR
from repro.network.policies.fair import FairAllocator
from repro.network.policies.registry import make_allocator
from repro.placement.baselines import MinLoadPolicy
from repro.sim.engine import Engine
from repro.telemetry import JsonlTraceSink, MetricsRegistry, Telemetry
from repro.topology.base import Topology, TopoNode
from repro.topology.fabrics import three_tier_clos
from repro.workloads import (
    generate_coflow_trace,
    generate_flow_trace,
    make_distribution,
)

from tests import full_recompute_oracle
from tests.conftest import FILLS, pin_fill


def count_fills(patch) -> List[str]:
    """Wrap the closure: the list gains ``"narrowed"`` for each fill it
    narrowed and ``"floor"`` for each it kept whole for a sub-floor share
    (narrowing on, an arrival or removal, the settled scope returned)."""
    closure = NetworkFabric._binding_closure
    kinds: List[str] = []

    def counting(fabric, survivors, dirty_links, comp_links, departed):
        narrowing = fabric._narrowing and departed is not None
        fill = closure(fabric, survivors, dirty_links, comp_links, departed)
        if len(fill) < len(survivors):
            kinds.append("narrowed")
        elif narrowing and fill is survivors:
            kinds.append("floor")
        return fill

    patch.setattr(NetworkFabric, "_binding_closure", counting)
    return kinds


def both_ways(run, *, oracle=False, marked=False):
    """``run()`` with the declaration patched off, then on: returns both
    results and the fill kinds counted on the narrowing side.  ``marked``:
    ``run`` takes the list those kinds go to (``None`` on the other side)
    and may add marks of its own to it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FairAllocator, "one_max_min_group", False)
        if oracle:
            full_recompute_oracle.install(patch)
        whole = run(None) if marked else run()
    with pytest.MonkeyPatch.context() as patch:
        kinds = count_fills(patch)
        if oracle:
            full_recompute_oracle.install(patch)
        narrowed = run(kinds) if marked else run()
    return whole, narrowed, kinds


def traced_fabric(topo):
    buf = io.StringIO()
    telemetry = Telemetry(registry=MetricsRegistry(), trace=JsonlTraceSink(buf))
    engine = Engine()
    fabric = NetworkFabric(
        engine, topo, make_allocator("fair"), telemetry=telemetry
    )
    return engine, fabric, telemetry, buf


# ----------------------------------------------------------------------
# A listener that calls back into the fabric
# ----------------------------------------------------------------------
def re_entrant_run(seed: int, listener: str = "completion", marks=None):
    """25 seeded arrivals in the first 50 ms on a 16-host Clos, and a
    ``listener`` (``"completion"`` or ``"arrival"``) that submits
    synchronously, at most 40 times, appending ``"submit"`` to ``marks``
    first.  The arrival listener answers the seeded flows above 2e7 bits
    only (its own are smaller), so it does not chain."""
    engine, fabric, telemetry, buf = traced_fabric(
        three_tier_clos(pods=2, racks_per_pod=2, hosts_per_rack=4)
    )
    hosts = list(fabric.topology.hosts)
    rng = random.Random(seed)
    for _ in range(25):
        src, dst = rng.sample(hosts, 2)
        size = rng.uniform(1e6, 4e7)
        engine.schedule_at(
            rng.uniform(0.0, 0.05),
            lambda s=src, d=dst, z=size: fabric.submit(s, d, z),
        )
    budget, arrival = [40], listener == "arrival"

    def resubmit(flow, record=None):
        if budget[0] and not (arrival and flow.size <= 2e7):
            budget[0] -= 1
            if marks is not None:
                marks.append("submit")
            size = rng.uniform(1e6, 2e7 if arrival else 4e7)
            fabric.submit(flow.dst, rng.choice(hosts), size)

    if arrival:
        fabric.add_arrival_listener(resubmit)
    else:
        fabric.add_completion_listener(resubmit)
    engine.run()
    telemetry.close()
    return fabric.records, buf.getvalue()


def test_a_re_entering_listener_ends_narrowing():
    """Listeners run on a settled fabric (DESIGN.md §5.1, "Listeners"): a
    completion listener after the recompute that settled its flow, an
    arrival listener after its own flow's recompute, so a listener that
    submits starts a fresh recompute and nothing it does ends narrowing.
    Under the full-recompute oracle, both kinds of listener give the
    whole fills' records and trace, and fills keep narrowing after the
    first listener submit."""
    for listener in ("completion", "arrival"):
        narrowed_fills = 0
        for seed in range(30):
            whole, narrowed, kinds = both_ways(
                lambda marks: re_entrant_run(seed, listener, marks),
                oracle=True,
                marked=True,
            )
            assert narrowed == whole, f"{listener} listener, seed {seed}"
            assert "submit" in kinds, f"{listener} listener, seed {seed}"
            narrowed_fills += kinds[kinds.index("submit"):].count("narrowed")
        assert narrowed_fills > 0, f"{listener} listener"


# ----------------------------------------------------------------------
# A share below the floor
# ----------------------------------------------------------------------
def degraded_run(seed: int):
    """Equal-sized flows on a 16-host Clos (so flows finish together
    while settling), h000's uplink degraded to 2e7 bit/s (one flow's share
    is below ``ARGMIN_FLOOR``) for 60 ms, then restored."""
    topo = three_tier_clos(pods=2, racks_per_pod=2, hosts_per_rack=4)
    engine, fabric, telemetry, buf = traced_fabric(topo)
    hosts = list(topo.hosts)
    rng = random.Random(seed)
    for _ in range(60):
        src, dst = rng.sample(hosts, 2)
        size = rng.choice((2e6, 5e6, 1e7))
        engine.schedule_at(
            rng.randrange(20) * 5e-3,
            lambda s=src, d=dst, z=size: fabric.submit(s, d, z),
        )
    uplink = topo.host_uplink(hosts[0]).link_id
    engine.schedule_at(0.02, lambda: fabric.degrade_link(uplink, 0.02))
    for when in (0.03, 0.06, 0.09):  # a removal that is not a completion
        engine.schedule_at(
            when, lambda: fabric.cancel_flow(fabric.active_flows()[0])
        )
    engine.schedule_at(0.08, lambda: fabric.degrade_link(uplink, 50.0))
    engine.run()
    telemetry.close()
    return fabric.records, buf.getvalue()


def near_tie_run():
    """Two switches joined by a 1e9 trunk, host links degraded to shares
    near 3 bit/s that lie within ``RATE_EPSILON`` of each other.  Flow 3
    arrives last and reaches {0, 2, 3} over binding links; flow 1 shares
    only the slack trunk with them.  Below the floor the reference's
    epsilon chain need not end at the first minimum: over all four flows
    it hops from sw1->h003 to h001->sw0 (flow 1's link), skips h002->sw0
    (not 1e-9 below that) and ends at sw1->h005; over {0, 2, 3} alone it
    hops to h002->sw0 and ends there (sw1->h005 is not 1e-9 below it).
    So filling the closure alone would give flows 2 and 3 other rates."""
    topo = Topology("near-tie")
    for switch in ("sw0", "sw1"):
        topo.add_node(TopoNode(switch, "switch"))
    topo.add_duplex_link("sw0", "sw1", 1e9)
    for i in range(6):
        topo.add_node(TopoNode(f"h{i:03d}", "host", rack=i // 3, pod=0))
        topo.add_duplex_link(f"h{i:03d}", f"sw{i // 3}", 1e9, is_edge=True)
    engine, fabric, telemetry, buf = traced_fabric(topo)
    for link, capacity in (
        ("h000->sw0", 9.0),  # flows 0 and 3: share 4.5
        ("sw1->h003", 3.0 + 1.8e-9),  # flow 0
        ("h001->sw0", 3.0 + 0.7e-9),  # flow 1
        ("h002->sw0", 3.0 + 0.5e-9),  # flow 2
        ("sw1->h005", 2 * (3.0 - 0.4e-9)),  # flows 2 and 3
    ):
        fabric.degrade_link(link, capacity / 1e9)
    for src, dst in (("h000", "h003"), ("h001", "h004"), ("h002", "h005"),
                     ("h000", "h005")):
        fabric.submit(src, dst, 30.0)
    engine.run()
    telemetry.close()
    return fabric.records, buf.getvalue()


def test_a_sub_floor_component_fills_whole():
    assert 2e7 < ARGMIN_FLOOR
    narrowed_fills = 0
    for run in [near_tie_run] + [
        lambda seed=seed: degraded_run(seed) for seed in range(8)
    ]:
        whole, narrowed, kinds = both_ways(run, oracle=True)
        assert narrowed == whole
        assert kinds.count("floor") > 0
        narrowed_fills += kinds.count("narrowed")
    assert narrowed_fills > 0


# ----------------------------------------------------------------------
# Faulted replays, every fill leg, under the oracle
# ----------------------------------------------------------------------
def faulted_replay(topo, workload: str, seed: int):
    hosts = list(topo.hosts)
    plan = FaultPlan(
        events=(
            LinkDegrade(
                time=0.02, link=topo.host_uplink(hosts[0]).link_id, factor=0.4
            ),
            LinkDown(time=0.05, link=topo.host_downlink(hosts[3]).link_id),
        ),
        seed=3,
        name="binding-closure",
    )
    trace = generate_flow_trace(
        hosts=topo.hosts,
        distribution=make_distribution(workload),
        load=0.7,
        edge_capacity=1e9,
        num_arrivals=120,
        seed=seed,
    )
    buf = io.StringIO()
    telemetry = Telemetry(registry=MetricsRegistry(), trace=JsonlTraceSink(buf))
    run = replay_flow_trace(
        trace, topo, network_policy="fair", placement="minload",
        telemetry=telemetry, faults=plan,
    )
    telemetry.close()
    return run.records, buf.getvalue()


@pytest.mark.parametrize("fill", FILLS)
@pytest.mark.parametrize("workload", ["websearch", "hadoop"])
def test_faulted_replays_match_whole_fills(workload, fill, monkeypatch):
    pin_fill(monkeypatch, fill)
    topo = three_tier_clos(pods=2, racks_per_pod=2, hosts_per_rack=5)
    for seed in (11, 23):
        whole, narrowed, kinds = both_ways(
            lambda: faulted_replay(topo, workload, seed), oracle=True
        )
        assert narrowed == whole, f"{workload}/{seed}"
        assert kinds.count("narrowed") > 0, f"{workload}/{seed}"


# ----------------------------------------------------------------------
# The work-conservation guard
# ----------------------------------------------------------------------
class Idle(FairAllocator):
    """Declares one max-min group and hands out nothing."""

    name = "idle"

    def allocate(self, flows, capacities):
        return {flow.flow_id: 0.0 for flow in flows}


@pytest.mark.parametrize("narrowing", [True, False])
def test_the_guard_fires_for_any_non_empty_fill(narrowing, monkeypatch):
    monkeypatch.setattr(Idle, "one_max_min_group", narrowing)
    fabric = NetworkFabric(Engine(), three_tier_clos(pods=1), Idle())
    with pytest.raises(FlowError, match="not work-conserving"):
        fabric.submit("h000", "h010", 1e9)


def test_an_empty_fill_is_no_stall(monkeypatch):
    """Two flows joined only by slack ToR-aggregation links: the short one
    completes, its closure reaches nobody, the allocator is handed no flow
    and the other keeps its rate."""
    kinds = count_fills(monkeypatch)
    checked = full_recompute_oracle.install(monkeypatch)
    engine = Engine()
    fabric = NetworkFabric(engine, three_tier_clos(pods=1), make_allocator("fair"))
    fills: List[int] = []
    reallocate = NetworkFabric._reallocate

    def sized(fabric, fill, *args):
        fills.append(len(fill))
        reallocate(fabric, fill, *args)

    monkeypatch.setattr(NetworkFabric, "_reallocate", sized)
    short = fabric.submit("h000", "h010", 1e8)
    long = fabric.submit("h001", "h012", 1e9)
    engine.run()
    assert fills == [1, 1, 0] and len(checked) == 3
    assert (short.fct(), long.fct()) == (0.1, 1.0)
    assert kinds.count("narrowed") == 2


# ----------------------------------------------------------------------
# The structural guard: calls per fair recompute, flows per fill
# ----------------------------------------------------------------------
def pinned_replay(policy="fair"):
    """A pinned minLoad replay on the 40-host Clos the figures default to."""
    topo = three_tier_clos(pods=2, racks_per_pod=2, hosts_per_rack=10)
    trace = generate_flow_trace(
        hosts=topo.hosts,
        distribution=make_distribution("websearch"),
        load=0.7,
        edge_capacity=1e9,
        num_arrivals=300,
        seed=1,
    )
    replay_flow_trace(trace, topo, network_policy=policy, placement="minload")


def pinned_coflow_replay():
    """A pinned Varys + minLoad replay of 100 coflows on the same Clos."""
    topo = three_tier_clos(pods=2, racks_per_pod=2, hosts_per_rack=10)
    trace = generate_coflow_trace(
        hosts=topo.hosts,
        distribution=make_distribution("hadoop"),
        load=0.7,
        edge_capacity=1e9,
        num_arrivals=100,
        seed=1,
    )
    replay_coflow_trace(trace, topo, network_policy="varys", placement="minload")


def calls_per_frame(function, run):
    """Python and C calls made inside ``function`` (nested ones included)
    per outermost call of it during ``run()``, and those calls' count."""
    code = function.__code__
    depth = calls = frames = 0

    def profiler(frame, event, arg):
        nonlocal depth, calls, frames
        if event == "call" and frame.f_code is code:
            frames += not depth
            depth += 1
        elif event == "return" and frame.f_code is code:
            depth -= 1
        if depth and event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls / frames, frames


def fill_and_component_sizes(run, patch):
    """Mean flows handed to the allocator and mean sharing-component size
    (flows finished while settling included) per recompute of ``run()``."""
    reallocate = NetworkFabric._reallocate
    fills, components = [], []

    def sized(fabric, fill, comp_links, component_size, now):
        fills.append(len(fill))
        components.append(component_size)
        reallocate(fabric, fill, comp_links, component_size, now)

    patch.setattr(NetworkFabric, "_reallocate", sized)
    run()
    return sum(fills) / len(fills), sum(components) / len(components)


def refill_sizes(run, patch):
    """Mean flows the priority closure re-fills and mean flows in the
    one-flow cascade it is handed, per refill of ``run()``."""
    refill = kernels.refill
    refilled, handed = [], []

    def sized(groups, *args):
        rates = refill(groups, *args)
        refilled.append(len(rates))
        handed.append(len(groups))
        return rates

    patch.setattr(kernels, "refill", sized)
    run()
    return sum(refilled) / len(refilled), sum(handed) / len(handed)


class TestFairRecomputeCost:
    """Structural guards on the host cost of a recompute and of a minLoad
    decision, read off the pinned replay (CPython 3.11, shipped dispatch;
    each bound is the measured value + 10%).  With the closure off the fair
    replay makes 1,110.9 calls per recompute and fills 22.8 flows, the
    whole component."""

    #: measured -> bound: Python and C calls inside ``_recompute``, per
    #: recompute (414.1 with every group on the scalar fills; 604.5 when
    #: large groups took the numpy fill, repro 1.11; 426.7 with a sync call
    #: per flow, repro 1.15; 410.5 before a completion was queued for the
    #: listeners, one append and one notify call each, repro 1.16; 411.5
    #: while reads synced, repro 1.18: a recompute now advances the flows
    #: a decision's read used to; 439.8 with a ``Flow.advance`` call and
    #: its ``min`` per synced flow, repro 1.19; 398.3 with a call to the
    #: allocator's no-op removal hook per finished flow, repro 1.21; 397.8
    #: with a completion rescheduled through its own method call and a
    #: rate read through ``dict.get`` per spliced flow, before the priority
    #: closure).
    CALLS_PER_RECOMPUTE = (392.0, 431.2)
    #: policy -> (recomputes, calls per recompute measured -> bound) of the
    #: hinting policies: one sorted sweep per change-point hint and one sync
    #: frame per recompute (617.6 and 1,094.5 with the tracked-list mover
    #: scan and a sync call per flow, repro 1.15; LAS 840.7 with the
    #: re-entrant hint cancel, repro 1.16; 501.5 and 840.5 over 615 and 769
    #: recomputes while reads synced, repro 1.18; 515.3 and 858.0 with a
    #: ``Flow.advance`` call per synced flow, repro 1.19; 497.2 and 825.6
    #: with the allocator's no-op removal hook, repro 1.21; 496.7 and 825.2
    #: before the priority closure, when every SRPT recompute re-filled its
    #: whole one-flow cascade).
    HINTING_RECOMPUTES = {"srpt": (615, 378.8, 416.7), "las": (768, 800.3, 880.3)}
    #: measured -> bound: calls inside ``MinLoadPolicy.place`` per decision
    #: of the SRPT replay, one batched read of one pass per host (337.0 with
    #: a ``host_queued_bits`` call per candidate, repro 1.15; 182.2 while the
    #: read synced, repro 1.18; 175.4 with a residual map per read, repro
    #: 1.21).
    CALLS_PER_MINLOAD_DECISION = (162.3, 178.5)
    #: (allocations, calls per allocation measured -> bound) inside
    #: ``CoflowAllocator.allocate`` on the pinned coflow replay: one
    #: allocation per placed coflow and per completion recompute, the
    #: back-fill's rounds over what MADD left unsaturated only (724
    #: allocations of 1,350.9 calls, one per submit, repro 1.17; 1,332.5
    #: with the 0.0 columns swept inside the rounds, repro 1.19).
    COFLOW_ALLOCATIONS = (410, 1117.5, 1230.0)
    #: measured -> bound: flows handed to the allocator per recompute,
    #: against 23.27 flows in the sharing component it settles.
    FLOWS_PER_FILL = (3.694, 4.06)
    FILL_SHARE_OF_COMPONENT = (3.694 / 23.268, 0.175)
    #: measured -> bound: flows the priority closure re-fills per SRPT
    #: refill, against 16.27 flows in the cascade it is handed (before the
    #: closure every recompute re-filled them all).
    REFILLS_PER_SRPT_FILL = (4.46, 4.91)
    REFILL_SHARE_OF_CASCADE = (4.46 / 16.27, 0.30)

    def test_calls_per_fair_recompute_stay_bounded(self):
        measured, bound = self.CALLS_PER_RECOMPUTE
        calls, _ = calls_per_frame(NetworkFabric._recompute, pinned_replay)
        assert calls <= bound

    @pytest.mark.parametrize("policy", sorted(HINTING_RECOMPUTES))
    def test_calls_per_hinting_recompute_stay_bounded(self, policy):
        recomputes, measured, bound = self.HINTING_RECOMPUTES[policy]
        calls, frames = calls_per_frame(
            NetworkFabric._recompute, lambda: pinned_replay(policy)
        )
        assert frames == recomputes and calls <= bound

    def test_calls_per_minload_decision_stay_bounded(self):
        measured, bound = self.CALLS_PER_MINLOAD_DECISION
        calls, decisions = calls_per_frame(
            MinLoadPolicy.place, lambda: pinned_replay("srpt")
        )
        assert decisions == 300 and calls <= bound

    def test_calls_per_coflow_allocation_stay_bounded(self):
        allocations, measured, bound = self.COFLOW_ALLOCATIONS
        calls, frames = calls_per_frame(
            CoflowAllocator.allocate, pinned_coflow_replay
        )
        assert frames == allocations and calls <= bound

    def test_a_fill_is_a_fraction_of_its_component(self, monkeypatch):
        fill, component = fill_and_component_sizes(pinned_replay, monkeypatch)
        assert fill <= self.FLOWS_PER_FILL[1]
        assert fill / component <= self.FILL_SHARE_OF_COMPONENT[1]

    def test_an_srpt_refill_is_a_fraction_of_its_cascade(self, monkeypatch):
        refilled, handed = refill_sizes(lambda: pinned_replay("srpt"), monkeypatch)
        assert refilled <= self.REFILLS_PER_SRPT_FILL[1]
        assert refilled / handed <= self.REFILL_SHARE_OF_CASCADE[1]
