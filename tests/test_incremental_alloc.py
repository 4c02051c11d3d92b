"""Incremental (scoped) rate allocation against the full recompute.

The fabric's correctness rests on the decomposition claim: every
``incremental_safe`` allocator couples flows only through shared link
capacities, so re-allocating the dirty sharing component and splicing
its rates into the cached map is exactly the global allocation.  The
fabric has one code path for that; the global allocation lives in
``tests/full_recompute_oracle.py``, which re-runs the allocator on every
active flow after every recompute and compares with ``==``.  These tests:

* run the oracle over a seed x policy x workload replay matrix, the
  coflow-attached SRPT case, mid-run cancellations and a ``slow``-marked
  soak on the 160-host Clos, each under every fill leg
  (``tests/conftest.py`` ``FILLS``), and check that the records and
  JSONL trace are byte-identical with the oracle installed or not;
* pin the two sub-bit near-tie chains where LAS and SRPT do not
  decompose, and check that the oracle reports them: near-tie groups
  are formed per sharing component (DESIGN.md §5.1);
* check that coflow allocators, whose MADD coupling violates the
  decomposition, keep no component and count only full recomputes.
"""

from __future__ import annotations

import io
import itertools
import json
import re

import pytest

from repro.coflow.coflow import Coflow
from repro.coflow.policies.registry import make_coflow_allocator
from repro.experiments.runner import replay_flow_trace
from repro.network.fabric import NetworkFabric
from repro.network.flow import Flow
from repro.network.policies.registry import make_allocator
from repro.sim.engine import Engine
from repro.telemetry import JsonlTraceSink, MetricsRegistry, Telemetry
from repro.topology.fabrics import single_switch, three_tier_clos
from repro.workloads import generate_flow_trace, make_distribution

from tests import full_recompute_oracle
from tests.conftest import FILLS, pin_fill

POLICIES = ("fair", "fcfs", "las", "srpt")
COFLOW_POLICIES = ("varys", "scf", "coflow-fcfs", "coflow-las", "coflow-fair")
WORKLOADS = ("websearch", "hadoop")
SEEDS = (11, 23)


def small_clos():
    return three_tier_clos(pods=2, racks_per_pod=2, hosts_per_rack=5)


def checked_runs(run):
    """``run()`` once per fill leg with the oracle installed: yields
    ``(fill, what run returned, active-set size per recompute checked)``."""
    for fill in FILLS:
        with pytest.MonkeyPatch.context() as patch:
            pin_fill(patch, fill)
            checked = full_recompute_oracle.install(patch)
            yield fill, run(), checked


def run_replay(topo, *, policy, workload, seed, placement="minload"):
    """One replay; returns (records, trace_bytes, recompute_counters)."""
    trace = generate_flow_trace(
        hosts=topo.hosts,
        distribution=make_distribution(workload),
        load=0.6,
        edge_capacity=1e9,
        num_arrivals=80,
        seed=seed,
    )
    buf = io.StringIO()
    telemetry = Telemetry(registry=MetricsRegistry(), trace=JsonlTraceSink(buf))
    run = replay_flow_trace(
        trace, topo, network_policy=policy, placement=placement,
        telemetry=telemetry,
    )
    telemetry.close()
    counters = telemetry.registry.as_dict()["counters"]
    recompute = {
        "full": counters.get("fabric.recompute.full", 0.0),
        "scoped": counters.get("fabric.recompute.scoped", 0.0),
    }
    return run.records, buf.getvalue(), recompute


# ----------------------------------------------------------------------
# The replay matrix: every recompute checked, byte-identical logs and traces
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "policy,workload,seed",
    list(itertools.product(POLICIES, WORKLOADS, SEEDS)),
)
def test_incremental_matches_full_recompute(policy, workload, seed):
    topo = small_clos()

    def run():
        return run_replay(topo, policy=policy, workload=workload, seed=seed)

    records, trace, counts = run()
    # Every recompute of a flow policy is scoped: one code path.
    assert counts["scoped"] > 0 and counts["full"] == 0
    for fill, checked_run, checked in checked_runs(run):
        # The oracle ran after every recompute and changed nothing: same
        # completions, same times, same order, same trace bytes.
        assert len(checked) == counts["scoped"], fill
        assert checked_run == (records, trace, counts), fill


def test_incremental_matches_full_with_coflow_attached_flows():
    """CCTs under a flow-level policy: coflow membership is measurement
    only (CCT = last member completion), so scoping must preserve it."""

    def run():
        engine = Engine()
        fabric = NetworkFabric(engine, single_switch(8), make_allocator("srpt"))
        hosts = list(fabric.topology.hosts)
        coflows = []
        for c_idx in range(4):
            coflow = Coflow(coflow_id=c_idx, arrival_time=c_idx * 0.4)
            coflows.append(coflow)
            for f_idx in range(3):
                src = hosts[(c_idx + f_idx) % 8]
                dst = hosts[(c_idx + f_idx + 3) % 8]
                size = 1e8 * (1 + c_idx) + 2e7 * f_idx
                engine.schedule_at(
                    c_idx * 0.4,
                    lambda s=src, d=dst, z=size, c=coflow: fabric.submit(
                        s, d, z, coflow=c
                    ),
                )
            engine.schedule_at(c_idx * 0.4, coflows[-1].seal)
        engine.run()
        return fabric.records, [c.completion_time for c in coflows]

    plain = run()
    assert all(cct is not None for cct in plain[1])
    for fill, checked_run, checked in checked_runs(run):
        assert checked and checked_run == plain, fill


def test_cancellation_differential():
    """Mid-run cancellations dirty the component like completions do."""

    def run():
        engine = Engine()
        fabric = NetworkFabric(engine, single_switch(6), make_allocator("fair"))
        hosts = list(fabric.topology.hosts)
        doomed = []
        for i in range(10):
            src, dst = hosts[i % 6], hosts[(i + 2) % 6]
            engine.schedule_at(
                0.05 * i,
                lambda s=src, d=dst, z=5e8 + 1e7 * i, keep=(i % 3 != 0): (
                    doomed.append(fabric.submit(s, d, z))
                    if not keep
                    else fabric.submit(s, d, z)
                ),
            )
        engine.schedule_at(
            0.6,
            lambda: [
                fabric.cancel_flow(f)
                for f in doomed
                if f.flow_id in {x.flow_id for x in fabric.active_flows()}
            ],
        )
        engine.run()
        return fabric.records

    plain = run()
    for fill, checked_run, checked in checked_runs(run):
        assert checked and checked_run == plain, fill


@pytest.mark.slow
@pytest.mark.parametrize("fill", FILLS)
def test_full_recompute_oracle_soak_clos(fill, monkeypatch):
    """Every recompute of long runs on the paper's 160-host Clos macro
    cell checked against the full allocation.

    Locality-aware placement keeps most sharing components rack-local,
    which is exactly the regime where scoped recomputes diverge first if
    the kept components under-reach.
    """
    pin_fill(monkeypatch, fill)
    checked = full_recompute_oracle.install(monkeypatch)
    topo = three_tier_clos()  # 160 hosts
    for placement, seed in (("mindist", 1), ("minload", 2)):
        trace = generate_flow_trace(
            hosts=topo.hosts,
            distribution=make_distribution("websearch"),
            load=0.7,
            edge_capacity=1e9,
            num_arrivals=600,
            seed=seed,
        )
        run = replay_flow_trace(
            trace, topo, network_policy="srpt", placement=placement,
        )
        assert len(run.records) == len(trace)
    assert len(checked) > 2000


# ----------------------------------------------------------------------
# Where LAS and SRPT do not decompose: sub-bit near-tie chains
# ----------------------------------------------------------------------
#: Flows 0 and 2 share h000's uplink with keys 1.2 bits apart: two
#: priority groups in their component.  Flow 1, on disjoint links, sits
#: 0.6 bits from each, so over the full set the adjacent-key merge
#: chains all three into one fair-shared group.
_SRPT_CHAIN = (
    ("h000", "h001", 1e9), ("h003", "h004", 1e9 + 0.6),
    ("h000", "h002", 1e9 + 1.2),
)


def test_oracle_reports_the_srpt_near_tie_chain(monkeypatch):
    engine = Engine()
    fabric = NetworkFabric(engine, single_switch(6), make_allocator("srpt"))
    for src, dst, size in _SRPT_CHAIN:
        fabric.submit(src, dst, size)
    engine.run()
    # The fabric's answer: flow 0 leads its component and runs alone
    # (over the full set it would share with flow 2 and finish at 2 s).
    assert [(r.flow_id, r.fct) for r in fabric.records] == [
        (0, 1.0), (1, pytest.approx(1.0)), (2, pytest.approx(2.0)),
    ]

    full_recompute_oracle.install(monkeypatch)
    engine = Engine()
    fabric = NetworkFabric(engine, single_switch(6), make_allocator("srpt"))
    for src, dst, size in _SRPT_CHAIN[:2]:
        fabric.submit(src, dst, size)
    with pytest.raises(AssertionError, match=re.escape(
        "flow 0: scoped=1000000000.0 full=500000000.0; "
        "flow 2: scoped=0.0 full=500000000.0"
    )):
        fabric.submit(*_SRPT_CHAIN[2])


def test_oracle_reports_the_las_near_tie_chain(monkeypatch):
    topo = single_switch(6)
    capacities = {link.link_id: link.capacity for link in topo.links()}
    flows = []
    for flow_id, (src, dst, attained) in enumerate(
        (("h000", "h001", 0.0), ("h003", "h004", 0.6), ("h000", "h002", 1.2))
    ):
        flow = Flow(
            flow_id, src, dst, 1e9, (f"{src}->sw0", f"sw0->{dst}"), 0.0
        )
        flow.advance(attained)
        flows.append(flow)
    las = make_allocator("las")
    assert las.allocate(flows, capacities) == {0: 5e8, 1: 1e9, 2: 5e8}
    assert las.allocate(flows[::2], capacities) == {0: 1e9, 2: 0.0}

    # The same keys in a fabric: h000 -> h002 arrives when the two older
    # flows, alone on their links, have attained 1.2 and 0.6 bits.
    full_recompute_oracle.install(monkeypatch)
    engine = Engine()
    fabric = NetworkFabric(engine, single_switch(6), make_allocator("las"))
    fabric.submit("h000", "h002", 1e9)
    engine.run(until=0.6e-9)
    fabric.submit("h003", "h004", 1e9)
    engine.run(until=1.2e-9)
    fabric.degrade_link("h003->sw0", 1.0)  # an event: syncs h003's flow
    with pytest.raises(AssertionError, match=re.escape(
        "flow 0: scoped=0.0 full=500000000.0; "
        "flow 2: scoped=1000000000.0 full=500000000.0"
    )):
        fabric.submit("h000", "h001", 1e9)


# ----------------------------------------------------------------------
# Coflow allocators: always the full active set
# ----------------------------------------------------------------------
def _counted(allocator):
    """Three flows on ``single_switch(4)``, two of them in disjoint
    components at first; returns the drained fabric and its
    ``(full, scoped)`` recompute counts."""
    telemetry = Telemetry(registry=MetricsRegistry())
    engine = Engine(telemetry=telemetry)
    fabric = NetworkFabric(
        engine, single_switch(4), allocator, telemetry=telemetry
    )
    fabric.submit("h000", "h001", 1e9)
    fabric.submit("h002", "h003", 2e9)  # disjoint component
    fabric.submit("h000", "h003", 1e9)
    engine.run()
    counters = telemetry.registry.as_dict()["counters"]
    return fabric, (
        counters.get("fabric.recompute.full", 0.0),
        counters.get("fabric.recompute.scoped", 0.0),
    )


def test_coflow_allocator_refuses_incremental(monkeypatch):
    """A recompute's scope is a property of the allocator: a coflow
    allocator is not ``incremental_safe``, its fabric keeps no sharing
    component, and every recompute hands it the whole active set, even
    when the active flows sit in disjoint components."""
    for name in COFLOW_POLICIES:
        allocator, handed = make_coflow_allocator(name), []
        allocate = allocator.allocate
        monkeypatch.setattr(
            allocator,
            "allocate",
            lambda flows, capacities: handed.append(
                (len(flows), len(fabric._active))
            )
            or allocate(flows, capacities),
        )
        assert not allocator.incremental_safe, name
        engine = Engine()
        fabric = NetworkFabric(engine, single_switch(4), allocator)
        assert fabric._component_on is None, name
        fabric.submit("h000", "h001", 1e9)
        fabric.submit("h002", "h003", 2e9)  # disjoint component
        engine.run()
        assert fabric._component_on is None, name
        assert (2, 2) in handed, name
        assert all(seen == active for seen, active in handed), name


def test_coflow_allocator_defaults_to_full_recompute():
    """Every recompute a coflow allocator makes is counted full; every
    one a flow policy makes is counted scoped."""
    for name in COFLOW_POLICIES:
        fabric, (full, scoped) = _counted(make_coflow_allocator(name))
        assert fabric._component_on is None, name
        assert full > 0 and scoped == 0, name
    for name in POLICIES:
        fabric, (full, scoped) = _counted(make_allocator(name))
        assert fabric._component_on == {}, name  # drained
        assert scoped > 0 and full == 0, name


# ----------------------------------------------------------------------
# Trace payload of rate_recompute
# ----------------------------------------------------------------------
def test_rate_recompute_trace_reports_component_size():
    buf = io.StringIO()
    telemetry = Telemetry(trace=JsonlTraceSink(buf))
    engine = Engine(telemetry=telemetry)
    fabric = NetworkFabric(
        engine, single_switch(4), make_allocator("fair"), telemetry=telemetry
    )
    hosts = list(fabric.topology.hosts)
    fabric.submit(hosts[0], hosts[1], 1e9)
    fabric.submit(hosts[2], hosts[3], 1e9)  # disjoint component
    engine.run()
    telemetry.close()
    events = [json.loads(line) for line in buf.getvalue().splitlines()]
    recomputes = [e for e in events if e["event"] == "rate_recompute"]
    assert recomputes, "no rate_recompute events traced"
    for event in recomputes:
        assert {"active_flows", "component_flows", "component_links"} <= set(
            event
        )
        assert event["component_flows"] <= event["active_flows"]
    # The second arrival touches a disjoint pair of edge links, so its
    # recompute must be scoped below the full active set.
    assert any(
        e["component_flows"] < e["active_flows"] for e in recomputes
    )
