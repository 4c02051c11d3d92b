"""Differential matrix for the numpy allocator kernels.

The kernel contract (see :mod:`repro.network.kernels`) is byte-identity
by construction: the vectorized fill evaluates the same four scalar
IEEE-754 expressions as the Python reference, on the same operands, in
the same order.  These tests hold the two fills against each other
end-to-end, selecting one by pinning ``kernels.GROUP_CUTOFF`` (the
dispatch in :func:`repro.network.kernels.priority_fill` is the only
place that chooses):

* a seed x policy x workload replay matrix asserting byte-identical
  completion records, JSONL traces, and causal traces between the
  all-scalar run, the all-vector run and the shipped dispatch;
* the same matrix under an injected fault plan (degrade + down), since
  capacity mutations hit the drain clamp where float dust lives;
* a direct randomized fuzz of :func:`repro.network.kernels.priority_fill`
  against :func:`repro.network.policies.base.greedy_priority_fill`
  comparing rate maps with exact ``==`` (no tolerance), plus the pinned
  adjacent-float case in ``[2**23, 2**24)``, where ``argmin`` and the
  reference's epsilon chain part ways (the hypothesis fuzz over that
  band is ``test_alloc_properties.py``'s ``scenarios``);
* a structural test that an unconfigured replay takes the numpy fill
  for groups of at least ``GROUP_CUTOFF`` flows and the scalar fill
  below it, by counting calls;
* a ``slow``-marked soak on the paper's 160-host Clos, mirroring
  ``test_incremental_alloc.py``'s shadow-verify harness.
"""

from __future__ import annotations

import io
import itertools
import math
import random

import pytest

from repro.experiments.runner import replay_flow_trace
from repro.faults import FaultPlan, LinkDegrade, LinkDown
from repro.network import kernels
from repro.network.flow import Flow
from repro.network.policies.base import greedy_priority_fill
from repro.telemetry import (
    CausalTracer,
    JsonlTraceSink,
    MetricsRegistry,
    Telemetry,
)
from repro.topology.fabrics import three_tier_clos
from repro.workloads import generate_flow_trace, make_distribution
from tests.conftest import FILLS, pin_fill

requires_numpy = pytest.mark.skipif(
    not kernels.HAVE_NUMPY, reason="numpy not installed (perf extra)"
)

POLICIES = ("fair", "fcfs", "las", "srpt")


def small_clos():
    return three_tier_clos(pods=2, racks_per_pod=2, hosts_per_rack=5)


def degrade_plan(topo) -> FaultPlan:
    hosts = list(topo.hosts)
    return FaultPlan(
        events=(
            LinkDegrade(
                time=0.02, link=topo.host_uplink(hosts[0]).link_id, factor=0.4
            ),
            LinkDown(time=0.05, link=topo.host_downlink(hosts[3]).link_id),
        ),
        seed=3,
        name="kernel-differential",
    )


def run_replay(topo, *, policy, workload, seed, fill, faults=None,
               num_arrivals=80, load=0.6, placement="minload"):
    """One replay with every priority group on ``fill`` (a ``FILLS``
    leg); returns (records, trace_bytes, causal_events)."""
    trace = generate_flow_trace(
        hosts=topo.hosts,
        distribution=make_distribution(workload),
        load=load,
        edge_capacity=1e9,
        num_arrivals=num_arrivals,
        seed=seed,
    )
    buf = io.StringIO()
    telemetry = Telemetry(
        registry=MetricsRegistry(),
        trace=JsonlTraceSink(buf),
        causal=CausalTracer(),
    )
    with pytest.MonkeyPatch.context() as patch:
        pin_fill(patch, fill)
        run = replay_flow_trace(
            trace,
            topo,
            network_policy=policy,
            placement=placement,
            telemetry=telemetry,
            faults=faults,
        )
    telemetry.close()
    return run.records, buf.getvalue(), telemetry.causal.events


@requires_numpy
@pytest.mark.parametrize(
    "policy,workload,seed",
    list(itertools.product(POLICIES, ("websearch", "hadoop"), (11, 23))),
)
def test_numpy_backend_matches_python(policy, workload, seed):
    topo = small_clos()
    py, vec, default = (
        run_replay(
            topo, policy=policy, workload=workload, seed=seed, fill=fill
        )
        for fill in FILLS
    )
    for other in (vec, default):
        assert other[0] == py[0]  # completion records, byte for byte
        assert other[1] == py[1]  # JSONL trace text
        assert other[2] == py[2]  # causal event stream


@requires_numpy
@pytest.mark.parametrize("policy", POLICIES)
def test_numpy_backend_matches_python_under_faults(policy):
    topo = small_clos()
    plan = degrade_plan(topo)
    py, vec, default = (
        run_replay(
            topo, policy=policy, workload="websearch", seed=7,
            fill=fill, faults=plan,
        )
        for fill in FILLS
    )
    assert vec == py
    assert default == py


@requires_numpy
def test_priority_fill_fuzz_exact(monkeypatch):
    """Randomized groups/capacities: exact rate-map equality, including
    duplicate links within a path and near-zero residual capacities."""
    pin_fill(monkeypatch, "numpy")
    rng = random.Random(99)
    for trial in range(300):
        n_links = rng.randint(1, 24)
        links = [f"l{i}" for i in range(n_links)]
        capacities = {}
        for link in links:
            if rng.random() < 0.25:
                capacities[link] = rng.random() * 1e-8  # float-dust regime
            else:
                capacities[link] = rng.choice([1e9, 1e10, rng.random() * 4e10])
        flows = []
        for fid in range(rng.randint(1, 50)):
            hops = rng.randint(1, min(6, n_links))
            path = tuple(rng.choice(links) for _ in range(hops))
            flow = Flow(
                flow_id=fid, src="s", dst="d", size=1e9,
                arrival_time=0.0, path=path,
            )
            flows.append(flow)
        n_groups = rng.randint(1, 4)
        groups = [[] for _ in range(n_groups)]
        for flow in flows:
            groups[rng.randrange(n_groups)].append(flow)
        groups = [g for g in groups if g]
        reference = greedy_priority_fill(groups, capacities)
        vectorized = kernels.priority_fill(groups, capacities)
        assert vectorized == reference, f"trial {trial} diverged"


@requires_numpy
def test_adjacent_float_shares_below_2_24(monkeypatch):
    """In [2**23, 2**24) ``b - 1e-9`` rounds to the float below ``b``, so
    the reference does not hop from ``b`` to that float while a bare
    ``argmin`` does: the chain replay must cover the band."""
    pin_fill(monkeypatch, "numpy")
    flow = Flow(
        flow_id=0, src="s", dst="d", size=1e9, arrival_time=0.0,
        path=("L1", "L2"),
    )
    capacities = {"L1": 1.0e7, "L2": math.nextafter(1.0e7, 0.0)}
    reference = greedy_priority_fill([[flow]], capacities)
    assert reference[0] == 1.0e7
    assert kernels.priority_fill([[flow]], capacities) == reference


@pytest.mark.parametrize(
    "have_numpy",
    [pytest.param(True, marks=requires_numpy), False],
    ids=["numpy", "no-numpy"],
)
def test_default_replay_dispatches_on_group_size(have_numpy, monkeypatch):
    """An unconfigured replay sends groups of at least ``GROUP_CUTOFF``
    flows to the numpy fill and the rest to the scalar fill; without
    numpy every group takes the scalar fill.  Counted, not timed."""
    monkeypatch.setattr(kernels, "HAVE_NUMPY", have_numpy)
    sizes = {"water_fill": [], "_water_fill_numpy": []}
    for name, seen in sizes.items():
        def spy(flows, residual, rates, _fill=getattr(kernels, name),
                _seen=seen):
            _seen.append(len(flows))
            return _fill(flows, residual, rates)
        monkeypatch.setattr(kernels, name, spy)
    run_replay(
        small_clos(), policy="fair", workload="websearch", seed=11,
        fill="default", num_arrivals=200, load=0.9,
    )
    scalar, vector = sizes["water_fill"], sizes["_water_fill_numpy"]
    assert kernels.GROUP_CUTOFF == 16
    if have_numpy:
        assert vector and min(vector) >= 16
        assert scalar and max(scalar) < 16
    else:
        assert not vector
        assert max(scalar) >= 16


@requires_numpy
@pytest.mark.slow
def test_kernel_soak_clos_160():
    """Scalar-against-vector soak on the paper's 160-host Clos macro cell,
    with and without an injected fault plan."""
    topo = three_tier_clos()  # 4 pods x 4 racks x 10 hosts
    for policy, seed, faulted in (
        ("fair", 1, False),
        ("fair", 2, True),
        ("srpt", 3, False),
        ("las", 4, True),
        ("fcfs", 5, False),
    ):
        plan = degrade_plan(topo) if faulted else None
        py = run_replay(
            topo, policy=policy, workload="websearch", seed=seed,
            fill="python", faults=plan, num_arrivals=400, load=0.7,
            placement="mindist",
        )
        vec = run_replay(
            topo, policy=policy, workload="websearch", seed=seed,
            fill="numpy", faults=plan, num_arrivals=400, load=0.7,
            placement="mindist",
        )
        assert vec == py, f"{policy}/seed={seed}/faulted={faulted} diverged"
