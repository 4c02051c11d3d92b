"""Property-based tests for the four flow-level RateAllocators and the five
coflow allocators.

Hypothesis generates random flow/link scenarios and checks the invariants
every allocator must uphold regardless of input:

* **feasibility** — no link's allocated rates exceed its capacity;
* **work conservation** — every flow is bottlenecked somewhere: at least
  one link on its path is (float-)saturated, so no rate can be raised
  without breaking feasibility;
* **max-min (Fair)** — each flow has a saturated link on which its rate
  is maximal, the water-level characterisation of max-min fairness;
* **priority dominance (FCFS/LAS/SRPT)** — with a single contended link
  and well-separated priority keys, the top-priority flow takes the full
  capacity and everyone else gets zero;
* **permutation invariance** — the allocation is a function of the flow
  *set*, not the order the caller lists it in (bit-for-bit, which the
  incremental fabric's splicing relies on);
* **fill equivalence** — the column fill returns the *exact* same rate
  map as the scalar fill (``==`` on the dicts, no tolerance), including
  on adjacent-float capacities in ``[2**23, 2**24)`` and on Clos-shaped
  groups, where it drops slack links;
* **capacity maps are read, never iterated** — a shuffled map and one
  with links on no path give the same rates;
* **coflow policies** — feasibility and work conservation as above on
  mixed flow / coflow traffic, and **MADD equal finish**: ahead of the
  back-fill, the members of a served coflow share one
  ``remaining / rate``.

Every invariant runs once per fill leg (``tests/conftest.py``
``FILLS``): every group on the scalar fill, every last group on the
column fill — these scenarios are deliberately small, so the cutoff is
pinned for the column fill to run at all — and the shipped dispatch.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.network import kernels
from repro.network.flow import Flow
from repro.network.policies.registry import make_allocator
from tests.conftest import FILLS, pin_fill
from tests.priority_oracle import greedy_priority_fill
from tests.test_kernel_differential import clos_case

ALLOCATOR_NAMES = ("fair", "fcfs", "las", "srpt")


def allocate(name: str, fill: str, flows, capacities):
    """One allocation with every priority group on ``fill``.  (A fixture
    can't pin it: hypothesis forbids function-scoped fixtures under
    @given.)"""
    with pytest.MonkeyPatch.context() as patch:
        pin_fill(patch, fill)
        return make_allocator(name).allocate(flows, capacities)


#: Feasibility slack: absolute bits/sec of float dust tolerated per link.
CAPACITY_SLACK = 1e-3

SETTINGS = dict(max_examples=60, deadline=None, derandomize=True)

LINK_POOL = ("l0", "l1", "l2", "l3", "l4")


@st.composite
def scenarios(draw) -> Tuple[List[Flow], Dict[str, float]]:
    """A random set of flows over a random set of capacitated links.

    Sizes/attained are drawn so every flow stays clear of the completion
    epsilon, and keys (arrival, attained, remaining) vary freely.  A
    link's capacity is a free draw or one of three adjacent floats in
    ``[2**23, 2**24)``: the band where neighbouring shares sit closer
    than ``RATE_EPSILON`` yet ``b - 1e-9`` still rounds away from ``b``,
    so the epsilon tie-break and a bare minimum pick different links.
    """
    n_links = draw(st.integers(min_value=1, max_value=5))
    links = LINK_POOL[:n_links]
    near = draw(
        st.floats(min_value=2.0**23, max_value=2.0**24, exclude_max=True)
    )
    capacity = st.floats(min_value=1e6, max_value=1e9) | st.sampled_from(
        (math.nextafter(near, 0.0), near, math.nextafter(near, math.inf))
    )
    capacities = {link: draw(capacity) for link in links}
    n_flows = draw(st.integers(min_value=1, max_value=8))
    flows: List[Flow] = []
    for flow_id in range(n_flows):
        indexes = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_links - 1),
                min_size=1,
                max_size=min(3, n_links),
                unique=True,
            )
        )
        size = draw(st.floats(min_value=1e4, max_value=1e10))
        flow = Flow(
            flow_id=flow_id,
            src="s",
            dst="d",
            size=size,
            path=tuple(links[i] for i in indexes),
            arrival_time=draw(st.floats(min_value=0.0, max_value=100.0)),
        )
        flow.advance(size * draw(st.floats(min_value=0.0, max_value=0.9)))
        flows.append(flow)
    return flows, capacities


def link_usage(flows, rates) -> Dict[str, float]:
    used: Dict[str, float] = {}
    for flow in flows:
        rate = rates.get(flow.flow_id, 0.0)
        for link_id in flow.path:
            used[link_id] = used.get(link_id, 0.0) + rate
    return used


def assert_feasible(name, flows, capacities, rates) -> None:
    """One non-negative rate per flow, no link over capacity."""
    assert set(rates) == {f.flow_id for f in flows}
    assert all(rate >= 0.0 for rate in rates.values()), name
    for link_id, used in link_usage(flows, rates).items():
        assert used <= capacities[link_id] + CAPACITY_SLACK, (
            f"{name}: link {link_id} over capacity"
        )


def assert_work_conserving(name, flows, capacities, rates) -> None:
    """No flow's rate can be raised: each has a saturated path link."""
    used = link_usage(flows, rates)
    for flow in flows:
        saturated = any(
            used.get(link_id, 0.0)
            >= capacities[link_id] * (1.0 - 1e-9) - CAPACITY_SLACK
            for link_id in flow.path
        )
        assert saturated, (
            f"{name}: flow {flow.flow_id} rate={rates[flow.flow_id]} "
            "has slack on every path link (not work-conserving)"
        )


@pytest.mark.parametrize("fill", FILLS)
@given(scenarios())
@settings(**SETTINGS)
def test_capacity_never_exceeded(fill, scenario):
    flows, capacities = scenario
    for name in ALLOCATOR_NAMES:
        rates = allocate(name, fill, flows, capacities)
        assert_feasible(name, flows, capacities, rates)


@pytest.mark.parametrize("fill", FILLS)
@given(scenarios())
@settings(**SETTINGS)
def test_work_conservation(fill, scenario):
    """No flow's rate can be raised: each has a saturated path link."""
    flows, capacities = scenario
    for name in ALLOCATOR_NAMES:
        rates = allocate(name, fill, flows, capacities)
        assert_work_conserving(name, flows, capacities, rates)


@pytest.mark.parametrize("fill", FILLS)
@given(scenarios())
@settings(**SETTINGS)
def test_fair_max_min_water_level(fill, scenario):
    """Max-min characterisation: every flow has a saturated link where no
    other flow receives a (meaningfully) higher rate."""
    flows, capacities = scenario
    rates = allocate("fair", fill, flows, capacities)
    used = link_usage(flows, rates)
    on_link: Dict[str, List[Flow]] = {}
    for flow in flows:
        for link_id in flow.path:
            on_link.setdefault(link_id, []).append(flow)
    for flow in flows:
        my_rate = rates[flow.flow_id]
        ok = False
        for link_id in flow.path:
            if used[link_id] < capacities[link_id] * (1.0 - 1e-9) - CAPACITY_SLACK:
                continue  # not this flow's bottleneck
            peak = max(rates[f.flow_id] for f in on_link[link_id])
            if my_rate >= peak - CAPACITY_SLACK:
                ok = True
                break
        assert ok, (
            f"fair: flow {flow.flow_id} rate={my_rate} is below the water "
            "level on every saturated link of its path"
        )


@st.composite
def single_link_contention(draw):
    """Flows contending on one shared link with well-separated priority
    keys (gaps far beyond every tie tolerance), so strict priority has an
    unambiguous winner."""
    n_flows = draw(st.integers(min_value=2, max_value=6))
    capacity = draw(st.floats(min_value=1e6, max_value=1e9))
    sizes = draw(
        st.lists(
            st.integers(min_value=1, max_value=10_000),
            min_size=n_flows,
            max_size=n_flows,
            unique=True,
        )
    )
    arrivals = draw(
        st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=n_flows,
            max_size=n_flows,
            unique=True,
        )
    )
    attained_steps = draw(
        st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=n_flows,
            max_size=n_flows,
            unique=True,
        )
    )
    flows = []
    for flow_id in range(n_flows):
        # Unique integers scaled to 1e6-bit quanta: arrival, attained and
        # (since sizes are unique too) remaining keys are all pairwise
        # separated by gaps far beyond the 1-bit tie tolerances.  Sizes
        # are offset above the attained range so remaining stays positive.
        size = (sizes[flow_id] + 10_001) * 1e6
        flow = Flow(
            flow_id=flow_id,
            src="s",
            dst="d",
            size=size,
            path=("shared",),
            arrival_time=float(arrivals[flow_id]),
        )
        flow.advance(attained_steps[flow_id] * 1e6)
        flows.append(flow)
    return flows, {"shared": capacity}


def _priority_key(name: str, flow: Flow):
    if name == "fcfs":
        return (flow.arrival_time, flow.flow_id)
    if name == "las":
        return (flow.attained, flow.flow_id)
    return (flow.remaining, flow.arrival_time, flow.flow_id)


@pytest.mark.parametrize("fill", FILLS)
@given(single_link_contention(), st.sampled_from(("fcfs", "las", "srpt")))
@settings(**SETTINGS)
def test_priority_dominance_on_shared_link(fill, scenario, name):
    flows, capacities = scenario
    rates = allocate(name, fill, flows, capacities)
    winner = min(flows, key=lambda f: _priority_key(name, f))
    for flow in flows:
        if flow.flow_id == winner.flow_id:
            assert rates[flow.flow_id] >= capacities["shared"] - CAPACITY_SLACK
        else:
            assert rates[flow.flow_id] <= CAPACITY_SLACK, (
                f"{name}: flow {flow.flow_id} leaks rate past the "
                f"higher-priority flow {winner.flow_id}"
            )


@pytest.mark.parametrize("fill", FILLS)
@given(scenarios(), st.randoms(use_true_random=False))
@settings(**SETTINGS)
def test_permutation_invariance(fill, scenario, rng):
    """Bit-for-bit identical allocation under any input ordering."""
    flows, capacities = scenario
    shuffled = list(flows)
    rng.shuffle(shuffled)
    for name in ALLOCATOR_NAMES:
        baseline = allocate(name, fill, flows, capacities)
        permuted = allocate(name, fill, shuffled, capacities)
        assert baseline == permuted, f"{name}: allocation depends on input order"


@given(scenarios())
@settings(**SETTINGS)
def test_backend_equivalence_exact(scenario):
    """Scalar and column fills agree to exact rate-map equality."""
    flows, capacities = scenario
    for name in ALLOCATOR_NAMES:
        reference = allocate(name, "python", flows, capacities)
        columns = allocate(name, "numpy", flows, capacities)
        assert columns == reference, (
            f"{name}: column fill diverges from the scalar fill"
        )


@given(st.randoms(use_true_random=False))
@settings(**SETTINGS)
def test_clos_shaped_fills_equal_exact(rng):
    """The Clos-shaped strategy of ``test_kernel_differential.clos_case``
    (equal host links, slack core links, failed and dusty links, repeated
    links, one to three groups) through the dispatch under every leg."""
    groups, capacities = clos_case(rng)
    reference = greedy_priority_fill(groups, capacities)
    for fill in FILLS:
        with pytest.MonkeyPatch.context() as patch:
            pin_fill(patch, fill)
            assert kernels.priority_fill(groups, capacities) == reference, fill


@pytest.mark.parametrize("fill", FILLS)
@given(scenarios(), st.randoms(use_true_random=False))
@settings(**SETTINGS)
def test_capacity_maps_are_read_never_iterated(fill, scenario, rng):
    """The fabric hands every allocator its whole capacity map: neither
    the map's order nor links on no path may move a rate."""
    flows, capacities = scenario
    items = list(capacities.items())
    rng.shuffle(items)
    padded = {"spare0": 1e9, **capacities, "spare1": 0.0, "spare2": math.inf}
    for name in ALLOCATOR_NAMES:
        baseline = allocate(name, fill, flows, capacities)
        assert allocate(name, fill, flows, dict(items)) == baseline, name
        assert allocate(name, fill, flows, padded) == baseline, name


# ----------------------------------------------------------------------
# Coflow allocators: ordering + MADD + back-fill
# ----------------------------------------------------------------------

from unittest import mock  # noqa: E402

from repro.coflow.coflow import Coflow  # noqa: E402
from repro.coflow.policies import base as coflow_base  # noqa: E402
from repro.coflow.policies import make_coflow_allocator  # noqa: E402
from repro.coflow.policies import simple as coflow_simple  # noqa: E402

COFLOW_ALLOCATOR_NAMES = (
    "varys", "scf", "coflow-fcfs", "coflow-las", "coflow-fair"
)


@st.composite
def coflow_scenarios(draw):
    """:func:`scenarios` with each flow left bare or attached to one of up
    to three coflows (mixed flow / coflow traffic)."""
    flows, capacities = draw(scenarios())
    coflows = [
        Coflow(coflow_id=i, arrival_time=draw(st.floats(0.0, 100.0)))
        for i in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    for flow in flows:
        flow.coflow = draw(st.sampled_from([None, *coflows]))
        if flow.coflow is not None:
            flow.coflow.attach_flow(flow)
    return flows, capacities


@given(coflow_scenarios())
@settings(**SETTINGS)
def test_coflow_capacity_never_exceeded(scenario):
    flows, capacities = scenario
    for name in COFLOW_ALLOCATOR_NAMES:
        rates = make_coflow_allocator(name).allocate(flows, capacities)
        assert_feasible(name, flows, capacities, rates)


@given(coflow_scenarios())
@settings(**SETTINGS)
def test_coflow_work_conservation(scenario):
    """Back-fill leaves no flow with slack on every link of its path (a
    flow MADD left at rate 0 sits behind a saturated link)."""
    flows, capacities = scenario
    for name in COFLOW_ALLOCATOR_NAMES:
        rates = make_coflow_allocator(name).allocate(flows, capacities)
        assert_work_conserving(name, flows, capacities, rates)


@given(coflow_scenarios())
@settings(**SETTINGS)
def test_coflow_members_finish_together_before_backfill(scenario):
    """MADD (and coflow-fair's proportional split): with the back-fill
    switched off, every coflow that was served has one ``remaining /
    rate`` across its members, i.e. they would all finish at Gamma."""
    flows, capacities = scenario
    no_backfill = lambda *args: None  # noqa: E731
    cols_of = coflow_base.link_columns(flows, capacities)[0]
    with mock.patch.object(coflow_base, "backfill", no_backfill), \
            mock.patch.object(coflow_simple, "backfill", no_backfill):
        for name in COFLOW_ALLOCATOR_NAMES:
            rates = make_coflow_allocator(name).allocate(flows, capacities)
            for _coflow, members, *_ in coflow_base.collect_coflows(flows, cols_of):
                served = [f for f in members if rates[f.flow_id] > 0.0]
                if not served:
                    continue  # blocked behind a saturated link
                assert len(served) == len(members), name
                finish = [f.remaining / rates[f.flow_id] for f in members]
                assert max(finish) <= min(finish) * (1.0 + 1e-9), (
                    f"{name}: members of one coflow finish apart: {finish}"
                )


# ----------------------------------------------------------------------
# Fault injection: allocations under mid-run capacity changes
# ----------------------------------------------------------------------
#
# A live fabric takes random submissions interleaved with random
# LinkDegrade / LinkDown events; after every event the current allocation
# must respect the *reduced* capacities and stay work-conserving, and the
# full-recompute oracle (``tests/full_recompute_oracle.py``) must agree
# with every scoped recompute, under every fill leg — the incremental
# path may not survive capacity mutations by luck alone.

from repro.errors import RoutingError  # noqa: E402
from repro.network.fabric import NetworkFabric  # noqa: E402
from repro.sim.engine import Engine  # noqa: E402
from repro.topology.fabrics import single_switch  # noqa: E402
from tests import full_recompute_oracle  # noqa: E402

#: Probes run just after same-timestamp fault/arrival/recompute machinery.
PROBE_EPS = 1e-6


@st.composite
def chaos_runs(draw):
    """Random submissions interleaved with degrade/fail link events."""
    n_hosts = draw(st.integers(min_value=3, max_value=6))
    n_flows = draw(st.integers(min_value=2, max_value=8))
    submissions = []
    for _ in range(n_flows):
        src = draw(st.integers(min_value=0, max_value=n_hosts - 1))
        dst = draw(
            st.integers(min_value=0, max_value=n_hosts - 1).filter(
                lambda d, s=src: d != s
            )
        )
        submissions.append((
            draw(st.floats(min_value=0.0, max_value=2.0)),
            src,
            dst,
            draw(st.floats(min_value=1e5, max_value=5e8)),
        ))
    events = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        action = draw(st.sampled_from(("degrade", "fail")))
        events.append((
            draw(st.floats(min_value=0.0, max_value=3.0)),
            draw(st.integers(min_value=0, max_value=n_hosts - 1)),
            draw(st.booleans()),  # True = uplink, False = downlink
            draw(st.floats(min_value=0.1, max_value=2.0))
            if action == "degrade"
            else None,
        ))
    return n_hosts, submissions, events


@given(chaos_runs())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_allocations_respect_mutated_capacities(run):
    for fill in FILLS:
        with pytest.MonkeyPatch.context() as patch:
            pin_fill(patch, fill)
            full_recompute_oracle.install(patch)
            _chaos_run(*run)


def _chaos_run(n_hosts, submissions, events) -> None:
    engine = Engine()
    topo = single_switch(n_hosts)
    fabric = NetworkFabric(engine, topo, make_allocator("fair"))
    submitted = []

    def probe() -> None:
        usage: Dict[str, float] = {}
        active = fabric.active_flows()
        for flow in active:
            rate = fabric._rates.get(flow.flow_id, 0.0)
            assert rate >= 0.0
            for link_id in flow.path:
                usage[link_id] = usage.get(link_id, 0.0) + rate
        for link_id, used in usage.items():
            cap = fabric.link_capacity(link_id)
            assert used <= cap + CAPACITY_SLACK, (
                f"link {link_id} over its (mutated) capacity: "
                f"{used} > {cap}"
            )
        for flow in active:
            saturated = any(
                usage[link_id]
                >= fabric.link_capacity(link_id) * (1.0 - 1e-9)
                - CAPACITY_SLACK
                for link_id in flow.path
            )
            assert saturated, (
                f"flow {flow.flow_id} has slack on every path link after "
                "a capacity mutation (not work-conserving)"
            )

    def submit(src: int, dst: int, size: float) -> None:
        try:
            fabric.submit(f"h{src:03d}", f"h{dst:03d}", size)
        except RoutingError:
            return  # a failed link already partitioned the pair
        submitted.append(size)

    def apply_fault(host: int, uplink: bool, factor) -> None:
        edge = topo.host_uplink if uplink else topo.host_downlink
        link_id = edge(f"h{host:03d}").link_id
        if factor is None:
            fabric.fail_link(link_id)
        else:
            fabric.degrade_link(link_id, factor)

    for when, src, dst, size in submissions:
        engine.schedule_at(
            when, lambda s=src, d=dst, z=size: submit(s, d, z)
        )
        engine.schedule_at(when + PROBE_EPS, probe)
    for when, host, uplink, factor in events:
        engine.schedule_at(
            when, lambda h=host, u=uplink, f=factor: apply_fault(h, u, f)
        )
        engine.schedule_at(when + PROBE_EPS, probe)
    engine.run()

    # Every accepted submission either completed or was aborted by a
    # link failure — nothing leaks or hangs.
    assert len(fabric.records) + fabric.flows_aborted == len(submitted)
    assert not fabric.active_flows()
    for record in fabric.records:
        assert record.fct > 0.0
