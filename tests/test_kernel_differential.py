"""Differential matrix for the flow fills of :mod:`repro.network.kernels`.

The contract is byte-identity by construction: the column fill
(``link_columns`` + slack columns emptied + ``backfill``) and the
in-place one-flow fill evaluate the same scalar IEEE-754 expressions as
the reference ``water_fill``, on the same operands, in the same order.
These tests hold the fills against each other end-to-end, selecting one
by pinning ``kernels.GROUP_CUTOFF`` (the dispatch in
:func:`repro.network.kernels.priority_fill` is the only place that
chooses; the ``numpy`` leg of ``FILLS`` sends every last group to the
column fill):

* a seed x policy x workload replay matrix asserting byte-identical
  completion records, JSONL traces, and causal traces between the
  all-scalar run, the all-column run and the shipped dispatch;
* the same matrix under an injected fault plan (degrade + down), since
  capacity mutations hit the drain clamp where float dust lives;
* a direct randomized fuzz of :func:`repro.network.kernels.priority_fill`
  against :func:`tests.priority_oracle.greedy_priority_fill`
  comparing rate maps with exact ``==`` (no tolerance), plus the pinned
  adjacent-float case in ``[2**23, 2**24)``, where the epsilon chain and
  a plain minimum part ways (the hypothesis fuzz over that band is
  ``test_alloc_properties.py``'s ``scenarios``);
* a Clos-shaped fuzz (``clos_case``) of the column fill's slack columns,
  ``==`` on rates, the fill counted taken, pruning and refused, plus the
  pinned cases at and above ``2**53`` where one drain and several part
  ways;
* a structural test that an unconfigured replay takes the column fill
  for last groups of at least ``GROUP_CUTOFF`` flows and the scalar fills
  below it, by counting calls;
* ``slow``-marked soaks on the paper's 160-host Clos: scalar against
  column replays, and every fair recompute of a faulted replay against
  ``greedy_priority_fill`` on the same inputs.
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
from repro.telemetry import (
    CausalTracer,
    JsonlTraceSink,
    MetricsRegistry,
    Telemetry,
)
from repro.topology.fabrics import three_tier_clos
from repro.workloads import generate_flow_trace, make_distribution
from tests.conftest import FILLS, pin_fill
from tests.priority_oracle import greedy_priority_fill
from tests.test_goldens import regen_goldens
from tests.test_incremental_alloc import small_clos

POLICIES = ("fair", "fcfs", "las", "srpt")


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


@pytest.mark.parametrize(
    "policy,workload,seed",
    list(itertools.product(POLICIES, ("websearch", "hadoop"), (11, 23))),
)
def test_numpy_backend_matches_python(policy, workload, seed):
    topo = small_clos()
    py, columns, default = (
        run_replay(
            topo, policy=policy, workload=workload, seed=seed, fill=fill
        )
        for fill in FILLS
    )
    for other in (columns, default):
        assert other[0] == py[0]  # completion records, byte for byte
        assert other[1] == py[1]  # JSONL trace text
        assert other[2] == py[2]  # causal event stream


@pytest.mark.parametrize("policy", POLICIES)
def test_numpy_backend_matches_python_under_faults(policy):
    topo = small_clos()
    plan = degrade_plan(topo)
    py, columns, default = (
        run_replay(
            topo, policy=policy, workload="websearch", seed=7,
            fill=fill, faults=plan,
        )
        for fill in FILLS
    )
    assert columns == py
    assert default == py


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
                capacities[link] = rng.choice(
                    [1e9, 1e10, rng.random() * 4e10, math.inf]
                )
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
        assert kernels.priority_fill(groups, capacities) == reference, (
            f"trial {trial} diverged"
        )


def test_adjacent_float_shares_below_2_24(monkeypatch):
    """In [2**23, 2**24) ``b - 1e-9`` rounds to the float below ``b``, so
    the reference does not hop from ``b`` to that float while a plain
    minimum does: the column fill's floor must cover the band."""
    pin_fill(monkeypatch, "numpy")
    flow = Flow(
        flow_id=0, src="s", dst="d", size=1e9, arrival_time=0.0,
        path=("L1", "L2"),
    )
    capacities = {"L1": 1.0e7, "L2": math.nextafter(1.0e7, 0.0)}
    reference = greedy_priority_fill([[flow]], capacities)
    assert reference[0] == 1.0e7
    assert kernels.priority_fill([[flow]], capacities) == reference


def _one(flow_id, *path):
    return Flow(
        flow_id=flow_id, src="s", dst="d", size=1e9, arrival_time=0.0,
        path=path,
    )


#: Cascades of one-flow groups (what SRPT / FCFS / LAS hand the fill)
#: at the places the in-place singleton fill could part from the
#: reference: name -> (groups, capacities).
SINGLETON_CASES = {
    # b undercuts a by less than RATE_EPSILON: the chain stays on a.
    "near_tie_no_hop": ([[_one(0, "a", "b")]], {"a": 5.0, "b": 5.0 - 5e-10}),
    # ... and hops when the improvement exceeds it.
    "hop_past_epsilon": ([[_one(0, "a", "b")]], {"a": 5.0, "b": 5.0 - 4e-9}),
    # A link listed twice has two members: share is half the residual.
    "repeated_link": (
        [[_one(0, "a", "b", "a")], [_one(1, "a")], [_one(2, "b")]],
        {"a": 1e9, "b": 4e9},
    ),
    "missing_capacity": (
        [[_one(0, "a", "gone")], [_one(1, "a")]], {"a": 1e9},
    ),
    "failed_link": (
        [[_one(0, "a", "b")], [_one(1, "a")], [_one(2, "b")]],
        {"a": 1e9, "b": 0.0},
    ),
    "dust_capacities": (
        [[_one(0, "a", "b")], [_one(1, "b", "c")], [_one(2, "a", "c")]],
        {"a": 4e-10, "b": 5e-324, "c": 1e-9},
    ),
    # The first group drains a to exactly 0.0; the second finds it there.
    "drained_to_zero": (
        [[_one(0, "a", "b")], [_one(1, "a", "c")], [_one(2, "b", "c")]],
        {"a": 1e9, "b": 4e9, "c": 2e9},
    ),
    # One-flow groups around a fair-shared pair on the same links.
    "mixed_with_a_pair": (
        [[_one(0, "a")], [_one(1, "a", "b"), _one(2, "b")], [_one(3, "b", "c")]],
        {"a": 3e9, "b": 4e9, "c": 1e9 + 1e-7},
    ),
    # No share undercuts the scan's initial inf: no bottleneck is named,
    # every rate stays 0.0 and nothing drains (freezing flow 0 at inf
    # would drain its links to ``max(0.0, inf - inf)`` = 0.0).
    "all_infinite": (
        [[_one(0, "x", "y"), _one(1, "y", "z")], [_one(2, "x")]],
        {"x": math.inf, "y": math.inf, "z": math.inf},
    ),
}


@pytest.mark.parametrize("fill", FILLS)
@pytest.mark.parametrize("case", sorted(SINGLETON_CASES))
def test_singleton_groups_match_the_reference(case, fill, monkeypatch):
    pin_fill(monkeypatch, fill)
    groups, capacities = SINGLETON_CASES[case]
    reference = greedy_priority_fill(groups, capacities)
    assert kernels.priority_fill(groups, capacities) == reference
    if case == "near_tie_no_hop":
        assert reference == {0: 5.0}
    if case == "repeated_link":
        assert reference == {0: 5e8, 1: 0.0, 2: 3.5e9}
    if case == "drained_to_zero":
        assert reference == {0: 1e9, 1: 0.0, 2: 2e9}
    if case == "all_infinite":
        assert reference == {0: 0.0, 1: 0.0, 2: 0.0}


@pytest.mark.parametrize("z", [math.inf, 1e9])
def test_infinite_residuals_match_the_reference(z, monkeypatch):
    """The residuals behind ``all_infinite``: where the reference names
    no bottleneck it drains nothing either, whether from the first round
    or once the finite link ``z`` has frozen its flow; a reader on ``x``
    sees what the group left there."""
    pin_fill(monkeypatch, "numpy")
    group = SINGLETON_CASES["all_infinite"][0][0]
    capacities = {"x": math.inf, "y": math.inf, "z": z}
    for groups in ([group], [group, [_one(2, "x", "z")]]):
        reference = greedy_priority_fill(groups, capacities)
        assert kernels.priority_fill(groups, capacities) == reference
    assert reference == {0: 0.0, 1: 0.0 if z == math.inf else 1e9, 2: 0.0}


def test_singleton_on_an_infinite_link_gets_the_reference_zero():
    """No share undercuts the scan's initial inf, so the reference
    names no bottleneck and leaves the rate at 0.0; the in-place fill
    does the same (``all_infinite`` above pins a group under every
    fill)."""
    groups, capacities = [[_one(0, "a")], [_one(1, "a")]], {"a": math.inf}
    reference = greedy_priority_fill(groups, capacities)
    assert reference == {0: 0.0, 1: 0.0}
    assert kernels.priority_fill(groups, capacities) == reference


def test_singleton_cascade_fuzz_exact(monkeypatch):
    """Random strict-priority cascades, mostly one-flow groups, on the
    shipped dispatch: exact rate maps, with repeated links, links the
    capacity map lacks, failed links and float dust."""
    rng = random.Random(20)
    for trial in range(400):
        links = [f"l{i}" for i in range(rng.randint(1, 8))]
        capacities = {
            link: rng.choice([0.0, 5e-324, 4e-10, 1e-9, 1e9, 1e9, 4e9,
                              rng.random() * 1e10, math.inf])
            for link in links
            if rng.random() < 0.9
        }
        groups = []
        flow_id = 0
        for _ in range(rng.randint(1, 12)):
            group = []
            for _ in range(1 if rng.random() < 0.8 else rng.randint(2, 3)):
                hops = rng.randint(1, 4)
                group.append(
                    _one(flow_id, *(rng.choice(links) for _ in range(hops)))
                )
                flow_id += 1
            groups.append(group)
        assert kernels.priority_fill(groups, capacities) == (
            greedy_priority_fill(groups, capacities)
        ), f"trial {trial} diverged"


def assert_column_fill_exact(groups, capacities, monkeypatch):
    """``==`` on rates (and their order) with every last group on the
    column fill."""
    want = greedy_priority_fill(groups, capacities)
    pin_fill(monkeypatch, "numpy")
    got = kernels.priority_fill(groups, capacities)
    assert got == want
    assert list(got) == list(want)


def _pairs_through(core, edge, count):
    """``count`` flows, each alone on an ``edge``-capacity host link, all
    through one ``core`` link, then a flow that reads what they left."""
    first = [_one(i, f"h{i}.up", "core") for i in range(count)]
    capacities = {f"h{i}.up": edge for i in range(count)}
    capacities["core"] = core
    return [first, [_one(count, "core")]], capacities


#: Integer-valued levels on a core link where one subtraction and several
#: part ways: at or above 2**53 every drain rounds, so the rounds must
#: drain one at a time, as the reference does.
EXACT_LEVEL_CASES = {
    # 1e18 - 4 * 123456789.0: ...5061729e17 one by one, ...5061728e17 at once.
    "core_1e18": _pairs_through(1e18, 123456789.0, 4),
    # The first float spacing above 2**53 is 2: ...424.0 against ...422.0.
    "core_9.1e15": _pairs_through(9.1e15, 123456789.0, 2),
    # Below 2**53 every drain is exact.
    "core_9e15": _pairs_through(9.0e15, 123456789.0, 4),
}


@pytest.mark.parametrize("case", sorted(EXACT_LEVEL_CASES))
def test_exact_levels_match_the_reference_on_residuals(case, monkeypatch):
    """The reader of the second group sees the residual the tied first
    group left on the core link; alone, the first group is a last group
    on the column fill."""
    groups, capacities = EXACT_LEVEL_CASES[case]
    assert_column_fill_exact(groups, capacities, monkeypatch)
    assert_column_fill_exact(groups[:1], capacities, monkeypatch)


EDGE_CAPACITIES = (
    1e9, 3e9, 7e8, 123456789.0, 1e9 / 3, 2.0**24, 2.0**25, 3e7,
)
CORE_CAPACITIES = (1e10, 2e9, 1e9, math.inf, 9.1e15, 1e18)
ODD_CAPACITIES = (0.0, 1e-9, 5e-324, 4e-10, 1e-7, 12345.678, None)


def clos_case(rng):
    """A Clos-shaped allocation: per-host up / down links at one capacity,
    each flow up, over one or two core hops, down; one link in ten failed,
    dusty or missing from the map, 3% of paths repeat a link, one to three
    priority groups.  Returns ``(groups, capacities)``."""
    hosts = rng.randint(2, 12)
    edge = rng.choice(EDGE_CAPACITIES + (rng.random() * 4e9,))
    capacities = {
        f"h{host}.{side}": edge
        for host in range(hosts) for side in ("up", "down")
    }
    cores = [f"c{index}" for index in range(rng.randint(1, 6))]
    for link in cores:
        capacities[link] = rng.choice(
            CORE_CAPACITIES + (rng.random() * 2e10,)
        )
    for link in list(capacities):
        if rng.random() < 0.10:
            capacities[link] = rng.choice(ODD_CAPACITIES)
            if capacities[link] is None:
                del capacities[link]
    groups = [[] for _ in range(rng.randint(1, 3))]
    for flow_id in range(rng.randint(1, 40)):
        src, dst = rng.sample(range(hosts), 2)
        path = [f"h{src}.up"]
        path += rng.sample(cores, min(len(cores), rng.randint(1, 2)))
        path.append(f"h{dst}.down")
        if rng.random() < 0.03:
            path.insert(rng.randrange(len(path) + 1), rng.choice(path))
        rng.choice(groups).append(_one(flow_id, *path))
    return [group for group in groups if group], capacities


def test_clos_shaped_fuzz_exact(monkeypatch):
    """The column fill on the shapes that arm its slack columns: exact
    ``==`` on rates, with the fill taken, taken with a column dropped and
    refused for a sub-floor share (counted on ``link_columns`` and
    ``backfill``) at least once each."""
    taken = {"filled": 0, "pruned": 0, "refused": 0}
    built = []

    def columns(*args, _columns=kernels.link_columns):
        taken["refused"] += 1
        built.append(_columns(*args))
        return built[-1]

    def backfill(cols_of, crossing, *args, _fill=kernels.backfill):
        taken["refused"] -= 1
        taken["pruned" if len(crossing) < len(built[-1][1]) else "filled"] += 1
        _fill(cols_of, crossing, *args)

    monkeypatch.setattr(kernels, "link_columns", columns)
    monkeypatch.setattr(kernels, "backfill", backfill)
    rng = random.Random(24)
    for trial in range(3000):
        groups, capacities = clos_case(rng)
        try:
            assert_column_fill_exact(groups, capacities, monkeypatch)
        except AssertionError:
            raise AssertionError(f"trial {trial} diverged") from None
    assert all(taken.values()), taken


def test_srpt_cascade_enters_water_fill_only_for_real_groups(monkeypatch):
    """On the pinned golden SRPT scenario the scalar ``water_fill`` (and
    its four per-call dicts) is entered only for groups of two or more
    flows: one-flow groups are filled in place, each by the fabric's
    priority closure (``kernels.refill``), which re-fills fewer flows than
    its cascades hold.  Counted, not timed."""
    entered, in_place, refilled, handed = [], [], [], []

    def spy(flows, residual, rates, _fill=kernels.water_fill):
        entered.append(len(flows))
        return _fill(flows, residual, rates)

    def spy_one(flow, residual, rates, _fill=kernels._fill_one):
        in_place.append(flow.flow_id)
        return _fill(flow, residual, rates)

    def spy_refill(groups, *args, _refill=kernels.refill):
        rates = _refill(groups, *args)
        refilled.extend(rates)
        handed.extend(flow.flow_id for (flow,) in groups)
        return rates

    monkeypatch.setattr(kernels, "water_fill", spy)
    monkeypatch.setattr(kernels, "_fill_one", spy_one)
    monkeypatch.setattr(kernels, "refill", spy_refill)
    regen_goldens.generate("srpt")
    assert in_place == refilled and len(refilled) > 100
    assert len(handed) > len(refilled)
    assert all(size >= 2 for size in entered)


@pytest.mark.parametrize(
    "column_fill", [True, False], ids=["numpy", "no-numpy"],
)
def test_default_replay_dispatches_on_group_size(column_fill, monkeypatch):
    """An unconfigured fair replay (every group a last group) sends groups
    of at least ``GROUP_CUTOFF`` flows to the column fill, one-flow groups
    to the in-place fill and the rest to ``water_fill``, which sees a
    large group only when the column fill hands it a sub-floor share.
    With the column fill pinned off (the ``python`` leg) every group takes
    the scalar fills.  The ids are the ones the two legs had when the
    column fill was the numpy fill.  Counted, not timed."""
    if not column_fill:
        pin_fill(monkeypatch, "python")
    columns, backfilled, in_place, scalar, refused = [], [], [], [], []

    def fill_columns(flows, *args, _fill=kernels._fill_columns):
        columns.append(len(flows))
        _fill(flows, *args)

    def backfill(*args, _fill=kernels.backfill):
        backfilled.append(columns[-1])
        _fill(*args)

    def fill_one(flow, *args, _fill=kernels._fill_one):
        in_place.append(flow.flow_id)
        _fill(flow, *args)

    def water_fill(flows, *args, _fill=kernels.water_fill):
        refusal = len(columns) > len(backfilled) + len(refused)
        (refused if refusal else scalar).append(len(flows))
        _fill(flows, *args)

    for name, spy in (
        ("_fill_columns", fill_columns), ("backfill", backfill),
        ("_fill_one", fill_one), ("water_fill", water_fill),
    ):
        monkeypatch.setattr(kernels, name, spy)
    run_replay(
        small_clos(), policy="fair", workload="websearch", seed=11,
        fill="default", num_arrivals=200, load=0.9,
    )
    assert in_place and 1 not in scalar
    if column_fill:
        assert kernels.GROUP_CUTOFF == 16
        assert columns and min(columns) >= 16
        assert backfilled
        assert scalar and max(scalar) < 16
        assert len(backfilled) + len(refused) == len(columns)
    else:
        assert not columns and not backfilled
        assert max(scalar) >= 16


@pytest.mark.slow
def test_kernel_soak_clos_160():
    """Scalar-against-column soak on the paper's 160-host Clos macro cell,
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
        columns = run_replay(
            topo, policy=policy, workload="websearch", seed=seed,
            fill="numpy", faults=plan, num_arrivals=400, load=0.7,
            placement="mindist",
        )
        assert columns == py, f"{policy}/seed={seed}/faulted={faulted} diverged"


@pytest.mark.slow
def test_every_fair_recompute_matches_the_reference_clos_160(monkeypatch):
    """Every fair allocation of a faulted 160-host replay, on the shipped
    dispatch and handed the fabric's whole capacity map, against
    ``greedy_priority_fill`` on the same inputs.  A recompute whose fill the
    binding closure narrowed also fills its whole settled sharing component
    (the allocation before the closure), so the column fill keeps the large
    groups it is there for."""
    from repro.network.fabric import NetworkFabric

    checked, columns = [], []
    closure = NetworkFabric._binding_closure

    def whole_too(fabric, survivors, *args):
        narrowed = closure(fabric, survivors, *args)
        if narrowed is not survivors:
            fabric.allocator.allocate(survivors, fabric._capacities)
        return narrowed

    def fill(groups, capacities, _fill=kernels.priority_fill):
        rates = _fill(groups, capacities)
        assert rates == greedy_priority_fill(groups, capacities)
        assert list(rates) == [flow.flow_id for flow in groups[0]]
        checked.append(len(capacities))
        return rates

    def backfill(cols_of, *args, _fill=kernels.backfill):
        columns.append(len(cols_of))
        _fill(cols_of, *args)

    monkeypatch.setattr(kernels, "priority_fill", fill)
    monkeypatch.setattr(kernels, "backfill", backfill)
    monkeypatch.setattr(NetworkFabric, "_binding_closure", whole_too)
    topo = three_tier_clos()
    run_replay(
        topo, policy="fair", workload="websearch", seed=2, fill="default",
        faults=degrade_plan(topo), num_arrivals=600, load=0.7,
        placement="minload",
    )
    # 1,048 of the 2,303 fills run the column fill's back-fill.
    assert len(columns) > 900
    assert set(checked) == {len(list(topo.links()))}
