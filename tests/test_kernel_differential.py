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
* a Clos-shaped fuzz (``clos_case``) of the numpy fill's two reductions,
  slack links dropped from a last group and exact levels frozen in one
  round: ``==`` on rates and on the residuals every non-final group
  leaves, each reduction counted taken and refused, plus the pinned
  cases at and above ``2**53`` where a batch would move a residual;
* a structural test that an unconfigured replay takes the numpy fill
  for groups of at least ``GROUP_CUTOFF`` flows and the scalar fill
  below it, by counting calls, every fair call marked a last group;
* ``slow``-marked soaks on the paper's 160-host Clos: scalar against
  vector replays, and every fair recompute of a faulted replay against
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
from repro.network.policies.base import greedy_priority_fill, water_fill
from repro.telemetry import (
    CausalTracer,
    JsonlTraceSink,
    MetricsRegistry,
    Telemetry,
)
from repro.topology.fabrics import three_tier_clos
from repro.workloads import generate_flow_trace, make_distribution
from tests.conftest import FILLS, pin_fill
from tests.test_goldens import regen_goldens

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
    # every rate stays 0.0 and nothing drains (the numpy fill froze flow
    # 0 at inf and drained its links to ``max(0.0, inf - inf)`` = 0.0).
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


@requires_numpy
@pytest.mark.parametrize("z", [math.inf, 1e9])
def test_numpy_fill_leaves_infinite_residuals_untouched(z):
    """The residuals behind ``all_infinite``: where the reference names
    no bottleneck it drains nothing either, whether from the first round
    or once the finite link ``z`` has frozen its flow."""
    group = SINGLETON_CASES["all_infinite"][0][0]
    outcomes = []
    for fill in (water_fill, kernels._water_fill_numpy):
        residual, rates = {"x": math.inf, "y": math.inf, "z": z}, {}
        fill(group, residual, rates)
        outcomes.append((residual, rates))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0]["x"] == outcomes[0][0]["y"] == math.inf
    assert outcomes[0][1] == {0: 0.0, 1: 0.0 if z == math.inf else 1e9}


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


def cascade(fill, groups, capacities, *, marked):
    """``groups`` through ``fill`` one by one, as ``priority_fill`` does:
    the rates, and the residual map each non-final group leaves (what the
    next group reads; nobody reads the last one's)."""
    residual, rates, left = dict(capacities), {}, []
    for index, group in enumerate(groups):
        last = (index == len(groups) - 1,) if marked else ()
        fill(group, residual, rates, *last)
        left.append(dict(residual))
    return rates, left[:-1]


def assert_numpy_fill_exact(groups, capacities):
    """``==`` on rates (and their order) and on every residual map read."""
    want = cascade(water_fill, groups, capacities, marked=False)
    got = cascade(kernels._water_fill_numpy, groups, capacities, marked=True)
    assert got == want
    assert list(got[0]) == list(want[0])


def _pairs_through(core, edge, count):
    """``count`` flows, each alone on an ``edge``-capacity host link, all
    through one ``core`` link, then a flow that reads what they left."""
    first = [_one(i, f"h{i}.up", "core") for i in range(count)]
    capacities = {f"h{i}.up": edge for i in range(count)}
    capacities["core"] = core
    return [first, [_one(count, "core")]], capacities


#: Exact-level batching where one subtraction and several part ways: a
#: touched link at or above 2**53 rounds every drain, so a non-final
#: group must refuse the batch (ISSUE 24's fuzz found the first).
EXACT_LEVEL_CASES = {
    # 1e18 - 4 * 123456789.0: ...5061729e17 one by one, ...5061728e17 at once.
    "core_1e18": _pairs_through(1e18, 123456789.0, 4),
    # The first float spacing above 2**53 is 2: ...424.0 against ...422.0.
    "core_9.1e15": _pairs_through(9.1e15, 123456789.0, 2),
    # Below 2**53 the batch is taken and exact.
    "core_9e15": _pairs_through(9.0e15, 123456789.0, 4),
}


@requires_numpy
@pytest.mark.parametrize("case", sorted(EXACT_LEVEL_CASES))
def test_exact_levels_match_the_reference_on_residuals(case, monkeypatch):
    groups, capacities = EXACT_LEVEL_CASES[case]
    levels = []

    def exact_level(*args, _level=kernels._exact_level):
        levels.append(_level(*args))
        return levels[-1]

    monkeypatch.setattr(kernels, "_exact_level", exact_level)
    assert_numpy_fill_exact(groups, capacities)
    if case == "core_9e15":
        # The four host links in one round; the reader has nothing tied.
        assert levels == [[0, 2, 3, 4], None]
    else:
        assert levels == []  # never asked: a residual at or above 2**53
    pin_fill(monkeypatch, "numpy")
    assert kernels.priority_fill(groups, capacities) == (
        greedy_priority_fill(groups, capacities)
    )


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


@requires_numpy
def test_clos_shaped_fuzz_exact(monkeypatch):
    """The two reductions of the numpy fill on the shapes that arm them:
    exact ``==`` on rates and on what every non-final group leaves, with
    each reduction taken and refused at least once (counted on the two
    helpers that decide), and never a non-final group pruned."""
    taken = {"pruned": 0, "prune refused": 0, "level": 0, "level refused": 0}
    asked = []

    def binding(*args, _binding=kernels._binding_columns):
        keep = _binding(*args)
        if keep is None:
            taken["prune refused"] += 1
        elif not keep.all():
            taken["pruned"] += 1
        asked.append("prune")
        return keep

    def exact_level(*args, _level=kernels._exact_level):
        level = _level(*args)
        taken["level" if level else "level refused"] += 1
        return level

    def fill(group, residual, rates, last, _fill=kernels._water_fill_numpy):
        asked.clear()
        _fill(group, residual, rates, last)
        assert last or not asked  # a non-final group is never pruned

    monkeypatch.setattr(kernels, "_binding_columns", binding)
    monkeypatch.setattr(kernels, "_exact_level", exact_level)
    monkeypatch.setattr(kernels, "_water_fill_numpy", fill)
    rng = random.Random(24)
    for trial in range(3000):
        groups, capacities = clos_case(rng)
        try:
            assert_numpy_fill_exact(groups, capacities)
        except AssertionError:
            raise AssertionError(f"trial {trial} diverged") from None
    assert all(taken.values()), taken


def test_an_integer_share_below_2_53_is_an_exact_quotient():
    """Why deleting ``_exact_level``'s ``res == share * count`` test moves
    no float (the one mutant of ISSUE 24's six the fuzz cannot fail):
    where ``_exact_level`` is asked, a residual whose share comes out
    integer-valued is that integer times the count, exactly.  The test
    stays as the stated premise of the batching argument."""
    rng = random.Random(53)
    for _ in range(200_000):
        count = rng.randint(1, 300)
        share = float(rng.choice((
            rng.randint(2**24, 2**31), 2 ** rng.randint(24, 44),
            rng.randint(2**24, 2**53 // count), 10 ** rng.randint(8, 13),
        )))
        residual = share * count
        for _ in range(rng.randint(0, 3)):
            residual = math.nextafter(residual, rng.choice((0.0, math.inf)))
        if residual < 2.0**53 and residual / count == share:
            assert residual == share * count


def test_srpt_cascade_enters_water_fill_only_for_real_groups(monkeypatch):
    """On the pinned golden SRPT scenario the scalar ``water_fill`` (and
    its four per-call dicts) is entered only for groups of two or more
    flows: one-flow groups are filled in place.  Counted, not timed."""
    entered, in_place = [], []

    def spy(flows, residual, rates, _fill=kernels.water_fill):
        entered.append(len(flows))
        return _fill(flows, residual, rates)

    def spy_one(flow, residual, rates, _fill=kernels._fill_one):
        in_place.append(flow.flow_id)
        return _fill(flow, residual, rates)

    monkeypatch.setattr(kernels, "water_fill", spy)
    monkeypatch.setattr(kernels, "_fill_one", spy_one)
    regen_goldens.generate("srpt")
    assert len(in_place) > 100
    assert all(size >= 2 for size in entered)


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
        def spy(flows, *args, _fill=getattr(kernels, name), _seen=seen):
            _seen.append((len(flows), args[2:]))
            return _fill(flows, *args)
        monkeypatch.setattr(kernels, name, spy)
    run_replay(
        small_clos(), policy="fair", workload="websearch", seed=11,
        fill="default", num_arrivals=200, load=0.9,
    )
    # A fair fill is one group, so every numpy call is a last group's.
    assert all(rest == (True,) for _, rest in sizes["_water_fill_numpy"])
    sizes = {name: [size for size, _ in seen] for name, seen in sizes.items()}
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


@requires_numpy
@pytest.mark.slow
def test_every_fair_recompute_matches_the_reference_clos_160(monkeypatch):
    """Every fair allocation of a faulted 160-host replay, on the shipped
    dispatch and handed the fabric's whole capacity map, against
    ``greedy_priority_fill`` on the same inputs."""
    from repro.network.policies import fair

    checked, sizes = [], []

    def fill(groups, capacities, _fill=kernels.priority_fill):
        rates = _fill(groups, capacities)
        assert rates == greedy_priority_fill(groups, capacities)
        assert list(rates) == [flow.flow_id for flow in groups[0]]
        checked.append(len(capacities))
        sizes.append(len(groups[0]))
        return rates

    monkeypatch.setattr(fair, "priority_fill", fill)
    topo = three_tier_clos()
    run_replay(
        topo, policy="fair", workload="websearch", seed=2, fill="default",
        faults=degrade_plan(topo), num_arrivals=600, load=0.7,
        placement="minload",
    )
    # Most recomputes are big enough for the numpy fill.
    assert sum(size >= kernels.GROUP_CUTOFF for size in sizes) > 400
    assert set(checked) == {len(list(topo.links()))}
