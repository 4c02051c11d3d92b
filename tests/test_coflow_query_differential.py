"""Exact differential: the coflow CCT query against the bodies it
replaced, over residuals read without a write
(``tests/coflow_query_oracle.py``).

``==`` on every ``PredictionReply``, and every flow's ``remaining``,
``attained`` and sync time unchanged by the query, no tolerance, for
every coflow predictor: TCF (Varys / SEBF / SCF use it),
FIFO (a permutation over arrival times), coflow-fair and coflow-FCFS.
Two identical fabrics run one generated history in lock-step, one
queried through ``NetworkDaemon.predict_coflow``, the other through the
oracle.  The histories mix bare flows with coflow members, leave coflows
open and grow them later, route coflows through the queried host in
both directions, stop the clock mid-flight, degrade links and fail them
(a reroute re-inserts a flow in the link index but not in the host
index, so the two orders part), under a coflow allocator and a flow
allocator; a pinned case aborts a member of a queried coflow.  The
``slow`` leg checks every CCT query of 160-host Varys replays, plain and
under a fault plan, each round of queries (``NetworkDaemon.answer_round``)
against the oracle asked host by host.
"""

from __future__ import annotations

from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.coflow.policies.registry import make_coflow_allocator
from repro.coflow.tracking import CoflowTracker
from repro.daemons.messages import CoflowPredictionRequest
from repro.daemons.network_daemon import NetworkDaemon
from repro.errors import RoutingError
from repro.experiments.runner import replay_coflow_trace
from repro.faults import FaultPlan, LinkDown
from repro.faults.plan import LinkDegrade
from repro.network.fabric import NetworkFabric
from repro.network.policies.registry import make_allocator
from repro.predictor.coflow_cct import PermutationPredictor
from repro.predictor.fabric_state import coflow_link_state
from repro.predictor.registry import make_coflow_predictor, make_flow_predictor
from repro.predictor.state import CoflowLinkState, CoflowOnLink
from repro.sim.engine import Engine
from repro.topology.fabrics import three_tier_clos
from repro.workloads import generate_coflow_trace, make_distribution

from tests import coflow_query_oracle

SMALL_CLOS = dict(
    pods=2, racks_per_pod=2, hosts_per_rack=2, aggs_per_pod=2, cores=2
)
_TOPOLOGY = three_tier_clos(**SMALL_CLOS)
HOSTS = _TOPOLOGY.hosts
LINKS = tuple(link.link_id for link in _TOPOLOGY.links())
#: Links between switches: failing one reroutes the flows on it.
CORE_LINKS = tuple(link for link in LINKS if "h" not in link)

PREDICTORS = {
    "tcf": make_coflow_predictor("tcf"),
    "fifo": PermutationPredictor(
        key=lambda total, on_link, arrival: arrival, name="fifo"
    ),
    "coflow-fair": make_coflow_predictor("coflow-fair"),
    "coflow-fcfs": make_coflow_predictor("coflow-fcfs"),
}
FAIR = make_flow_predictor("fair")

ALLOCATORS = {
    "varys": lambda: make_coflow_allocator("varys"),
    "fair": lambda: make_allocator("fair"),
}


class World:
    """One fabric plus everything a history touches in it."""

    def __init__(self, allocator: str) -> None:
        self.engine = Engine()
        self.fabric = NetworkFabric(
            self.engine, three_tier_clos(**SMALL_CLOS),
            ALLOCATORS[allocator](),
        )
        self.tracker = CoflowTracker(self.fabric)
        self.open: List = []  # coflows still taking flows
        self.flows: List = []

    def apply(self, op) -> str:
        """Run one history step; the outcome's name, for lock-step."""
        kind, *args = op
        if kind == "shuffle":  # several sources into one reducer
            sources, dst, size = args
            kind, args = "coflow", ([(src, dst, size) for src in sources], True)
        try:
            if kind == "bare":
                src, dst, size = args
                self.flows.append(self.fabric.submit(src, dst, size))
            elif kind == "coflow":
                transfers, sealed = args
                coflow = self.tracker.new_coflow()
                for src, dst, size in transfers:
                    self.flows.append(
                        self.tracker.submit_flow(coflow, src, dst, size)
                    )
                if sealed:
                    self.tracker.seal(coflow)
                else:
                    self.open.append(coflow)
            elif kind == "grow":
                index, src, dst, size = args
                if self.open:
                    coflow = self.open[index % len(self.open)]
                    self.flows.append(
                        self.tracker.submit_flow(coflow, src, dst, size)
                    )
            elif kind == "through":  # one coflow into and out of ``via``
                src, via, dst, size_in, size_out = args
                coflow = self.tracker.new_coflow()
                self.flows.append(
                    self.tracker.submit_flow(coflow, src, via, size_in)
                )
                self.flows.append(
                    self.tracker.submit_flow(coflow, via, dst, size_out)
                )
                self.tracker.seal(coflow)
            elif kind == "advance":
                self.engine.run(until=self.engine.now + args[0])
            elif kind == "fail":
                self.fabric.fail_link(args[0])
            elif kind == "degrade":
                link, factor = args
                self.fabric.degrade_link(link, factor)
        except RoutingError as exc:
            return type(exc).__name__
        return "ok"

    def daemon(self, host: str, predictor: str) -> NetworkDaemon:
        return NetworkDaemon(
            host, self.fabric, FAIR, coflow_predictor=PREDICTORS[predictor]
        )

    def state(self) -> List:
        synced_at = self.fabric._synced_at
        return [
            (f.flow_id, f.remaining, f.attained, synced_at.get(f.flow_id))
            for f in self.flows
        ]


def query_both(new: World, old: World, host, direction, total, on_link,
               predictor) -> None:
    before = new.state()
    got = new.daemon(host, predictor).predict_coflow(total, on_link, direction)
    want = coflow_query_oracle.predict_coflow(
        old.daemon(host, predictor), total, on_link, direction
    )
    context = f"{predictor} at {host} ({direction})"
    assert got == want, context
    assert new.state() == old.state() == before, context


HOST = st.sampled_from(HOSTS)
SIZE = st.one_of(
    st.sampled_from((1.0, 1e6, 1e9, 1e9, 3e9)),
    st.floats(min_value=1.0, max_value=1e11),
)
QUERY = st.tuples(
    st.just("query"),
    HOST,
    st.sampled_from(("in", "out")),
    SIZE,
    st.sampled_from((0.0, 0.25, 1.0)),  # share of the total on the link
    st.sampled_from(tuple(PREDICTORS)),
)
STEP = st.one_of(
    st.tuples(st.just("bare"), HOST, HOST, SIZE),
    st.tuples(
        st.just("coflow"),
        st.lists(st.tuples(HOST, HOST, SIZE), min_size=1, max_size=4),
        st.booleans(),
    ),
    st.tuples(
        st.just("shuffle"), st.lists(HOST, min_size=2, max_size=4), HOST, SIZE
    ),
    st.tuples(st.just("grow"), st.integers(0, 5), HOST, HOST, SIZE),
    st.tuples(st.just("through"), HOST, HOST, HOST, SIZE, SIZE),
    st.tuples(
        st.just("advance"),
        st.one_of(
            st.sampled_from((1e-4, 1e-3, 0.01, 0.5)),
            st.floats(min_value=1e-6, max_value=2.0),
        ),
    ),
    st.tuples(
        st.just("fail"),
        st.one_of(st.sampled_from(CORE_LINKS), st.sampled_from(LINKS)),
    ),
    st.tuples(
        st.just("degrade"),
        st.sampled_from(LINKS),
        st.sampled_from((0.5, 0.25, 2.0)),
    ),
    QUERY,
    QUERY,
)


@given(
    st.sampled_from(tuple(ALLOCATORS)),
    st.lists(STEP, min_size=1, max_size=25),
    st.sampled_from((1e-3, 0.01, 0.1)),
    st.permutations(tuple(PREDICTORS)),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_every_query_equals_the_oracle(allocator, history, pause, sweep_order):
    new, old = World(allocator), World(allocator)
    for step in [*history, ("advance", pause)]:
        if step[0] == "query":
            _, host, direction, total, share, predictor = step
            query_both(new, old, host, direction, total, total * share,
                       predictor)
        else:
            assert new.apply(step) == old.apply(step), step
            assert new.state() == old.state(), step
    # Then, mid-flight, every host, both directions, every predictor, in
    # a drawn order: no query may see another's trace.
    for predictor in sweep_order:
        for host in HOSTS:
            for direction in ("in", "out"):
                query_both(new, old, host, direction, 2e9, 5e8, predictor)


def test_a_reroute_reorders_the_link_index_and_the_answer_still_matches():
    """Two coflows into h000 across the core; failing the core link
    under the first moves it behind the second on ``tor0->h000`` but not
    at the host, and a third coflow leaves h000: the link read, the
    host read and the oracle all still agree."""
    history = [
        ("coflow", [("h004", "h000", 4e9), ("h005", "h001", 1e9)], True),
        ("coflow", [("h006", "h000", 2e9)], True),
        ("through", "h007", "h000", "h002", 3e9, 5e9),
        ("advance", 0.3),
    ]
    new, old = World("varys"), World("varys")
    for step in history:
        assert new.apply(step) == old.apply(step) == "ok"
    first = new.flows[0]
    core_link = next(link for link in first.path if "core" in link)
    assert new.apply(("fail", core_link)) == old.apply(("fail", core_link))
    on_link = list(new.fabric._by_link["tor0->h000"])
    at_host = [
        fid for fid in new.fabric._by_host["h000"] if fid in on_link
    ]
    assert on_link != at_host  # the two indexes now disagree on order
    for predictor in PREDICTORS:
        for direction in ("in", "out"):
            query_both(new, old, "h000", direction, 2e9, 5e8, predictor)
            query_both(new, old, "h000", direction, 2e9, 0.0, predictor)


def test_dust_below_the_coflow_floor_is_floored_for_coflows_only():
    """A moment before two one-bit flows finish, h000's downlink carries
    a bare flow and its uplink a one-flow coflow, each with ~1e-10 bits
    left: the link state raises the coflow's total to the 1e-9 floor and
    leaves the bare flow's as it is, the node state floors neither, and
    every predictor still answers as the oracle does."""
    new, old = World("fair"), World("fair")
    for step in (
        ("bare", "h001", "h000", 1.0),
        ("coflow", [("h000", "h002", 1.0)], True),
    ):
        assert new.apply(step) == old.apply(step) == "ok"
    bare, member = new.flows
    assert new.fabric.current_rate(bare) == new.fabric.current_rate(member)
    pause = ("advance", (1.0 / new.fabric.current_rate(bare)) * (1 - 2**-33))
    assert new.apply(pause) == old.apply(pause) == "ok"
    for predictor in PREDICTORS:
        for direction in ("in", "out"):
            query_both(new, old, "h000", direction, 2e9, 5e8, predictor)
    bare_left, member_left = map(new.fabric.residual, (bare, member))
    assert 0 < bare_left < 1e-9 and 0 < member_left < 1e-9
    (down,) = coflow_link_state(new.fabric, "tor0->h000").coflows
    (up,) = coflow_link_state(new.fabric, "h000->tor0").coflows
    assert down.total_size == down.size_on_link == bare_left
    assert up.total_size == 1e-9 and up.size_on_link == member_left
    ((_, node_state),) = new.fabric.coflow_edge_states([("h000", "h000->tor0")])
    assert node_state == min(bare_left, member_left)


def test_an_aborted_member_still_counts_in_its_coflow_total():
    """``fail_host`` aborts one member of a two-flow coflow: the aborted
    flow leaves the fabric with its ``remaining`` kept, and the coflow's
    total still counts it, as the oracle's sum over every member does (a
    total over the active members alone would put the queried 2e9-bit
    coflow ahead of it)."""
    new, old = World("varys"), World("varys")
    for step in (
        ("coflow", [("h000", "h001", 1e9), ("h002", "h003", 4e9)], True),
        ("advance", 0.1),
    ):
        assert new.apply(step) == old.apply(step) == "ok"
    for world in (new, old):
        world.fabric.fail_host("h003")
    kept, aborted = new.flows
    assert new.fabric.active_flows() == [kept] and aborted.remaining > 2e9
    (coflow,) = coflow_link_state(new.fabric, "h000->tor0").coflows
    assert coflow.total_size == new.fabric.residual(kept) + aborted.remaining
    for predictor in PREDICTORS:
        for direction in ("in", "out"):
            query_both(new, old, "h000", direction, 2e9, 5e8, predictor)


def _compensated_sum(iterable, start=0):
    """CPython 3.12's float ``sum`` (Neumaier compensation), for a 3.11 run."""
    total, compensation = float(start), 0.0
    for x in iterable:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation else total


def test_a_compensated_sum_changes_no_answer(monkeypatch):
    """With ``sum`` compensated, as on CPython 3.12, the code and the oracle
    still agree bit for bit: both fold coflow totals and bytes ahead left.
    Four three-flow coflows into h000, mid-flight, where the compensated
    and the left-folded sums of both part."""
    import builtins
    import itertools
    from functools import reduce
    from operator import add

    new, old = World("fair"), World("fair")
    sizes = (1e9 / 3, 1e9 / 7, 1e9 / 11)
    for i in range(4):
        sources = [HOSTS[2 + (i + k) % 6] for k in range(3)]
        step = ("coflow", [(src, "h000", size * (i + 1))
                           for src, size in zip(sources, sizes)], True)
        assert new.apply(step) == old.apply(step) == "ok"
    assert new.apply(("advance", 0.1)) == old.apply(("advance", 0.1))
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    for predictor in PREDICTORS:
        for host in ("h000", HOSTS[2]):
            for direction, on_link in itertools.product(("in", "out"), (0, 3e9)):
                query_both(new, old, host, direction, 9e9, on_link, predictor)
    # The scenario bites: a coflow's total, and the bytes ahead on h000's
    # downlink (every coflow, under TCF), differ between the two sums.
    coflows = dict.fromkeys(f.coflow for f in new.flows)
    residuals = [[new.fabric.residual(f) for f in c.flows] for c in coflows]
    assert [sum(r) for r in residuals] != [reduce(add, r, 0) for r in residuals]
    # And eq. (14)'s bytes ahead, on a link whose on-link bits part the sums.
    bits = (0.1, 0.2, 0.3)
    assert sum(bits) != reduce(add, bits, 0)
    link = CoflowLinkState("l", 1.0, tuple(CoflowOnLink(1.0, b) for b in bits))
    for name, predictor in PREDICTORS.items():
        want = coflow_query_oracle.link_objective(predictor, 9.0, 0, link)
        assert predictor.link_objective(9.0, 0, link) == want, name


# ----------------------------------------------------------------------
# Slow: every CCT query of a 160-host Varys replay
# ----------------------------------------------------------------------
def _flow_state(fabric, flows: Dict) -> Dict:
    return {
        fid: (f.remaining, f.attained, fabric._synced_at[fid])
        for fid, f in flows.items()
    }


@pytest.mark.slow
@pytest.mark.parametrize("faulted", [False, True], ids=["plain", "faulted"])
def test_every_cct_query_of_a_clos_160_varys_replay(faulted, monkeypatch):
    """Each query round is answered by the oracle first, host by host, then
    the round answers: each host's reply must be equal, and neither may
    move any of the queried links' and hosts' flows."""
    answer_round = NetworkDaemon.answer_round
    busy_links: List[int] = []

    def checked(daemons, payload):
        if not isinstance(payload, CoflowPredictionRequest):
            return answer_round(daemons, payload)
        fabric = daemons[0]._fabric
        direction = payload.direction
        touched, links = {}, []
        for daemon in daemons:
            link = daemon._downlink if direction == "in" else daemon._uplink
            links.append(link.link_id)
            touched.update(fabric._by_link.get(link.link_id, {}))
            touched.update(fabric._by_host.get(daemon._host, {}))
        before = _flow_state(fabric, touched)
        want = [
            coflow_query_oracle.predict_coflow(
                daemon, payload.total_size, payload.size_on_link, direction
            )
            for daemon in daemons
        ]
        got = answer_round(daemons, payload)
        assert got == want
        assert _flow_state(fabric, touched) == before
        busy_links.extend(len(fabric._by_link.get(link, ())) for link in links)
        return got

    monkeypatch.setattr(NetworkDaemon, "answer_round", checked)
    topo = three_tier_clos()  # 4 pods x 4 racks x 10 hosts
    # Web-search coflows at 0.9 load keep several flows on a queried
    # link (Hadoop ones at 0.7, as in the benchmark, at most one).
    trace = generate_coflow_trace(
        hosts=topo.hosts,
        distribution=make_distribution("websearch"),
        load=0.9,
        edge_capacity=1e9,
        num_arrivals=200,
        seed=5,
    )
    plan = FaultPlan(
        events=(
            LinkDown(time=0.01, link="agg0_0->core1"),
            LinkDegrade(time=0.015, link="tor0->h000", factor=0.5),
            LinkDown(time=0.02, link="core2->agg1_1"),
            LinkDown(time=0.03, link="agg2_0->tor9"),
        ),
        seed=5,
    ) if faulted else None
    run = replay_coflow_trace(
        trace, topo, network_policy="varys", placement="neat", seed=5,
        faults=plan,
    )
    assert len(busy_links) > 40_000 and sum(n > 1 for n in busy_links) > 5_000
    if faulted:
        assert run.flows_rerouted > 0
