"""Exact differential: the coflow CCT query against the bodies it
replaced, over residuals read without a write
(``tests/coflow_query_oracle.py``).

``==`` on every ``PredictionReply``, and every flow's ``remaining``,
``attained`` and sync time unchanged by the query, no tolerance, for
every coflow predictor: TCF (Varys / SEBF / SCF use it),
FIFO (a permutation over arrival times), coflow-fair and coflow-FCFS.
Two identical fabrics run one generated history in lock-step
(``tests/fabric_history.py``), one queried through
``NetworkDaemon.predict_coflow``, the other through the oracle.  The
histories mix bare flows with coflow members, leave coflows open and
grow them later, route coflows through the queried host in both
directions, stop the clock mid-flight, degrade links and fail them
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

from repro.daemons.messages import CoflowPredictionRequest
from repro.daemons.network_daemon import NetworkDaemon
from repro.experiments.runner import replay_coflow_trace
from repro.faults import FaultPlan, LinkDown
from repro.faults.plan import LinkDegrade
from repro.predictor.coflow_cct import PermutationPredictor
from repro.predictor.fabric_state import coflow_link_state
from repro.predictor.registry import make_coflow_predictor, make_flow_predictor
from repro.predictor.state import CoflowLinkState, CoflowOnLink
from repro.topology.fabrics import three_tier_clos
from repro.workloads import generate_coflow_trace, make_distribution

from tests import coflow_query_oracle
from tests.conftest import compensated_sum
from tests.fabric_history import (
    CORE_LINKS, HOSTS, LINKS, Run, a_host, a_link, coflows, drive, histories,
    op,
)

PREDICTORS = {
    "tcf": make_coflow_predictor("tcf"),
    "fifo": PermutationPredictor(
        key=lambda total, on_link, arrival: arrival, name="fifo"
    ),
    "coflow-fair": make_coflow_predictor("coflow-fair"),
    "coflow-fcfs": make_coflow_predictor("coflow-fcfs"),
}
FAIR = make_flow_predictor("fair")


def _daemon(run, host, predictor):
    return NetworkDaemon(
        host, run.fabric, FAIR, coflow_predictor=PREDICTORS[predictor]
    )


def check_query(new, old, host, direction, total, on_link, predictor):
    """The query (``on_link`` of the ``total`` bits on the link), asked of
    ``new`` and of the oracle over ``old``, its lock-step twin: the same
    reply, and no flow moved."""
    before = new.state()
    got = _daemon(new, host, predictor).predict_coflow(total, on_link, direction)
    want = coflow_query_oracle.predict_coflow(
        _daemon(old, host, predictor), total, on_link, direction
    )
    context = f"{predictor} at {host} ({direction})"
    assert got == want, context
    assert new.state() == old.state() == before, context


_size = st.one_of(
    st.sampled_from((1.0, 1e6, 1e9, 1e9, 3e9)),
    st.floats(min_value=1.0, max_value=1e11),
)
_query = op(
    "query", a_host, st.sampled_from(("in", "out")), _size,
    st.sampled_from((0.0, 0.25, 1.0)), st.sampled_from(tuple(PREDICTORS)),
)
_histories = histories(
    op("submit", a_host, a_host, _size),
    *coflows(_size),
    op("shuffle", st.lists(a_host, min_size=2, max_size=4), a_host, _size),
    op("advance", st.one_of(
        st.sampled_from((1e-4, 1e-3, 0.01, 0.5)),
        st.floats(min_value=1e-6, max_value=2.0),
    )),
    op("fail_link", st.sampled_from(CORE_LINKS) | st.sampled_from(LINKS)),
    op("degrade_link", a_link, st.sampled_from((0.5, 0.25, 2.0))),
    _query,
    _query,
    max_size=25,
)


@given(
    st.sampled_from(("varys", "fair")),
    _histories,
    st.sampled_from((1e-3, 0.01, 0.1)),
    st.permutations(tuple(PREDICTORS)),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_every_query_equals_the_oracle(allocator, history, pause, sweep_order):
    def query(new, old, host, direction, total, share, predictor):
        check_query(new, old, host, direction, total, total * share, predictor)

    new, old = Run(allocator), Run(allocator)
    drive([*history, ("advance", pause)], new, old, query=query)
    # Then, mid-flight, every host, both directions, every predictor, in
    # a drawn order: no query may see another's trace.
    for predictor in sweep_order:
        for host in HOSTS:
            for direction in ("in", "out"):
                check_query(new, old, host, direction, 2e9, 5e8, predictor)


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
    new, old = Run("varys"), Run("varys")
    drive(history, new, old, expect="ok")
    first = new.flows[0]
    core_link = next(link for link in first.path if "core" in link)
    drive([("fail_link", core_link)], new, old, expect="ok")
    on_link = list(new.fabric._by_link["tor0->h000"])
    at_host = [
        fid for fid in new.fabric._by_host["h000"] if fid in on_link
    ]
    assert on_link != at_host  # the two indexes now disagree on order
    for predictor in PREDICTORS:
        for direction in ("in", "out"):
            check_query(new, old, "h000", direction, 2e9, 5e8, predictor)
            check_query(new, old, "h000", direction, 2e9, 0.0, predictor)


def test_dust_below_the_coflow_floor_is_floored_for_coflows_only():
    """A moment before two one-bit flows finish, h000's downlink carries
    a bare flow and its uplink a one-flow coflow, each with ~1e-10 bits
    left: the link state raises the coflow's total to the 1e-9 floor and
    leaves the bare flow's as it is, the node state floors neither, and
    every predictor still answers as the oracle does."""
    new, old = Run("fair"), Run("fair")
    history = [
        ("submit", "h001", "h000", 1.0),
        ("coflow", [("h000", "h002", 1.0)], True),
    ]
    drive(history, new, old, expect="ok")
    bare, member = new.flows
    assert new.fabric._rates[bare.flow_id] == new.fabric._rates[member.flow_id]
    pause = (1.0 / new.fabric._rates[bare.flow_id]) * (1 - 2**-33)
    drive([("advance", pause)], new, old, expect="ok")
    for predictor in PREDICTORS:
        for direction in ("in", "out"):
            check_query(new, old, "h000", direction, 2e9, 5e8, predictor)
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
    new, old = Run("varys"), Run("varys")
    history = [
        ("coflow", [("h000", "h001", 1e9), ("h002", "h003", 4e9)], True),
        ("advance", 0.1),
        ("fail_host", "h003"),
    ]
    drive(history, new, old, expect="ok")
    kept, aborted = new.flows
    assert new.fabric.active_flows() == [kept] and aborted.remaining > 2e9
    (coflow,) = coflow_link_state(new.fabric, "h000->tor0").coflows
    assert coflow.total_size == new.fabric.residual(kept) + aborted.remaining
    for predictor in PREDICTORS:
        for direction in ("in", "out"):
            check_query(new, old, "h000", direction, 2e9, 5e8, predictor)


def test_a_compensated_sum_changes_no_answer(monkeypatch):
    """With ``sum`` compensated, as on CPython 3.12, the code and the oracle
    still agree bit for bit: both fold coflow totals and bytes ahead left.
    Four three-flow coflows into h000, mid-flight, where the compensated
    and the left-folded sums of both part."""
    import builtins
    import itertools
    from functools import reduce
    from operator import add

    new, old = Run("fair"), Run("fair")
    sizes = (1e9 / 3, 1e9 / 7, 1e9 / 11)
    history = [
        ("coflow", [(HOSTS[2 + (i + k) % 6], "h000", size * (i + 1))
                    for k, size in enumerate(sizes)], True)
        for i in range(4)
    ]
    drive([*history, ("advance", 0.1)], new, old, expect="ok")
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    for predictor in PREDICTORS:
        for host in ("h000", HOSTS[2]):
            for direction, on_link in itertools.product(("in", "out"), (0, 3e9)):
                check_query(new, old, host, direction, 9e9, on_link, predictor)
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
