"""Fabric histories: the 8-host Clos, one op vocabulary and one driver
for every history-driven fabric test.

An op is a tuple whose first element names it; :func:`op` draws one kind
and each test mixes its own (:func:`histories`):

* ``("submit", src, dst, size)``: a bare flow; skipped when ``src == dst``
  or either host is down;
* ``("coflow", transfers, sealed)``: ``(src, dst, size)`` transfers, left
  open for ``("grow", index, src, dst, size)`` unless ``sealed``;
* ``("shuffle", sources, dst, size)``: a sealed coflow into ``dst`` from
  the sources that are up (``dst`` excluded);
* ``("through", src, via, dst, size_in, size_out)``: a sealed coflow into
  and out of ``via``;
* ``("near_tie", index, src, offset)``: 1 us on, a flow from ``src`` into
  the host the active bare flow ``index`` goes to, sized that flow's
  residual plus ``offset`` (half a bit either way);
* ``("advance", dt)``, ``("cancel_flow", index)`` (of the active bare
  flows), ``("degrade_link", link, factor)``, ``("fail_link", link)``
  (an int ``link`` picks among the :data:`FAILABLE` links that carry a
  flow, so that the failure reroutes; among all of them when none does),
  ``("fail_host", host)``;
* ``("resubmit", n)``: ``n`` more submits for the listener that resubmits;
* ``("read", host, link, delay)``: ``reader(run, host, link)``, ``delay``
  from now;
* ``("query", *args)``: :func:`drive`'s ``query(*runs, *args)``.

A ``RoutingError`` is the op's outcome.  :meth:`Run.check` runs after
every op and every event; :meth:`Run.drain` adds that every flow ends.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.coflow.policies import make_coflow_allocator
from repro.coflow.tracking import CoflowTracker
from repro.errors import RoutingError
from repro.network.fabric import NetworkFabric
from repro.network.policies.base import RATE_EPSILON
from repro.network.policies.registry import make_allocator
from repro.predictor.fabric_state import flow_link_state
from repro.sim.engine import Engine
from repro.topology.fabrics import three_tier_clos


def clos():
    """Two pods of two racks of two hosts, two aggs per pod, two cores."""
    return three_tier_clos(pods=2, racks_per_pod=2, hosts_per_rack=2, cores=2)


HOSTS = tuple(clos().hosts)
LINKS = tuple(sorted(link.link_id for link in clos().links()))
#: Links between switches: failing one reroutes the flows on it.
CORE_LINKS = tuple(link for link in LINKS if "h" not in link)
#: All but the tor <-> agg*_1 <-> core1 plane: every host pair keeps a
#: route, so a submit between hosts that are up cannot fail.
FAILABLE = tuple(
    link for link in CORE_LINKS if not ("_1" in link and "core0" not in link)
)
#: Ordered pairs of hosts in one rack (h2k and h2k+1 share one).
RACK_PAIRS = tuple(
    (HOSTS[rack + flip], HOSTS[rack + 1 - flip])
    for rack in range(0, len(HOSTS), 2) for flip in (0, 1)
)
a_host, a_link = st.sampled_from(HOSTS), st.sampled_from(LINKS)
FLOW_SIZE = st.floats(1e6, 4e9)


def op(kind, *args):
    """The ops named ``kind`` whose arguments ``args`` draw."""
    return st.tuples(st.just(kind), *args)


def coflows(size):
    """Open and sealed coflows, growing ones and ones through a host."""
    transfers = st.lists(st.tuples(a_host, a_host, size), min_size=1, max_size=4)
    return (
        op("coflow", transfers, st.booleans()),
        op("grow", st.integers(0, 5), a_host, a_host, size),
        op("through", a_host, a_host, a_host, size, size),
    )


#: A link failure that reroutes whenever a flow crosses a failable link.
FAIL_LINK = op("fail_link", st.integers(0, 63))
SUBMIT = op("submit", a_host, a_host, FLOW_SIZE)
ADVANCE = op("advance", st.floats(1e-4, 1.5))
DEGRADE = op("degrade_link", a_link, st.sampled_from((0.25, 0.5, 2.0, 4.0)))
#: Bare flows under every fault, and a listener that submits.
FAULTED = (
    SUBMIT,
    ADVANCE,
    op("cancel_flow", st.integers(0, 63)),
    DEGRADE,
    FAIL_LINK,
    op("fail_host", a_host),
    op("resubmit", st.integers(1, 3)),
)
SHUFFLE = op("shuffle", st.lists(a_host, min_size=1, max_size=4), a_host, FLOW_SIZE)
#: A flow half a bit longer or shorter than an active one it shares a
#: downlink with: one SRPT tie apart but arrived later, so no priority
#: group and no hinted pair, and the two swap with no event once the one
#: behind moves faster (the one ahead is slow on another link).
NEAR_TIE = op("near_tie", st.integers(0, 63), a_host, st.sampled_from((-0.5, 0.5)))
#: Near ties among bare flows, and the degraded links that slow one down.
NEAR_TIES = (SUBMIT, NEAR_TIE, NEAR_TIE, ADVANCE, DEGRADE)
READ = op("read", a_host, a_link, st.floats(1e-3, 1.5))


def histories(*mix, min_size=1, max_size=14):
    """Op lists drawn from ``mix`` (an op listed twice is drawn twice as
    often)."""
    return st.lists(st.one_of(*mix), min_size=min_size, max_size=max_size)


def any_allocator(policy):
    """The flow or coflow allocator named ``policy``."""
    if policy == "varys":
        return make_coflow_allocator(policy)
    return make_allocator(policy)


def assert_within_capacity(fabric, tolerance=1e-9):
    """No link carries more allocated rate than its capacity (relative)."""
    for link_id, members in fabric._by_link.items():
        used = 0.0
        for flow in members.values():
            used += fabric._rates.get(flow.flow_id, 0.0)
        capacity = fabric.link_capacity(link_id)
        assert used <= capacity * (1 + tolerance), (
            f"{link_id} at t={fabric.engine.now!r}: {used!r} > {capacity!r}"
        )


def read_everything(run, host, link_id):
    """Every read the fabric serves, at one instant: the daemons' edge
    reads (flow and coflow), minLoad's, a sampler's and the predictors'."""
    fabric = run.fabric
    topology = fabric.topology
    edges = [
        (host, topology.host_downlink(host).link_id),
        (host, topology.host_uplink(host).link_id),
    ]
    fabric.host_edge_states(edges)
    fabric.coflow_edge_states([*edges, (None, link_id)])
    fabric.hosts_queued_bits([host, *HOSTS])
    fabric.link_queued_bits(link_id)
    flow_link_state(fabric, link_id)
    for flow in fabric.active_flows():
        fabric.residual(flow)


def seeded_resubmits(engine, fabric, seed):
    """12 seeded flows in the first 50 ms and a completion listener that
    submits 20 more from the finished flows' destinations: a listener
    that calls back into the fabric, outside any history."""
    hosts, rng, budget = list(fabric.topology.hosts), random.Random(seed), [20]
    for _ in range(12):
        src, dst = rng.sample(hosts, 2)
        size = rng.uniform(1e6, 4e7)
        engine.schedule_at(
            rng.uniform(0.0, 0.05),
            lambda s=src, d=dst, z=size: fabric.submit(s, d, z),
        )

    def resubmit(flow, record):
        if budget[0]:
            budget[0] -= 1
            fabric.submit(flow.dst, rng.choice(hosts), rng.uniform(1e6, 4e7))

    fabric.add_completion_listener(resubmit)


class _CheckedEngine(Engine):
    """An engine that checks its run after every event."""

    def step(self) -> bool:
        ran = super().step()
        if ran:
            self.check()
        return ran


def _conserved(flow, writes):
    """``attained + remaining == size`` within ``writes`` roundings: a
    progress write moves one float out of one half of the pair and into
    the other, so its two roundings move the pair's sum by at most
    ``2**-53`` of the size, and so does adding the pair here (``writes``
    counts that one too)."""
    error = abs(flow.attained + flow.remaining - flow.size)
    assert error <= writes * 2**-53 * flow.size, (
        f"flow {flow.flow_id}: attained {flow.attained!r} + remaining "
        f"{flow.remaining!r} is {error!r} off its size {flow.size!r}"
    )


class Run:
    """The 8-host Clos under ``policy`` that one history drives: a coflow
    tracker, the coflows still open, every flow submitted and a
    completion listener that resubmits while its budget lasts."""

    def __init__(self, policy, reader=read_everything):
        self.engine = _CheckedEngine()
        self.engine.check = self.check
        self.fabric = NetworkFabric(self.engine, clos(), any_allocator(policy))
        self.tracker = CoflowTracker(self.fabric)
        self.fabric.add_completion_listener(self._completed)
        self.reader = reader
        self.budget = self.cancelled = self._records = 0
        self.open, self.flows = [], []
        self._ended, self._syncs, self._now = set(), {}, 0.0

    def apply(self, step) -> str:
        """Run one op; the outcome's name, for lock-step."""
        kind, *args = step
        fabric, tracker, up = self.fabric, self.tracker, self.fabric.host_is_up
        if kind == "shuffle":
            sources, dst, size = args
            transfers = [(s, dst, size) for s in sources if s != dst and up(s)]
            if not (transfers and up(dst)):
                return "ok"
            kind, args = "coflow", (transfers, True)
        elif kind == "through":
            src, via, dst, size_in, size_out = args
            transfers = [(src, via, size_in), (via, dst, size_out)]
            kind, args = "coflow", (transfers, True)
        try:
            if kind == "submit":
                src, dst, size = args
                if src != dst and up(src) and up(dst):
                    self.flows.append(fabric.submit(src, dst, size))
            elif kind == "coflow":
                transfers, sealed = args
                coflow = tracker.new_coflow()
                for src, dst, size in transfers:
                    self.flows.append(tracker.submit_flow(coflow, src, dst, size))
                (tracker.seal if sealed else self.open.append)(coflow)
            elif kind == "grow":
                index, src, dst, size = args
                if self.open:
                    coflow = self.open[index % len(self.open)]
                    self.flows.append(tracker.submit_flow(coflow, src, dst, size))
            elif kind == "advance":
                self.engine.run(until=self.engine.now + args[0])
            elif kind in ("cancel_flow", "near_tie"):
                active = [flow for _, flow in sorted(fabric._active.items())
                          if flow.coflow is None]
                picked = active[args[0] % len(active)] if active else None
                if picked is not None and kind == "cancel_flow":
                    fabric.cancel_flow(picked)
                    self.cancelled += 1
                elif picked is not None and args[1] != picked.dst and up(args[1]):
                    self.engine.run(until=self.engine.now + 1e-6)
                    if picked.flow_id in fabric._active:  # still active 1 us on
                        size = fabric.residual(picked) + args[2]
                        self.flows.append(fabric.submit(args[1], picked.dst, size))
            elif kind == "resubmit":
                self.budget += args[0]
            elif kind == "fail_link" and isinstance(args[0], int):
                busy = [link for link in FAILABLE if fabric.flows_on_link(link)]
                links = busy or FAILABLE
                fabric.fail_link(links[args[0] % len(links)])
            elif kind == "read":
                host, link_id, delay = args
                self.engine.schedule(
                    delay, lambda: self.reader(self, host, link_id)
                )
            else:  # degrade_link / fail_link / fail_host
                getattr(fabric, kind)(*args)
        except RoutingError as exc:
            return type(exc).__name__
        return "ok"

    def _completed(self, flow, record):
        """Check the finished flow (its last sync and the clamp to its size
        are two more writes); then, while the budget lasts, submit half its
        size from its destination to a host picked by its id."""
        _conserved(flow, self._syncs.pop(flow.flow_id, (None, 0))[1] + 2)
        src = flow.dst
        dst = HOSTS[(HOSTS.index(src) + 1 + flow.flow_id % 7) % len(HOSTS)]
        fabric = self.fabric
        if self.budget and fabric.host_is_up(src) and fabric.host_is_up(dst):
            self.budget -= 1
            self.flows.append(fabric.submit(src, dst, max(flow.size / 2, 1e6)))

    def check(self):
        """What holds between any two events of any history."""
        fabric, now = self.fabric, self.engine.now
        assert now >= self._now, f"the clock went back: {self._now!r} -> {now!r}"
        self._now = now
        assert_within_capacity(fabric)
        # A pending completion is the event of an active flow in progress.
        events = fabric._completion_events
        moving = {fid for fid, rate in fabric._rates.items() if rate > RATE_EPSILON}
        assert set(events) == moving and moving <= fabric._active.keys()
        pending = [event for event in self.engine._queue._heap
                   if event.label == "fabric-completion" and not event.cancelled]
        assert sorted(map(id, pending)) == sorted(map(id, events.values())), (
            "a completion event outlived its flow"
        )
        for record in fabric._records[self._records:]:
            assert record.flow_id not in self._ended, (
                f"flow {record.flow_id} ended twice"
            )
            self._ended.add(record.flow_id)
        self._records = len(fabric._records)
        synced_at, syncs = fabric._synced_at, self._syncs
        for fid, flow in fabric._active.items():
            seen = syncs.get(fid, (None, 0))
            if seen[0] != synced_at[fid]:  # the first sighting wrote nothing
                seen = syncs[fid] = (synced_at[fid], seen[1] + 1)
            _conserved(flow, seen[1])

    def drain(self):
        """Run the engine dry: every flow submitted ended (a record), was
        cancelled or was aborted.  Returns the fabric."""
        self.engine.run()
        fabric = self.fabric
        assert not fabric._active
        assert fabric._next_flow_id == (
            len(fabric._records) + self.cancelled + fabric.flows_aborted
        ), "a flow neither ended nor left"
        return fabric

    def state(self):
        """Every flow's progress as of its last sync."""
        synced_at = self.fabric._synced_at
        return [
            (f.flow_id, f.remaining, f.attained, synced_at.get(f.flow_id))
            for f in self.flows
        ]


def drive(history, *runs, after_op=None, query=None, expect=None):
    """Apply ``history`` to ``runs``: one, or two in lock-step (every op's
    outcome and every flow's progress after it must agree; with
    ``expect``, every outcome must be it).  A query op goes to ``query``;
    ``after_op(fabric)`` runs after every other op.  Returns the first
    run."""
    for step in history:
        if step[0] == "query":
            query(*runs, *step[1:])
        else:
            outcomes = [run.apply(step) for run in runs]
            assert outcomes.count(expect or outcomes[0]) == len(runs), (
                step, outcomes
            )
            if len(runs) > 1:
                assert all(run.state() == runs[0].state() for run in runs), step
        for run in runs:
            run.check()
            if after_op is not None and step[0] != "query":
                after_op(run.fabric)
    return runs[0]
