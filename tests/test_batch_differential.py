"""One coflow allocation per arrival: ``NetworkFabric.batch``.

``replay_coflow_trace`` places each coflow arrival inside one batch: every
submit still syncs and settles the fabric and fires the arrival listeners,
and the coflow allocation (SEBF / SCF / ... + MADD + back-fill) runs once,
when the batch ends (DESIGN.md §5.2.1).  These tests replay coflow traces
batched and per submit (``batch`` patched to a no-op, one allocation per
submit as before) and require byte-identical flow records, coflow records
and placement decisions:

* every coflow allocator x {neat, minload, random, mindist} x seeds 1-2 on
  the 16-host Clos;
* the same matrix under a fault plan whose unreachable hosts make a
  ``submit`` raise ``RoutingError`` after others of its coflow went in, so
  the batch ends by the exception;
* the pinned 150-coflow replay (seed 2, SCF + NEAT) on which deferring the
  in-batch sync too once moved flow 155 (a NEAT read saw a stale coflow
  total) and coflow 38's CCT by 0.9 ms; batched, it equals the replay whose
  CCT queries the host-by-host oracle answers
  (``tests/coflow_query_oracle.py``).

The count guard, on the pinned replay: batched, the allocations are the
placed coflows plus the completion recomputes; per submit, the submitted
flows plus the same.  The settle inside a batch, on a hand-built fabric: a
flow that ends exactly at a coflow's arrival leaves, and its completion
listener fires, before the next in-batch placement reads.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from contextlib import nullcontext

import pytest

from repro.coflow.coflow import Coflow
from repro.coflow.policies import available_coflow_policies, make_coflow_allocator
from repro.coflow.policies.base import CoflowAllocator
from repro.daemons.messages import CoflowPredictionRequest
from repro.daemons.network_daemon import NetworkDaemon
from repro.errors import RoutingError
from repro.experiments import MacroConfig, replay_coflow_trace
from repro.faults import FaultPlan, HostDown, LinkDown
from repro.network.fabric import NetworkFabric
from repro.sim.engine import Engine
from repro.telemetry import DecisionLog, Telemetry
from repro.topology.fabrics import single_switch

from tests import coflow_query_oracle

#: One name per coflow allocator (``sebf``, ``tcf``, ... are aliases).
POLICIES = sorted({make_coflow_allocator(n).name for n in available_coflow_policies()})
PLACEMENTS = ("neat", "minload", "random", "mindist")

#: h005 and h010 stay up but unreachable (their downlinks fail), so a
#: placement that picks one raises ``RoutingError`` mid-coflow; h014 dies.
FAULTS = FaultPlan(
    events=(
        LinkDown(time=0.1, link="tor1->h005"),
        LinkDown(time=0.3, link="tor2->h010"),
        HostDown(time=0.5, host="h014"),
    ),
    seed=1,
)


def config(seed, arrivals):
    """The 16-host copy of the fig7 benchmark workload's trace."""
    return MacroConfig(
        pods=2, racks_per_pod=2, hosts_per_rack=4, workload="hadoop",
        load=0.7, num_arrivals=arrivals, seed=seed, coflows=True,
    )


def replay(policy, placement, seed, *, batched, arrivals=40, faults=None,
           patch=None):
    """Flow records, coflow records and decisions (JSONL text) of one
    replay, and the replay's fabric."""
    fabrics = []
    init = NetworkFabric.__init__

    def keep(fabric, *args, **kwargs):
        init(fabric, *args, **kwargs)
        fabrics.append(fabric)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NetworkFabric, "__init__", keep)
        if not batched:
            mp.setattr(NetworkFabric, "batch", lambda self: nullcontext())
        if patch is not None:
            patch(mp)
        cfg = config(seed, arrivals)
        topo = cfg.build_topology()
        telemetry = Telemetry(decisions=DecisionLog())
        run = replay_coflow_trace(
            cfg.build_trace(topo), topo, network_policy=policy,
            placement=placement, seed=seed, faults=faults, telemetry=telemetry,
        )
        telemetry.close()

    def jsonl(rows):
        return "".join(
            json.dumps(dataclasses.asdict(row), sort_keys=True) + "\n"
            for row in rows
        )

    outputs = (
        jsonl(fabrics[0].records),
        jsonl(run.records),
        jsonl(telemetry.decisions.records),
    )
    return outputs, run


@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("policy", POLICIES)
def test_batched_placement_equals_per_submit(policy, placement, seed):
    batched, _ = replay(policy, placement, seed, batched=True)
    per_submit, _ = replay(policy, placement, seed, batched=False)
    assert batched == per_submit


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("policy", POLICIES)
def test_a_batch_ended_by_a_routing_error_equals_per_submit(policy, placement):
    """Flows submitted before the failing one drain, allocated when the
    batch ends by the exception; the coflow counts as dropped."""
    raised = []  # (tag, submits of its coflow that went in before)
    submit = NetworkFabric.submit

    def counting(fabric, src, dst, size, *, tag="", coflow=None):
        try:
            return submit(fabric, src, dst, size, tag=tag, coflow=coflow)
        except RoutingError:
            raised.append((tag, len(coflow.flows)))
            raise

    def patch(mp):
        mp.setattr(NetworkFabric, "submit", counting)

    batched, run = replay(
        policy, placement, 1, batched=True, faults=FAULTS, patch=patch
    )
    per_submit, _ = replay(policy, placement, 1, batched=False, faults=FAULTS)
    assert batched == per_submit
    assert run.tasks_dropped > 0
    assert any(went_in > 0 for _tag, went_in in raised)


@functools.lru_cache(maxsize=None)
def pinned(batched):
    """The pinned replay (seed 2, SCF + NEAT, 150 coflows): its outputs and
    (allocations, placed coflows, submitted flows, completion recomputes)."""
    counts = dict(allocations=0, completions=0)
    allocate = CoflowAllocator.allocate
    on_completion = NetworkFabric._on_completion

    def counted_allocate(allocator, flows, capacities):
        counts["allocations"] += 1
        return allocate(allocator, flows, capacities)

    def counted_completion(fabric, flow):
        on_completion(fabric, flow)
        counts["completions"] += bool(fabric._active)  # it allocated

    def patch(mp):
        mp.setattr(CoflowAllocator, "allocate", counted_allocate)
        mp.setattr(NetworkFabric, "_on_completion", counted_completion)

    outputs, _ = replay(
        "scf", "neat", 2, batched=batched, arrivals=150, patch=patch
    )
    network = [json.loads(row) for row in outputs[0].splitlines()]
    placed = {row["coflow_id"] for row in network if row["src"] != row["dst"]}
    submitted = sum(row["src"] != row["dst"] for row in network)
    return outputs, (
        counts["allocations"], len(placed), submitted, counts["completions"]
    )


def test_the_pinned_stale_read_case_equals_per_submit():
    """The replay a batch that skipped the sync of unqueried links got
    wrong: batched, per submit and with every CCT query answered by the
    residual-semantics oracle host by host, flow 155 goes to h005."""
    batched, per_submit = pinned(True)[0], pinned(False)[0]
    assert batched == per_submit
    answer_round = NetworkDaemon.answer_round

    def oracle_round(daemons, payload):
        if not isinstance(payload, CoflowPredictionRequest):
            return answer_round(daemons, payload)
        return [
            coflow_query_oracle.predict_coflow(
                daemon, payload.total_size, payload.size_on_link,
                payload.direction,
            )
            for daemon in daemons
        ]

    oracle, _ = replay(
        "scf", "neat", 2, batched=True, arrivals=150,
        patch=lambda mp: mp.setattr(NetworkDaemon, "answer_round", oracle_round),
    )
    assert batched == oracle
    flows = {row["flow_id"]: row for row in map(json.loads, batched[0].splitlines())}
    assert flows[155]["dst"] == "h005"


def test_one_allocation_per_placed_coflow_and_completion():
    allocations, placed, submitted, completions = pinned(True)[1]
    assert allocations == placed + completions
    per_submit, _, _, same_completions = pinned(False)[1]
    assert per_submit == submitted + same_completions
    assert same_completions == completions and allocations < per_submit


def settle_at_the_batch_instant(batched):
    """Flow 0 alone at 1 Gb/s ends at t = 1.0 exactly, when a two-flow
    coflow arrives (arrival events run before completion events of the same
    instant).  Each placement's read and each completion, in order."""
    engine = Engine()
    fabric = NetworkFabric(engine, single_switch(4), make_coflow_allocator("varys"))
    log = []
    fabric.add_completion_listener(
        lambda flow, record: log.append(("done", flow.flow_id, engine.now))
    )
    fabric.submit("h000", "h001", 1e9)

    def arrive():
        coflow = Coflow(coflow_id=0, arrival_time=engine.now)
        with fabric.batch() if batched else nullcontext():
            for dst in ("h002", "h003"):
                active = [flow.flow_id for flow in fabric.active_flows()]
                log.append(("read", active, fabric.hosts_queued_bits(["h001"])))
                fabric.submit("h001", dst, 1e9, coflow=coflow)

    engine.schedule(1.0, arrive)
    engine.run()
    return log


def test_a_flow_ending_at_the_batch_instant_settles_before_the_next_read():
    log = settle_at_the_batch_instant(True)
    assert log[:3] == [
        ("read", [0], [0.0]),  # residual 0.0, not yet settled
        ("done", 0, 1.0),  # settled by the first submit's sync
        ("read", [1], [1e9]),
    ]
    assert log == settle_at_the_batch_instant(False)
