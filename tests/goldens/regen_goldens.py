"""Regenerate the golden-trace regression corpus.

Each policy gets two committed files under ``tests/goldens/``:

* ``<policy>.records.jsonl`` — one JSON object per completion record
  (shortest-round-trip float formatting, so equality is bit-equality);
* ``<policy>.trace.jsonl`` — the telemetry JSONL trace of the same run
  (arrivals, placement decisions, rate recomputes, completions).

Each coflow policy (``COFLOW_POLICIES``) gets the same pair,
``<policy>.records.jsonl`` (CCT records) and ``<policy>.trace.jsonl``,
from a coflow trace on the same fabric: the external anchor for the
SEBF / MADD / back-fill arithmetic of ``repro.coflow.policies``.

Each *observed* run (``OBSERVED``: a fair+NEAT flow run, a Varys+NEAT
coflow run and a faulted NEAT run, every telemetry channel on) gets four:
``<name>.trace.jsonl``, ``<name>.causal.jsonl``,
``<name>.decisions.jsonl`` and ``<name>.registry.json`` (the registry
snapshot).  They pin every record a bus message, placement decision,
coflow, fault or causal hook produces.

``tests/test_goldens.py`` byte-compares the current simulator output —
with every priority group forced through each allocator fill in turn —
against these files, so any change to
allocation arithmetic, event ordering, or trace payloads shows up as a
corpus diff that must be regenerated (and reviewed) deliberately:

    PYTHONPATH=src python tests/goldens/regen_goldens.py
"""

from __future__ import annotations

import dataclasses
import io
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent

POLICIES = ("fair", "fcfs", "las", "srpt")

COFLOW_POLICIES = ("varys", "scf", "coflow-fcfs", "coflow-las", "coflow-fair")

#: The pinned scenario.  Small enough to keep the corpus a few tens of
#: kilobytes, contended enough (20-host Clos, load 0.7) that every
#: policy produces multi-round water-fills with real rate churn.
SCENARIO = dict(
    pods=2,
    racks_per_pod=2,
    hosts_per_rack=5,
    workload="websearch",
    load=0.7,
    num_arrivals=40,
    seed=13,
    placement="minload",
)


def generate(policy: str):
    """Run the pinned scenario; returns (records_text, trace_text).

    A coflow policy runs the scenario's coflow twin: hadoop shuffles of
    2-6 transfers on the same fabric, load, seed and placement, recorded
    as CCTs.
    """
    from repro.experiments.runner import replay_coflow_trace, replay_flow_trace
    from repro.telemetry import JsonlTraceSink, Telemetry
    from repro.topology.fabrics import three_tier_clos
    from repro.workloads import (
        generate_coflow_trace,
        generate_flow_trace,
        make_distribution,
    )

    coflows = policy in COFLOW_POLICIES
    topo = three_tier_clos(
        pods=SCENARIO["pods"],
        racks_per_pod=SCENARIO["racks_per_pod"],
        hosts_per_rack=SCENARIO["hosts_per_rack"],
    )
    make_trace = generate_coflow_trace if coflows else generate_flow_trace
    trace = make_trace(
        hosts=topo.hosts,
        distribution=make_distribution("hadoop" if coflows else SCENARIO["workload"]),
        load=SCENARIO["load"],
        edge_capacity=1e9,
        num_arrivals=SCENARIO["num_arrivals"],
        seed=SCENARIO["seed"],
    )
    buf = io.StringIO()
    telemetry = Telemetry(trace=JsonlTraceSink(buf))
    replay = replay_coflow_trace if coflows else replay_flow_trace
    run = replay(
        trace,
        topo,
        network_policy=policy,
        placement=SCENARIO["placement"],
        seed=SCENARIO["seed"],
        telemetry=telemetry,
    )
    telemetry.close()
    records_text = "".join(
        json.dumps(dataclasses.asdict(record), sort_keys=True) + "\n"
        for record in run.records
    )
    return records_text, buf.getvalue()


#: Observed runs: name -> replay kwargs on the pinned topology.  The
#: faulted run also turns on the push updates and state TTL that only
#: matter under faults.
OBSERVED = {
    "fair_neat": dict(coflows=False, network_policy="fair"),
    "varys_neat": dict(coflows=True, network_policy="varys"),
    "faulted_neat": dict(
        coflows=False, network_policy="fair", faulted=True,
        state_ttl=0.001, push_updates=True,
    ),
}
OBSERVED_ARTIFACTS = ("trace.jsonl", "causal.jsonl", "decisions.jsonl", "registry.json")


def _faulted_plan():
    """Loss window from t=0, then a core link, an edge brown-out and a
    host failing mid-run: covers drops, reroute, aborts, dropped tasks
    and (with the 1 ms TTL) stale-state fallbacks."""
    from repro.faults import (
        FaultPlan,
        HostDown,
        LinkDegrade,
        LinkDown,
        MessageLoss,
    )

    return FaultPlan(
        events=(
            MessageLoss(start=0.0, p=0.3),
            LinkDown(time=0.010, link="agg1_1->core0"),
            LinkDegrade(time=0.011, link="tor1->h009", factor=0.5),
            HostDown(time=0.012, host="h019"),
        ),
        seed=SCENARIO["seed"],
    )


def generate_observed(name: str):
    """Run one observed scenario with every telemetry channel on;
    returns ``{artifact suffix: text}`` for ``OBSERVED_ARTIFACTS``."""
    from repro.experiments.runner import replay_coflow_trace, replay_flow_trace
    from repro.telemetry import (
        CausalTracer,
        DecisionLog,
        JsonlTraceSink,
        MetricsRegistry,
        SpanProfiler,
        Telemetry,
    )
    from repro.telemetry.trace import _json_safe
    from repro.topology.fabrics import three_tier_clos
    from repro.workloads import (
        generate_coflow_trace,
        generate_flow_trace,
        make_distribution,
    )

    spec = dict(OBSERVED[name])
    topo = three_tier_clos(
        pods=SCENARIO["pods"],
        racks_per_pod=SCENARIO["racks_per_pod"],
        hosts_per_rack=SCENARIO["hosts_per_rack"],
    )
    coflows = spec.pop("coflows")
    make_trace = generate_coflow_trace if coflows else generate_flow_trace
    trace = make_trace(
        hosts=topo.hosts,
        distribution=make_distribution("hadoop" if coflows else SCENARIO["workload"]),
        load=SCENARIO["load"],
        edge_capacity=1e9,
        num_arrivals=15 if coflows else SCENARIO["num_arrivals"],
        seed=SCENARIO["seed"],
    )
    if spec.pop("faulted", False):
        spec["faults"] = _faulted_plan()
    buf = io.StringIO()
    sink = JsonlTraceSink(buf)
    telemetry = Telemetry(
        registry=MetricsRegistry(),
        trace=sink,
        decisions=DecisionLog(trace=sink),
        profiler=SpanProfiler(),
        causal=CausalTracer(),
    )
    replay = replay_coflow_trace if coflows else replay_flow_trace
    replay(
        trace, topo, placement="neat", seed=SCENARIO["seed"],
        max_candidates=8, telemetry=telemetry, **spec,
    )
    telemetry.close()

    def jsonl(rows) -> str:
        return "".join(
            json.dumps(_json_safe(row), separators=(",", ":")) + "\n"
            for row in rows
        )

    snapshot = telemetry.registry.as_dict()
    return {
        "trace.jsonl": buf.getvalue(),
        "causal.jsonl": jsonl(telemetry.causal.events),
        "decisions.jsonl": jsonl(
            dataclasses.asdict(record) for record in telemetry.decisions.records
        ),
        "registry.json": json.dumps(
            _json_safe(snapshot), indent=1, sort_keys=True
        ) + "\n",
    }


def regenerate(only=None) -> None:
    for name in OBSERVED:
        if only and name not in only:
            continue
        for suffix, text in generate_observed(name).items():
            (GOLDEN_DIR / f"{name}.{suffix}").write_text(text, encoding="utf-8")
        print(f"wrote {name}.{{{','.join(OBSERVED_ARTIFACTS)}}}")
    if only:
        return
    for policy in POLICIES + COFLOW_POLICIES:
        records_text, trace_text = generate(policy)
        (GOLDEN_DIR / f"{policy}.records.jsonl").write_text(
            records_text, encoding="utf-8"
        )
        (GOLDEN_DIR / f"{policy}.trace.jsonl").write_text(
            trace_text, encoding="utf-8"
        )
        print(f"wrote {policy}.records.jsonl / {policy}.trace.jsonl")


if __name__ == "__main__":
    import sys

    regenerate(only=sys.argv[1:])
