"""Test-only oracle: the coflow allocation bodies as they stood before the
interned pass, verbatim.

``repro.coflow.policies`` allocates over int link columns with cached
shares and a back-fill that first sweeps out the flows behind 0.0
columns; every float it produces is claimed to come from the same
expression on the same operands in the same order as these LinkId-keyed
dict bodies.  ``tests/test_coflow_differential.py`` checks that claim
with ``==`` on the rate dicts (no tolerance).  The bodies call the
still-public :func:`water_fill`; ``collect_coflows`` (as it was before it
took columns), ``bottleneck_duration`` and ``madd_rates`` are the
parent's too (``src/`` groups, accumulates demand and computes Gamma and
the MADD rate inline, over int columns), so no arithmetic here runs
through the code under test.  Nothing under ``src/`` imports this
module.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.coflow.coflow import Coflow
from repro.network.flow import Flow, FlowId
from repro.network.policies.base import RATE_EPSILON, water_fill
from repro.topology.base import LinkId


def collect_coflows(
    flows: Sequence[Flow],
) -> List[Tuple[Optional[Coflow], List[Flow]]]:
    """Group active flows by owning coflow, preserving first-seen order.

    Returns a list of ``(coflow_or_None, member_flows)``; bare flows appear
    as their own singleton group with ``None``.
    """
    groups: Dict[int, Tuple[Optional[Coflow], List[Flow]]] = {}
    order: List[int] = []
    for flow in flows:
        if flow.coflow is None:
            key = -1 - flow.flow_id  # unique singleton key
            groups[key] = (None, [flow])
            order.append(key)
        else:
            key = flow.coflow.coflow_id
            if key not in groups:
                groups[key] = (flow.coflow, [])
                order.append(key)
            groups[key][1].append(flow)
    return [groups[key] for key in order]


def bottleneck_duration(
    members: Sequence[Flow],
    capacities: Mapping[LinkId, float],
) -> float:
    """Gamma: the coflow's completion time if it alone used ``capacities``."""
    demand: Dict[LinkId, float] = {}
    for flow in members:
        for link_id in flow.path:
            demand[link_id] = demand.get(link_id, 0.0) + flow.remaining
    gamma = 0.0
    for link_id, bits in demand.items():
        capacity = capacities.get(link_id, 0.0)
        if capacity <= RATE_EPSILON:
            return float("inf")
        gamma = max(gamma, bits / capacity)
    return gamma


def madd_rates(
    members: Sequence[Flow],
    gamma: float,
) -> Dict[FlowId, float]:
    """MADD: rates so every member finishes exactly at ``gamma`` seconds."""
    if gamma <= 0:
        return {flow.flow_id: 0.0 for flow in members}
    return {flow.flow_id: flow.remaining / gamma for flow in members}


def _arrival(coflow, members: Sequence[Flow]) -> float:
    return (
        coflow.arrival_time if coflow is not None
        else min(f.arrival_time for f in members)
    )


#: policy name -> the parent's ``priority_key(coflow, members, capacities)``.
PRIORITY_KEYS = {
    "varys": lambda coflow, members, capacities: (
        bottleneck_duration(members, capacities), _arrival(coflow, members)
    ),
    "scf": lambda coflow, members, capacities: (
        sum(f.remaining for f in members), _arrival(coflow, members)
    ),
    "coflow-fcfs": lambda coflow, members, capacities: (
        _arrival(coflow, members),
    ),
    "coflow-las": lambda coflow, members, capacities: (
        sum(f.attained for f in members), _arrival(coflow, members)
    ),
}

POLICIES = (*PRIORITY_KEYS, "coflow-fair")


def backfill(
    flows: Sequence[Flow],
    residual: Dict[LinkId, float],
    rates: Dict[FlowId, float],
) -> None:
    """Distribute leftover capacity max-min fairly on top of MADD."""
    extra: Dict[FlowId, float] = {}
    water_fill(flows, residual, extra)
    for flow_id, rate in extra.items():
        if rate > RATE_EPSILON:
            rates[flow_id] = rates.get(flow_id, 0.0) + rate


def allocate_priority(
    priority_key,
    flows: Sequence[Flow],
    capacities: Mapping[LinkId, float],
) -> Dict[FlowId, float]:
    """The parent's ``CoflowAllocator.allocate``."""
    groups = collect_coflows(flows)
    ordered = sorted(
        groups,
        key=lambda pair: (
            priority_key(pair[0], pair[1], capacities),
            # deterministic tie-break by smallest member flow id
            min(f.flow_id for f in pair[1]),
        ),
    )
    residual: Dict[LinkId, float] = dict(capacities)
    rates: Dict[FlowId, float] = {flow.flow_id: 0.0 for flow in flows}
    for _coflow, members in ordered:
        gamma = bottleneck_duration(members, residual)
        if gamma == float("inf"):
            continue  # blocked; members only get backfill
        for flow_id, rate in madd_rates(members, gamma).items():
            rates[flow_id] = rate
        for flow in members:
            for link_id in flow.path:
                residual[link_id] = max(
                    0.0, residual[link_id] - rates[flow.flow_id]
                )
    backfill(flows, residual, rates)
    return rates


def allocate_fair(
    flows: Sequence[Flow],
    capacities: Mapping[LinkId, float],
) -> Dict[FlowId, float]:
    """The parent's ``CoflowFairAllocator.allocate``."""
    groups = collect_coflows(flows)
    rates: Dict[FlowId, float] = {flow.flow_id: 0.0 for flow in flows}

    # Per-group link weights w_{c,l} = rem_{c,l} / rem_c.
    weights: List[Dict[LinkId, float]] = []
    active: Dict[int, Sequence[Flow]] = {}
    for index, (_coflow, members) in enumerate(groups):
        total = sum(f.remaining for f in members)
        w: Dict[LinkId, float] = {}
        if total > 0:
            for flow in members:
                frac = flow.remaining / total
                for link_id in flow.path:
                    w[link_id] = w.get(link_id, 0.0) + frac
        weights.append(w)
        if w:
            active[index] = members

    residual: Dict[LinkId, float] = dict(capacities)
    progress: Dict[int, float] = {}  # frozen R_c values
    while active:
        # Find the link that saturates first as all R_c rise uniformly.
        load: Dict[LinkId, float] = {}
        for index in active:
            for link_id, w in weights[index].items():
                load[link_id] = load.get(link_id, 0.0) + w
        bottleneck: Optional[LinkId] = None
        fill = float("inf")
        for link_id, total_w in load.items():
            if total_w <= RATE_EPSILON:
                continue
            level = residual.get(link_id, 0.0) / total_w
            if level < fill:
                fill = level
                bottleneck = link_id
        if bottleneck is None:
            break
        fill = max(fill, 0.0)
        frozen = [
            index for index in active if bottleneck in weights[index]
        ]
        for index in frozen:
            progress[index] = fill
            for link_id, w in weights[index].items():
                residual[link_id] = max(
                    0.0, residual.get(link_id, 0.0) - fill * w
                )
            del active[index]

    for index, r_c in progress.items():
        _coflow, members = groups[index]
        total = sum(f.remaining for f in members)
        if total <= 0:
            continue
        for flow in members:
            rates[flow.flow_id] = r_c * flow.remaining / total
    backfill(flows, residual, rates)
    return rates


def allocate(
    policy: str,
    flows: Sequence[Flow],
    capacities: Mapping[LinkId, float],
) -> Dict[FlowId, float]:
    """The parent's rate map for ``policy`` (a name in :data:`POLICIES`)."""
    if policy == "coflow-fair":
        return allocate_fair(flows, capacities)
    return allocate_priority(PRIORITY_KEYS[policy], flows, capacities)
