"""Coflow scheduling machinery shared by the concrete policies.

All priority-based coflow schedulers here follow the Varys structure:

1. order coflows by a policy-specific key (SEBF, total size, arrival, ...);
2. allocate each coflow in order with **MADD** (minimum allocation for
   desired duration [Varys, SIGCOMM'14]): every constituent flow gets rate
   ``remaining_f / Gamma`` where ``Gamma`` is the coflow's bottleneck
   completion time on the *residual* capacities, so all flows would finish
   together without wasting bandwidth;
3. **backfill** leftover capacity max-min fairly across all unfinished
   flows (work conservation): :func:`repro.network.kernels.backfill`, the
   fill a large fair group also runs.

Flows not attached to any coflow are treated as singleton coflows, so mixed
flow/coflow traffic is handled uniformly.

``allocate`` interns its links once as int columns
(:func:`repro.network.kernels.link_columns`); every float is the same
expression on the same operands in the same order as in the LinkId-keyed
bodies kept in ``tests/coflow_oracle.py``.
"""

from __future__ import annotations

from abc import abstractmethod
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.coflow.coflow import Coflow
from repro.network.flow import Flow, FlowId
from repro.network.kernels import backfill, link_columns
from repro.network.policies.base import RATE_EPSILON, RateAllocator
from repro.topology.base import LinkId

_INF = float("inf")


def collect_coflows(
    flows: Sequence[Flow], cols_of: Mapping[FlowId, List[int]]
) -> List[list]:
    """Group active flows by owning coflow, preserving first-seen order, in
    one pass over ``flows``.

    Returns one ``[coflow_or_None, members, demand, tie]`` per group:
    ``demand`` is its remaining bits per column of ``cols_of`` (member by
    member along each path) and ``tie`` its smallest member flow id.  A
    bare flow is a singleton group with ``None``.
    """
    groups: List[list] = []
    by_coflow: Dict[int, list] = {}
    for flow in flows:
        flow_id, coflow = flow.flow_id, flow.coflow
        if coflow is None:
            group = [None, [flow], {}, flow_id]
            groups.append(group)
        elif (group := by_coflow.get(coflow.coflow_id)) is None:
            group = by_coflow[coflow.coflow_id] = [coflow, [flow], {}, flow_id]
            groups.append(group)
        else:
            group[1].append(flow)
            if flow_id < group[3]:
                group[3] = flow_id
        demand, bits = group[2], flow.remaining
        for col in cols_of[flow_id]:
            demand[col] = demand.get(col, 0.0) + bits
    return groups


def unit_arrival(coflow: Optional[Coflow], members: Sequence[Flow]) -> float:
    """A scheduling unit's arrival: its coflow's, or a bare flow group's
    earliest flow's."""
    if coflow is not None:
        return coflow.arrival_time
    return min(f.arrival_time for f in members)


def column_bottleneck(
    demand: Mapping[int, float], capacity: Sequence[float]
) -> float:
    """Gamma of a :func:`collect_coflows` demand: the group's completion time if it
    alone used ``capacity``; ``inf`` behind a saturated column (blocked at
    this priority level, left to the back-fill)."""
    gamma = 0.0
    for col, bits in demand.items():
        if capacity[col] <= RATE_EPSILON:
            return _INF
        duration = bits / capacity[col]
        if duration > gamma:
            gamma = duration
    return gamma


class CoflowAllocator(RateAllocator):
    """Priority-ordered coflow scheduler with MADD allocation + backfill.

    Subclasses define :meth:`priority_key`; smaller keys are served first.
    """

    name = "coflow-abstract"

    #: MADD couples a coflow's flows across *disjoint* links (every member's
    #: rate is remaining/Gamma, and Gamma is the coflow-wide bottleneck), so
    #: the allocation does not decompose over link-sharing components: the
    #: fabric must always recompute globally for coflow policies.
    incremental_safe = False

    @abstractmethod
    def priority_key(
        self,
        coflow: Optional[Coflow],
        members: Sequence[Flow],
        demand: Mapping[int, float],
        capacity: Sequence[float],
    ) -> Tuple:
        """Sort key for a coflow group (smaller = higher priority), given
        its :func:`collect_coflows` demand and the full capacity per column;
        the same ``demand`` later yields its Gamma on the residual."""

    def allocate(
        self,
        flows: Sequence[Flow],
        capacities: Mapping[LinkId, float],
    ) -> Dict[FlowId, float]:
        cols_of, crossing, capacity = link_columns(flows, capacities)
        priority = self.priority_key
        # deterministic tie-break by smallest member flow id
        keyed = [
            (priority(coflow, members, demand, capacity), tie, members, demand)
            for coflow, members, demand, tie in collect_coflows(flows, cols_of)
        ]
        keyed.sort(key=itemgetter(0, 1))
        residual = list(capacity)
        rates: Dict[FlowId, float] = {flow.flow_id: 0.0 for flow in flows}
        for _key, _tie, members, demand in keyed:
            gamma = column_bottleneck(demand, residual)
            # inf: blocked, members only get backfill.  0: nothing left to
            # send, and MADD's rate 0 would drain nothing.
            if gamma == _INF or gamma <= 0:
                continue
            for flow in members:
                rates[flow.flow_id] = rate = flow.remaining / gamma
                for col in cols_of[flow.flow_id]:
                    left = residual[col] - rate
                    residual[col] = left if left > 0.0 else 0.0
        backfill(cols_of, crossing, residual, rates)
        return rates
