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


def collect_coflows(flows: Sequence[Flow]) -> List[Tuple[Optional[Coflow], List[Flow]]]:
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


def unit_arrival(coflow: Optional[Coflow], members: Sequence[Flow]) -> float:
    """A scheduling unit's arrival: its coflow's, or a bare flow group's
    earliest flow's."""
    if coflow is not None:
        return coflow.arrival_time
    return min(f.arrival_time for f in members)


def column_demand(
    members: Sequence[Flow], cols_of: Mapping[FlowId, List[int]]
) -> Dict[int, float]:
    """Remaining bits per column, member by member along each path."""
    demand: Dict[int, float] = {}
    for flow in members:
        for col in cols_of[flow.flow_id]:
            demand[col] = demand.get(col, 0.0) + flow.remaining
    return demand


def column_bottleneck(
    demand: Mapping[int, float], capacity: Sequence[float]
) -> float:
    """Gamma of a :func:`column_demand`: the group's completion time if it
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
        its :func:`column_demand` and the full capacity per column; the
        same ``demand`` later yields its Gamma on the residual."""

    def allocate(
        self,
        flows: Sequence[Flow],
        capacities: Mapping[LinkId, float],
    ) -> Dict[FlowId, float]:
        cols_of, crossing, capacity = link_columns(flows, capacities)
        keyed = []
        for coflow, members in collect_coflows(flows):
            demand = column_demand(members, cols_of)
            key = self.priority_key(coflow, members, demand, capacity)
            # deterministic tie-break by smallest member flow id
            tie = min(f.flow_id for f in members)
            keyed.append((key, tie, members, demand))
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
