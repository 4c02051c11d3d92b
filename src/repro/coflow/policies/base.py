"""Coflow scheduling machinery shared by the concrete policies.

All priority-based coflow schedulers here follow the Varys structure:

1. order coflows by a policy-specific key (SEBF, total size, arrival, ...);
2. allocate each coflow in order with **MADD** (minimum allocation for
   desired duration [Varys, SIGCOMM'14]): every constituent flow gets rate
   ``remaining_f / Gamma`` where ``Gamma`` is the coflow's bottleneck
   completion time on the *residual* capacities, so all flows would finish
   together without wasting bandwidth;
3. **backfill** leftover capacity max-min fairly across all unfinished
   flows (work conservation).

Flows not attached to any coflow are treated as singleton coflows, so mixed
flow/coflow traffic is handled uniformly.

``allocate`` interns its links once as int columns (:func:`link_columns`);
every float is the same expression on the same operands in the same order
as in the LinkId-keyed bodies kept in ``tests/coflow_oracle.py``.
"""

from __future__ import annotations

from abc import abstractmethod
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.coflow.coflow import Coflow
from repro.network.flow import Flow, FlowId
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


def link_columns(
    flows: Sequence[Flow], capacities: Mapping[LinkId, float]
) -> Tuple[Dict[FlowId, List[int]], List[List[FlowId]], List[float]]:
    """One ``allocate`` call's links as int columns in first-seen order:
    ``(cols_of, crossing, capacity)``, i.e. each flow's path as columns (a
    link listed twice appears twice), the ids of the flows crossing each
    column in flow order, and each column's capacity (0.0 when not in the
    map).  Read from ``flow.path`` each call, so a reroute takes effect.
    """
    col_of: Dict[LinkId, int] = {}
    cols_of: Dict[FlowId, List[int]] = {}
    crossing: List[List[FlowId]] = []
    capacity: List[float] = []
    for flow in flows:
        flow_id = flow.flow_id
        cols = cols_of[flow_id] = []
        for link_id in flow.path:
            col = col_of.get(link_id)
            if col is None:
                col = col_of[link_id] = len(capacity)
                capacity.append(capacities.get(link_id, 0.0))
                crossing.append([])
            cols.append(col)
            crossing[col].append(flow_id)
    return cols_of, crossing, capacity


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


def backfill(
    cols_of: Mapping[FlowId, List[int]],
    crossing: Sequence[List[FlowId]],
    residual: List[float],
    rates: Dict[FlowId, float],
) -> None:
    """Add the max-min fair share of ``residual`` to ``rates``, round for
    round with ``water_fill`` over the call's flows.

    Equal shares are cached per column and refreshed where a freeze drains;
    the rounds at share exactly 0.0 (which drain nothing) collapse into one
    sweep when DESIGN.md's "Coflow allocation pass" precondition holds.
    """
    count = [len(members) for members in crossing]
    share = [residual[col] / n for col, n in enumerate(count)]
    unfrozen = {flow_id for flow_id, cols in cols_of.items() if cols}
    while unfrozen:
        # The epsilon chain: first-seen order, moving only on an improvement
        # of more than RATE_EPSILON (a column with no unfrozen flow is inf).
        bottleneck, bound = -1, _INF
        for col, level in enumerate(share):
            if level < bound:
                bottleneck, bound = col, level - RATE_EPSILON
        if bottleneck < 0:
            break
        level = max(share[bottleneck], 0.0)
        frozen_cols = [bottleneck]
        if level == 0.0:
            # Every share exactly 0.0 (no residual) or above the epsilon:
            # the chain keeps ending on a 0.0 column while one has flows.
            zeros = [col for col, s in enumerate(share) if s <= RATE_EPSILON]
            if all(residual[col] == 0.0 for col in zeros):
                frozen_cols = zeros
        drained: Dict[int, int] = {}
        for col in frozen_cols:
            for flow_id in crossing[col]:
                if flow_id in unfrozen:
                    unfrozen.remove(flow_id)
                    if level > RATE_EPSILON:
                        rates[flow_id] += level
                    for other in cols_of[flow_id]:
                        drained[other] = drained.get(other, 0) + 1
        for col, k in drained.items():
            left = residual[col] - level * k
            residual[col] = left = left if left > 0.0 else 0.0
            count[col] = n = count[col] - k
            share[col] = left / n if n > 0 else _INF


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
