"""The remaining coflow scheduling policies evaluated or analysed in §4.2.

* :class:`SCFAllocator` — smallest (total remaining size) coflow first, the
  TCF/SCF heuristic of §4.2.3 and Figure 7(b).
* :class:`CoflowFCFSAllocator` — arrival order (Baraat-style FIFO).
* :class:`CoflowLASAllocator` — least attained total service (Aalo-style).
* :class:`CoflowFairAllocator` — max-min fair sharing *between* coflows
  with MADD-proportional splitting *within* each coflow.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.coflow.coflow import Coflow
from repro.coflow.policies.base import (
    CoflowAllocator,
    backfill,
    collect_coflows,
    link_columns,
)
from repro.network.flow import Flow, FlowId
from repro.network.policies.base import RATE_EPSILON, RateAllocator
from repro.topology.base import LinkId


class SCFAllocator(CoflowAllocator):
    """Smallest-coflow-first: order by total remaining bytes (TCF in §4.2.3)."""

    name = "scf"

    def priority_key(
        self,
        coflow: Optional[Coflow],
        members: Sequence[Flow],
        demand: Mapping[int, float],
        capacity: Sequence[float],
    ) -> Tuple:
        remaining = sum(f.remaining for f in members)
        arrival = (
            coflow.arrival_time if coflow is not None
            else min(f.arrival_time for f in members)
        )
        return (remaining, arrival)


class CoflowFCFSAllocator(CoflowAllocator):
    """Serve whole coflows in arrival order (Baraat-style FIFO)."""

    name = "coflow-fcfs"

    def priority_key(
        self,
        coflow: Optional[Coflow],
        members: Sequence[Flow],
        demand: Mapping[int, float],
        capacity: Sequence[float],
    ) -> Tuple:
        arrival = (
            coflow.arrival_time if coflow is not None
            else min(f.arrival_time for f in members)
        )
        return (arrival,)


class CoflowLASAllocator(CoflowAllocator):
    """Least-attained-service at coflow granularity (Aalo-style).

    The priority key is the coflow's total attained bytes.  Unlike the
    flow-level LAS allocator we do not schedule attained-service crossing
    events; the approximation error is small because coflow experiments
    have frequent arrival/completion events that force re-allocation.
    """

    name = "coflow-las"

    def priority_key(
        self,
        coflow: Optional[Coflow],
        members: Sequence[Flow],
        demand: Mapping[int, float],
        capacity: Sequence[float],
    ) -> Tuple:
        attained = sum(f.attained for f in members)
        arrival = (
            coflow.arrival_time if coflow is not None
            else min(f.arrival_time for f in members)
        )
        return (attained, arrival)


class CoflowFairAllocator(RateAllocator):
    """Max-min fair sharing between coflows (§4.2.2's Fair model).

    Each coflow is one entity; its progress rate ``R_c`` (total bits/sec
    over all members) is split across members proportionally to their
    remaining sizes (assumption (ii) of §4.2: all flows of a coflow finish
    together).  Link ``l`` then sees load ``R_c * w_{c,l}`` where ``w_{c,l}``
    is the fraction of the coflow's remaining bytes crossing ``l``.
    Progressive filling raises every unfrozen coflow's ``R_c`` uniformly
    until a link saturates.
    """

    name = "coflow-fair"

    #: Coflow-proportional splitting couples flows across disjoint links
    #: (sibling rates move together via R_c), so scoped recomputes are
    #: unsound; the fabric always recomputes globally.
    incremental_safe = False

    def allocate(
        self,
        flows: Sequence[Flow],
        capacities: Mapping[LinkId, float],
    ) -> Dict[FlowId, float]:
        cols_of, crossing, capacity = link_columns(flows, capacities)
        groups = collect_coflows(flows)
        rates: Dict[FlowId, float] = {flow.flow_id: 0.0 for flow in flows}

        # Per-group link weights w_{c,l} = rem_{c,l} / rem_c, by column.
        weights: List[Dict[int, float]] = []
        totals: List[float] = []
        active: Dict[int, Sequence[Flow]] = {}
        for index, (_coflow, members) in enumerate(groups):
            total = sum(f.remaining for f in members)
            w: Dict[int, float] = {}
            if total > 0:
                for flow in members:
                    frac = flow.remaining / total
                    for col in cols_of[flow.flow_id]:
                        w[col] = w.get(col, 0.0) + frac
            weights.append(w)
            totals.append(total)
            if w:
                active[index] = members

        residual = list(capacity)
        while active:
            # Find the link that saturates first as all R_c rise uniformly
            # (ties go to the first link in active-group order).
            load: Dict[int, float] = {}
            for index in active:
                for col, w in weights[index].items():
                    load[col] = load.get(col, 0.0) + w
            bottleneck = -1
            fill = float("inf")
            for col, total_w in load.items():
                if total_w <= RATE_EPSILON:
                    continue
                level = residual[col] / total_w
                if level < fill:
                    fill = level
                    bottleneck = col
            if bottleneck < 0:
                break
            fill = max(fill, 0.0)
            for index in [i for i in active if bottleneck in weights[i]]:
                # Freeze the group's R_c at the fill level.
                for flow in active.pop(index):
                    rates[flow.flow_id] = fill * flow.remaining / totals[index]
                for col, w in weights[index].items():
                    residual[col] = max(0.0, residual[col] - fill * w)
        backfill(cols_of, crossing, residual, rates)
        return rates
