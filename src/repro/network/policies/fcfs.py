"""First-come-first-serve flow scheduling.

Flows are served strictly in arrival order: on every link, the earliest-
arrived flow crossing it transmits at full residual rate; later flows wait
(but backfill links the earlier flows do not use — work conservation).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.network.flow import Flow, FlowId
from repro.network.kernels import priority_fill
from repro.network.policies.base import (
    RateAllocator,
    group_by_key,
)
from repro.topology.base import LinkId


class FCFSAllocator(RateAllocator):
    """Strict arrival-order priority (FCFS)."""

    name = "fcfs"
    incremental_safe = True

    def __init__(self) -> None:
        # Persistent arrival-sorted index, maintained via the fabric hooks
        # (O(log n) insert instead of an O(n log n) re-sort per recompute).
        # Keys are (arrival_time, flow_id): unique, so the Flow member of
        # the tuple is never compared.
        self._order: List[Tuple[float, FlowId, Flow]] = []

    def note_arrival(self, flow: Flow) -> None:
        bisect.insort(self._order, (flow.arrival_time, flow.flow_id, flow))

    def note_removal(self, flow: Flow) -> None:
        # A 2-tuple key sorts immediately before its 3-tuple entry, so the
        # Flow objects themselves are never compared.
        index = bisect.bisect_left(
            self._order, (flow.arrival_time, flow.flow_id)
        )
        if index < len(self._order) and self._order[index][2] is flow:
            self._order.pop(index)

    def _groups(self, flows: Sequence[Flow]) -> List[List[Flow]]:
        if self._order and len(flows) == len(self._order):
            # Full active set (the tracked population): reuse the
            # persistent order.  Grouping matches group_by_key with zero
            # tolerance — adjacent equal arrivals merge.
            groups: List[List[Flow]] = []
            for arrival, _flow_id, flow in self._order:
                if groups and arrival == groups[-1][-1].arrival_time:
                    groups[-1].append(flow)
                else:
                    groups.append([flow])
            return groups
        keys = {flow.flow_id: flow.arrival_time for flow in flows}
        return group_by_key(flows, keys)

    def allocate(
        self,
        flows: Sequence[Flow],
        capacities: Mapping[LinkId, float],
    ) -> Dict[FlowId, float]:
        return priority_fill(self._groups(flows), capacities)
