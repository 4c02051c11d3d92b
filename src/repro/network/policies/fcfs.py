"""First-come-first-serve flow scheduling.

Flows are served strictly in arrival order: on every link, the earliest-
arrived flow crossing it transmits at full residual rate; later flows wait
(but backfill links the earlier flows do not use — work conservation).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.network.flow import Flow
from repro.network.kernels import GroupFill
from repro.network.policies.base import group_by_key


class FCFSAllocator(GroupFill):
    """Strict arrival-order priority (FCFS): equal arrivals share fairly."""

    name = "fcfs"
    incremental_safe = True

    def _groups(self, flows: Sequence[Flow]) -> List[List[Flow]]:
        keys = {flow.flow_id: flow.arrival_time for flow in flows}
        return group_by_key(flows, keys)
