"""Fair sharing (the policy DCTCP approximates).

Every active flow gets its max-min fair share of the network: progressive
filling over all links.  This is the paper's model of the default transport
in commercial datacenters.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.network.flow import Flow, FlowId
from repro.network.kernels import priority_fill
from repro.network.policies.base import RateAllocator
from repro.topology.base import LinkId


class FairAllocator(RateAllocator):
    """Max-min fair sharing across all flows (DCTCP / Fair)."""

    name = "fair"
    incremental_safe = True

    def _groups(self, flows: Sequence[Flow]) -> List[List[Flow]]:
        # Canonical flow-id order makes the allocation invariant to the
        # caller's input permutation: water-fill's epsilon tie-break on
        # near-equal bottleneck shares is otherwise input-order sensitive.
        return [sorted(flows, key=lambda f: f.flow_id)]

    def allocate(
        self,
        flows: Sequence[Flow],
        capacities: Mapping[LinkId, float],
    ) -> Dict[FlowId, float]:
        return priority_fill(self._groups(flows), capacities)
