"""Fair sharing (the policy DCTCP approximates).

Every active flow gets its max-min fair share of the network: progressive
filling over all links.  This is the paper's model of the default transport
in commercial datacenters.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.network.flow import Flow
from repro.network.kernels import GroupFill


class FairAllocator(GroupFill):
    """Max-min fair sharing across all flows (DCTCP / Fair)."""

    name = "fair"
    incremental_safe = True
    one_max_min_group = True

    def _groups(self, flows: Sequence[Flow]) -> List[List[Flow]]:
        # Canonical flow-id order makes the allocation invariant to the
        # caller's input permutation: water-fill's epsilon tie-break on
        # near-equal bottleneck shares is otherwise input-order sensitive.
        return [sorted(flows, key=lambda f: f.flow_id)]
