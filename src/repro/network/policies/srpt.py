"""Shortest remaining processing time (the policy PASE approximates).

Flows with smaller remaining size strictly preempt larger ones; equal
remaining sizes are tie-broken by arrival time (the paper's FCFS tie rule)
and, if they also arrived together, share fairly.

Like LAS, the priority key (remaining bits) evolves between events: a
large flow transmitting at full rate can drop below a stalled smaller
flow's remaining size.  :class:`SRPTAllocator` hints the
earliest such remaining-size crossing so the fabric re-allocates exactly
then instead of letting the stale order persist until the next arrival or
completion.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.network.flow import Flow, FlowId
from repro.network.kernels import priority_fill
from repro.network.policies.base import LinkMembershipMixin, RateAllocator
from repro.topology.base import LinkId

#: Two remaining sizes within this many bits count as a tie.
SIZE_TIE_TOLERANCE = 1.0


class SRPTAllocator(LinkMembershipMixin, RateAllocator):
    """Strict smallest-remaining-first priority (SRPT / PASE)."""

    name = "srpt"
    incremental_safe = True

    def _groups(self, flows: Sequence[Flow]) -> List[List[Flow]]:
        # Order by (remaining, arrival, id); merge exact remaining+arrival
        # ties into fair-shared groups.
        ordered = sorted(
            flows, key=lambda f: (f.remaining, f.arrival_time, f.flow_id)
        )
        groups: List[List[Flow]] = []
        for flow in ordered:
            if groups:
                prev = groups[-1][-1]
                if (
                    abs(flow.remaining - prev.remaining) <= SIZE_TIE_TOLERANCE
                    and flow.arrival_time == prev.arrival_time
                ):
                    groups[-1].append(flow)
                    continue
            groups.append([flow])
        return groups

    def allocate(
        self,
        flows: Sequence[Flow],
        capacities: Mapping[LinkId, float],
    ) -> Dict[FlowId, float]:
        return priority_fill(self._groups(flows), capacities)

    # Remaining size shrinks at the flow's rate, so a pair converges when
    # the larger-remaining (upper) flow is transmitting faster.  Crossings
    # within the tie tolerance are not tracked (sub-bit fidelity).  No
    # event storm is possible: once an order swap is applied, the faster
    # flow holds the higher priority, so the pair diverges.
    hint_key = "remaining"
    hint_upper_moves = True
    hint_tolerance = SIZE_TIE_TOLERANCE
