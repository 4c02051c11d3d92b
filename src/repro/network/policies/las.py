"""Least attained service (the policy L2DCT approximates).

Flows that have transferred the fewest bits get strict priority; ties share
fairly.  In the fluid model this is foreground-background (FB) scheduling:
a newly arrived flow runs alone until its attained service catches up with
the next-lowest attained flow, after which they progress together.

Because the priority key (attained bits) evolves *between* events, LAS is
a policy whose allocation can change with no arrival or completion.
:class:`LASAllocator` hints the earliest attained-service
crossing so the fabric can re-allocate exactly then.
"""

from __future__ import annotations

from typing import Sequence

from repro.network.flow import Flow
from repro.network.kernels import GroupFill
from repro.network.policies.base import CrossingHint, group_by_key

#: Attained-service values within this many bits are one priority group.
ATTAINED_TIE_TOLERANCE = 1.0


class LASAllocator(CrossingHint, GroupFill):
    """Strict least-attained-service priority (LAS / L2DCT)."""

    name = "las"
    incremental_safe = True

    def _groups(self, flows: Sequence[Flow]):
        keys = {flow.flow_id: flow.attained for flow in flows}
        return group_by_key(flows, keys, tolerance=ATTAINED_TIE_TOLERANCE)

    # Attained service grows at the flow's rate, so a pair converges when
    # the lower-attained flow is transmitting faster.
    hint_key = "attained"
    hint_upper_moves = False
    hint_tolerance = ATTAINED_TIE_TOLERANCE
