"""Varys: smallest-effective-bottleneck-first (SEBF) coflow scheduling.

Varys [Chowdhury, Zhong & Stoica, SIGCOMM'14] orders coflows by their
*effective bottleneck* — the completion time the coflow would achieve given
the full link capacities — and allocates rates with MADD so a coflow's
flows finish together.  SEBF generalises SRPT to coflows while accounting
for how a coflow's bytes are spread over links.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple

from repro.coflow.coflow import Coflow
from repro.coflow.policies.base import CoflowAllocator, column_bottleneck
from repro.network.flow import Flow


class VarysAllocator(CoflowAllocator):
    """SEBF ordering + MADD rates + backfill (the full Varys heuristic)."""

    name = "varys"

    def priority_key(
        self,
        coflow: Optional[Coflow],
        members: Sequence[Flow],
        demand: Mapping[int, float],
        capacity: Sequence[float],
    ) -> Tuple:
        # Effective bottleneck on *full* capacities (not residual): this is
        # the coflow's intrinsic length, independent of current contention.
        gamma = column_bottleneck(demand, capacity)
        arrival = (
            coflow.arrival_time if coflow is not None
            else min(f.arrival_time for f in members)
        )
        return (gamma, arrival)
