"""Rate-allocator interface and shared water-filling machinery.

A :class:`RateAllocator` captures a network scheduling policy in the fluid
model: given the set of active flows and per-link capacities, it assigns
each flow an instantaneous rate.  The fabric re-invokes the allocator at
every arrival/completion (and at allocator-requested change points, e.g.
LAS attained-service crossings), so rates are piecewise constant.

All allocators here are work-conserving: no link is left idle while a flow
crossing it still has demand, matching the paper's §4.1 assumption.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from operator import attrgetter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.network.flow import Flow, FlowId
from repro.topology.base import LinkId

#: Rates below this (bits/sec) are treated as zero to avoid float dust.
RATE_EPSILON = 1e-9


class RateAllocator(ABC):
    """A network scheduling policy, expressed as instantaneous rates."""

    #: Short policy name, e.g. ``"fair"``; used by registries and reports.
    name: str = "abstract"

    #: Whether the fabric may allocate each connected component of the
    #: flow-link sharing graph on its own.  True for every policy that
    #: couples flows only through shared-link capacities (fair, fcfs, las,
    #: srpt); False for coflow policies, where MADD spreads one coflow's
    #: progress across flows on *disjoint* links: they always get the full
    #: active set.  LAS and SRPT merge *adjacent* keys within 1 bit into
    #: one group, so near-tie groups are formed per sharing component
    #: (keys 0 / 0.6 / 1.2 chain into one group over the full set, not in
    #: a component holding the outer two); the fabric's answer is the
    #: model's definition (DESIGN.md §5.1).
    incremental_safe: bool = False

    #: Whether every allocation is one max-min group (fair): the fabric then
    #: re-fills only an event's binding closure (DESIGN.md §5.1).
    one_max_min_group: bool = False

    @abstractmethod
    def allocate(
        self,
        flows: Sequence[Flow],
        capacities: Mapping[LinkId, float],
    ) -> Dict[FlowId, float]:
        """Return a rate (bits/sec) for every flow in ``flows``.

        Flows with an empty path (host-local transfers) should not be passed
        in; the fabric completes them immediately.  Must be side-effect free
        with respect to the flows and any allocator state: a test-side
        oracle replays allocations over the full active set out of band.
        """

    def next_change_hint(
        self,
        flows: Sequence[Flow],
        rates: Mapping[FlowId, float],
    ) -> Optional[float]:
        """Seconds until the allocation would change *absent any arrival or
        completion*, or ``None`` if it would not.

        Most policies' priority order is stable between events; LAS and
        SRPT override this to report attained-service / remaining-size
        crossings.
        """
        return None


class CrossingHint:
    """Change-point hints for policies whose priority key moves between
    events.

    A policy (LAS, SRPT) names its key as ``hint_key`` /
    ``hint_upper_moves`` / ``hint_tolerance``, the arguments of
    :func:`earliest_adjacent_crossing`.
    """

    hint_key: str
    hint_upper_moves: bool
    hint_tolerance: float

    def next_change_hint(
        self, flows: Sequence[Flow], rates: Mapping[FlowId, float]
    ) -> Optional[float]:
        """Earliest time two flows sharing a link swap key order."""
        return earliest_adjacent_crossing(
            flows,
            rates,
            key=self.hint_key,
            upper_moves=self.hint_upper_moves,
            tolerance=self.hint_tolerance,
        )


def earliest_adjacent_crossing(
    flows: Sequence[Flow],
    rates: Mapping[FlowId, float],
    *,
    key: str,
    upper_moves: bool,
    tolerance: float,
) -> Optional[float]:
    """Earliest time two flows sharing a link swap priority-key order.

    For linear trajectories the first crossing is always between flows
    adjacent in ``(key, flow_id)`` order on some shared link.  ``key``
    names the flow attribute that orders them; a pair converges only
    while its *mover* transmits: the upper flow when the key shrinks at
    the flow's rate (``upper_moves``, remaining size), the lower one
    when it grows (attained service), since
    ``closing = mover's rate - neighbour's rate <= mover's rate``.
    Pairs within ``tolerance`` are already one priority group and are
    skipped.

    One sorted sweep: ``flows`` in ``(key, flow_id)`` order, ascending
    when the upper flow moves and descending otherwise, so the flow
    last seen on a link is each mover's neighbour there on the side it
    moves toward.  ``flows`` must be a whole sharing component: every
    flow on a link of theirs is one of them (DESIGN.md §5.1).
    """
    rate_of = rates.get
    last: Dict[LinkId, Tuple[float, float]] = {}  # link -> (key, rate)
    best: Optional[float] = None
    for flow in sorted(
        flows, key=attrgetter(key, "flow_id"), reverse=not upper_moves
    ):
        flow_key = getattr(flow, key)
        rate = rate_of(flow.flow_id, 0.0)
        path = flow.path
        if rate > RATE_EPSILON:  # closing <= rate: else converges on nobody
            for link_id in path:
                near = last.get(link_id)
                if near is None:
                    continue
                near_key, near_rate = near
                gap = flow_key - near_key if upper_moves else near_key - flow_key
                if gap <= tolerance:
                    continue  # already one priority group
                closing = rate - near_rate
                if closing <= RATE_EPSILON:
                    continue  # not converging
                dt = gap / closing
                if best is None or dt < best:
                    best = dt
        # After the checks: a link listed twice never pairs a flow with itself.
        entry = (flow_key, rate)
        for link_id in path:
            last[link_id] = entry
    return best


def water_fill(
    flows: Sequence[Flow],
    residual: Dict[LinkId, float],
    rates: Dict[FlowId, float],
) -> None:
    """Max-min fair (progressive-filling) allocation of ``flows`` onto
    ``residual`` capacities.

    Mutates ``residual`` (consumed capacity is subtracted) and ``rates``
    (one entry per flow).  Flows crossing a saturated link get rate 0.

    This single routine implements Fair sharing directly and serves as the
    per-priority-group allocator for FCFS/LAS/SRPT (the paper's rule that
    equal-priority flows share fairly).
    """
    # Flows with no usable link (shouldn't happen for routed flows) get 0.
    active: Dict[FlowId, Flow] = {}
    for flow in flows:
        rates[flow.flow_id] = 0.0
        if flow.path:
            active[flow.flow_id] = flow

    # Membership: link -> count of unfrozen flows crossing it.
    members: Dict[LinkId, int] = {}
    for flow in active.values():
        for link_id in flow.path:
            members[link_id] = members.get(link_id, 0) + 1

    while active:
        # The next bottleneck is the link with the smallest equal share.
        bottleneck: Optional[LinkId] = None
        bottleneck_share = float("inf")
        for link_id, count in members.items():
            if count <= 0:
                continue
            share = residual.get(link_id, 0.0) / count
            if share < bottleneck_share - RATE_EPSILON or (
                bottleneck is None and share < bottleneck_share
            ):
                bottleneck_share = share
                bottleneck = link_id
        if bottleneck is None:
            break
        bottleneck_share = max(bottleneck_share, 0.0)

        # Freeze every unfrozen flow crossing the bottleneck at that share.
        # Each touched link is drained in ONE clamped expression
        # (share * frozen-member-count) rather than one subtraction per
        # frozen flow: repeated float subtraction is order-dependent,
        # and the single-multiply form is what makes the column fill
        # (repro.network.kernels.backfill) bit-identical to this reference.
        frozen: List[Flow] = [
            flow for flow in active.values() if bottleneck in flow.path
        ]
        freeze_counts: Dict[LinkId, int] = {}
        for flow in frozen:
            rates[flow.flow_id] = bottleneck_share
            del active[flow.flow_id]
            for link_id in flow.path:
                freeze_counts[link_id] = freeze_counts.get(link_id, 0) + 1
        for link_id, count in freeze_counts.items():
            members[link_id] -= count
            residual[link_id] = max(
                0.0, residual.get(link_id, 0.0) - bottleneck_share * count
            )
        members.pop(bottleneck, None)


def group_by_key(
    flows: Sequence[Flow],
    key_values: Mapping[FlowId, float],
    *,
    tolerance: float = 0.0,
) -> List[List[Flow]]:
    """Sort flows by a priority key (ascending) and merge ties into groups.

    Two adjacent flows belong to the same group when their keys differ by at
    most ``tolerance`` (absolute).  Deterministic: ties inside a group keep
    flow-id order.
    """
    ordered = sorted(flows, key=lambda f: (key_values[f.flow_id], f.flow_id))
    groups: List[List[Flow]] = []
    for flow in ordered:
        if (
            groups
            and key_values[flow.flow_id] - key_values[groups[-1][-1].flow_id]
            <= tolerance
        ):
            groups[-1].append(flow)
        else:
            groups.append([flow])
    return groups
