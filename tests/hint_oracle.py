"""Test-only oracle: ``earliest_adjacent_crossing`` as it stood before
the mover scan (PR 20), verbatim.

``repro.network.policies.base.earliest_adjacent_crossing`` walks only the
flows that transmit and finds each one's neighbour on each of its links;
the hint it returns is claimed to be the same float as this body's, which
sorts every link's members by ``(key, flow_id)`` and tests every adjacent
pair.  ``tests/test_hint_differential.py`` checks that claim with ``==``
(no tolerance).  This body sorts the lists it is handed in place, so the
tests hand it copies.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.network.flow import Flow, FlowId
from repro.network.policies.base import RATE_EPSILON
from repro.network.policies.las import ATTAINED_TIE_TOLERANCE
from repro.network.policies.srpt import SIZE_TIE_TOLERANCE
from repro.topology.base import LinkId

#: policy -> the key, velocity and tolerance its allocator passed at the
#: parent commit.
POLICIES = {
    "srpt": dict(
        key=lambda f: f.remaining,
        velocity=lambda rate: -rate,
        tolerance=SIZE_TIE_TOLERANCE,
    ),
    "las": dict(
        key=lambda f: f.attained,
        velocity=lambda rate: rate,
        tolerance=ATTAINED_TIE_TOLERANCE,
    ),
}


def earliest_adjacent_crossing(
    flows: Sequence[Flow],
    rates: Mapping[FlowId, float],
    *,
    key: Callable[[Flow], float],
    velocity: Callable[[float], float],
    tolerance: float,
    members_on: Optional[Callable[[LinkId], Optional[List[Flow]]]] = None,
) -> Optional[float]:
    """Earliest time two flows sharing a link swap priority-key order.

    For linear trajectories the first crossing is always between flows
    adjacent in key order on some shared link, so per link we sort by
    ``key`` and check adjacent pairs.  ``velocity(rate)`` maps a flow's
    rate to its key's time derivative (``+rate`` for attained service,
    ``-rate`` for remaining size); a pair converges when the lower-keyed
    flow's key grows toward the upper's.  Pairs within ``tolerance`` are
    already one priority group and are skipped.

    ``members_on`` supplies persistent per-link member lists (see
    :class:`LinkMembershipMixin`); they are sorted in place, which keeps
    repeat calls nearly linear.  Without it an ephemeral map is built from
    ``flows``.
    """
    link_ids: List[LinkId] = []
    seen: set = set()
    for flow in flows:
        for link_id in flow.path:
            if link_id not in seen:
                seen.add(link_id)
                link_ids.append(link_id)

    lists: Dict[LinkId, List[Flow]] = {}
    missing: set = set()
    for link_id in link_ids:
        members = members_on(link_id) if members_on is not None else None
        if members is None:
            missing.add(link_id)
            lists[link_id] = []
        else:
            lists[link_id] = members
    if missing:
        for flow in flows:
            for link_id in flow.path:
                if link_id in missing:
                    lists[link_id].append(flow)

    best: Optional[float] = None
    for link_id in link_ids:
        members = lists[link_id]
        if len(members) < 2:
            continue
        members.sort(key=lambda f: (key(f), f.flow_id))
        for lower, upper in zip(members, members[1:]):
            gap = key(upper) - key(lower)
            if gap <= tolerance:
                continue  # already one priority group
            closing = velocity(rates.get(lower.flow_id, 0.0)) - velocity(
                rates.get(upper.flow_id, 0.0)
            )
            if closing <= RATE_EPSILON:
                continue  # not converging
            dt = gap / closing
            if best is None or dt < best:
                best = dt
    return best
