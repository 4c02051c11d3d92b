"""Builders turning live fabric state into predictor snapshots.

Network daemons, omniscient baselines (minFCT), path-aware NEAT, and the
joint coflow placer all need the same two conversions:

* the residual flow sizes on a link -> :class:`LinkState`;
* the coflows crossing a link (grouped, with totals) -> :class:`CoflowLinkState`.

Centralising them keeps the grouping rules (bare flows count as singleton
coflows; totals are residual) identical everywhere.
"""

from __future__ import annotations

from typing import Dict, List

from repro.network.fabric import NetworkFabric
from repro.predictor.state import (
    CoflowLinkState,
    CoflowOnLink,
    LinkState,
    link_state_from_flows,
    unchecked,
)
from repro.topology.base import LinkId


def flow_link_state(fabric: NetworkFabric, link_id: LinkId) -> LinkState:
    """Exact flow-level snapshot of one link (residual sizes)."""
    link = fabric.topology.link(link_id)
    return link_state_from_flows(
        link_id,
        link.capacity,
        (f.remaining for f in fabric.flows_on_link(link_id)),
    )


def coflow_link_state(fabric: NetworkFabric, link_id: LinkId) -> CoflowLinkState:
    """Exact coflow-level snapshot of one link.

    Flows of the same coflow are aggregated into one
    :class:`CoflowOnLink` (residual total + residual on-link bytes); bare
    flows become singleton coflows.
    """
    link = fabric.topology.link(link_id)
    groups: Dict[object, List[float]] = {}
    # flows_on_link syncs before the loop, so a coflow's residual total is
    # the same at each of its flows: sum it (O(flows in coflow)) once.
    for flow in fabric.flows_on_link(link_id):
        unit = flow.coflow or flow  # a bare flow is its own coflow
        entry = groups.get(unit)
        if entry is None:
            total = (
                flow.remaining
                if unit is flow
                else max(unit.remaining_total, 1e-9)
            )
            entry = groups[unit] = [total, 0.0, unit.arrival_time]
        entry[1] += flow.remaining
    # total > 0 and 0 < on-link <= total hold by construction here.
    return CoflowLinkState(
        link_id=link_id,
        capacity=link.capacity,
        coflows=tuple(
            unchecked(
                CoflowOnLink,
                total_size=total,
                size_on_link=min(on_link, total),
                arrival_time=arrival,
            )
            for total, on_link, arrival in groups.values()
            if on_link > 0
        ),
    )
