"""Builders turning live fabric state into predictor snapshots.

Network daemons, omniscient baselines (minFCT), path-aware NEAT, and the
joint coflow placer all need the same two conversions:

* the residual flow sizes on a link -> :class:`LinkState`;
* the coflows crossing a link (grouped, with totals) -> :class:`CoflowLinkState`.

Centralising them keeps the snapshots identical everywhere; the grouping
rule itself (bare flows count as singleton coflows; totals are residual)
is the fabric's, behind :meth:`NetworkFabric.coflow_edge_states`.
"""

from __future__ import annotations

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
        (fabric.residual(f) for f in fabric.flows_on_link(link_id)),
    )


def coflow_link_state(fabric: NetworkFabric, link_id: LinkId) -> CoflowLinkState:
    """Exact coflow-level snapshot of one link: the link-only read of
    :meth:`NetworkFabric.coflow_edge_states` (residual total + residual
    on-link bytes per coflow; bare flows become singleton coflows)."""
    ((coflows, _),) = fabric.coflow_edge_states([(None, link_id)])
    # total > 0 and 0 < on-link <= total hold by construction here.
    return CoflowLinkState(
        link_id=link_id,
        capacity=fabric.topology.link(link_id).capacity,
        coflows=tuple([
            unchecked(
                CoflowOnLink,
                total_size=total,
                size_on_link=on_link,
                arrival_time=arrival,
            )
            for total, on_link, arrival in coflows
        ]),
    )
