"""Test-only oracle: the coflow CCT query as it stood before the fabric
grouped a link's flows by coflow and the permutation predictor made one
pass over them, verbatim.

``NetworkDaemon.predict_coflow`` now reads the link through
``NetworkFabric.coflows_on_link``, takes the node state from
``NetworkFabric.host_coflow_state`` and scores a permutation predictor
(TCF / Varys / SEBF / FIFO) from one pass over the link's coflows.  Every
reply, and the state each query leaves the fabric's flows in, is claimed
to be what these bodies produce: ``tests/test_coflow_query_differential.py``
checks that claim with ``==`` (no tolerance).  The bodies below are the
parent's ``coflow_link_state``, ``NetworkDaemon.coflow_node_state`` and
``predict_coflow``, ``NetworkFabric._synced`` and ``flows_on_link`` /
``flows_at_host`` (over the fabric's unchanged ``_sync_flow``),
``Coflow.remaining_total`` and ``PermutationPredictor.cct`` /
``delta_sum``, with ``self.`` calls into them turned into calls of this
module, so no arithmetic here runs through the code under test.  Nothing
under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, List

from repro.daemons.messages import PredictionReply
from repro.errors import DaemonError
from repro.predictor.coflow_cct import PermutationPredictor
from repro.predictor.state import CoflowLinkState, CoflowOnLink, unchecked


def _synced(fabric, members) -> list:
    now = fabric._engine.now
    for flow in members.values():
        fabric._sync_flow(flow, now)
    return list(members.values())


def flows_on_link(fabric, link_id) -> list:
    """Active flows whose path crosses ``link_id`` (progress synced)."""
    return _synced(fabric, fabric._by_link.get(link_id, {}))


def flows_at_host(fabric, host) -> list:
    """Active flows sourced at or destined to ``host``."""
    return _synced(fabric, fabric._by_host.get(host, {}))


def remaining_total(coflow) -> float:
    """Bits still to transfer across all constituent flows."""
    return sum(f.remaining for f in coflow.flows)


def coflow_link_state(fabric, link_id) -> CoflowLinkState:
    """Exact coflow-level snapshot of one link.

    Flows of the same coflow are aggregated into one
    :class:`CoflowOnLink` (residual total + residual on-link bytes); bare
    flows become singleton coflows.
    """
    link = fabric.topology.link(link_id)
    groups: Dict[object, List[float]] = {}
    # flows_on_link syncs before the loop, so a coflow's residual total is
    # the same at each of its flows: sum it (O(flows in coflow)) once.
    for flow in flows_on_link(fabric, link_id):
        unit = flow.coflow or flow  # a bare flow is its own coflow
        entry = groups.get(unit)
        if entry is None:
            total = (
                flow.remaining
                if unit is flow
                else max(remaining_total(unit), 1e-9)
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


def coflow_node_state(self) -> float:
    """Node state at coflow granularity: the smallest residual *total*
    size among coflows touching this node (bare flows count as
    singleton coflows).  Used by the preferred-host filter when the
    scheduling unit is the coflow."""
    # flows_at_host syncs first, so a coflow's total is the same at each
    # of its flows: sum it (O(flows in coflow)) once per coflow.
    totals = {}
    for flow in flows_at_host(self._fabric, self._host):
        unit = flow.coflow or flow  # a bare flow is its own coflow
        if unit not in totals:
            totals[unit] = (
                flow.remaining if unit is flow else remaining_total(unit)
            )
    return min(totals.values(), default=float("inf"))


def permutation_cct(
    key, new_total: float, new_on_link: float, link: CoflowLinkState
) -> float:
    # Equation (14): bytes of every coflow at or ahead of c0's rank.
    new_key = key(new_total, new_on_link, float("inf"))
    ahead = sum(
        c.size_on_link
        for c in link.coflows
        if key(c.total_size, c.size_on_link, c.arrival_time)
        <= new_key
    )
    return (new_on_link + ahead) / link.capacity


def permutation_delta_sum(
    key, new_total: float, new_on_link: float, link: CoflowLinkState
) -> float:
    # Equation (15) summed: each lower-priority coflow waits for the
    # new coflow's on-link bytes.
    new_key = key(new_total, new_on_link, float("inf"))
    behind = sum(
        1
        for c in link.coflows
        if key(c.total_size, c.size_on_link, c.arrival_time)
        > new_key
    )
    return new_on_link * behind / link.capacity


def link_objective(
    predictor, new_total: float, new_on_link: float, link: CoflowLinkState
) -> float:
    """Per-link term of objective (2): CCT(c0,l) + Σ ΔCCT(c,l).  The fair
    and FCFS predictors are unchanged code and answer for themselves."""
    if isinstance(predictor, PermutationPredictor):
        return permutation_cct(
            predictor._key, new_total, new_on_link, link
        ) + permutation_delta_sum(predictor._key, new_total, new_on_link, link)
    return predictor.link_objective(new_total, new_on_link, link)


def predict_coflow(
    self, total_size: float, size_on_link: float, direction: str = "in"
) -> PredictionReply:
    """Predicted CCT contribution of this node's edge link (``self``: the
    :class:`NetworkDaemon` asked)."""
    if self._coflow_predictor is None:
        raise DaemonError(
            f"daemon at {self._host!r} has no coflow predictor"
        )
    link = self._downlink if direction == "in" else self._uplink
    state = coflow_link_state(self._fabric, link.link_id)
    predicted = link_objective(
        self._coflow_predictor, total_size, size_on_link, state
    )
    return PredictionReply(
        self._host, predicted, coflow_node_state(self)
    )
