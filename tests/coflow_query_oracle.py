"""Test-only oracle: the coflow CCT query as it stood before a coflow
decision became one query round, host by host, over residuals read
without a write.

``NetworkDaemon.answer_round`` now answers a coflow round from one
``NetworkFabric.coflow_edge_states`` read (per host the edge link's flows
grouped by coflow, and the host's for the node state, every flow at its
residual now) and one ``CoflowCCTPredictor.predict_link_objective`` per
host over raw ``(total, on_link, arrival)`` triples; ``predict_coflow`` is
a round of one.  Every reply is claimed to be what these bodies produce,
and no query moves any flow's progress:
``tests/test_coflow_query_differential.py`` checks both with ``==``
(no tolerance).  The bodies below are the per-host chain's
``coflow_link_state``, ``NetworkDaemon.coflow_node_state`` and
``predict_coflow``, a flow's residual as ``Flow.advance`` would store
it, the deleted ``Coflow.remaining_total`` over residuals,
``PermutationPredictor.cct`` / ``delta_sum``, ``CoflowFairPredictor.cct``
/ ``delta_sum`` and ``CoflowFCFSPredictor.cct``, with ``self.`` calls into them turned into
calls of this module, so no predictor or grouping arithmetic here runs
through the code under test (a custom predictor answers for itself).
Float sums are left folds from ``sum``'s 0: the same bits as the
original ``sum`` on CPython 3.11, and on 3.12, whose float ``sum`` is
compensated, the same bits as the code under test, which folds left too.
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, List

from repro.daemons.messages import PredictionReply
from repro.errors import DaemonError
from repro.network.policies.base import RATE_EPSILON
from repro.predictor.coflow_cct import (
    CoflowFairPredictor,
    CoflowFCFSPredictor,
    PermutationPredictor,
)
from repro.predictor.state import CoflowLinkState, CoflowOnLink, unchecked


def residual(fabric, flow) -> float:
    """``flow.remaining`` once a sync brought it to now: ``Flow.advance``
    by the bits its cached rate moved since its last sync (none for a flow
    no longer active), stored nowhere."""
    remaining = flow.remaining
    synced = fabric._synced_at.get(flow.flow_id)
    if synced is not None and fabric.engine.now - synced > 0:
        rate = fabric._rates.get(flow.flow_id, 0.0)
        if rate > RATE_EPSILON:
            remaining -= min(rate * (fabric.engine.now - synced), remaining)
    return remaining


def flows_on_link(fabric, link_id) -> list:
    """Active flows whose path crosses ``link_id``."""
    return list(fabric._by_link.get(link_id, {}).values())


def flows_at_host(fabric, host) -> list:
    """Active flows sourced at or destined to ``host``."""
    return list(fabric._by_host.get(host, {}).values())


def remaining_total(fabric, coflow) -> float:
    """Residual bits across all constituent flows."""
    total = 0
    for f in coflow.flows:
        total += residual(fabric, f)
    return total


def coflow_link_state(fabric, link_id) -> CoflowLinkState:
    """Exact coflow-level snapshot of one link.

    Flows of the same coflow are aggregated into one
    :class:`CoflowOnLink` (residual total + residual on-link bytes); bare
    flows become singleton coflows.
    """
    link = fabric.topology.link(link_id)
    groups: Dict[object, List[float]] = {}
    # A coflow's residual total is the same at each of its flows: sum it
    # (O(flows in coflow)) once.
    for flow in flows_on_link(fabric, link_id):
        unit = flow.coflow or flow  # a bare flow is its own coflow
        entry = groups.get(unit)
        if entry is None:
            total = (
                residual(fabric, flow)
                if unit is flow
                else max(remaining_total(fabric, unit), 1e-9)
            )
            entry = groups[unit] = [total, 0.0, unit.arrival_time]
        entry[1] += residual(fabric, flow)
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
    # A coflow's total is the same at each of its flows: sum it
    # (O(flows in coflow)) once per coflow.
    fabric = self._fabric
    totals = {}
    for flow in flows_at_host(fabric, self._host):
        unit = flow.coflow or flow  # a bare flow is its own coflow
        if unit not in totals:
            totals[unit] = (
                residual(fabric, flow)
                if unit is flow
                else remaining_total(fabric, unit)
            )
    return min(totals.values(), default=float("inf"))


def permutation_cct(
    key, new_total: float, new_on_link: float, link: CoflowLinkState
) -> float:
    # Equation (14): bytes of every coflow at or ahead of c0's rank.
    new_key = key(new_total, new_on_link, float("inf"))
    ahead = 0
    for c in link.coflows:
        if key(c.total_size, c.size_on_link, c.arrival_time) <= new_key:
            ahead += c.size_on_link
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


def fair_terms(new_total: float, new_on_link: float, link: CoflowLinkState):
    """``(cct, delta_sum)`` of ``CoflowFairPredictor`` (and LAS)."""
    load = new_on_link
    for c in link.coflows:
        if c.total_size <= new_total:
            load += c.size_on_link
        else:
            load += new_total * c.size_on_link / c.total_size
    total = 0.0
    for c in link.coflows:
        total += min(c.total_size, new_total)
    return load / link.capacity, (new_on_link / new_total) * total / link.capacity


def fcfs_cct(new_on_link: float, link: CoflowLinkState) -> float:
    """``CoflowFCFSPredictor.cct``; its ``delta_sum`` is 0.0."""
    queued = 0
    for c in link.coflows:
        queued += c.size_on_link
    return (new_on_link + queued) / link.capacity


def link_objective(
    predictor, new_total: float, new_on_link: float, link: CoflowLinkState
) -> float:
    """Per-link term of objective (2): CCT(c0,l) + Σ ΔCCT(c,l).  A
    predictor of none of the built-in families answers for itself."""
    if isinstance(predictor, PermutationPredictor):
        return permutation_cct(
            predictor._key, new_total, new_on_link, link
        ) + permutation_delta_sum(predictor._key, new_total, new_on_link, link)
    if isinstance(predictor, CoflowFairPredictor):
        cct, delta = fair_terms(new_total, new_on_link, link)
        return cct + delta
    if isinstance(predictor, CoflowFCFSPredictor):
        return fcfs_cct(new_on_link, link) + 0.0
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
