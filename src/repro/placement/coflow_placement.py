"""Coflow placement heuristics (§5.1.2 and the Fig. 7 baselines).

NEAT places a coflow's flows *sequentially in descending size order*, each
through the ordinary flow placement algorithm against the updated network
state: larger flows are likelier to be critical, so they get first pick of
lightly loaded destinations.  The Fig. 7 baselines are adapted the same way
the paper describes: minLoad places each flow (largest first) on the
least-loaded node; minDist keeps a coflow's flows in one rack near the
input data.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import itertools

from repro.coflow.coflow import Coflow
from repro.coflow.tracking import CoflowTracker
from repro.errors import PlacementError
from repro.placement.base import PlacementPolicy, PlacementRequest
from repro.predictor.coflow_cct import CoflowCCTPredictor
from repro.topology.base import NodeId

Transfer = Tuple[NodeId, float]  # (data node, size in bits)


def place_coflow_sequential(
    policy: PlacementPolicy,
    tracker: CoflowTracker,
    transfers: Sequence[Transfer],
    candidates: Sequence[NodeId],
    *,
    tag: str = "",
    distinct_hosts: bool = False,
) -> Coflow:
    """NEAT's sequential heuristic: place largest flow first (§5.1.2).

    Each flow is submitted immediately after it is placed, so the next
    placement sees the updated network state.

    Args:
        policy: any placement policy (NEAT or a baseline).
        tracker: coflow lifecycle tracker (owns the fabric).
        transfers: the coflow's ``(data_node, size)`` pairs.
        candidates: eligible destination hosts.
        tag: label for the coflow and its flows.
        distinct_hosts: place each flow on a different host (e.g. one
            reducer per destination), as long as candidates remain.
    """
    if not transfers:
        raise PlacementError("coflow needs at least one transfer")
    coflow = tracker.new_coflow(tag=tag)
    remaining_candidates: List[NodeId] = list(candidates)
    ordered = sorted(transfers, key=lambda t: (-t[1], t[0]))
    coflow_total = 0  # a left fold: the same bits on every CPython
    for _node, size in transfers:
        coflow_total += size
    # NEAT scores with the scheme's CCT model when the policy exposes it
    # (§6.1: "for CCT prediction we use the prediction models
    # corresponding to each evaluated coflow scheduling scheme").
    cct_aware = getattr(policy, "place_coflow_flow", None)
    if not getattr(policy, "supports_coflow_prediction", True):
        cct_aware = None  # NEAT built without a CCT predictor
    for data_node, size in ordered:
        if not remaining_candidates:
            remaining_candidates = list(candidates)
        if cct_aware is not None:
            host = cct_aware(
                size,
                coflow_total,
                data_node,
                tuple(remaining_candidates),
                tag=tag,
            )
        else:
            request = PlacementRequest(
                size=size,
                data_node=data_node,
                candidates=tuple(remaining_candidates),
                tag=tag,
            )
            host = policy.place(request)
            policy.notify_placed(request, host)
        tracker.submit_flow(coflow, data_node, host, size)
        if distinct_hosts:
            remaining_candidates.remove(host)
    tracker.seal(coflow)
    return coflow


def place_coflow_joint(
    tracker: CoflowTracker,
    transfers: Sequence[Transfer],
    candidates: Sequence[NodeId],
    predictor: CoflowCCTPredictor,
    *,
    tag: str = "",
    max_assignments: int = 50_000,
) -> Coflow:
    """Jointly optimal coflow placement by exhaustive search (§5.1.2).

    The paper notes that jointly placing all flows of a one-to-many /
    many-to-many coflow has exponential complexity and falls back to the
    sequential heuristic; for *small* coflows the search is affordable,
    which makes this the reference the heuristic is measured against
    (``benchmarks/bench_ablation_joint.py``).

    Scores an assignment (one destination per flow) by the bottleneck of
    the predictor's per-link objective over every edge link the coflow
    would use, against the current network state.

    Raises:
        PlacementError: if ``len(candidates) ** len(transfers)`` exceeds
            ``max_assignments`` (use the sequential heuristic instead).
    """
    if not transfers:
        raise PlacementError("coflow needs at least one transfer")
    if not candidates:
        raise PlacementError("joint placement needs candidates")
    num_assignments = len(candidates) ** len(transfers)
    if num_assignments > max_assignments:
        raise PlacementError(
            f"{num_assignments} assignments exceed max_assignments="
            f"{max_assignments}; use place_coflow_sequential"
        )
    fabric = tracker.fabric
    topo = fabric.topology
    total = 0
    for _node, size in transfers:
        total += size

    # Read every potentially involved edge link once: capacity + raw triples.
    links = {}
    for node, _size in transfers:
        links[topo.host_uplink(node).link_id] = None
    for host in candidates:
        links[topo.host_downlink(host).link_id] = None
    reads = fabric.coflow_edge_states([(None, link_id) for link_id in links])
    states = {link_id: (topo.link(link_id).capacity, coflows)
              for link_id, (coflows, _) in zip(links, reads)}
    score_link = predictor.predict_link_objective

    best_assignment = None
    best_score = float("inf")
    for assignment in itertools.product(candidates, repeat=len(transfers)):
        # Per-link bytes this assignment would add.
        loads: dict = {}
        for (node, size), host in zip(transfers, assignment):
            if node == host:
                continue  # local read: no link used
            up = topo.host_uplink(node).link_id
            down = topo.host_downlink(host).link_id
            loads[up] = loads.get(up, 0.0) + size
            loads[down] = loads.get(down, 0.0) + size
        if not loads:
            score = 0.0
        else:
            score = max(
                score_link(total, on_link, *states[link_id])
                for link_id, on_link in loads.items()
            )
        if score < best_score:
            best_score = score
            best_assignment = assignment

    coflow = tracker.new_coflow(tag=tag)
    for (node, size), host in zip(transfers, best_assignment):
        tracker.submit_flow(coflow, node, host, size)
    tracker.seal(coflow)
    return coflow


class RackLocalCoflowPlacer:
    """The paper's minDist adaptation for coflows (Fig. 7).

    The largest flow is placed closest to its input data; subsequent flows
    of the same coflow are then restricted to that rack when possible, so
    the coflow stays rack-local.
    """

    def __init__(self, base_policy: PlacementPolicy) -> None:
        self._base = base_policy

    def place_coflow(
        self,
        tracker: CoflowTracker,
        transfers: Sequence[Transfer],
        candidates: Sequence[NodeId],
        *,
        tag: str = "",
    ) -> Coflow:
        if not transfers:
            raise PlacementError("coflow needs at least one transfer")
        topo = tracker.fabric.topology
        coflow = tracker.new_coflow(tag=tag)
        ordered = sorted(transfers, key=lambda t: (-t[1], t[0]))
        anchor_rack: Optional[int] = None
        for data_node, size in ordered:
            pool: Sequence[NodeId] = candidates
            if anchor_rack is not None:
                in_rack = [
                    h for h in candidates if topo.node(h).rack == anchor_rack
                ]
                if in_rack:
                    pool = in_rack
            request = PlacementRequest(
                size=size,
                data_node=data_node,
                candidates=tuple(pool),
                tag=tag,
            )
            host = self._base.place(request)
            tracker.submit_flow(coflow, data_node, host, size)
            if anchor_rack is None:
                anchor_rack = topo.node(host).rack
        tracker.seal(coflow)
        return coflow
