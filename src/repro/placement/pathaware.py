"""Path-aware NEAT (§7 "Generalization of Network Topologies").

The shipped NEAT predicts on edge links only (the single-switch
abstraction).  The paper sketches the generalization: PASE-style per-link
arbitrators maintain flow state for *every* link, and placement scores a
candidate by the completion time over the whole routed path.  This module
implements that design — the per-link state is read through a
:class:`LinkStateProvider` (the arbitrator role), and the score is
objective (2) taken over all path links — so the benefit of path-wide
state on oversubscribed fabrics can be quantified (see
``benchmarks/bench_ablation_pathaware.py``).
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.network.fabric import NetworkFabric
from repro.placement.base import (
    PlacementPolicy,
    PlacementRequest,
    pick_min,
    scored_decision,
)
from repro.predictor.flow_fct import FlowFCTPredictor
from repro.predictor.fabric_state import flow_link_state
from repro.predictor.state import LinkState
from repro.topology.base import LinkId, NodeId


class LinkStateProvider:
    """The per-link arbitrator: answers "what flows cross link l?".

    This implementation reads the fabric's link index directly, which is
    exactly the information a PASE-style distributed arbitrator for that
    link would hold locally.
    """

    def __init__(self, fabric: NetworkFabric) -> None:
        self._fabric = fabric

    def link_state(self, link_id: LinkId) -> LinkState:
        return flow_link_state(self._fabric, link_id)


class PathAwareNEATPolicy(PlacementPolicy):
    """NEAT scored over every link of the routed path.

    Keeps Algorithm 1's structure — node-state preferred-host filter, then
    minimum predicted completion — but the prediction is
    ``objective (2)`` over the full source->candidate path instead of the
    candidate's edge link alone, so core/aggregation contention is seen.
    Its decisions carry score kind ``"objective"``: the scores are
    objective (2), not the new flow's predicted completion time.
    """

    name = "neat-path"

    def __init__(
        self,
        fabric: NetworkFabric,
        predictor: FlowFCTPredictor,
        rng: Optional[random.Random] = None,
        *,
        use_node_state: bool = True,
        telemetry=None,
    ) -> None:
        self._fabric = fabric
        self._predictor = predictor
        self._rng = rng
        self._use_node_state = use_node_state
        self._arbitrators = LinkStateProvider(fabric)
        self._probe = (
            telemetry.attach("placement_policy") if telemetry is not None else None
        )

    # ------------------------------------------------------------------
    # Node state (same quantity the daemons report)
    # ------------------------------------------------------------------
    def _node_state(self, host: NodeId) -> float:
        fabric = self._fabric
        return min(
            (fabric.residual(f) for f in fabric.flows_at_host(host)),
            default=float("inf"),
        )

    def _preferred(self, request: PlacementRequest) -> Tuple[List[NodeId], bool]:
        """Algorithm 1's filter, and whether it emptied (then every
        candidate is preferred)."""
        if not self._use_node_state:
            return list(request.candidates), False
        preferred = [
            host
            for host in request.candidates
            if self._node_state(host) >= request.size
        ]
        if preferred:
            return preferred, False
        return list(request.candidates), True

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _score(self, request: PlacementRequest, host: NodeId) -> float:
        if host == request.data_node:
            return 0.0
        path = self._fabric.router.path(request.data_node, host)
        states = [
            self._arbitrators.link_state(link_id) for link_id in path.links
        ]
        return self._predictor.objective(request.size, states)

    def place(self, request: PlacementRequest) -> NodeId:
        preferred, fallback = self._preferred(request)
        scores = [self._score(request, host) for host in preferred]
        host = pick_min(preferred, scores, self._rng)
        probe = self._probe
        if probe is not None:
            probe.on_decision(
                self._fabric.engine.now,
                scored_decision(
                    request, host, scores, "objective",
                    hosts=preferred, fallback=fallback,
                ),
                request.data_node,
                request.candidates,
            )
        return host
