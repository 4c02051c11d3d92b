"""Baseline placement policies the paper compares against (§6.1).

* :class:`MinLoadPolicy` — "always selects a node with the minimum load,
  measured by the total size of flows scheduled on that node" / "the
  utilization ratio of its link to ToR".  Both load measures are offered.
* :class:`MinDistPolicy` — "always selects a node closest to the input
  data" (delay-scheduling/Corral-style locality).
* :class:`MinFCTPolicy` — NEAT's predictor *without* the node-state
  (preferred hosts) filter; the strawman of Figure 9.
* :class:`RandomPolicy` — uniform random control.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.network.fabric import NetworkFabric
from repro.placement.base import (
    PlacementPolicy,
    PlacementRequest,
    pick_min,
    scored_decision,
)
from repro.predictor.flow_fct import FlowFCTPredictor
from repro.topology.base import NodeId


def host_queued_bits(fabric: NetworkFabric, host: NodeId) -> float:
    """Total residual bits of flows sourced at or destined to ``host``."""
    return fabric.hosts_queued_bits((host,))[0]


class MinLoadPolicy(PlacementPolicy):
    """Place on the candidate with the least network load.

    Args:
        fabric: the network to inspect.
        rng: tie-break randomness (optional; host-id order if omitted).
        measure: ``"bits"`` (queued bits at the host, the default) or
            ``"utilization"`` (allocated fraction of its edge links).
    """

    name = "minload"

    def __init__(
        self,
        fabric: NetworkFabric,
        rng: Optional[random.Random] = None,
        *,
        measure: str = "bits",
        telemetry=None,
    ) -> None:
        if measure not in ("bits", "utilization"):
            raise ValueError(f"unknown load measure {measure!r}")
        self._fabric = fabric
        self._rng = rng
        self._measure = measure
        self._score_kind = measure if measure != "bits" else "queued_bits"
        self._probe = (
            telemetry.attach("placement_policy") if telemetry is not None else None
        )

    def _utilization(self, host: NodeId) -> float:
        topo = self._fabric.topology
        up = topo.host_uplink(host).link_id
        down = topo.host_downlink(host).link_id
        return max(
            self._fabric.link_rate_utilization(up),
            self._fabric.link_rate_utilization(down),
        )

    def place(self, request: PlacementRequest) -> NodeId:
        if self._measure == "bits":
            scores = self._fabric.hosts_queued_bits(request.candidates)
        else:
            scores = [self._utilization(host) for host in request.candidates]
        host = pick_min(request.candidates, scores, self._rng)
        probe = self._probe
        if probe is not None:
            probe.on_decision(
                self._fabric.engine.now,
                scored_decision(request, host, scores, self._score_kind),
                request.data_node,
                request.candidates,
            )
        return host


class MinDistPolicy(PlacementPolicy):
    """Place as close to the input data as possible (locality first)."""

    name = "mindist"

    def __init__(
        self,
        fabric: NetworkFabric,
        rng: Optional[random.Random] = None,
        *,
        telemetry=None,
    ) -> None:
        self._fabric = fabric
        self._rng = rng
        self._probe = (
            telemetry.attach("placement_policy") if telemetry is not None else None
        )

    def place(self, request: PlacementRequest) -> NodeId:
        topo = self._fabric.topology
        scores = [
            float(topo.hop_distance(request.data_node, host))
            for host in request.candidates
        ]
        host = pick_min(request.candidates, scores, self._rng)
        probe = self._probe
        if probe is not None:
            probe.on_decision(
                self._fabric.engine.now,
                scored_decision(request, host, scores, "hops"),
                request.data_node,
                request.candidates,
            )
        return host


class MinFCTPolicy(PlacementPolicy):
    """Greedy minimum-predicted-FCT with *no* node-state filter (Figure 9).

    Uses the same predictor as NEAT on the same edge links, but considers
    every candidate, so it happily co-locates short flows with each other
    and drops long flows onto hosts busy with short ones — the behaviours
    the preferred-hosts rule exists to prevent.
    """

    name = "minfct"

    def __init__(
        self,
        fabric: NetworkFabric,
        predictor: FlowFCTPredictor,
        rng: Optional[random.Random] = None,
        *,
        telemetry=None,
    ) -> None:
        self._fabric = fabric
        self._predictor = predictor
        self._rng = rng
        self._probe = (
            telemetry.attach("placement_policy") if telemetry is not None else None
        )

    def _predicted_fct(self, request: PlacementRequest, host: NodeId) -> float:
        if host == request.data_node:
            return 0.0  # full locality: no network transfer
        fabric = self._fabric
        link = fabric.topology.host_downlink(host)
        sizes = [fabric.residual(f) for f in fabric.flows_on_link(link.link_id)]
        return self._predictor.predict_fct(request.size, link.capacity, sizes)

    def place(self, request: PlacementRequest) -> NodeId:
        scores = [
            self._predicted_fct(request, host) for host in request.candidates
        ]
        host = pick_min(request.candidates, scores, self._rng)
        probe = self._probe
        if probe is not None:
            # minFCT scores *are* predicted FCTs, so its decisions join
            # realized completion times and produce prediction errors too.
            probe.on_decision(
                self._fabric.engine.now,
                scored_decision(
                    request, host, scores, "predicted_time",
                    predicted_time=min(scores),
                ),
                request.data_node,
                request.candidates,
            )
        return host


class RandomPolicy(PlacementPolicy):
    """Uniform random placement (control)."""

    name = "random"

    def __init__(
        self,
        rng: random.Random,
        *,
        fabric: Optional[NetworkFabric] = None,
        telemetry=None,
    ) -> None:
        self._rng = rng
        self._engine = fabric.engine if fabric is not None else None
        self._probe = (
            telemetry.attach("placement_policy") if telemetry is not None else None
        )

    def place(self, request: PlacementRequest) -> NodeId:
        host = request.candidates[self._rng.randrange(len(request.candidates))]
        probe = self._probe
        if probe is not None:
            probe.on_decision(
                self._engine.now if self._engine is not None else 0.0,
                scored_decision(request, host, (), "random"),
                request.data_node,
                request.candidates,
            )
        return host
