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
from typing import Optional, Sequence

from repro.network.fabric import NetworkFabric
from repro.placement.base import PlacementPolicy, PlacementRequest, pick_min
from repro.predictor.flow_fct import FlowFCTPredictor
from repro.predictor.state import link_state_from_flows
from repro.topology.base import NodeId


def host_queued_bits(fabric: NetworkFabric, host: NodeId) -> float:
    """Total residual bits of flows sourced at or destined to ``host``."""
    return fabric.host_queued_bits(host)


class _RecordsDecisions:
    """Mixin: mirror baseline decisions into the telemetry decision log.

    Baselines have no preferred-host filter, so ``preferred`` equals the
    candidate set, and their scores are whatever they minimise (queued
    bits, hops, predicted FCT, ...) as declared by ``score_kind``.
    """

    _SCORE_KIND = "score"

    def _init_telemetry(
        self, telemetry, fabric: Optional[NetworkFabric]
    ) -> None:
        self._decision_log = (
            telemetry.decisions if telemetry is not None else None
        )
        self._engine = fabric.engine if fabric is not None else None

    def _log_decision(
        self,
        request: PlacementRequest,
        scores: Sequence[float],
        chosen: NodeId,
        *,
        predicted_time: Optional[float] = None,
    ) -> None:
        if self._decision_log is None:
            return
        self._decision_log.record(
            time=self._engine.now if self._engine is not None else 0.0,
            kind="flow",
            tag=request.tag,
            size=request.size,
            data_node=request.data_node,
            candidates=request.candidates,
            preferred=request.candidates,
            used_fallback=False,
            scores=tuple(zip(request.candidates, scores)),
            score_kind=self._SCORE_KIND,
            chosen=chosen,
            predicted_time=predicted_time,
        )


class MinLoadPolicy(_RecordsDecisions, PlacementPolicy):
    """Place on the candidate with the least network load.

    Args:
        fabric: the network to inspect.
        rng: tie-break randomness (optional; host-id order if omitted).
        measure: ``"bits"`` (queued bits at the host, the default) or
            ``"utilization"`` (allocated fraction of its edge links).
    """

    name = "minload"
    _SCORE_KIND = "queued_bits"

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
        self._SCORE_KIND = measure if measure != "bits" else "queued_bits"
        self._init_telemetry(telemetry, fabric)

    def _load(self, host: NodeId) -> float:
        if self._measure == "bits":
            return self._fabric.host_queued_bits(host)
        topo = self._fabric.topology
        up = topo.host_uplink(host).link_id
        down = topo.host_downlink(host).link_id
        return max(
            self._fabric.link_rate_utilization(up),
            self._fabric.link_rate_utilization(down),
        )

    def place(self, request: PlacementRequest) -> NodeId:
        scores = [self._load(host) for host in request.candidates]
        host = pick_min(request.candidates, scores, self._rng)
        self._log_decision(request, scores, host)
        return host


class MinDistPolicy(_RecordsDecisions, PlacementPolicy):
    """Place as close to the input data as possible (locality first)."""

    name = "mindist"
    _SCORE_KIND = "hops"

    def __init__(
        self,
        fabric: NetworkFabric,
        rng: Optional[random.Random] = None,
        *,
        telemetry=None,
    ) -> None:
        self._fabric = fabric
        self._rng = rng
        self._init_telemetry(telemetry, fabric)

    def place(self, request: PlacementRequest) -> NodeId:
        topo = self._fabric.topology
        scores = [
            float(topo.hop_distance(request.data_node, host))
            for host in request.candidates
        ]
        host = pick_min(request.candidates, scores, self._rng)
        self._log_decision(request, scores, host)
        return host


class MinFCTPolicy(_RecordsDecisions, PlacementPolicy):
    """Greedy minimum-predicted-FCT with *no* node-state filter (Figure 9).

    Uses the same predictor as NEAT on the same edge links, but considers
    every candidate, so it happily co-locates short flows with each other
    and drops long flows onto hosts busy with short ones — the behaviours
    the preferred-hosts rule exists to prevent.
    """

    name = "minfct"
    _SCORE_KIND = "predicted_time"

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
        self._init_telemetry(telemetry, fabric)

    def _predicted_fct(self, request: PlacementRequest, host: NodeId) -> float:
        if host == request.data_node:
            return 0.0  # full locality: no network transfer
        fabric = self._fabric
        link = fabric.topology.host_downlink(host)
        state = link_state_from_flows(
            link.link_id,
            link.capacity,
            (f.remaining for f in fabric.flows_on_link(link.link_id)),
        )
        return self._predictor.fct(request.size, state)

    def place(self, request: PlacementRequest) -> NodeId:
        scores = [
            self._predicted_fct(request, host) for host in request.candidates
        ]
        host = pick_min(request.candidates, scores, self._rng)
        # minFCT scores *are* predicted FCTs, so its decisions join
        # realized completion times and produce prediction errors too.
        self._log_decision(
            request, scores, host, predicted_time=min(scores)
        )
        return host


class RandomPolicy(_RecordsDecisions, PlacementPolicy):
    """Uniform random placement (control)."""

    name = "random"
    _SCORE_KIND = "random"

    def __init__(
        self,
        rng: random.Random,
        *,
        fabric: Optional[NetworkFabric] = None,
        telemetry=None,
    ) -> None:
        self._rng = rng
        self._init_telemetry(telemetry, fabric)

    def place(self, request: PlacementRequest) -> NodeId:
        host = request.candidates[self._rng.randrange(len(request.candidates))]
        self._log_decision(request, [], host)
        return host
