"""NEAT's per-node network daemon (§3, §5.2).

Runs on every host.  Maintains the state of the flows starting/ending at
its host (exactly, or histogram-compressed per §5.2) and answers
prediction requests from the task placement daemon:

* the predicted FCT of a hypothetical new flow on the host's edge link,
  under the configured predictor (scheduling policy model);
* the predicted CCT contribution for a hypothetical coflow;
* the node state — the smallest residual size among flows scheduled on the
  node, used by the placement daemon's preferred-host filter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - avoids a daemons<->telemetry cycle
    from repro.telemetry import Telemetry

from repro.daemons.messages import (
    CoflowPredictionRequest,
    FlowPredictionRequest,
    LinkStateReply,
    LinkStateRequest,
    NodeStateUpdate,
    PredictionReply,
)
from repro.errors import DaemonError
from repro.network.fabric import NetworkFabric
from repro.network.flow import Flow
from repro.predictor.coflow_cct import CoflowCCTPredictor
from repro.predictor.compressed import CompressedLinkState
from repro.predictor.flow_fct import FlowFCTPredictor
from repro.predictor.fabric_state import coflow_link_state
from repro.predictor.state import link_state_from_flows
from repro.topology.base import Link, NodeId


class NetworkDaemon:
    """Per-host flow-state keeper and completion-time oracle."""

    def __init__(
        self,
        host: NodeId,
        fabric: NetworkFabric,
        flow_predictor: FlowFCTPredictor,
        *,
        coflow_predictor: Optional[CoflowCCTPredictor] = None,
        bin_boundaries: Optional[Sequence[float]] = None,
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        """Args:
            host: the node this daemon runs on.
            fabric: network (the daemon only reads its own host's flows).
            flow_predictor: FCT model matching the network policy (or the
                Fair model, per Proposition 4.1).
            coflow_predictor: CCT model for coflow placement requests.
            bin_boundaries: when given, predictions use the compressed
                (histogram) state of §5.2 instead of exact per-flow state.
            telemetry: accounts the wall time of prediction requests
                arriving through :meth:`handle` when enabled.
        """
        self._host = host
        self._fabric = fabric
        self._flow_predictor = flow_predictor
        self._coflow_predictor = coflow_predictor
        self._probe = (
            telemetry.attach("network_daemon") if telemetry is not None else None
        )
        topo = fabric.topology
        self._uplink: Link = topo.host_uplink(host)
        self._downlink: Link = topo.host_downlink(host)

        self._compressed_up: Optional[CompressedLinkState] = None
        self._compressed_down: Optional[CompressedLinkState] = None
        if bin_boundaries is not None:
            self._compressed_up = CompressedLinkState(
                self._uplink.link_id, self._uplink.capacity, bin_boundaries
            )
            self._compressed_down = CompressedLinkState(
                self._downlink.link_id, self._downlink.capacity, bin_boundaries
            )
            fabric.add_arrival_listener(self._on_flow_arrival)
            fabric.add_completion_listener(
                lambda flow, record: self._on_flow_done(flow)
            )

    # ------------------------------------------------------------------
    # Request handling (bus endpoint)
    # ------------------------------------------------------------------
    @property
    def host(self) -> NodeId:
        return self._host

    def handle(self, payload) -> PredictionReply:
        """Dispatch a control-plane request (the bus handler)."""
        if isinstance(payload, FlowPredictionRequest):
            coflow = False
        elif isinstance(payload, CoflowPredictionRequest):
            coflow = True
        elif isinstance(payload, LinkStateRequest):
            return self.link_state(payload.direction)
        else:
            raise DaemonError(f"unknown request type {type(payload).__name__}")
        probe = self._probe
        span = probe.enter_predict(coflow) if probe is not None else None
        if coflow:
            reply = self.predict_coflow(
                payload.total_size, payload.size_on_link, payload.direction
            )
        else:
            reply = self.predict_flow(payload.size, payload.direction)
        if span is not None:
            probe.exit_predict(span)
        return reply

    # ------------------------------------------------------------------
    # Predictions
    # ------------------------------------------------------------------
    def node_state(self) -> float:
        """Smallest residual flow size on this node (inf when idle)."""
        return self._fabric.host_edge_state(
            self._host, self._downlink.link_id
        )[1]

    def predict_flow(self, size: float, direction: str = "in") -> PredictionReply:
        """Predicted FCT of a new flow on this node's edge link."""
        if direction == "in":
            link, compressed = self._downlink, self._compressed_down
        else:
            link, compressed = self._uplink, self._compressed_up
        sizes, node_state = self._fabric.host_edge_state(
            self._host, link.link_id
        )
        if compressed is not None:
            predicted = compressed.fair_fct(size)
        else:
            predicted = self._flow_predictor.fct(
                size, link_state_from_flows(link.link_id, link.capacity, sizes)
            )
        return PredictionReply(self._host, predicted, node_state)

    def link_state(self, direction: str = "in") -> LinkStateReply:
        """Snapshot of this node's edge link for controller-side scoring.

        Size-independent (unlike :meth:`predict_flow`), so the placement
        service can fetch it once per host per micro-batch and score every
        request in the batch against the same snapshot.
        """
        link = self._downlink if direction == "in" else self._uplink
        sizes, node_state = self._fabric.host_edge_state(
            self._host, link.link_id
        )
        return LinkStateReply(
            self._host,
            link.link_id,
            link.capacity,
            tuple(sorted(sizes)),
            node_state,
        )

    def predict_coflow(
        self, total_size: float, size_on_link: float, direction: str = "in"
    ) -> PredictionReply:
        """Predicted CCT contribution of this node's edge link, with the
        node state at coflow granularity (the smallest residual coflow
        total at the host; the preferred-host filter's input when the
        scheduling unit is the coflow).

        The order is part of the answer: the link's flows are synced and
        read before the rest of the host's, so ``Coflow.remaining_total``
        in the link state sees the coflow's flows elsewhere as of their
        last sync."""
        if self._coflow_predictor is None:
            raise DaemonError(
                f"daemon at {self._host!r} has no coflow predictor"
            )
        link = self._downlink if direction == "in" else self._uplink
        state = coflow_link_state(self._fabric, link.link_id)
        # Score with objective (2): the coflow's own CCT on this link plus
        # the CCT increase it inflicts on existing coflows (§4.2).  For
        # priority schedulers (TCF/SEBF) the bare CCT of a high-priority
        # coflow is insensitive to link load; the Delta term restores the
        # externality, per Proposition 4.2.
        predicted = self._coflow_predictor.link_objective(
            total_size, size_on_link, state
        )
        return PredictionReply(
            self._host, predicted, self._fabric.host_coflow_state(self._host)
        )

    # ------------------------------------------------------------------
    # Push-style state dissemination (§4's periodic updates)
    # ------------------------------------------------------------------
    def push_state(self, bus) -> bool:
        """Push this node's current state to the controller via ``bus``.

        One-way and best-effort: under a fault plan the update may be
        dropped or delayed, which is exactly the staleness the placement
        daemon's TTL fallback defends against.  Returns whether the bus
        accepted the message.
        """
        return bus.push(
            self._host,
            NodeStateUpdate(host=self._host, node_state=self.node_state()),
        )

    # ------------------------------------------------------------------
    # Compressed-state maintenance (§5.2)
    # ------------------------------------------------------------------
    # Listeners are registered in compressed mode only: both states exist.
    def _on_flow_arrival(self, flow: Flow) -> None:
        if flow.src == self._host:
            self._compressed_up.add_flow(flow.size)
        if flow.dst == self._host:
            self._compressed_down.add_flow(flow.size)

    def _on_flow_done(self, flow: Flow) -> None:
        if flow.is_local:
            return  # never arrived: the fabric finishes it on submit
        if flow.src == self._host:
            self._compressed_up.remove_flow(flow.size)
        if flow.dst == self._host:
            self._compressed_down.remove_flow(flow.size)
