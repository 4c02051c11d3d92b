"""Control-plane message types exchanged between NEAT daemons (§3, Fig 4).

The task placement daemon sends prediction requests to per-node network
daemons; replies carry the predicted completion time *and* the node's
current state (smallest residual flow size), which the placement daemon
caches for future preferred-host filtering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

from repro.topology.base import NodeId


@dataclass(frozen=True)
class FlowPredictionRequest:
    """Ask a node daemon: what FCT would a new flow of ``size`` see?

    ``direction`` is ``"in"`` for a flow terminating at the node (the
    normal task placement case — the task reads its input) or ``"out"``
    for a flow sourced at the node (used to account for the data node's
    uplink).
    """

    size: float
    direction: str = "in"


@dataclass(frozen=True)
class CoflowPredictionRequest:
    """Ask a node daemon: what CCT would a new coflow see on this node?

    Attributes:
        total_size: s_{c0} — the coflow's total bits.
        size_on_link: s_{c0,l} — the bits that would cross this node's
            edge link (``direction`` selects uplink/downlink).
    """

    total_size: float
    size_on_link: float
    direction: str = "in"


class PredictionReply(NamedTuple):
    """A network daemon's answer (a named tuple: one is built per query,
    the most frequent allocation of a NEAT decision).

    Attributes:
        host: the replying node.
        predicted_time: predicted FCT (or CCT) in seconds on the node's
            edge link.
        node_state: smallest residual flow size on the node, ``inf`` when
            idle (§5.1.1's node state).
    """

    host: NodeId
    predicted_time: float
    node_state: float


@dataclass(frozen=True)
class NodeStateUpdate:
    """Push-style node-state refresh (placement daemon cache maintenance)."""

    host: NodeId
    node_state: float


@dataclass(frozen=True)
class LinkStateRequest:
    """Ask a node daemon for its raw edge-link state.

    Unlike :class:`FlowPredictionRequest` the answer is *size-independent*:
    one reply lets the controller score any number of hypothetical flows
    locally.  The streaming placement service uses this to amortise a
    single state read per host across a whole micro-batch of requests
    (§5.2's state shipping, batched).
    """

    direction: str = "in"


class LinkStateReply(NamedTuple):
    """A node daemon's edge-link snapshot.

    Attributes:
        host: the replying node.
        link: the edge link's id.
        capacity: the link's capacity in bits/sec.
        flow_sizes: residual sizes of the flows currently on the link.
        node_state: smallest residual flow size on the node (§5.1.1).
    """

    host: NodeId
    link: str
    capacity: float
    flow_sizes: Tuple[float, ...]
    node_state: float


def message_kind(payload) -> str:
    """Classify a bus payload for fault-plan loss targeting.

    ``"node_state"`` covers push-style state refreshes; everything else on
    the bus is part of a prediction exchange.
    """
    if isinstance(payload, NodeStateUpdate):
        return "node_state"
    return "prediction"
