"""Placement policy interface.

A placement policy answers one question: *given a task that must read its
input data from a fixed source, which candidate host should run it?*
Choosing the host fixes the destination of the task's network flow(s),
which is how task placement and network scheduling interact (§3).

Policies receive a :class:`PlacementRequest` and return a host id.  The
baselines (minLoad/minDist/random) read the fabric directly — they model
the omniscient simulator versions the paper compares against; NEAT goes
through its distributed daemons (:mod:`repro.daemons`).  Every policy
reports each choice as a :class:`PlacementDecision` through the probe's
``on_decision`` point, the one way a decision reaches telemetry.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import PlacementError
from repro.topology.base import NodeId


@dataclass(frozen=True)
class PlacementRequest:
    """One task placement decision.

    Attributes:
        size: bits the task must read over the network (its flow size).
        data_node: host holding the input data (the flow's source).
        candidates: hosts eligible by CPU/memory (§5.1.1 step 0).  The
            data node itself may be included — placing there yields full
            data locality (a zero-cost local read).
        tag: free-form label propagated to the submitted flow.
    """

    size: float
    data_node: NodeId
    candidates: Tuple[NodeId, ...]
    tag: str = ""

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise PlacementError(f"task size must be positive, got {self.size!r}")
        if not self.candidates:
            raise PlacementError("placement request needs at least one candidate")


@dataclass
class PlacementDecision:
    """Outcome of one placement, with the evidence used to make it.

    ``candidate_scores`` pairs each scored host with its score and
    ``score_kind`` says what the scores mean: ``"predicted_time"``
    (completion seconds, the only kind the decision log joins with
    realized times), ``"objective"`` (objective (2) over a path),
    ``"queued_bits"``, ``"hops"``...  ``predicted_time`` is the chosen
    host's predicted completion time, ``None`` when the policy predicts
    none (NEAT writes -1.0 for a degraded decision).  ``kind``
    distinguishes flow, coflow-constituent, and reducer decisions;
    ``tag`` carries the task label for joining realized completion times
    in the telemetry layer.
    """

    host: NodeId
    predicted_time: Optional[float]
    preferred_hosts: Tuple[NodeId, ...]
    queried_hosts: Tuple[NodeId, ...]
    used_fallback: bool
    kind: str = "flow"
    tag: str = ""
    size: float = 0.0
    candidate_scores: Tuple[Tuple[NodeId, float], ...] = ()
    #: True when the daemon skipped predictions entirely and placed by
    #: least-loaded cached state (stale snapshots or unreachable daemons).
    used_stale_fallback: bool = False
    score_kind: str = "predicted_time"


def scored_decision(
    request: PlacementRequest,
    host: NodeId,
    scores: Sequence[float],
    score_kind: str,
    *,
    hosts: Optional[Sequence[NodeId]] = None,
    fallback: bool = False,
    predicted_time: Optional[float] = None,
) -> PlacementDecision:
    """The decision of a policy that scored ``hosts`` (default: every
    candidate) itself, with no control plane to query."""
    hosts = request.candidates if hosts is None else tuple(hosts)
    return PlacementDecision(
        host=host,
        predicted_time=predicted_time,
        preferred_hosts=hosts,
        queried_hosts=(),
        used_fallback=fallback,
        tag=request.tag,
        size=request.size,
        candidate_scores=tuple(zip(hosts, scores)),
        score_kind=score_kind,
    )


class PlacementPolicy(ABC):
    """Strategy object choosing a host for each task."""

    #: Registry/report name, e.g. ``"neat"``.
    name: str = "abstract"

    @abstractmethod
    def place(self, request: PlacementRequest) -> NodeId:
        """Return the chosen host (must be one of ``request.candidates``)."""

    def notify_placed(self, request: PlacementRequest, host: NodeId) -> None:
        """Hook invoked after the task's flow has been submitted."""


def pick_min(
    candidates: Sequence[NodeId],
    scores: Sequence[float],
    rng: Optional[random.Random] = None,
) -> NodeId:
    """Return the candidate with the smallest score.

    Ties are broken uniformly at random when ``rng`` is given (so that
    load-oblivious policies like minDist do not pile onto the
    lexicographically first host), otherwise by host id for determinism.
    """
    if len(candidates) != len(scores) or not candidates:
        raise PlacementError("candidates and scores must align and be non-empty")
    best = min(scores)
    tied = [c for c, s in zip(candidates, scores) if s <= best]
    if rng is not None and len(tied) > 1:
        return tied[rng.randrange(len(tied))]
    return min(tied)
