"""NEAT's global task placement daemon (§3, §5, Algorithm 1).

Places each task in two steps:

1. **Preferred hosts** — using *cached* node states (smallest residual flow
   size per node), keep only candidates that are idle or whose flows are
   all no smaller than the new task's flow; fall back to every candidate
   when the filter empties (Algorithm 1 lines 10-12).  An optional
   locality filter additionally restricts to hosts near the input data
   (§5.2 "Reduced Communication Overhead").
2. **Best host** — query the network daemons of the surviving candidates
   for the predicted completion time on their edge link and pick the
   minimum (the single-switch abstraction: only edge links bottleneck).

Every reply refreshes the node-state cache; placements update it
optimistically so back-to-back decisions see their own effects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.daemons.bus import MessageBus

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
from repro.errors import DaemonUnreachable, MessageDropped, PlacementError
from repro.placement.base import PlacementRequest, pick_min
from repro.predictor.state import link_state_from_flows
from repro.topology.base import NodeId, Topology


@dataclass
class PlacementDecision:
    """Outcome of one placement, with the evidence used to make it.

    ``candidate_scores`` pairs each scored host with its predicted
    completion time (the data behind ``host`` / ``predicted_time``);
    ``kind`` distinguishes flow, coflow-constituent, and reducer
    decisions; ``tag`` carries the task label for joining realized
    completion times in the telemetry layer.
    """

    host: NodeId
    predicted_time: float
    preferred_hosts: Tuple[NodeId, ...]
    queried_hosts: Tuple[NodeId, ...]
    used_fallback: bool
    kind: str = "flow"
    tag: str = ""
    size: float = 0.0
    candidate_scores: Tuple[Tuple[NodeId, float], ...] = field(default=())
    #: True when the daemon skipped predictions entirely and placed by
    #: least-loaded cached state (stale snapshots or unreachable daemons).
    used_stale_fallback: bool = False


def _flow_task(request: PlacementRequest) -> dict:
    """What a flow decision is about, as ``_choose`` takes it."""
    return dict(
        kind="flow",
        tag=request.tag,
        size=request.size,
        load=request.size,
        data_node=request.data_node,
        candidates=request.candidates,
    )


class TaskPlacementDaemon:
    """The global controller of Figure 4."""

    def __init__(
        self,
        topology: Topology,
        bus: MessageBus,
        *,
        rng: Optional[random.Random] = None,
        use_node_state: bool = True,
        locality_hops: Optional[int] = None,
        include_source_link: bool = False,
        state_ttl: Optional[float] = None,
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        """Args:
            topology: for locality distances.
            bus: control-plane transport to the network daemons.
            rng: tie-break randomness (host-id order if omitted).
            use_node_state: disable to get the minFCT strawman of Fig. 9.
            locality_hops: when set, only consider candidates within this
                hop distance of the input data if any exist (§5.2).
            state_ttl: maximum tolerated node-state snapshot age in
                seconds.  When the cached state of *every* known candidate
                is older than this, the daemon stops trusting predictions
                and falls back to least-loaded placement over its cache —
                the paper's graceful degradation under stale periodic
                updates.  ``None`` (the default) disables age tracking
                entirely.
            include_source_link: also query the data node's daemon for its
                uplink and fold it into the score.  Off by default — the
                paper's daemons predict on the candidate's edge link only,
                and the single-link serial model overestimates badly on a
                shared source uplink (flows there are usually bottlenecked
                at their own destinations and the newcomer backfills).
            telemetry: mirrors every decision (with its full candidate
                evidence) into the placement-decision log when enabled.
        """
        self._topology = topology
        self._bus = bus
        self._rng = rng
        self._use_node_state = use_node_state
        self._locality_hops = locality_hops
        self._include_source_link = include_source_link
        self._node_state_cache: Dict[NodeId, float] = {}
        self._decisions: List[PlacementDecision] = []
        self._state_ttl = state_ttl
        # Timestamp of the last *authoritative* state observation per host
        # (prediction replies and pushed updates; optimistic `_note_placed`
        # writes deliberately do not refresh it, or a fallback placement
        # would launder its own guess into "fresh" state).
        self._state_seen_at: Dict[NodeId, float] = {}
        self._fault_model = None
        self._stale_fallbacks = 0
        self._query_failures = 0
        self._probe = (
            telemetry.attach("placement_daemon")
            if telemetry is not None
            else None
        )
        self._engine = bus.engine

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def decisions(self) -> Sequence[PlacementDecision]:
        return tuple(self._decisions)

    def cached_node_state(self, host: NodeId) -> float:
        """Last known node state (inf when never reported = assumed idle)."""
        return self._node_state_cache.get(host, float("inf"))

    @property
    def stale_fallbacks(self) -> int:
        """Placements decided by the stale-state (least-loaded) fallback."""
        return self._stale_fallbacks

    @property
    def query_failures(self) -> int:
        """Prediction queries lost to down hosts or loss windows."""
        return self._query_failures

    def set_fault_model(self, model) -> None:
        """Install a staleness bias source (the fault injector)."""
        self._fault_model = model

    def state_age(self, host: NodeId) -> float:
        """Age of the host's cached snapshot, inf when never observed.

        A :class:`~repro.faults.plan.StateStaleness` window adds its lag on
        top, modelling dissemination that is running but behind.
        """
        seen = self._state_seen_at.get(host)
        if seen is None:
            return float("inf")
        age = self._engine.now - seen
        if self._fault_model is not None:
            age += self._fault_model.staleness_lag()
        return age

    # ------------------------------------------------------------------
    # Degraded operation (fault injection)
    # ------------------------------------------------------------------
    def _state_is_fresh(self, host: NodeId) -> bool:
        return self.state_age(host) <= self._state_ttl

    def _stale_candidates(self, candidates: Sequence[NodeId]) -> bool:
        """True when the TTL policy says predictions can't be trusted:
        we *have* state for some candidates but none of it is fresh.

        A cold cache (no candidate ever observed) takes the normal path —
        the daemon has nothing stale to distrust and the first queries
        seed the cache.
        """
        if self._state_ttl is None:
            return False
        known = [h for h in candidates if h in self._state_seen_at]
        if not known:
            return False
        return not any(self._state_is_fresh(h) for h in known)

    def _choose(
        self,
        hosts: Sequence[NodeId],
        scores: Optional[Sequence[float]],
        *,
        kind: str,
        tag: str,
        size: float,
        load: float,
        data_node: NodeId,
        candidates: Sequence[NodeId],
        queried: Sequence[NodeId] = (),
        fallback: bool = False,
    ) -> NodeId:
        """Algorithm 1's tail, shared by every entry point: pick the
        minimum-score host, update the cache optimistically with the
        ``load`` it now carries, keep and report the decision.

        With no usable prediction (``scores`` is None: the TTL policy
        distrusts the cache; or every score is inf: every query was
        lost) the pick degrades to least-loaded over cached state, no
        daemon queries.  The cached node state is the smallest residual
        size on the host (inf = believed idle), so maximising it picks
        the least-loaded host; ``pick_min`` over the negated state keeps
        the shared deterministic tie-break.
        """
        hosts = list(hosts)
        degraded = scores is None or not any(
            score < float("inf") for score in scores
        )
        if degraded:
            scores = [-self.cached_node_state(h) for h in hosts]
            self._stale_fallbacks += 1
        host = pick_min(hosts, scores, self._rng)
        self._note_placed(host, load)
        decision = PlacementDecision(
            host=host,
            # -1.0 is the sentinel for "no prediction was made".
            predicted_time=-1.0 if degraded else min(scores),
            preferred_hosts=tuple(hosts),
            queried_hosts=() if degraded else tuple(queried),
            used_fallback=degraded or fallback,
            kind=kind,
            tag=tag,
            size=load if degraded else size,
            candidate_scores=tuple(zip(hosts, scores)),
            used_stale_fallback=degraded,
        )
        self._decisions.append(decision)
        probe = self._probe
        if probe is not None:
            probe.on_decision(self._engine.now, decision, data_node, candidates)
        return host

    def _try_call(self, host: NodeId, request):
        """A bus call that degrades instead of propagating control-plane
        faults: returns None when the host is down or the message lost."""
        try:
            return self._bus.call(host, request)
        except (DaemonUnreachable, MessageDropped):
            self._query_failures += 1
            probe = self._probe
            if probe is not None:
                probe.on_query_failure()
            return None

    # ------------------------------------------------------------------
    # Candidate filtering (Algorithm 1, lines 3-12)
    # ------------------------------------------------------------------
    def _locality_filter(
        self, data_node: NodeId, candidates: Sequence[NodeId]
    ) -> List[NodeId]:
        if self._locality_hops is None:
            return list(candidates)
        near = [
            host
            for host in candidates
            if self._topology.hop_distance(data_node, host)
            <= self._locality_hops
        ]
        return near if near else list(candidates)

    def _preferred_hosts(
        self, size: float, candidates: Sequence[NodeId]
    ) -> Tuple[List[NodeId], bool]:
        """Apply the node-state filter; returns (hosts, used_fallback)."""
        if not self._use_node_state:
            return list(candidates), False
        preferred = [
            host
            for host in candidates
            if self.cached_node_state(host) >= size
        ]
        if preferred:
            return preferred, False
        return list(candidates), True

    # ------------------------------------------------------------------
    # Flow placement (Algorithm 1)
    # ------------------------------------------------------------------
    def place_flow(self, request: PlacementRequest) -> NodeId:
        """Choose the host minimising the predicted FCT of the task's flow."""
        candidates = self._locality_filter(request.data_node, request.candidates)
        task = _flow_task(request)
        if self._stale_candidates(candidates):
            return self._choose(candidates, None, **task)
        preferred, fallback = self._preferred_hosts(request.size, candidates)

        source_time = 0.0
        if self._include_source_link and any(
            host != request.data_node for host in preferred
        ):
            reply = self._try_call(
                request.data_node,
                FlowPredictionRequest(size=request.size, direction="out"),
            )
            if reply is not None:
                self._remember(reply)
                source_time = reply.predicted_time

        scores: List[float] = []
        queried: List[NodeId] = []
        for host in preferred:
            if host == request.data_node:
                scores.append(0.0)  # full locality: no transfer at all
                continue
            reply = self._try_call(
                host, FlowPredictionRequest(size=request.size, direction="in")
            )
            if reply is None:
                scores.append(float("inf"))
                continue
            self._remember(reply)
            queried.append(host)
            scores.append(max(reply.predicted_time, source_time))

        return self._choose(
            preferred, scores, queried=queried, fallback=fallback, **task
        )

    # ------------------------------------------------------------------
    # Batched flow placement (streaming service)
    # ------------------------------------------------------------------
    def place_batch(
        self,
        requests: Sequence[PlacementRequest],
        predictor,
    ) -> List[NodeId]:
        """Place a micro-batch of flows off one fabric-state read per host.

        Instead of one size-specific prediction query per (request,
        candidate) pair — ``place_flow``'s cost — this fetches each
        distinct candidate's raw edge-link state *once* via
        :class:`LinkStateRequest` and scores every request in the batch
        locally with ``predictor`` (the same FCT model the network
        daemons run).  Within the batch, snapshots are updated
        optimistically after each decision so later requests see earlier
        placements.  Bus traffic is O(distinct hosts) per batch instead
        of O(requests x candidates).

        Returns the chosen host per request, in order.
        """
        # One state read per distinct candidate host, in sorted order so
        # the query sequence (and any fault-plan coin flips it consumes)
        # is independent of request ordering quirks.
        wanted: set = set()
        filtered: List[List[NodeId]] = []
        for request in requests:
            hosts = self._locality_filter(request.data_node, request.candidates)
            filtered.append(hosts)
            for host in hosts:
                if host != request.data_node:
                    wanted.add(host)
        snapshots: Dict[NodeId, LinkStateReply] = {}
        live_sizes: Dict[NodeId, List[float]] = {}
        live_state: Dict[NodeId, float] = {}
        for host in sorted(wanted):
            reply = self._try_call(host, LinkStateRequest(direction="in"))
            if reply is None:
                continue
            snapshots[host] = reply
            live_sizes[host] = list(reply.flow_sizes)
            live_state[host] = reply.node_state
            self._node_state_cache[host] = reply.node_state
            if self._state_ttl is not None:
                self._state_seen_at[host] = self._engine.now

        placements: List[NodeId] = []
        for request, hosts in zip(requests, filtered):
            task = _flow_task(request)
            if self._stale_candidates(hosts):
                placements.append(self._choose(hosts, None, **task))
                continue
            if self._use_node_state:
                preferred = [
                    h
                    for h in hosts
                    if live_state.get(h, self.cached_node_state(h))
                    >= request.size
                ]
                fallback = not preferred
                if fallback:
                    preferred = list(hosts)
            else:
                preferred, fallback = list(hosts), False
            scores: List[float] = []
            queried: List[NodeId] = []
            for host in preferred:
                if host == request.data_node:
                    scores.append(0.0)
                    continue
                snap = snapshots.get(host)
                if snap is None:
                    scores.append(float("inf"))
                    continue
                queried.append(host)
                state = link_state_from_flows(
                    snap.link, snap.capacity, live_sizes[host]
                )
                scores.append(predictor.fct(request.size, state))
            host = self._choose(
                preferred, scores, queried=queried, fallback=fallback, **task
            )
            # Optimistic within-batch update: the chosen host's snapshot
            # now carries this flow, so the rest of the batch doesn't
            # dog-pile onto one idle host.
            if host in live_sizes:
                live_sizes[host].append(request.size)
                live_state[host] = min(live_state[host], request.size)
            placements.append(host)
        return placements

    # ------------------------------------------------------------------
    # Coflow placement (§5.1.2)
    # ------------------------------------------------------------------
    def place_coflow_flow(
        self,
        flow_size: float,
        coflow_total: float,
        data_node: NodeId,
        candidates: Sequence[NodeId],
        *,
        tag: str = "",
    ) -> NodeId:
        """Place one constituent flow of a coflow (sequential heuristic).

        Like :meth:`place_flow` but scored with the *CCT* predictor: the
        candidate link's completion time for a coflow of ``coflow_total``
        bytes placing ``flow_size`` of them on that link.  This is the
        paper's "prediction models corresponding to each evaluated coflow
        scheduling scheme" (§6.1).
        """
        if not candidates:
            raise PlacementError("place_coflow_flow needs candidates")
        filtered = self._locality_filter(data_node, candidates)
        task = dict(
            kind="coflow",
            tag=tag,
            size=flow_size,
            load=coflow_total,
            data_node=data_node,
            candidates=candidates,
        )
        if self._stale_candidates(filtered):
            return self._choose(filtered, None, **task)
        # Node state is at coflow granularity here: a host is preferred
        # when every coflow it carries is at least as large as this one.
        preferred, fallback = self._preferred_hosts(coflow_total, filtered)
        scores: List[float] = []
        queried: List[NodeId] = []
        for host in preferred:
            if host == data_node:
                scores.append(0.0)
                continue
            reply = self._try_call(
                host,
                CoflowPredictionRequest(
                    total_size=coflow_total,
                    size_on_link=flow_size,
                    direction="in",
                ),
            )
            if reply is None:
                scores.append(float("inf"))
                continue
            self._remember(reply)
            queried.append(host)
            scores.append(reply.predicted_time)
        return self._choose(
            preferred, scores, queried=queried, fallback=fallback, **task
        )

    def place_reducer(
        self,
        sources: Sequence[Tuple[NodeId, float]],
        candidates: Sequence[NodeId],
        *,
        tag: str = "",
    ) -> NodeId:
        """Choose one destination for a many-to-one coflow (shuffle).

        The candidate's downlink would carry every byte not already local
        to it; each source uplink carries its own share.  The predicted CCT
        is the bottleneck over those links; we pick the candidate with the
        smallest value.
        """
        if not sources:
            raise PlacementError("place_reducer needs at least one source")
        if not candidates:
            raise PlacementError("place_reducer needs at least one candidate")
        total = sum(size for _node, size in sources)

        # Source uplink contributions are candidate-independent except for
        # the bytes that become local; query once per distinct source.
        uplink_times: Dict[NodeId, float] = {}
        for node, size in sources:
            if node not in uplink_times:
                reply = self._try_call(
                    node,
                    CoflowPredictionRequest(
                        total_size=total,
                        size_on_link=sum(
                            s for n, s in sources if n == node
                        ),
                        direction="out",
                    ),
                )
                if reply is None:
                    continue  # unreachable source: score without its uplink
                self._remember(reply)
                uplink_times[node] = reply.predicted_time

        scores: List[float] = []
        for host in candidates:
            incoming = sum(size for node, size in sources if node != host)
            if incoming <= 0:
                scores.append(0.0)
                continue
            reply = self._try_call(
                host,
                CoflowPredictionRequest(
                    total_size=total, size_on_link=incoming, direction="in"
                ),
            )
            if reply is None:
                scores.append(float("inf"))
                continue
            self._remember(reply)
            bottleneck = max(
                (
                    t
                    for node, t in uplink_times.items()
                    if node != host
                ),
                default=0.0,
            )
            scores.append(max(reply.predicted_time, bottleneck))
        return self._choose(
            candidates,
            scores,
            kind="reducer",
            tag=tag,
            size=total,
            load=total,
            data_node=max(sources, key=lambda s: s[1])[0],
            candidates=candidates,
            queried=candidates,
        )

    # ------------------------------------------------------------------
    # Cache maintenance
    # ------------------------------------------------------------------
    def _remember(self, reply: PredictionReply) -> None:
        self._node_state_cache[reply.host] = reply.node_state
        if self._state_ttl is not None:
            self._state_seen_at[reply.host] = self._engine.now

    def _note_placed(self, host: NodeId, size: float) -> None:
        """Optimistic cache update: the node now carries a flow of ``size``."""
        current = self._node_state_cache.get(host, float("inf"))
        self._node_state_cache[host] = min(current, size)

    def note_task_finished(self, host: NodeId) -> None:
        """Invalidate the cached state when a task on ``host`` completes
        (the next reply from the daemon refreshes it)."""
        self._node_state_cache.pop(host, None)
        self._state_seen_at.pop(host, None)

    def handle_node_state_update(self, update: "NodeStateUpdate") -> None:
        """Accept a push-style node-state refresh from a network daemon.

        The pull path (prediction replies) keeps the cache fresh for hosts
        the daemon talks to; daemons may additionally push updates when
        their state changes materially (e.g. the last flow finished),
        which this endpoint applies.
        """
        self._node_state_cache[update.host] = update.node_state
        if self._state_ttl is not None:
            self._state_seen_at[update.host] = self._engine.now
