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
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.daemons.bus import MessageBus

if TYPE_CHECKING:  # pragma: no cover - avoids a daemons<->telemetry cycle
    from repro.telemetry import Telemetry
from repro.daemons.messages import (
    CoflowPredictionRequest,
    FlowPredictionRequest,
    LinkStateReply,
    LinkStateRequest,
    NodeStateUpdate,
)
from repro.errors import PlacementError
from repro.placement.base import PlacementDecision, PlacementRequest, pick_min
from repro.topology.base import NodeId, Topology

_INF = float("inf")


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
        return not any(self.state_age(h) <= self._state_ttl for h in known)

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
        best = _INF if scores is None else min(scores)
        degraded = not best < _INF
        if degraded:
            cached = self._node_state_cache.get
            scores = [-cached(h, _INF) for h in hosts]
            self._stale_fallbacks += 1
        host = pick_min(hosts, scores, self._rng)
        self._note_placed(host, load)
        decision = PlacementDecision(
            host=host,
            # -1.0 is the sentinel for "no prediction was made".
            predicted_time=-1.0 if degraded else best,
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

    def _query(
        self, hosts: Sequence[NodeId], request: Any
    ) -> Dict[NodeId, Any]:
        """The round trips of one decision, shared by every entry point:
        put the one ``request`` to each of ``hosts`` in one bus round
        (:meth:`~repro.daemons.MessageBus.call_round`; Algorithm 1 asks
        every candidate the same question) and return the replies of
        those that answered, keyed by host in order.  A down host or a
        loss window costs the query, not the decision: the failure is
        counted and the host left out.  Every reply refreshes the
        node-state cache.
        """
        delivered, replies = self._bus.call_round(hosts, request)
        lost = len(hosts) - len(delivered)
        self._query_failures += lost
        if lost and self._probe is not None:
            self._probe.on_query_failure(lost)
        cache, answers = self._node_state_cache, {}
        for host, reply in zip(delivered, replies):
            answers[host] = reply
            cache[host] = reply.node_state
        if self._state_ttl is not None:
            self._state_seen_at.update(dict.fromkeys(delivered, self._engine.now))
        return answers

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
        cached = self._node_state_cache.get
        preferred = [h for h in candidates if cached(h, _INF) >= size]
        if preferred:
            return preferred, False
        return list(candidates), True

    # ------------------------------------------------------------------
    # Flow placement (Algorithm 1)
    # ------------------------------------------------------------------
    def place_flow(self, request: PlacementRequest) -> NodeId:
        """Choose the host minimising the predicted FCT of the task's flow."""
        return self._place_by_prediction(
            self._locality_filter(request.data_node, request.candidates),
            request.size,
            FlowPredictionRequest(size=request.size, direction="in"),
            _flow_task(request),
            FlowPredictionRequest(size=request.size, direction="out")
            if self._include_source_link
            else None,
        )

    def _place_by_prediction(
        self,
        hosts: Sequence[NodeId],
        state_size: float,
        ask: Any,
        task: dict,
        source_ask: Any = None,
    ) -> NodeId:
        """Algorithm 1 from the node-state filter on, for the entry points
        that score a host by one prediction on its edge link: keep the
        hosts whose cached node state is at least ``state_size``, put the
        one request ``ask`` to each, choose the minimum.  ``source_ask``,
        when given, goes to the data node first: no transfer is then
        predicted faster than its uplink."""
        if self._stale_candidates(hosts):
            return self._choose(hosts, None, **task)
        preferred, fallback = self._preferred_hosts(state_size, hosts)
        data_node = task["data_node"]
        remote = [host for host in preferred if host != data_node]
        uplink = (
            self._query((data_node,), source_ask)
            if source_ask is not None and remote
            else None
        )
        answers = self._query(remote, ask)
        answer = answers.get
        scores = [
            0.0  # full locality: no transfer at all
            if host == data_node
            else _INF  # the query was lost
            if (reply := answer(host)) is None
            else reply.predicted_time
            for host in preferred
        ]
        if uplink:
            # 0 stays 0: the local host makes no transfer.
            floor = uplink[data_node].predicted_time
            scores = [score and max(score, floor) for score in scores]
        return self._choose(
            preferred, scores, queried=answers, fallback=fallback, **task
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
        snapshots: Dict[NodeId, LinkStateReply] = self._query(
            sorted(wanted), LinkStateRequest(direction="in")
        )
        live_sizes = {h: list(r.flow_sizes) for h, r in snapshots.items()}
        predict = predictor.predict_fct

        placements: List[NodeId] = []
        for request, hosts in zip(requests, filtered):
            task = _flow_task(request)
            if self._stale_candidates(hosts):
                placements.append(self._choose(hosts, None, **task))
                continue
            # The cache is as fresh as this batch's reads: _query stored
            # every reply and _choose adds each placement optimistically.
            preferred, fallback = self._preferred_hosts(request.size, hosts)
            data_node = request.data_node
            scores = [
                0.0
                if host == data_node
                else _INF
                if (snap := snapshots.get(host)) is None
                else predict(request.size, snap.capacity, live_sizes[host])
                for host in preferred
            ]
            queried = [h for h in preferred if h != data_node and h in snapshots]
            host = self._choose(
                preferred, scores, queried=queried, fallback=fallback, **task
            )
            # Optimistic within-batch update: the chosen host's snapshot
            # now carries this flow, so the rest of the batch doesn't
            # dog-pile onto one idle host.
            if host in live_sizes:
                live_sizes[host].append(request.size)
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
        # Node state is at coflow granularity here: a host is preferred
        # when every coflow it carries is at least as large as this one.
        return self._place_by_prediction(
            self._locality_filter(data_node, candidates),
            coflow_total,
            CoflowPredictionRequest(
                total_size=coflow_total, size_on_link=flow_size, direction="in"
            ),
            dict(
                kind="coflow",
                tag=tag,
                size=flow_size,
                load=coflow_total,
                data_node=data_node,
                candidates=candidates,
            ),
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
        # Left folds from int 0 (``sum``'s, compensated on CPython 3.12).
        total, local = 0, {}
        for node, size in sources:
            total += size
            local[node] = local.get(node, 0) + size

        # Source uplink contributions are candidate-independent except for
        # the bytes that become local; query once per distinct source (a
        # source that did not answer is asked again if it is listed again,
        # and is otherwise scored without its uplink).
        uplinks: Dict[NodeId, Any] = {}
        for node, _size in sources:
            if node not in uplinks:
                request = CoflowPredictionRequest(
                    total_size=total, size_on_link=local[node], direction="out"
                )
                uplinks.update(self._query((node,), request))
        incoming = dict.fromkeys(candidates, 0)
        for host in incoming:
            for node, size in sources:
                if node != host:
                    incoming[host] += size
        answers: Dict[NodeId, Any] = {}
        for host in candidates:  # one-host rounds, in candidate order
            if incoming[host] > 0:
                request = CoflowPredictionRequest(
                    total_size=total, size_on_link=incoming[host], direction="in"
                )
                answers.update(self._query((host,), request))

        def cct(host: NodeId) -> float:
            """Bottleneck of the host's downlink and the other uplinks."""
            times = [answers[host].predicted_time]
            times += [r.predicted_time for n, r in uplinks.items() if n != host]
            return max(times)

        scores = [
            0.0  # every byte is already here
            if incoming[host] <= 0
            else cct(host)
            if host in answers
            else _INF
            for host in candidates
        ]
        return self._choose(
            candidates,
            scores,
            kind="reducer",
            tag=tag,
            size=total,
            load=total,
            data_node=max(sources, key=lambda s: s[1])[0],
            candidates=candidates,
            queried=answers,
        )

    # ------------------------------------------------------------------
    # Cache maintenance
    # ------------------------------------------------------------------
    def _note_placed(self, host: NodeId, size: float) -> None:
        """Optimistic cache update: the node now carries a flow of ``size``."""
        current = self._node_state_cache.get(host, _INF)
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
