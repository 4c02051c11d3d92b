"""The flow-level network fabric.

:class:`NetworkFabric` couples the rate allocator (scheduling policy) to the
discrete-event engine.  Rates are recomputed whenever the set of flows
changes (arrival or completion) and whenever the allocator reports an
internal change point (LAS attained-service and SRPT remaining-size
crossings); between recomputes every flow progresses linearly at its
assigned rate, so completions are exact in the fluid model.

Rate recomputation is *incremental*: an event dirties only the links its
flow touches, the recompute's scope is the connected component of the
flow-link sharing graph on those links (flows sharing a link drag their
other links in; the fabric keeps the components as flows come and go),
and the allocator runs on that component alone.  Because every
``incremental_safe`` allocator couples flows exclusively through
shared-link capacities, links outside the component keep their cached
rates and their flows' completion events stay untouched.

Allocators whose priorities couple flows across *disjoint* links (the
coflow policies: MADD spreads a coflow's progress over all its flows) set
``incremental_safe = False`` and always receive the full active set.

This module is the stand-in for the paper's ns2 substrate.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Collection,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import FlowError, RoutingError
from repro.network.flow import Flow, FlowId, FlowRecord
from repro.network.policies.base import RATE_EPSILON, RateAllocator
from repro.sim.engine import Engine
from repro.sim.events import RECOMPUTE_PRIORITY, Event
from repro.topology.base import LinkId, NodeId, Topology
from repro.topology.routing import Router

if TYPE_CHECKING:  # pragma: no cover - avoids a network<->telemetry cycle
    from repro.telemetry import Telemetry

CompletionListener = Callable[[Flow, FlowRecord], None]

_INF = float("inf")


class _Component:
    """One connected component of the flow-link sharing graph, kept as
    flows come and go: its flows, the links they occupy and the allocator
    change-point (hint) event pending for it."""

    __slots__ = ("flows", "links", "hint_event")

    def __init__(self) -> None:
        self.flows: Dict[FlowId, Flow] = {}
        self.links: Set[LinkId] = set()
        self.hint_event: Optional[Event] = None


def _coflow_groups(flows: Collection[Flow], floor: float = 0.0):
    """Synced ``flows`` by coflow, a bare flow being its own: one ``[total,
    bits among flows, arrival]`` per coflow, its residual total summed once
    and raised to ``floor`` (0.0 keeps a total as it is: never negative)."""
    groups: Dict[object, List[float]] = {}
    for flow in flows:
        unit = flow.coflow or flow
        entry = groups.get(unit)
        if entry is None:
            total = (flow.remaining if unit is flow
                     else max(unit.remaining_total, floor))
            entry = groups[unit] = [total, 0.0, unit.arrival_time]
        entry[1] += flow.remaining
    return groups.values()


class NetworkFabric:
    """Fluid-model network simulator with a pluggable scheduling policy."""

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        allocator: RateAllocator,
        *,
        router: Optional[Router] = None,
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        self._engine = engine
        self._topology = topology
        self._allocator = allocator
        self._router = router or Router(topology)
        # Occupied link -> its sharing component; None for an allocator
        # that cannot be scoped (its scope is always the full active set).
        self._component_on: Optional[Dict[LinkId, _Component]] = (
            {} if allocator.incremental_safe else None
        )
        # A hint belongs to a component; most allocators never ask for one.
        self._hinting = self._component_on is not None and (
            type(allocator).next_change_hint
            is not RateAllocator.next_change_hint
        )
        self._probe = (
            telemetry.attach("fabric") if telemetry is not None else None
        )
        self._capacities: Dict[LinkId, float] = {
            link.link_id: link.capacity for link in topology.links()
        }
        self._active: Dict[FlowId, Flow] = {}
        # Secondary indexes so per-link / per-host queries (placement
        # policies, daemons) stay O(local flows) instead of O(all flows).
        self._by_link: Dict[LinkId, Dict[FlowId, Flow]] = {}
        self._by_host: Dict[NodeId, Dict[FlowId, Flow]] = {}
        self._rates: Dict[FlowId, float] = {}
        # Per-flow progress bookkeeping: the time each flow's (remaining,
        # attained) pair was last brought up to date.  Progress is applied
        # lazily — untouched components pay nothing per foreign event.
        self._synced_at: Dict[FlowId, float] = {}
        self._completion_events: Dict[FlowId, Event] = {}
        self._records: List[FlowRecord] = []
        self._listeners: List[CompletionListener] = []
        self._arrival_listeners: List[Callable[[Flow], None]] = []
        self._next_flow_id = 0
        # Fault-injection state: failed links stay in the capacity map at
        # 0.0 (no flow crosses them — they are evacuated first), and
        # aborted flows are tallied for the degraded-mode telemetry.
        self._failed_links: Set[LinkId] = set()
        self._down_hosts: Set[NodeId] = set()
        self._flows_aborted = 0
        self._flows_rerouted = 0
        # Optimal FCTs are frozen at submit time: completion records must
        # not shift when a fault later degrades or fails a path link (and
        # the empty-network baseline is only well defined pre-fault).
        self._optimal_on_submit: Dict[FlowId, float] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def engine(self) -> Engine:
        return self._engine

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def router(self) -> Router:
        return self._router

    @property
    def allocator(self) -> RateAllocator:
        return self._allocator

    @property
    def records(self) -> Sequence[FlowRecord]:
        """Completion records, in completion order."""
        return tuple(self._records)

    def _sync_members(self, members: Dict[FlowId, Flow]) -> Collection[Flow]:
        """:meth:`_sync_flow` over ``members`` in one frame; their values."""
        now = self._engine.now
        synced_at = self._synced_at
        for flow_id, flow in members.items():
            dt = now - synced_at[flow_id]
            if dt > 0:
                rate = self._rates.get(flow_id, 0.0)
                if rate > RATE_EPSILON:
                    flow.advance(rate * dt)
                synced_at[flow_id] = now
        return members.values()

    def active_flows(self) -> List[Flow]:
        """Currently active flows (progress synced to *now*)."""
        return list(self._sync_members(self._active))

    def flows_on_link(self, link_id: LinkId) -> List[Flow]:
        """Active flows whose path crosses ``link_id`` (progress synced)."""
        return list(self._sync_members(self._by_link.get(link_id, {})))

    def flows_at_host(self, host: NodeId) -> List[Flow]:
        """Active flows sourced at or destined to ``host``."""
        return list(self._sync_members(self._by_host.get(host, {})))

    def host_edge_state(
        self, host: NodeId, link_id: LinkId
    ) -> Tuple[List[float], float]:
        """A network daemon's read, in one pass over ``host``'s flows: the
        residual sizes on ``link_id`` (in :meth:`flows_on_link` order) and
        the node state of §5.1.1, the smallest residual size at the host
        (inf when idle).  ``link_id`` must be an edge link of ``host``:
        its flows all start or end there, so they are synced by the pass.
        """
        node_state = _INF
        at_host = self._by_host.get(host)
        if at_host:
            now = self._engine.now
            for flow in at_host.values():
                self._sync_flow(flow, now)
                if flow.remaining < node_state:
                    node_state = flow.remaining
        on_link = self._by_link.get(link_id)
        sizes = [flow.remaining for flow in on_link.values()] if on_link else []
        return sizes, node_state

    def coflows_on_link(self, link_id: LinkId) -> Collection[List[float]]:
        """``[total, on_link, arrival]`` of each coflow crossing ``link_id``
        (residual; total at least 1e-9).  The link's flows are synced before
        any total is read, which sees the coflow's others as last synced."""
        on_link = self._by_link.get(link_id)
        if not on_link:
            return ()
        return _coflow_groups(self._sync_members(on_link), 1e-9)

    def host_coflow_state(self, host: NodeId) -> float:
        """Node state (§5.1.1) at coflow granularity, ``host``'s flows
        synced: the smallest residual coflow total there (inf when idle)."""
        at_host = self._by_host.get(host)
        if not at_host:
            return _INF
        groups = _coflow_groups(self._sync_members(at_host))
        return min([total for total, _, _ in groups])

    def current_rate(self, flow: Flow) -> float:
        """The flow's instantaneous allocated rate (bits/sec)."""
        return self._rates.get(flow.flow_id, 0.0)

    def link_queued_bits(self, link_id: LinkId) -> float:
        """Total remaining bits of flows crossing ``link_id``."""
        now = self._engine.now
        total = 0.0
        for flow in self._by_link.get(link_id, {}).values():
            self._sync_flow(flow, now)
            total += flow.remaining
        return total

    def host_queued_bits(self, host: NodeId) -> float:
        """Total remaining bits of flows sourced at or destined to
        ``host``, summed in :meth:`flows_at_host` order (0 when idle)."""
        now = self._engine.now
        total = 0
        for flow in self._by_host.get(host, {}).values():
            self._sync_flow(flow, now)
            total += flow.remaining
        return total

    def link_rate_utilization(self, link_id: LinkId) -> float:
        """Fraction of the link's capacity currently allocated."""
        capacity = self._capacities[link_id]
        used = sum(
            self._rates.get(flow_id, 0.0)
            for flow_id in self._by_link.get(link_id, {})
        )
        return used / capacity if capacity > 0 else 0.0

    def link_capacity(self, link_id: LinkId) -> float:
        """Current (possibly degraded) capacity of ``link_id``."""
        return self._capacities[link_id]

    @property
    def failed_links(self) -> Set[LinkId]:
        """Links taken down by fault injection (capacity pinned at 0)."""
        return set(self._failed_links)

    @property
    def down_hosts(self) -> Set[NodeId]:
        """Hosts taken down by fault injection."""
        return set(self._down_hosts)

    def host_is_up(self, host: NodeId) -> bool:
        """False once :meth:`fail_host` has taken ``host`` down."""
        return host not in self._down_hosts

    @property
    def flows_aborted(self) -> int:
        """Flows aborted because a failed link left them no route."""
        return self._flows_aborted

    @property
    def flows_rerouted(self) -> int:
        """Flows moved to an alternate path after a link failure."""
        return self._flows_rerouted

    def optimal_fct(self, src: NodeId, dst: NodeId, size: float) -> float:
        """Empty-network transfer time: size over the path's bottleneck.

        Host-local transfers are free (zero network time), which is exactly
        how data locality pays off in the model.
        """
        path = self._router.path(src, dst)
        if not path.links:
            return 0.0
        bottleneck = min(self._capacities[link] for link in path.links)
        return size / bottleneck

    # ------------------------------------------------------------------
    # Flow lifecycle
    # ------------------------------------------------------------------
    def add_completion_listener(self, listener: CompletionListener) -> None:
        """Register a callback fired at each flow completion."""
        self._listeners.append(listener)

    def add_arrival_listener(self, listener: Callable[[Flow], None]) -> None:
        """Register a callback fired when a (non-local) flow enters the
        network — used by network daemons maintaining incremental state."""
        self._arrival_listeners.append(listener)

    def submit(
        self,
        src: NodeId,
        dst: NodeId,
        size: float,
        *,
        tag: str = "",
        coflow=None,
    ) -> Flow:
        """Inject a new flow into the network at the current time."""
        path = self._router.path(src, dst)
        flow = Flow(
            flow_id=self._next_flow_id,
            src=src,
            dst=dst,
            size=size,
            path=path.links,
            arrival_time=self._engine.now,
            coflow=coflow,
            tag=tag,
        )
        self._next_flow_id += 1
        if path.links:
            bottleneck = min(self._capacities[link] for link in path.links)
            self._optimal_on_submit[flow.flow_id] = size / bottleneck
        else:
            self._optimal_on_submit[flow.flow_id] = 0.0
        if coflow is not None:
            coflow.attach_flow(flow)
        probe = self._probe
        if probe is not None:
            probe.on_flow_submit(
                self._engine.now, flow, self._optimal_on_submit[flow.flow_id]
            )
        if flow.is_local:
            # Data is already on the destination host: finishes instantly.
            flow.advance(flow.remaining)
            self._finish_flow(flow)
            return flow
        self._active[flow.flow_id] = flow
        self._synced_at[flow.flow_id] = self._engine.now
        for link_id in flow.path:
            self._by_link.setdefault(link_id, {})[flow.flow_id] = flow
        self._by_host.setdefault(flow.src, {})[flow.flow_id] = flow
        self._by_host.setdefault(flow.dst, {})[flow.flow_id] = flow
        if self._component_on is not None:
            self._join(flow)
        self._allocator.note_arrival(flow)
        for listener in self._arrival_listeners:
            listener(flow)
        self._recompute(flow.path)
        return flow

    def cancel_flow(self, flow: Flow) -> None:
        """Abort an active flow without completing it.

        Models task preemption / failure: the flow's traffic vanishes and
        remaining bandwidth is re-shared immediately.  No completion
        record is appended and listeners do not fire.  Flows belonging to
        a coflow cannot be cancelled (the coflow's CCT would be
        undefined); fail the whole coflow at the application layer
        instead.
        """
        if flow.coflow is not None:
            raise FlowError(
                f"flow {flow.flow_id} belongs to coflow "
                f"{flow.coflow.coflow_id}; cancel at coflow granularity"
            )
        if flow.flow_id not in self._active:
            raise FlowError(f"flow {flow.flow_id} is not active")
        self._optimal_on_submit.pop(flow.flow_id, None)
        self._drop_flow(flow)
        self._recompute(flow.path)

    # ------------------------------------------------------------------
    # Fault injection (data plane)
    # ------------------------------------------------------------------
    def degrade_link(self, link_id: LinkId, factor: float) -> None:
        """Scale ``link_id``'s capacity by ``factor`` (> 0) and re-share.

        Factors below 1 degrade, above 1 restore — a fault plan expresses
        a brown-out window as degrade followed by the inverse restore.
        Degrading an already-failed link is a no-op (its capacity is
        pinned at zero until the run ends).
        """
        self._topology.link(link_id)  # raises TopologyError on bad ids
        if factor <= 0.0:
            raise FlowError(
                f"degrade factor must be > 0, got {factor!r} "
                "(use fail_link to take a link down)"
            )
        if link_id in self._failed_links:
            return
        self._set_capacity(
            link_id, self._capacities[link_id] * factor, (link_id,),
            factor=factor,
        )

    def fail_link(self, link_id: LinkId) -> None:
        """Permanently fail ``link_id``.

        Every flow crossing the link is first *evacuated* — rerouted onto
        an alternate path when the router still has one, aborted
        otherwise — and only then is the capacity pinned at zero; the
        allocator therefore never sees a flow on a zero-capacity link
        (which would violate work conservation).  Idempotent.
        """
        self._topology.link(link_id)
        if link_id in self._failed_links:
            return
        self._failed_links.add(link_id)
        self._router.fail_link(link_id)
        now = self._engine.now
        dirty: Set[LinkId] = {link_id}
        victims = sorted(self._by_link.get(link_id, {}))
        for flow_id in victims:
            flow = self._active.get(flow_id)
            if flow is None:  # pragma: no cover - defensive
                continue
            self._sync_flow(flow, now)
            dirty.update(flow.path)
            if flow.finished:
                self._drop_flow(flow)
                self._finish_flow(flow)
                continue
            try:
                new_path = self._router.path(flow.src, flow.dst)
            except RoutingError:
                new_path = None
            if new_path is None:
                self._abort_flow(flow)
            else:
                self._reroute_flow(flow, new_path.links)
                dirty.update(flow.path)
        self._set_capacity(
            link_id, 0.0, tuple(sorted(dirty)), victims=len(victims)
        )

    def _set_capacity(
        self,
        link_id: LinkId,
        capacity: float,
        dirty_links: Sequence[LinkId],
        *,
        factor: Optional[float] = None,
        victims: int = 0,
    ) -> None:
        """Apply a degraded (``factor``) or failed (``victims`` flows
        evacuated) link's new capacity and re-share around it."""
        self._capacities[link_id] = capacity
        probe = self._probe
        if probe is not None:
            probe.on_capacity(
                self._engine.now, link_id, capacity, factor, victims
            )
        self._recompute(dirty_links)

    def fail_host(self, host: NodeId) -> None:
        """Take ``host`` down: both its edge links fail.

        Flows touching the host abort (no alternate path reaches a dead
        host); other flows transiting its links reroute where possible.
        """
        if host not in self._topology.hosts:
            raise FlowError(f"fail_host: {host!r} is not a host")
        if host in self._down_hosts:
            return
        self._down_hosts.add(host)
        probe = self._probe
        if probe is not None:
            probe.on_host_down(self._engine.now, host)
        self.fail_link(self._topology.host_uplink(host).link_id)
        self.fail_link(self._topology.host_downlink(host).link_id)

    def _reroute_flow(self, flow: Flow, new_links: Tuple[LinkId, ...]) -> None:
        """Move an active flow onto a new path (indexes + path swap); the
        allocator sees it leave the old path and arrive on the new one."""
        flow_id = flow.flow_id
        self._allocator.note_removal(flow)
        for link_id in flow.path:
            self._by_link[link_id].pop(flow_id, None)
        if self._component_on is not None:
            self._leave(flow)
        flow.path = new_links
        for link_id in new_links:
            self._by_link.setdefault(link_id, {})[flow_id] = flow
        if self._component_on is not None:
            self._join(flow)
        self._allocator.note_arrival(flow)
        self._flows_rerouted += 1
        probe = self._probe
        if probe is not None:
            probe.on_reroute(self._engine.now, flow)

    def _abort_flow(self, flow: Flow) -> None:
        """Drop a flow that lost its only path.

        No completion record is appended (the transfer never finished) and
        completion listeners do not fire; a coflow member's coflow simply
        never completes — the failed job shows up in the abort counters,
        not in the CCT statistics.
        """
        self._optimal_on_submit.pop(flow.flow_id, None)
        self._drop_flow(flow)
        self._flows_aborted += 1
        probe = self._probe
        if probe is not None:
            probe.on_abort(self._engine.now, flow)

    # ------------------------------------------------------------------
    # Internals: progress bookkeeping
    # ------------------------------------------------------------------
    def _sync_flow(self, flow: Flow, now: float) -> None:
        """Apply linear progress to one flow since its last sync."""
        flow_id = flow.flow_id
        dt = now - self._synced_at[flow_id]
        if dt > 0:
            rate = self._rates.get(flow_id, 0.0)
            if rate > RATE_EPSILON:
                flow.advance(rate * dt)
            self._synced_at[flow_id] = now

    def _drop_flow(self, flow: Flow) -> None:
        """Remove a flow from every index (completion or cancellation)."""
        flow_id = flow.flow_id
        del self._active[flow_id]
        self._rates.pop(flow_id, None)
        self._synced_at.pop(flow_id, None)
        event = self._completion_events.pop(flow_id, None)
        if event is not None:
            self._engine.cancel(event)
        for link_id in flow.path:
            self._by_link[link_id].pop(flow_id, None)
        if self._component_on is not None:
            self._leave(flow)
        self._by_host[flow.src].pop(flow_id, None)
        self._by_host[flow.dst].pop(flow_id, None)
        self._allocator.note_removal(flow)

    def _finish_flow(self, flow: Flow) -> None:
        flow.completion_time = self._engine.now
        optimal = self._optimal_on_submit.pop(flow.flow_id, None)
        if optimal is None:  # pragma: no cover - flows always pass submit()
            optimal = self.optimal_fct(flow.src, flow.dst, flow.size)
        record = FlowRecord(
            flow_id=flow.flow_id,
            src=flow.src,
            dst=flow.dst,
            size=flow.size,
            arrival_time=flow.arrival_time,
            completion_time=flow.completion_time,
            optimal_fct=optimal,
            tag=flow.tag,
            coflow_id=flow.coflow.coflow_id if flow.coflow is not None else None,
        )
        self._records.append(record)
        probe = self._probe
        if probe is not None:
            probe.on_flow_done(self._engine.now, record)
        if flow.coflow is not None:
            flow.coflow.note_flow_finished(flow, self._engine.now)
        for listener in self._listeners:
            listener(flow, record)

    # ------------------------------------------------------------------
    # Internals: the sharing components, kept as flows come and go
    # ------------------------------------------------------------------
    def _cancel_hint(self, component: _Component) -> None:
        if component.hint_event is not None:
            self._engine.cancel(component.hint_event)
            component.hint_event = None

    def _join(self, flow: Flow) -> None:
        """``flow`` arrived on its path: the components on those links
        merge, smaller into larger, and take it in.  No graph walk."""
        component_on = self._component_on
        home: Optional[_Component] = None
        for link_id in flow.path:
            other = component_on.get(link_id)
            if other is None or other is home:
                continue
            if home is None:
                home = other
                continue
            if len(other.flows) > len(home.flows):
                home, other = other, home
            self._cancel_hint(other)
            home.flows.update(other.flows)
            home.links |= other.links
            for absorbed in other.links:
                component_on[absorbed] = home
        if home is None:
            home = _Component()
        self._cancel_hint(home)
        home.flows[flow.flow_id] = flow
        home.links.update(flow.path)
        for link_id in flow.path:
            component_on[link_id] = home

    def _leave(self, flow: Flow) -> None:
        """``flow`` (already off the link index) left its component: the
        links it emptied go with it, and the component is split if it was
        the only bridge.  Only the links of its own path that still carry
        others can have come apart."""
        component_on = self._component_on
        component = component_on[flow.path[0]]
        self._cancel_hint(component)
        del component.flows[flow.flow_id]
        shared: List[LinkId] = []
        for link_id in flow.path:
            if self._by_link[link_id]:
                shared.append(link_id)
            else:
                component_on.pop(link_id, None)
                component.links.discard(link_id)
        if len(shared) > 1:
            self._split(component, shared)

    def _split(self, component: _Component, shared: List[LinkId]) -> None:
        """Re-derive ``component`` around ``shared``, links of it that one
        flow no longer joins: walk the sharing graph from one of them and
        stop as soon as the rest are reached.  A walk that runs dry has
        found a whole component; it is carved out and the links it did
        not reach go again.  Deterministic: the walk follows the
        insertion-ordered link indexes."""
        component_on = self._component_on
        while len(shared) > 1:
            unreached = set(shared[1:])
            flows: Dict[FlowId, Flow] = {}
            links: Set[LinkId] = {shared[0]}
            frontier: List[LinkId] = [shared[0]]
            while frontier and unreached:
                for flow_id, flow in self._by_link[frontier.pop()].items():
                    if flow_id in flows:
                        continue
                    flows[flow_id] = flow
                    for link_id in flow.path:
                        if link_id not in links:
                            links.add(link_id)
                            frontier.append(link_id)
                            unreached.discard(link_id)
            if not unreached:
                return
            part = _Component()
            part.flows, part.links = flows, links
            for flow_id in flows:
                del component.flows[flow_id]
            component.links -= links
            for link_id in links:
                component_on[link_id] = part
            shared = [link_id for link_id in shared if link_id in unreached]

    # ------------------------------------------------------------------
    # Internals: rate recomputation
    # ------------------------------------------------------------------
    def _recompute(
        self,
        dirty_links: Collection[LinkId],
        scope: Optional[List[_Component]] = None,
    ) -> None:
        """Recompute rates for the component(s) touching ``dirty_links``
        (``scope``, when the caller holds them already).  For an
        allocator that is not ``incremental_safe`` everything is dirty.
        """
        probe = self._probe
        now = self._engine.now
        component_on = self._component_on
        span = (
            probe.enter_recompute(component_on is not None)
            if probe is not None else None
        )
        if component_on is None:
            comp_flows = [self._active[fid] for fid in sorted(self._active)]
            comp_links = {
                link_id
                for link_id, members in self._by_link.items()
                if members
            }
        else:
            expand_span = probe.enter_expand() if probe is not None else None
            if scope is None:
                scope = []
                for link_id in dirty_links:
                    component = component_on.get(link_id)
                    if component is not None and component not in scope:
                        scope.append(component)
            # Snapshots: flows that finish while settling leave, and a
            # removal re-shapes the components under them.
            members: Dict[FlowId, Flow] = {}
            comp_links = set(dirty_links)
            for component in scope:
                self._cancel_hint(component)  # superseded by this recompute
                members.update(component.flows)
                comp_links |= component.links
            comp_flows = [members[fid] for fid in sorted(members)]
            if expand_span is not None:
                probe.exit_expand(expand_span)

        for flow in comp_flows:
            self._sync_flow(flow, now)

        survivors: List[Flow] = []
        for flow in comp_flows:
            if flow.finished:
                self._drop_flow(flow)
                self._finish_flow(flow)
            else:
                survivors.append(flow)
        if survivors:
            if component_on is None and len(survivors) != len(self._active):
                # A completion listener submitted while settling: the
                # unscoped allocator still gets the whole active set.
                survivors = [self._active[fid] for fid in sorted(self._active)]
            self._reallocate(survivors, comp_links, len(comp_flows), now)
            if self._hinting:
                self._schedule_hints(
                    survivors,
                    len(scope) == 1 and len(survivors) == len(comp_flows),
                )
        if span is not None:
            probe.exit_recompute(span)

    def _schedule_hints(self, survivors: List[Flow], intact: bool) -> None:
        """Schedule the next allocator change point of every component
        among ``survivors``, a recompute's settled scope.  ``intact``: it
        was one component and lost nobody, so it still is.  Otherwise a
        removal may have split it: one hint per component left, in order
        of its smallest flow id (engine sequence numbers follow it)."""
        component_on = self._component_on
        components = [component_on[survivors[0].path[0]]]
        if not intact:
            for flow in survivors:
                component = component_on[flow.path[0]]
                if component not in components:
                    components.append(component)
        for component in components:
            self._cancel_hint(component)  # one left by a re-entrant submit
            members = survivors if intact else [
                component.flows[fid] for fid in sorted(component.flows)
            ]
            hint = self._allocator.next_change_hint(members, self._rates)
            if hint is not None and 0 < hint < _INF:
                component.hint_event = self._engine.schedule(
                    hint,
                    lambda component=component: self._on_hint(component),
                    priority=RECOMPUTE_PRIORITY,
                    label="fabric-hint",
                )

    def _reallocate(
        self,
        comp_flows: List[Flow],
        comp_links: Set[LinkId],
        component_size: int,
        now: float,
    ) -> None:
        """Allocate the settled component and splice the rates in
        (``component_size`` counts the flows that finished while settling
        too)."""
        probe = self._probe
        span = None
        if probe is not None:
            probe.on_recompute(
                now, len(self._active), component_size, len(comp_links),
                self._component_on is not None,
            )
            span = probe.enter_alloc(self._allocator.name)
        # Allocators only look links up, so they are handed the map itself.
        rates = self._allocator.allocate(comp_flows, self._capacities)
        if span is not None:
            probe.exit_alloc(span)

        span = probe.enter_splice() if probe is not None else None
        self._splice_rates(comp_flows, rates, now)
        if span is not None:
            probe.exit_splice(span)

    def _splice_rates(
        self,
        comp_flows: Sequence[Flow],
        rates: Dict[FlowId, float],
        now: float,
    ) -> None:
        """Apply a fresh rate map into the cached rates and reschedule
        the completion events of every flow whose rate changed."""
        probe = self._probe
        progressed = False
        for flow in comp_flows:
            flow_id = flow.flow_id
            new_rate = rates.get(flow_id, 0.0)
            changed = new_rate != self._rates.get(flow_id, 0.0)
            if new_rate > RATE_EPSILON:
                progressed = True
            self._rates[flow_id] = new_rate
            if changed and probe is not None:
                probe.on_rate(now, flow_id, new_rate)
            if changed or (
                new_rate > RATE_EPSILON
                and flow_id not in self._completion_events
            ):
                self._reschedule_completion(flow, new_rate, now)
        if not progressed:
            raise FlowError(
                "no flow is making progress; allocator "
                f"{self._allocator.name!r} is not work-conserving"
            )

    def _reschedule_completion(self, flow: Flow, rate: float, now: float) -> None:
        flow_id = flow.flow_id
        event = self._completion_events.pop(flow_id, None)
        if event is not None:
            self._engine.cancel(event)
        if rate > RATE_EPSILON:
            self._completion_events[flow_id] = self._engine.schedule(
                max(flow.remaining / rate, 0.0),
                lambda f=flow: self._on_completion(f),
                priority=RECOMPUTE_PRIORITY,
                label="fabric-completion",
            )

    def _on_completion(self, flow: Flow) -> None:
        self._completion_events.pop(flow.flow_id, None)
        if flow.flow_id not in self._active:  # pragma: no cover - defensive
            return
        # The event time is authoritative: it was scheduled at exactly
        # remaining/rate under a rate that has not changed since (any
        # change reschedules).  Whatever residue float time arithmetic
        # leaves is dust — clamp it, or a sub-ulp reschedule could fire
        # at this same timestamp forever.
        self._sync_flow(flow, self._engine.now)
        if not flow.finished:
            flow.advance(flow.remaining)
        self._recompute(flow.path)

    def _on_hint(self, component: _Component) -> None:
        component.hint_event = None
        self._recompute((), [component])
