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

from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Callable,
    Collection,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import FlowError, RoutingError
from repro.network.flow import Flow, FlowId, FlowRecord
from repro.network.policies.base import RATE_EPSILON, RateAllocator
from repro.network.kernels import ARGMIN_FLOOR, GroupFill, can_bind  # after policies
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
        self.engine = engine
        self.topology = topology
        self.allocator = allocator
        self.router = router or Router(topology)
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
        # Fill only an event's binding closure (DESIGN.md §5.1).
        self._narrowing = allocator.one_max_min_group and allocator.incremental_safe
        self._crowded: Set[LinkId] = set()  # occupied, share < ARGMIN_FLOOR
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
        # The priority closure (DESIGN.md §5.1): each flow's rank and entry
        # residuals in its last one-flow fill, and the links changed since.
        closure = type(allocator).allocate is GroupFill.allocate
        self._fills: Optional[Dict[FlowId, list]] = {} if closure and (
            self._component_on is not None and not self._narrowing) else None
        self._changed: Set[LinkId] = set()
        # Per-flow progress bookkeeping: the time each flow's (remaining,
        # attained) pair was last brought up to date, by an event of its
        # component (reads compute residuals and write nothing).
        self._synced_at: Dict[FlowId, float] = {}
        self._completion_events: Dict[FlowId, Event] = {}
        self._records: List[FlowRecord] = []
        self._listeners: List[CompletionListener] = []
        self._settled: List[Tuple[Flow, FlowRecord]] = []  # not yet notified
        self._arrival_listeners: List[Callable[[Flow], None]] = []
        self._batch: Optional[Dict[LinkId, None]] = None  # see :meth:`batch`
        self._next_flow_id = 0
        # Fault-injection state: failed links stay in the capacity map at
        # 0.0 (no flow crosses them — they are evacuated first), and
        # aborted flows are tallied for the degraded-mode telemetry.
        self._failed_links: Set[LinkId] = set()
        self._down_hosts: Set[NodeId] = set()
        self._flows_aborted = 0
        self._flows_rerouted = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def records(self) -> Sequence[FlowRecord]:
        """Completion records, in completion order."""
        return tuple(self._records)

    def _sync_members(self, members: Dict[FlowId, Flow]) -> None:
        """Advance ``members`` to now at their cached rates (events only), in
        place: ``Flow.advance``'s ``min(bits, remaining)`` without a call."""
        now, synced_at, rates = self.engine.now, self._synced_at, self._rates
        for flow_id, flow in members.items():
            dt = now - synced_at[flow_id]
            if dt > 0:
                rate = rates.get(flow_id, 0.0)
                if rate > RATE_EPSILON:
                    moved, remaining = rate * dt, flow.remaining
                    moved = remaining if remaining < moved else moved
                    flow.remaining = remaining - moved
                    flow.attained += moved
                synced_at[flow_id] = now

    def _residuals(self, groups: Sequence[Collection[Flow]]) -> Dict[FlowId, float]:
        """The remaining bits now of every flow in ``groups``, by id, in one
        frame and stored nowhere: the float :meth:`_sync_members` would leave
        in ``remaining`` (``remaining - min(rate * dt, remaining)``, spelled
        without a call).  A flow no longer active reads as it ended."""
        now, synced_at, rates = self.engine.now, self._synced_at, self._rates
        residuals: Dict[FlowId, float] = {}
        for flows in groups:
            for flow in flows:
                flow_id = flow.flow_id
                if flow_id in residuals:
                    continue
                remaining = flow.remaining
                dt = now - synced_at.get(flow_id, now)
                if dt > 0:
                    rate = rates.get(flow_id, 0.0)
                    if rate > RATE_EPSILON:
                        moved = rate * dt
                        remaining = remaining - moved if moved < remaining else 0.0
                residuals[flow_id] = remaining
        return residuals

    def residual(self, flow: Flow) -> float:
        """``flow``'s remaining bits now.  Only events write progress, so
        ``flow.remaining`` is as of the last event that touched it."""
        return self._residuals(((flow,),))[flow.flow_id]

    def active_flows(self) -> List[Flow]:
        """Currently active flows (their residuals: :meth:`residual`)."""
        return list(self._active.values())

    def flows_on_link(self, link_id: LinkId) -> List[Flow]:
        """Active flows whose path crosses ``link_id``."""
        return list(self._by_link.get(link_id, {}).values())

    def flows_at_host(self, host: NodeId) -> List[Flow]:
        """Active flows sourced at or destined to ``host``."""
        return list(self._by_host.get(host, {}).values())

    def host_edge_states(
        self, reads: Sequence[Tuple[NodeId, LinkId]]
    ) -> List[Tuple[List[float], float]]:
        """The network daemons' read of each ``(host, its edge link)``, in
        order: the residual sizes on the link (:meth:`flows_on_link` order)
        and the node state of §5.1.1 (the smallest residual size at the
        host, inf when idle).  One pass over each host's flows, which
        include the link's (an idle host is one lookup), each residual the
        float :meth:`_residuals` gives, and no map kept across hosts."""
        now, synced_at, rates = self.engine.now, self._synced_at, self._rates
        by_host, by_link = self._by_host, self._by_link
        states = []
        for host, link_id in reads:
            at_host = by_host.get(host)
            if not at_host:
                states.append(([], _INF))
                continue
            on_link, node_state, sizes = by_link.get(link_id, ()), _INF, []
            for flow_id, flow in at_host.items():
                remaining = flow.remaining
                dt = now - synced_at[flow_id]
                if dt > 0:
                    rate = rates.get(flow_id, 0.0)
                    if rate > RATE_EPSILON:
                        moved = rate * dt
                        remaining = remaining - moved if moved < remaining else 0.0
                if remaining < node_state:
                    node_state = remaining
                if flow_id in on_link:
                    sizes.append(remaining)
            if len(sizes) > 1:  # a reroute re-inserts a flow into the link only
                bits = dict(zip(filter(on_link.__contains__, at_host), sizes))
                sizes = [bits[flow_id] for flow_id in on_link]
            states.append((sizes, node_state))
        return states

    def coflow_edge_states(
        self, reads: Sequence[Tuple[Optional[NodeId], LinkId]]
    ) -> List[Tuple[List[Tuple[float, float, float]], float]]:
        """The network daemons' CCT read of each ``(host, edge link)``, in
        order: a residual ``(total, on_link, arrival)`` per coflow on the
        link (a bare flow is its own; link-index order; a coflow's total at
        least 1e-9; ``0 < on_link <= total``) and the node state at coflow
        granularity (the smallest residual coflow total at the host, inf when
        idle; a host of ``None`` reads the link alone).  A coflow's total is
        its members' residuals summed left."""
        by_host, by_link = self._by_host, self._by_link
        pairs = [(by_link.get(link_id), by_host.get(host)) for host, link_id in reads]
        # The host's flows include its edge link's.
        touched = [(at_host or on_link).values()
                   for on_link, at_host in pairs if at_host or on_link]
        totals = {flow.coflow: 0 for flows in touched for flow in flows
                  if flow.coflow is not None}
        residuals = self._residuals([*touched, *[unit.flows for unit in totals]])
        for unit in totals:
            total = 0
            for flow in unit.flows:
                total += residuals[flow.flow_id]
            totals[unit] = total
        states = []
        for on_link, at_host in pairs:
            coflows, node_state = [], _INF
            if on_link:
                groups: Dict[object, List[float]] = {}
                for flow_id, flow in on_link.items():
                    unit, bits = flow.coflow or flow, residuals[flow_id]
                    entry = groups.get(unit)
                    if entry is None:
                        total = bits if unit is flow else max(totals[unit], 1e-9)
                        entry = groups[unit] = [total, 0.0, unit.arrival_time]
                    entry[1] += bits
                coflows = [(total, bits if bits < total else total, arrival)
                           for total, bits, arrival in groups.values() if bits > 0]
            for flow_id, flow in at_host.items() if at_host else ():
                unit = flow.coflow
                total = residuals[flow_id] if unit is None else totals[unit]
                if total < node_state:
                    node_state = total
            states.append((coflows, node_state))
        return states

    def link_queued_bits(self, link_id: LinkId) -> float:
        """Total residual bits of flows crossing ``link_id``."""
        total = 0.0
        for bits in self._residuals((self.flows_on_link(link_id),)).values():
            total += bits
        return total

    def hosts_queued_bits(self, hosts: Sequence[NodeId]) -> List[float]:
        """minLoad's read of each host's load, in order: the residual bits
        of its flows (as :meth:`host_edge_states` computes them), summed
        left from int 0 in :meth:`flows_at_host` order (0 when idle)."""
        now, synced_at, rates = self.engine.now, self._synced_at, self._rates
        by_host = self._by_host
        totals = []
        for host in hosts:
            total, at_host = 0, by_host.get(host)
            for flow_id, flow in at_host.items() if at_host else ():
                remaining = flow.remaining
                dt = now - synced_at[flow_id]
                if dt > 0:
                    rate = rates.get(flow_id, 0.0)
                    if rate > RATE_EPSILON:
                        moved = rate * dt
                        remaining = remaining - moved if moved < remaining else 0.0
                total += remaining
            totals.append(total)
        return totals

    def link_rate_utilization(self, link_id: LinkId) -> float:
        """Fraction of the link's capacity currently allocated."""
        capacity, rates, used = self._capacities[link_id], self._rates, 0
        for flow_id in self._by_link.get(link_id, {}):
            used += rates.get(flow_id, 0.0)
        return used / capacity if capacity > 0 else 0.0

    def link_capacity(self, link_id: LinkId) -> float:
        """Current (possibly degraded) capacity of ``link_id``."""
        return self._capacities[link_id]

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
        """Empty-network transfer time: size over the path's bottleneck, 0.0
        when host-local (how data locality pays off in the model)."""
        links = self.router.path(src, dst).links
        return size / min(map(self._capacities.get, links), default=_INF)

    # ------------------------------------------------------------------
    # Flow lifecycle
    # ------------------------------------------------------------------
    def add_completion_listener(self, listener: CompletionListener) -> None:
        """Register a callback fired at each flow completion, after the
        recompute that settled it (DESIGN.md §5.1, "Listeners")."""
        self._listeners.append(listener)

    def add_arrival_listener(self, listener: Callable[[Flow], None]) -> None:
        """Register a callback fired once a (non-local) flow has entered the
        network and been allocated, or only registered inside a :meth:`batch`
        (network daemons' incremental state)."""
        self._arrival_listeners.append(listener)

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Recompute once, on leaving (by an exception too), for every
        submit made inside: each still syncs and settles its scope and fires
        the arrival listeners, but the allocation, rate splice and hints wait
        for the union of their scopes (DESIGN.md §5.2.1, "One allocation per
        instant").  No simulated time may pass inside."""
        outer, self._batch = self._batch, {}
        try:
            yield
        finally:
            dirty, self._batch = self._batch, outer
            if dirty:
                self._recompute(dirty)

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
        path = self.router.path(src, dst)
        flow = Flow(
            flow_id=self._next_flow_id,
            src=src,
            dst=dst,
            size=size,
            path=path.links,
            arrival_time=self.engine.now,
            coflow=coflow,
            tag=tag,
        )
        self._next_flow_id += 1
        # A path's bottleneck capacity; inf (optimal FCT 0.0) when local.  The
        # optimal FCT is frozen here: a record must not shift when a fault
        # later degrades a path link (the empty network is pre-fault).
        flow._bottleneck = min(map(self._capacities.get, path.links), default=_INF)
        flow._optimal = size / flow._bottleneck
        if coflow is not None:
            coflow.attach_flow(flow)
        probe = self._probe
        if probe is not None:
            probe.on_flow_submit(self.engine.now, flow, flow._optimal)
        if flow.is_local:
            # Data is already on the destination host: finishes instantly.
            flow.advance(flow.remaining)
            self._finish_flow(flow)
            self._notify_settled()
            return flow
        self._active[flow.flow_id] = flow
        self._synced_at[flow.flow_id] = self.engine.now
        for link_id in flow.path:
            self._by_link.setdefault(link_id, {})[flow.flow_id] = flow
        self._by_host.setdefault(flow.src, {})[flow.flow_id] = flow
        self._by_host.setdefault(flow.dst, {})[flow.flow_id] = flow
        if self._component_on is not None:
            self._join(flow)
        self._recompute(flow.path, departed=[])
        for listener in self._arrival_listeners:
            listener(flow)
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
        self._drop_flow(flow)
        self._recompute(flow.path, departed=[flow])

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
        self.topology.link(link_id)  # raises TopologyError on bad ids
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
        self.topology.link(link_id)
        if link_id in self._failed_links:
            return
        self._failed_links.add(link_id)
        self.router.fail_link(link_id)
        dirty: Set[LinkId] = {link_id}
        victims = sorted(self._by_link.get(link_id, {}))
        for flow_id in victims:
            flow = self._active[flow_id]
            self._sync_members({flow_id: flow})
            dirty.update(flow.path)
            if flow.finished:
                self._drop_flow(flow)
                self._finish_flow(flow)
                continue
            try:
                new_path = self.router.path(flow.src, flow.dst)
            except RoutingError:
                self._abort_flow(flow)
                continue
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
        for flow in self._by_link.get(link_id, {}).values():
            flow._bottleneck = min(map(self._capacities.get, flow.path))
        self._recount((link_id,))
        probe = self._probe
        if probe is not None:
            probe.on_capacity(
                self.engine.now, link_id, capacity, factor, victims
            )
        self._recompute(dirty_links)

    def fail_host(self, host: NodeId) -> None:
        """Take ``host`` down: both its edge links fail.

        Flows touching the host abort (no alternate path reaches a dead
        host); other flows transiting its links reroute where possible.
        """
        if host not in self.topology.hosts:
            raise FlowError(f"fail_host: {host!r} is not a host")
        if host in self._down_hosts:
            return
        self._down_hosts.add(host)
        probe = self._probe
        if probe is not None:
            probe.on_host_down(self.engine.now, host)
        self.fail_link(self.topology.host_uplink(host).link_id)
        self.fail_link(self.topology.host_downlink(host).link_id)

    def _reroute_flow(self, flow: Flow, new_links: Tuple[LinkId, ...]) -> None:
        """Move an active flow onto a new path (indexes + path swap)."""
        flow_id = flow.flow_id
        for link_id in flow.path:
            self._by_link[link_id].pop(flow_id, None)
        if self._component_on is not None:
            self._leave(flow)
        flow.path = new_links
        flow._bottleneck = min(map(self._capacities.get, new_links))
        for link_id in new_links:
            self._by_link.setdefault(link_id, {})[flow_id] = flow
        if self._component_on is not None:
            self._join(flow)
        self._flows_rerouted += 1
        probe = self._probe
        if probe is not None:
            probe.on_reroute(self.engine.now, flow)

    def _abort_flow(self, flow: Flow) -> None:
        """Drop a flow that lost its only path.

        No completion record is appended (the transfer never finished) and
        completion listeners do not fire; a coflow member's coflow simply
        never completes — the failed job shows up in the abort counters,
        not in the CCT statistics.
        """
        self._drop_flow(flow)
        self._flows_aborted += 1
        probe = self._probe
        if probe is not None:
            probe.on_abort(self.engine.now, flow)

    # ------------------------------------------------------------------
    # Internals: progress bookkeeping
    # ------------------------------------------------------------------
    def _drop_flow(self, flow: Flow) -> None:
        """Remove a flow from every index (completion or cancellation)."""
        flow_id = flow.flow_id
        del self._active[flow_id]
        self._rates.pop(flow_id, None)
        self._synced_at.pop(flow_id, None)
        event = self._completion_events.pop(flow_id, None)
        if event is not None:
            self.engine.cancel(event)
        for link_id in flow.path:
            self._by_link[link_id].pop(flow_id, None)
        if self._component_on is not None:
            self._leave(flow)
        self._by_host[flow.src].pop(flow_id, None)
        self._by_host[flow.dst].pop(flow_id, None)

    def _finish_flow(self, flow: Flow) -> None:
        flow.completion_time = self.engine.now
        record = FlowRecord(
            flow_id=flow.flow_id,
            src=flow.src,
            dst=flow.dst,
            size=flow.size,
            arrival_time=flow.arrival_time,
            completion_time=flow.completion_time,
            optimal_fct=flow._optimal,
            tag=flow.tag,
            coflow_id=flow.coflow.coflow_id if flow.coflow is not None else None,
        )
        self._records.append(record)
        probe = self._probe
        if probe is not None:
            probe.on_flow_done(self.engine.now, record)
        if flow.coflow is not None:
            flow.coflow.note_flow_finished(flow, self.engine.now)
        self._settled.append((flow, record))

    def _notify_settled(self) -> None:
        """Fire the completion listeners on every flow settled so far, in
        settle order; a listener's own submit notifies what it settles."""
        settled, self._settled = self._settled, []
        for flow, record in settled:
            for listener in self._listeners:
                listener(flow, record)

    # ------------------------------------------------------------------
    # Internals: the sharing components, kept as flows come and go
    # ------------------------------------------------------------------
    def _cancel_hint(self, component: _Component) -> None:
        if component.hint_event is not None:
            self.engine.cancel(component.hint_event)
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
        self._recount(flow.path)

    def _leave(self, flow: Flow) -> None:
        """``flow`` (already off the link index) left its component: the
        links it emptied go with it, and the component is split if it was
        the only bridge.  Only the links of its own path that still carry
        others can have come apart."""
        component_on = self._component_on
        component = component_on[flow.path[0]]
        self._cancel_hint(component)
        del component.flows[flow.flow_id]
        if self._fills is not None:
            self._fills.pop(flow.flow_id, None)
        shared: List[LinkId] = []
        self._recount(flow.path)
        for link_id in flow.path:
            if self._by_link[link_id]:
                shared.append(link_id)
            else:
                component_on.pop(link_id, None)
                component.links.discard(link_id)
        if len(shared) > 1:
            self._split(component, shared)

    def _recount(self, links: Collection[LinkId]) -> None:
        """``links`` changed members or capacity."""
        if self._fills is not None:
            self._changed.update(links)
        elif self._narrowing:  # only the binding closure reads ``_crowded``
            for link_id in links:
                count = len(self._by_link.get(link_id, ()))
                if self._capacities[link_id] < ARGMIN_FLOOR * count:
                    self._crowded.add(link_id)
                else:
                    self._crowded.discard(link_id)

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
        departed: Optional[List[Flow]] = None,
    ) -> None:
        """Recompute rates for the component(s) touching ``dirty_links``
        (``scope``, when the caller holds them already).  For an
        allocator that is not ``incremental_safe`` everything is dirty.
        ``departed`` (the flows it took away) marks an arrival or removal.
        Inside a :meth:`batch` it syncs and settles only, and leaves its
        scope's links to the batch.
        """
        probe = self._probe
        now = self.engine.now
        component_on = self._component_on
        span = (
            probe.enter_recompute(component_on is not None)
            if probe is not None else None
        )
        if component_on is None:
            members = self._active  # ids rise at submit: in flow-id order
            comp_flows = list(members.values())
            # Only a probe reports every occupied link; a batch needs one.
            comp_links = set(dirty_links) if probe is None else {
                link_id for link_id, on_link in self._by_link.items() if on_link
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
        self._sync_members(members)

        survivors: List[Flow] = []
        for flow in comp_flows:
            if flow.finished:
                self._drop_flow(flow)
                self._finish_flow(flow)
                if departed is not None:
                    departed.append(flow)
            else:
                survivors.append(flow)
        if self._batch is not None:  # the batch allocates once, on leaving
            self._batch.update(dict.fromkeys(comp_links))
        elif survivors:
            fill = self._binding_closure(survivors, dirty_links, comp_links, departed)
            self._reallocate(fill, comp_links, len(comp_flows), now)
            if self._hinting:
                self._schedule_hints(
                    survivors,
                    len(scope) == 1 and len(survivors) == len(comp_flows),
                )
        if span is not None:
            probe.exit_recompute(span)
        if self._settled:
            self._notify_settled()

    def _binding_closure(
        self,
        survivors: List[Flow],
        dirty_links: Collection[LinkId],
        comp_links: Set[LinkId],
        departed: Optional[List[Flow]],
    ) -> List[Flow]:
        """The ``survivors`` an arrival or removal re-fills, in flow-id order:
        the members of every link that can bind (``departed`` counted) reached
        over such links from ``dirty_links`` and the ``departed`` paths.  All of
        them unless narrowing applies (DESIGN.md §5.1, "Binding closure")."""
        caps, by_link = self._capacities, self._by_link
        if not self._narrowing or departed is None or not (
            self._crowded.isdisjoint(comp_links)
        ):
            return survivors
        gone: Dict[LinkId, List[Flow]] = {}
        for flow in departed:
            for link_id in flow.path:
                gone.setdefault(link_id, []).append(flow)
        frontier = list(dict.fromkeys([*dirty_links, *gone]))
        seen, reached = set(frontier), {}
        while frontier and len(reached) < len(survivors):
            link_id = frontier.pop()
            members, left = by_link[link_id], gone.get(link_id, ())
            if members.keys() <= reached.keys() or not can_bind(
                caps[link_id], [f._bottleneck for f in (*members.values(), *left)]
            ):
                continue  # adds nobody, or parts on either side fill apart
            for flow_id, flow in members.items():
                if flow_id not in reached:
                    reached[flow_id] = flow
                    frontier += [link for link in flow.path if link not in seen]
                    seen.update(flow.path)
        return [reached[fid] for fid in sorted(reached)]

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
            members = survivors if intact else [
                component.flows[fid] for fid in sorted(component.flows)
            ]
            hint = self.allocator.next_change_hint(members, self._rates)
            if hint is not None and 0 < hint < _INF:
                component.hint_event = self.engine.schedule(
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
        """Allocate the settled component, splice the rates in and
        reschedule the completion of every flow whose rate changed
        (``component_size`` counts the flows that finished while settling
        too)."""
        probe = self._probe
        span = None
        if probe is not None:
            probe.on_recompute(
                now, len(self._active), component_size, len(comp_links),
                self._component_on is not None,
            )
            span = probe.enter_alloc(self.allocator.name)
        # Allocators only look links up, so they are handed the map itself.
        memo = () if self._fills is None else (
            (self._fills, self._rates, self._changed, comp_links),)
        rates = self.allocator.allocate(comp_flows, self._capacities, *memo)
        if span is not None:
            probe.exit_alloc(span)

        span = probe.enter_splice() if probe is not None else None
        progressed = False
        for flow in comp_flows:
            flow_id = flow.flow_id
            if flow_id not in rates:
                continue  # a flow the allocation leaves out keeps its rate
            new_rate = rates[flow_id]
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
                event = self._completion_events.pop(flow_id, None)
                if event is not None:
                    self.engine.cancel(event)
                if new_rate > RATE_EPSILON:
                    self._completion_events[flow_id] = self.engine.schedule(
                        max(flow.remaining / new_rate, 0.0),
                        lambda f=flow: self._on_completion(f),
                        priority=RECOMPUTE_PRIORITY,
                        label="fabric-completion",
                    )
        if comp_flows and not progressed and not any(
            self._rates.get(flow.flow_id, 0.0) > RATE_EPSILON for flow in comp_flows
        ):
            raise FlowError(
                "no flow is making progress; allocator "
                f"{self.allocator.name!r} is not work-conserving"
            )
        if span is not None:
            probe.exit_splice(span)

    def _on_completion(self, flow: Flow) -> None:
        self._completion_events.pop(flow.flow_id, None)
        # The event time is authoritative: it was scheduled at exactly
        # remaining/rate under a rate that has not changed since (any
        # change reschedules).  Whatever residue float time arithmetic
        # leaves is dust — clamp it, or a sub-ulp reschedule could fire
        # at this same timestamp forever.
        self._sync_members({flow.flow_id: flow})
        if not flow.finished:
            flow.advance(flow.remaining)
        self._recompute(flow.path, departed=[])

    def _on_hint(self, component: _Component) -> None:
        component.hint_event = None
        self._recompute((), [component])
