"""The NEAT placement policy: Algorithm 1 over the distributed daemons.

:func:`build_neat` wires up the whole control plane of Figure 4 — one
network daemon per host, a message bus, and the global task placement
daemon — and returns a :class:`NEATPolicy` usable anywhere a
:class:`~repro.placement.base.PlacementPolicy` is expected.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional, Sequence

from repro.network.fabric import NetworkFabric
from repro.placement.base import PlacementPolicy, PlacementRequest
from repro.predictor.registry import make_coflow_predictor, make_flow_predictor
from repro.topology.base import NodeId

if TYPE_CHECKING:  # pragma: no cover - avoids a placement<->daemons cycle
    from repro.daemons.bus import MessageBus
    from repro.daemons.placement_daemon import TaskPlacementDaemon


class NEATPolicy(PlacementPolicy):
    """Network-scheduling-aware placement via the NEAT daemons."""

    name = "neat"

    def __init__(
        self,
        daemon: "TaskPlacementDaemon",
        bus: "MessageBus",
        *,
        supports_coflow_prediction: bool = False,
    ) -> None:
        self._daemon = daemon
        self._bus = bus
        #: True when the network daemons carry a CCT predictor, enabling
        #: place_reducer / place_coflow_flow.
        self.supports_coflow_prediction = supports_coflow_prediction

    @property
    def daemon(self) -> "TaskPlacementDaemon":
        """The global placement daemon (exposes decisions and cache)."""
        return self._daemon

    @property
    def bus(self) -> "MessageBus":
        """The control-plane bus (exposes message accounting)."""
        return self._bus

    def place(self, request: PlacementRequest) -> NodeId:
        return self._daemon.place_flow(request)

    def place_reducer(self, sources, candidates, *, tag: str = "") -> NodeId:
        """Many-to-one coflow placement (§5.1.2)."""
        return self._daemon.place_reducer(sources, candidates, tag=tag)

    def place_coflow_flow(
        self,
        flow_size: float,
        coflow_total: float,
        data_node,
        candidates,
        *,
        tag: str = "",
    ) -> NodeId:
        """CCT-aware placement of one flow of a coflow (§5.1.2)."""
        return self._daemon.place_coflow_flow(
            flow_size, coflow_total, data_node, candidates, tag=tag
        )


def build_neat(
    fabric: NetworkFabric,
    *,
    predictor: str = "fair",
    coflow_predictor: Optional[str] = None,
    rng: Optional[random.Random] = None,
    use_node_state: bool = True,
    locality_hops: Optional[int] = None,
    include_source_link: bool = False,
    bin_boundaries: Optional[Sequence[float]] = None,
    control_rtt: float = 0.0,
    state_ttl: Optional[float] = None,
    push_updates: bool = False,
    telemetry=None,
) -> NEATPolicy:
    """Instantiate NEAT's full control plane on ``fabric``.

    Args:
        fabric: the simulated network.
        predictor: FCT predictor name.  Per Proposition 4.1 the Fair
            predictor is the right default for any flow-level policy.
        coflow_predictor: CCT predictor name; enables coflow placement.
        rng: tie-break randomness for the placement daemon.
        use_node_state: disable to obtain the minFCT strawman (Fig. 9).
        locality_hops: optional locality pre-filter (§5.2).
        include_source_link: also fold the data node's uplink into the
            score (off by default; see TaskPlacementDaemon).
        bin_boundaries: enable §5.2 compressed flow state with these bins.
        control_rtt: control-plane RTT used for latency accounting.
        state_ttl: node-state snapshot TTL; when every known candidate's
            state is older, the placement daemon falls back to
            least-loaded placement (degraded operation, see
            TaskPlacementDaemon).
        push_updates: when True, network daemons push a NodeStateUpdate to
            the controller whenever a flow at their host completes — the
            paper's push-style dissemination.  Off by default so the
            baseline (pull-only) control plane is unchanged.
        telemetry: optional :class:`~repro.telemetry.Telemetry` threaded
            into the bus (message tracing), daemons (predictor timing),
            and the placement daemon (decision log).
    """
    from repro.daemons.bus import MessageBus
    from repro.daemons.network_daemon import NetworkDaemon
    from repro.daemons.placement_daemon import TaskPlacementDaemon

    engine = fabric.engine
    bus = MessageBus(engine, rtt=control_rtt, telemetry=telemetry)
    flow_pred = make_flow_predictor(predictor)
    coflow_pred = (
        make_coflow_predictor(coflow_predictor)
        if coflow_predictor is not None
        else None
    )
    daemons = {}
    for host in fabric.topology.hosts:
        daemon = NetworkDaemon(
            host,
            fabric,
            flow_pred,
            coflow_predictor=coflow_pred,
            bin_boundaries=bin_boundaries,
            telemetry=telemetry,
        )
        bus.register(host, daemon.handle)
        daemons[host] = daemon
    answer, daemon_at = NetworkDaemon.answer_round, daemons.__getitem__
    bus.register_round(lambda hosts, ask: answer([*map(daemon_at, hosts)], ask))
    placement = TaskPlacementDaemon(
        fabric.topology,
        bus,
        rng=rng,
        use_node_state=use_node_state,
        locality_hops=locality_hops,
        include_source_link=include_source_link,
        state_ttl=state_ttl,
        telemetry=telemetry,
    )
    if push_updates:
        bus.register_controller(placement.handle_node_state_update)

        def _push_on_completion(flow, record) -> None:
            # A completion frees capacity at both endpoints; their daemons
            # refresh the controller (dedup handles local flows).
            for host in dict.fromkeys((flow.src, flow.dst)):
                daemon = daemons.get(host)
                if daemon is not None:
                    daemon.push_state(bus)

        fabric.add_completion_listener(_push_on_completion)
    return NEATPolicy(
        placement, bus, supports_coflow_prediction=coflow_pred is not None
    )
