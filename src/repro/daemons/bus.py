"""Simulated control-plane message bus.

Carries request/reply pairs between the task placement daemon and the
per-node network daemons.  Calls are executed synchronously (placement
decisions in the paper's simulator are instantaneous too), but the bus
accounts for every message and for the control latency a real deployment
would pay, so the communication-overhead optimisations of §5.2 (preferred
hosts, node-state caching) are measurable.  A decision's queries are one
round: each message is accounted as a call, and the answers come at once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.daemons.messages import message_kind
from repro.errors import DaemonError, DaemonUnreachable, MessageDropped
from repro.sim.engine import Engine
from repro.topology.base import NodeId

if TYPE_CHECKING:  # pragma: no cover - avoids a daemons<->telemetry cycle
    from repro.telemetry import Telemetry

Handler = Callable[[Any], Any]


class MessageBus:
    """Registry of daemon endpoints with message/latency accounting."""

    def __init__(
        self,
        engine: Engine,
        *,
        rtt: float = 0.0,
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        """Args:
            engine: the simulation engine (used only for timestamps).
            rtt: control-plane round-trip time charged per call when
                estimating placement latency.
            telemetry: counts/traces every control message when enabled.
        """
        self._engine = engine
        self._rtt = rtt
        self._endpoints: Dict[NodeId, Handler] = {}
        self._round: Optional[Callable] = None  # see register_round
        self._messages_sent = 0
        self._calls = 0
        # Fault-injection state: a fault model (the FaultInjector) decides
        # per-message drops/delays, down hosts reject traffic outright, and
        # the controller endpoint receives push-style (one-way) messages.
        self._fault_model = None
        self._down_hosts: set = set()
        self._controller: Optional[Handler] = None
        self._messages_dropped = 0
        self._delay_accrued = 0.0
        self._probe = telemetry.attach("bus") if telemetry is not None else None

    @property
    def engine(self) -> Engine:
        """The simulation engine the bus timestamps against."""
        return self._engine

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register(self, host: NodeId, handler: Handler) -> None:
        """Attach a daemon's request handler at ``host``."""
        if host in self._endpoints:
            raise DaemonError(f"endpoint already registered for {host!r}")
        self._endpoints[host] = handler

    def register_controller(self, handler: Handler) -> None:
        """Attach the global controller's one-way (push) message handler."""
        if self._controller is not None:
            raise DaemonError("controller endpoint already registered")
        self._controller = handler

    def install_fault_model(self, model) -> None:
        """Install per-message drop/delay decisions (the fault injector)."""
        if self._fault_model is not None:
            raise DaemonError("bus already has a fault model installed")
        self._fault_model = model

    def mark_host_down(self, host: NodeId) -> None:
        """All traffic to or from ``host`` fails from now on."""
        self._down_hosts.add(host)

    def register_round(self, handler: Callable[[Sequence[NodeId], Any], list]) -> None:
        """Answer each round with one ``handler(delivered hosts, payload)``
        call, their replies in order (``build_neat`` registers its daemons')."""
        if self._round is not None:
            raise DaemonError("round handler already registered")
        self._round = handler

    def _admit(self, host: NodeId, payload: Any, endpoints=None, run=None) -> float:
        """Every message's admission: down host, endpoint (for requests),
        fault-plan drop and delay draws.  Returns the delay; a lost message
        went out, is accounted, is reported after ``run`` (its round's hosts
        delivered since the last report) and raises the loss."""
        if host in self._down_hosts:
            reason, lost = "host_down", DaemonUnreachable(f"host {host!r} is down")
        elif endpoints is not None and host not in endpoints:
            raise DaemonError(f"no daemon registered at {host!r}")
        elif self._fault_model is None:
            return 0.0
        elif self._fault_model.should_drop(message_kind(payload)):
            reason = "loss_window"
            lost = MessageDropped(
                f"request to {host!r} lost in a fault-plan loss window"
            )
        else:
            return self._fault_model.message_delay()
        self._messages_sent += 1
        self._messages_dropped += 1
        if self._probe is not None:
            now = self._engine.now
            if run:
                self._probe.note_bus_round(now, run, payload, self._rtt)
            self._probe.note_bus_drop(now, host, payload, reason)
        raise lost

    def call(self, host: NodeId, payload: Any) -> Any:
        """Send ``payload`` to the daemon at ``host`` and return its reply:
        a round of one host (:meth:`call_round`) whose loss raises.

        Counts one request + one reply message.  Under a fault plan the
        call may raise :class:`DaemonUnreachable` (host down) or
        :class:`MessageDropped` (loss window ate the request); a delay
        window adds to the latency accounting but — calls being
        synchronous in the fluid model — not to simulated time.
        """
        return self.call_round((host,), payload, strict=True)[1][0]

    def call_round(
        self, hosts: Sequence[NodeId], payload: Any, *, strict: bool = False
    ) -> Tuple[List[NodeId], List[Any]]:
        """Send the one ``payload`` to each of ``hosts``, per host and in
        order as :meth:`call` does (admission, counters; the probe sees each
        run of delivered hosts between losses once), then answer them in one
        round (:meth:`register_round`).  Returns ``(delivered hosts, their
        replies)``; a lost message leaves its host out, or raises when
        ``strict``.  With no fault model, no host down and every host
        registered, admission draws nothing: the round is counted at once."""
        admit, endpoints = self._admit, self._endpoints
        if self._fault_model is None and not self._down_hosts and all(
            map(endpoints.__contains__, hosts)
        ):
            delivered = run = list(hosts)
            self._messages_sent += 2 * len(run)
            self._calls += len(run)
        else:
            run = [] if self._probe is not None else None
            delivered = []
            for host in hosts:
                try:
                    self._delay_accrued += admit(host, payload, endpoints, run)
                except (DaemonUnreachable, MessageDropped):
                    if strict:
                        raise
                    if run:
                        run = []
                    continue
                self._messages_sent += 2
                self._calls += 1
                delivered.append(host)
                if run is not None:
                    run.append(host)
        if run and self._probe is not None:
            self._probe.note_bus_round(self._engine.now, run, payload, self._rtt)
        if self._round is not None:
            return delivered, self._round(delivered, payload)
        return delivered, [endpoints[host](payload) for host in delivered]

    def push(self, host: NodeId, payload: Any) -> bool:
        """One-way message from ``host``'s daemon to the controller.

        Delivery is asynchronous: the controller handler runs after any
        active delay window's latency (zero by default), through the event
        engine so ordering stays deterministic.  Returns ``False`` when the
        message was dropped (sender down, or a loss window matched).
        """
        if self._controller is None:
            raise DaemonError("no controller endpoint registered")
        try:
            delay = self._admit(host, payload)
        except (DaemonUnreachable, MessageDropped):
            return False
        self._messages_sent += 1
        probe = self._probe
        if probe is not None:
            probe.on_bus_push(self._engine.now, host, payload, delay)
        handler = self._controller
        self._engine.schedule(
            delay, lambda: handler(payload), label="bus-push"
        )
        return True

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def messages_dropped(self) -> int:
        """Messages a fault plan dropped (lost requests and pushes)."""
        return self._messages_dropped

    @property
    def messages_sent(self) -> int:
        """Total control messages (requests + replies) so far."""
        return self._messages_sent

    @property
    def calls(self) -> int:
        """Total request/reply round trips so far."""
        return self._calls

    @property
    def estimated_control_latency(self) -> float:
        """Serial upper bound on the control latency of a real deployment:
        one RTT per call, as if no two queries of a decision overlapped
        (sent in parallel they cost about one RTT per decision), plus the
        per-call latency of fault-plan delay windows."""
        return self._calls * self._rtt + self._delay_accrued

    def reset_counters(self) -> None:
        """Zero the accounting counters (e.g. between benchmark phases)."""
        self._messages_sent = 0
        self._calls = 0
        self._messages_dropped = 0
        self._delay_accrued = 0.0
