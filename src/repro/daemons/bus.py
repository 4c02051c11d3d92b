"""Simulated control-plane message bus.

Carries request/reply pairs between the task placement daemon and the
per-node network daemons.  Calls are executed synchronously (placement
decisions in the paper's simulator are instantaneous too), but the bus
accounts for every message and for the control latency a real deployment
would pay, so the communication-overhead optimisations of §5.2 (preferred
hosts, node-state caching) are measurable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

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

    def _drop(self, host: NodeId, payload: Any, reason: str) -> None:
        """Account one message that went out and was lost."""
        self._messages_sent += 1
        self._messages_dropped += 1
        probe = self._probe
        if probe is not None:
            probe.note_bus_drop(self._engine.now, host, payload, reason)

    def call(self, host: NodeId, payload: Any) -> Any:
        """Send ``payload`` to the daemon at ``host`` and return its reply.

        Counts one request + one reply message.  Under a fault plan the
        call may raise :class:`DaemonUnreachable` (host down) or
        :class:`MessageDropped` (loss window ate the request); a delay
        window adds to the latency accounting but — calls being
        synchronous in the fluid model — not to simulated time.
        """
        if host in self._down_hosts:
            self._drop(host, payload, "host_down")
            raise DaemonUnreachable(f"host {host!r} is down")
        handler = self._endpoints.get(host)
        if handler is None:
            raise DaemonError(f"no daemon registered at {host!r}")
        if self._fault_model is not None:
            if self._fault_model.should_drop(message_kind(payload)):
                self._drop(host, payload, "loss_window")
                raise MessageDropped(
                    f"request to {host!r} lost in a fault-plan loss window"
                )
            self._delay_accrued += self._fault_model.message_delay()
        self._messages_sent += 2
        self._calls += 1
        probe = self._probe
        if probe is not None:
            probe.note_bus_message(self._engine.now, host, payload, self._rtt)
        return handler(payload)

    def push(self, host: NodeId, payload: Any) -> bool:
        """One-way message from ``host``'s daemon to the controller.

        Delivery is asynchronous: the controller handler runs after any
        active delay window's latency (zero by default), through the event
        engine so ordering stays deterministic.  Returns ``False`` when the
        message was dropped (sender down, or a loss window matched).
        """
        if self._controller is None:
            raise DaemonError("no controller endpoint registered")
        if host in self._down_hosts:
            self._drop(host, payload, "host_down")
            return False
        delay = 0.0
        if self._fault_model is not None:
            if self._fault_model.should_drop(message_kind(payload)):
                self._drop(host, payload, "loss_window")
                return False
            delay = self._fault_model.message_delay()
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
