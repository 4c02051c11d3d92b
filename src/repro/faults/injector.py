"""Executes a :class:`~repro.faults.plan.FaultPlan` against a live run.

The injector is the single place where a declarative plan meets the
simulation: point events are scheduled through the event engine at
``FAULT_PRIORITY`` (so a fault lands before same-timestamp arrivals and
completions), and window events turn the injector into the *fault model*
the message bus and placement daemon consult on every delivery.

Determinism: the only randomness is the per-message loss coin flip, drawn
from a stream derived from ``plan.seed`` — message deliveries happen in
deterministic DES order, so the draw sequence (and hence the whole faulted
run) is byte-reproducible for a fixed (seed, plan) pair.  An empty plan
installs nothing and draws nothing.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional

from repro.errors import FaultError
from repro.faults.plan import (
    FaultEvent,
    FaultPlan,
    HostDown,
    LinkDegrade,
    LinkDown,
    MessageDelay,
    MessageLoss,
    StateStaleness,
)
from repro.sim.events import FAULT_PRIORITY
from repro.sim.randomness import hash_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.daemons.bus import MessageBus
    from repro.daemons.placement_daemon import TaskPlacementDaemon
    from repro.network.fabric import NetworkFabric
    from repro.telemetry import Telemetry

__all__ = ["FaultInjector", "arm_faults"]


class FaultInjector:
    """Schedules a plan's point events and models its delivery windows."""

    def __init__(
        self,
        plan: FaultPlan,
        fabric: "NetworkFabric",
        *,
        bus: Optional["MessageBus"] = None,
        placement_daemon: Optional["TaskPlacementDaemon"] = None,
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        """Args:
            plan: the validated fault plan to execute.
            fabric: the network the data-plane faults mutate.
            bus: when given, loss/delay windows install the injector as
                the bus's fault model and host-down events mark endpoints
                unreachable.
            placement_daemon: when given, staleness windows install the
                injector as the daemon's fault model (snapshot-age bias).
            telemetry: counts injected/applied faults and traces each
                application when enabled.
        """
        plan.validate(fabric.topology)
        self._plan = plan
        self._fabric = fabric
        self._engine = fabric.engine
        self._bus = bus
        self._daemon = placement_daemon
        self._armed = False
        self._applied = 0
        self._tasks_dropped = 0
        self._rng = random.Random(hash_seed(plan.seed, "faults:messages"))
        self._loss: List[MessageLoss] = [
            e for e in plan.events if isinstance(e, MessageLoss)
        ]
        self._delay: List[MessageDelay] = [
            e for e in plan.events if isinstance(e, MessageDelay)
        ]
        self._stale: List[StateStaleness] = [
            e for e in plan.events if isinstance(e, StateStaleness)
        ]
        self._probe = (
            telemetry.attach("faults") if telemetry is not None else None
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def plan(self) -> FaultPlan:
        return self._plan

    @property
    def applied_faults(self) -> int:
        """Point events that have fired so far."""
        return self._applied

    @property
    def tasks_dropped(self) -> int:
        """Arrivals the replay loop discarded because their data node or
        every candidate host was down."""
        return self._tasks_dropped

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Schedule the plan's point events and install window models."""
        if self._armed:
            raise FaultError("fault injector is already armed")
        self._armed = True
        if self._plan.is_empty:
            return
        for event in self._plan.point_events():
            self._engine.schedule_at(
                event.time,
                lambda e=event: self._apply(e),
                priority=FAULT_PRIORITY,
                label="fault",
            )
        if (self._loss or self._delay) and self._bus is not None:
            self._bus.install_fault_model(self)
        if self._stale and self._daemon is not None:
            self._daemon.set_fault_model(self)
        probe = self._probe
        if probe is not None:
            # Window events are declared at arm time, so blame
            # decomposition can bound fault-attributed loss to real windows.
            probe.on_fault_plan(len(self._plan.events))
            for event in self._plan.window_events():
                probe.on_window(self._engine.now, event.to_dict())

    def _apply(self, event: FaultEvent) -> None:
        self._applied += 1
        probe = self._probe
        if probe is not None:
            probe.on_fault(self._engine.now, event.to_dict())
        if isinstance(event, LinkDown):
            self._fabric.fail_link(event.link)
        elif isinstance(event, LinkDegrade):
            self._fabric.degrade_link(event.link, event.factor)
        elif isinstance(event, HostDown):
            self._fabric.fail_host(event.host)
            if self._bus is not None:
                self._bus.mark_host_down(event.host)
        else:  # pragma: no cover - point_events() filters to the above
            raise FaultError(f"cannot apply fault event {event!r}")

    def note_task_dropped(self, tag: str) -> None:
        """Record an arrival the replay loop could not place (host down)."""
        self._tasks_dropped += 1
        probe = self._probe
        if probe is not None:
            probe.on_task_dropped(self._engine.now, tag)

    # ------------------------------------------------------------------
    # Fault-model interface (consulted by bus and placement daemon)
    # ------------------------------------------------------------------
    def _active_windows(self, windows, now: float):
        for window in windows:
            if window.start <= now and (
                window.until is None or now < window.until
            ):
                yield window

    def should_drop(self, kind: str) -> bool:
        """One loss decision for a message of ``kind`` at the current time.

        ``p >= 1`` windows drop without consuming a random draw and
        ``p <= 0`` windows never match, so plans built purely from
        deterministic windows stay draw-free.
        """
        now = self._engine.now
        for window in self._active_windows(self._loss, now):
            if "all" not in window.kinds and kind not in window.kinds:
                continue
            if window.p >= 1.0:
                return True
            if window.p <= 0.0:
                continue
            if self._rng.random() < window.p:
                return True
        return False

    def message_delay(self) -> float:
        """Extra one-way latency active right now (windows stack)."""
        now = self._engine.now
        return sum(w.delay for w in self._active_windows(self._delay, now))

    def staleness_lag(self) -> float:
        """Extra age added to every node-state snapshot right now."""
        now = self._engine.now
        lags = [w.lag for w in self._active_windows(self._stale, now)]
        return max(lags) if lags else 0.0


def arm_faults(
    plan: Optional[FaultPlan],
    fabric: "NetworkFabric",
    policy=None,
    telemetry: Optional["Telemetry"] = None,
) -> Optional[FaultInjector]:
    """Build and arm an injector for a replay, or ``None`` for no faults.

    An empty plan returns ``None`` outright: nothing is scheduled, no RNG
    stream is created, and the run is byte-identical to a plan-free run.
    ``policy`` is duck-typed — its ``bus`` / ``daemon`` attributes (NEAT)
    are wired in when present; baselines have neither and only see the
    data-plane faults.
    """
    if plan is None or plan.is_empty:
        return None
    injector = FaultInjector(
        plan,
        fabric,
        bus=getattr(policy, "bus", None),
        placement_daemon=getattr(policy, "daemon", None),
        telemetry=telemetry,
    )
    injector.arm()
    return injector
