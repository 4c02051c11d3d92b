"""The discrete-event simulation engine.

The engine owns the clock and the event queue, and runs events in
deterministic timestamp order.  Subsystems (the network fabric, daemons,
workload generators) schedule callbacks through :meth:`Engine.schedule` /
:meth:`Engine.schedule_at`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import DEFAULT_PRIORITY, Event, EventCallback, EventQueue

if TYPE_CHECKING:  # pragma: no cover - avoids a sim<->telemetry cycle
    from repro.telemetry import Telemetry


class Engine:
    """Deterministic discrete-event simulation engine.

    Example:
        >>> engine = Engine()
        >>> fired = []
        >>> _ = engine.schedule_at(2.0, lambda: fired.append(engine.now))
        >>> _ = engine.schedule_at(1.0, lambda: fired.append(engine.now))
        >>> engine.run()
        >>> fired
        [1.0, 2.0]
    """

    def __init__(
        self,
        *,
        start_time: float = 0.0,
        max_events: int = 50_000_000,
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        self._clock = SimClock(start_time)
        self._queue = EventQueue()
        self._max_events = max_events
        self._events_processed = 0
        self._running = False
        self._events_reported = 0
        self._probe = (
            telemetry.attach("engine") if telemetry is not None else None
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._clock.now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue)

    @property
    def heap_high_water(self) -> int:
        """Most events ever simultaneously queued (memory pressure)."""
        return self._queue.high_water

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: EventCallback,
        *,
        priority: int = DEFAULT_PRIORITY,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay!r}")
        return self._queue.push(
            self.now + delay, callback, priority=priority, label=label
        )

    def schedule_at(
        self,
        when: float,
        callback: EventCallback,
        *,
        priority: int = DEFAULT_PRIORITY,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute time ``when`` (>= now)."""
        if when < self.now - 1e-12:
            raise SimulationError(
                f"cannot schedule in the past: now={self.now!r}, when={when!r}"
            )
        return self._queue.push(
            max(when, self.now), callback, priority=priority, label=label
        )

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (no-op if already cancelled)."""
        if not event.cancelled:
            event.cancel()
            self._queue.note_cancelled()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the single earliest event.

        Returns:
            ``True`` if an event ran, ``False`` if the queue was empty.
        """
        event = self._queue.pop()
        if event is None:
            return False
        self._clock.advance_to(event.time)
        self._events_processed += 1
        if self._events_processed > self._max_events:
            raise SimulationError(
                f"exceeded max_events={self._max_events}; "
                "likely a runaway event loop"
            )
        probe = self._probe
        span = probe.enter_event(event.label) if probe is not None else None
        event.callback()
        if span is not None:
            probe.exit_event(span)
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queue empties or the horizon is reached.

        Args:
            until: if given, stop once the next event would fire after this
                time, and advance the clock exactly to ``until``.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        try:
            while True:
                next_time = self._queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                self.step()
            if until is not None:
                self._clock.advance_to(until)
        finally:
            self._running = False
            probe = self._probe
            if probe is not None:
                new_events = self._events_processed - self._events_reported
                self._events_reported = self._events_processed
                probe.on_engine_stats(
                    self.now,
                    self._events_processed,
                    self.heap_high_water,
                    self.pending_events,
                    new_events,
                )

    def __repr__(self) -> str:
        return (
            f"Engine(now={self.now!r}, pending={self.pending_events}, "
            f"processed={self._events_processed})"
        )
