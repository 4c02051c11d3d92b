"""The probe: the one seam between the simulation core and telemetry.

The core (engine, fabric, bus, daemons, coflow tracker, replay loops,
fault injector) and the placement service (admission queue, serving
loop) hold one handle and report each event once::

    probe = self._probe
    if probe is not None:
        probe.on_flow_done(now, record)

A timed section brackets the production call with an ``enter_*`` /
``exit_*`` pair, so with telemetry off it costs two branches and no
context-manager entry::

    span = probe.enter_alloc(name) if probe is not None else None
    rates = allocator.allocate(flows, capacities)
    if span is not None:
        probe.exit_alloc(span)

:data:`PROBE_POINTS` is the closed vocabulary (DESIGN.md §6 tabulates
who emits each point and what every channel makes of it).  A *channel*
is any object with methods named after probe points: the metrics and
trace adapters, the causal tracer, the decision log and the span
profiler.  :class:`Probe` binds each point straight to its subscriber's
bound method when there is exactly one — a single-subscriber point
costs one call — and to a fan-out otherwise; channels turn the typed
arguments into their own records, counter names and span labels, and
must never mutate what they are handed.  Probe points are called
positionally (the fan-out forwards ``*args`` only).  A timed section
takes at most one subscriber, so its token is that channel's own; only
the span profiler times anything, and a second claimant is a
``TypeError``.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

__all__ = ["PROBE_POINTS", "Probe"]

#: Plain events: called for effect, return value ignored.
EVENTS = (
    "on_attach",
    "begin_run",
    "end_run",
    "begin_task",
    "end_task",
    "on_engine_stats",
    "on_flow_submit",
    "on_rate",
    "on_recompute",
    "on_flow_done",
    "on_capacity",
    "on_host_down",
    "on_reroute",
    "on_abort",
    "on_coflow",
    "on_coflow_done",
    "note_bus_message",
    "note_bus_drop",
    "on_bus_push",
    "on_query_failure",
    "on_decision",
    "on_fault_plan",
    "on_window",
    "on_fault",
    "on_task_dropped",
    "on_offer",
    "on_reject",
    "on_enqueue",
    "on_batch",
)

#: Timed sections: ``enter_<name>(...)`` returns a token (never None) that
#: the matching ``exit_<name>(token)`` consumes.
TIMED = (
    "event",
    "recompute",
    "expand",
    "alloc",
    "splice",
    "predict",
    "place",
)

PROBE_POINTS = EVENTS + tuple(
    f"{edge}_{name}" for name in TIMED for edge in ("enter", "exit")
)

#: A channel method with one of these prefixes claims to be a probe point.
_CLAIM_PREFIXES = ("on_", "enter_", "exit_", "begin_", "end_", "note_bus_")


def _ignore(*args) -> None:
    """A probe point nobody subscribed to."""


def _fan_out(subscribers: List[Callable]) -> Callable:
    if not subscribers:
        return _ignore
    if len(subscribers) == 1:
        return subscribers[0]

    def fan_out(*args) -> None:
        for subscriber in subscribers:
            subscriber(*args)

    return fan_out


class Probe:
    """Every probe point as a ready-to-call attribute."""

    __slots__ = PROBE_POINTS

    def __init__(self, channels: Sequence[object]) -> None:
        for channel in channels:
            for name in dir(channel):
                if name.startswith(_CLAIM_PREFIXES) and name not in PROBE_POINTS:
                    raise TypeError(
                        f"{type(channel).__name__}.{name} is not a probe "
                        "point; the closed set is repro.telemetry.probe."
                        "PROBE_POINTS"
                    )
        for name in EVENTS:
            setattr(
                self,
                name,
                _fan_out([getattr(c, name) for c in channels if hasattr(c, name)]),
            )
        for name in TIMED:
            timing = [c for c in channels if hasattr(c, f"enter_{name}")]
            if len(timing) > 1:
                raise TypeError(
                    f"timed section {name!r} takes one subscriber, not "
                    + ", ".join(type(c).__name__ for c in timing)
                )
            for point in (f"enter_{name}", f"exit_{name}"):
                setattr(
                    self, point, getattr(timing[0], point) if timing else _ignore
                )
