"""Exception hierarchy for the repro (NEAT) library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Raised when the discrete-event engine reaches an inconsistent state."""


class TopologyError(ReproError):
    """Raised for invalid topology construction or lookups."""


class RoutingError(TopologyError):
    """Raised when no route exists between two topology nodes."""


class FlowError(ReproError):
    """Raised for invalid flow definitions or state transitions."""


class CoflowError(ReproError):
    """Raised for invalid coflow definitions or state transitions."""


class PredictionError(ReproError):
    """Raised when a completion-time prediction cannot be produced."""


class PlacementError(ReproError):
    """Raised when a placement policy cannot place a task."""


class WorkloadError(ReproError):
    """Raised for malformed workload specifications."""


class DaemonError(ReproError):
    """Raised for control-plane (daemon/RPC) protocol violations."""


class DaemonUnreachable(DaemonError):
    """Raised by the message bus when the destination host is down (or the
    endpoint unregistered) under an active fault plan."""


class MessageDropped(DaemonError):
    """Raised by the message bus when a fault plan's loss window drops a
    synchronous request (the caller sees a lost RPC, not a reply)."""


class FaultError(ReproError):
    """Raised for malformed fault plans or invalid fault injections."""


class ConfigError(ReproError):
    """Raised for invalid experiment configuration."""
