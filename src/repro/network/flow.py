"""Flow model for the fluid simulator.

A :class:`Flow` is a unidirectional transfer of ``size`` bits from a source
host to a destination host along a fixed routed path.  The fluid model
tracks two progress quantities:

* ``remaining`` — bits still to transfer (drives SRPT priority),
* ``attained`` — bits already transferred (drives LAS priority).

Flows may belong to a coflow (see :mod:`repro.coflow`); the scheduler then
treats the coflow as the scheduling unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

from repro.errors import FlowError
from repro.topology.base import LinkId, NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.coflow.coflow import Coflow

FlowId = int

#: Progress below this many bits counts as "finished" (guards float error).
COMPLETION_EPSILON_BITS = 1e-6


@dataclass(eq=False)
class Flow:
    """A single network flow.

    Attributes:
        flow_id: unique id assigned by the fabric.
        src: source host id.
        dst: destination host id.
        size: transfer size in bits (must be positive).
        path: link ids traversed, in order (empty for host-local transfers).
        arrival_time: simulation time the flow entered the network.
        remaining: bits left at the last sync (now: ``NetworkFabric.residual``).
        attained: bits transferred by the last sync.
        completion_time: set when the flow finishes.
        coflow: owning coflow, if scheduled as part of one.
        tag: free-form label used by experiments (e.g. job id).
    """

    flow_id: FlowId
    src: NodeId
    dst: NodeId
    size: float
    path: Tuple[LinkId, ...]
    arrival_time: float
    remaining: float = field(init=False)
    attained: float = field(init=False, default=0.0)
    completion_time: Optional[float] = None
    coflow: Optional["Coflow"] = None
    tag: str = ""

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise FlowError(f"flow size must be positive, got {self.size!r}")
        if self.arrival_time < 0:
            raise FlowError(
                f"flow arrival time must be >= 0, got {self.arrival_time!r}"
            )
        self.remaining = float(self.size)

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """True once remaining bits fall within the completion epsilon.

        The epsilon scales with flow size so that float error accumulated
        over many rate recomputations of a multi-gigabyte flow still counts
        as done.
        """
        return self.remaining <= COMPLETION_EPSILON_BITS + self.size * 1e-12

    @property
    def is_local(self) -> bool:
        """True if src == dst (zero network transfer)."""
        return not self.path and self.src == self.dst

    def advance(self, bits: float) -> None:
        """Transfer ``bits`` of progress (clamped to the remaining size)."""
        if bits < 0:
            raise FlowError(f"cannot advance by negative bits {bits!r}")
        moved = min(bits, self.remaining)
        self.remaining -= moved
        self.attained += moved

    def fct(self) -> float:
        """Flow completion time (raises if not finished yet)."""
        if self.completion_time is None:
            raise FlowError(f"flow {self.flow_id} has not completed")
        return self.completion_time - self.arrival_time

    def __repr__(self) -> str:
        state = "done" if self.completion_time is not None else "active"
        return (
            f"Flow(#{self.flow_id} {self.src}->{self.dst} "
            f"size={self.size:.3g}b rem={self.remaining:.3g}b {state})"
        )


@dataclass(frozen=True)
class FlowRecord:
    """Immutable completion record appended to the fabric's FCT log."""

    flow_id: FlowId
    src: NodeId
    dst: NodeId
    size: float
    arrival_time: float
    completion_time: float
    optimal_fct: float
    tag: str = ""
    coflow_id: Optional[int] = None

    @property
    def fct(self) -> float:
        return self.completion_time - self.arrival_time

    @property
    def slowdown(self) -> float:
        """FCT divided by the optimal (empty-network) FCT."""
        if self.optimal_fct <= 0:
            return 1.0
        return self.fct / self.optimal_fct

    @property
    def gap_from_optimal(self) -> float:
        """The paper's metric: ``(FCT - FCT_opt) / FCT_opt`` (= slowdown-1)."""
        return self.slowdown - 1.0
