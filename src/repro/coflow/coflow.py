"""Coflow model.

A coflow [Chowdhury & Stoica, HotNets'12] is a set of flows with shared
semantics (e.g. a MapReduce shuffle); the application cares about the
completion of the *last* flow (the CCT).  Coflows may be built up
incrementally (NEAT places one flow at a time, §5.1.2), so a coflow is
*sealed* once all of its flows have been submitted; the CCT is recorded when
a sealed coflow's last flow finishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import CoflowError
from repro.topology.base import LinkId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.flow import Flow

CoflowId = int


@dataclass(eq=False)
class Coflow:
    """A group of flows scheduled and measured as a unit.

    Attributes:
        coflow_id: unique id.
        arrival_time: when the coflow entered the system.
        tag: free-form label (e.g. job id / stage name).
        flows: flows attached so far (both active and finished).
    """

    coflow_id: CoflowId
    arrival_time: float
    tag: str = ""
    flows: List["Flow"] = field(default_factory=list)
    completion_time: Optional[float] = None
    _sealed: bool = field(default=False, repr=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def attach_flow(self, flow: "Flow") -> None:
        """Register a constituent flow (called by the fabric on submit)."""
        if self._sealed:
            raise CoflowError(
                f"coflow {self.coflow_id} is sealed; cannot attach flows"
            )
        self.flows.append(flow)

    def seal(self) -> None:
        """Declare that every constituent flow has been submitted."""
        if not self.flows:
            raise CoflowError(f"cannot seal empty coflow {self.coflow_id}")
        self._sealed = True

    @property
    def sealed(self) -> bool:
        return self._sealed

    # ------------------------------------------------------------------
    # Aggregates (the s_c / s_{c,l} quantities of §4.2)
    # ------------------------------------------------------------------
    @property
    def total_size(self) -> float:
        """Total size s_c of the coflow in bits."""
        total = 0
        for f in self.flows:
            total += f.size
        return total

    def size_on_link(self, link_id: LinkId) -> float:
        """s_{c,l}: total (original) size of this coflow's flows crossing
        ``link_id``."""
        total = 0
        for f in self.flows:
            if link_id in f.path:
                total += f.size
        return total

    def link_demands(self) -> Dict[LinkId, float]:
        """Remaining bits per link over all constituent flows."""
        demands: Dict[LinkId, float] = {}
        for flow in self.flows:
            if flow.finished:
                continue
            for link_id in flow.path:
                demands[link_id] = demands.get(link_id, 0.0) + flow.remaining
        return demands

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self._sealed and all(f.completion_time is not None for f in self.flows)

    def note_flow_finished(self, flow: "Flow", now: float) -> None:
        """Called by the fabric when a constituent flow completes."""
        if self.finished and self.completion_time is None:
            self.completion_time = now

    def cct(self) -> float:
        """Coflow completion time (raises if not finished)."""
        if self.completion_time is None:
            raise CoflowError(f"coflow {self.coflow_id} has not completed")
        return self.completion_time - self.arrival_time

    def __repr__(self) -> str:
        state = "done" if self.completion_time is not None else (
            "sealed" if self._sealed else "open"
        )
        return (
            f"Coflow(#{self.coflow_id} flows={len(self.flows)} "
            f"size={self.total_size:.3g}b {state})"
        )


@dataclass(frozen=True)
class CoflowRecord:
    """Immutable CCT record for a completed coflow."""

    coflow_id: CoflowId
    num_flows: int
    total_size: float
    arrival_time: float
    completion_time: float
    optimal_cct: float
    tag: str = ""

    @property
    def cct(self) -> float:
        return self.completion_time - self.arrival_time

    @property
    def slowdown(self) -> float:
        if self.optimal_cct <= 0:
            return 1.0
        return self.cct / self.optimal_cct

    @property
    def gap_from_optimal(self) -> float:
        """The paper's metric: ``(CCT - CCT_opt) / CCT_opt``."""
        return self.slowdown - 1.0
