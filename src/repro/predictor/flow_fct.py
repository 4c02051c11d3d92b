"""FCT predictors for flow-level scheduling (§4.1 of the paper).

Each predictor answers, for a hypothetical new flow of size ``s0`` placed on
a link with state ``F_l``:

* ``fct(s0, link)`` — FCT(f0, l), equations (3), (4), (7), which
  ``predict_fct(s0, capacity, sizes)`` answers from raw residual sizes;
* ``delta(s0, s_f, link)`` — ΔFCT(f, l), the increase the new flow causes
  to an existing flow of residual size ``s_f``, equations (5), (8);
* ``delta_sum(s0, link)`` — Σ_{f∈F_l} ΔFCT(f, l);
* ``link_objective(s0, link)`` — FCT + ΣΔ, the per-link term of the
  alternative objective (2).

Path-level helpers take the bottleneck (max) across links, as the paper
does.  All predictors assume work-conserving scheduling and, per §4, ignore
future arrivals.  Sums fold left (``+=``): 3.12 compensates a float ``sum``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.predictor.state import LinkState


class FlowFCTPredictor(ABC):
    """Completion-time model of one network scheduling policy."""

    #: Policy name this predictor models, e.g. ``"fair"``.
    name: str = "abstract"

    @abstractmethod
    def predict_fct(self, new_size: float, capacity: float, sizes) -> float:
        """:meth:`fct` on a link of ``capacity`` whose flows have residual
        ``sizes`` (an iterable; sizes <= 0, finished flows, are dropped)."""

    def fct(self, new_size: float, link: LinkState) -> float:
        """Predicted FCT of a new flow of ``new_size`` bits on ``link``."""
        return self.predict_fct(new_size, link.capacity, link.flow_sizes)

    @abstractmethod
    def delta(self, new_size: float, existing_size: float, link: LinkState) -> float:
        """Predicted FCT increase of one existing flow due to the new one."""

    def delta_sum(self, new_size: float, link: LinkState) -> float:
        """Σ over existing flows of :meth:`delta`."""
        total = 0.0
        for s in link.flow_sizes:
            total += self.delta(new_size, s, link)
        return total

    def link_objective(self, new_size: float, link: LinkState) -> float:
        """The per-link term of objective (2): FCT(f0,l) + Σ ΔFCT(f,l)."""
        return self.fct(new_size, link) + self.delta_sum(new_size, link)

    # ------------------------------------------------------------------
    # Path (bottleneck) aggregation
    # ------------------------------------------------------------------
    def predict_path(self, new_size: float, links: Sequence[LinkState]) -> float:
        """max_l FCT(f0, l) — the new flow's own predicted completion."""
        if not links:
            return 0.0  # host-local transfer
        return max(self.fct(new_size, link) for link in links)

    def objective(self, new_size: float, links: Sequence[LinkState]) -> float:
        """Objective (2) for a candidate path: max_l (FCT + ΣΔ)."""
        if not links:
            return 0.0
        return max(self.link_objective(new_size, link) for link in links)


class FCFSPredictor(FlowFCTPredictor):
    """Equation (3): the new flow waits for every queued byte."""

    name = "fcfs"

    def predict_fct(self, new_size, capacity, sizes) -> float:
        queued = 0.0
        for s in sizes:
            if s > 0:
                queued += s
        return (new_size + queued) / capacity

    def delta(self, new_size: float, existing_size: float, link: LinkState) -> float:
        # The new flow is served last; existing flows are unaffected.
        return 0.0


class FairPredictor(FlowFCTPredictor):
    """Equations (4)-(5): fair sharing (also exact for LAS, §4.1.2 remark).

    By the time f0 finishes, each existing flow has transmitted
    ``min(s_f, s0)`` bits; smaller flows finish inside f0's lifetime and
    larger ones progress alongside it.
    """

    name = "fair"

    def predict_fct(self, new_size, capacity, sizes) -> float:
        shared = 0.0
        for s in sizes:
            if s > 0:
                shared += new_size if new_size < s else s
        return (new_size + shared) / capacity

    def delta(self, new_size: float, existing_size: float, link: LinkState) -> float:
        return min(existing_size, new_size) / link.capacity


class LASPredictor(FairPredictor):
    """LAS with preemption is equivalent to fair sharing (§4.1.2 remark)."""

    name = "las"


class SRPTPredictor(FlowFCTPredictor):
    """Equations (7)-(8): only smaller-or-equal flows are served first."""

    name = "srpt"

    def predict_fct(self, new_size, capacity, sizes) -> float:
        ahead = 0.0
        for s in sizes:
            if 0 < s <= new_size:
                ahead += s
        return (new_size + ahead) / capacity

    def delta(self, new_size: float, existing_size: float, link: LinkState) -> float:
        if existing_size > new_size:
            return new_size / link.capacity
        return 0.0
