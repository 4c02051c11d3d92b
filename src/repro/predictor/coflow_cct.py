"""CCT predictors for coflow-level scheduling (§4.2 of the paper).

A hypothetical new coflow ``c0`` is described, per candidate link, by the
pair ``(s_{c0}, s_{c0,l})`` — its total size and the portion crossing that
link.  Assumptions (§4.2): flows of a coflow share one priority and finish
simultaneously (Varys-style rate adaptation), so a coflow transferring ``b``
bytes in total moves ``b * s_{c,l} / s_c`` bytes over link ``l``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence, Tuple

from repro.predictor.state import CoflowLinkState, CoflowOnLink

_INF = float("inf")


class CoflowCCTPredictor(ABC):
    """Completion-time model of one coflow scheduling policy."""

    #: Policy name this predictor models, e.g. ``"varys"``.
    name: str = "abstract"

    @abstractmethod
    def cct(
        self, new_total: float, new_on_link: float, link: CoflowLinkState
    ) -> float:
        """Predicted CCT contribution of link ``l`` for the new coflow."""

    @abstractmethod
    def delta_sum(
        self, new_total: float, new_on_link: float, link: CoflowLinkState
    ) -> float:
        """Σ over existing coflows of ΔCCT(c, l)."""

    def link_objective(
        self, new_total: float, new_on_link: float, link: CoflowLinkState
    ) -> float:
        """Per-link term of objective (2): CCT(c0,l) + Σ ΔCCT(c,l)."""
        return self.cct(new_total, new_on_link, link) + self.delta_sum(
            new_total, new_on_link, link
        )

    # ------------------------------------------------------------------
    # Path-set (bottleneck) aggregation
    # ------------------------------------------------------------------
    def predict_links(
        self,
        new_total: float,
        placements: Sequence[Tuple[float, CoflowLinkState]],
    ) -> float:
        """max over (on_link_size, link) pairs of the new coflow's CCT."""
        if not placements:
            return 0.0
        return max(
            self.cct(new_total, on_link, link) for on_link, link in placements
        )

    def objective(
        self,
        new_total: float,
        placements: Sequence[Tuple[float, CoflowLinkState]],
    ) -> float:
        """Objective (2) over the links the new coflow would traverse."""
        if not placements:
            return 0.0
        return max(
            self.link_objective(new_total, on_link, link)
            for on_link, link in placements
        )


class CoflowFCFSPredictor(CoflowCCTPredictor):
    """Equation (10): all existing coflow bytes on the link go first."""

    name = "coflow-fcfs"

    def cct(
        self, new_total: float, new_on_link: float, link: CoflowLinkState
    ) -> float:
        queued = sum(c.size_on_link for c in link.coflows)
        return (new_on_link + queued) / link.capacity

    def delta_sum(
        self, new_total: float, new_on_link: float, link: CoflowLinkState
    ) -> float:
        return 0.0


class CoflowFairPredictor(CoflowCCTPredictor):
    """Equations (11)-(13): fair sharing / LAS at coflow granularity.

    Existing coflows smaller (in total size) than c0 finish within c0's
    lifetime, contributing their full on-link load; larger ones contribute
    proportionally to the progress they make (s_{c0} of their total).
    """

    name = "coflow-fair"

    def cct(
        self, new_total: float, new_on_link: float, link: CoflowLinkState
    ) -> float:
        load = new_on_link
        for c in link.coflows:
            if c.total_size <= new_total:
                load += c.size_on_link
            else:
                load += new_total * c.size_on_link / c.total_size
        return load / link.capacity

    def delta_sum(
        self, new_total: float, new_on_link: float, link: CoflowLinkState
    ) -> float:
        # Equation (12) summed: (s_{c0,l} / s_{c0}) * min(s_c, s_{c0}) / B_l.
        total = 0.0
        for c in link.coflows:
            total += min(c.total_size, new_total)
        return (new_on_link / new_total) * total / link.capacity


class CoflowLASPredictor(CoflowFairPredictor):
    """Coflow LAS with preemption is modelled as coflow fair sharing."""

    name = "coflow-las"


class PermutationPredictor(CoflowCCTPredictor):
    """Equations (14)-(16): serve coflows sequentially in a permutation.

    The permutation is derived from a priority key over
    :class:`CoflowOnLink`; the new coflow's key is computed from its
    ``(total, on_link)`` pair.  TCF (smallest-total-coflow-first, eq (17))
    and FIFO orderings are the instances used in the paper.
    """

    name = "permutation"

    def __init__(
        self,
        key: Callable[[float, float, float], float],
        name: str = "permutation",
    ) -> None:
        """Args:
            key: maps ``(total_size, size_on_link, arrival_time)`` to a
                priority value; smaller is served earlier.
            name: registry/report name.
        """
        self._key = key
        self.name = name

    def _terms(
        self, new_total: float, new_on_link: float, link: CoflowLinkState
    ) -> Tuple[float, float]:
        """``(cct, delta_sum)`` from one pass over the link's coflows,
        each one's key computed once."""
        key = self._key
        # A newly arriving coflow has the latest arrival time; +inf keeps
        # FIFO-style keys consistent without knowing "now".
        new_key = key(new_total, new_on_link, _INF)
        ahead = []
        behind = 0
        for c in link.coflows:
            rank = key(c.total_size, c.size_on_link, c.arrival_time)
            if rank <= new_key:
                ahead.append(c.size_on_link)
            elif rank > new_key:
                behind += 1
        capacity = link.capacity
        # Equation (14): bytes of every coflow at or ahead of c0's rank.
        # Equation (15) summed: each lower-priority coflow waits for the
        # new coflow's on-link bytes.
        return (
            (new_on_link + sum(ahead)) / capacity,
            new_on_link * behind / capacity,
        )

    def cct(
        self, new_total: float, new_on_link: float, link: CoflowLinkState
    ) -> float:
        return self._terms(new_total, new_on_link, link)[0]

    def delta_sum(
        self, new_total: float, new_on_link: float, link: CoflowLinkState
    ) -> float:
        return self._terms(new_total, new_on_link, link)[1]

    def link_objective(
        self, new_total: float, new_on_link: float, link: CoflowLinkState
    ) -> float:
        cct, delta = self._terms(new_total, new_on_link, link)
        return cct + delta


class TCFPredictor(PermutationPredictor):
    """Smallest-total-coflow-first (eq (17)); the SRPT analogue (Varys/SCF)."""

    name = "tcf"

    def __init__(self) -> None:
        super().__init__(
            key=lambda total, on_link, arrival: total, name="tcf"
        )
