"""Network-state snapshots consumed by the completion-time predictors.

The predictors of §4 need, per link: the link bandwidth and the *residual*
sizes of the flows (or per-link loads of the coflows) crossing it.  These
snapshot types decouple the predictor math from the simulator, so the same
predictor code runs inside the network daemons (on live fabric state), in
unit tests (on hand-built states), and on compressed states (§5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.errors import PredictionError
from repro.topology.base import LinkId


def _bad_capacity(link_id: LinkId, capacity: float) -> PredictionError:
    return PredictionError(
        f"link {link_id!r} needs positive capacity, got {capacity!r}"
    )


@dataclass(frozen=True)
class LinkState:
    """Residual flow sizes on one link (flow-level scheduling).

    Attributes:
        link_id: which link this snapshot describes.
        capacity: bandwidth B_l in bits/sec.
        flow_sizes: residual sizes (bits) of the cross-flows F_l.
    """

    link_id: LinkId
    capacity: float
    flow_sizes: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise _bad_capacity(self.link_id, self.capacity)
        if any(s <= 0 for s in self.flow_sizes):
            raise PredictionError("flow sizes must be positive")

    @property
    def total_bits(self) -> float:
        """Total queued bits on the link (a left fold: the same bits on
        every CPython)."""
        total = 0
        for size in self.flow_sizes:
            total += size
        return total

    @property
    def num_flows(self) -> int:
        return len(self.flow_sizes)

    @property
    def min_flow_size(self) -> float:
        """The node-state quantity of §5.1.1 (inf when idle)."""
        return min(self.flow_sizes) if self.flow_sizes else float("inf")

    def without_one(self, size: float) -> "LinkState":
        """Snapshot with one flow of ``size`` removed (used when computing
        an *existing* flow's FCT, where it must not count itself)."""
        sizes = list(self.flow_sizes)
        try:
            sizes.remove(size)
        except ValueError:
            raise PredictionError(
                f"no flow of size {size!r} on link {self.link_id!r}"
            ) from None
        return LinkState(self.link_id, self.capacity, tuple(sizes))


@dataclass(frozen=True)
class CoflowOnLink:
    """One cross-coflow's view from a link (§4.2 quantities).

    Attributes:
        total_size: s_c — the coflow's total residual bytes (bits here).
        size_on_link: s_{c,l} — its residual bytes crossing this link.
        arrival_time: used by permutation predictors that order by arrival.
    """

    total_size: float
    size_on_link: float
    arrival_time: float = 0.0

    def __post_init__(self) -> None:
        if self.total_size <= 0:
            raise PredictionError("coflow total size must be positive")
        if not 0 < self.size_on_link <= self.total_size + 1e-6:
            raise PredictionError(
                "coflow on-link size must be in (0, total_size]"
            )

    @property
    def normalized_load(self) -> float:
        """s_{c,l} / s_c — the e_{l,n} building block of §5.2."""
        return self.size_on_link / self.total_size


@dataclass(frozen=True)
class CoflowLinkState:
    """Residual coflow loads on one link (coflow-level scheduling)."""

    link_id: LinkId
    capacity: float
    coflows: Tuple[CoflowOnLink, ...] = ()

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise _bad_capacity(self.link_id, self.capacity)


def unchecked(cls, **fields):
    """A frozen snapshot built without its ``__post_init__``, for builders
    that have just established (by filtering or clamping) what it checks."""
    snapshot = object.__new__(cls)
    snapshot.__dict__.update(fields)
    return snapshot


def link_state_from_flows(
    link_id: LinkId,
    capacity: float,
    remaining_sizes: Iterable[float],
) -> LinkState:
    """Build a :class:`LinkState`, silently dropping finished (<=0) flows."""
    if capacity <= 0:
        raise _bad_capacity(link_id, capacity)
    return unchecked(
        LinkState,
        link_id=link_id,
        capacity=capacity,
        flow_sizes=tuple([s for s in remaining_sizes if s > 0]),
    )
