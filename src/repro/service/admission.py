"""Admission control and backpressure for the placement service.

An open-loop workload does not slow down when the service falls behind,
so the request queue between the arrival stream and the serving loop
must be *bounded* and must decide, deterministically, which work to shed
when it overflows.  Three policies:

``drop-tail``
    Reject the newcomer when the queue is full — the classic bounded
    FIFO.  Cheapest and strictly arrival-order fair.

``shed-fct``
    Load-shed by predicted FCT: when the queue is full, compare the
    newcomer against the queued request with the *largest* serialization
    lower bound (``size / edge_capacity`` — the floor any FCT predictor
    agrees on, and monotone in size) and drop whichever is larger.
    Under overload this keeps the queue biased toward short flows, the
    same favour-the-small principle the network policies (SRPT/LAS)
    apply in the data plane.

``token-bucket``
    Rate limiting: tokens accrue at ``token_rate`` per simulated second
    up to ``token_burst``; each admission spends one.  Requests arriving
    with an empty bucket are rejected even if the queue has room —
    ingress shaping rather than overflow response.  The bounded queue's
    drop-tail still applies on top.

Every offer, rejection and enqueue is reported once to the telemetry
probe (:mod:`repro.telemetry.probe`); its metrics channel owns the
``service.*`` names the report layer zero-defaults (``tasks_rejected``,
``queue_depth``), so dashboards can alert on rejections that never
happened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.errors import ConfigError
from repro.workloads.traces import TaskArrival

if TYPE_CHECKING:  # pragma: no cover - avoids a service<->telemetry cycle
    from repro.telemetry import Telemetry

__all__ = ["ADMISSION_POLICIES", "AdmissionQueue", "QueuedRequest"]

#: Recognised admission policy names.
ADMISSION_POLICIES = ("drop-tail", "shed-fct", "token-bucket")


@dataclass
class QueuedRequest:
    """One admitted arrival waiting for a placement batch."""

    seq: int
    arrival: TaskArrival
    admitted_at: float


class AdmissionQueue:
    """Bounded request queue with a pluggable shed policy.

    The queue lives in *simulated* time: token refill and queue-wait
    accounting use the timestamps the caller passes in, never the wall
    clock, so admission decisions replay byte-identically.
    """

    def __init__(
        self,
        *,
        policy: str = "drop-tail",
        capacity: int = 1024,
        token_rate: Optional[float] = None,
        token_burst: Optional[float] = None,
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        if policy not in ADMISSION_POLICIES:
            raise ConfigError(
                f"unknown admission policy {policy!r}; "
                f"known: {', '.join(ADMISSION_POLICIES)}"
            )
        if capacity < 1:
            raise ConfigError(
                f"queue capacity must be >= 1, got {capacity!r}"
            )
        if policy == "token-bucket":
            if token_rate is None or token_rate <= 0:
                raise ConfigError(
                    "token-bucket admission needs a positive token_rate"
                )
            if token_burst is None or token_burst < 1:
                raise ConfigError(
                    "token-bucket admission needs token_burst >= 1"
                )
        self.policy = policy
        self.capacity = int(capacity)
        self._queue: List[QueuedRequest] = []
        self._token_rate = token_rate
        self._token_burst = token_burst
        # The bucket starts full so a session's first burst is admitted.
        self._tokens = float(token_burst) if token_burst is not None else 0.0
        self._token_refilled_at = 0.0
        self.offered = 0
        self.admitted = 0
        self.rejected = 0
        self.depth_peak = 0
        self._probe = (
            telemetry.attach("admission") if telemetry is not None else None
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._queue)

    @property
    def depth(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def offer(self, request: QueuedRequest) -> bool:
        """Admit or reject one arrival; returns True when admitted.

        ``request.admitted_at`` is the current simulated time (used for
        token refill); a shed-fct eviction counts as a rejection of the
        evicted request.
        """
        self.offered += 1
        if self._probe is not None:
            self._probe.on_offer()
        if self.policy == "token-bucket" and not self._take_token(
            request.admitted_at
        ):
            self._note_rejected()
            return False
        if len(self._queue) >= self.capacity:
            if self.policy == "shed-fct":
                victim_index = max(
                    range(len(self._queue)),
                    key=lambda i: self._queue[i].arrival.size,
                )
                victim = self._queue[victim_index]
                if victim.arrival.size > request.arrival.size:
                    # The queued giant is shed to make room for the
                    # newcomer (both can't fit; keep the short flow).
                    del self._queue[victim_index]
                    self._note_rejected()
                    self._enqueue(request)
                    return True
            self._note_rejected()
            return False
        self._enqueue(request)
        return True

    def take(self, max_items: int) -> List[QueuedRequest]:
        """Dequeue up to ``max_items`` requests in FIFO order."""
        batch = self._queue[:max_items]
        del self._queue[: len(batch)]
        return batch

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _enqueue(self, request: QueuedRequest) -> None:
        self._queue.append(request)
        self.admitted += 1
        if len(self._queue) > self.depth_peak:
            self.depth_peak = len(self._queue)
        if self._probe is not None:
            self._probe.on_enqueue(len(self._queue))

    def _note_rejected(self) -> None:
        self.rejected += 1
        if self._probe is not None:
            self._probe.on_reject()

    def _take_token(self, now: float) -> bool:
        elapsed = now - self._token_refilled_at
        if elapsed > 0:
            self._tokens = min(
                float(self._token_burst),
                self._tokens + elapsed * float(self._token_rate),
            )
            self._token_refilled_at = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def __repr__(self) -> str:
        return (
            f"AdmissionQueue(policy={self.policy!r}, depth={self.depth}, "
            f"capacity={self.capacity}, admitted={self.admitted}, "
            f"rejected={self.rejected})"
        )
