"""Open-loop arrival generation for the streaming placement service.

A closed-loop replay stops offering work when the trace runs out; an
*open-loop* source keeps offering tasks at its configured rate no matter
how far behind the service falls — which is what makes admission control
and backpressure measurable at all ("To schedule or not to schedule":
scheduling-policy wins can evaporate under realistic arrival processes).

Three profiles cover the arrival shapes the service is evaluated under:

* :class:`PoissonProfile` — constant-rate Poisson (the §6.1 process);
* :class:`DiurnalProfile` — sinusoidally modulated rate (day/night
  load swings);
* :class:`BurstProfile` — ON/OFF square wave (incast-like bursts over a
  quiet baseline).

Time-varying profiles are sampled with Lewis-Shedler thinning: candidate
points arrive at the profile's peak rate and are accepted with
probability ``rate(t) / peak``.  All randomness derives from
``hash_seed(seed, name)`` streams, so the same ``(seed, profile,
duration)`` always yields a byte-identical arrival stream, and drawing a
flow size never perturbs the arrival process.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import WorkloadError
from repro.sim.randomness import hash_seed
from repro.topology.base import NodeId
from repro.workloads.distributions import EmpiricalDistribution
from repro.workloads.traces import TaskArrival

__all__ = [
    "ArrivalProfile",
    "PoissonProfile",
    "DiurnalProfile",
    "BurstProfile",
    "OpenLoopSource",
    "profile_from_dict",
]


class ArrivalProfile(ABC):
    """Instantaneous task-arrival rate as a function of simulated time."""

    #: Registry/report name, e.g. ``"poisson"``.
    kind: str = "abstract"

    @abstractmethod
    def rate_at(self, t: float) -> float:
        """Arrival rate (tasks/sec) at simulated time ``t``."""

    @abstractmethod
    def peak_rate(self) -> float:
        """An upper bound on :meth:`rate_at` (the thinning envelope)."""

    def mean_rate(self) -> float:
        """Long-run average rate (used for offered-load accounting)."""
        return self.peak_rate()

    @abstractmethod
    def as_dict(self) -> Dict[str, float]:
        """JSON-serialisable parameters (round-trips via
        :func:`profile_from_dict`)."""


class PoissonProfile(ArrivalProfile):
    """Constant-rate Poisson arrivals."""

    kind = "poisson"

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise WorkloadError(f"arrival rate must be positive, got {rate!r}")
        self.rate = float(rate)

    def rate_at(self, t: float) -> float:
        return self.rate

    def peak_rate(self) -> float:
        return self.rate

    def mean_rate(self) -> float:
        return self.rate

    def as_dict(self) -> Dict[str, float]:
        return {"kind": self.kind, "rate": self.rate}

    def __repr__(self) -> str:
        return f"PoissonProfile(rate={self.rate!r})"


class DiurnalProfile(ArrivalProfile):
    """Sinusoidally modulated Poisson arrivals.

    ``rate(t) = base_rate * (1 + amplitude * sin(2*pi*(t + phase)/period))``
    — the classic day/night swing.  ``amplitude`` must stay below 1 so the
    rate never touches zero (the mean rate is exactly ``base_rate``).
    """

    kind = "diurnal"

    def __init__(
        self,
        base_rate: float,
        *,
        amplitude: float = 0.5,
        period: float = 10.0,
        phase: float = 0.0,
    ) -> None:
        if base_rate <= 0:
            raise WorkloadError(
                f"base rate must be positive, got {base_rate!r}"
            )
        if not 0 <= amplitude < 1:
            raise WorkloadError(
                f"amplitude must be in [0, 1), got {amplitude!r}"
            )
        if period <= 0:
            raise WorkloadError(f"period must be positive, got {period!r}")
        self.base_rate = float(base_rate)
        self.amplitude = float(amplitude)
        self.period = float(period)
        self.phase = float(phase)

    def rate_at(self, t: float) -> float:
        swing = math.sin(2.0 * math.pi * (t + self.phase) / self.period)
        return self.base_rate * (1.0 + self.amplitude * swing)

    def peak_rate(self) -> float:
        return self.base_rate * (1.0 + self.amplitude)

    def mean_rate(self) -> float:
        return self.base_rate

    def as_dict(self) -> Dict[str, float]:
        return {
            "kind": self.kind,
            "base_rate": self.base_rate,
            "amplitude": self.amplitude,
            "period": self.period,
            "phase": self.phase,
        }

    def __repr__(self) -> str:
        return (
            f"DiurnalProfile(base_rate={self.base_rate!r}, "
            f"amplitude={self.amplitude!r}, period={self.period!r})"
        )


class BurstProfile(ArrivalProfile):
    """ON/OFF (two-state) modulated Poisson arrivals.

    The rate alternates deterministically between ``on_rate`` for
    ``on_duration`` seconds and ``off_rate`` for ``off_duration`` seconds
    — a square-wave burst pattern whose mean rate is the duty-cycle
    weighted average.  ``off_rate`` may be zero (pure ON/OFF).
    """

    kind = "burst"

    def __init__(
        self,
        on_rate: float,
        *,
        off_rate: float = 0.0,
        on_duration: float = 1.0,
        off_duration: float = 4.0,
    ) -> None:
        if on_rate <= 0:
            raise WorkloadError(f"on rate must be positive, got {on_rate!r}")
        if off_rate < 0:
            raise WorkloadError(
                f"off rate must be non-negative, got {off_rate!r}"
            )
        if on_duration <= 0 or off_duration <= 0:
            raise WorkloadError("burst durations must be positive")
        self.on_rate = float(on_rate)
        self.off_rate = float(off_rate)
        self.on_duration = float(on_duration)
        self.off_duration = float(off_duration)

    def rate_at(self, t: float) -> float:
        cycle = self.on_duration + self.off_duration
        return (
            self.on_rate
            if (t % cycle) < self.on_duration
            else self.off_rate
        )

    def peak_rate(self) -> float:
        return max(self.on_rate, self.off_rate)

    def mean_rate(self) -> float:
        cycle = self.on_duration + self.off_duration
        return (
            self.on_rate * self.on_duration
            + self.off_rate * self.off_duration
        ) / cycle

    def as_dict(self) -> Dict[str, float]:
        return {
            "kind": self.kind,
            "on_rate": self.on_rate,
            "off_rate": self.off_rate,
            "on_duration": self.on_duration,
            "off_duration": self.off_duration,
        }

    def __repr__(self) -> str:
        return (
            f"BurstProfile(on_rate={self.on_rate!r}, "
            f"off_rate={self.off_rate!r}, on={self.on_duration!r}s, "
            f"off={self.off_duration!r}s)"
        )


def profile_from_dict(spec: Dict) -> ArrivalProfile:
    """Build an :class:`ArrivalProfile` from its JSON form.

    The inverse of :meth:`ArrivalProfile.as_dict`.  Raises
    :class:`~repro.errors.WorkloadError` on unknown kinds or parameters.
    """
    if not isinstance(spec, dict):
        raise WorkloadError(f"arrival profile must be an object, got {spec!r}")
    params = dict(spec)
    kind = params.pop("kind", None)
    try:
        if kind == "poisson":
            return PoissonProfile(**params)
        if kind == "diurnal":
            base = params.pop("base_rate")
            return DiurnalProfile(base, **params)
        if kind == "burst":
            on = params.pop("on_rate")
            return BurstProfile(on, **params)
    except (KeyError, TypeError) as exc:
        raise WorkloadError(
            f"bad parameters for arrival profile {kind!r}: {exc}"
        ) from None
    raise WorkloadError(
        f"unknown arrival profile kind {kind!r}; "
        "known: poisson, diurnal, burst"
    )


class OpenLoopSource:
    """Seed-deterministic open-loop task-arrival stream.

    Iterating yields :class:`~repro.workloads.traces.TaskArrival` objects
    in time order until ``duration`` is exceeded.  The stream is lazy —
    the serving loop pulls the next arrival as simulated time advances,
    so a long session never materialises millions of arrivals up front —
    but :meth:`arrivals` materialises it for tests and offline use.

    Three independent seeded streams (arrival process, data-node choice,
    flow size) derive from the master seed, so e.g. changing the size
    distribution never perturbs arrival *times*.
    """

    def __init__(
        self,
        profile: ArrivalProfile,
        *,
        hosts: Sequence[NodeId],
        distribution: EmpiricalDistribution,
        duration: float,
        seed: int,
        tag_prefix: str = "svc",
    ) -> None:
        if not hosts:
            raise WorkloadError("open-loop source needs at least one host")
        if duration <= 0:
            raise WorkloadError(
                f"duration must be positive, got {duration!r}"
            )
        self.profile = profile
        self.duration = float(duration)
        self.seed = int(seed)
        self._hosts = list(hosts)
        self._distribution = distribution
        self._tag_prefix = tag_prefix

    def __iter__(self) -> Iterator[TaskArrival]:
        rng_arrivals = random.Random(hash_seed(self.seed, "service:arrivals"))
        rng_nodes = random.Random(hash_seed(self.seed, "service:nodes"))
        rng_sizes = random.Random(hash_seed(self.seed, "service:sizes"))
        peak = self.profile.peak_rate()
        hosts = self._hosts
        now = 0.0
        index = 0
        while True:
            now += rng_arrivals.expovariate(peak)
            if now > self.duration:
                return
            # Lewis-Shedler thinning: accept with rate(t)/peak.  The
            # acceptance draw happens for every candidate (even under a
            # constant-rate profile, where it always accepts) so the
            # *pattern* of stream consumption is profile-independent.
            accept = rng_arrivals.random()
            if accept * peak > self.profile.rate_at(now):
                continue
            yield TaskArrival(
                time=now,
                data_node=hosts[rng_nodes.randrange(len(hosts))],
                size=self._distribution.sample(rng_sizes),
                tag=f"{self._tag_prefix}{index}",
            )
            index += 1

    def arrivals(self) -> List[TaskArrival]:
        """Materialise the full stream (tests, offline analysis)."""
        return list(self)

    def expected_arrivals(self) -> float:
        """Mean number of arrivals the profile offers over the session."""
        return self.profile.mean_rate() * self.duration

    def __repr__(self) -> str:
        return (
            f"OpenLoopSource({self.profile!r}, duration={self.duration!r}, "
            f"seed={self.seed!r}, hosts={len(self._hosts)})"
        )

