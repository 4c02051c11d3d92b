"""Time-series observability for running simulations.

A :class:`TimelineSampler` rides the DES, sampling fabric state (link
utilisation, active flow count, queued bits) at a fixed interval.  Used to
inspect *why* a placement policy behaves as it does — e.g. whether minLoad
piles long flows onto a few downlinks — and to produce time-series for
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.network.fabric import NetworkFabric
from repro.topology.base import LinkId


@dataclass(frozen=True)
class TimelineSample:
    """One sampling instant."""

    time: float
    active_flows: int
    total_queued_bits: float
    #: per watched link: (utilisation in [0,1], queued bits)
    links: Dict[LinkId, Tuple[float, float]]


class TimelineSampler:
    """Samples fabric state every ``interval`` seconds until stopped.

    The sampler self-terminates when the fabric goes idle *and* at least
    one sample was taken, so it never keeps an otherwise-finished
    simulation alive indefinitely.
    """

    def __init__(
        self,
        fabric: NetworkFabric,
        *,
        interval: float,
        watch_links: Optional[Sequence[LinkId]] = None,
        max_samples: int = 100_000,
    ) -> None:
        if interval <= 0:
            raise ConfigError(f"interval must be positive, got {interval!r}")
        self._fabric = fabric
        self._interval = interval
        self._watch = tuple(watch_links or ())
        self._max_samples = max_samples
        self._samples: List[TimelineSample] = []
        self._stopped = False
        fabric.engine.schedule(0.0, self._tick, label="timeline-sample")

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def samples(self) -> Sequence[TimelineSample]:
        return tuple(self._samples)

    def stop(self) -> None:
        """Stop sampling after the current tick."""
        self._stopped = True

    def peak_active_flows(self) -> int:
        return max((s.active_flows for s in self._samples), default=0)

    def mean_utilization(self, link_id: LinkId) -> float:
        """Average sampled utilisation of one watched link."""
        values = [
            s.links[link_id][0] for s in self._samples if link_id in s.links
        ]
        if not values:
            raise ConfigError(f"link {link_id!r} was not watched")
        return sum(values) / len(values)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if self._stopped or len(self._samples) >= self._max_samples:
            return
        fabric = self._fabric
        flows = fabric.active_flows()
        links = {
            link_id: (
                fabric.link_rate_utilization(link_id),
                fabric.link_queued_bits(link_id),
            )
            for link_id in self._watch
        }
        self._samples.append(
            TimelineSample(
                time=fabric.engine.now,
                active_flows=len(flows),
                total_queued_bits=sum(map(fabric.residual, flows)),
                links=links,
            )
        )
        # Keep sampling while there is traffic to observe *or* scheduled
        # work still to come (e.g. arrivals queued before the first flow
        # starts); stop once the simulation is truly drained.
        if flows or fabric.engine.pending_events > 0:
            fabric.engine.schedule(
                self._interval, self._tick, label="timeline-sample"
            )
