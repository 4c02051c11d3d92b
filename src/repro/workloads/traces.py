"""Traffic traces: generation and replay.

The paper replays the *same* traffic through every task/network scheduling
combination ("we first generate the traffic using ns2 and replay the same
traffic in the testbed").  We do the same: a :class:`Trace` is a
deterministic list of task arrivals — arrival time, input-data location,
flow size — generated once from a seed and then replayed against each
placement policy, so every policy faces byte-identical demand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import WorkloadError
from repro.topology.base import NodeId
from repro.workloads.distributions import EmpiricalDistribution


@dataclass(frozen=True)
class TaskArrival:
    """One task arrival in a flow-level trace."""

    time: float
    data_node: NodeId
    size: float
    tag: str = ""


@dataclass(frozen=True)
class CoflowArrival:
    """One coflow arrival: a batch of transfers placed together.

    ``transfers`` are ``(data_node, size_bits)`` pairs; the placement layer
    chooses the destination(s).
    """

    time: float
    transfers: Tuple[Tuple[NodeId, float], ...]
    tag: str = ""

    @property
    def total_size(self) -> float:
        total = 0  # a left fold: the same bits on every CPython
        for _node, size in self.transfers:
            total += size
        return total


@dataclass(frozen=True)
class Trace:
    """A deterministic sequence of arrivals plus its generation metadata."""

    arrivals: Tuple
    seed: int
    description: str = ""

    def __len__(self) -> int:
        return len(self.arrivals)


def poisson_rate_for_load(
    load: float,
    num_hosts: int,
    edge_capacity: float,
    mean_size: float,
) -> float:
    """Arrival rate (tasks/sec) so the expected offered traffic equals
    ``load`` times the aggregate edge capacity.

    With uniformly random sources and destinations, each flow consumes its
    size once on an uplink and once on a downlink, and the fabric offers
    ``num_hosts * edge_capacity`` in each direction, so the calculation is
    per direction.
    """
    if not 0 < load:
        raise WorkloadError(f"load must be positive, got {load!r}")
    if mean_size <= 0:
        raise WorkloadError("mean flow size must be positive")
    return load * num_hosts * edge_capacity / mean_size


def generate_flow_trace(
    *,
    hosts: Sequence[NodeId],
    distribution: EmpiricalDistribution,
    load: float,
    edge_capacity: float,
    num_arrivals: int,
    seed: int,
    tag_prefix: str = "flow",
) -> Trace:
    """Generate a Poisson flow-arrival trace at the target ``load``.

    Data locations are uniform over ``hosts``; sizes are i.i.d. from
    ``distribution``; inter-arrivals are exponential with the rate implied
    by :func:`poisson_rate_for_load`.
    """
    if num_arrivals < 1:
        raise WorkloadError("need at least one arrival")
    rng = random.Random(seed)
    rate = poisson_rate_for_load(
        load, len(hosts), edge_capacity, distribution.mean()
    )
    now = 0.0
    arrivals: List[TaskArrival] = []
    for index in range(num_arrivals):
        now += rng.expovariate(rate)
        arrivals.append(
            TaskArrival(
                time=now,
                data_node=hosts[rng.randrange(len(hosts))],
                size=distribution.sample(rng),
                tag=f"{tag_prefix}{index}",
            )
        )
    return Trace(
        arrivals=tuple(arrivals),
        seed=seed,
        description=(
            f"{distribution.name} flows, load={load}, n={num_arrivals}"
        ),
    )


def generate_coflow_trace(
    *,
    hosts: Sequence[NodeId],
    distribution: EmpiricalDistribution,
    load: float,
    edge_capacity: float,
    num_arrivals: int,
    seed: int,
    min_width: int = 2,
    max_width: int = 6,
    tag_prefix: str = "coflow",
) -> Trace:
    """Generate a Poisson coflow-arrival trace.

    Each coflow has a uniform random width (number of constituent flows)
    in ``[min_width, max_width]``; each constituent flow draws its own
    size from ``distribution`` and its own uniform source.  The arrival
    rate is derated by the mean width so the byte load still matches
    ``load``.
    """
    if not 1 <= min_width <= max_width:
        raise WorkloadError("need 1 <= min_width <= max_width")
    if max_width > len(hosts):
        raise WorkloadError("coflow width exceeds host count")
    rng = random.Random(seed)
    mean_width = (min_width + max_width) / 2.0
    rate = poisson_rate_for_load(
        load, len(hosts), edge_capacity, distribution.mean()
    ) / mean_width
    now = 0.0
    arrivals: List[CoflowArrival] = []
    for index in range(num_arrivals):
        now += rng.expovariate(rate)
        width = rng.randint(min_width, max_width)
        sources = rng.sample(list(hosts), width)
        transfers = tuple(
            (node, distribution.sample(rng)) for node in sources
        )
        arrivals.append(
            CoflowArrival(
                time=now,
                transfers=transfers,
                tag=f"{tag_prefix}{index}",
            )
        )
    return Trace(
        arrivals=tuple(arrivals),
        seed=seed,
        description=(
            f"{distribution.name} coflows, load={load}, n={num_arrivals}, "
            f"width=[{min_width},{max_width}]"
        ),
    )
