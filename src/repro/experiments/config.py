"""Shared experiment configuration (§6.1) and Table 1.

:class:`MacroConfig` centralises the knobs every macro experiment shares —
topology size, workload, load level, arrival count, seed — with defaults
matching the paper's setup scaled to laptop runtimes.  ``full_scale()``
returns the paper's exact 160-host configuration.

``TABLE1_PARAMETERS`` records the transport parameter settings of Table 1
and how each maps onto the fluid model (which has no packets or queues —
the mapping is what the fluid abstraction *keeps* from each transport).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.topology.base import Topology
from repro.topology.fabrics import single_rack, three_tier_clos
from repro.units import gbps
from repro.workloads.distributions import EmpiricalDistribution, make_distribution
from repro.workloads.traces import (
    Trace,
    generate_coflow_trace,
    generate_flow_trace,
)

#: Table 1 of the paper, with the fluid-model reading of each knob.
TABLE1_PARAMETERS: Dict[str, Dict[str, str]] = {
    "DCTCP": {
        "qSize": "250 pkts",
        "markingThresh": "65",
        "fluid-model role": (
            "ECN-based fair sharing -> max-min fair rate allocation"
        ),
    },
    "L2DCT": {
        "minRTO": "10 msec",
        "qSize": "250 pkts",
        "fluid-model role": (
            "deadline-free LAS weighting -> least-attained-service priority"
        ),
    },
    "PASE": {
        "minRTO (flows in top queue)": "10 msec",
        "minRTO (flows in other queues)": "200 msec",
        "numQue": "8",
        "fluid-model role": (
            "arbitration approximating SRPT -> strict shortest-remaining"
            "-first priority"
        ),
    },
}

#: Workload-specific default size scaling.  Hadoop's raw sizes reach
#: 200 GB; at 1 Gbps that is hours of simulated time, so macro experiments
#: shrink sizes by 1000x by default (shape preserved; see DESIGN.md).
DEFAULT_SCALE: Dict[str, float] = {
    "websearch": 1.0,
    "datamining": 0.1,
    "hadoop": 1e-3,
}


@dataclass(frozen=True)
class MacroConfig:
    """One macro experiment's setup.

    Attributes:
        pods / racks_per_pod / hosts_per_rack: Clos dimensions.
        workload: ``"websearch"``, ``"datamining"``, or ``"hadoop"``.
        scale: workload size multiplier (None -> per-workload default).
        load: target average edge utilisation (0..1).
        num_arrivals: arrivals in the generated trace.
        seed: master seed (trace and tie-breaks derive from it).
        max_candidates: candidate hosts sampled per task (None = all).
        oversubscription: fabric (non-edge) capacity divisor; >1 makes
            locality matter (used by the Figure 3 comparative study).
        coflows: generate a coflow trace instead of a flow trace.
        coflow_width: (min, max) flows per coflow.
        state_ttl: NEAT node-state snapshot TTL in seconds; enables the
            stale-state (least-loaded) placement fallback under fault
            plans.  None disables age tracking.
        push_node_state: enable NEAT's push-style node-state
            dissemination (daemons refresh the controller on completion).
    """

    pods: int = 2
    racks_per_pod: int = 2
    hosts_per_rack: int = 10
    workload: str = "websearch"
    scale: Optional[float] = None
    load: float = 0.7
    num_arrivals: int = 800
    seed: int = 42
    max_candidates: Optional[int] = None
    oversubscription: float = 1.0
    coflows: bool = False
    coflow_width: Tuple[int, int] = (2, 6)
    state_ttl: Optional[float] = None
    push_node_state: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.load < 1:
            raise ConfigError(f"load must be in (0,1), got {self.load!r}")
        if self.num_arrivals < 1:
            raise ConfigError("num_arrivals must be >= 1")

    @property
    def num_hosts(self) -> int:
        return self.pods * self.racks_per_pod * self.hosts_per_rack

    def effective_scale(self) -> float:
        if self.scale is not None:
            return self.scale
        return DEFAULT_SCALE.get(self.workload, 1.0)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def build_topology(self) -> Topology:
        """The multi-rooted Clos of §6.1 at this config's dimensions."""
        return three_tier_clos(
            pods=self.pods,
            racks_per_pod=self.racks_per_pod,
            hosts_per_rack=self.hosts_per_rack,
            oversubscription=self.oversubscription,
        )

    def build_distribution(self) -> EmpiricalDistribution:
        return make_distribution(self.workload, scale=self.effective_scale())

    def build_trace(self, topology: Optional[Topology] = None) -> Trace:
        topo = topology if topology is not None else self.build_topology()
        dist = self.build_distribution()
        if self.coflows:
            return generate_coflow_trace(
                hosts=topo.hosts,
                distribution=dist,
                load=self.load,
                edge_capacity=gbps(1),
                num_arrivals=self.num_arrivals,
                seed=self.seed,
                min_width=self.coflow_width[0],
                max_width=self.coflow_width[1],
            )
        return generate_flow_trace(
            hosts=topo.hosts,
            distribution=dist,
            load=self.load,
            edge_capacity=gbps(1),
            num_arrivals=self.num_arrivals,
            seed=self.seed,
        )

    def scaled_down(self, factor: int = 2) -> "MacroConfig":
        """A cheaper copy for CI: fewer hosts and arrivals."""
        return replace(
            self,
            pods=max(1, self.pods // factor),
            num_arrivals=max(50, self.num_arrivals // factor),
        )


def full_scale_config(**overrides) -> MacroConfig:
    """The paper's exact 160-host simulation setup (§6.1)."""
    defaults = dict(
        pods=4,
        racks_per_pod=4,
        hosts_per_rack=10,
        num_arrivals=2000,
    )
    defaults.update(overrides)
    return MacroConfig(**defaults)


def testbed_config(**overrides) -> MacroConfig:
    """The 10-node single-rack testbed of §6.4 (all-to-all Hadoop, 50%)."""
    defaults = dict(
        pods=1,
        racks_per_pod=1,
        hosts_per_rack=10,
        workload="hadoop",
        load=0.5,
        num_arrivals=400,
    )
    defaults.update(overrides)
    return MacroConfig(**defaults)


def build_testbed_topology() -> Topology:
    """The actual single-rack topology used by the testbed experiments."""
    return single_rack(10)
