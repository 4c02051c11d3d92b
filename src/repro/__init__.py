"""repro — a full reproduction of NEAT (CoNEXT 2016).

*Network Scheduling Aware Task Placement in Datacenters*, Munir et al.

The package provides:

* a deterministic discrete-event, fluid-model datacenter network simulator
  with pluggable flow (Fair/FCFS/LAS/SRPT) and coflow (Varys/SCF/FCFS/LAS)
  scheduling policies (:mod:`repro.sim`, :mod:`repro.network`,
  :mod:`repro.coflow`, :mod:`repro.topology`);
* NEAT's task completion time predictor — the paper's core contribution —
  with exact and histogram-compressed state (:mod:`repro.predictor`);
* the NEAT placement framework (Algorithm 1) plus the minLoad / minDist /
  minFCT baselines and the distributed daemon control plane
  (:mod:`repro.placement`, :mod:`repro.daemons`);
* cluster/job models, production-derived workloads, metrics, and one
  experiment module per paper figure (:mod:`repro.cluster`,
  :mod:`repro.workloads`, :mod:`repro.metrics`, :mod:`repro.experiments`).

Quickstart::

    from repro.sim import Engine
    from repro.topology import three_tier_clos
    from repro.network import NetworkFabric, make_allocator
    from repro.placement import build_neat, PlacementRequest

    engine = Engine()
    fabric = NetworkFabric(engine, three_tier_clos(), make_allocator("fair"))
    neat = build_neat(fabric)
    host = neat.place(PlacementRequest(
        size=8e6, data_node="h000",
        candidates=tuple(fabric.topology.hosts[1:]),
    ))
    fabric.submit("h000", host, 8e6)
    engine.run()
    print(fabric.records[-1].fct)
"""

from repro.errors import (
    ConfigError,
    CoflowError,
    DaemonError,
    DaemonUnreachable,
    FaultError,
    FlowError,
    MessageDropped,
    PlacementError,
    PredictionError,
    ReproError,
    RoutingError,
    SimulationError,
    TopologyError,
    WorkloadError,
)

__version__ = "1.8.0"

__all__ = [
    "__version__",
    "ReproError",
    "SimulationError",
    "TopologyError",
    "RoutingError",
    "FlowError",
    "CoflowError",
    "PredictionError",
    "PlacementError",
    "WorkloadError",
    "DaemonError",
    "DaemonUnreachable",
    "MessageDropped",
    "FaultError",
    "ConfigError",
]
