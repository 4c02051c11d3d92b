#!/usr/bin/env python3
"""Extending NEAT: plug in a custom scheduling policy and predictor.

NEAT's predictor is pluggable (§4, §8).  This example adds a *weighted
fair* network scheduling policy — flows get bandwidth proportional to a
per-flow weight (here: small flows weight 2, large flows weight 1) — plus
the matching FCT predictor, registers both, and runs NEAT on top.

It demonstrates the three extension points:
  1. a RateAllocator subclass (how the fluid network shares bandwidth);
  2. a FlowFCTPredictor subclass (how the daemons predict FCTs);
  3. registry hooks so experiment configs can refer to them by name.

Run:  python examples/custom_policy.py
"""

from __future__ import annotations

import random
from typing import Dict, Mapping, Sequence

from repro.experiments import MacroConfig, compare_policies
from repro.metrics import average_gap
from repro.network import RateAllocator, register_policy
from repro.network.flow import Flow, FlowId
from repro.network.policies.base import water_fill
from repro.predictor import (
    FlowFCTPredictor,
    LinkState,
    register_flow_predictor,
)
from repro.topology import LinkId
from repro.units import megabytes

#: Flows below this size get double weight.
SMALL_FLOW_BITS = megabytes(1)


class WeightedFairAllocator(RateAllocator):
    """Max-min fairness with 2x weight for small flows.

    Implemented by water-filling in two rounds: small flows participate in
    both rounds (so they collect two shares), large flows in one.  This is
    a faithful fluid realisation of weight-2 / weight-1 GPS when shares
    are small relative to capacity.
    """

    name = "weighted-fair"

    def allocate(
        self,
        flows: Sequence[Flow],
        capacities: Mapping[LinkId, float],
    ) -> Dict[FlowId, float]:
        residual = dict(capacities)
        first: Dict[FlowId, float] = {}
        water_fill(flows, residual, first)
        small = [f for f in flows if f.size < SMALL_FLOW_BITS]
        second: Dict[FlowId, float] = {}
        water_fill(small, residual, second)
        return {
            f.flow_id: first.get(f.flow_id, 0.0) + second.get(f.flow_id, 0.0)
            for f in flows
        }


class WeightedFairPredictor(FlowFCTPredictor):
    """FCT model matching :class:`WeightedFairAllocator`.

    By the time the new flow finishes, a weight-w_f competitor has moved
    ``min(s_f, s0 * w_f / w_0)`` bits, where w is 2 for small flows.
    """

    name = "weighted-fair"

    @staticmethod
    def _weight(size: float) -> float:
        return 2.0 if size < SMALL_FLOW_BITS else 1.0

    def predict_fct(self, new_size: float, capacity: float, sizes) -> float:
        own_weight = self._weight(new_size)
        load = new_size
        for s in sizes:
            if s > 0:
                load += min(s, new_size * self._weight(s) / own_weight)
        return load / capacity

    def delta(self, new_size: float, existing_size: float, link: LinkState) -> float:
        weight = self._weight(existing_size)
        return min(existing_size, new_size * weight) / link.capacity


def main() -> None:
    register_policy("weighted-fair", WeightedFairAllocator)
    register_flow_predictor("weighted-fair", WeightedFairPredictor)

    config = MacroConfig(
        pods=2, racks_per_pod=2, hosts_per_rack=10,
        workload="websearch", load=0.7, num_arrivals=600, seed=5,
    )
    topology = config.build_topology()
    trace = config.build_trace(topology)
    results = compare_policies(
        trace,
        topology,
        network_policy="weighted-fair",
        placements=["neat", "minload", "mindist"],
        predictor="weighted-fair",  # NEAT predicts with the matching model
        seed=config.seed,
    )
    print("NEAT on a custom weighted-fair network scheduling policy:")
    for name, run in results.items():
        print(f"  {name:8s} mean gap from optimal = {average_gap(run.records):.2f}")


if __name__ == "__main__":
    main()
