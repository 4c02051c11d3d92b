"""Test-only oracle: the strict-priority cascade as plain ``water_fill``
calls, the body ``repro.network.policies.base`` shipped until the
priority closure.

``repro.network.kernels.priority_fill`` fills each group on its fastest
fill, and the fabric's priority closure re-fills only what an event
reaches; both claim the floats this body gives on the same ordered groups
and capacities.  ``tests/test_kernel_differential.py`` and
``tests/test_alloc_properties.py`` check that claim with ``==`` (no
tolerance).  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence

from repro.network.flow import Flow, FlowId
from repro.network.policies.base import water_fill
from repro.topology.base import LinkId


def greedy_priority_fill(
    groups: Iterable[Sequence[Flow]],
    capacities: Mapping[LinkId, float],
) -> Dict[FlowId, float]:
    """Strict-priority allocation: water-fill each group in order on the
    residual capacity left by higher-priority groups.

    ``groups`` must be ordered highest priority first.  Equal-priority flows
    (same group) share fairly; lower groups are preempted on contended links
    but still backfill idle capacity elsewhere (work conservation).
    """
    residual: Dict[LinkId, float] = dict(capacities)
    rates: Dict[FlowId, float] = {}
    for group in groups:
        water_fill(group, residual, rates)
    return rates
