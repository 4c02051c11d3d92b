"""Shared helpers for the repro test suite."""

from __future__ import annotations

import math
import sys

from repro.network import kernels
from repro.network.fabric import NetworkFabric
from repro.network.policies.registry import make_allocator
from repro.sim.engine import Engine
from repro.topology.fabrics import single_switch


#: The legs every whole-run proof of the allocator runs: ``python`` pins
#: :data:`kernels.GROUP_CUTOFF` so every priority group takes the scalar
#: fills, ``numpy`` pins it to 1 so every last group takes the column fill
#: (the leg kept the id it had when that was the numpy fill, so test ids
#: stay stable across the change), ``default`` leaves the shipped dispatch
#: alone.
FILL_CUTOFFS = {"python": sys.maxsize, "numpy": 1, "default": None}
FILLS = tuple(FILL_CUTOFFS)


def pin_fill(monkeypatch, fill: str) -> None:
    """Force every priority group through ``fill`` until the test ends."""
    cutoff = FILL_CUTOFFS[fill]
    if cutoff is not None:
        monkeypatch.setattr(kernels, "GROUP_CUTOFF", cutoff)


def compensated_sum(iterable, start=0):
    """CPython 3.12's ``sum``, for a run on an older interpreter: patch it
    over ``builtins.sum``.  Ints add exactly (so an empty or all-int sum
    stays an int); once the total is a float, floats add with Neumaier
    compensation, whose term is dropped once it is not finite."""
    total, compensation = start, 0.0
    for x in iterable:
        if not (isinstance(total, float) and isinstance(x, float)):
            total += x
            continue
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    finite = compensation and math.isfinite(compensation)
    return total + compensation if finite else total


def make_fabric(policy: str = "fair", hosts: int = 4):
    """Convenience: fresh engine + single-switch fabric."""
    engine = Engine()
    topo = single_switch(hosts)
    return engine, NetworkFabric(engine, topo, make_allocator(policy))
