"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import sys

import pytest

from repro.network import kernels
from repro.network.fabric import NetworkFabric
from repro.network.policies.registry import make_allocator
from repro.sim.engine import Engine
from repro.topology.fabrics import single_rack, single_switch, three_tier_clos


#: The legs every whole-run proof of the allocator runs: ``python`` pins
#: :data:`kernels.GROUP_CUTOFF` so every priority group takes the scalar
#: fill, ``numpy`` so every group takes the vectorized one (absent when
#: numpy is), ``default`` leaves the shipped dispatch alone.
FILL_CUTOFFS = {"python": sys.maxsize, "numpy": 1, "default": None}
FILLS = tuple(
    fill for fill in FILL_CUTOFFS if fill != "numpy" or kernels.HAVE_NUMPY
)


def pin_fill(monkeypatch, fill: str) -> None:
    """Force every priority group through ``fill`` until the test ends."""
    cutoff = FILL_CUTOFFS[fill]
    if cutoff is not None:
        monkeypatch.setattr(kernels, "GROUP_CUTOFF", cutoff)


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def star4(engine: Engine):
    """A 4-host single switch with 1 Gbps edges."""
    return single_switch(4)


@pytest.fixture
def rack10():
    return single_rack(10)


@pytest.fixture
def small_clos():
    """A 20-host two-pod Clos (fast enough for unit tests)."""
    return three_tier_clos(pods=2, racks_per_pod=1, hosts_per_rack=10)


def make_fabric(policy: str = "fair", hosts: int = 4):
    """Convenience: fresh engine + single-switch fabric."""
    engine = Engine()
    topo = single_switch(hosts)
    return engine, NetworkFabric(engine, topo, make_allocator(policy))
