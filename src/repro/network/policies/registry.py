"""Name-based registry of flow scheduling policies.

Experiments select policies by name (``"fair"``, ``"fcfs"``, ``"las"``,
``"srpt"``); the registry also maps the paper's transport names (DCTCP,
L2DCT, PASE) onto the policies they approximate.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.errors import ConfigError
from repro.network.policies.base import RateAllocator
from repro.network.policies.fair import FairAllocator
from repro.network.policies.fcfs import FCFSAllocator
from repro.network.policies.las import LASAllocator
from repro.network.policies.srpt import SRPTAllocator

_FACTORIES: Dict[str, Callable[[], RateAllocator]] = {
    "fair": FairAllocator,
    "fcfs": FCFSAllocator,
    "las": LASAllocator,
    "srpt": SRPTAllocator,
    # Paper transport names -> policies they approximate (Table 1 / §6.1).
    "dctcp": FairAllocator,
    "l2dct": LASAllocator,
    "pase": SRPTAllocator,
}


def register_policy(name: str, factory: Callable[[], RateAllocator]) -> None:
    """Register a custom scheduling policy under ``name`` (lowercased)."""
    _FACTORIES[name.lower()] = factory


def make_allocator(name: str) -> RateAllocator:
    """Instantiate the allocator registered under ``name``."""
    try:
        factory = _FACTORIES[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_FACTORIES))
        raise ConfigError(
            f"unknown network scheduling policy {name!r}; known: {known}"
        ) from None
    return factory()


def available_policies() -> tuple:
    """All registered policy names, sorted."""
    return tuple(sorted(_FACTORIES))
