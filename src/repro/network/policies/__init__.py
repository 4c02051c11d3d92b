"""Flow scheduling policies (rate allocators) for the fluid simulator."""

from repro.network.policies.base import RateAllocator
from repro.network.policies.fair import FairAllocator
from repro.network.policies.fcfs import FCFSAllocator
from repro.network.policies.las import LASAllocator
from repro.network.policies.registry import (
    available_policies,
    make_allocator,
    register_policy,
)
from repro.network.policies.srpt import SRPTAllocator

__all__ = [
    "RateAllocator",
    "FairAllocator",
    "FCFSAllocator",
    "LASAllocator",
    "SRPTAllocator",
    "make_allocator",
    "register_policy",
    "available_policies",
]
