"""Coflow scheduling policies."""

from repro.coflow.policies.base import CoflowAllocator, collect_coflows
from repro.coflow.policies.registry import (
    available_coflow_policies,
    make_coflow_allocator,
    register_coflow_policy,
)
from repro.coflow.policies.simple import (
    CoflowFCFSAllocator,
    CoflowFairAllocator,
    CoflowLASAllocator,
    SCFAllocator,
)
from repro.coflow.policies.varys import VarysAllocator

__all__ = [
    "CoflowAllocator",
    "VarysAllocator",
    "SCFAllocator",
    "CoflowFCFSAllocator",
    "CoflowLASAllocator",
    "CoflowFairAllocator",
    "make_coflow_allocator",
    "register_coflow_policy",
    "available_coflow_policies",
    "collect_coflows",
]
