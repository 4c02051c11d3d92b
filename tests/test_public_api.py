"""Public-API surface tests: everything the README documents must import.

Protects downstream users: if a symbol the docs rely on is renamed or
dropped, this fails before any example or notebook does.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

PUBLIC_SYMBOLS = {
    "repro": [
        "__version__", "ReproError", "FaultError",
        "DaemonUnreachable", "MessageDropped",
    ],
    "repro.faults": [
        "FaultPlan", "FaultInjector", "arm_faults",
        "LinkDown", "LinkDegrade", "HostDown",
        "MessageLoss", "MessageDelay", "StateStaleness", "MESSAGE_KINDS",
    ],
    "repro.sim": ["Engine", "SimClock", "RandomStreams"],
    "repro.topology": [
        "Topology", "Router", "single_switch", "single_rack",
        "three_tier_clos", "fat_tree",
    ],
    "repro.network": [
        "NetworkFabric", "Flow", "FlowRecord", "make_allocator",
        "register_policy", "FairAllocator", "SRPTAllocator",
    ],
    "repro.coflow": [
        "Coflow", "CoflowTracker", "make_coflow_allocator", "VarysAllocator",
    ],
    "repro.predictor": [
        "FairPredictor", "SRPTPredictor", "TCFPredictor", "LinkState",
        "CompressedLinkState", "exponential_bins", "objective_one",
        "objective_two", "make_flow_predictor", "make_coflow_predictor",
        "flow_link_state", "coflow_link_state",
    ],
    "repro.placement": [
        "PlacementRequest", "build_neat", "NEATPolicy", "MinLoadPolicy",
        "MinDistPolicy", "make_placement_policy", "PathAwareNEATPolicy",
        "place_coflow_sequential", "place_coflow_joint",
    ],
    "repro.daemons": [
        "MessageBus", "NetworkDaemon", "TaskPlacementDaemon",
    ],
    "repro.cluster": [
        "Cluster", "Resources", "JobScheduler", "mapreduce_job", "JobSpec",
    ],
    "repro.workloads": [
        "make_distribution", "generate_flow_trace", "generate_coflow_trace",
        "LogNormalNoise", "QuantizedHistory",
    ],
    "repro.metrics": [
        "afct", "average_gap", "summarize_by_size", "gap_by_bin_table",
        "TimelineSampler",
    ],
    "repro.experiments": [
        "MacroConfig", "replay_flow_trace", "replay_coflow_trace",
        "compare_policies", "figure1_table", "figure3", "figure5",
        "figure6", "figure7", "figure8", "figure9", "figure10", "figure11",
        "repeat_flow_macro",
    ],
    "repro.campaign": [
        "Campaign", "RunSpec", "flow_grid", "derive_seeds",
        "canonical_json", "content_hash", "spec_key",
        "ResultCache", "CacheStats",
        "run_campaign", "execute_cell", "CampaignReport", "CellOutcome",
        "MacroSummary", "render_campaign_report",
        "build_all_campaign",
    ],
    "repro.service": [
        "ServiceScenario", "PlacementServer", "ServiceReport",
        "render_service_report", "AdmissionQueue", "QueuedRequest",
        "OpenLoopSource", "ArrivalProfile", "PoissonProfile",
        "DiurnalProfile", "BurstProfile", "profile_from_dict",
    ],
    "repro.telemetry": [
        "Telemetry", "create_telemetry",
        "MetricsRegistry",
        "Counter", "Gauge", "Histogram",
        "TraceSink", "JsonlTraceSink",
        "DecisionLog", "DecisionRecord", "render_report",
    ],
}

#: Removed (CHANGES.md).  1.6.0: off is ``None``, so the disabled twins
#: and their singletons are gone.  1.7.0: the fabric has one mode, so the
#: shadow verifier's error and tolerance are gone.  1.8.0: wall time per
#: subsystem is the span profiler's alone, so the registry's ``Timer`` is
#: gone.
REMOVED_SYMBOLS = {
    "repro.telemetry": [
        "NULL_TELEMETRY", "NullMetricsRegistry", "NULL_REGISTRY",
        "NULL_TRACE", "NULL_DECISIONS", "NULL_CAUSAL", "NullProfiler",
        "NULL_PROFILER", "Timer",
    ],
    "repro.telemetry.registry": ["Timer"],
    "repro.errors": ["ShadowVerifyError"],
    "repro.network.fabric": ["SHADOW_TOLERANCE"],
}

#: Keyword arguments removed in 1.7.0 (CHANGES.md): a recompute's scope is
#: the allocator's property, and the full-recompute check is test-side.
REMOVED_KEYWORDS = {
    ("repro.network", "NetworkFabric"): ("incremental", "shadow_verify"),
    ("repro.experiments", "replay_flow_trace"): (
        "incremental", "shadow_verify",
    ),
}


@pytest.mark.parametrize("module_name", sorted(REMOVED_SYMBOLS))
def test_removed_names_stay_removed(module_name):
    module = importlib.import_module(module_name)
    for symbol in REMOVED_SYMBOLS[module_name]:
        assert not hasattr(module, symbol), f"{module_name}.{symbol} is back"


def test_registry_timers_and_their_probe_points_stay_removed():
    """1.8.0: the registry keeps no wall-clock timers, and the two timed
    sections only they subscribed to are no longer probe points."""
    from repro.telemetry import PROBE_POINTS, MetricsRegistry

    for method in ("timer", "timers_by_name"):
        assert not hasattr(MetricsRegistry, method), f"{method} is back"
    for point in (
        "enter_bus_handler", "exit_bus_handler", "enter_serve", "exit_serve",
    ):
        assert point not in PROBE_POINTS, f"{point} is back"


def test_removed_keywords_stay_removed():
    for (module_name, name), keywords in sorted(REMOVED_KEYWORDS.items()):
        callable_ = getattr(importlib.import_module(module_name), name)
        parameters = inspect.signature(callable_).parameters
        for keyword in keywords:
            assert keyword not in parameters, f"{name}({keyword}=) is back"


@pytest.mark.parametrize("module_name", sorted(PUBLIC_SYMBOLS))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    for symbol in PUBLIC_SYMBOLS[module_name]:
        assert hasattr(module, symbol), f"{module_name}.{symbol} missing"


@pytest.mark.parametrize("module_name", sorted(PUBLIC_SYMBOLS))
def test_all_declares_real_names(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists {name}"


def test_readme_quickstart_executes():
    """The exact code block from the README must run."""
    from repro.sim import Engine
    from repro.topology import three_tier_clos
    from repro.network import NetworkFabric, make_allocator
    from repro.placement import build_neat, PlacementRequest

    engine = Engine()
    fabric = NetworkFabric(engine, three_tier_clos(), make_allocator("fair"))
    neat = build_neat(fabric)
    host = neat.place(PlacementRequest(
        size=8e6,
        data_node="h000",
        candidates=tuple(fabric.topology.hosts[1:]),
    ))
    fabric.submit("h000", host, 8e6)
    engine.run()
    assert fabric.records[-1].fct > 0
