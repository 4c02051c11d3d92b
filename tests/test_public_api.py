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
        "compare_policies", "figure1_table", "FIGURES", "Figure", "Claim",
        "MacroOutcome", "repeat_flow_macro",
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
#: gone.  1.10.0: the rollup fold nothing called, the causal reader's alias
#: of ``read_trace`` and the service's wrapper of ``poisson_rate_for_load``
#: are gone.  1.16.0: the change-point hint is one sorted sweep over the
#: flows it is handed, so the mixin is ``CrossingHint`` and tracks nothing.
#: 1.20.0: ``collect_coflows`` groups a coflow allocation's flows with each
#: group's column demand and tie-break in one pass.  1.21.0: each paper
#: figure is one row of ``repro.experiments.FIGURES`` (``row.run`` replaces
#: the per-figure functions, ``MacroOutcome`` the per-figure outcomes).
#: After 1.21.0: the plain-``water_fill`` priority cascade is the test-side
#: reference ``tests/priority_oracle.py``, and ``repro.network.policies``
#: no longer re-exports what its ``base`` module defines.
REMOVED_SYMBOLS = {
    "repro.experiments": [
        "figure3", "figure5", "figure6", "figure7", "figure8", "figure9",
        "figure10", "figure11", "run_flow_macro", "ComparativeOutcome",
        "CoflowOutcome", "PredictorComparison", "PreferredHostsOutcome",
        "TestbedOutcome",
    ],
    "repro.telemetry": [
        "NULL_TELEMETRY", "NullMetricsRegistry", "NULL_REGISTRY",
        "NULL_TRACE", "NULL_DECISIONS", "NULL_CAUSAL", "NullProfiler",
        "NULL_PROFILER", "Timer", "merge_rollups",
    ],
    "repro.telemetry.registry": ["Timer"],
    "repro.telemetry.timeseries": ["merge_rollups"],
    "repro.telemetry.causal": ["load_causal"],
    "repro.service.workload": ["rate_for_load"],
    "repro.errors": ["ShadowVerifyError"],
    "repro.network.fabric": ["SHADOW_TOLERANCE"],
    "repro.network.policies": [
        "greedy_priority_fill", "water_fill", "group_by_key", "RATE_EPSILON",
    ],
    "repro.network.policies.base": [
        "LinkMembershipMixin", "greedy_priority_fill",
    ],
    "repro.coflow.policies.base": ["column_demand"],
}

#: Methods removed (CHANGES.md).  1.10.0: the decision log is a plain probe
#: channel whose ``begin_run`` labels the run and joins its completions, and
#: the rollup store's unused introspection is gone.  1.13.0: the daemons
#: read their edge state in one batched call, ``host_edge_states``; 1.14.0:
#: their coflow state too, ``coflow_edge_states``.  1.19.0: reads write no
#: progress, and one host's load is ``hosts_queued_bits`` of one host.
#: After 1.21.0: ``current_rate``, which nothing in the package called.
REMOVED_METHODS = {
    ("repro.telemetry", "DecisionLog"): ("set_context", "bind", "bind_coflows"),
    ("repro.telemetry", "TimeseriesStore"): ("series_names", "span"),
    ("repro.network", "NetworkFabric"): (
        "host_edge_state", "host_coflow_state", "coflows_on_link",
        "host_queued_bits", "current_rate",
    ),
}

#: Methods the docs rely on.  1.13.0: a decision's queries are one bus
#: round, answered in one pass over raw residual sizes; 1.14.0: a coflow
#: decision's too, over raw ``(total, on_link, arrival)`` triples.
#: 1.16.0: a minLoad decision reads its candidates' loads in one call.
#: 1.19.0: a reader outside the fabric reads a flow's residual bits through
#: ``residual`` (only events write ``remaining``).
PUBLIC_METHODS = {
    ("repro.daemons", "MessageBus"): (
        "call", "call_round", "register_round", "push",
    ),
    ("repro.daemons", "NetworkDaemon"): (
        "handle", "answer_round", "predict_flow", "link_state",
    ),
    ("repro.predictor", "FlowFCTPredictor"): ("fct", "predict_fct"),
    ("repro.predictor", "CoflowCCTPredictor"): (
        "cct", "delta_sum", "link_objective", "predict_link_objective",
    ),
    ("repro.network", "NetworkFabric"): (
        "host_edge_states", "coflow_edge_states", "hosts_queued_bits",
        "residual",
    ),
}

#: Keyword arguments removed (CHANGES.md).  1.7.0: a recompute's scope is
#: the allocator's property, and the full-recompute check is test-side.
#: 1.16.0: the hint reads no per-link member lists.
REMOVED_KEYWORDS = {
    ("repro.network", "NetworkFabric"): ("incremental", "shadow_verify"),
    ("repro.experiments", "replay_flow_trace"): (
        "incremental", "shadow_verify",
    ),
    ("repro.network.policies.base", "earliest_adjacent_crossing"): (
        "members_on",
    ),
}


@pytest.mark.parametrize("module_name", sorted(REMOVED_SYMBOLS))
def test_removed_names_stay_removed(module_name):
    module = importlib.import_module(module_name)
    for symbol in REMOVED_SYMBOLS[module_name]:
        assert not hasattr(module, symbol), f"{module_name}.{symbol} is back"


def test_removed_methods_stay_removed():
    for (module_name, name), methods in sorted(REMOVED_METHODS.items()):
        cls = getattr(importlib.import_module(module_name), name)
        for method in methods:
            assert not hasattr(cls, method), f"{name}.{method} is back"


def test_public_methods_exist():
    for (module_name, name), methods in sorted(PUBLIC_METHODS.items()):
        cls = getattr(importlib.import_module(module_name), name)
        for method in methods:
            assert callable(getattr(cls, method, None)), f"{name}.{method}"


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


def test_per_message_bus_probe_point_stays_removed():
    """1.15.0: the bus reports each run of delivered messages once
    (``note_bus_round``); the per-message point is not kept beside it,
    and no bus subscriber answers to it."""
    import repro.telemetry as telemetry

    assert "note_bus_round" in telemetry.PROBE_POINTS
    assert "note_bus_message" not in telemetry.PROBE_POINTS, "it is back"
    for name in ("TraceProbe", "MetricsProbe", "CausalTracer"):
        channel = getattr(telemetry, name)
        assert hasattr(channel, "note_bus_round"), name
        assert not hasattr(channel, "note_bus_message"), f"{name}: it is back"


def test_hinting_policies_track_no_members():
    """1.16.0: LAS and SRPT keep no per-link member lists; since no
    allocator kept any state between calls, the fabric's arrival and
    removal hooks (the base class's no-ops) are gone too."""
    from repro.network.policies import RateAllocator, make_allocator
    from repro.network.policies.base import CrossingHint

    for hook in ("note_arrival", "note_removal"):
        for owner in (RateAllocator, CrossingHint, make_allocator("las")):
            assert not hasattr(owner, hook), f"{owner}.{hook} is back"
    assert not hasattr(make_allocator("srpt"), "_link_members")


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
