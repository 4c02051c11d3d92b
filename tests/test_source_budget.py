"""Source budgets: the size PR 21 reached and the idioms it deleted.

The telemetry package was a quarter of ``src/repro`` and grew a disabled
twin per channel; both were removed by deleting duplicate bookkeeping,
not by denser formatting.  These checks keep either from growing back
unnoticed: raise a budget only together with the CHANGES.md entry that
explains what the new lines buy.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Physical-line ceilings.  Every raise came with the CHANGES.md entry
#: that says what the lines buy: the trace serialiser's fast paths, the
#: sharing components the fabric keeps (which added ``network``), the numpy
#: fill's two reductions with their stated arguments, and the coflow
#: query's lean fabric reads (``network`` and the whole tree +40 each).
#: Every cut lowers its budget to what is left: the fabric's second
#: (full-recompute) mode and its shadow verifier took ``network`` from
#: 2,120 to 2,054 and the whole tree from 21,983 to 21,903; the registry's
#: wall-clock timers (the span profiler's duplicate) took
#: ``telemetry+metrics`` from 5,680 to 5,569 and the whole tree to 21,774;
#: the CLI's second dispatch mechanism (the ``argv[0]`` table and nine
#: hand-built parsers) and its duplicated inputs, post-parse range checks
#: and ``--metrics-out`` writers took the whole tree to 21,711; one seam
#: for decisions and runs (the baselines' decision mixin, the decision
#: log's ``set_context`` / ``bind`` / ``bind_coflows``, serve's direct
#: causal run) and the rollup API nothing called (``merge_rollups``,
#: ``series_names``, ``span``), the causal reader's alias, the service's
#: rate wrapper and ``read_status``'s second JSONL reader took
#: ``telemetry+metrics`` to 5,495, ``service`` to 1,589 and the whole tree
#: to 21,663.  The fair fill's binding closure (re-entry rule, share-floor
#: set, per-flow bottlenecks, the walk, the shared slack test) raised
#: ``network`` to 2,104 and the whole tree to 21,713, net of the four flow
#: policies' identical ``allocate`` bodies folded into ``kernels.GroupFill``.
#: One max-min fill (the numpy kernel with its two reductions, interning
#: and import guard deleted; the coflow back-fill and its columns moved
#: into ``kernels`` and reused for large fair groups) took ``network`` to
#: 1,951 and the whole tree to 21,483.  One query round per NEAT decision
#: (``MessageBus.call_round`` and its round handler, the batched fabric
#: read ``host_edge_states``, the raw-size ``predict_fct`` of every flow
#: predictor, net of the per-query chain and the duplicated ``call`` /
#: ``push`` admission it deleted) raised the whole tree to 21,512 and left
#: ``network`` at 1,951.  One query round per coflow decision (the batched
#: CCT read ``coflow_edge_states`` with its two inlined syncs, the
#: raw-triple ``predict_link_objective`` and its custom-predictor default,
#: the left folds of ``Coflow.remaining_total`` / ``attained_total``, net
#: of ``host_coflow_state``, ``coflows_on_link``, ``_coflow_groups``,
#: ``predict_coflow``'s own chain and the duplicated coflow predictor
#: bodies) raised ``network`` to 1,972 and the whole tree to 21,534.  One
#: probe call per run of a round's delivered hosts (``note_bus_round``: the
#: bus keeps the run and reports it before a loss) raised the whole tree to
#: 21,539, net of the trace sink's last-``t`` text cache, which took
#: ``telemetry+metrics`` to 5,491.  The change-point hint as one sorted
#: sweep (the allocator's per-link member lists, their hooks and the
#: hint's fallback map deleted), minLoad's batched read and the router's
#: adjacency kept once took ``network`` to 1,945 and left the whole tree
#: at 21,539.  Listeners run on a settled fabric (the re-entry counter,
#: its whole-fill fallback, the unscoped re-entered branch and the
#: re-entrant hint cancel deleted; the decision log joins outcomes on
#: probe points instead of installing listeners) took ``network`` to
#: 1,944, ``telemetry+metrics`` to 5,485 and the whole tree to 21,532.
#: One coflow allocation per arrival (``NetworkFabric.batch``, net of the
#: fabric's one-flow sync and separate splice, both folded into their
#: callers, and the unused ``Coflow.remaining_on_link``) left ``network``
#: at 1,944 and took the whole tree to 21,529.  Reads that do not write
#: (one residual pass per read in place of five inlined sync loops, the
#: one-host ``host_queued_bits`` and ``Coflow.remaining_total`` /
#: ``attained_total`` deleted; the left folds of ROADMAP 9's last sums and
#: one coflow arrival-time helper) took ``network`` to 1,943 and the
#: whole tree to 21,524.  One pass per coflow allocation (the back-fill's
#: entry sweep and its shared column renumbering, the one-pass coflow
#: grouping, the in-place sync, net of the back-fill's in-loop zero branch,
#: ``column_demand`` and FCFS's arrival index, a second grouping of the
#: same flows) took ``network`` to 1,924 and the whole tree to 21,502.
#: One figure table (``repro.experiments.figures``: a row per figure cell
#: with its runs, renderers and claims, and one ``MacroOutcome`` whose
#: statistics ``MacroSummary`` shares) took the whole tree to 21,253: the
#: per-figure modules ``flow_macro``, ``coflow_macro``, ``comparative``,
#: ``micro`` and ``testbed`` with their five outcome classes, the
#: ``campaign/figures.py`` renderers, ``run_figure``'s per-figure branches
#: and ``MacroSummary``'s copy of the statistics are deleted, and so is
#: ``repro.workloads.serialization`` (JSON trace save / load no command
#: used).  The reports' ``mean`` folded left from int 0 (ROADMAP 9), net of
#: ``percentile``'s one-element branch, took ``telemetry+metrics`` to
#: 5,487 and the whole tree to 21,255.  One pass per queried host (the
#: inlined residual in ``host_edge_states`` and ``hosts_queued_bits``,
#: the fault-free round admitted at once), net of the allocator's no-op
#: arrival / removal hooks and ``CausalTracer.current_trace``, which
#: nothing read, took ``network`` to 1,916, ``telemetry+metrics`` to 5,485
#: and the whole tree to 21,254, ROADMAP 9's last two folds included.
#: The priority closure (``kernels.refill``, the fabric's per-flow memo
#: and changed links), net of ``greedy_priority_fill`` (now the test-side
#: reference ``tests/priority_oracle.py``), ``current_rate``,
#: ``failed_links`` and ``down_hosts`` (read by nothing in the package),
#: the fabric's optimal-FCT map (a flow attribute now), its four accessor
#: properties (plain attributes), the one-caller completion rescheduler
#: and ``repro.network.policies``' re-exports of ``policies.base``, took
#: ``network`` to 1,913 and the whole tree to 21,251.
#: label -> (packages under ``src/repro``, budget); ``""`` is the whole tree.
BUDGETS = {
    "telemetry+metrics": (("telemetry", "metrics"), 5485),
    "service": (("service",), 1589),
    "network": (("network",), 1913),
    "repro": (("",), 21251),
}

NULL_LAYER = re.compile(
    r"NULL_(REGISTRY|PROFILER|TRACE|DECISIONS|CAUSAL|TELEMETRY)"
    r"|Null(MetricsRegistry|Profiler)"
)

#: A read of a channel's on/off flag: off is ``None``, so there is none.
CHANNEL_FLAG_READ = re.compile(
    r"\b(telemetry|tele|registry|reg|trace|_trace|sink|decisions"
    r"|profiler|causal)\.(enabled|active)\b"
)

#: A telemetry class growing such a flag back (attribute or property).
CHANNEL_FLAG_DEFINITION = re.compile(
    r"\b(enabled|active)\s*(:\s*bool\s*)?=\s*(True|False)\b"
    r"|def (enabled|active)\("
)


def _sources(*packages: str):
    for package in packages:
        yield from sorted((SRC / package).rglob("*.py"))


def _physical_lines(*packages: str) -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in _sources(*packages)
    )


def _matches(pattern: re.Pattern, *packages: str):
    return [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in _sources(*packages)
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1
        )
        if pattern.search(line)
    ]


@pytest.mark.parametrize("label", sorted(BUDGETS))
def test_package_stays_within_its_line_budget(label):
    packages, budget = BUDGETS[label]
    lines = _physical_lines(*packages)
    assert lines <= budget, f"{label}: {lines} physical lines, budget {budget}"


def test_no_module_imports_numpy():
    """One max-min fill, in pure Python: no module imports numpy, by
    statement or by name (the column fill took the place of the numpy
    kernel, DESIGN.md §5.2)."""
    numpy = re.compile(r"\b(import|from)\s+numpy\b|[\"']numpy[\"']")
    assert _matches(numpy, "") == []


def test_null_object_layer_stays_deleted():
    assert _matches(NULL_LAYER, "") == []


def test_no_channel_on_off_flags():
    assert _matches(CHANNEL_FLAG_READ, "") == []
    assert _matches(CHANNEL_FLAG_DEFINITION, "telemetry") == []


def test_service_names_live_in_the_metrics_channel_only():
    """``repro.service`` reports through the probe: it makes no registry
    accessor call (``MetricsProbe`` spells every ``service.*`` name)."""
    accessor = re.compile(r"\.(counter|gauge|histogram)\(")
    assert _matches(accessor, "service") == []


def test_decisions_and_runs_reach_channels_through_the_probe_only():
    """One seam: a placement decision reaches the decision log, and a run
    boundary reaches any channel, through ``probe.on_decision`` /
    ``probe.begin_run`` / ``probe.end_run`` alone.  Outside the telemetry
    package only ``__main__``'s output writers read the decision log."""
    side_doors = re.compile(
        r"\b(telemetry|tele)\.decisions\b|(?<!\bprobe)\.(begin|end)_run\("
    )
    assert [
        match
        for match in _matches(side_doors, "")
        if not match.startswith(("telemetry/", "__main__.py:"))
    ] == []


def test_channels_install_no_fabric_listener():
    """Channels observe through the probe: the decision log joins realized
    times on ``on_flow_done`` / ``on_coflow_done``, so no telemetry or
    metrics module installs a fabric (or coflow tracker) listener."""
    listener = re.compile(r"\badd_(completion|arrival)_listener\(")
    assert _matches(listener, "telemetry", "metrics") == []


def test_telemetry_reads_the_wall_clock_in_the_profiler_only():
    """One timed channel: wall time per subsystem is the span profiler's,
    so no other telemetry module keeps a stopwatch of its own."""
    readers = {
        match.split(":", 1)[0]
        for match in _matches(re.compile(r"\bperf_counter\b"), "telemetry")
    }
    assert readers == {"telemetry/profiler.py"}


def test_flow_predictors_fold_their_sums_left():
    """Interpreter-independent floats: the flow FCT and coflow CCT
    predictors and the link snapshot's total, the fabric's reads, the coflow
    aggregates, the coflow ordering keys and totals, the coflow placers' and
    ``place_reducer``'s totals, a coflow arrival's size, the reports' means,
    a repetition aggregate's mean and variance and the causal blame's
    contender total add with an explicit left fold (``+=``).  A bare float ``sum(`` is that same fold on
    CPython 3.11 but compensated on 3.12, so the two would disagree."""
    bare_sum = re.compile(r"\bsum\(")
    assert [
        f"{module.name}:{number}: {line.strip()}"
        for module in (
            SRC / "predictor" / "flow_fct.py",
            SRC / "predictor" / "coflow_cct.py",
            SRC / "predictor" / "state.py",
            SRC / "network" / "fabric.py",
            SRC / "coflow" / "coflow.py",
            SRC / "coflow" / "policies" / "simple.py",
            SRC / "placement" / "coflow_placement.py",
            SRC / "daemons" / "placement_daemon.py",
            SRC / "experiments" / "runner.py",
            SRC / "workloads" / "traces.py",
            SRC / "metrics" / "stats.py",
            SRC / "experiments" / "repetitions.py",
            SRC / "telemetry" / "causal.py",
        )
        for number, line in enumerate(
            module.read_text(encoding="utf-8").splitlines(), 1
        )
        if bare_sum.search(line)
    ] == []


def test_readers_outside_the_fabric_read_residuals():
    """Only events write a flow's progress; a read computes it.  So the
    placement policies, daemons, predictors and metrics read a flow's
    residual bits through ``NetworkFabric.residual`` (or a batched edge
    read), never ``remaining`` / ``attained``, which hold the flow's
    progress as of its last event."""
    stale = re.compile(r"\.(remaining|attained)\b")
    assert _matches(stale, "predictor", "placement", "daemons", "metrics") == []
