"""One run of one workload in this process: the measurement itself.

:func:`timed_run` produces the end-to-end metrics (``--trace 0``),
:func:`traced_run` the per-layer metrics (``--trace 1``).  Both return
``(correct, attempted, failed, metrics, detail)`` where ``metrics`` maps a
name of ``BENCHMARK.json`` to ``(value, unit)`` and ``detail`` is extra
context for the ledger (digest, iteration count, raw throughput, ...).
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import checks
import tracing
import workloads
from yardstick import (
    Y_REF_MS,
    SliceClock,
    Yardstick,
    median_columns,
    percentile,
    reference_times,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: Pinned iterations a timed run makes at least, whatever ``--seconds``.
MIN_ITERATIONS = 3
#: Set-up probes before each of those iterations (15 a run, spread over
#: ~15 s so that they do not all land in one slow spell of the host);
#: ``setup_s`` is their median.
PROBES_PER_ITERATION = 5
#: Yardstick slices on each side of a probe.
PROBE_SLICES = 3


def use_checkout_program() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/`` and run
    the allocator on the numpy backend (set here, in the environment, so
    no argument is threaded through the program's API)."""
    os.environ["REPRO_ALLOC_BACKEND"] = "numpy"
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import repro

    origin = os.path.abspath(repro.__file__)
    if not origin.startswith(src + os.sep):
        raise SystemExit(
            f"benchmark must measure {src}, but `import repro` found {origin}"
        )


def _named(section: str, values: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """``values`` as the metrics of one section of ``BENCHMARK.json``: its
    names, in its order, with its units (the contract is the one place
    that lists them)."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fp:
        contract = json.load(fp)
    return {m["name"]: (values[m["name"]], m["unit"]) for m in contract[section]}


# ----------------------------------------------------------------------
# One timed iteration
# ----------------------------------------------------------------------
class Iteration:
    """Everything one call of a workload's public function produced."""

    def __init__(
        self,
        clock: SliceClock,
        result,
        trace_bytes: int,
        *,
        attempted: int,
        failed: int,
        problems: List[str],
    ) -> None:
        self.result = result
        self.trace_bytes = trace_bytes
        self.attempted = attempted
        self.failed = failed
        self.problems = problems
        self.digest = checks.record_digest(result.records)
        self.stretches, self.decisions_ms = reference_times(
            clock.call_start, clock.call_end, clock.slices, clock.decisions
        )
        self.ref_ms = sum(self.stretches)
        inside = clock.slices[1:-1]
        self.raw_ms = (
            clock.call_end
            - clock.call_start
            - sum(end - start for start, end in inside)
        ) / 1e6
        self.slice_ms = [(end - start) / 1e6 for start, end in clock.slices]
        self.wall_s = (clock.slices[-1][1] - clock.slices[0][0]) / 1e9


class _TracedYardstick:
    """The yardstick with each in-call slice recorded as a span, so slice
    time is subtracted from whatever layer it interrupted."""

    def __init__(self, inner: Yardstick, tracer: tracing.SpanTracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def reset(self) -> None:
        self._inner.reset()

    def __call__(self) -> float:
        index = self._tracer.enter(tracing.YARDSTICK)
        try:
            return self._inner()
        finally:
            self._tracer.leave(index)


class Harness:
    """A workload with its pinned inputs ready, able to run iterations."""

    def __init__(self, workload: workloads.Workload) -> None:
        self.workload = workload
        self.topology = workloads.build_topology(workload)
        self.trace = workloads.build_trace(workload, self.topology)
        self.tasks = workloads.count_tasks(workload, self.trace)
        self.yardstick = Yardstick()
        os.makedirs(OUT_DIR, exist_ok=True)

    def warm_up(self) -> None:
        """Replay a short prefix once, untimed, so lazy imports, numpy
        start-up and interpreter specialisation are out of the way: the
        first timed iteration otherwise reads 6-8% high."""
        prefix = replace(
            self.workload, arrivals=max(1, self.workload.arrivals // 10)
        )
        trace = workloads.build_trace(prefix, self.topology)
        workloads.replay(prefix, self.topology, trace, scratch_dir=OUT_DIR)

    def iterate(
        self,
        trace=None,
        *,
        tracer: Optional[tracing.SpanTracer] = None,
        observed: Optional[bool] = None,
    ) -> Iteration:
        """Time one call, then check its output outside the timed region."""
        trace = self.trace if trace is None else trace
        yardstick = (
            self.yardstick
            if tracer is None
            else _TracedYardstick(self.yardstick, tracer)
        )
        clock = SliceClock(yardstick, self.workload.slice_every)
        patches = tracing.install_decision_stopwatch(clock.decision, tracer)
        gc.collect()
        try:
            clock.begin()
            root = tracer.enter(tracing.ROOT) if tracer is not None else -1
            result, trace_bytes = workloads.replay(
                self.workload,
                self.topology,
                trace,
                scratch_dir=OUT_DIR,
                observed=observed,
            )
            if tracer is not None:
                tracer.leave(root)
            clock.end()
        finally:
            patches.restore()
        attempted, failed, problems = checks.check_records(
            trace,
            result.records,
            coflows=self.workload.coflows,
            decisions=len(clock.decisions),
        )
        return Iteration(
            clock,
            result,
            trace_bytes,
            attempted=attempted,
            failed=failed,
            problems=problems,
        )


def _combine(iterations: Sequence[Iteration], tasks: int) -> Dict[str, float]:
    """A run's host-time numbers from its pinned iterations.

    Stretch *k* and decision *k* are the same work in every iteration, so
    the run takes their medians over the iterations before summing or
    ranking: one stalled stretch in one iteration changes nothing.
    """
    stretches = median_columns([it.stretches for it in iterations])
    decisions = median_columns([it.decisions_ms for it in iterations])
    slices = [ms for it in iterations for ms in it.slice_ms]
    raw_ms = statistics.median(it.raw_ms for it in iterations)
    return {
        "task_cost_ref_ms": sum(stretches) / tasks,
        "decision_ref_us_p50": percentile(decisions, 50) * 1e3,
        "decision_ref_us_p95": percentile(decisions, 95) * 1e3,
        "busy_ref_ms_per_task": sum(decisions) / tasks,
        "tasks_per_s_raw": tasks / (raw_ms / 1e3),
        "yardstick_ms": statistics.mean(slices),
        "yardstick_cv": statistics.pstdev(slices) / statistics.mean(slices),
    }


def _verdict(iterations: Sequence[Iteration]) -> Tuple[bool, int, int, List[str]]:
    problems = [p for it in iterations for p in it.problems]
    digests = {it.digest for it in iterations}
    if len(digests) > 1:
        problems.append(
            f"pinned iterations produced {len(digests)} different record digests"
        )
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    return not problems, attempted, failed, problems


# ----------------------------------------------------------------------
# Set-up probes
# ----------------------------------------------------------------------
def probe_setup(
    workload_name: str, profile: str, yardstick: Yardstick
) -> Dict[str, float]:
    """Spawn one fresh interpreter that readies the workload's inputs.

    ``setup_s`` is the wall time from spawn to inputs ready, scaled to the
    reference host by yardstick slices run here just before and after.
    The scaling is cruder than inside a timed call, since a probe cannot
    be interrupted for slices and imports are not pure interpreter work:
    one probe repeats within +-15%, which is why a run takes the median
    of 15.
    """
    command = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload_name]
    if profile == "quick":
        command.append("quick")

    def slices() -> List[int]:
        out = []
        for _ in range(PROBE_SLICES):
            start = time.perf_counter_ns()
            yardstick()
            out.append(time.perf_counter_ns() - start)
        return out

    before = slices()
    spawned_at = time.time()
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=120, check=True
    )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    raw_s = report.pop("ready_at") - spawned_at
    slice_ms = statistics.fmean(before + slices()) / 1e6
    report["setup_raw_s"] = raw_s
    report["setup_s"] = raw_s * Y_REF_MS / slice_ms
    return report


# ----------------------------------------------------------------------
# --trace 0: the end-to-end metrics
# ----------------------------------------------------------------------
def timed_run(workload: workloads.Workload, seconds: float, profile: str):
    started = time.perf_counter()
    harness = Harness(workload)
    harness.warm_up()
    probes: List[Dict[str, float]] = []
    iterations: List[Iteration] = []
    peak_rss_kib = 0
    while True:
        if len(iterations) < MIN_ITERATIONS:
            probes += [
                probe_setup(workload.name, profile, harness.yardstick)
                for _ in range(PROBES_PER_ITERATION)
            ]
        iterations.append(harness.iterate())
        if len(iterations) < MIN_ITERATIONS:
            continue
        if len(iterations) == MIN_ITERATIONS:
            # Taken here and not at exit: a fast host fits more iterations
            # into --seconds, and each keeps ~0.3 MiB of stamps.
            peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = time.perf_counter() - started
        if elapsed + iterations[-1].wall_s > seconds:
            break
    correct, attempted, failed, problems = _verdict(iterations)
    numbers = _combine(iterations, harness.tasks)
    gaps = checks.gaps(iterations[0].result.records)
    metrics = _named(
        "end_to_end",
        {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "task_cost_ref_ms": numbers["task_cost_ref_ms"],
            "decision_ref_us_p50": numbers["decision_ref_us_p50"],
            "peak_rss_mb": peak_rss_kib / 1024.0,
            "sim_gap_mean": statistics.fmean(gaps),
        },
    )
    detail = {
        "workload": workload.name,
        "iterations": len(iterations),
        "iteration_cost_ref_ms": [
            round(it.ref_ms / harness.tasks, 4) for it in iterations
        ],
        "tasks": harness.tasks,
        "digest": iterations[0].digest,
        "host.tasks_per_s_raw": numbers["tasks_per_s_raw"],
        "host.yardstick_ms": numbers["yardstick_ms"],
        "host.yardstick_cv": numbers["yardstick_cv"],
        "setup_raw_s": statistics.median(p["setup_raw_s"] for p in probes),
        "problems": problems,
    }
    return correct, attempted, failed, metrics, detail


# ----------------------------------------------------------------------
# --trace 1: the per-layer metrics
# ----------------------------------------------------------------------
#: Layers whose self time is reported as ``<layer>.self_ref_ms_per_task``.
SELF_TIME_LAYERS = (
    "sim",
    "runner",
    "network.fabric",
    "network.alloc",
    "coflow.tracker",
    "coflow.alloc",
    "daemons.bus",
    "daemons.network_daemon",
    "daemons.placement_daemon",
    "predictor",
    "telemetry.trace",
    "telemetry.causal",
    "telemetry.decisions",
)


def _prediction_error_p50(daemon, records) -> float:
    """Median |predicted - realised| / realised over NEAT's decisions
    (Fig 10); 0 when the workload makes no predictions."""
    if daemon is None:
        return 0.0
    realised = {}
    for record in records:
        realised[record.tag] = record.completion_time - record.arrival_time
    predicted: Dict[str, float] = {}
    for decision in daemon.decisions:
        if decision.predicted_time >= 0:
            # a coflow's flows share one tag; its prediction is the last
            # bottleneck its sequential placement saw
            predicted[decision.tag] = max(
                predicted.get(decision.tag, 0.0), decision.predicted_time
            )
    errors = [
        abs(predicted[tag] - realised[tag]) / realised[tag]
        for tag in predicted
        if realised.get(tag, 0.0) > 0
    ]
    return percentile(errors, 50) if errors else 0.0


def traced_run(workload: workloads.Workload, seed: int, profile: str):
    harness = Harness(workload)
    tasks = harness.tasks
    harness.warm_up()
    probes = [
        probe_setup(workload.name, profile, harness.yardstick) for _ in range(3)
    ]

    untraced = harness.iterate()

    heldout_trace = workloads.build_trace(
        workload, harness.topology, workloads.heldout_seed(workload, seed)
    )
    heldout = harness.iterate(heldout_trace)
    heldout_tasks = workloads.count_tasks(workload, heldout_trace)

    tracer = tracing.SpanTracer()
    tracer.install()
    try:
        traced = harness.iterate(tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.save(os.path.join(OUT_DIR, f"spans-{workload.name}.bin"))

    pinned = [untraced, traced]
    telemetry_total = 0.0
    if workload.observed:
        plain = harness.iterate(observed=False)
        pinned.append(plain)
        telemetry_total = (untraced.ref_ms - plain.ref_ms) / tasks

    correct, attempted, failed, problems = _verdict(pinned)
    problems += heldout.problems
    correct = correct and not heldout.problems
    attempted += heldout.attempted
    failed += heldout.failed
    if tracer.missing:
        print(f"span targets not found: {tracer.missing}", file=sys.stderr)

    # Layer budget.  Slices are spans too, so they are already subtracted
    # from the layer they interrupted; what is left of the root span is
    # program time, and the traced call's own reference/raw ratio converts
    # it to reference milliseconds.
    self_ns = tracer.self_times()
    calls = tracer.calls()
    self_ns["runner"] = self_ns.get("runner", 0) + self_ns.pop(tracing.ROOT, 0)
    self_ns.setdefault(tracing.UNATTRIBUTED, 0)
    program_ns = sum(
        ns for name, ns in self_ns.items() if name != tracing.YARDSTICK
    )
    to_ref = traced.ref_ms / (program_ns / 1e6)

    def per_task(name: str) -> float:
        return self_ns.get(name, 0) / 1e6 * to_ref / tasks

    numbers = _combine([untraced], tasks)
    records = untraced.result.records
    engine = tracer.objects.get("engine")
    decisions = tracer.top_level_calls(tracing.PLACEMENT)
    values: Dict[str, float] = {
        "sim.events": untraced.result.events_processed,
        "sim.heap_high_water": engine.heap_high_water if engine else 0,
        "sim.gap_p95": percentile(checks.gaps(records), 95),
        "network.fabric.calls": calls.get("network.fabric", 0),
        "coflow.coflows": len(records) if workload.coflows else 0,
        "placement.decisions": decisions,
        "placement.candidates_per_decision": (
            tracer.counts.get("placement.candidates", 0) / max(decisions, 1)
        ),
        "placement.busy_ref_ms_per_task": numbers["busy_ref_ms_per_task"],
        "placement.decision_ref_us_p95": numbers["decision_ref_us_p95"],
        "daemons.bus.msgs_per_task": untraced.result.control_messages / tasks,
        "predictor.calls_per_task": tracer.top_level_calls("predictor") / tasks,
        "predictor.abs_err_p50": _prediction_error_p50(
            tracer.objects.get("placement_daemon"), traced.result.records
        ),
        "telemetry.trace.events": calls.get("telemetry.trace", 0),
        "telemetry.trace.bytes_per_task": untraced.trace_bytes / tasks,
        "telemetry.causal.events": calls.get("telemetry.causal", 0),
        "telemetry.total_ref_ms_per_task": telemetry_total,
        "host.gc.collections": calls.get(tracing.GC, 0),
        "host.gc.pause_ref_ms_per_task": per_task(tracing.GC),
        "host.tasks_per_s_raw": numbers["tasks_per_s_raw"],
        "host.yardstick_ms": numbers["yardstick_ms"],
        "host.yardstick_cv": numbers["yardstick_cv"],
        "setup.import_s": statistics.median(p["import_s"] for p in probes),
        "setup.topology_s": statistics.median(p["topology_s"] for p in probes),
        "setup.trace_s": statistics.median(p["trace_s"] for p in probes),
        "trace.overhead_ratio": traced.ref_ms / untraced.ref_ms,
        "trace.unattributed_share": self_ns[tracing.UNATTRIBUTED] / program_ns,
        "heldout.task_cost_ref_ms": heldout.ref_ms / heldout_tasks,
        "heldout.sim_gap_mean": statistics.fmean(
            checks.gaps(heldout.result.records)
        ),
    }
    for family in ("network", "coflow"):
        n_calls = calls.get(f"{family}.alloc", 0)
        n_flows = tracer.counts.get(f"{family}.alloc.flows", 0)
        values[f"{family}.alloc.calls"] = n_calls
        values[f"{family}.alloc.flows_per_call"] = n_flows / max(n_calls, 1)
    for layer in SELF_TIME_LAYERS:
        values[f"{layer}.self_ref_ms_per_task"] = per_task(layer)

    metrics = _named("per_layer", values)
    named = sum(per_task(layer) for layer in SELF_TIME_LAYERS)
    detail = {
        "workload": workload.name,
        "tasks": tasks,
        "digest": untraced.digest,
        "spans": len(tracer.start),
        "layer_budget_ref_ms_per_task": {
            "traced_call": traced.ref_ms / tasks,
            "named_layers": named,
            "placement_policy": per_task(tracing.PLACEMENT),
            "gc": per_task(tracing.GC),
            "unattributed": per_task(tracing.UNATTRIBUTED),
        },
        "problems": problems,
    }
    return correct, attempted, failed, metrics, detail
