"""Tests of the benchmark harness itself.

Not part of tier-1 (``testpaths`` is ``tests/``); run explicitly::

    python3 -m pytest benchmarks/e2e/test_harness.py

Everything runs on the 16-host ``quick`` profile and finishes in seconds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import compare  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

measure.use_checkout_program()

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fp:
    CONTRACT = json.load(_fp)


# ----------------------------------------------------------------------
# Arithmetic on synthetic timings
# ----------------------------------------------------------------------
MS = 1_000_000  # ns


def test_slices_are_subtracted_and_scaled_to_the_reference_host():
    # Host exactly twice as slow as the reference: every slice takes
    # 2 * Y_REF.  Call runs 0..100 ms with one 10 ms slice inside, so 90 ms
    # of program time, which is 45 reference ms.
    y = int(2 * yardstick.Y_REF_MS * MS)
    inner = (40 * MS, 40 * MS + y)
    slices = [(-y, 0), inner, (100 * MS, 100 * MS + y)]
    decisions = [(10 * MS, 12 * MS), (60 * MS, 66 * MS)]
    stretches, per_decision = yardstick.reference_times(
        0, 100 * MS, slices, decisions
    )
    program_ms = 100 - y / MS
    assert sum(stretches) == pytest.approx(program_ms / 2)
    assert per_decision == pytest.approx([1.0, 3.0])


def test_each_stretch_uses_its_own_neighbouring_slices():
    # The host slows from 1x to 3x halfway: the first stretch is bounded
    # by (1x, 1x) slices, the second by (1x, 3x) -> mean 2x.
    y = int(yardstick.Y_REF_MS * MS)
    slices = [(-y, 0), (50 * MS, 50 * MS + y), (150 * MS, 150 * MS + 3 * y)]
    stretches, _ = yardstick.reference_times(0, 150 * MS, slices, [])
    assert stretches[0] == pytest.approx(50.0)
    assert stretches[1] == pytest.approx((100 - y / MS) / 2)


def test_reference_times_rejects_unbracketed_calls():
    y = int(yardstick.Y_REF_MS * MS)
    with pytest.raises(ValueError):
        yardstick.reference_times(0, 10 * MS, [(-y, 0)], [])
    with pytest.raises(ValueError):
        yardstick.reference_times(0, 10 * MS, [(5, 5 + y), (20 * MS, 21 * MS)], [])
    with pytest.raises(ValueError):  # decision after the call ended
        yardstick.reference_times(
            0, 10 * MS, [(-y, 0), (10 * MS, 11 * MS)], [(12 * MS, 13 * MS)]
        )


def test_median_columns_drops_the_stalled_iteration():
    rows = [[1.0, 2.0, 3.0], [1.1, 20.0, 3.1], [0.9, 2.1, 2.9]]
    assert yardstick.median_columns(rows) == [1.0, 2.1, 3.0]
    with pytest.raises(ValueError):
        yardstick.median_columns([[1.0], [1.0, 2.0]])


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert yardstick.percentile(values, 0) == 1.0
    assert yardstick.percentile(values, 50) == 3.0
    assert yardstick.percentile(values, 95) == 5.0
    assert yardstick.percentile(values, 100) == 5.0
    assert yardstick.percentile(list(range(1, 101)), 95) == 95
    with pytest.raises(ValueError):
        yardstick.percentile([], 50)
    with pytest.raises(ValueError):
        yardstick.percentile(values, 101)


def test_yardstick_slices_do_equal_work():
    stick = yardstick.Yardstick()
    first = [stick() for _ in range(5)]
    stick.reset()
    assert [stick() for _ in range(5)] == first  # reset rewinds exactly


def test_slice_clock_runs_a_slice_every_kth_decision():
    clock = yardstick.SliceClock(yardstick.Yardstick(), every=3)
    clock.begin()
    for _ in range(7):
        clock.decision(clock.call_start + 1, clock.call_start + 2)
    clock.end()
    assert len(clock.slices) == 1 + 2 + 1
    assert len(clock.decisions) == 7


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _snapshot():
    """Identity of every attribute the harness may swap."""
    tracing._import_program_packages()
    seen = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in vars(module).items():
            if callable(value):
                seen[(name, attr)] = value
            if isinstance(value, type):
                for member, function in vars(value).items():
                    seen[(name, attr, member)] = function
    return seen


def test_wrappers_restore_identical_function_objects():
    before = _snapshot()
    tracer = tracing.SpanTracer()
    tracer.install()
    patches = tracing.install_decision_stopwatch(lambda s, e: None, tracer)
    during = _snapshot()
    swapped = [key for key in before if during[key] is not before[key]]
    assert len(swapped) > 30  # engine, fabric, allocators, bus, daemons, ...
    patches.restore()
    tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.missing == []


def test_span_self_times_sum_to_the_root():
    tracer = tracing.SpanTracer()
    root = tracer.enter(tracing.ROOT)
    a = tracer.enter("a")
    b = tracer.enter("b")
    tracer.leave(b)
    b2 = tracer.enter("b")
    tracer.leave(b2)
    tracer.leave(a)
    c = tracer.enter("a")
    tracer.leave(c)
    tracer.leave(root)
    own = tracer.self_times()
    assert sum(own.values()) == tracer.end[root] - tracer.start[root]
    assert all(ns >= 0 for ns in own.values())
    assert tracer.calls() == {tracing.ROOT: 1, "a": 2, "b": 2}
    assert tracer.top_level_calls("b") == 2


def test_spans_round_trip_through_the_file(tmp_path):
    tracer = tracing.SpanTracer()
    root = tracer.enter(tracing.ROOT)
    tracer.leave(tracer.enter("layer"))
    tracer.leave(root)
    path = str(tmp_path / "spans.bin")
    tracer.save(path)
    names, name_id, start, end, parent = tracing.load_spans(path)
    assert names == tracer.names
    assert list(parent) == [-1, 0]
    assert tracing.self_times(names, name_id, start, end, parent) == (
        tracer.self_times()
    )


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def quick_flow_run():
    harness = measure.Harness(workloads.quick(workloads.BY_NAME["fig5_fair_neat"]))
    iteration = harness.iterate()
    return harness, iteration


def _check(harness, records, decisions=None):
    return checks.check_records(
        harness.trace,
        records,
        coflows=False,
        decisions=harness.tasks if decisions is None else decisions,
    )


def test_checks_accept_a_real_run(quick_flow_run):
    harness, iteration = quick_flow_run
    assert iteration.problems == []
    assert iteration.attempted == harness.tasks and iteration.failed == 0


def test_checks_reject_doctored_records(quick_flow_run):
    harness, iteration = quick_flow_run
    records = list(iteration.result.records)

    attempted, failed, problems = _check(harness, records[1:])
    assert (attempted, failed) == (harness.tasks, 1) and problems

    _, _, problems = _check(harness, records + records[:1])
    assert any("duplicate" in p for p in problems)

    early = replace(records[0], completion_time=records[0].arrival_time - 1.0)
    _, _, problems = _check(harness, [early] + records[1:])
    assert any("before it arrived" in p for p in problems)

    fast = replace(
        records[0],
        completion_time=records[0].arrival_time + records[0].optimal_fct / 2,
    )
    _, _, problems = _check(harness, [fast] + records[1:])
    assert any("empty-network optimum" in p for p in problems)

    stranger = replace(records[0], tag="not-in-the-trace")
    _, failed, problems = _check(harness, [stranger] + records[1:])
    assert failed == 1 and any("unknown task" in p for p in problems)

    _, _, problems = _check(harness, records, decisions=harness.tasks - 1)
    assert any("placement decisions" in p for p in problems)


def test_digest_sees_the_last_bit_of_a_float(quick_flow_run):
    _harness, iteration = quick_flow_run
    records = list(iteration.result.records)
    nudged = replace(
        records[0], completion_time=records[0].completion_time * (1 + 2**-52)
    )
    assert checks.record_digest(records) == iteration.digest
    assert checks.record_digest([nudged] + records[1:]) != iteration.digest


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def _summary(values, unit="ms"):
    q1, median, q3 = run.quartiles(values)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "values": values}


def _ledger(cost, *, gap=0.5, events=100):
    def quiet(centre):
        return [centre * f for f in (0.99, 0.995, 1.0, 1.005, 1.01)]

    entry = {
        "end_to_end": {
            "setup_s": _summary(quiet(0.2), "s"),
            "task_cost_ref_ms": _summary(cost),
            "decision_ref_us_p50": _summary(quiet(800.0), "us"),
            "peak_rss_mb": _summary(quiet(50.0), "MiB"),
            "sim_gap_mean": _summary([gap] * 5, "ratio"),
        },
        "per_layer": {
            "sim.events": {"value": events, "unit": "count"},
            "sim.self_ref_ms_per_task": {"value": 0.1, "unit": "ms"},
            "host.gc.collections": {"value": 7, "unit": "count"},
        },
    }
    return {"workloads": {w["name"]: entry for w in CONTRACT["workloads"]}}


def _verdicts(base, new):
    lines, failed = compare.compare(base, new, CONTRACT)
    cost_rows = [line for line in lines if " task_cost_ref_ms " in line]
    return {line.split()[-1] for line in cost_rows}, failed, lines


def test_compare_verdicts_on_doctored_ledgers(tmp_path):
    quiet = [2.97, 2.99, 3.0, 3.01, 3.03]
    base = _ledger(quiet)
    assert _verdicts(base, _ledger(quiet))[:2] == ({"ok"}, False)
    bound = next(
        m["bound"] for m in CONTRACT["end_to_end"] if m["name"] == "task_cost_ref_ms"
    )
    worse = [v * (1.01 + bound) for v in quiet]
    assert _verdicts(base, _ledger(worse))[:2] == ({"REGRESSION"}, True)
    faster = [v * 0.9 for v in quiet]
    assert _verdicts(base, _ledger(faster))[:2] == ({"better"}, False)
    noisy = [2.6, 2.8, 3.0, 3.2, 3.5]
    assert _verdicts(base, _ledger(noisy))[:2] == ({"unresolved"}, False)
    noisy_but_faster = [v * 0.5 for v in noisy]
    assert _verdicts(base, _ledger(noisy_but_faster))[:2] == ({"better"}, False)

    # exact metrics: may not worsen at all; counts may not move at all
    _, failed, lines = _verdicts(base, _ledger(quiet, gap=0.5000001))
    assert failed and any("sim_gap_mean" in l and "REGRESSION" in l for l in lines)
    _, failed, lines = _verdicts(base, _ledger(quiet, events=101))
    assert failed and any("sim.events" in l and "MOVED" in l for l in lines)

    # and through the command line
    paths = []
    for name, document in (("base", base), ("new", _ledger(worse))):
        paths.append(str(tmp_path / f"{name}.json"))
        with open(paths[-1], "w", encoding="utf-8") as fp:
            json.dump(document, fp)
    assert compare.main(paths) == 1
    assert compare.main([paths[0], paths[0]]) == 0


# ----------------------------------------------------------------------
# The contract, end to end on the quick profile
# ----------------------------------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


LAYER_NAMES = [m["name"] for m in CONTRACT["per_layer"]]


def test_benchmark_json_matches_the_code_and_the_contract():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert [w["name"] for w in CONTRACT["workloads"]] == [
        w.name for w in workloads.WORKLOADS
    ]
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert 1 <= CONTRACT["run_seconds"] <= 60
    names = [
        m["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for m in CONTRACT[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])
    assert all(0 <= m["bound"] <= 0.10 for m in CONTRACT["end_to_end"])
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    runs = 4 + 22 * len(CONTRACT["workloads"])
    assert runs * (CONTRACT["run_seconds"] + 4) <= 3420


def _drive(workload, trace, cwd=ROOT, script=None):
    command = [
        sys.executable,
        script or os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--profile", "quick",
    ]  # fmt: skip
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def quick_runs():
    out = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            done = _drive(workload.name, trace)
            assert done.returncode == 0, done.stderr
            lines = done.stdout.strip().splitlines()
            out[workload.name, trace] = (
                json.loads(lines[-1]),
                json.loads(lines[-2][len("detail ") :]),
            )
    return out


def test_every_workload_prints_the_contract_last_line(quick_runs):
    wanted = {
        0: {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]},
        1: {m["name"]: m["unit"] for m in CONTRACT["per_layer"]},
    }
    for (workload, trace), (result, _detail) in quick_runs.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == wanted[trace], (workload, trace)
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_telemetry_leaves_the_records_alone(quick_runs):
    plain = quick_runs["fig5_fair_neat", 0]
    observed = quick_runs["fig5_fair_neat_observed", 0]
    assert plain[1]["digest"] == observed[1]["digest"]
    assert (
        plain[0]["metrics"]["sim_gap_mean"] == observed[0]["metrics"]["sim_gap_mean"]
    )
    # and the traced run replays the same pinned inputs
    assert quick_runs["fig5_fair_neat", 1][1]["digest"] == plain[1]["digest"]


def test_layers_are_silent_where_the_interaction_table_says_so(quick_runs):
    def layer(workload, name):
        return quick_runs[workload, 1][0]["metrics"][name]["value"]

    off = ("fig5_fair_neat", "fig6_srpt_minload", "fig7_varys_neat")
    for workload in off:
        for name in LAYER_NAMES:
            if name.startswith("telemetry."):
                assert layer(workload, name) == 0, (workload, name)
    assert layer("fig5_fair_neat_observed", "telemetry.trace.events") > 0
    assert layer("fig5_fair_neat_observed", "telemetry.causal.events") > 0
    for name in (
        "daemons.bus.msgs_per_task",
        "daemons.bus.self_ref_ms_per_task",
        "daemons.network_daemon.self_ref_ms_per_task",
        "daemons.placement_daemon.self_ref_ms_per_task",
        "predictor.calls_per_task",
        "predictor.self_ref_ms_per_task",
    ):
        assert layer("fig6_srpt_minload", name) == 0, name
        assert layer("fig5_fair_neat", name) > 0, name
        assert layer("fig7_varys_neat", name) > 0, name
    for workload in ("fig5_fair_neat", "fig6_srpt_minload", "fig5_fair_neat_observed"):
        for name in LAYER_NAMES:
            if name.startswith("coflow."):
                assert layer(workload, name) == 0, (workload, name)
        assert layer(workload, "network.alloc.calls") > 0
    assert layer("fig7_varys_neat", "coflow.alloc.calls") > 0
    assert layer("fig7_varys_neat", "network.alloc.calls") == 0


def test_layer_budget_sums_to_the_traced_call(quick_runs):
    for (workload, trace), (result, detail) in quick_runs.items():
        if trace == 0:
            continue
        budget = detail["layer_budget_ref_ms_per_task"]
        parts = sum(v for k, v in budget.items() if k != "traced_call")
        assert parts == pytest.approx(budget["traced_call"], rel=0.01), workload
        share = result["metrics"]["trace.unattributed_share"]["value"]
        assert 0 <= share <= 0.01
        decisions = result["metrics"]["placement.decisions"]["value"]
        assert decisions == detail["tasks"]


def test_without_the_program_the_benchmark_fails(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    script = str(tmp_path / "benchmarks" / "e2e" / "run.py")
    done = _drive("fig5_fair_neat", 0, cwd=str(tmp_path), script=script)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
