"""The repo's end-to-end benchmark.

Two ways to run it, both from the root of a checkout:

* ``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
  --trace 0|1`` is one run of one workload in this process (the form the
  driver uses).  The last line of stdout is one JSON object with
  ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
  metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
* ``python3 benchmarks/e2e/run.py`` is the ledger: every workload, fresh
  process per run, runs interleaved round-robin, every metric printed by
  name with its unit, cross-run checks, ``benchmarks/e2e/out/latest.json``
  written, and with ``--record`` one row appended to ``history.jsonl``.

See README.md in this directory for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import measure  # noqa: E402
import workloads  # noqa: E402
from measure import BENCHMARK_JSON, HERE, OUT_DIR, ROOT  # noqa: E402

HISTORY = os.path.join(HERE, "history.jsonl")


# ----------------------------------------------------------------------
# Single run (the driver's form)
# ----------------------------------------------------------------------
def single_run(args) -> int:
    measure.use_checkout_program()
    workload = workloads.BY_NAME[args.workload]
    if args.profile == "quick":
        workload = workloads.quick(workload)
    if args.trace:
        outcome = measure.traced_run(workload, args.seed, args.profile)
    else:
        outcome = measure.timed_run(workload, args.seconds, args.profile)
    correct, attempted, failed, metrics, detail = outcome
    for problem in detail["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# Ledger (all workloads, fresh process per run)
# ----------------------------------------------------------------------
def _child(workload: str, seed: int, seconds: int, trace: int, profile: str):
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--profile", profile,
    ]  # fmt: skip
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(
            f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}"
        )
    lines = done.stdout.strip().splitlines()
    detail = json.loads(lines[-2][len("detail ") :])
    return json.loads(lines[-1]), detail


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) the way the driver takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _summary(values: Sequence[float], unit: str) -> Dict[str, object]:
    q1, med, q3 = quartiles(values)
    return {"unit": unit, "median": med, "q1": q1, "q3": q3, "values": list(values)}


def _shown(entry: dict):
    """The summaries a ledger shows per workload: the end-to-end metrics
    and, beside them, the un-normalised throughput."""
    yield from entry["end_to_end"].items()
    yield "host.tasks_per_s_raw", entry["host.tasks_per_s_raw"]


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )  # fmt: skip
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )  # fmt: skip
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def _environment() -> Dict[str, object]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    from common import environment_fingerprint

    return environment_fingerprint()


def ledger(args) -> int:
    with open(BENCHMARK_JSON, encoding="utf-8") as fp:
        contract = json.load(fp)
    seconds = args.seconds or contract["run_seconds"]
    names = [w.name for w in workloads.WORKLOADS]
    runs: Dict[str, List[Tuple[dict, dict]]] = {name: [] for name in names}
    for round_index in range(args.runs):
        for name in names:
            print(f"run {round_index + 1}/{args.runs} {name}", file=sys.stderr)
            runs[name].append(
                _child(name, round_index + 1, seconds, 0, args.profile)
            )
    traced = {}
    for name in names:
        print(f"traced run {name}", file=sys.stderr)
        traced[name] = _child(name, args.runs + 1, seconds, 1, args.profile)

    problems: List[str] = []
    report: Dict[str, object] = {}
    for name in names:
        results = [result for result, _detail in runs[name]]
        details = [detail for _result, detail in runs[name]]
        layer_result, layer_detail = traced[name]
        end_to_end = {
            metric: _summary(
                [r["metrics"][metric]["value"] for r in results],
                results[0]["metrics"][metric]["unit"],
            )
            for metric in results[0]["metrics"]
        }
        raw = _summary([d["host.tasks_per_s_raw"] for d in details], "1/s")
        digests = {d["digest"] for d in details} | {layer_detail["digest"]}
        if len(digests) != 1:
            problems.append(f"{name}: record digest differs between runs")
        if len(set(end_to_end["sim_gap_mean"]["values"])) != 1:
            problems.append(f"{name}: sim_gap_mean differs between runs")
        for result in results + [layer_result]:
            if not result["correct"] or result["failed"]:
                problems.append(f"{name}: a run reported incorrect output")
        report[name] = {
            "end_to_end": end_to_end,
            "host.tasks_per_s_raw": raw,
            "per_layer": layer_result["metrics"],
            "layer_budget_ref_ms_per_task": layer_detail[
                "layer_budget_ref_ms_per_task"
            ],
            "digest": details[0]["digest"],
            "iterations": [d["iterations"] for d in details],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
        }
    plain, observed = "fig5_fair_neat", "fig5_fair_neat_observed"
    if report[plain]["digest"] != report[observed]["digest"]:
        problems.append("telemetry changed the records of fig5_fair_neat")

    for name in names:
        entry = report[name]
        print(f"\n== {name} (runs={args.runs}, iterations={entry['iterations']})")
        for metric, s in _shown(entry):
            spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
            print(
                f"  {metric:<24} {s['median']:>12.5g} {s['unit']:<5} "
                f"[q1 {s['q1']:.5g}, q3 {s['q3']:.5g}]  iqr/median {spread:.4f}"
            )
        for metric, m in entry["per_layer"].items():
            print(f"    {metric:<44} {m['value']:>12.5g} {m['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    document = {
        "sha": _git_sha(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": _environment(),
        "run_seconds": seconds,
        "runs": args.runs,
        "profile": args.profile,
        "correct": not problems,
        "workloads": report,
    }
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fp:
        json.dump(document, fp, indent=1, sort_keys=True)
        fp.write("\n")
    print(f"\nwrote {os.path.relpath(args.out)}", file=sys.stderr)
    if args.record:
        row = {key: document[key] for key in document if key != "workloads"}
        row["workloads"] = {
            name: {
                metric: {k: s[k] for k in ("unit", "median", "q1", "q3")}
                for metric, s in _shown(report[name])
            }
            for name in names
        }
        with open(HISTORY, "a", encoding="utf-8") as fp:
            fp.write(json.dumps(row, sort_keys=True) + "\n")
        print(f"appended to {os.path.relpath(HISTORY)}", file=sys.stderr)
    return 1 if problems else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "quick"), default="full")
    parser.add_argument("--runs", type=int, default=3, help="ledger: runs per workload")
    parser.add_argument("--record", action="store_true", help="ledger: append to history.jsonl")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "latest.json"))
    args = parser.parse_args(argv)
    if args.workload is None:
        return ledger(args)
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
