"""Compare two ledgers written by ``run.py``: ``compare.py BASE NEW``.

One row per (workload, end-to-end metric) with both medians and quartiles
and a verdict taken from the bounds in ``BENCHMARK.json``:

* ``REGRESSION`` - NEW's median is worse than BASE's by more than the bound;
* ``unresolved`` - the run-to-run spread (IQR / median, either side) is
  wider than the bound, so the pair cannot be called unchanged; it is still
  ``better`` when every NEW run beats every BASE run;
* ``better`` - NEW's median beats BASE's by more than the distance between
  BASE's quartiles;
* ``ok`` - everything else.

Exact numbers (bound 0, simulated time) may improve but not worsen, and the
count-type layer metrics of the traced runs must be identical: the inputs
are pinned, so a count that moved means the program does different work.
Exit status 1 on any ``REGRESSION`` or moved count.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")

#: Units of layer metrics that repeat exactly on pinned inputs.
COUNT_UNITS = ("count", "B")
#: Layer metrics in simulated time, exact as well.
SIMULATED_LAYER_METRICS = ("sim.gap_p95", "predictor.abs_err_p50")


def _spread(summary: Dict[str, float]) -> float:
    if not summary["median"]:
        return 0.0
    return abs((summary["q3"] - summary["q1"]) / summary["median"])


def verdict(
    base: Dict[str, object],
    new: Dict[str, object],
    *,
    bound: float,
    better: str,
) -> Tuple[str, float]:
    """``(verdict, worsening)`` for one metric of one workload.

    ``base`` / ``new`` are ledger summaries (``median``, ``q1``, ``q3``,
    ``values``); ``worsening`` is NEW's median relative to BASE's, positive
    when worse, as a share of BASE's median.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_median = base["median"]
    worsening = (
        sign * (new["median"] - base_median) / abs(base_median)
        if base_median
        else 0.0
    )
    if bound == 0:
        if worsening > 0:
            return "REGRESSION", worsening
        return ("better" if worsening < 0 else "ok"), worsening
    every_run_better = max(sign * v for v in new["values"]) < min(
        sign * v for v in base["values"]
    )
    if max(_spread(base), _spread(new)) > bound:
        return ("better" if every_run_better else "unresolved"), worsening
    if worsening > bound:
        return "REGRESSION", worsening
    base_iqr = abs(base["q3"] - base["q1"])
    if sign * (base_median - new["median"]) > base_iqr:
        return "better", worsening
    return "ok", worsening


def moved_counts(base_layers: Dict[str, dict], new_layers: Dict[str, dict]) -> List[str]:
    """Names of exact layer metrics whose value differs between ledgers."""
    moved = []
    for name, entry in base_layers.items():
        exact = entry["unit"] in COUNT_UNITS or name in SIMULATED_LAYER_METRICS
        if not exact or name.startswith("host."):
            continue
        other = new_layers.get(name)
        if other is None or other["value"] != entry["value"]:
            moved.append(name)
    return moved


def compare(base: dict, new: dict, contract: dict) -> Tuple[List[str], bool]:
    """Report lines and whether the comparison failed."""
    lines: List[str] = []
    failed = False
    header = (
        f"{'workload':<24} {'metric':<20} {'unit':<5} "
        f"{'base median [q1, q3]':<34} {'new median [q1, q3]':<34} "
        f"{'change':>8}  verdict"
    )
    lines.append(header)
    lines.append("-" * len(header))

    def cell(s: Dict[str, float]) -> str:
        return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"

    for workload in (w["name"] for w in contract["workloads"]):
        base_w = base["workloads"].get(workload)
        new_w = new["workloads"].get(workload)
        if base_w is None or new_w is None:
            lines.append(f"{workload:<24} missing from a ledger  REGRESSION")
            failed = True
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            b, n = base_w["end_to_end"][name], new_w["end_to_end"][name]
            word, worsening = verdict(
                b, n, bound=metric["bound"], better=metric["better"]
            )
            failed = failed or word == "REGRESSION"
            lines.append(
                f"{workload:<24} {name:<20} {metric['unit']:<5} "
                f"{cell(b):<34} {cell(n):<34} {worsening:>+8.2%}  {word}"
            )
        for name in moved_counts(base_w["per_layer"], new_w["per_layer"]):
            b = base_w["per_layer"][name]["value"]
            n = new_w["per_layer"].get(name, {}).get("value")
            lines.append(
                f"{workload:<24} {name:<20} count moved: {b!r} -> {n!r}  MOVED"
            )
            failed = True
    return lines, failed


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print("usage: compare.py BASE.json NEW.json", file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as fp:
            documents.append(json.load(fp))
    with open(BENCHMARK_JSON, encoding="utf-8") as fp:
        contract = json.load(fp)
    lines, failed = compare(documents[0], documents[1], contract)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
