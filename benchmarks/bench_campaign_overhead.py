"""Per-cell overhead of the campaign executor, on cells that do nothing.

Every campaign runs through one lease queue (seed -> claim -> commit ->
index-ordered fold), so what the queue costs per cell is what a sweep
pays on top of its simulations.  This script measures it directly:
no-op-cell grids of 200 and 1,600 cells through ``jobs=1`` (the worker
loop in the calling process) and ``jobs=2`` (two supervised worker
processes), reported as wall milliseconds per cell, best of three.

Two things to read off the table:

* the size of the number: the smallest real cell the tests run (8-host
  fabric, 50 arrivals) takes ~57 ms, so 1 ms per cell is under 2%;
* that it is **flat**: the two grid sizes must agree, because a queue
  that rescans finished cells costs O(n) per claim.

A cell costs three file creations (lease, result blob, done marker), two
renames and an unlink, so on a disk-backed ``$TMPDIR`` the reading moves
with the disk (a create measured 0.07-0.35 ms within one minute on the
development box).  ``TMPDIR=/dev/shm`` takes the disk out and leaves the
executor's own cost: 0.30 ms per cell at both sizes with ``jobs=1``.

Measured at the parent of the commit that made the queue the only
executor (same box, same no-op cell): in-process serial loop 0.002 ms
per cell, supervised process pool 0.5, queue drained in-process 1.6,
queue with 2 workers 2.7 — and the queue path was quadratic: 1.5 / 3.3 /
6.5 ms per cell at 200 / 800 / 1,600 cells, because every claim
re-checked every cell from index 0.

    PYTHONPATH=src python benchmarks/bench_campaign_overhead.py
    PYTHONPATH=src python -m pytest benchmarks/bench_campaign_overhead.py
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

from repro.campaign import Campaign, RunSpec, run_campaign
from repro.experiments.config import MacroConfig

SIZES = (200, 1600)
JOBS = (1, 2)
REPEATS = 3


def noop_cell(spec: RunSpec) -> dict:
    return {"seed": spec.config.seed}


def noop_campaign(cells: int) -> Campaign:
    return Campaign(
        name=f"noop-{cells}",
        cells=tuple(
            RunSpec(kind="flow_macro", config=MacroConfig(seed=seed))
            for seed in range(cells)
        ),
    )


def measure() -> Dict[Tuple[int, int], float]:
    """``{(jobs, cells): best wall ms per cell}``."""
    out = {}
    for cells in SIZES:
        campaign = noop_campaign(cells)
        for jobs in JOBS:
            best = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                report = run_campaign(campaign, jobs=jobs, cell_fn=noop_cell)
                best = min(best, time.perf_counter() - start)
                assert len(report.completed) == cells
            out[(jobs, cells)] = 1000.0 * best / cells
    return out


def render(result: Dict[Tuple[int, int], float]) -> str:
    lines = ["jobs  " + "  ".join(f"{cells:>5d} cells" for cells in SIZES)]
    for jobs in JOBS:
        lines.append(
            f"{jobs:>4d}  "
            + "  ".join(f"{result[(jobs, c)]:>8.2f} ms" for c in SIZES)
        )
    return "\n".join(lines)


def test_campaign_overhead(benchmark):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    print("\n" + render(result))
    for (jobs, cells), ms in result.items():
        benchmark.extra_info[f"jobs{jobs}_cells{cells}_ms_per_cell"] = round(
            ms, 3
        )
    small, large = (result[(1, cells)] for cells in SIZES)
    assert max(small, large) <= 1.0
    assert abs(large - small) <= 0.2 * small


if __name__ == "__main__":
    print(render(measure()))
