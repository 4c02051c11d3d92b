"""Streaming placement-service throughput and latency benchmarks.

Runs one deterministic `PlacementServer` session (open-loop Poisson
arrivals into batched NEAT placement) and prints the wall-clock service
metrics: placement decisions per wall second and the p50/p99 per-request
decision wall latency.

The simulated outcome (decision count, batch count, queue stats) is
seed-deterministic, so the throughput test also asserts the determinism
contract before timing anything; only the wall-clock fields vary between
runs.  Comparable host-time numbers live in ``benchmarks/e2e``.
"""

from __future__ import annotations

import time

import pytest

from common import FULL, emit
from repro.service import PlacementServer, ServiceScenario


def service_scenario(**overrides) -> ServiceScenario:
    defaults = dict(
        name="bench-service",
        pods=2,
        racks_per_pod=2,
        hosts_per_rack=10 if FULL else 4,
        workload="websearch",
        duration=20.0 if FULL else 5.0,
        seed=42,
        arrivals={"kind": "poisson", "load": 0.6},
        network_policy="fair",
        predictor="fair",
    )
    defaults.update(overrides)
    return ServiceScenario(**defaults)


def test_service_placement_throughput(benchmark):
    """Placements per wall second for a batched serving session."""
    scenario = service_scenario()

    def run_session():
        return PlacementServer(scenario).run()

    first = run_session()
    second = run_session()
    # Deterministic contract: identical sim-side report, twice.
    assert first.to_dict() == second.to_dict()
    assert first.decisions > 0 and first.batches > 0

    report = benchmark.pedantic(run_session, rounds=3, iterations=1)

    # One dedicated timed run for the printed report.
    start = time.perf_counter()
    report = run_session()
    wall = time.perf_counter() - start
    assert report.placements_per_second > 0

    emit(
        "service placement throughput",
        f"decisions={report.decisions} batches={report.batches} "
        f"wall={wall:.3f}s "
        f"placements/s={report.placements_per_second:.0f}",
    )


def test_service_decision_latency(benchmark):
    """p99 per-request decision wall latency of the batched server."""
    scenario = service_scenario()

    def run_session():
        return PlacementServer(scenario).run()

    report = benchmark.pedantic(run_session, rounds=3, iterations=1)
    assert report.decisions > 0
    p99 = report.decision_latency["p99"]
    assert p99 > 0

    emit(
        "service decision latency",
        f"p50={report.decision_latency['p50'] * 1e6:.1f}us "
        f"p99={p99 * 1e6:.1f}us over {report.decisions} decisions",
    )
