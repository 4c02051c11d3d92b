"""Property tests for streaming aggregation: merge laws, byte-identity,
bounded memory.

The streaming byte-identity guarantee rests on three algebraic facts,
each locked here with hypothesis:

* :class:`~repro.telemetry.registry.SnapshotAccumulator` folding
  snapshots one at a time equals :func:`merge_snapshots` on the batch —
  and over *integer-valued* metrics (exact float arithmetic within
  2**53) the merge is order-independent, so any worker completion order
  produces the same merged registry.
* :class:`~repro.telemetry.timeseries.QuantileSketch` merging is
  commutative and associative exactly (bucket counts add).
* a campaign whose cells *complete* in any permutation emits the same
  canonical aggregate bytes as a strict index-order fold — for
  arbitrary float payloads, because the supervisor only ever folds the
  next unfolded index and early completions wait in the queue directory.

Plus the scale guarantee: a >=1k-cell campaign folds under a
peak-memory bound that does not grow with the cell count.
"""

from __future__ import annotations

import tempfile
import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.campaign import (
    Campaign,
    RunSpec,
    WorkQueue,
    canonical_json,
    render_campaign_report,
    run_campaign,
)
from repro.campaign.streaming import CampaignAggregate
from repro.errors import ConfigError
from repro.experiments.config import MacroConfig
from repro.telemetry import MetricsRegistry, QuantileSketch, merge_snapshots
from repro.telemetry.registry import SnapshotAccumulator

import pytest

SETTINGS = dict(max_examples=60, deadline=None, derandomize=True)

TINY = MacroConfig(
    pods=1, racks_per_pod=2, hosts_per_rack=4,
    workload="websearch", num_arrivals=50,
)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_METRIC_NAMES = ["flows.done", "bus.rtt", "engine.events", "queue.depth"]

# Integer-valued metrics: float addition over ints (well inside 2**53)
# is exact and commutative, so merged registries must be *identical*
# under any fold order, not merely close.
_int_values = st.integers(min_value=0, max_value=10_000)


@st.composite
def _snapshots(draw):
    """One MetricsRegistry.as_dict() built from integer observations."""
    registry = MetricsRegistry()
    for name in draw(
        st.lists(st.sampled_from(_METRIC_NAMES), max_size=4, unique=True)
    ):
        # A fixed kind per name (homogeneous inputs), and the same one in
        # every process: ``hash(str)`` is salted per interpreter.
        kind = _METRIC_NAMES.index(name) % 3
        if kind == 0:
            registry.counter(name).inc(draw(_int_values))
        elif kind == 1:
            registry.gauge(name).set(draw(_int_values))
        else:
            for value in draw(
                st.lists(_int_values, min_size=1, max_size=8)
            ):
                registry.histogram(name).observe(value)
    return registry.as_dict()


_snapshot_lists = st.lists(_snapshots(), min_size=1, max_size=6)


# ----------------------------------------------------------------------
# Merge laws: registry snapshots
# ----------------------------------------------------------------------
class TestSnapshotMergeLaws:
    @given(_snapshot_lists)
    @settings(**SETTINGS)
    def test_incremental_fold_equals_batch_merge(self, snapshots):
        accumulator = SnapshotAccumulator()
        for snapshot in snapshots:
            accumulator.add(snapshot)
        assert accumulator.as_dict() == merge_snapshots(snapshots)
        assert accumulator.snapshots_folded == len(snapshots)

    @given(_snapshot_lists, st.randoms(use_true_random=False))
    @settings(**SETTINGS)
    def test_integer_merge_is_order_independent(self, snapshots, rng):
        shuffled = list(snapshots)
        rng.shuffle(shuffled)
        assert canonical_json(merge_snapshots(shuffled)) == canonical_json(
            merge_snapshots(snapshots)
        )

    def test_heterogeneous_snapshots_are_rejected(self):
        as_counter = {"counters": {"m": 1.0}}
        as_gauge = {"gauges": {"m": 1.0}}
        accumulator = SnapshotAccumulator()
        accumulator.add(as_counter)
        with pytest.raises(ValueError, match="heterogeneous"):
            accumulator.add(as_gauge)

    @given(_snapshot_lists)
    @settings(**SETTINGS)
    def test_merged_histograms_keep_exact_stats_and_quantiles(
        self, snapshots
    ):
        merged = merge_snapshots(snapshots)
        for name, summary in merged["histograms"].items():
            inputs = [
                s["histograms"][name]
                for s in snapshots
                if s.get("histograms", {}).get(name, {}).get("count")
            ]
            assert summary["count"] == sum(i["count"] for i in inputs)
            assert summary["min"] == min(i["min"] for i in inputs)
            assert summary["max"] == max(i["max"] for i in inputs)
            # Every registry summary carries a sketch, so the merged one
            # must keep the quantiles.
            assert "p95" in summary and "sketch" in summary


# ----------------------------------------------------------------------
# Merge laws: quantile sketches
# ----------------------------------------------------------------------
class TestSketchMergeLaws:
    @given(
        st.lists(
            st.lists(_int_values, min_size=1, max_size=20),
            min_size=2,
            max_size=5,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(**SETTINGS)
    def test_sketch_merge_is_order_independent(self, batches, rng):
        def merged(order):
            out = QuantileSketch()
            for batch in order:
                part = QuantileSketch()
                for value in batch:
                    part.add(value)
                out.merge(part)
            return out.to_dict()

        shuffled = list(batches)
        rng.shuffle(shuffled)
        assert merged(shuffled) == merged(batches)

    @given(st.lists(_int_values, min_size=1, max_size=30))
    @settings(**SETTINGS)
    def test_merge_into_empty_is_an_exact_copy(self, values):
        one = QuantileSketch()
        for value in values:
            one.add(value)
        empty = QuantileSketch()
        empty.merge(one)
        assert empty.to_dict() == one.to_dict()


# ----------------------------------------------------------------------
# Streaming campaign aggregate: permutation-invariance, exactness
# ----------------------------------------------------------------------
_gaps = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def _cell_payloads(draw):
    """(status, payload) for one synthetic flow-macro cell."""
    status = draw(
        st.sampled_from(["ok", "ok", "ok", "cached", "failed"])
    )
    if status == "failed":
        return (status, None)
    payload = {
        "network_policy": draw(st.sampled_from(["fair", "sebf"])),
        "load": draw(st.sampled_from([0.5, 0.7, 0.9])),
        "per_placement": {
            name: {"average_gap": draw(_gaps)}
            for name in draw(
                st.lists(
                    st.sampled_from(["minload", "mindist", "neat"]),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
        },
    }
    return (status, payload)


class TestCampaignAggregate:
    @given(
        st.lists(_cell_payloads(), min_size=1, max_size=12),
        st.randoms(use_true_random=False),
    )
    @settings(**SETTINGS)
    def test_any_arrival_order_matches_index_order_exactly(
        self, cells, rng
    ):
        # Strict index-order fold: the reference.
        reference = CampaignAggregate("prop", len(cells))
        for index, (status, payload) in enumerate(cells):
            reference.fold(index, status, payload)

        # Arbitrary completion order: commit the cells to a queue in a
        # shuffled order, then let the supervisor fold what it finds.
        # Floats are arbitrary here, so equality holds only because the
        # fold waits for the index prefix to be contiguous.
        specs = tuple(
            RunSpec(kind="flow_macro", config=TINY, predictor=f"p{i}")
            for i in range(len(cells))
        )
        with tempfile.TemporaryDirectory() as directory:
            queue = WorkQueue.seed(directory, Campaign("prop", specs))
            claims = [queue.claim("w") for _ in cells]
            rng.shuffle(claims)
            for claim in claims:
                status, payload = cells[claim.index]
                if status == "cached":  # a hit: the blob predates the cell
                    queue.cache.store(claim.key, payload)
                queue.commit(claim, status, payload, error="x")
            streamed = run_campaign(jobs=1, directory=directory, resume=True)

        assert streamed.aggregate.folded == len(cells)
        assert canonical_json(streamed.aggregate_payload()) == canonical_json(
            reference.payload()
        )

    @given(st.lists(_cell_payloads(), min_size=1, max_size=8))
    @settings(**SETTINGS)
    def test_grid_means_are_exact_fold_order_sums(self, cells):
        aggregate = CampaignAggregate("prop", len(cells))
        expected = {}
        for index, (status, payload) in enumerate(cells):
            aggregate.fold(index, status, payload)
            if status == "failed":
                continue
            group = f"{payload['network_policy']}|{payload['load']!r}"
            for name, stats in payload["per_placement"].items():
                expected.setdefault((group, name), []).append(
                    stats["average_gap"]
                )
        grid = aggregate.payload()["grid"]
        for (group, name), gaps in expected.items():
            stat = grid[group][name]
            assert stat["count"] == len(gaps)
            total = 0.0
            for gap in gaps:  # same order, same float sum
                total += gap
            assert stat["mean"] == total / len(gaps)
            assert stat["min"] == min(gaps)
            assert stat["max"] == max(gaps)

    def test_duplicate_and_out_of_range_cells_are_rejected(self):
        aggregate = CampaignAggregate("dup", 2)
        with pytest.raises(ConfigError, match="index-ordered"):
            aggregate.fold(1, "ok", None)  # skips cell 0
        aggregate.fold(0, "ok", None)
        with pytest.raises(ConfigError, match="index-ordered"):
            aggregate.fold(0, "ok", None)  # twice
        aggregate.fold(1, "ok", None)
        with pytest.raises(ConfigError, match="outside campaign"):
            aggregate.fold(2, "ok", None)

    def test_render_aggregate_mentions_groups_and_failures(self):
        campaign = Campaign("demo", _thousand_cell_campaign(2).cells)
        report = run_campaign(campaign, cell_fn=_odd_seeds_fail, retries=0)
        text = render_campaign_report(report)
        assert "1/2 cells completed" in text
        assert "minload" in text and "± 0.000" in text
        assert "1 of 2 cells quarantined:" in text
        assert "cell 1 [" in text and "odd seed 1" in text


# ----------------------------------------------------------------------
# Scale: >=1k cells under a fixed memory bound
# ----------------------------------------------------------------------
def _micro_cell(spec: RunSpec) -> dict:
    seed = spec.config.seed
    return {
        "network_policy": spec.network_policy,
        "load": spec.config.load,
        "per_placement": {
            "minload": {"average_gap": 1.0 + (seed % 17) / 16.0},
            "mindist": {"average_gap": 1.5 + (seed % 13) / 12.0},
        },
    }


def _fat_cell(spec: RunSpec) -> dict:
    return dict(_micro_cell(spec), pad="x" * 32768)


def _odd_seeds_fail(spec: RunSpec) -> dict:
    if spec.config.seed % 2:
        raise ValueError(f"odd seed {spec.config.seed}")
    return _micro_cell(spec)


def _thousand_cell_campaign(cells: int) -> Campaign:
    specs = tuple(
        RunSpec(
            kind="flow_macro",
            config=MacroConfig(
                pods=1, racks_per_pod=2, hosts_per_rack=2,
                num_arrivals=1, seed=seed,
            ),
        )
        for seed in range(cells)
    )
    return Campaign(name=f"scale-{cells}", cells=specs)


class TestBoundedMemory:
    def test_streaming_thousand_cell_campaign_memory_is_flat(self):
        def peak_bytes(cells: int) -> tuple:
            campaign = _thousand_cell_campaign(cells)
            tracemalloc.start()
            try:
                report = run_campaign(campaign, jobs=1, cell_fn=_fat_cell)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return report, peak

        small_report, small_peak = peak_bytes(125)
        report, peak = peak_bytes(1000)

        payload = report.aggregate_payload()
        assert payload["cells"] == 1000
        assert payload["completed"] == 1000
        # No outcome retains its payload: it is read back on demand.
        assert report.outcomes[999].payload == _fat_cell(
            report.campaign.cells[999]
        )
        assert not any("payload" in vars(o) for o in report.outcomes)

        # Fixed-memory claim: what grows with the cell count is the
        # queue manifest and per-outcome bookkeeping (a few KiB per
        # cell), never the payloads — 875 more cells must cost far less
        # than the 28 MiB their 32 KiB payloads would if retained.
        assert peak - small_peak < 875 * 8 * 1024, (
            f"peak grew from {small_peak} to {peak} bytes"
        )
        assert peak < 32 * 1024 * 1024
