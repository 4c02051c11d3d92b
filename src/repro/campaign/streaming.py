"""Fixed-memory aggregation of campaign cell payloads.

:class:`CampaignAggregate` is the one campaign aggregator: cells fold
in one at a time and are never retained, so its memory is bounded by
the number of *distinct groups and metric names*, not the number of
cells.

Determinism contract (what makes resumed/distributed runs testable):

* **Fold order is cell-index order**, always.  Float addition is not
  associative, so "any completion order" cannot be byte-identical; the
  supervisor only ever folds the next unfolded index, and completions
  that land early wait on disk (done marker + result blob) — the queue
  directory is the reorder buffer.
* **The payload excludes run-shaped facts.**  ``ok`` and ``cached``
  both count as completed, and attempts / wall seconds / worker ids
  never enter the aggregate — so an uninterrupted run, a killed-then-
  resumed run, and a two-worker distributed run of the same grid emit
  byte-identical aggregate payloads (``canonical_json`` of
  :meth:`payload`).
* Group statistics are one mergeable
  :class:`~repro.telemetry.timeseries.QuantileSketch` each (exact
  count/sum/min/max plus tails), and
  per-cell metric registries fold through
  :class:`~repro.telemetry.registry.SnapshotAccumulator` — the same
  arithmetic ``merge_snapshots`` uses for batch merging.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigError
from repro.telemetry.registry import SnapshotAccumulator
from repro.telemetry.timeseries import QuantileSketch

__all__ = ["CampaignAggregate", "StreamingStat"]


class StreamingStat:
    """One series: a :class:`QuantileSketch` plus its Welford spread.

    The sketch carries the exact count/sum/min/max; its mean is ``sum /
    count`` with the sum accumulated in fold order, so two folds that
    see the same values in the same order produce the same float — the
    building block of the byte-identity guarantee.  The spread
    (:attr:`stdev`) is kept for rendered reports only and is not part of
    :meth:`as_dict`.
    """

    __slots__ = ("sketch", "_mean", "_m2")

    def __init__(self) -> None:
        self.sketch = QuantileSketch()
        self._mean = 0.0  # Welford running mean / sum of squared deviations
        self._m2 = 0.0

    def add(self, value: float) -> None:
        self.sketch.add(value)
        delta = value - self._mean
        self._mean += delta / self.sketch.count
        self._m2 += delta * (value - self._mean)

    @property
    def stdev(self) -> float:
        """Sample standard deviation (0 for fewer than two values)."""
        count = self.sketch.count
        if count < 2:
            return 0.0
        return math.sqrt(self._m2 / (count - 1))

    def as_dict(self) -> Dict[str, float]:
        return self.sketch.summary()


def _group_key(network_policy: str, load: float) -> str:
    # repr() round-trips the float exactly, so the key is collision-free
    # and stable across runs (JSON object keys must be strings).
    return f"{network_policy}|{load!r}"


class CampaignAggregate:
    """Campaign-level fold of per-cell payloads, in strict index order.

    Memory is ``O(groups + metric names)`` regardless of campaign size.
    """

    def __init__(self, campaign: str, cells: int) -> None:
        if cells < 1:
            raise ConfigError("campaign aggregate needs at least one cell")
        self.campaign = campaign
        self.cells = cells
        self._next = 0
        self._completed = 0
        self._failed_cells: List[int] = []
        self._grid: Dict[str, Dict[str, StreamingStat]] = {}
        self._blame: Dict[str, Dict[str, Dict[str, StreamingStat]]] = {}
        self._metrics = SnapshotAccumulator()

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    @property
    def folded(self) -> int:
        """Cells folded so far (contiguous prefix of the index space)."""
        return self._next

    def fold(
        self, index: int, status: str, payload: Optional[Dict[str, object]]
    ) -> None:
        """Fold the next cell; ``index`` must be exactly ``folded``."""
        if index >= self.cells:
            raise ConfigError(
                f"cell index {index} outside campaign of {self.cells} cells"
            )
        if index != self._next:
            raise ConfigError(
                f"campaign fold is index-ordered: expected cell "
                f"{self._next}, got {index}"
            )
        if status not in ("ok", "cached", "failed"):
            raise ConfigError(f"cell {index} has unknown status {status!r}")
        self._next += 1
        if status == "failed" or payload is None:
            self._failed_cells.append(index)
            return
        self._completed += 1
        per_placement = payload.get("per_placement")
        if isinstance(per_placement, dict):
            key = _group_key(payload["network_policy"], payload["load"])
            group = self._grid.setdefault(key, {})
            blame_group = self._blame.setdefault(key, {})
            for name in sorted(per_placement):
                stats = per_placement[name]
                if not isinstance(stats, dict):
                    continue
                gap = stats.get("average_gap")
                if gap is not None:
                    group.setdefault(name, StreamingStat()).add(gap)
                blame = stats.get("blame")
                if isinstance(blame, dict):
                    components = blame_group.setdefault(name, {})
                    for component in sorted(blame):
                        share = blame[component]
                        if isinstance(share, dict) and "mean" in share:
                            components.setdefault(
                                component, StreamingStat()
                            ).add(share["mean"])
        metrics = payload.get("metrics")
        if isinstance(metrics, dict):
            self._metrics.add(metrics)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def rows(
        self,
    ) -> Iterator[
        Tuple[str, float, str, StreamingStat, Dict[str, StreamingStat]]
    ]:
        """``(network policy, load, placement, gap stat, blame stats by
        component)`` per grid group and placement, sorted, for rendering
        (the live stats carry the spread that :meth:`payload` omits)."""
        groups = []
        for key in self._grid:
            net, _, load = key.partition("|")
            groups.append((net, float(load), key))
        for net, load, key in sorted(groups):
            blame = self._blame.get(key, {})
            for name, stat in sorted(self._grid[key].items()):
                yield net, load, name, stat, blame.get(name, {})

    def metrics(self) -> Dict[str, object]:
        """All per-cell metric registries folded into one snapshot."""
        return self._metrics.as_dict()

    def payload(self) -> Dict[str, object]:
        """The campaign-level aggregate as a canonical-JSON-safe dict.

        Deliberately excludes everything that varies between an
        uninterrupted run and a resumed one (ok-vs-cached split,
        attempts, wall clock, worker identities): completed cells count
        as completed however their result reached the fold.
        """
        return {
            "campaign": self.campaign,
            "cells": self.cells,
            "folded": self._next,
            "completed": self._completed,
            "failed": len(self._failed_cells),
            "failed_cells": list(self._failed_cells),
            "grid": {
                key: {
                    name: stat.as_dict()
                    for name, stat in sorted(group.items())
                }
                for key, group in sorted(self._grid.items())
            },
            "blame": {
                key: {
                    name: {
                        component: stat.as_dict()
                        for component, stat in sorted(components.items())
                    }
                    for name, components in sorted(group.items())
                }
                for key, group in sorted(self._blame.items())
                if group
            },
            "metrics": self.metrics(),
        }
