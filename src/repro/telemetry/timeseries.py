"""Fixed-memory windowed rollups: quantile sketches and a rollup store.

The live observability layer needs distribution summaries *while* a
session runs, at stream scale, without holding raw samples.  Two pieces
provide that:

* :class:`QuantileSketch` — a deterministic, mergeable, log-bucketed
  quantile sketch (DDSketch-family).  A value ``v`` lands in bucket
  ``ceil(log_gamma(v))`` with ``gamma = (1+alpha)/(1-alpha)``, which
  bounds the *relative* quantile error by ``alpha`` (default 1%).
  Memory is fixed: when the bucket map outgrows ``max_buckets`` the
  lowest-quantile buckets collapse together (tail accuracy is
  preserved, which is the end SLOs watch).  Sketches merge by bucket
  addition, so per-worker / per-bin sketches fold into window or
  campaign summaries exactly once.
* :class:`TimeseriesStore` — a ring of fixed-width **sim-time** bins
  over the metrics registry: counters roll up as per-bin deltas
  (windowed rates), gauges as per-bin last/max, histograms as per-bin
  *delta sketches* (the difference of two cumulative sketches is a
  sketch, since buckets only ever grow).  The store is pull-based: the
  service heartbeat (or campaign supervisor) calls :meth:`sample`
  and every window query — rate, windowed quantile, bad-event
  fraction — reads only the bins the window covers.

Determinism contract: everything here is keyed by simulated time and
derived from deterministic metric streams, so rollups, window queries,
and serialized stores are byte-identical across same-(seed, scenario)
runs.  Sampling never mutates the registry; enabling a store changes
no simulation records.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "QuantileSketch",
    "TimeseriesStore",
    "merge_sketches",
    "merge_rollups",
    "DEFAULT_ALPHA",
    "DEFAULT_MAX_BUCKETS",
]

#: Default relative accuracy of the sketch (1% quantile error).
DEFAULT_ALPHA = 0.01

#: Default bucket-map capacity before low-quantile collapsing kicks in.
#: 512 buckets at alpha=0.01 span ~4.4 decades of positive values.
DEFAULT_MAX_BUCKETS = 512

#: Values with magnitude at or below this land in the zero bucket.
_MIN_MAGNITUDE = 1e-12


class QuantileSketch:
    """Deterministic mergeable log-bucketed quantile sketch.

    Supports negative values via a mirrored bucket map; exact ``count``,
    ``sum``, ``min`` and ``max`` ride alongside the buckets, and quantile
    estimates are clamped into ``[min, max]`` so single-value and
    two-value sketches answer exactly.
    """

    __slots__ = (
        "alpha",
        "max_buckets",
        "count",
        "total",
        "min",
        "max",
        "_zero",
        "_pos",
        "_neg",
        "_gamma",
        "_log_gamma",
    )

    def __init__(
        self,
        *,
        alpha: float = DEFAULT_ALPHA,
        max_buckets: int = DEFAULT_MAX_BUCKETS,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
        if max_buckets < 2:
            raise ValueError(f"max_buckets must be >= 2, got {max_buckets!r}")
        self.alpha = alpha
        self.max_buckets = max_buckets
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._zero = 0
        self._pos: Dict[int, int] = {}
        self._neg: Dict[int, int] = {}
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _key(self, magnitude: float) -> int:
        return math.ceil(math.log(magnitude) / self._log_gamma)

    def add(self, value: float, count: int = 1) -> None:
        """Record ``value`` (``count`` times)."""
        if count <= 0:
            return
        self.count += count
        self.total += value * count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > _MIN_MAGNITUDE:
            key = self._key(value)
            self._pos[key] = self._pos.get(key, 0) + count
        elif value < -_MIN_MAGNITUDE:
            key = self._key(-value)
            self._neg[key] = self._neg.get(key, 0) + count
        else:
            self._zero += count
        self._collapse()

    def _collapse(self) -> None:
        """Fold lowest-quantile buckets together above ``max_buckets``.

        The low end is the least interesting to a tail SLO, so accuracy
        is sacrificed there: the most-negative bucket folds downward in
        the mirrored map, then the smallest positive buckets fold
        upward.  Deterministic given identical insertion history.
        """
        while len(self._pos) + len(self._neg) > self.max_buckets:
            if self._neg:
                keys = sorted(self._neg)
                # Most negative value = largest mirrored key.
                worst = keys[-1]
                if len(keys) > 1:
                    into = keys[-2]
                    self._neg[into] += self._neg.pop(worst)
                else:
                    # Lone negative bucket: fold into the zero bucket.
                    self._zero += self._neg.pop(worst)
            else:
                keys = sorted(self._pos)
                lowest = keys[0]
                into = keys[1]
                self._pos[into] += self._pos.pop(lowest)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _representative(self, key: int) -> float:
        # Geometric midpoint of (gamma^(key-1), gamma^key]: relative
        # error vs any member value is at most alpha.
        return 2.0 * self._gamma**key / (self._gamma + 1.0)

    def _ordered(self) -> Iterable[Tuple[float, int]]:
        """(representative value, count) in ascending value order."""
        for key in sorted(self._neg, reverse=True):
            yield -self._representative(key), self._neg[key]
        if self._zero:
            yield 0.0, self._zero
        for key in sorted(self._pos):
            yield self._representative(key), self._pos[key]

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 when the sketch is empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        # Nearest-rank (higher) convention: the smallest value whose
        # cumulative count covers ceil(q * n) observations.  For tiny n
        # this biases toward the tail (p99 of two samples is the max),
        # matching what an SLO on a sparse window should see.
        rank = max(1, math.ceil(q * self.count))
        # Rank 1 and rank n are the exact extremes we carry anyway.
        if rank >= self.count:
            return self.max
        if rank == 1:
            return self.min
        seen = 0
        for value, count in self._ordered():
            seen += count
            if seen >= rank:
                return min(max(value, self.min), self.max)
        return self.max  # pragma: no cover - rank <= count always hits

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        """Exact count / mean / min / max plus the tail estimates: the
        one spelling every serialized distribution (registry histograms,
        campaign group statistics) shares."""
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.total / self.count,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def count_le(self, threshold: float) -> int:
        """Observations at or below ``threshold`` (bucket granularity)."""
        if self.count == 0:
            return 0
        if threshold >= self.max:
            return self.count
        if threshold < self.min:
            return 0
        seen = 0
        for value, count in self._ordered():
            if value > threshold:
                break
            seen += count
        return seen

    def bad_fraction(self, threshold: float) -> float:
        """Fraction of observations strictly above ``threshold``."""
        if self.count == 0:
            return 0.0
        return 1.0 - self.count_le(threshold) / self.count

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, bounds ascending.

        The Prometheus ``_bucket`` series: each pair counts observations
        at or below the bound; the implicit ``+Inf`` bucket is
        :attr:`count`.
        """
        pairs: List[Tuple[float, int]] = []
        cumulative = 0
        for key in sorted(self._neg, reverse=True):
            cumulative += self._neg[key]
            # Bucket holds values in [-gamma^key, -gamma^(key-1)).
            pairs.append((-(self._gamma ** (key - 1)), cumulative))
        if self._zero:
            cumulative += self._zero
            pairs.append((_MIN_MAGNITUDE, cumulative))
        for key in sorted(self._pos):
            cumulative += self._pos[key]
            pairs.append((self._gamma**key, cumulative))
        return pairs

    # ------------------------------------------------------------------
    # Merging and deltas
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "QuantileSketch") -> None:
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot combine sketches with alpha {self.alpha} "
                f"and {other.alpha}"
            )

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (bucketwise addition)."""
        self._check_compatible(other)
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        self._zero += other._zero
        for key, count in other._pos.items():
            self._pos[key] = self._pos.get(key, 0) + count
        for key, count in other._neg.items():
            self._neg[key] = self._neg.get(key, 0) + count
        self._collapse()

    def copy(self) -> "QuantileSketch":
        clone = QuantileSketch(alpha=self.alpha, max_buckets=self.max_buckets)
        clone.merge(self)
        return clone

    def delta(self, earlier: "QuantileSketch") -> "QuantileSketch":
        """The sketch of observations made since ``earlier``.

        ``earlier`` must be a previous state of the *same* series
        (buckets only grow); counts are clamped at zero so a collapse
        between the two states degrades gracefully instead of going
        negative.
        """
        self._check_compatible(earlier)
        out = QuantileSketch(alpha=self.alpha, max_buckets=self.max_buckets)
        out.count = max(self.count - earlier.count, 0)
        out.total = self.total - earlier.total
        out._zero = max(self._zero - earlier._zero, 0)
        for key, count in self._pos.items():
            diff = count - earlier._pos.get(key, 0)
            if diff > 0:
                out._pos[key] = diff
        for key, count in self._neg.items():
            diff = count - earlier._neg.get(key, 0)
            if diff > 0:
                out._neg[key] = diff
        if out.count:
            # Exact extrema of the window are unknowable from cumulative
            # state; bucket representatives bound them within alpha.
            values = [v for v, _ in out._ordered()]
            out.min = values[0]
            out.max = values[-1]
        return out

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "alpha": self.alpha,
            "max_buckets": self.max_buckets,
            "count": self.count,
            "sum": self.total,
        }
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
        if self._zero:
            out["zero"] = self._zero
        if self._pos:
            out["pos"] = {str(k): v for k, v in sorted(self._pos.items())}
        if self._neg:
            out["neg"] = {str(k): v for k, v in sorted(self._neg.items())}
        return out

    @classmethod
    def from_dict(cls, spec: Dict[str, object]) -> "QuantileSketch":
        sketch = cls(
            alpha=float(spec.get("alpha", DEFAULT_ALPHA)),
            max_buckets=int(spec.get("max_buckets", DEFAULT_MAX_BUCKETS)),
        )
        sketch.count = int(spec.get("count", 0))
        sketch.total = float(spec.get("sum", 0.0))
        if sketch.count:
            sketch.min = float(spec["min"])  # type: ignore[arg-type]
            sketch.max = float(spec["max"])  # type: ignore[arg-type]
        sketch._zero = int(spec.get("zero", 0))
        sketch._pos = {int(k): int(v) for k, v in spec.get("pos", {}).items()}  # type: ignore[union-attr]
        sketch._neg = {int(k): int(v) for k, v in spec.get("neg", {}).items()}  # type: ignore[union-attr]
        return sketch

    def __len__(self) -> int:
        return len(self._pos) + len(self._neg) + (1 if self._zero else 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileSketch(count={self.count}, buckets={len(self)}, "
            f"alpha={self.alpha})"
        )


def merge_sketches(sketches: Iterable[QuantileSketch]) -> QuantileSketch:
    """Fold several sketches into a fresh one (empty sketch for none)."""
    out: Optional[QuantileSketch] = None
    for sketch in sketches:
        if out is None:
            out = QuantileSketch(
                alpha=sketch.alpha, max_buckets=sketch.max_buckets
            )
        out.merge(sketch)
    return out if out is not None else QuantileSketch()


# ----------------------------------------------------------------------
# Windowed rollups
# ----------------------------------------------------------------------
class TimeseriesStore:
    """Ring of fixed-width sim-time bins over a metrics registry.

    Args:
        bin_width: bin granularity in simulated seconds (the service
            samples once per heartbeat, so heartbeat-interval bins lose
            nothing).
        bins: ring capacity; memory is ``O(series x bins)`` regardless
            of session length.  The slowest SLO window must fit inside
            ``bin_width * bins``.
    """

    def __init__(self, *, bin_width: float = 1.0, bins: int = 600) -> None:
        if bin_width <= 0:
            raise ValueError(f"bin_width must be positive, got {bin_width!r}")
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins!r}")
        self.bin_width = float(bin_width)
        self.bins = int(bins)
        self._counter_bins: Dict[str, Dict[int, float]] = {}
        self._counter_prev: Dict[str, float] = {}
        self._gauge_bins: Dict[str, Dict[int, Tuple[float, float]]] = {}
        self._hist_bins: Dict[str, Dict[int, QuantileSketch]] = {}
        self._hist_prev: Dict[str, QuantileSketch] = {}
        self._last_sample: Optional[float] = None
        self._samples = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def last_sample(self) -> Optional[float]:
        """Sim time of the most recent :meth:`sample` (None before any)."""
        return self._last_sample

    @property
    def samples(self) -> int:
        return self._samples

    @property
    def span(self) -> float:
        """The widest window the ring can answer, in sim seconds."""
        return self.bin_width * self.bins

    def series_names(self) -> Dict[str, List[str]]:
        return {
            "counters": sorted(self._counter_bins),
            "gauges": sorted(self._gauge_bins),
            "histograms": sorted(self._hist_bins),
        }

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _bin(self, now: float) -> int:
        return int(now // self.bin_width)

    def _trim(self, series: Dict[str, Dict[int, object]], current: int) -> None:
        floor = current - self.bins + 1
        for bins in series.values():
            if len(bins) > self.bins:
                for index in [i for i in bins if i < floor]:
                    del bins[index]

    def record_counter(self, now: float, name: str, delta: float) -> None:
        """Record ``delta`` new events on counter ``name`` at ``now``."""
        if delta == 0:
            return
        index = self._bin(now)
        bins = self._counter_bins.setdefault(name, {})
        bins[index] = bins.get(index, 0.0) + delta
        self._trim(self._counter_bins, index)  # type: ignore[arg-type]

    def record_gauge(self, now: float, name: str, value: float) -> None:
        index = self._bin(now)
        bins = self._gauge_bins.setdefault(name, {})
        last, peak = bins.get(index, (value, value))
        bins[index] = (value, max(peak, value))
        self._trim(self._gauge_bins, index)  # type: ignore[arg-type]

    def record_sketch(
        self, now: float, name: str, delta: QuantileSketch
    ) -> None:
        """Merge a window's worth of observations into ``name``'s bin."""
        if delta.count == 0:
            return
        index = self._bin(now)
        bins = self._hist_bins.setdefault(name, {})
        existing = bins.get(index)
        if existing is None:
            bins[index] = delta.copy()
        else:
            existing.merge(delta)
        self._trim(self._hist_bins, index)  # type: ignore[arg-type]

    def sample(self, now: float, registry) -> None:
        """Roll the registry's current cumulative state into the ring.

        Counters record their delta since the previous sample into the
        bin at ``now``; gauges record last/max; histograms record the
        delta sketch.  Purely read-only on the registry.
        """
        for name, counter in registry.counters_by_name().items():
            previous = self._counter_prev.get(name, 0.0)
            if counter.value != previous:
                self.record_counter(now, name, counter.value - previous)
                self._counter_prev[name] = counter.value
        for name, gauge in registry.gauges_by_name().items():
            self.record_gauge(now, name, gauge.value)
        for name, sketch in registry.histograms_by_name().items():
            previous = self._hist_prev.get(name)
            if previous is None:
                delta = sketch.copy()
            else:
                delta = sketch.delta(previous)
            if delta.count:
                self.record_sketch(now, name, delta)
                self._hist_prev[name] = sketch.copy()
        self._last_sample = now
        self._samples += 1

    # ------------------------------------------------------------------
    # Window queries
    # ------------------------------------------------------------------
    def _window_indices(self, window: float, now: float) -> range:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window!r}")
        end = self._bin(now)
        start = self._bin(max(now - window, 0.0))
        if now - window > 0:
            start += 1  # the start bin is only partially covered: skip it
        return range(min(start, end), end + 1)

    def counter_delta(self, name: str, *, window: float, now: float) -> float:
        """Total counter increase inside the window."""
        bins = self._counter_bins.get(name)
        if not bins:
            return 0.0
        return sum(bins.get(i, 0.0) for i in self._window_indices(window, now))

    def rate(self, name: str, *, window: float, now: float) -> float:
        """Events per sim second over the window."""
        covered = min(window, now) if now > 0 else window
        if covered <= 0:
            return 0.0
        return self.counter_delta(name, window=window, now=now) / covered

    def gauge_last(self, name: str, *, now: float) -> Optional[float]:
        bins = self._gauge_bins.get(name)
        if not bins:
            return None
        visible = [i for i in bins if i <= self._bin(now)]
        if not visible:
            return None
        return bins[max(visible)][0]

    def gauge_max(self, name: str, *, window: float, now: float) -> Optional[float]:
        bins = self._gauge_bins.get(name)
        if not bins:
            return None
        peaks = [
            bins[i][1] for i in self._window_indices(window, now) if i in bins
        ]
        return max(peaks) if peaks else None

    def window_sketch(
        self, name: str, *, window: float, now: float
    ) -> QuantileSketch:
        """Merged sketch of every observation inside the window."""
        bins = self._hist_bins.get(name)
        if not bins:
            return QuantileSketch()
        return merge_sketches(
            bins[i] for i in self._window_indices(window, now) if i in bins
        )

    def quantile(
        self, name: str, q: float, *, window: float, now: float
    ) -> Optional[float]:
        sketch = self.window_sketch(name, window=window, now=now)
        if sketch.count == 0:
            return None
        return sketch.quantile(q)

    def bad_fraction(
        self, name: str, threshold: float, *, window: float, now: float
    ) -> Optional[float]:
        """Fraction of the window's observations above ``threshold``."""
        sketch = self.window_sketch(name, window=window, now=now)
        if sketch.count == 0:
            return None
        return sketch.bad_fraction(threshold)

    # ------------------------------------------------------------------
    # Serialization and merging
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "bin_width": self.bin_width,
            "bins": self.bins,
            "last_sample": self._last_sample,
            "samples": self._samples,
            "counters": {
                name: {str(i): v for i, v in sorted(bins.items())}
                for name, bins in sorted(self._counter_bins.items())
            },
            "gauges": {
                name: {str(i): list(pair) for i, pair in sorted(bins.items())}
                for name, bins in sorted(self._gauge_bins.items())
            },
            "histograms": {
                name: {
                    str(i): sketch.to_dict()
                    for i, sketch in sorted(bins.items())
                }
                for name, bins in sorted(self._hist_bins.items())
            },
        }

    @classmethod
    def from_dict(cls, spec: Dict[str, object]) -> "TimeseriesStore":
        store = cls(
            bin_width=float(spec.get("bin_width", 1.0)),
            bins=int(spec.get("bins", 600)),
        )
        store._last_sample = spec.get("last_sample")  # type: ignore[assignment]
        store._samples = int(spec.get("samples", 0))
        for name, bins in spec.get("counters", {}).items():  # type: ignore[union-attr]
            store._counter_bins[name] = {
                int(i): float(v) for i, v in bins.items()
            }
        for name, bins in spec.get("gauges", {}).items():  # type: ignore[union-attr]
            store._gauge_bins[name] = {
                int(i): (float(pair[0]), float(pair[1]))
                for i, pair in bins.items()
            }
        for name, bins in spec.get("histograms", {}).items():  # type: ignore[union-attr]
            store._hist_bins[name] = {
                int(i): QuantileSketch.from_dict(sketch)
                for i, sketch in bins.items()
            }
        return store


def merge_rollups(stores: Iterable["TimeseriesStore"]) -> "TimeseriesStore":
    """Fold per-worker rollup stores into one campaign-level store.

    Bins align by absolute sim-time index, so workers that sampled the
    same simulated window land in the same bin: counters add, gauge
    last/max take the maximum (cross-worker "last" is meaningless, the
    peak is what an SLO cares about), sketches merge.  Bin width must
    agree; the widest ring wins.
    """
    stores = list(stores)
    if not stores:
        return TimeseriesStore()
    widths = {s.bin_width for s in stores}
    if len(widths) > 1:
        raise ValueError(
            f"cannot merge rollups with different bin widths: {sorted(widths)}"
        )
    out = TimeseriesStore(
        bin_width=stores[0].bin_width, bins=max(s.bins for s in stores)
    )
    for store in stores:
        for name, bins in store._counter_bins.items():
            into = out._counter_bins.setdefault(name, {})
            for index, value in bins.items():
                into[index] = into.get(index, 0.0) + value
        for name, bins in store._gauge_bins.items():
            into = out._gauge_bins.setdefault(name, {})
            for index, (last, peak) in bins.items():
                prev = into.get(index)
                if prev is None:
                    into[index] = (last, peak)
                else:
                    into[index] = (max(prev[0], last), max(prev[1], peak))
        for name, bins in store._hist_bins.items():
            into = out._hist_bins.setdefault(name, {})
            for index, sketch in bins.items():
                existing = into.get(index)
                if existing is None:
                    into[index] = sketch.copy()
                else:
                    existing.merge(sketch)
        if store._last_sample is not None and (
            out._last_sample is None or store._last_sample > out._last_sample
        ):
            out._last_sample = store._last_sample
        out._samples += store._samples
    return out
