"""Summary statistics over FCT/CCT records.

The paper reports *gap from optimal* — ``(FCT - FCT_opt)/FCT_opt``, i.e.
slowdown minus one — per flow-size bin, plus averages (AFCT / average CCT).
These helpers are shared by every experiment and benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigError


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (raises on empty input), summed left from int 0 so
    that no interpreter's float ``sum`` changes it."""
    if not values:
        raise ConfigError("mean of empty sequence")
    total = 0
    for value in values:
        total += value
    return total / len(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    if not values:
        raise ConfigError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ConfigError(f"percentile q must be in [0,100], got {q!r}")
    ordered = sorted(values)
    rank = (q / 100) * (len(ordered) - 1)
    lower = int(math.floor(rank))
    upper = int(math.ceil(rank))
    if lower == upper:
        return ordered[lower]
    frac = rank - lower
    return ordered[lower] * (1 - frac) + ordered[upper] * frac


def afct(records) -> float:
    """Average flow (or coflow) completion time in seconds."""
    return mean([r.fct if hasattr(r, "fct") else r.cct for r in records])


def average_gap(records) -> float:
    """Mean gap-from-optimal over records with a positive optimum."""
    gaps = [r.gap_from_optimal for r in records if _optimal_of(r) > 0]
    if not gaps:
        return 0.0
    return mean(gaps)


def average_slowdown(records) -> float:
    """Mean slowdown (stretch) over records with a positive optimum."""
    return average_gap(records) + 1.0


def _optimal_of(record) -> float:
    return getattr(record, "optimal_fct", None) or getattr(
        record, "optimal_cct", 0.0
    ) or 0.0


def _size_of(record) -> float:
    return getattr(record, "size", None) or getattr(record, "total_size")


def _completion_of(record) -> float:
    return record.fct if hasattr(record, "fct") else record.cct


@dataclass(frozen=True)
class BinSummary:
    """Aggregated statistics for one flow-size bin."""

    lower: float
    upper: float
    count: int
    mean_fct: float
    mean_gap: float
    p95_gap: float

    @property
    def label(self) -> str:
        from repro.units import format_bits

        upper = "inf" if self.upper == float("inf") else format_bits(self.upper)
        return f"[{format_bits(self.lower)}, {upper})"


def log_bins(min_size: float, max_size: float, count: int) -> Tuple[float, ...]:
    """Geometric bin boundaries for size-binned reporting."""
    if count < 1 or not 0 < min_size < max_size:
        raise ConfigError("invalid bin specification")
    ratio = (max_size / min_size) ** (1.0 / count)
    bounds = [min_size * ratio ** i for i in range(count)]
    return (0.0, *bounds[1:], float("inf"))


def summarize_by_size(
    records,
    boundaries: Optional[Sequence[float]] = None,
    *,
    num_bins: int = 8,
) -> List[BinSummary]:
    """Group records into size bins and summarise each.

    When ``boundaries`` is omitted, geometric bins spanning the observed
    sizes are used.  Records on links with zero optimal time (host-local)
    are excluded from gap statistics but counted.
    """
    records = list(records)
    if not records:
        return []
    if boundaries is None:
        sizes = [_size_of(r) for r in records]
        lo, hi = min(sizes), max(sizes)
        if hi <= lo:
            hi = lo * 2
        boundaries = log_bins(lo * 0.999, hi * 1.001, num_bins)
    summaries: List[BinSummary] = []
    for lower, upper in zip(boundaries, boundaries[1:]):
        members = [r for r in records if lower <= _size_of(r) < upper]
        if not members:
            continue
        gaps = [m.gap_from_optimal for m in members if _optimal_of(m) > 0]
        fcts = [_completion_of(m) for m in members]
        summaries.append(
            BinSummary(
                lower=lower,
                upper=upper,
                count=len(members),
                mean_fct=mean(fcts),
                mean_gap=mean(gaps) if gaps else 0.0,
                p95_gap=percentile(gaps, 95) if gaps else 0.0,
            )
        )
    return summaries
