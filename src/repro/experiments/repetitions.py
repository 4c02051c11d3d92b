"""Multi-seed repetition helpers: spread and tails across trace seeds.

One trace is one sample from the workload distribution; claims like
"NEAT is 2x better" deserve error bars — and the related
cluster-scheduling literature reports *tail* latency, so
:class:`Aggregate` carries p50/p95/p99 alongside mean ± stdev.

Since the campaign layer exists, :func:`repeat_flow_macro` is a thin
declarative front-end over it: each seed is one
:class:`~repro.campaign.spec.RunSpec` cell, executed through
:func:`~repro.campaign.executor.run_campaign` — in-process by default,
on supervised worker processes with ``jobs > 1``, and against the
content-addressed cache when ``cache`` is given.  Per-seed results come
back as :class:`~repro.campaign.report.MacroSummary` adapters, which
share the ``average_gaps`` / ``improvement_over`` surface of
:class:`~repro.experiments.figures.MacroOutcome`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigError
from repro.experiments.config import MacroConfig
from repro.metrics.stats import mean as left_mean, percentile


@dataclass(frozen=True)
class Aggregate:
    """Mean, spread, and tail percentiles over repetitions."""

    mean: float
    stdev: float
    count: int
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.stdev:.3f} (n={self.count})"

    def detailed(self) -> str:
        """One-line summary including the tail percentiles."""
        return (
            f"{self.mean:.3f} ± {self.stdev:.3f} "
            f"[p50={self.p50:.3f} p95={self.p95:.3f} p99={self.p99:.3f}] "
            f"(n={self.count})"
        )

    def as_dict(self) -> Dict[str, float]:
        """JSON-safe form (campaign payloads, BENCH artifacts)."""
        return {
            "mean": self.mean,
            "stdev": self.stdev,
            "count": self.count,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


def aggregate(values: Sequence[float]) -> Aggregate:
    """Mean ± sample stdev plus p50/p95/p99 of per-seed values."""
    if not values:
        raise ConfigError("cannot aggregate zero repetitions")
    values = list(values)
    mean = left_mean(values)  # sums folded left from int 0 (ROADMAP 9)
    if len(values) == 1:
        stdev = 0.0
    else:
        squares = 0
        for value in values:
            squares += (value - mean) ** 2
        stdev = math.sqrt(squares / (len(values) - 1))
    return Aggregate(
        mean=mean,
        stdev=stdev,
        count=len(values),
        p50=percentile(values, 50),
        p95=percentile(values, 95),
        p99=percentile(values, 99),
    )


@dataclass
class RepeatedMacro:
    """Aggregated outcome of repeated macro runs.

    ``per_seed`` entries expose the :class:`MacroOutcome` aggregate
    surface (``average_gaps`` / ``afcts`` / ``improvement_over``);
    campaign-backed runs store
    :class:`~repro.campaign.report.MacroSummary` adapters there.
    """

    network_policy: str
    per_seed: List

    def gap_aggregates(self) -> Dict[str, Aggregate]:
        """Per placement policy: mean/stdev/percentiles of the mean gap."""
        names = self.per_seed[0].average_gaps().keys()
        return {
            name: aggregate(
                [outcome.average_gaps()[name] for outcome in self.per_seed]
            )
            for name in names
        }

    def improvement_aggregate(self, baseline: str) -> Aggregate:
        """NEAT's improvement factor over ``baseline``, across seeds."""
        return aggregate(
            [outcome.improvement_over(baseline) for outcome in self.per_seed]
        )

    def neat_always_wins(self, *, tolerance: float = 1.0) -> bool:
        """True if NEAT's mean gap beats every baseline in every seed
        (up to a multiplicative tolerance)."""
        for outcome in self.per_seed:
            gaps = outcome.average_gaps()
            for name, gap in gaps.items():
                if name != "neat" and gaps["neat"] > gap * tolerance:
                    return False
        return True

    def report(self) -> str:
        """The repeated-macro report, tails included."""
        lines = [
            f"repeated macro under {self.network_policy} "
            f"({len(self.per_seed)} seeds), gap-from-optimal per placement:"
        ]
        for name, agg in sorted(self.gap_aggregates().items()):
            lines.append(f"  {name:8s} {agg.detailed()}")
        return "\n".join(lines)


def repeat_flow_macro(
    *,
    network_policy: str,
    config: MacroConfig,
    seeds: Sequence[int],
    placements: Sequence[str] = ("neat", "minload", "mindist"),
    predictor: str = "fair",
    jobs: int = 1,
    cache=None,
    timeout: Optional[float] = None,
    retries: int = 1,
    progress=None,
) -> RepeatedMacro:
    """Run one macro experiment once per seed and aggregate.

    Routed through the campaign orchestrator: ``jobs`` parallelises
    across seeds, ``cache`` (a
    :class:`~repro.campaign.cache.ResultCache`) skips already-computed
    seeds, and ``timeout``/``retries`` bound each run.  A seed whose
    cell is quarantined raises rather than silently shrinking the
    sample.
    """
    if not seeds:
        raise ConfigError("need at least one seed")
    from repro.campaign import MacroSummary, flow_grid, run_campaign

    campaign = flow_grid(
        name=f"repeat-{network_policy}",
        base_config=config,
        seeds=list(seeds),
        network_policies=(network_policy,),
        placements=tuple(placements),
        predictor=predictor,
    )
    report = run_campaign(
        campaign,
        jobs=jobs,
        cache=cache,
        timeout=timeout,
        retries=retries,
        progress=progress,
    )
    if report.quarantined:
        raise ConfigError(
            "repetition campaign lost seeds:\n" + report.failure_report()
        )
    return RepeatedMacro(
        network_policy=network_policy,
        per_seed=[MacroSummary(o.payload) for o in report.outcomes],
    )
