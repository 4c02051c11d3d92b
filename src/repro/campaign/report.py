"""What a campaign hands back: per-cell outcomes, the aggregate, the text.

A :class:`CampaignReport` never holds a payload.  Results live in the
campaign's result store (the content-addressed
:class:`~repro.campaign.cache.ResultCache` behind the work queue);
:attr:`CellOutcome.payload` reads one blob back on demand, and the
campaign-level numbers come from the fixed-memory
:class:`~repro.campaign.streaming.CampaignAggregate` the supervisor
folded while the cells landed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.campaign.cache import CacheStats, ResultCache
from repro.campaign.spec import Campaign, RunSpec
from repro.campaign.streaming import CampaignAggregate
from repro.errors import ConfigError


@dataclass
class CellOutcome:
    """What happened to one cell."""

    index: int
    spec: RunSpec
    status: str  # "ok" | "cached" | "failed"
    attempts: int = 0
    error: Optional[str] = None
    key: str = ""
    store: Optional[ResultCache] = field(default=None, repr=False)

    @property
    def payload(self) -> Optional[Dict[str, object]]:
        """The cell's result, read from the store now (None if failed)."""
        if self.status == "failed" or self.store is None:
            return None
        return self.store.read(self.key)


@dataclass
class CampaignReport:
    """Every cell's outcome, in cell order, plus campaign-level totals.

    ``cache_stats`` counts this run's cells by how their result was
    obtained: a hit is a cell served from the store (or finished before
    this supervisor opened the queue), a miss one that had to execute,
    a write one that executed successfully — the same numbers for every
    ``jobs`` value, because they come from the done markers.
    """

    campaign: Campaign
    outcomes: List[CellOutcome]
    jobs: int
    aggregate: CampaignAggregate
    cache_stats: CacheStats = field(default_factory=CacheStats)
    wall_seconds: float = 0.0

    @property
    def completed(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.status in ("ok", "cached")]

    @property
    def quarantined(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    def payloads(self) -> List[Optional[Dict[str, object]]]:
        """Payloads aligned with ``campaign.cells`` (None where failed),
        read from the store now."""
        return [o.payload for o in self.outcomes]

    def merged_metrics(self) -> Dict[str, object]:
        """All per-run metric registries folded into one snapshot."""
        return self.aggregate.metrics()

    def aggregate_payload(self) -> Dict[str, object]:
        """The campaign-level aggregate as a canonical dict."""
        return self.aggregate.payload()

    def failure_report(self) -> str:
        """Human-readable quarantine report (empty string when clean)."""
        bad = self.quarantined
        if not bad:
            return ""
        lines = [f"{len(bad)} of {len(self.outcomes)} cells quarantined:"]
        for o in bad:
            lines.append(
                f"  cell {o.index} [{o.spec.describe()}] after "
                f"{o.attempts} attempt(s): {o.error}"
            )
        return "\n".join(lines)


class MacroSummary:
    """A macro cell's payload wearing the ``MacroOutcome`` interface.

    Campaign workers cannot ship full flow-record lists back through the
    cache, so aggregate consumers (``repeat_flow_macro`` and friends)
    get this thin adapter over the per-placement summary statistics.
    """

    __slots__ = ("payload",)

    def __init__(self, payload: Dict[str, object]) -> None:
        if "per_placement" not in payload:
            raise ConfigError(
                "MacroSummary needs a macro cell payload "
                "(missing 'per_placement')"
            )
        self.payload = payload

    @property
    def network_policy(self) -> str:
        return self.payload["network_policy"]

    @property
    def per_placement(self) -> Dict[str, Dict[str, float]]:
        return self.payload["per_placement"]

    def average_gaps(self) -> Dict[str, float]:
        return {
            name: stats["average_gap"]
            for name, stats in self.per_placement.items()
        }

    def afcts(self) -> Dict[str, float]:
        return {
            name: stats["mean_completion"]
            for name, stats in self.per_placement.items()
        }

    def improvement_over(
        self, baseline: str, *, metric: str = "gap"
    ) -> float:
        values = self.average_gaps() if metric == "gap" else self.afcts()
        neat = values["neat"]
        if neat <= 0:
            return float("inf")
        return values[baseline] / neat


def render_campaign_report(
    report: CampaignReport, *, title: Optional[str] = None
) -> str:
    """Text report: gap and blame tables, merged counters, cache totals
    and the quarantine section.

    The p50/p95/p99 columns are quantile-sketch values (<= 1% relative
    error, exact for a single seed and at the extremes); mean and
    ± stdev are exact.
    """
    from repro.metrics.report import format_table
    from repro.telemetry.causal import BLAME_COMPONENTS

    name = title if title is not None else report.campaign.name
    lines = [
        f"campaign {name}: {len(report.completed)}/{len(report.outcomes)} "
        f"cells completed with jobs={report.jobs} "
        f"in {report.wall_seconds:.1f}s",
        f"cache: {report.cache_stats}",
    ]

    def clean(value: float) -> float:
        # Decomposition float dust (~1e-17) would render as -0.000.
        return 0.0 if abs(value) < 1e-9 else value

    rows = list(report.aggregate.rows())
    seen = {component for row in rows for component in row[4]}
    components = [c for c in BLAME_COMPONENTS if c in seen] + sorted(
        seen.difference(BLAME_COMPONENTS)
    )
    gap_rows, blame_rows = [], []
    for net, load, placement, gap, blame in rows:
        shape = gap.as_dict()
        gap_rows.append(
            [
                net,
                f"{load:g}",
                placement,
                f"{shape['mean']:.3f} ± {gap.stdev:.3f}",
                f"{shape['p50']:.3f}",
                f"{shape['p95']:.3f}",
                f"{shape['p99']:.3f}",
                str(shape["count"]),
            ]
        )
        if blame:
            shares = {c: stat.as_dict() for c, stat in blame.items()}
            blame_rows.append(
                [net, f"{load:g}", placement]
                + [
                    f"{clean(shares[c]['mean']):.3f} "
                    f"(p99 {clean(shares[c]['p99']):.3f})"
                    if c in shares
                    else "-"
                    for c in components
                ]
            )
    if gap_rows:
        lines.append("")
        lines.append(
            format_table(
                [
                    "network", "load", "placement", "gap mean ± stdev",
                    "p50", "p95", "p99", "seeds",
                ],
                gap_rows,
            )
        )
    if blame_rows:
        lines.append("")
        lines.append("blame shares (mean fraction of FCT, across seeds):")
        lines.append(
            format_table(
                ["network", "load", "placement"] + components, blame_rows
            )
        )

    counters = report.merged_metrics().get("counters", {})
    if counters:
        lines.append("")
        lines.append("merged counters (all cells):")
        for metric, value in sorted(counters.items()):
            lines.append(f"  {metric} = {value:g}")

    failures = report.failure_report()
    if failures:
        lines.append("")
        lines.append(failures)
    return "\n".join(lines)
