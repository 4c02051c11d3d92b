"""Figures 5 and 6: flow placement macrobenchmarks.

Figure 5 — NEAT vs minLoad vs minDist under Fair (DCTCP) for (a) Hadoop
and (b) web-search workloads, reported as gap-from-optimal per flow-size
bin.  Figure 6 — the same under (a) L2DCT (LAS) and (b) PASE (SRPT) for
Hadoop.  The headline claims: up to ~3.7x better than the baselines under
Fair, ~3x under LAS, and ~30% under SRPT.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Sequence, Tuple

from repro.experiments.config import MacroConfig
from repro.experiments.runner import RunResult, compare_policies
from repro.metrics.report import gap_by_bin_table
from repro.metrics.stats import afct, average_gap

DEFAULT_PLACEMENTS: Tuple[str, ...] = ("neat", "minload", "mindist")


@dataclass
class MacroOutcome:
    """Results of one macro experiment (one network policy, one workload)."""

    network_policy: str
    workload: str
    results: Dict[str, RunResult]

    def average_gaps(self) -> Dict[str, float]:
        return {
            name: average_gap(r.records) for name, r in self.results.items()
        }

    def afcts(self) -> Dict[str, float]:
        return {name: afct(r.records) for name, r in self.results.items()}

    def improvement_over(self, baseline: str, *, metric: str = "gap") -> float:
        """NEAT's improvement factor over ``baseline``.

        ``metric="gap"`` uses mean gap-from-optimal (the figures' y-axis);
        ``metric="afct"`` uses average FCT (the abstract's headline).
        """
        values = self.average_gaps() if metric == "gap" else self.afcts()
        neat = values["neat"]
        if neat <= 0:
            return float("inf")
        return values[baseline] / neat

    def table(self, *, num_bins: int = 8) -> str:
        per_policy = {
            name: r.records for name, r in self.results.items()
        }
        return gap_by_bin_table(per_policy, num_bins=num_bins)

    def summary_dict(self) -> Dict[str, object]:
        """JSON-safe summary (for archiving / external plotting)."""
        return {
            "network_policy": self.network_policy,
            "workload": self.workload,
            "average_gaps": self.average_gaps(),
            "afcts": self.afcts(),
            "improvement_vs_minload": self.improvement_over("minload")
            if {"neat", "minload"} <= self.results.keys()
            else None,
            "improvement_vs_mindist": self.improvement_over("mindist")
            if {"neat", "mindist"} <= self.results.keys()
            else None,
            "num_records": {
                name: len(r.records) for name, r in self.results.items()
            },
        }


def run_flow_macro(
    *,
    network_policy: str,
    config: MacroConfig,
    placements: Sequence[str] = DEFAULT_PLACEMENTS,
    predictor: str = "fair",
    telemetry=None,
    faults=None,
) -> MacroOutcome:
    """Run one (network policy, workload) cell of Figures 5/6.

    ``faults`` (a :class:`~repro.faults.FaultPlan`) is injected into each
    placement's replay — the paired design holds because every placement
    sees the identical plan.
    """
    topology = config.build_topology()
    trace = config.build_trace(topology)
    results = compare_policies(
        trace,
        topology,
        network_policy=network_policy,
        placements=list(placements),
        predictor=predictor,
        seed=config.seed,
        max_candidates=config.max_candidates,
        telemetry=telemetry,
        faults=faults,
    )
    return MacroOutcome(
        network_policy=network_policy,
        workload=config.workload,
        results=results,
    )


def figure5(
    workload: str = "hadoop", config: MacroConfig = None, *, telemetry=None
) -> MacroOutcome:
    """Figure 5: placement comparison under Fair (DCTCP)."""
    cfg = config if config is not None else MacroConfig(workload=workload)
    if cfg.workload != workload:
        cfg = replace(cfg, workload=workload)
    return run_flow_macro(
        network_policy="fair", config=cfg, telemetry=telemetry
    )


def figure6(
    network_policy: str = "las", config: MacroConfig = None, *, telemetry=None
) -> MacroOutcome:
    """Figure 6: Hadoop workload under LAS (a) or SRPT (b)."""
    cfg = config if config is not None else MacroConfig(workload="hadoop")
    return run_flow_macro(
        network_policy=network_policy, config=cfg, telemetry=telemetry
    )
