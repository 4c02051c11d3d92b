"""Simulation-campaign orchestration over a lease queue, with result caching.

The campaign layer turns independent simulation runs — seed x placement
policy x network policy x load x figure — into a declarative
:class:`~repro.campaign.spec.Campaign` of
:class:`~repro.campaign.spec.RunSpec` cells.  One entry point,
:func:`~repro.campaign.executor.run_campaign`, runs them all: it seeds a
:class:`~repro.campaign.queue.WorkQueue` of exclusive-create lease
files, drains it with ``jobs`` workers (in-process, supervised worker
processes, or external ``repro campaign-worker`` processes on any
machine sharing the directory), and folds the results in cell-index
order into one :class:`~repro.campaign.streaming.CampaignAggregate`.
Results live in a content-addressed on-disk store
(:class:`~repro.campaign.cache.ResultCache`) keyed by the canonical hash
of each cell's full configuration.

Guarantees the rest of the repo builds on:

* **byte-identity** — every ``jobs`` value, external workers and a
  killed-then-resumed run produce byte-identical payloads and aggregate
  (cells are pure functions of their spec; fold order is cell order,
  never completion order);
* **cache correctness** — a payload is reused only when every
  content-defining config field (and the package version) matches;
* **supervision** — per-cell timeouts, crash detection, bounded retries
  on fresh workers, and quarantine with a failure report instead of a
  sunk campaign.

Quickstart::

    from repro.campaign import ResultCache, flow_grid, run_campaign
    from repro.experiments import MacroConfig

    campaign = flow_grid(
        base_config=MacroConfig(num_arrivals=200),
        seeds=[1, 2], network_policies=["fair"], loads=[0.5, 0.7],
    )
    report = run_campaign(
        campaign, jobs=4, cache=ResultCache(".repro-cache"),
    )
    print(render_campaign_report(report))
    first = report.outcomes[0].payload    # read from the store on demand
"""

from repro.campaign.cache import CacheStats, ResultCache
from repro.campaign.cells import execute_cell
from repro.campaign.executor import run_campaign
from repro.campaign.hashing import canonical_json, content_hash, spec_key
from repro.campaign.queue import (
    DEFAULT_LEASE_TTL,
    MANIFEST_FILENAME,
    Claim,
    WorkerSummary,
    WorkQueue,
    run_worker,
)
from repro.campaign.report import (
    CampaignReport,
    CellOutcome,
    MacroSummary,
    render_campaign_report,
)
from repro.campaign.spec import (
    Campaign,
    RunSpec,
    build_all_campaign,
    derive_seeds,
    flow_grid,
    spec_from_json_dict,
)
from repro.campaign.streaming import CampaignAggregate, StreamingStat
from repro.campaign.status import (
    DEFAULT_STALL_THRESHOLD,
    STATUS_FILENAME,
    CellStatus,
    StatusWriter,
    read_status,
    render_status,
    resolve_status_path,
    summarize_status,
)

__all__ = [
    "Campaign",
    "RunSpec",
    "flow_grid",
    "derive_seeds",
    "spec_from_json_dict",
    "WorkQueue",
    "Claim",
    "WorkerSummary",
    "run_worker",
    "CampaignAggregate",
    "StreamingStat",
    "DEFAULT_LEASE_TTL",
    "MANIFEST_FILENAME",
    "canonical_json",
    "content_hash",
    "spec_key",
    "CacheStats",
    "ResultCache",
    "CampaignReport",
    "CellOutcome",
    "execute_cell",
    "run_campaign",
    "MacroSummary",
    "render_campaign_report",
    "build_all_campaign",
    "StatusWriter",
    "CellStatus",
    "read_status",
    "summarize_status",
    "render_status",
    "resolve_status_path",
    "STATUS_FILENAME",
    "DEFAULT_STALL_THRESHOLD",
]
