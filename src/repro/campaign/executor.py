"""The one campaign entry point: a supervisor over the lease queue.

:func:`run_campaign` seeds (or reopens) a
:class:`~repro.campaign.queue.WorkQueue`, drains it with ``jobs``
workers and folds finished cells **in cell-index order** into the one
:class:`~repro.campaign.streaming.CampaignAggregate`.  The supervisor
only ever looks at the next unfolded index, so out-of-order completions
wait on disk (done marker + result blob), not in memory, and the
aggregate is byte-identical for every worker count, for external
``repro campaign-worker`` processes, and for a killed-then-resumed run:
cells are pure functions of their spec, the fold order is fixed, and
nothing run-shaped (ok-vs-cached, attempts, worker ids, wall time)
enters the aggregate payload.

The supervisor owns the worker processes it starts (``jobs >= 2``): one
whose cell exceeds ``timeout`` is killed, one that dies (``os._exit``,
SIGKILL) is noticed on the next tick, and either way its lease becomes
stealable at once (not after the TTL) with the spent attempt still
counted, a fresh worker is started, and in-flight neighbours are
untouched.  Once ``1 + retries`` attempts are spent the cell is
quarantined with an error that says ``timeout`` / ``crash`` instead of
sinking the campaign.  A cell that *raises* is retried in place by the
worker loop (:func:`~repro.campaign.queue.run_worker`).  With ``jobs=1``
that loop runs in the calling process, where a hung or crashing cell
cannot be contained — ``timeout`` needs ``jobs >= 2``.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import time
import weakref
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.campaign.cache import CacheStats, ResultCache
from repro.campaign.cells import execute_cell, payload_events
from repro.campaign.hashing import spec_key
from repro.campaign.queue import (
    DEFAULT_LEASE_TTL,
    Claim,
    WorkQueue,
    run_worker,
)
from repro.campaign.report import CampaignReport, CellOutcome
from repro.campaign.spec import Campaign, RunSpec
from repro.campaign.status import STATUS_FILENAME
from repro.campaign.streaming import CampaignAggregate
from repro.errors import ConfigError

__all__ = ["run_campaign"]

#: Supervisor poll interval (wall seconds) while the next cell in index
#: order is still running somewhere; also the owned workers' claim poll.
_TICK = 0.05

_PROGRESS_TAGS = {"ok": "done", "cached": "cached", "failed": "FAILED"}


class _OwnedWorkers:
    """The worker processes one supervisor started, and their upkeep."""

    def __init__(
        self,
        queue: WorkQueue,
        count: int,
        cell_fn: Callable[[RunSpec], Dict[str, object]],
        timeout: Optional[float],
        retries: int,
    ) -> None:
        self._queue = queue
        self._cell_fn = cell_fn
        self._timeout = timeout
        self._retries = retries
        self._procs: Dict[str, multiprocessing.Process] = {}
        self._spawned = 0
        for _ in range(count):
            self._spawn()

    def _spawn(self) -> None:
        """Start one worker: the same loop ``repro campaign-worker``
        runs, polling until the queue completes."""
        self._spawned += 1
        worker_id = f"{os.uname().nodename}:{os.getpid()}.{self._spawned}"
        proc = multiprocessing.Process(
            target=run_worker,
            args=(str(self._queue.directory),),
            kwargs={
                "worker_id": worker_id,
                "cell_fn": self._cell_fn,
                "retries": self._retries,
                "poll": _TICK,
                "wait": True,
            },
            daemon=True,
        )
        proc.start()
        self._procs[worker_id] = proc

    def supervise(self) -> None:
        """One tick: replace dead and overdue workers."""
        overdue = set()
        if self._timeout is not None:
            cutoff = time.time() - self._timeout
            overdue = {
                lease.get("worker")
                for lease in self._queue.leases().values()
                if lease.get("started", cutoff) < cutoff
            }
        for worker_id, proc in list(self._procs.items()):
            if not proc.is_alive():
                reason = (
                    f"crash: worker process died (exit code {proc.exitcode})"
                )
            elif worker_id in overdue:
                # A hung worker has no cleanup worth waiting for, and the
                # commit protocol is crash-safe: kill, don't ask.
                proc.kill()
                reason = f"timeout: exceeded {self._timeout:g}s wall clock"
            else:
                continue
            proc.join()
            del self._procs[worker_id]
            self._abandon(worker_id, reason)
            if not self._queue.is_complete():
                self._spawn()

    def _abandon(self, worker_id: str, reason: str) -> None:
        """Spend the attempt a dead worker's lease recorded: quarantine
        the cell when that was its last, else let it be stolen now."""
        for index, lease in self._queue.leases().items():
            if lease.get("worker") != worker_id:
                continue
            attempt = int(lease.get("attempt", 1))
            if attempt >= 1 + self._retries:
                self._queue.commit(
                    Claim(
                        index,
                        self._queue.campaign.cells[index],
                        self._queue.keys[index],
                        attempt,
                    ),
                    "failed",
                    worker=worker_id,
                    error=reason,
                )
            else:
                self._queue.expire(index)

    def stop(self) -> None:
        """Workers exit by themselves once the queue completes; anything
        still alive after an error (or a grace period) is killed."""
        for proc in self._procs.values():
            if self._queue.is_complete():
                proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()


def run_campaign(
    campaign: Optional[Campaign] = None,
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    cell_fn: Callable[[RunSpec], Dict[str, object]] = execute_cell,
    timeout: Optional[float] = None,
    retries: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    status_path=None,
    directory: Union[str, Path, None] = None,
    resume: bool = False,
    lease_ttl: float = DEFAULT_LEASE_TTL,
) -> CampaignReport:
    """Execute every cell of ``campaign`` through a lease queue.

    Args:
        campaign: the cell grid to run.  Optional with ``resume`` (the
            manifest is authoritative); when both are given the manifest
            must describe the same cells.
        jobs: workers.  ``1`` runs the worker loop in the calling
            process; ``N >= 2`` starts N supervised worker processes;
            ``0`` starts none and coordinates external ``repro
            campaign-worker DIRECTORY`` processes (needs ``directory``).
        cache: result store shared across campaigns; hits skip
            execution and successful cells are stored back.  Without
            one, results live inside the queue directory.
        cell_fn: the cell implementation (importable by worker
            processes); overridable for tests and custom campaign kinds.
        timeout: per-cell wall-clock budget in seconds (``jobs >= 2``).
        retries: extra attempts for a timed-out/crashed/raising cell
            before it is quarantined.
        progress: optional line sink (e.g. ``print``) for per-cell
            progress as results fold.
        status_path: where the supervisor and every worker append live
            health records (JSONL, rendered by ``repro status``);
            default ``DIRECTORY/status.jsonl`` for a kept queue, no
            stream otherwise.  Wall timestamps stay in this file only.
        directory: keep the queue here — machines sharing the filesystem
            can add workers, and a killed run can be resumed.  Without
            it the queue is a temporary directory, removed once the
            report's outcomes (which read payloads from it) are gone.
        resume: reopen the queue already in ``directory``: finished
            cells fold straight from disk and the rest execute.  The
            manifest then says where cache and status stream live.
        lease_ttl: seconds of lease silence before a cell whose worker
            nobody supervises counts as abandoned and may be stolen.
    """
    started = time.perf_counter()
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0, got {jobs!r}")
    if directory is None and (resume or jobs == 0):
        raise ConfigError(
            "resuming a campaign, or coordinating external workers "
            "(jobs=0), needs the queue directory"
        )
    if campaign is None and not resume:
        raise ConfigError("run_campaign needs a campaign unless resuming")
    if resume:
        queue = WorkQueue.open(directory)
        if campaign is not None and queue.keys != [
            spec_key(spec) for spec in campaign.cells
        ]:
            raise ConfigError(
                f"queue {directory} holds campaign {queue.campaign.name!r}, "
                "which does not match the grid passed for resume"
            )
    else:
        scratch = None
        if directory is None:
            directory = scratch = tempfile.mkdtemp(prefix="repro-campaign-")
        if status_path is not None:
            status_path = os.path.abspath(status_path)
        elif scratch is None:
            status_path = STATUS_FILENAME
        try:
            queue = WorkQueue.seed(
                directory,
                campaign,
                lease_ttl=lease_ttl,
                cache=(
                    os.path.abspath(cache.root)
                    if cache is not None
                    else "cache"
                ),
                status=status_path,
            )
        except BaseException:
            if scratch is not None:
                shutil.rmtree(scratch, ignore_errors=True)
            raise
        if scratch is not None:
            # Outcomes read payloads through ``queue.cache`` on demand,
            # so a temporary queue lives exactly as long as they do.
            weakref.finalize(queue.cache, shutil.rmtree, scratch, True)
    campaign = queue.campaign
    total = len(campaign.cells)
    # Cells an earlier supervisor (or worker) finished count as hits.
    inherited = set(queue.finished())
    status = queue.status_writer()
    if status is not None:
        status.emit(
            "campaign_start", campaign=campaign.name, cells=total, jobs=jobs
        )
    aggregate = CampaignAggregate(campaign.name, total)
    outcomes: List[CellOutcome] = []
    stats = CacheStats()

    def fold_ready() -> bool:
        """Fold every finished cell contiguous with the folded prefix;
        True once the whole campaign is folded."""
        while aggregate.folded < total:
            index = aggregate.folded
            marker = queue.done_marker(index)
            if marker is None:
                return False
            state = marker["status"]
            spec = campaign.cells[index]
            payload = queue.result_for(index) if state != "failed" else None
            aggregate.fold(index, state, payload)
            error = marker.get("error")
            outcomes.append(
                CellOutcome(
                    index=index,
                    spec=spec,
                    status=state,
                    attempts=int(marker.get("attempts", 1)),
                    error=error,
                    key=queue.keys[index],
                    store=queue.cache,
                )
            )
            if state == "cached" or index in inherited:
                stats.hits += 1
            else:
                stats.misses += 1
                stats.writes += state == "ok"
            if status is not None:
                fields = {
                    "cell": index,
                    "state": state,
                    "attempt": outcomes[-1].attempts,
                    "spec": spec.describe(),
                    "worker": marker.get("worker"),
                }
                if error is not None:
                    fields["error"] = error
                events = payload_events(payload)
                if events is not None:
                    fields["events_processed"] = events
                status.emit("cell", **fields)
            if progress is not None:
                suffix = f" ({error})" if error else ""
                progress(
                    f"[{index + 1}/{total}] {_PROGRESS_TAGS[state]:6s} "
                    f"{spec.describe()}{suffix}"
                )
        return True

    owned = (
        _OwnedWorkers(queue, jobs, cell_fn, timeout, retries)
        if jobs >= 2
        else None
    )
    try:
        while not fold_ready():
            if owned is not None:
                owned.supervise()
            elif jobs == 1 and run_worker(
                queue, cell_fn=cell_fn, retries=retries, after_cell=fold_ready
            ).claimed:
                continue
            time.sleep(_TICK)
    finally:
        if owned is not None:
            owned.stop()

    report = CampaignReport(
        campaign=campaign,
        outcomes=outcomes,
        jobs=jobs,
        aggregate=aggregate,
        cache_stats=stats,
        wall_seconds=time.perf_counter() - started,
    )
    if cache is not None:
        # On behalf of the workers, whose own counters die with them.
        cache.stats.hits += stats.hits
        cache.stats.misses += stats.misses
        cache.stats.writes += stats.writes
    if status is not None:
        status.emit(
            "campaign_end",
            ok=sum(o.status == "ok" for o in outcomes),
            cached=sum(o.status == "cached" for o in outcomes),
            failed=len(report.quarantined),
            wall_seconds=report.wall_seconds,
        )
    return report
