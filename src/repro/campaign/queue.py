"""Filesystem work-queue for distributed campaign execution.

A campaign becomes a *queue directory* that any number of worker
processes — on this machine or any machine sharing the filesystem —
drain cooperatively:

``manifest.json``
    The campaign itself: every cell's lossless JSON spec
    (:meth:`~repro.campaign.spec.RunSpec.to_json_dict`) plus its
    content-address (:func:`~repro.campaign.hashing.spec_key`), and
    where results and the status stream live (inside the directory
    unless the seeder said otherwise).  Seeding is idempotent:
    re-seeding an existing queue verifies the manifest matches and
    changes nothing.
``leases/NNNNN.json``
    One lease per in-flight cell.  A claim is an **exclusive create**
    (``O_CREAT | O_EXCL``) — the filesystem arbitrates, exactly one
    claimant wins.  Workers renew their lease (mtime touch) while the
    cell runs; a lease whose mtime is older than the TTL belongs to a
    crashed worker and may be *stolen*: unlink, then exclusive-create
    again, so racing stealers still resolve to one winner.
``done/NNNNN.json``
    Atomic terminal marker per cell: status (``ok``/``cached``/
    ``failed``), the cell's cache key, attempts, worker id.  The marker
    is written *after* the payload lands in the cache, so a visible
    marker always has a readable result behind it; the first terminal
    marker wins, so a racing double-commit cannot rewrite an outcome.
``cache/``
    The standard content-addressed
    :class:`~repro.campaign.cache.ResultCache` (or the caller's own
    cache directory, recorded in the manifest).  Because commits are
    idempotent (same key, byte-identical blob), a stolen cell that its
    "crashed" owner later finishes anyway is harmless — both writes
    store the same bytes.
``status.jsonl``
    The live health stream (``repro status`` / ``repro top`` work on a
    queue directory unchanged).

Crash-resume falls out of the layout: progress *is* the set of done
markers plus the cache, so a supervisor restart
(``repro run --resume DIR``) reconstructs exactly where the campaign
stood and finishes it, byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import repro
from repro.campaign.cache import ResultCache, atomic_write_text
from repro.campaign.cells import execute_cell, run_cell
from repro.campaign.hashing import canonical_json, spec_key
from repro.campaign.spec import Campaign, RunSpec, spec_from_json_dict
from repro.campaign.status import STATUS_FILENAME, StatusWriter
from repro.errors import ConfigError

__all__ = [
    "WorkQueue",
    "Claim",
    "WorkerSummary",
    "run_worker",
    "DEFAULT_LEASE_TTL",
    "MANIFEST_FILENAME",
]

MANIFEST_FILENAME = "manifest.json"
_LEASE_DIRNAME = "leases"
_DONE_DIRNAME = "done"
_CACHE_DIRNAME = "cache"

#: Seconds of lease silence after which a cell counts as abandoned.
DEFAULT_LEASE_TTL = 30.0


@dataclass(frozen=True)
class Claim:
    """One successfully claimed cell: run it, then commit."""

    index: int
    spec: RunSpec
    key: str
    attempt: int  # 1 for a fresh claim, previous + 1 for a steal


class WorkQueue:
    """One campaign's shared work directory (see module docstring).

    Construct via :meth:`seed` (supervisor) or :meth:`open` (worker or
    resuming supervisor), never directly.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        campaign: Campaign,
        keys: List[str],
        lease_ttl: float,
        cache: Union[str, Path] = _CACHE_DIRNAME,
        status: Union[str, Path, None] = STATUS_FILENAME,
    ) -> None:
        self.directory = Path(directory)
        self.campaign = campaign
        self.keys = keys
        self.lease_ttl = float(lease_ttl)
        # Relative locations live inside the queue directory; an
        # absolute one (the caller's --cache-dir, --status) stands alone.
        self.cache = ResultCache(self.directory / cache)
        self.status_path = (
            self.directory / status if status is not None else None
        )
        # Done markers only ever appear, so what one instance has seen
        # stays true: ``_status`` maps every cell known to be done to its
        # terminal status (None until a marker read learns it) and
        # ``_cursor`` is the lowest index not yet known to be done.
        self._status: Dict[int, Optional[str]] = {}
        self._cursor = 0
        # Plain strings: these two paths are built several times per cell.
        self._leases = os.path.join(self.directory, _LEASE_DIRNAME)
        self._done = os.path.join(self.directory, _DONE_DIRNAME)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def seed(
        cls,
        directory: Union[str, Path],
        campaign: Campaign,
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        cache: Union[str, Path] = _CACHE_DIRNAME,
        status: Union[str, Path, None] = STATUS_FILENAME,
    ) -> "WorkQueue":
        """Create (or idempotently re-open) a queue for ``campaign``.

        ``cache`` and ``status`` say where results and the status stream
        live: a path relative to ``directory`` (the defaults) or an
        absolute one; ``status=None`` turns the stream off.  They are
        recorded in the manifest, so every worker that opens the queue
        uses the same locations.

        A manifest that already exists must describe the *same* cells
        (matching content keys); anything else is a configuration error
        — two different campaigns must never share a queue directory.
        """
        if lease_ttl <= 0:
            raise ConfigError(f"lease_ttl must be positive, got {lease_ttl!r}")
        directory = Path(directory)
        keys = [spec_key(spec) for spec in campaign.cells]
        manifest_path = os.path.join(directory, MANIFEST_FILENAME)
        if os.path.exists(manifest_path):
            existing = cls.open(directory)
            if existing.keys != keys:
                raise ConfigError(
                    f"queue {directory} already holds a different campaign "
                    f"({existing.campaign.name!r}); refusing to re-seed"
                )
            return existing
        for sub in (_LEASE_DIRNAME, _DONE_DIRNAME):
            (directory / sub).mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            manifest_path,
            canonical_json({
                "campaign": campaign.name,
                "version": repro.__version__,
                "lease_ttl": lease_ttl,
                "cache": str(cache),
                "status": str(status) if status is not None else None,
                "cells": [spec.to_json_dict() for spec in campaign.cells],
                "keys": keys,
            }),
        )
        return cls(directory, campaign, keys, lease_ttl, cache, status)

    @classmethod
    def open(cls, directory: Union[str, Path]) -> "WorkQueue":
        """Open an existing queue (workers and resuming supervisors)."""
        directory = Path(directory)
        manifest_path = directory / MANIFEST_FILENAME
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(
                f"{directory} is not a campaign queue (no {MANIFEST_FILENAME})"
            ) from None
        except (json.JSONDecodeError, OSError) as exc:
            raise ConfigError(f"unreadable queue manifest: {exc}") from exc
        version = manifest.get("version")
        if version != repro.__version__:
            raise ConfigError(
                f"queue {directory} was seeded by repro {version}; this is "
                f"{repro.__version__} — results would not be comparable"
            )
        cells = tuple(
            spec_from_json_dict(raw) for raw in manifest.get("cells", [])
        )
        campaign = Campaign(
            name=manifest.get("campaign", "queue"), cells=cells
        )
        keys = list(manifest.get("keys", []))
        if len(keys) != len(cells):
            raise ConfigError("queue manifest keys do not match its cells")
        for index, spec in enumerate(cells):
            if spec_key(spec) != keys[index]:
                raise ConfigError(
                    f"queue manifest cell {index} does not hash to its "
                    "recorded key — manifest is corrupt or hand-edited"
                )
        for sub in (_LEASE_DIRNAME, _DONE_DIRNAME):
            (directory / sub).mkdir(parents=True, exist_ok=True)
        return cls(
            directory,
            campaign,
            keys,
            float(manifest.get("lease_ttl", DEFAULT_LEASE_TTL)),
            manifest.get("cache", _CACHE_DIRNAME),
            manifest.get("status", STATUS_FILENAME),
        )

    def status_writer(self) -> Optional[StatusWriter]:
        """The queue's status stream (None when it was seeded without)."""
        if self.status_path is None:
            return None
        return StatusWriter(self.status_path)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _lease_path(self, index: int) -> str:
        return f"{self._leases}/{index:05d}.json"

    def _done_path(self, index: int) -> str:
        return f"{self._done}/{index:05d}.json"

    # ------------------------------------------------------------------
    # Claiming
    # ------------------------------------------------------------------
    def _try_exclusive_lease(
        self, index: int, worker: str, attempt: int
    ) -> bool:
        """Exclusive-create the lease file; False when someone else won."""
        path = self._lease_path(index)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(
                canonical_json(
                    {
                        "worker": worker,
                        "attempt": attempt,
                        "cell": index,
                        "started": time.time(),
                    }
                )
            )
            fh.write("\n")
        return True

    def _stale_attempt(self, index: int) -> int:
        """Attempt count recorded in an (expired) lease, 1 if unreadable."""
        try:
            with open(self._lease_path(index), "r", encoding="utf-8") as fh:
                return int(json.load(fh).get("attempt", 1))
        except (OSError, ValueError):
            return 1

    def _is_done(self, index: int) -> bool:
        """Whether the cell has a terminal marker (positives are cached)."""
        if index in self._status:
            return True
        if os.path.exists(self._done_path(index)):
            self._status[index] = None
            return True
        return False

    def claim(
        self, worker: str, *, now: Optional[float] = None
    ) -> Optional[Claim]:
        """Claim the lowest-index cell that is neither done nor leased.

        The scan starts at the first cell this instance does not know to
        be done, so draining n cells costs O(n) done checks in total, not
        O(n) per claim.  A lease older than the TTL is stolen: the stale
        lease is unlinked and re-created exclusively, so concurrent
        stealers (or a stealer racing the original claimant's unlink)
        still resolve to exactly one winner.  Returns None when every
        remaining cell is done or validly leased.
        """
        if now is None:
            now = time.time()
        for index in range(self._cursor, len(self.campaign.cells)):
            if self._is_done(index):
                if index == self._cursor:
                    self._cursor += 1
                continue
            if self._try_exclusive_lease(index, worker, 1):
                return Claim(
                    index, self.campaign.cells[index], self.keys[index], 1
                )
            # Lease exists: steal only if its holder has gone silent.
            try:
                age = now - os.stat(self._lease_path(index)).st_mtime
            except OSError:
                age = None  # lease vanished: commit or release raced us
            if age is not None and age > self.lease_ttl:
                attempt = self._stale_attempt(index) + 1
                try:
                    os.unlink(self._lease_path(index))
                except OSError:
                    pass  # another stealer got there first
                if self._try_exclusive_lease(index, worker, attempt):
                    if self._is_done(index):
                        # The "crashed" owner committed between our
                        # staleness check and the steal; undo.
                        self.release(index)
                        continue
                    return Claim(
                        index,
                        self.campaign.cells[index],
                        self.keys[index],
                        attempt,
                    )
        return None

    def renew(self, index: int) -> None:
        """Refresh a held lease's mtime (heartbeat while a cell runs)."""
        try:
            os.utime(self._lease_path(index))
        except OSError:
            pass  # stolen out from under us; commit idempotency covers it

    def release(self, index: int) -> None:
        """Drop a lease without committing (cell becomes claimable)."""
        try:
            os.unlink(self._lease_path(index))
        except OSError:
            pass

    def expire(self, index: int) -> None:
        """Make a held lease stealable at once, keeping its attempt count
        (for a supervisor that knows the holder is dead)."""
        try:
            os.utime(self._lease_path(index), (0, 0))
        except OSError:
            pass  # committed or released meanwhile

    def leases(self) -> Dict[int, Dict[str, object]]:
        """Every readable lease: cell index -> {worker, attempt, cell,
        started (wall time of the claim)}."""
        held: Dict[int, Dict[str, object]] = {}
        for name in os.listdir(self._leases):
            try:
                with open(
                    os.path.join(self._leases, name), "r", encoding="utf-8"
                ) as fh:
                    lease = json.load(fh)
                held[int(lease["cell"])] = lease
            except (OSError, ValueError, KeyError, TypeError):
                continue  # mid-write or just released; next scan sees it
        return held

    # ------------------------------------------------------------------
    # Committing and reading results
    # ------------------------------------------------------------------
    def commit(
        self,
        claim: Claim,
        status: str,
        payload: Optional[Dict[str, object]] = None,
        *,
        worker: str = "",
        error: Optional[str] = None,
    ) -> None:
        """Commit a cell's terminal result and drop its lease.

        The payload goes into the content-addressed cache *first*, the
        done marker second — a marker's existence therefore implies its
        result is readable.  The first terminal marker wins: a second
        commit for an already-done cell (a benign re-claim of a cell
        that finished between the done check and the lease grab, or a
        stolen cell whose original owner finished anyway) only drops
        the lease — it must never rewrite the recorded outcome, so a
        late loser cannot downgrade an ``ok`` cell to ``failed``.
        """
        if status not in ("ok", "cached", "failed"):
            raise ConfigError(f"cannot commit status {status!r}")
        if self._is_done(claim.index):
            self.release(claim.index)
            return
        if status == "ok":
            if payload is None:
                raise ConfigError("an ok commit needs a payload")
            self.cache.store(claim.key, payload)
        marker: Dict[str, object] = {
            "cell": claim.index,
            "status": status,
            "key": claim.key,
            "attempts": claim.attempt,
            "worker": worker,
        }
        if error is not None:
            marker["error"] = error
        atomic_write_text(
            self._done_path(claim.index), canonical_json(marker)
        )
        self._status[claim.index] = status
        self.release(claim.index)

    def done_marker(self, index: int) -> Optional[Dict[str, object]]:
        """The cell's terminal marker, or None while it is unfinished."""
        try:
            with open(self._done_path(index), "r", encoding="utf-8") as fh:
                marker = json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError) as exc:
            raise ConfigError(
                f"corrupt done marker for cell {index}: {exc}"
            ) from exc
        self._status[index] = marker["status"]
        return marker

    def result_for(self, index: int) -> Optional[Dict[str, object]]:
        """A finished cell's payload from the cache (None for failed)."""
        marker = self.done_marker(index)
        if marker is None:
            raise ConfigError(f"cell {index} has not finished")
        if marker["status"] == "failed":
            return None
        payload = self.cache.read(self.keys[index])
        if payload is None:
            raise ConfigError(
                f"cell {index} is marked done but its result is missing "
                "from the queue cache"
            )
        return payload

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    def finished(self) -> List[int]:
        """Every cell that has a terminal marker, from one directory
        listing (what a resuming supervisor finds already done)."""
        for name in os.listdir(self._done):
            if name.endswith(".json"):  # skip in-flight atomic-write temps
                self._status.setdefault(int(name[:-5]), None)
        return sorted(self._status)

    def progress(self) -> Dict[str, int]:
        """Queue-wide counts: total / done / failed / leased / pending."""
        total = len(self.campaign.cells)
        done = self.finished()
        for index in done:
            if self._status[index] is None:
                self.done_marker(index)  # learn the status, once
        failed = sum(1 for i in done if self._status[i] == "failed")
        leased = sum(1 for i in self.leases() if i not in self._status)
        return {
            "total": total,
            "done": len(done),
            "failed": failed,
            "leased": leased,
            "pending": total - len(done) - leased,
        }

    def is_complete(self) -> bool:
        """True once every cell has a terminal marker."""
        total = len(self.campaign.cells)
        while self._cursor < total and self._is_done(self._cursor):
            self._cursor += 1
        return self._cursor == total


# ----------------------------------------------------------------------
# The worker loop (`repro campaign-worker DIR`)
# ----------------------------------------------------------------------
@dataclass
class WorkerSummary:
    """What one worker pass did (returned by :func:`run_worker`)."""

    worker: str
    claimed: int = 0
    ok: int = 0
    cached: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)


def run_worker(
    directory: Union[str, Path, WorkQueue],
    *,
    worker_id: Optional[str] = None,
    cell_fn: Callable[[RunSpec], Dict[str, object]] = execute_cell,
    retries: int = 1,
    poll: float = 0.2,
    wait: bool = False,
    idle_timeout: Optional[float] = None,
    max_cells: Optional[int] = None,
    after_cell: Optional[Callable[[], object]] = None,
) -> WorkerSummary:
    """Drain cells from a queue until none are claimable.

    Claim -> cache short-circuit -> execute (renewing the lease from a
    heartbeat thread so slow cells are not stolen) -> commit.  A cell
    that raises is retried in place; once its total attempts (including
    claims consumed by crashed predecessors) exceed ``1 + retries`` it
    is committed as ``failed`` — quarantine.  The worker's status
    records are ``running`` / ``finished``; the terminal record of each
    cell is the supervisor's, written when it folds the done marker.

    Args:
        directory: a seeded queue directory (see :meth:`WorkQueue.seed`),
            or the already-open :class:`WorkQueue`.
        worker_id: identity written into leases and done markers
            (default ``host:pid``).
        cell_fn: the cell implementation (tests substitute cheap ones).
        retries: extra attempts before a cell is quarantined.
        poll: seconds between claim retries while waiting.
        wait: keep polling for claimable work until the queue completes
            (for workers started before or alongside the supervisor);
            without it the worker exits at the first empty claim.
        idle_timeout: with ``wait``, give up after this many seconds
            without a successful claim (guards orphaned workers).
        max_cells: stop after claiming this many cells (tests).
        after_cell: called after every commit — how a supervisor that
            drains in its own process folds results as they land.
    """
    queue = (
        directory
        if isinstance(directory, WorkQueue)
        else WorkQueue.open(directory)
    )
    if worker_id is None:
        worker_id = f"{os.uname().nodename}:{os.getpid()}"
    status = queue.status_writer()
    summary = WorkerSummary(worker=worker_id)
    last_claim = time.time()

    # One heartbeat thread renews whichever lease the worker holds, so a
    # slow cell is not mistaken for a crashed worker.
    held: List[Optional[int]] = [None]
    stop = threading.Event()

    def renew_held() -> None:
        while not stop.wait(max(queue.lease_ttl / 3.0, 0.05)):
            if held[0] is not None:
                queue.renew(held[0])

    heartbeat = threading.Thread(target=renew_held, daemon=True)

    def quarantine(claim: Claim, attempt: int, error: str) -> None:
        queue.commit(
            replace(claim, attempt=attempt),
            "failed",
            worker=worker_id,
            error=error,
        )
        summary.failed += 1
        summary.errors.append(f"cell {claim.index}: {error}")

    try:
        while max_cells is None or summary.claimed < max_cells:
            claim = queue.claim(worker_id)
            if claim is None:
                if not wait or queue.is_complete():
                    break
                if (
                    idle_timeout is not None
                    and time.time() - last_claim > idle_timeout
                ):
                    break
                time.sleep(poll)
                continue
            last_claim = time.time()
            summary.claimed += 1

            if queue.cache.lookup(claim.key) is not None:
                # A previous campaign (or a previous pass of this one)
                # already computed this exact cell.
                queue.commit(claim, "cached", worker=worker_id)
                summary.cached += 1
            elif claim.attempt > 1 + retries:
                quarantine(
                    claim,
                    claim.attempt,
                    f"quarantined: {claim.attempt - 1} prior attempt(s) "
                    "abandoned their lease",
                )
            else:
                held[0] = claim.index
                if heartbeat.ident is None:
                    heartbeat.start()
                attempt = claim.attempt
                while True:
                    try:
                        payload = run_cell(
                            cell_fn, claim.index, claim.spec, attempt, status
                        )
                    except Exception as exc:  # noqa: BLE001 - quarantine path
                        if attempt >= 1 + retries:
                            quarantine(claim, attempt, f"error: {exc!r}")
                            break
                        attempt += 1
                        continue
                    queue.commit(
                        replace(claim, attempt=attempt),
                        "ok",
                        payload,
                        worker=worker_id,
                    )
                    summary.ok += 1
                    break
                held[0] = None
            if after_cell is not None:
                after_cell()
    finally:
        stop.set()
        if heartbeat.ident is not None:
            heartbeat.join(timeout=5)
    return summary
