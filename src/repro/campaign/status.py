"""Live campaign health: JSONL status stream, stall detection, rendering.

Long campaigns run for minutes to hours on their workers; the only
signal ``run_campaign`` used to give was per-cell completion lines.  The
status stream makes in-flight campaigns observable: the supervisor and
every worker append one JSON object per line to a shared *status file*,
and ``repro status <dir-or-file>`` renders the latest state per cell —
including **stall detection** (a cell whose last record is non-terminal
and older than a threshold is flagged).

Record vocabulary (all records carry ``record``, ``wall`` — unix
seconds — and usually ``cell``):

====================  ==================================================
``campaign_start``     cells, jobs, campaign name
``cell``               one cell's state transition, emitted by the
                       worker (``running`` → ``finished``) and by the
                       supervisor (terminal ``ok``/``cached``/``failed``)
``campaign_end``       totals: ok/cached/failed counts, wall seconds
====================  ==================================================

Worker ``finished`` records additionally ship ``events_processed`` (when
the payload exposes it) and a ``spans`` snapshot of the cell's ambient
:class:`~repro.telemetry.profiler.SpanProfiler` — so a slow cell shows
*where* its time went without re-running anything.

Appends are line-buffered per record: each ``emit`` opens the file in
append mode, writes one line, and closes it, which keeps concurrent
writers from different processes from interleaving partial lines on any
POSIX filesystem (O_APPEND single-write).  The reader tolerates a
truncated final line — a campaign killed mid-write still parses.

Wall-clock timestamps live *only* here; the status stream is a health
channel and is deliberately outside the determinism contract (result
payloads, traces, and the cache never see it).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = [
    "StatusWriter",
    "CellStatus",
    "read_status",
    "summarize_status",
    "render_status",
    "resolve_status_path",
    "STATUS_FILENAME",
    "TERMINAL_STATES",
    "SETTLED_STATES",
    "DEFAULT_STALL_THRESHOLD",
]

#: Default status-file name inside a campaign/cache directory.
STATUS_FILENAME = "status.jsonl"

#: Cell states that mean "no further record is expected".
TERMINAL_STATES = frozenset({"ok", "cached", "failed"})

#: States that mean the cell's *work* is done even if no supervisor
#: terminal record follows.  A worker's ``finished`` is the last word
#: when the stream's writer is not a campaign supervisor (``repro
#: serve`` heartbeats, a supervisor killed between worker completion and
#: its own terminal record) — such cells must not count as stalled.
SETTLED_STATES = TERMINAL_STATES | frozenset({"finished"})

#: Seconds of silence after which a non-terminal cell counts as stalled.
DEFAULT_STALL_THRESHOLD = 120.0


class StatusWriter:
    """Append-only JSONL emitter usable from any process.

    Safe for concurrent use by the supervisor and its workers: every
    record is a single ``open(append) -> write -> close`` of one line.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        parent = self._path.parent
        if parent and not parent.exists():
            parent.mkdir(parents=True, exist_ok=True)

    @property
    def path(self) -> Path:
        return self._path

    def emit(self, record: str, **fields) -> None:
        """Append one status record (stamped with wall time)."""
        payload = {"record": record, "wall": time.time()}
        payload.update(fields)
        line = json.dumps(payload, separators=(",", ":"), default=str)
        with open(self._path, "a", encoding="utf-8") as fp:
            fp.write(line + "\n")


def read_status(path: Union[str, Path]) -> List[Dict]:
    """Parse a status file, tolerating a truncated final line.

    A campaign killed mid-write leaves at most one partial trailing line;
    every complete line before it is returned.
    """
    records: List[Dict] = []
    with open(path, "r", encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                # Partial tail from a killed writer; stop at the damage.
                break
    return records


class CellStatus:
    """Latest known state of one campaign cell."""

    __slots__ = (
        "cell",
        "spec",
        "state",
        "attempt",
        "last_wall",
        "events_processed",
        "spans",
        "error",
        "stalled",
    )

    def __init__(self, cell: int) -> None:
        self.cell = cell
        self.spec = ""
        self.state = "unknown"
        self.attempt = 0
        self.last_wall = 0.0
        self.events_processed: Optional[int] = None
        self.spans: Optional[Dict] = None
        self.error: Optional[str] = None
        self.stalled = False

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


def summarize_status(
    records: List[Dict],
    *,
    now: Optional[float] = None,
    stall_threshold: float = DEFAULT_STALL_THRESHOLD,
) -> Dict[str, object]:
    """Fold a record stream into per-cell latest state plus stall flags.

    Args:
        records: output of :func:`read_status`.
        now: reference wall time for staleness (defaults to the wall
            clock; tests pin it).
        stall_threshold: seconds of silence after which a cell whose last
            record is non-terminal is flagged as stalled.  A campaign
            killed mid-cell trips exactly this: the worker's ``running``
            record is the cell's last word.
    """
    if now is None:
        now = time.time()
    cells: Dict[int, CellStatus] = {}
    meta: Dict[str, object] = {"campaign": None, "jobs": None, "ended": False}
    for rec in records:
        kind = rec.get("record")
        if kind == "campaign_start":
            meta["campaign"] = rec.get("campaign")
            meta["jobs"] = rec.get("jobs")
            meta["cells_total"] = rec.get("cells")
        elif kind == "campaign_end":
            meta["ended"] = True
        elif kind == "cell" and "cell" in rec:
            index = int(rec["cell"])
            cell = cells.get(index)
            if cell is None:
                cell = cells[index] = CellStatus(index)
            cell.state = rec.get("state", cell.state)
            cell.last_wall = rec.get("wall", cell.last_wall)
            cell.spec = rec.get("spec", cell.spec) or cell.spec
            cell.attempt = rec.get("attempt", cell.attempt) or cell.attempt
            if rec.get("events_processed") is not None:
                cell.events_processed = rec["events_processed"]
            if rec.get("spans") is not None:
                cell.spans = rec["spans"]
            if rec.get("error") is not None:
                cell.error = rec["error"]
    stalled = []
    for cell in cells.values():
        settled = cell.terminal or cell.state in SETTLED_STATES
        if not settled and now - cell.last_wall > stall_threshold:
            cell.stalled = True
            stalled.append(cell.cell)
    ordered = [cells[i] for i in sorted(cells)]
    return {
        "meta": meta,
        "cells": ordered,
        "stalled": sorted(stalled),
        "counts": _state_counts(ordered),
    }


def _state_counts(cells: List[CellStatus]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for cell in cells:
        counts[cell.state] = counts.get(cell.state, 0) + 1
    return counts


def _age(seconds: float) -> str:
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


def render_status(
    summary: Dict[str, object], *, now: Optional[float] = None
) -> str:
    """Render a :func:`summarize_status` summary as an aligned table."""
    if now is None:
        now = time.time()
    meta = summary["meta"]
    cells: List[CellStatus] = summary["cells"]  # type: ignore[assignment]
    header = "campaign status"
    if meta.get("campaign"):
        header += f": {meta['campaign']}"
    lines = [header, "=" * len(header)]
    counts = summary["counts"]
    totals = ", ".join(f"{state}={n}" for state, n in sorted(counts.items()))
    lines.append(
        f"cells seen: {len(cells)}"
        + (f" of {meta['cells_total']}" if meta.get("cells_total") else "")
        + (f"  [{totals}]" if totals else "")
        + ("  (campaign ended)" if meta.get("ended") else "  (in flight)")
    )
    if cells:
        lines.append("")
        spec_width = max(4, *(len(c.spec) for c in cells))
        lines.append(
            f"{'cell':>4}  {'state':<8} {'age':>6}  {'events':>9}  "
            f"{'spec':<{spec_width}}"
        )
        for cell in cells:
            age = _age(max(now - cell.last_wall, 0.0))
            events = (
                str(cell.events_processed)
                if cell.events_processed is not None
                else "-"
            )
            flag = "  << STALLED" if cell.stalled else ""
            err = f"  ({cell.error})" if cell.error else ""
            lines.append(
                f"{cell.cell:>4}  {cell.state:<8} {age:>6}  {events:>9}  "
                f"{cell.spec:<{spec_width}}{flag}{err}"
            )
    stalled = summary["stalled"]
    if stalled:
        lines.append("")
        lines.append(
            f"STALLED: {len(stalled)} cell(s) silent beyond threshold: "
            + ", ".join(str(i) for i in stalled)
        )
    return "\n".join(lines)


def resolve_status_path(target: Union[str, Path]) -> Path:
    """Accept a status file or a directory containing one."""
    path = Path(target)
    if path.is_dir():
        path = path / STATUS_FILENAME
    return path
