"""Flight recorder: a bounded ring of recent events plus post-mortems.

A :class:`FlightRecorder` keeps the last ``capacity`` trace/causal
events in memory (a ring — total memory is fixed no matter how long the
session runs).  When something goes wrong — an SLO burn-rate alert
fires, the serving loop stalls, or the session crashes — :meth:`dump`
writes a self-contained **post-mortem bundle** directory:

* ``bundle.json``  — manifest: reason, sim time, the offending SLO and
  its burn rates, the seed/scenario identity, and a ready-to-run replay
  command (the determinism contract makes the replay exact).
* ``events.jsonl`` — the ring's recent events, causal-stream shaped, so
  ``repro explain bundle/events.jsonl`` decomposes the blame.
* ``metrics.json`` — the full metrics snapshot at dump time (counters,
  gauges, histogram sketches, span profile when available).
* ``scenario.json`` / ``faults.json`` — the exact session inputs.

Determinism contract: the recorder only *observes* — it polls the
causal tracer's event list by offset and never mutates simulation
state.  Bundle contents are keyed by simulated time; directory names
are sequence-numbered, not timestamped, so repeated runs dump
identically-named bundles.
"""

from __future__ import annotations

import json
import os
import re
from collections import deque
from typing import Dict, List, Optional

__all__ = ["FlightRecorder", "DEFAULT_CAPACITY"]

#: Default ring capacity (events). ~2k events cover several seconds of a
#: busy session — enough context to explain a breach, small enough to
#: hold always-on.
DEFAULT_CAPACITY = 2048

_SLUG_RE = re.compile(r"[^a-z0-9]+")


def _slug(text: str) -> str:
    return _SLUG_RE.sub("-", text.lower()).strip("-") or "event"


class FlightRecorder:
    """Bounded event ring with post-mortem bundle dumps."""

    def __init__(
        self,
        out_dir: str,
        *,
        capacity: int = DEFAULT_CAPACITY,
        registry=None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.out_dir = out_dir
        self.capacity = int(capacity)
        self._ring: deque = deque(maxlen=self.capacity)
        self._headers: List[Dict[str, object]] = []
        self._source: Optional[List[Dict[str, object]]] = None
        self._cursor = 0
        self._seq = 0
        self.dumps: List[str] = []
        self._ctr_dumps = None
        if registry is not None:
            self._ctr_dumps = registry.counter("recorder.dumps_written")

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def attach(self, events: List[Dict[str, object]]) -> None:
        """Follow a live event list (e.g. ``CausalTracer.events``).

        The recorder ingests by offset, so the producer appends freely
        and :meth:`poll` picks up only what is new.
        """
        self._source = events
        self._cursor = 0

    def poll(self) -> int:
        """Ingest events appended to the attached source; return count."""
        if self._source is None:
            return 0
        new = self._source[self._cursor:]
        if new:
            for event in new:
                # Stream headers (run_start) are pinned: the blame
                # decomposition in `repro explain` groups by them, and
                # they must survive ring eviction.
                if event.get("ev") == "run_start":
                    self._headers.append(event)
            self._ring.extend(new)
            self._cursor += len(new)
        return len(new)

    def observe(self, event: Dict[str, object]) -> None:
        """Record one extra event (e.g. an SLO alert's ``as_event()``)."""
        self._ring.append(dict(event))

    @property
    def events(self) -> List[Dict[str, object]]:
        """Pinned headers (when evicted from the ring) + recent ring."""
        ring = list(self._ring)
        evicted = [
            header
            for header in self._headers
            if not any(event is header for event in ring)
        ]
        return evicted + ring

    @property
    def dumps_written(self) -> int:
        return len(self.dumps)

    # ------------------------------------------------------------------
    # Post-mortems
    # ------------------------------------------------------------------
    def dump(
        self,
        reason: str,
        *,
        now: float,
        offending: Optional[Dict[str, object]] = None,
        metrics: Optional[Dict[str, object]] = None,
        scenario: Optional[Dict[str, object]] = None,
        faults: Optional[Dict[str, object]] = None,
        context: Optional[Dict[str, object]] = None,
    ) -> str:
        """Write one post-mortem bundle; return its directory path.

        Args:
            reason: short machine-friendly cause ("slo-breach", "stall",
                "crash", ...); becomes part of the directory name.
            now: simulated time of the dump.
            offending: the breached SLO's spec + burn rates, if any.
            metrics: a metrics snapshot (``registry.as_dict()`` shape).
            scenario: the session scenario's ``to_dict()`` for replay.
            faults: the armed fault plan's ``to_dict()``.
            context: any extra identity (seed, scenario path, argv...).
        """
        self.poll()
        self._seq += 1
        name = f"bundle-{self._seq:03d}-{_slug(reason)}"
        path = os.path.join(self.out_dir, name)
        os.makedirs(path, exist_ok=True)

        events = self.events
        files = ["bundle.json", "events.jsonl"]
        with open(
            os.path.join(path, "events.jsonl"), "w", encoding="utf-8"
        ) as fp:
            for event in events:
                fp.write(json.dumps(event, separators=(",", ":"), default=str))
                fp.write("\n")
        if metrics is not None:
            files.append("metrics.json")
            with open(
                os.path.join(path, "metrics.json"), "w", encoding="utf-8"
            ) as fp:
                json.dump(metrics, fp, indent=2, sort_keys=True, default=str)
                fp.write("\n")
        if scenario is not None:
            files.append("scenario.json")
            with open(
                os.path.join(path, "scenario.json"), "w", encoding="utf-8"
            ) as fp:
                json.dump(scenario, fp, indent=2, sort_keys=True)
                fp.write("\n")
        if faults is not None:
            files.append("faults.json")
            with open(
                os.path.join(path, "faults.json"), "w", encoding="utf-8"
            ) as fp:
                json.dump(faults, fp, indent=2, sort_keys=True)
                fp.write("\n")

        manifest: Dict[str, object] = {
            "reason": reason,
            "t": now,
            "seq": self._seq,
            "events": len(events),
            "files": sorted(files),
        }
        if offending is not None:
            manifest["offending"] = offending
        if context is not None:
            manifest["context"] = dict(context)
        seed = (context or {}).get("seed")
        if scenario is not None and seed is not None:
            manifest["replay"] = (
                f"repro serve {name}/scenario.json --seed {seed}"
                + (f" --faults {name}/faults.json" if faults else "")
            )
        with open(
            os.path.join(path, "bundle.json"), "w", encoding="utf-8"
        ) as fp:
            json.dump(manifest, fp, indent=2, sort_keys=True)
            fp.write("\n")

        self.dumps.append(path)
        if self._ctr_dumps is not None:
            self._ctr_dumps.inc()
        return path
