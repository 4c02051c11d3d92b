"""Test-only oracle: the JSONL trace serialiser as it stood before the
cached encoder and the shape templates (PR 22), verbatim.

A line's bytes are *defined* by this body: ``json.dumps`` with compact
separators over the header plus each field passed through
:func:`_json_safe`.  ``repro.telemetry.trace.JsonlTraceSink`` claims to
write the same bytes through cheaper paths, and
``tests/test_trace_differential.py`` checks that claim with ``==`` (no
tolerance).  The oracle sinks subclass the shipped ones for what did not
change (opening, rotation, closing) and restore the two ``emit`` bodies
and ``_line`` as they were.  Nothing under ``src/`` imports this module.

:func:`expand_bus_rounds` is the 1.15 schema change's expansion rule: a
``bus_round`` line is the 1.14 ``bus_message`` lines of its hosts, so
expanding a trace gives the 1.14 bytes back.

:func:`batch_coflow_arrivals`, :func:`batch_coflow_rates` and
:func:`batch_recompute_counts` are the 1.18 rule: a coflow's transfers are
placed inside one ``NetworkFabric.batch``, so the allocations each submit
made (one ``rate_recompute`` line, one ``rate`` event per changed rate, one
count) give way to one made after the coflow is sealed.  They map a 1.17
trace, causal stream and registry snapshot to the 1.18 ones.
"""

from __future__ import annotations

import json
import math
import re
import time
from typing import Mapping, Optional

from repro.telemetry.registry import Histogram
from repro.telemetry.trace import JsonlTraceSink, RotatingJsonlTraceSink


def _json_safe(value):
    """Replace non-finite floats (JSON has no inf/nan) with strings."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


class OracleSink(JsonlTraceSink):
    def _line(
        self, event: str, sim_time: float, fields: Optional[Mapping[str, object]]
    ) -> str:
        """One record serialised as its JSONL line."""
        record = {"event": event, "t": sim_time}
        if self._wall_clock:
            record["wall"] = time.time()
        if fields:
            for key, value in fields.items():
                record[key] = _json_safe(value)
        return json.dumps(record, separators=(",", ":")) + "\n"

    def emit(
        self,
        event: str,
        sim_time: float,
        fields: Optional[Mapping[str, object]] = None,
    ) -> None:
        if self._closed:
            return
        self._fp.write(self._line(event, sim_time, fields))
        self._events_written += 1


class RotatingOracleSink(RotatingJsonlTraceSink):
    _line = OracleSink._line

    def emit(
        self,
        event: str,
        sim_time: float,
        fields: Optional[Mapping[str, object]] = None,
    ) -> None:
        if self._closed:
            return
        line = self._line(event, sim_time, fields)
        # Rotate *before* writing when the record would overflow the
        # segment, so a record never straddles two files and rotation
        # points depend only on the byte stream (deterministic).
        if (
            self._segment_bytes
            and self._segment_bytes + len(line) > self._max_bytes
        ):
            self._rotate()
        self._fp.write(line)
        self._segment_bytes += len(line)
        self._events_written += 1


_BUS_ROUND = re.compile(
    r'\{"event":"bus_round","t":([^,]+),"hosts":(\[[^\]]*\]),"type":(.+),'
    r'"latency":([^,]+)\}'
)


def expand_bus_rounds(text: str) -> str:
    """Every ``bus_round`` line of ``text`` turned into one 1.14
    ``bus_message`` line per host, in order, with the round's ``t``,
    ``type`` and ``latency`` text kept as written."""
    lines = []
    for line in text.splitlines(keepends=True):
        match = _BUS_ROUND.fullmatch(line.rstrip("\n"))
        if match is None:
            lines.append(line)
            continue
        t, hosts, kind, latency = match.groups()
        for host in json.loads(hosts):
            lines.append(
                f'{{"event":"bus_message","t":{t},"host":{json.dumps(host)},'
                f'"type":{kind},"latency":{latency}}}\n'
            )
    return "".join(lines)


def batch_coflow_arrivals(text: str) -> str:
    """A 1.17 trace as 1.18 writes it: the ``rate_recompute`` lines from a
    coflow's first ``flow_arrival`` to its ``coflow_arrival`` go, and the
    last of them (the allocation of every flow placed) follows
    ``coflow_arrival``."""
    lines, first = [], {}
    for line in text.splitlines(keepends=True):
        record = json.loads(line)
        if record["event"] == "flow_arrival":
            first.setdefault(record["tag"], len(lines))
        elif record["event"] == "coflow_arrival" and record["tag"] in first:
            start = first.pop(record["tag"])
            placed = lines[start:]
            del lines[start:]
            recomputes = [l for l in placed if '"event":"rate_recompute"' in l]
            lines += [l for l in placed if '"event":"rate_recompute"' not in l]
            lines += [line, *recomputes[-1:]]
            continue
        lines.append(line)
    return "".join(lines)


def batch_coflow_rates(text: str) -> str:
    """A 1.17 causal stream as 1.18 writes it: the ``rate`` events from a
    coflow's first ``flow`` event to its ``coflow`` event go, and after
    ``coflow`` comes the last of them for each flow whose rate then differs
    from its rate before that first ``flow`` (0 for a new flow), in
    flow-id order (one splice)."""
    lines, rates, first = [], {}, {}
    for line in text.splitlines(keepends=True):
        record = json.loads(line)
        if record["ev"] == "flow":
            first.setdefault(record["trace"], (len(lines), dict(rates)))
        elif record["ev"] == "rate":
            rates[record["flow"]] = record["rate"]
        elif record["ev"] == "coflow" and record["trace"] in first:
            start, before = first.pop(record["trace"])
            placed = lines[start:]
            del lines[start:]
            last = {}
            for placed_line in placed:
                if placed_line.startswith('{"ev":"rate",'):
                    last[json.loads(placed_line)["flow"]] = placed_line
                else:
                    lines.append(placed_line)
            lines.append(line)
            lines += [
                last[flow] for flow in sorted(last)
                if rates[flow] != before.get(flow, 0.0)
            ]
            continue
        lines.append(line)
    return "".join(lines)


def batch_recompute_counts(registry: str, trace: str) -> str:
    """A 1.17 registry snapshot (``json.dumps(..., indent=1,
    sort_keys=True)``) of a coflow run as 1.18 writes it: the full-recompute
    count and the component-size histogram re-derived from the
    ``rate_recompute`` lines of ``trace``, the run's 1.18 trace."""
    snapshot = json.loads(registry)
    sizes = Histogram("fabric.recompute.component_flows")
    for line in trace.splitlines():
        if '"event":"rate_recompute"' in line:
            sizes.observe(json.loads(line)["component_flows"])
    snapshot["counters"]["fabric.recompute.full"] = float(sizes.count)
    snapshot["histograms"][sizes.name] = sizes.summary()
    return json.dumps(snapshot, indent=1, sort_keys=True) + "\n"
