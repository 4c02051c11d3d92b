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
"""

from __future__ import annotations

import json
import math
import re
import time
from typing import Mapping, Optional

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
