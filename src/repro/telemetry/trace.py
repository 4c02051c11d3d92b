"""Structured JSONL trace sink for DES lifecycle events.

Every line is one JSON object with at least ``event`` (the record type)
and ``t`` (simulation time).  The simulation core never builds a record:
:class:`TraceProbe` subscribes a sink to the probe
(:mod:`repro.telemetry.probe`) and owns every payload below.  The
decision log emits its two records through :meth:`TraceSink.emit`
directly.  Tracing off is ``Telemetry.trace is None``: there is no
disabled sink.

Determinism contract: with wall-clock stamping off (the default), two
runs from the same seed produce **byte-identical** trace files.  Any
field carrying wall-clock data must be named with a ``wall`` prefix so
readers (and the determinism tests) can strip it.  A line's bytes are
defined by the reference, compact ``json.dumps`` over :func:`_json_safe`
fields; the cached encoder and the per-event templates behind ``emit``
are proven equal to it (``tests/test_trace_differential.py``).

Event vocabulary produced by the stack:

=========================  ===================================================
``run_start``/``run_end``  one replay's boundaries (placement, network policy)
``flow_arrival``           fabric ingress: id, src/dst, size, tag
``flow_completion``        fabric egress: fct, optimal fct, gap
``rate_recompute``         allocator invocation: active flow count plus the
                           dirty sharing-component size (flows and links)
``link_down``              failed link: id, flows evacuated off it
``link_degrade``           capacity change: link, factor, new capacity
``host_down``              failed host
``flow_reroute``           evacuated flow's new path
``flow_abort``             evacuated flow with no path left: remaining bits
``coflow_arrival``         sealed coflow: width, total bits
``coflow_completion``      cct, optimal cct
``bus_message``            control-plane round trip: host, type, rtt
``bus_drop``               lost control message: host, type, reason
``bus_push``               one-way state push: host, type, delay
``placement_decision``     candidates, preferred set, per-candidate scores
``decision_outcome``       realized completion joined back to the decision
``fault_applied``          one fault-plan event taking effect (its payload)
``task_dropped``           arrival shed by a fault: tag
``engine_run``             events processed, heap high-water mark
=========================  ===================================================
"""

from __future__ import annotations

import gzip
import io
import json
import math
import os
import time
from typing import IO, Dict, List, Mapping, Optional, Tuple, Union

__all__ = [
    "TraceSink",
    "JsonlTraceSink",
    "RotatingJsonlTraceSink",
    "TraceProbe",
    "read_trace",
    "read_rotated_trace",
]


def _is_gzip_path(path: str) -> bool:
    # Rotation renames "t.jsonl.gz" to "t.jsonl.gz.1", so a numeric
    # rotation suffix after ".gz" still names a gzip stream.
    base, dot, suffix = path.rpartition(".")
    if dot and suffix.isdigit():
        path = base
    return path.endswith(".gz")


def _open_trace_for_write(path: str) -> IO[str]:
    """Open a trace path for writing, transparently gzip for ``*.gz``.

    The gzip stream is built with ``mtime=0`` and no embedded filename,
    so two same-seed runs produce **byte-identical compressed files** —
    the determinism contract survives compression.  Closing the returned
    wrapper closes the whole chain (gzip trailer included).
    """
    if not _is_gzip_path(path):
        return open(path, "w", encoding="utf-8", newline="")
    raw = open(path, "wb")
    try:
        gz = gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0)
    except BaseException:
        raw.close()
        raise

    wrapper = io.TextIOWrapper(gz, encoding="utf-8", newline="")
    original_close = wrapper.close

    def close_chain() -> None:
        try:
            original_close()  # flushes text buffer, closes gz (trailer)
        finally:
            raw.close()

    wrapper.close = close_chain  # type: ignore[method-assign]
    return wrapper


def _open_trace_for_read(path: str) -> IO[str]:
    if _is_gzip_path(path):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


#: The general path's encoder, built once (``json.dumps`` with arguments
#: builds one per call).  It refuses non-finite floats, which sends the
#: record through :func:`_json_safe`, the reference.
_encode = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode
_quote = json.encoder.encode_basestring_ascii


def _json_safe(value):
    """Replace non-finite floats (JSON has no inf/nan) with strings."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


class TraceSink:
    """The sink interface: :meth:`emit` one record, :meth:`close` once."""

    def emit(
        self,
        event: str,
        sim_time: float,
        fields: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Record one event at ``sim_time`` with extra ``fields``."""

    def close(self) -> None:
        """Flush and release resources (idempotent)."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class JsonlTraceSink(TraceSink):
    """Writes one JSON object per line to a file or file-like object.

    Args:
        target: path to (over)write, or an open text file object.  A
            path ending in ``.gz`` writes a deterministic gzip stream
            (``mtime=0``), still byte-identical across same-seed runs.
        wall_clock: also stamp every record with ``wall`` (unix seconds).
            Off by default so traces are byte-identical across same-seed
            runs; when on, determinism holds *modulo* ``wall*`` fields.
    """

    def __init__(
        self, target: Union[str, IO[str]], *, wall_clock: bool = False
    ) -> None:
        if isinstance(target, str):
            self._fp: IO[str] = _open_trace_for_write(target)
            self._owns_fp = True
        else:
            self._fp = target
            self._owns_fp = False
        self._wall_clock = wall_clock
        self._events_written = 0
        self._closed = False
        # Event name -> (field keys last seen, their line template).
        self._shapes: Dict[str, Tuple[tuple, Optional[str]]] = {}
        # The last ``t`` object written and its text: the records of one
        # simulated instant (a decision's ~87 ``bus_message`` lines) share it.
        self._stamp: Tuple[float, str] = (0.0, "0.0")

    @property
    def events_written(self) -> int:
        return self._events_written

    def _line(
        self, event: str, sim_time: float, fields: Optional[Mapping[str, object]]
    ) -> str:
        """One record serialised by the general path: any JSON value."""
        record = {"event": event, "t": sim_time}
        if self._wall_clock:
            record["wall"] = time.time()
        if fields:
            record.update(fields)
        try:
            return _encode(record) + "\n"
        except ValueError:  # a non-finite float: the reference serialiser
            for key, value in (fields or {}).items():
                record[key] = _json_safe(value)
            return json.dumps(record, separators=(",", ":")) + "\n"

    def _template(self, event: str, keys: tuple) -> Optional[str]:
        """``event``'s line over ``keys`` as a ``%s`` template; ``None``
        when only the general path writes it: wall-clock stamping, a key
        that is not a ``str``, or one that overwrites the header in place."""
        if (
            self._wall_clock
            or not {"event", "t", "wall"}.isdisjoint(keys)
            or any(type(name) is not str for name in (event, *keys))
        ):
            return None
        names = [_quote(name).replace("%", "%%") for name in (event, *keys)]
        slots = "".join(f",{name}:%s" for name in names[1:])
        return f'{{"event":{names[0]},"t":%s{slots}}}\n'

    def _templated(self, template: str, sim_time, fields) -> Optional[str]:
        """``template`` filled with exact scalars, or ``None`` for a
        nested value, a subclass or a foreign scalar (general path).  A
        non-finite field is written quoted, a non-finite ``t`` is not."""
        if sim_time is not self._stamp[0]:
            if type(sim_time) is not float or not math.isfinite(sim_time):
                return None
            self._stamp = (sim_time, repr(sim_time))
        texts = [self._stamp[1]]
        for value in fields.values() if fields else ():
            kind = type(value)
            if kind is str:
                text = _quote(value)
            elif kind is float:
                text = repr(value) if math.isfinite(value) else f'"{value!r}"'
            elif kind is int:
                text = repr(value)
            elif kind is bool:
                text = "true" if value else "false"
            elif value is None:
                text = "null"
            else:
                return None
            texts.append(text)
        return template % tuple(texts)

    def _write(self, line: str) -> None:
        self._fp.write(line)

    def emit(
        self,
        event: str,
        sim_time: float,
        fields: Optional[Mapping[str, object]] = None,
    ) -> None:
        if self._closed:
            return
        keys = tuple(fields) if fields else ()
        shape = self._shapes.get(event)
        if shape is None or shape[0] != keys:
            shape = self._shapes[event] = (keys, self._template(event, keys))
        line = shape[1] and self._templated(shape[1], sim_time, fields)
        self._write(line or self._line(event, sim_time, fields))
        self._events_written += 1

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns_fp:
            self._fp.close()
        else:
            self._fp.flush()


class RotatingJsonlTraceSink(JsonlTraceSink):
    """A :class:`JsonlTraceSink` that rotates by size, keeping backups.

    A thousand-cell campaign's traces outgrow any single file; this sink
    caps the active segment at ``max_bytes`` of *uncompressed* JSONL and
    rotates: ``path`` becomes ``path.1``, the previous ``path.1``
    becomes ``path.2``, … and the segment beyond ``backups`` is deleted.
    Rotation points are byte counts of the serialized records, so two
    same-seed runs rotate at identical events and every surviving
    segment is byte-identical (gzip segments included — ``.gz`` paths
    compress each segment deterministically with ``mtime=0``).

    Read the whole set back with :func:`read_rotated_trace`.
    """

    def __init__(
        self,
        path: str,
        *,
        max_bytes: int = 4 * 1024 * 1024,
        backups: int = 4,
        wall_clock: bool = False,
    ) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes!r}")
        if backups < 1:
            raise ValueError(f"backups must be >= 1, got {backups!r}")
        super().__init__(path, wall_clock=wall_clock)
        self._path = path
        self._max_bytes = max_bytes
        self._backups = backups
        self._segment_bytes = 0
        self._rotations = 0

    @property
    def rotations(self) -> int:
        return self._rotations

    def _rotate(self) -> None:
        self._fp.close()
        oldest = f"{self._path}.{self._backups}"
        try:
            os.remove(oldest)
        except OSError:
            pass
        for n in range(self._backups - 1, 0, -1):
            src = f"{self._path}.{n}"
            if os.path.exists(src):
                os.replace(src, f"{self._path}.{n + 1}")
        os.replace(self._path, f"{self._path}.1")
        self._fp = _open_trace_for_write(self._path)
        self._segment_bytes = 0
        self._rotations += 1

    def _write(self, line: str) -> None:
        # Rotate *before* writing when the record would overflow the
        # segment, so a record never straddles two files and rotation
        # points depend only on the byte stream (deterministic).
        if (
            self._segment_bytes
            and self._segment_bytes + len(line) > self._max_bytes
        ):
            self._rotate()
        super()._write(line)
        self._segment_bytes += len(line)


class TraceProbe:
    """Probe channel writing the event vocabulary above into a sink."""

    def __init__(self, sink: TraceSink) -> None:
        self._emit = sink.emit
        self._run: Dict[str, object] = {}

    def begin_run(self, t, placement, network_policy, *_components) -> None:
        self._run = {"placement": placement, "network_policy": network_policy}
        self._emit("run_start", t, self._run)

    def end_run(self, t, records, events_processed) -> None:
        self._emit(
            "run_end",
            t,
            {
                **self._run,
                "records": records,
                "events_processed": events_processed,
            },
        )

    def on_engine_stats(
        self, t, events_processed, heap_high_water, pending, new_events
    ) -> None:
        self._emit(
            "engine_run",
            t,
            {
                "events_processed": events_processed,
                "heap_high_water": heap_high_water,
                "pending": pending,
            },
        )

    def on_flow_submit(self, t, flow, optimal) -> None:
        self._emit(
            "flow_arrival",
            t,
            {
                "flow_id": flow.flow_id,
                "src": flow.src,
                "dst": flow.dst,
                "size": flow.size,
                "tag": flow.tag,
                "local": flow.is_local,
            },
        )

    def on_recompute(
        self, t, active, component_flows, component_links, scoped
    ) -> None:
        self._emit(
            "rate_recompute",
            t,
            {
                "active_flows": active,
                "component_flows": component_flows,
                "component_links": component_links,
            },
        )

    def on_flow_done(self, t, record) -> None:
        self._emit(
            "flow_completion",
            t,
            {
                "flow_id": record.flow_id,
                "tag": record.tag,
                "size": record.size,
                "fct": record.fct,
                "optimal_fct": record.optimal_fct,
            },
        )

    def on_capacity(self, t, link, capacity, factor=None, victims=0) -> None:
        if factor is None:
            self._emit("link_down", t, {"link": link, "victims": victims})
        else:
            self._emit(
                "link_degrade",
                t,
                {"link": link, "factor": factor, "capacity": capacity},
            )

    def on_host_down(self, t, host) -> None:
        self._emit("host_down", t, {"host": host})

    def on_reroute(self, t, flow) -> None:
        self._emit(
            "flow_reroute",
            t,
            {"flow_id": flow.flow_id, "tag": flow.tag, "path": list(flow.path)},
        )

    def on_abort(self, t, flow) -> None:
        self._emit(
            "flow_abort",
            t,
            {
                "flow_id": flow.flow_id,
                "tag": flow.tag,
                "remaining": flow.remaining,
            },
        )

    def on_coflow(self, t, coflow) -> None:
        self._emit(
            "coflow_arrival",
            t,
            {
                "coflow_id": coflow.coflow_id,
                "num_flows": len(coflow.flows),
                "total_size": coflow.total_size,
                "tag": coflow.tag,
            },
        )

    def on_coflow_done(self, t, record) -> None:
        self._emit(
            "coflow_completion",
            t,
            {
                "coflow_id": record.coflow_id,
                "num_flows": record.num_flows,
                "total_size": record.total_size,
                "cct": record.cct,
                "optimal_cct": record.optimal_cct,
                "tag": record.tag,
            },
        )

    def note_bus_message(self, t, host, payload, rtt) -> None:
        self._emit(
            "bus_message",
            t,
            {"host": host, "type": type(payload).__name__, "latency": rtt},
        )

    def note_bus_drop(self, t, host, payload, reason) -> None:
        self._emit(
            "bus_drop",
            t,
            {"host": host, "type": type(payload).__name__, "reason": reason},
        )

    def on_bus_push(self, t, host, payload, delay) -> None:
        self._emit(
            "bus_push",
            t,
            {"host": host, "type": type(payload).__name__, "delay": delay},
        )

    def on_fault(self, t, payload) -> None:
        self._emit("fault_applied", t, payload)

    def on_task_dropped(self, t, tag) -> None:
        self._emit("task_dropped", t, {"tag": tag})


def read_trace(path: str) -> List[Dict[str, object]]:
    """Read a JSONL trace back into a list of event dicts.

    Transparently decompresses ``*.gz`` traces.  Tolerates a truncated
    final line (a run killed mid-write leaves at most one partial
    record; it is dropped).  A malformed line anywhere *else* is
    corruption, not truncation, and raises ``ValueError``.
    """
    events: List[Dict[str, object]] = []
    bad_line: Optional[int] = None
    with _open_trace_for_read(path) as fp:
        for number, line in enumerate(fp, 1):
            if bad_line is not None:
                raise ValueError(
                    f"{path}:{bad_line}: malformed trace record "
                    "(not a truncated tail; file is corrupt)"
                )
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                bad_line = number
    return events


def read_rotated_trace(path: str) -> List[Dict[str, object]]:
    """Read a rotated trace set back as one event list, oldest first.

    Segments are ``path.N`` (highest N = oldest) followed by the active
    ``path``; a plain un-rotated trace (no ``path.1``) reads the same as
    :func:`read_trace`.
    """
    segments: List[str] = []
    n = 1
    while os.path.exists(f"{path}.{n}"):
        segments.append(f"{path}.{n}")
        n += 1
    segments.reverse()  # oldest (highest N) first
    if os.path.exists(path):
        segments.append(path)
    events: List[Dict[str, object]] = []
    for segment in segments:
        events.extend(read_trace(segment))
    return events
