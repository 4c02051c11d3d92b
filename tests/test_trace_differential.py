"""Exact differential: the bytes ``JsonlTraceSink.emit`` writes against
the ``json.dumps``-over-``_json_safe`` body it replaced
(``tests/trace_oracle.py``), plus the pins that keep the gain and the
line accounting from eroding.

``==`` on the text written, no tolerance.  Each example is a *sequence*
of records through one sink, because the fast path is stateful: the same
event name comes back with another key order, another key set and other
value types, and every record must still come out as the oracle writes
it.  The strategy aims at the places where a ``%s`` template and the
JSON encoder could part: ``bool`` beside ``int``, ``-0.0``, subnormals,
``1e22`` (repr switches to exponent form at ``1e16``), non-finite floats
at top level (quoted), nested (quoted) and as ``t`` (``Infinity``), ints
beyond ``2**53``, strings with quotes, backslashes, control characters,
non-ASCII, lone surrogates and ``%``, ``str`` / ``float`` / ``int``
subclasses and numpy scalars, keys that are not ``str``, and fields
named ``event`` / ``t`` / ``wall``, which overwrite the header in place.
"""

from __future__ import annotations

import gzip
import io
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.telemetry import (
    CausalTracer,
    DecisionLog,
    JsonlTraceSink,
    MetricsRegistry,
    RotatingJsonlTraceSink,
    SpanProfiler,
    Telemetry,
)

from repro.network.fabric import NetworkFabric
from repro.network.policies.registry import make_allocator
from repro.placement.base import PlacementRequest
from repro.sim.engine import Engine
from repro.topology.fabrics import single_switch

from tests.test_daemons import CANDIDATES, calls_made, neat_on
from tests.test_goldens import regen_goldens
from tests.trace_oracle import OracleSink, RotatingOracleSink

try:
    import numpy as np
except ImportError:  # the no-numpy leg
    np = None


class Str(str):
    pass


class Float(float):
    pass


class Int(int):
    pass


FLOATS = st.one_of(
    st.floats(),  # nan, +-inf, -0.0 and subnormals included
    st.sampled_from(
        (float("inf"), float("-inf"), float("nan"), -0.0, 0.0, 5e-324,
         2.2250738585072014e-308, 1e22, 1e16, 9999999999999998.0, 1e-7,
         0.1 + 0.2, 0.00018495856073464802)
    ),
)  # fmt: skip
INTS = st.one_of(
    st.integers(),
    st.sampled_from((0, 1, -1, 2**53 + 1, -(2**63), 10**30)),
)
STRINGS = st.one_of(
    st.text(max_size=8),
    st.text(alphabet=st.characters(categories=("Cs", "Cc", "Lu")), max_size=4),
    st.sampled_from(
        ('"', "\\", "\x00\x1f\x7f", "café ☃ \U0001f600", "\ud800",
         "%", "%s", "%%", "%(t)s", "h012", "flow7", "")
    ),
)  # fmt: skip
FOREIGN = [
    STRINGS.map(Str),
    st.floats().map(Float),
    st.integers().map(Int),
]
if np is not None:
    FOREIGN += [
        st.floats().map(np.float64),  # a float subclass: encodes
        st.floats(width=32).map(np.float32),  # not one: TypeError
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        st.booleans().map(np.bool_),
    ]
SCALARS = st.one_of(
    FLOATS, INTS, st.booleans(), st.none(), STRINGS, st.one_of(*FOREIGN)
)
#: Dict keys the encoder accepts: mostly ``str``, the rest coerced.
KEYS = st.one_of(
    st.sampled_from(("host", "type", "latency", "tag", "size", "%", "a\"b")),
    st.sampled_from(("event", "t", "wall")),
    STRINGS,
    st.sampled_from((1, True, None, 1.5, float("inf"))),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(KEYS, inner, max_size=3),
    ),
    max_leaves=6,
)
#: Scalars three times out of four, so the templates are exercised and
#: not only fallen out of.
FIELDS = st.one_of(
    st.none(),
    st.just({}),
    st.dictionaries(KEYS, SCALARS, max_size=5),
    st.dictionaries(KEYS, SCALARS, max_size=5),
    st.dictionaries(KEYS, SCALARS, max_size=5),
    st.dictionaries(KEYS, VALUES, max_size=5),
)
EVENTS = st.one_of(
    st.sampled_from(("bus_message", "flow_arrival", "100%", 'q"uote')), STRINGS
)
TIMES = st.one_of(FLOATS, FLOATS, INTS, st.booleans(), st.none(), *FOREIGN)
RECORDS = st.lists(st.tuples(EVENTS, TIMES, FIELDS), min_size=1, max_size=8)


def emit_all(sink, records):
    """Emit until a record raises; returns the exception type, if any
    (both serialisers refuse the same values, before writing)."""
    for record in records:
        try:
            sink.emit(*record)
        except (TypeError, ValueError, RecursionError) as refused:
            return type(refused)
    return None


def both(records, **kwargs):
    new, old = io.StringIO(), io.StringIO()
    new_sink, old_sink = JsonlTraceSink(new, **kwargs), OracleSink(old, **kwargs)
    assert emit_all(new_sink, records) == emit_all(old_sink, records)
    assert new_sink.events_written == old_sink.events_written
    return new.getvalue(), old.getvalue()


@settings(max_examples=600, deadline=None)
@given(RECORDS)
@example([("e", 0.0, {"event": "x", "t": 1.0})])
@example([("e", 0.0, {"a": 1}), ("e", 0.0, {"a": True}), ("e", 0.0, {"a": 1.0})])
@example([("e", 0.0, {"a": 1, "b": 2}), ("e", 0.0, {"b": 2, "a": 1})])
@example([("e", float("inf"), {"a": float("inf"), "b": [float("nan")]})])
def test_lines_equal_the_reference_serialiser(records):
    new, old = both(records)
    assert new == old


@settings(max_examples=150, deadline=None)
@given(RECORDS)
def test_wall_clock_lines_equal_modulo_the_stamp(records):
    with mock.patch("time.time", return_value=1700000000.25):
        new, old = both(records, wall_clock=True)
    assert new == old
    assert new.count('"wall":') >= new.count("\n")


def test_the_strategy_reaches_both_paths():
    """Guard on the test itself: scalar records take the template and
    nested ones do not (a strategy that only ever fell through to the
    general path would prove nothing about the fast one)."""
    sink = JsonlTraceSink(io.StringIO())
    with mock.patch.object(
        JsonlTraceSink, "_line", side_effect=AssertionError("general path")
    ):
        sink.emit("bus_message", 0.5, {"host": "h1", "n": 1, "ok": True, "x": None})
        assert sink.events_written == 1
        sink.emit("bus_message", 0.5, {"host": "h2", "n": 2, "ok": 0, "x": float("inf")})
        sink.emit("empty", 1.0)
        for sim_time in (float("inf"), 1, None):
            with pytest.raises(AssertionError, match="general path"):
                sink.emit("empty", sim_time)
        for fields in (
            {"event": "x"}, {"t": 1.0}, {"wall": 2.0}, {1: "a"}, {"a": [1]},
            {"a": Str("s")}, {"a": Float(1.0)}, {"a": Int(1)},
        ):  # fmt: skip
            with pytest.raises(AssertionError, match="general path"):
                sink.emit("other", 0.0, fields)
        with pytest.raises(AssertionError, match="general path"):
            JsonlTraceSink(io.StringIO(), wall_clock=True).emit("e", 0.0, {"a": 1})


@settings(max_examples=40, deadline=None)
@given(RECORDS, st.integers(1, 400))
def test_file_rotating_and_gzip_sinks_write_the_same_bytes(records, max_bytes):
    """The three sink variants share the serialiser: same text in a
    plain file and a gzip stream, same segments at the same rotation
    points."""

    def read(path):
        with open(path, "rb") as fp:
            raw = fp.read()
        return gzip.decompress(raw) if ".gz" in path else raw

    with tempfile.TemporaryDirectory() as scratch:
        text = {}
        for label, make in {
            "new": lambda p: JsonlTraceSink(p),
            "old": lambda p: OracleSink(p),
            "new.gz": lambda p: JsonlTraceSink(p + ".gz"),
            "new-rot": lambda p: RotatingJsonlTraceSink(
                p, max_bytes=max_bytes, backups=50
            ),
            "old-rot": lambda p: RotatingOracleSink(
                p, max_bytes=max_bytes, backups=50
            ),
            "new-rot.gz": lambda p: RotatingJsonlTraceSink(
                p + ".gz", max_bytes=max_bytes, backups=50
            ),
        }.items():
            directory = os.path.join(scratch, label)
            os.mkdir(directory)
            with make(os.path.join(directory, "t.jsonl")) as sink:
                emit_all(sink, records)
            text[label] = {
                name.replace(".gz", ""): read(os.path.join(directory, name))
                for name in sorted(os.listdir(directory))
            }
            text[label]["rotations"] = getattr(sink, "rotations", 0)
        assert text["new"] == text["old"] == text["new.gz"]
        assert text["new-rot"] == text["old-rot"] == text["new-rot.gz"]
        assert b"".join(
            text["new-rot"][f"t.jsonl.{n}"]
            for n in range(text["new-rot"]["rotations"], 0, -1)
        ) + text["new-rot"]["t.jsonl"] == text["new"]["t.jsonl"]


def test_sink_state_does_not_grow_with_distinct_tags():
    """Tags are unique per task and a ``repro serve`` session does not
    end: the sink keeps one shape per event name and remembers no
    values (a quoted-string memo measured under 0.1 us a line and was
    not kept)."""
    sink = JsonlTraceSink(io.StringIO())
    for n in range(100_000):
        sink.emit("task_dropped", float(n), {"tag": f"flow{n}"})
    assert sink.events_written == 100_000
    containers = [v for v in vars(sink).values() if isinstance(v, (dict, list, set))]
    assert containers == [{"task_dropped": (("tag",), mock.ANY)}]


def test_every_line_enters_through_emit(monkeypatch):
    """The benchmark bills the trace channel by wrapping
    ``JsonlTraceSink.emit``: on the observed golden scenario, calls ==
    ``events_written`` == lines written == the committed golden's lines."""
    calls = []
    shipped = JsonlTraceSink.emit

    def counted(self, *args, **kwargs):
        calls.append(self)
        return shipped(self, *args, **kwargs)

    monkeypatch.setattr(JsonlTraceSink, "emit", counted)
    text = regen_goldens.generate_observed("fair_neat")["trace.jsonl"]
    lines = text.count("\n")
    golden = regen_goldens.GOLDEN_DIR / "fair_neat.trace.jsonl"
    committed = len(golden.read_text(encoding="utf-8").splitlines())
    assert lines == len(text.splitlines()) == len(calls) == committed
    assert len(set(map(id, calls))) == 1 and calls[0].events_written == lines


def test_observed_calls_per_queried_candidate_stay_bounded():
    """The structural guard on what observation adds to a decision:
    function calls (Python and C) per queried candidate with trace,
    profiler and causal tracer armed, on the pinned 16-host fabric of
    ``test_daemons.TestQueryChain`` (15.4 unobserved).  The parent of
    PR 22 made 94.9 (1,424 for the decision); the cached encoder and
    the shape templates make 73.7 (1,106), dropping the registry's
    wall-clock timers (the profiler spans the same sections) 61.7 (926),
    the query round 44.1 (661), and one probe call and one trace line per
    round of delivered hosts (``note_bus_round``) 27.7 (416), and reads
    that compute residuals without syncing 26.8 (402): the decision
    writes two lines, its ``bus_round`` and its ``placement_decision``."""
    sink = JsonlTraceSink(io.StringIO())
    telemetry = Telemetry(
        registry=MetricsRegistry(),
        trace=sink,
        decisions=DecisionLog(trace=sink),
        profiler=SpanProfiler(),
        causal=CausalTracer(),
    )
    engine = Engine(telemetry=telemetry)
    fabric = NetworkFabric(
        engine, single_switch(16), make_allocator("fair"), telemetry=telemetry
    )
    for i in range(1, 9):  # test_daemons.busy_flow_fabric, observed
        fabric.submit("h000", f"h{i:03d}", 1e9 * i)
    engine.run(until=0.1)
    daemon = neat_on(fabric, telemetry=telemetry).daemon
    request = PlacementRequest(size=5e8, data_node="h000", candidates=CANDIDATES)
    before = sink.events_written
    calls = calls_made(lambda: daemon.place_flow(request))
    assert daemon.decisions[-1].queried_hosts == CANDIDATES
    assert sink.events_written - before == 2
    assert calls / len(CANDIDATES) <= 29
