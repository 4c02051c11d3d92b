"""Source budgets: the size PR 21 reached and the idioms it deleted.

The telemetry package was a quarter of ``src/repro`` and grew a disabled
twin per channel; both were removed by deleting duplicate bookkeeping,
not by denser formatting.  These checks keep either from growing back
unnoticed: raise a budget only together with the CHANGES.md entry that
explains what the new lines buy.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Physical-line ceilings.  Every raise came with the CHANGES.md entry
#: that says what the lines buy: the trace serialiser's fast paths, the
#: sharing components the fabric keeps (which added ``network``), the numpy
#: fill's two reductions with their stated arguments, and the coflow
#: query's lean fabric reads (``network`` and the whole tree +40 each).
#: Every cut lowers its budget to what is left: the fabric's second
#: (full-recompute) mode and its shadow verifier took ``network`` from
#: 2,120 to 2,054 and the whole tree from 21,983 to 21,903; the registry's
#: wall-clock timers (the span profiler's duplicate) took
#: ``telemetry+metrics`` from 5,680 to 5,569 and the whole tree to 21,774.
#: label -> (packages under ``src/repro``, budget); ``""`` is the whole tree.
BUDGETS = {
    "telemetry+metrics": (("telemetry", "metrics"), 5569),
    "service": (("service",), 1620),
    "network": (("network",), 2054),
    "repro": (("",), 21774),
}

NULL_LAYER = re.compile(
    r"NULL_(REGISTRY|PROFILER|TRACE|DECISIONS|CAUSAL|TELEMETRY)"
    r"|Null(MetricsRegistry|Profiler)"
)

#: A read of a channel's on/off flag: off is ``None``, so there is none.
CHANNEL_FLAG_READ = re.compile(
    r"\b(telemetry|tele|registry|reg|trace|_trace|sink|decisions"
    r"|_decision_log|profiler|causal)\.(enabled|active)\b"
)

#: A telemetry class growing such a flag back (attribute or property).
CHANNEL_FLAG_DEFINITION = re.compile(
    r"\b(enabled|active)\s*(:\s*bool\s*)?=\s*(True|False)\b"
    r"|def (enabled|active)\("
)


def _sources(*packages: str):
    for package in packages:
        yield from sorted((SRC / package).rglob("*.py"))


def _physical_lines(*packages: str) -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in _sources(*packages)
    )


def _matches(pattern: re.Pattern, *packages: str):
    return [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in _sources(*packages)
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1
        )
        if pattern.search(line)
    ]


@pytest.mark.parametrize("label", sorted(BUDGETS))
def test_package_stays_within_its_line_budget(label):
    packages, budget = BUDGETS[label]
    lines = _physical_lines(*packages)
    assert lines <= budget, f"{label}: {lines} physical lines, budget {budget}"


def test_null_object_layer_stays_deleted():
    assert _matches(NULL_LAYER, "") == []


def test_no_channel_on_off_flags():
    assert _matches(CHANNEL_FLAG_READ, "") == []
    assert _matches(CHANNEL_FLAG_DEFINITION, "telemetry") == []


def test_service_names_live_in_the_metrics_channel_only():
    """``repro.service`` reports through the probe: it makes no registry
    accessor call (``MetricsProbe`` spells every ``service.*`` name)."""
    accessor = re.compile(r"\.(counter|gauge|histogram)\(")
    assert _matches(accessor, "service") == []


def test_telemetry_reads_the_wall_clock_in_the_profiler_only():
    """One timed channel: wall time per subsystem is the span profiler's,
    so no other telemetry module keeps a stopwatch of its own."""
    readers = {
        match.split(":", 1)[0]
        for match in _matches(re.compile(r"\bperf_counter\b"), "telemetry")
    }
    assert readers == {"telemetry/profiler.py"}
