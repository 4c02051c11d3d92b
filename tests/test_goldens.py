"""Golden-trace regression corpus: byte-compare against committed files.

The corpus under ``tests/goldens/`` pins one contended 20-host Clos
scenario per policy (see ``regen_goldens.py`` for the exact knobs and
the regeneration command).  The simulator's completion records and JSONL
trace must match the committed bytes exactly — with every priority
group on the scalar fill, with every last group on the column fill, and
under the shipped dispatch (``tests/conftest.py`` ``FILLS``), which locks
the fills' bit-identity contract to a fixed external artifact rather than
only to each other.

The coflow corpus does the same for the five coflow policies (CCT
records + trace on a coflow trace over the same fabric); they have one
fill, so one leg each.

The *observed* corpus pins what the telemetry channels write for NEAT
flow, coflow and faulted runs (trace, causal stream, decision log and
registry snapshot): the proof that a change to how events reach the
channels changed no output.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

from tests.conftest import FILLS, pin_fill
from tests.trace_oracle import expand_bus_rounds

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

_spec = importlib.util.spec_from_file_location(
    "regen_goldens", GOLDEN_DIR / "regen_goldens.py"
)
regen_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_spec and regen_goldens)

@pytest.mark.parametrize("policy", regen_goldens.POLICIES)
@pytest.mark.parametrize("fill", FILLS)
def test_golden_corpus_byte_identical(policy, fill, monkeypatch):
    pin_fill(monkeypatch, fill)
    records_text, trace_text = regen_goldens.generate(policy)
    golden_records = (
        GOLDEN_DIR / f"{policy}.records.jsonl"
    ).read_text(encoding="utf-8")
    golden_trace = (GOLDEN_DIR / f"{policy}.trace.jsonl").read_text(
        encoding="utf-8"
    )
    assert records_text == golden_records, (
        f"{policy}/{fill}: completion records diverge from the golden "
        "corpus; if intentional, regenerate via "
        "`PYTHONPATH=src python tests/goldens/regen_goldens.py` and review"
    )
    assert trace_text == golden_trace, (
        f"{policy}/{fill}: JSONL trace diverges from the golden corpus"
    )


@pytest.mark.parametrize("policy", regen_goldens.COFLOW_POLICIES)
def test_coflow_corpus_byte_identical(policy):
    records_text, trace_text = regen_goldens.generate(policy)
    for suffix, text in (("records", records_text), ("trace", trace_text)):
        golden = (GOLDEN_DIR / f"{policy}.{suffix}.jsonl").read_text(
            encoding="utf-8"
        )
        assert text == golden, (
            f"{policy}: {suffix} diverge from the golden corpus; if "
            "intentional, regenerate via `PYTHONPATH=src python "
            "tests/goldens/regen_goldens.py` and review"
        )


@pytest.mark.parametrize("name", regen_goldens.OBSERVED)
@pytest.mark.parametrize("fill", FILLS)
def test_observed_corpus_byte_identical(name, fill, monkeypatch):
    pin_fill(monkeypatch, fill)
    produced = regen_goldens.generate_observed(name)
    assert sorted(produced) == sorted(regen_goldens.OBSERVED_ARTIFACTS)
    for suffix, text in produced.items():
        golden = (GOLDEN_DIR / f"{name}.{suffix}").read_text(encoding="utf-8")
        assert text == golden, (
            f"{name}/{fill}: {suffix} diverges from the golden corpus; "
            "if intentional, regenerate via `PYTHONPATH=src python "
            f"tests/goldens/regen_goldens.py {name}` and review"
        )


#: sha256 of the 1.14 observed traces, one ``bus_message`` line per
#: delivered message (the goldens before ``bus_round``), lines sorted:
#: since 1.17 completion listeners run after the recompute that settled
#: their flow, which moved lines but changed none.
BUS_MESSAGE_DIGESTS = {
    "fair_neat": "e66f664a70101e4e3d5875d87384b916148592e50a7d1d5dec70cde634457877",
    "faulted_neat": "714919880aba6cd61f2c2196002d4d35742d9be8dcf2ee614390903823965269",
    "varys_neat": "c3ce74ffe99566108ee8f190ef23f84daa771c586c146bd3137754e8c2337fcc",
}

#: sha256 of the same expansion of the 1.17 observed traces, in order.
EXPANDED_DIGESTS = {
    "fair_neat": "76990a8d6aac72be4044e774fa02eea5afc54fd4198a227baa904f8bf32dcb3f",
    "faulted_neat": "2b487550ed39aefd84230acede7ec47ce00c0c56064c642025e526e562847d53",
    "varys_neat": "54f83645c824ed6e524fe05e679b795c7eb9eb73f34c6e3f2b8f709b61c4d0dc",
}


@pytest.mark.parametrize("name", sorted(BUS_MESSAGE_DIGESTS))
def test_bus_rounds_expand_to_the_per_message_traces(name):
    """1.15's ``bus_round`` loses nothing: each line expanded into one
    ``bus_message`` line per host gives the 1.14 trace's lines (as a
    sorted multiset: 1.17 moved lines), and the expansion itself is
    pinned byte for byte."""
    trace = regen_goldens.generate_observed(name)["trace.jsonl"]
    assert '"event":"bus_round"' in trace and "bus_message" not in trace
    expanded = expand_bus_rounds(trace)
    lines = "".join(sorted(expanded.splitlines(keepends=True))).encode("utf-8")
    assert hashlib.sha256(lines).hexdigest() == BUS_MESSAGE_DIGESTS[name]
    digest = hashlib.sha256(expanded.encode("utf-8")).hexdigest()
    assert digest == EXPANDED_DIGESTS[name]
