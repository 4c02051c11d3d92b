"""Golden-trace regression corpus: byte-compare against committed files.

The corpus under ``tests/goldens/`` pins one contended 20-host Clos
scenario per policy (see ``regen_goldens.py`` for the exact knobs and
the regeneration command).  The simulator's completion records and JSONL
trace must match the committed bytes exactly — with every priority
group on the scalar fill, with every group on the numpy fill, and under
the shipped dispatch (``tests/conftest.py`` ``FILLS``), which locks the
kernels' bit-identity contract to a fixed external artifact rather than
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

import importlib.util
from pathlib import Path

import pytest

from tests.conftest import FILLS, pin_fill

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
