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

Since 1.18 a coflow's transfers are placed inside one
``NetworkFabric.batch``; placed one allocation per submit instead, the
coflow runs still write the 1.17 files (pinned by sha256), and the rule
in ``tests/trace_oracle.py`` maps them to the committed ones.
"""

from __future__ import annotations

import builtins
import hashlib
import importlib.util
from contextlib import nullcontext
from pathlib import Path

import pytest

from repro.network.fabric import NetworkFabric
from tests.conftest import FILLS, compensated_sum, pin_fill
from tests.test_service import SERVE_DIGESTS, serve_digests
from tests.trace_oracle import (
    batch_coflow_arrivals,
    batch_coflow_rates,
    batch_recompute_counts,
    expand_bus_rounds,
)

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


def test_a_compensated_sum_moves_no_golden(monkeypatch, tmp_path):
    """ROADMAP 9: with ``sum`` compensated, as on CPython 3.12, every golden
    (flow, coflow and observed) and both serve digests come out as
    committed.  The payloads no golden holds are pinned by the next test."""
    inf = float("inf")  # 3.12 keeps an overflowed sum's inf, not a nan
    assert compensated_sum([0.1] * 10) == 1.0 and compensated_sum([inf, 1.0]) == inf
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    produced = {}
    for policy in regen_goldens.POLICIES + regen_goldens.COFLOW_POLICIES:
        produced[f"{policy}.records.jsonl"], produced[f"{policy}.trace.jsonl"] = (
            regen_goldens.generate(policy)
        )
    for name in regen_goldens.OBSERVED:
        for suffix, text in regen_goldens.generate_observed(name).items():
            produced[f"{name}.{suffix}"] = text
    for file, text in produced.items():
        assert text == (GOLDEN_DIR / file).read_text(encoding="utf-8"), file
    for case, digests in SERVE_DIGESTS.items():
        assert serve_digests(case, tmp_path) == digests, case


@pytest.mark.parametrize("patched", [False, True])
def test_a_compensated_sum_moves_no_statistic_or_blame_share(monkeypatch, patched):
    """ROADMAP 9: what no golden holds, bit for bit with ``sum`` as on
    CPython 3.11 and compensated as on 3.12: a repetition aggregate's mean
    and sample stdev (values whose compensated mean is 0.36666666666666664)
    and the causal blame's contender shares of a link (rates summing to
    0.6 compensated, 0.6000000000000001 left)."""
    from repro.experiments.repetitions import aggregate
    from repro.telemetry.causal import _attribute_contention, _FlowState

    if patched:
        monkeypatch.setattr(builtins, "sum", compensated_sum)
    spread = aggregate([0.1, 0.3, 0.7])
    assert (spread.mean, spread.stdev) == (0.3666666666666667, 0.30550504633038933)

    def on_link(flow, rate):
        state = _FlowState(dict(
            flow=flow, src="h000", dst="h001", size=1e9, t=0.0, optimal=1.0,
            path=["L"],
        ))  # fmt: skip
        state.rate_steps.append((0.5, rate))
        return state

    members = [on_link(flow, rate) for flow, rate in enumerate((0.05, 0.1, 0.2, 0.3))]
    link_blame, shares = {}, {}
    _attribute_contention(
        members[0], ("L",), 1.0, 1.0, {"L": [(0.0, 1.0)]}, {"L": members},
        link_blame, shares,
    )  # fmt: skip
    assert link_blame == {"L": 1.0} and shares == {
        "flow#1": 0.16666666666666666,
        "flow#2": 0.3333333333333333,
        "flow#3": 0.4999999999999999,
    }


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
#: their flow, which moved lines but changed none.  ``varys_neat`` is the
#: 1.17 expansion mapped through :func:`batch_coflow_arrivals` (1.18: 43
#: superseded ``rate_recompute`` lines fewer; 1.17 ``c3ce74ff...``).  1.19:
#: reads write no progress, which moved the last bits of a few completion
#: times and scores in ``fair_neat`` (1.18 ``e66f664a...``) and
#: ``faulted_neat`` (1.18 ``71491988...``).
BUS_MESSAGE_DIGESTS = {
    "fair_neat": "8afbd017f61b2f565d6ec8aa863484280b6196301863ef7512e4aa28bf16d92f",
    "faulted_neat": "c0b7423989e91b342a5e925cc97e0a43ec8e41878319fb1088b27f21be9df196",
    "varys_neat": "b59a261284df20962373770ef667d691dfe2958ebd085ab52993af489b87a3e3",
}

#: sha256 of the same expansion of the observed traces, in order
#: (``varys_neat`` mapped as above; 1.17 ``54f83645...``; 1.18 ``76990a8d...``
#: and ``2b487550...`` for the other two).
EXPANDED_DIGESTS = {
    "fair_neat": "1a85b75b10dd2e86b78d7b9e59293714aa399bf64591209becde57e97c68feac",
    "faulted_neat": "9243540af72911dd12ff38eca21d9f8a3cb7854b9b43e3a32145c21012679328",
    "varys_neat": "c5342bc2a4af9ab6e0bf16bdaebdd7575dec6ffc750b6a306255c94def6f50ff",
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


#: sha256 of the 1.17 files that batched coflow arrivals moved, as the
#: per-submit placement still writes them.
PER_SUBMIT_DIGESTS = {
    "varys": {"trace.jsonl": "85a8a8902de888e3ad46171cccad27027b15356a769b168e2942c967a0447a43"},
    "scf": {"trace.jsonl": "a33cb3c4eca4c250edc4bb8a5ab30e8bee29b6df60dee4544e4f8ac8d841efa7"},
    "coflow-fcfs": {"trace.jsonl": "f0183c47fd141f8ac2716ddec78c807f7eb28425a2c34048820d4d226031c0e1"},
    "coflow-las": {"trace.jsonl": "aa6b67fc812b98bd71d276df979db515142c93a68a85a3156d10addd08406957"},
    "coflow-fair": {"trace.jsonl": "f9a460ec2dff3f1c9128d38281ca6cadf558c44c83b598d9398d08045c204c84"},
    "varys_neat": {
        "trace.jsonl": "a43a49d7b7867798188906d3282333687f043cd47908fa65fea89a2614cf56bf",
        "causal.jsonl": "87e943ebca66d2213ce9061dabb5a8ecca31aac1e1ffc1fb46e1d8fbf030462b",
        "registry.json": "c6220a103283607e7af7589993a2e60561acfe0f71b42d3e5023ae6a21ff468e",
    },
}


def _artifacts(name):
    """The files one golden scenario writes, by suffix."""
    if name in regen_goldens.OBSERVED:
        return regen_goldens.generate_observed(name)
    return dict(zip(("records.jsonl", "trace.jsonl"), regen_goldens.generate(name)))


@pytest.mark.parametrize("name", sorted(PER_SUBMIT_DIGESTS))
def test_batched_arrivals_move_the_goldens_by_the_rule(name, monkeypatch):
    """A coflow's submits share one allocation (1.18).  Without the batch
    the run writes the 1.17 files byte for byte; the rule maps them to the
    1.18 ones, and every other file (records, decisions) does not move."""
    batched = _artifacts(name)
    monkeypatch.setattr(NetworkFabric, "batch", lambda self: nullcontext())
    per_submit = _artifacts(name)
    for suffix, digest in PER_SUBMIT_DIGESTS[name].items():
        text = per_submit.pop(suffix)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
        if suffix == "trace.jsonl":
            assert batch_coflow_arrivals(text) == batched[suffix]
        elif suffix == "causal.jsonl":
            assert batch_coflow_rates(text) == batched[suffix]
        else:
            mapped = batch_recompute_counts(text, batched["trace.jsonl"])
            assert mapped == batched[suffix]
    assert per_submit == {suffix: batched[suffix] for suffix in per_submit}
