"""Output checks, run outside the timed region after every iteration.

The checks know nothing about absolute values: no digest is committed, so
a later legitimate simulation fix shows up as a moved ``sim_gap_mean``
and a changed (but still run-to-run stable) digest, never as a broken
harness.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import List, Sequence, Tuple

#: FCT/CCT may undercut the empty-network optimum by float dust only.
OPTIMAL_SLACK = 1e-9


def _canonical(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def record_digest(records: Sequence) -> str:
    """sha256 of the records as canonical JSON (floats by ``repr``)."""
    payload = [_canonical(asdict(record)) for record in records]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _record_optimal(record) -> float:
    return record.optimal_cct if hasattr(record, "optimal_cct") else record.optimal_fct


def check_records(
    trace, records: Sequence, *, coflows: bool, decisions: int
) -> Tuple[int, int, List[str]]:
    """Check one iteration's completion records against its trace.

    Returns ``(attempted, failed, problems)``: tasks the trace asked for,
    tasks without a completion record, and a description of every
    violated invariant (empty when the output is correct).
    """
    problems: List[str] = []
    if coflows:
        wanted = {a.tag: len(a.transfers) for a in trace.arrivals}
    else:
        wanted = {a.tag: 1 for a in trace.arrivals}
    attempted = sum(wanted.values())

    completed = 0
    seen = set()
    for record in records:
        if record.tag in seen:
            problems.append(f"duplicate completion record for {record.tag!r}")
            continue
        seen.add(record.tag)
        expect = wanted.get(record.tag)
        if expect is None:
            problems.append(f"record for unknown task {record.tag!r}")
            continue
        got = record.num_flows if coflows else 1
        if got != expect:
            problems.append(
                f"{record.tag!r}: {got} transfers completed, trace has {expect}"
            )
        completed += min(got, expect)
        if record.completion_time < record.arrival_time:
            problems.append(f"{record.tag!r} completed before it arrived")
        elapsed = record.completion_time - record.arrival_time
        optimal = _record_optimal(record)
        if elapsed < optimal * (1.0 - OPTIMAL_SLACK):
            problems.append(
                f"{record.tag!r} finished in {elapsed!r}, faster than its "
                f"empty-network optimum {optimal!r}"
            )
    failed = attempted - completed
    if failed:
        problems.append(f"{failed} of {attempted} tasks have no completion")
    if decisions != attempted:
        problems.append(
            f"{decisions} placement decisions for {attempted} tasks"
        )
    return attempted, failed, problems


def gaps(records: Sequence) -> List[float]:
    """``gap_from_optimal`` of every record (the paper's metric)."""
    return [record.gap_from_optimal for record in records]
