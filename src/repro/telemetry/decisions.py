"""Placement-decision explainability: why each host was chosen.

For every placement the stack records the full evidence trail —
candidate set, preferred-host filter outcome, per-candidate predicted
completion times, and the chosen host — and, once the placed flow (or
coflow) completes, joins the *realized* completion time back onto the
decision to yield a per-decision prediction error.  This generalizes the
paper's Figure 10 (per-flow FCT prediction error) to every decision of
every policy: the ``minfct`` baseline's predictions join the same way,
and score-based baselines (minLoad's queued bits, minDist's hop counts)
keep their evidence even though no error is defined for them.

The log mirrors each record into the structured trace
(:mod:`repro.telemetry.trace`) as ``placement_decision`` /
``decision_outcome`` events, and keeps everything in memory for the
report and for programmatic analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.stats import mean, percentile
from repro.telemetry.trace import TraceSink

__all__ = ["DecisionRecord", "DecisionLog"]

#: ``score_kind`` for scores that are predicted completion times in
#: seconds; only these decisions can be joined into prediction errors.
PREDICTED_TIME = "predicted_time"


@dataclass
class DecisionRecord:
    """One placement decision with its evidence and (later) its outcome.

    Attributes:
        decision_id: monotonically increasing id within one log.
        time: simulation time of the decision.
        kind: ``"flow"``, ``"coflow"`` (one flow of a coflow), or
            ``"reducer"`` (many-to-one destination choice).
        placement: policy label (set via :meth:`DecisionLog.set_context`).
        network_policy: scheduling policy label (same source).
        tag: the task/coflow tag used to join the realized outcome.
        size: bits the decision placed.
        data_node: where the input data lives.
        candidates: the full candidate set offered to the policy.
        preferred: survivors of the preferred-host (node state) filter —
            equal to ``candidates`` for policies without the filter.
        used_fallback: the filter emptied and fell back to everyone.
        scores: per-scored-host ``(host, score)`` pairs, in query order.
        score_kind: what the scores mean (``"predicted_time"`` seconds,
            ``"queued_bits"``, ``"hops"``, ``"random"``...).
        chosen: the winning host.
        predicted_time: predicted completion seconds for ``chosen``
            (``None`` when scores are not times).
        realized_time: actual completion seconds, joined at completion.
        error: relative prediction error ``(realized - predicted) /
            predicted`` (``None`` until joined, or when undefined).
    """

    decision_id: int
    time: float
    kind: str
    placement: str
    network_policy: str
    tag: str
    size: float
    data_node: object
    candidates: Tuple[object, ...]
    preferred: Tuple[object, ...]
    used_fallback: bool
    scores: Tuple[Tuple[object, float], ...]
    score_kind: str
    chosen: object
    predicted_time: Optional[float] = None
    realized_time: Optional[float] = None
    error: Optional[float] = None


class DecisionLog:
    """Collects :class:`DecisionRecord` and joins realized outcomes."""

    def __init__(self, *, trace: Optional[TraceSink] = None) -> None:
        self._trace = trace
        self._records: List[DecisionRecord] = []
        self._pending: Dict[str, List[DecisionRecord]] = {}
        self._placement = ""
        self._network_policy = ""
        self._next_id = 0

    # ------------------------------------------------------------------
    # Context
    # ------------------------------------------------------------------
    def set_context(
        self, *, placement: str = "", network_policy: str = ""
    ) -> None:
        """Label subsequent decisions with the current run's policies.

        Clears unjoined decisions of the previous run (their flows will
        never complete in the new run's fabric).
        """
        self._placement = placement
        self._network_policy = network_policy
        self._pending.clear()

    def bind(self, fabric) -> None:
        """Join flow completions from ``fabric`` back onto decisions."""
        fabric.add_completion_listener(
            lambda flow, record: self.note_completed(
                record.tag, record.fct, record.completion_time
            )
        )

    def bind_coflows(self, tracker) -> None:
        """Join coflow completions from ``tracker`` onto decisions."""
        tracker.add_completion_listener(
            lambda coflow, record: self.note_completed(
                record.tag, record.cct, record.completion_time
            )
        )

    # ------------------------------------------------------------------
    # Probe points (repro.telemetry.probe)
    # ------------------------------------------------------------------
    def begin_run(
        self, t, placement, network_policy, fabric, tracker=None
    ) -> None:
        """Label the run and join its completions: a coflow run's
        decisions share the coflow's CCT, a flow run's their flow's FCT."""
        self.set_context(placement=placement, network_policy=network_policy)
        if tracker is not None:
            self.bind_coflows(tracker)
        else:
            self.bind(fabric)

    def on_decision(self, t, decision, data_node, candidates) -> None:
        """Mirror one NEAT placement-daemon decision into the log."""
        self.record(
            time=t,
            kind=decision.kind,
            tag=decision.tag,
            size=decision.size,
            data_node=data_node,
            candidates=candidates,
            preferred=decision.preferred_hosts,
            used_fallback=decision.used_fallback,
            scores=decision.candidate_scores,
            score_kind=PREDICTED_TIME,
            chosen=decision.host,
            predicted_time=decision.predicted_time,
        )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @property
    def records(self) -> Sequence[DecisionRecord]:
        return tuple(self._records)

    def record(
        self,
        *,
        time: float,
        kind: str,
        tag: str,
        size: float,
        data_node,
        candidates: Sequence,
        preferred: Sequence,
        used_fallback: bool,
        scores: Sequence[Tuple[object, float]],
        score_kind: str,
        chosen,
        predicted_time: Optional[float] = None,
    ) -> DecisionRecord:
        """Record one decision and emit its ``placement_decision`` event."""
        rec = DecisionRecord(
            decision_id=self._next_id,
            time=time,
            kind=kind,
            placement=self._placement,
            network_policy=self._network_policy,
            tag=tag,
            size=size,
            data_node=data_node,
            candidates=tuple(candidates),
            preferred=tuple(preferred),
            used_fallback=used_fallback,
            scores=tuple(scores),
            score_kind=score_kind,
            chosen=chosen,
            predicted_time=predicted_time,
        )
        self._next_id += 1
        self._records.append(rec)
        if tag and score_kind == PREDICTED_TIME:
            self._pending.setdefault(tag, []).append(rec)
        if self._trace is not None:
            self._trace.emit(
                "placement_decision",
                time,
                {
                    "id": rec.decision_id,
                    "kind": kind,
                    "placement": rec.placement,
                    "tag": tag,
                    "size": size,
                    "data_node": data_node,
                    "candidates": list(rec.candidates),
                    "preferred": list(rec.preferred),
                    "fallback": used_fallback,
                    "scores": {
                        str(host): score for host, score in rec.scores
                    },
                    "score_kind": score_kind,
                    "chosen": chosen,
                    "predicted": predicted_time,
                },
            )
        return rec

    def note_completed(self, tag: str, realized: float, time: float) -> None:
        """Join a realized completion time onto the decision(s) for ``tag``.

        Flow tags are unique per arrival so this resolves one decision;
        coflow tags resolve every constituent decision at once (they all
        share the coflow's CCT).
        """
        pending = self._pending.pop(tag, None)
        if not pending:
            return
        for rec in pending:
            rec.realized_time = realized
            if rec.predicted_time is not None and rec.predicted_time > 0:
                rec.error = (
                    realized - rec.predicted_time
                ) / rec.predicted_time
            if self._trace is not None:
                self._trace.emit(
                    "decision_outcome",
                    time,
                    {
                        "id": rec.decision_id,
                        "tag": tag,
                        "predicted": rec.predicted_time,
                        "realized": realized,
                        "error": rec.error,
                    },
                )

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def error_summary(self) -> Dict[str, object]:
        """Prediction-error statistics over all joined decisions."""
        errors = [r.error for r in self._records if r.error is not None]
        joined = sum(1 for r in self._records if r.realized_time is not None)
        out: Dict[str, object] = {
            "decisions": len(self._records),
            "joined": joined,
            "with_error": len(errors),
        }
        if errors:
            abs_errors = [abs(e) for e in errors]
            out.update(
                mean_abs_error=mean(abs_errors),
                median_error=percentile(errors, 50),
                p95_abs_error=percentile(abs_errors, 95),
            )
        return out
