"""``repro top``: a live terminal dashboard over a status stream.

Renders one frame from the status JSONL that ``repro serve --status``
(or a campaign supervisor) appends to: per-cell progress with decision
rates, the SLO burn-rate table from the latest heartbeat, and the most
recent alert/stall transitions.  The CLI loop in :mod:`repro.__main__`
re-reads the file and redraws at a wall-clock interval; everything here
is a pure function of the records, so ``--once`` frames are testable.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.campaign.status import SETTLED_STATES, summarize_status

__all__ = ["render_top", "stream_settled"]

#: How many recent alert/stall transitions the frame shows.
RECENT_EVENTS = 5


def _fmt_burn(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 100:
        return f"{value:.0f}"
    return f"{value:.2f}"


def _cell_rates(records: List[Dict]) -> Dict[int, float]:
    """Decisions per simulated second between each cell's last two
    heartbeats (0 when fewer than two carry the fields)."""
    last: Dict[int, Dict] = {}
    rates: Dict[int, float] = {}
    for rec in records:
        if rec.get("record") != "cell" or "cell" not in rec:
            continue
        if rec.get("sim_time") is None or rec.get("decisions") is None:
            continue
        index = int(rec["cell"])
        prev = last.get(index)
        if prev is not None:
            dt = rec["sim_time"] - prev["sim_time"]
            if dt > 0:
                rates[index] = (rec["decisions"] - prev["decisions"]) / dt
        last[index] = rec
    return rates


def stream_settled(records: List[Dict]) -> bool:
    """True when every seen cell has settled (no more records expected)."""
    states: Dict[int, str] = {}
    ended = False
    for rec in records:
        if rec.get("record") == "cell" and "cell" in rec:
            states[int(rec["cell"])] = rec.get("state", "unknown")
        elif rec.get("record") == "campaign_end":
            ended = True
    if ended:
        return True
    return bool(states) and all(
        state in SETTLED_STATES for state in states.values()
    )


def render_top(
    records: List[Dict],
    *,
    now: Optional[float] = None,
    stall_threshold: float,
) -> str:
    """Render one dashboard frame from a status record stream."""
    if now is None:
        now = time.time()
    summary = summarize_status(
        records, now=now, stall_threshold=stall_threshold
    )
    meta = summary["meta"]
    cells = summary["cells"]
    rates = _cell_rates(records)

    title = "repro top"
    if meta.get("campaign"):
        title += f" — {meta['campaign']}"
    title += "  (settled)" if stream_settled(records) else "  (live)"
    lines = [title, "=" * len(title)]

    # Per-cell progress: the serve loop emits one cell; campaigns many.
    latest: Dict[int, Dict] = {}
    for rec in records:
        if rec.get("record") == "cell" and "cell" in rec:
            latest[int(rec["cell"])] = rec
    if cells:
        lines.append("")
        lines.append(
            f"{'cell':>4}  {'state':<8} {'sim_t':>8}  {'decisions':>9}  "
            f"{'rate/s':>8}  {'queue':>5}  {'rejected':>8}"
        )
        for cell in cells:
            rec = latest.get(cell.cell, {})
            sim_t = rec.get("sim_time")
            flag = "  << STALLED" if cell.stalled else ""
            lines.append(
                f"{cell.cell:>4}  {cell.state:<8} "
                f"{(f'{sim_t:.1f}' if sim_t is not None else '-'):>8}  "
                f"{rec.get('decisions', '-'):>9}  "
                f"{rates.get(cell.cell, 0.0):>8.1f}  "
                f"{rec.get('queue_depth', '-'):>5}  "
                f"{rec.get('rejected', '-'):>8}{flag}"
            )

    # SLO burn table from the latest heartbeat that carried one.
    slo = None
    for rec in reversed(records):
        if rec.get("record") == "cell" and rec.get("slo") is not None:
            slo = rec["slo"]
            break
    if slo is not None:
        firing = set(slo.get("firing", []))
        lines.append("")
        lines.append(
            f"SLOs ({slo.get('specs', 0)} specs, "
            f"{slo.get('alerts_fired', 0)} alerts fired)"
        )
        burns = slo.get("burn", {})
        if burns:
            width = max(len(name) for name in burns)
            lines.append(
                f"  {'slo':<{width}}  {'burn_fast':>9}  {'burn_slow':>9}  state"
            )
            for name in sorted(burns):
                fast, slow = burns[name]
                state = "FIRING" if name in firing else "ok"
                lines.append(
                    f"  {name:<{width}}  {_fmt_burn(fast):>9}  "
                    f"{_fmt_burn(slow):>9}  {state}"
                )

    # Recent alert / stall transitions, newest last.
    recent = [
        rec
        for rec in records
        if rec.get("record") in ("slo_alert", "stall")
    ][-RECENT_EVENTS:]
    if recent:
        lines.append("")
        lines.append(f"recent events (last {len(recent)})")
        for rec in recent:
            if rec.get("record") == "slo_alert":
                lines.append(
                    f"  t={rec.get('t', 0):g} slo_alert {rec.get('state')}"
                    f" {rec.get('slo')} burn fast={_fmt_burn(rec.get('burn_fast'))}"
                    f" slow={_fmt_burn(rec.get('burn_slow'))}"
                )
            else:
                lines.append(
                    f"  t={rec.get('sim_time', 0):g} stall after "
                    f"{rec.get('stalled_for', 0):g}s idle, queue depth "
                    f"{rec.get('queue_depth', '-')}"
                )

    stalled = summary["stalled"]
    if stalled:
        lines.append("")
        lines.append(
            f"STALLED: {len(stalled)} cell(s): "
            + ", ".join(str(i) for i in stalled)
        )
    return "\n".join(lines)
