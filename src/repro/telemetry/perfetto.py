"""Chrome/Perfetto trace-event export of a causal stream.

Converts the JSONL stream recorded by
:class:`repro.telemetry.causal.CausalTracer` into the legacy
``traceEvents`` JSON format that both ``chrome://tracing`` and
https://ui.perfetto.dev load directly:

* one *process* per run holding one *thread per flow* — a complete
  ("X") slice spanning the flow's lifetime with nested sub-slices for
  every constant-rate segment, so preemptions and reallocation show up
  as visual steps;
* a per-run *links* process exposing each link's capacity as a counter
  ("C") track — degrades and failures appear as cliffs;
* a per-run *hosts* process counting active outgoing flows per host;
* a per-run *faults* overlay process: instant ("i") markers for point
  faults and slices for message-loss / delay / staleness windows;
* task placements as instant markers carrying the decision args.

Timestamps are simulation seconds scaled to microseconds (the format's
native unit), so one sim-second reads as one wall-second in the UI.
Construction iterates everything in sorted order, so the export is
byte-stable for byte-identical input streams.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.telemetry.causal import RunScan, flow_label, scan_runs

__all__ = ["to_perfetto", "save_perfetto"]

_US = 1_000_000.0  # sim seconds -> trace microseconds


def _pid(run: int, track: int) -> int:
    return run * 10 + track


def _meta(pid: int, name: str, out: List[Dict[str, object]]) -> None:
    out.append(
        {
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "name": "process_name",
            "args": {"name": name},
        }
    )


def _render_run(state: RunScan, out: List[Dict[str, object]]) -> None:
    run = int(state.run)
    run_end = float(state.end if state.end is not None else state.last_t)
    label = f"run{run} {state.placement}/{state.network_policy}"
    pid_flows = _pid(run, 1)
    pid_links = _pid(run, 2)
    pid_hosts = _pid(run, 3)
    pid_faults = _pid(run, 4)
    _meta(pid_flows, f"{label} flows", out)
    _meta(pid_links, f"{label} link capacity", out)
    _meta(pid_hosts, f"{label} active flows per host", out)
    _meta(pid_faults, f"{label} faults", out)

    # Flow slices with constant-rate sub-slices.
    host_deltas: List = []
    for fid in sorted(state.flows):
        flow = state.flows[fid]
        name = flow_label(flow.tag, fid)
        arrival = float(flow.arrival)
        end = float(flow.end) if flow.end is not None else run_end
        out.append(
            {
                "ph": "M",
                "pid": pid_flows,
                "tid": fid,
                "name": "thread_name",
                "args": {"name": name},
            }
        )
        args = {
            "src": flow.src,
            "dst": flow.dst,
            "size": flow.size,
            "optimal": flow.optimal,
            "path": list(flow.path),
            "trace": flow.trace,
        }
        if flow.done is not None:
            args["fct"] = flow.done["fct"]
        if flow.abort is not None:
            args["aborted"] = True
        out.append(
            {
                "ph": "X",
                "pid": pid_flows,
                "tid": fid,
                "ts": arrival * _US,
                "dur": max(0.0, (end - arrival) * _US),
                "name": name,
                "cat": "flow",
                "args": args,
            }
        )
        rates = flow.rate_steps + [(end, None)]
        for (t0, rate), (t1, _next) in zip(rates, rates[1:]):
            if t1 <= t0:
                continue
            out.append(
                {
                    "ph": "X",
                    "pid": pid_flows,
                    "tid": fid,
                    "ts": t0 * _US,
                    "dur": (t1 - t0) * _US,
                    "name": f"rate={rate:.4g}" if rate else "stalled",
                    "cat": "rate",
                    "args": {"rate": rate},
                }
            )
        for reroute in flow.reroutes:
            out.append(
                {
                    "ph": "i",
                    "pid": pid_flows,
                    "tid": fid,
                    "ts": float(reroute["t"]) * _US,
                    "name": "reroute",
                    "s": "t",
                    "cat": "flow",
                    "args": {"path": reroute["path"]},
                }
            )
        host_deltas.append((arrival, flow.src, 1))
        host_deltas.append((end, flow.src, -1))

    # Link-capacity counters (sorted by time then link for stability).
    for t, link, capacity in sorted(state.caps, key=lambda c: c[:2]):
        out.append(
            {
                "ph": "C",
                "pid": pid_links,
                "tid": 0,
                "ts": float(t) * _US,
                "name": str(link),
                "args": {"capacity": capacity},
            }
        )

    # Active-flows-per-host counters.
    active: Dict[str, int] = {}
    for t, host, delta in sorted(host_deltas, key=lambda d: (d[0], d[1])):
        active[host] = active.get(host, 0) + delta
        out.append(
            {
                "ph": "C",
                "pid": pid_hosts,
                "tid": 0,
                "ts": t * _US,
                "name": str(host),
                "args": {"active": active[host]},
            }
        )

    # Fault overlay: instants for point faults, slices for windows.
    for fault in state.faults:
        args = {
            k: v for k, v in fault.items() if k not in ("ev", "t", "kind")
        }
        out.append(
            {
                "ph": "i",
                "pid": pid_faults,
                "tid": 0,
                "ts": float(fault["t"]) * _US,
                "name": str(fault.get("kind", "fault")),
                "s": "p",
                "cat": "fault",
                "args": args,
            }
        )
    for index, window in enumerate(state.windows, 1):
        start = float(window.get("start", window.get("t", 0.0)))
        until = window.get("until")
        stop = float(until) if until is not None else run_end
        args = {
            k: v for k, v in window.items() if k not in ("ev", "t", "kind")
        }
        out.append(
            {
                "ph": "X",
                "pid": pid_faults,
                "tid": index,
                "ts": start * _US,
                "dur": max(0.0, (stop - start) * _US),
                "name": str(window.get("kind", "window")),
                "cat": "fault",
                "args": args,
            }
        )

    # Task placements as instants on the faults-free control row (tid 0
    # of the flows process would collide with flow ids; use a high tid).
    for trace in sorted(state.tasks):
        task = state.tasks[trace]
        decision = task.get("decision")
        args = {"trace": trace, "tag": task.get("tag", "")}
        if decision is not None:
            args.update(
                {
                    "chosen": decision.get("chosen"),
                    "predicted": decision.get("predicted"),
                    "stale": decision.get("stale"),
                    "fallback": decision.get("fallback"),
                }
            )
        out.append(
            {
                "ph": "i",
                "pid": pid_flows,
                "tid": 0,
                "ts": float(task["t"]) * _US,
                "name": f"task {task.get('tag') or trace}",
                "s": "t",
                "cat": "task",
                "args": args,
            }
        )


def to_perfetto(events: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Convert a causal event stream into a trace-event JSON object."""
    out: List[Dict[str, object]] = []
    for scan in scan_runs(events):
        _render_run(scan, out)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def save_perfetto(events: Sequence[Dict[str, object]], path: str) -> int:
    """Write the Perfetto JSON to ``path``; returns the event count."""
    doc = to_perfetto(events)
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, separators=(",", ":"), sort_keys=True)
        fp.write("\n")
    return len(doc["traceEvents"])
