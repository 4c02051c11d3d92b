"""Command-line entry point: reproduce any figure from the shell.

Examples::

    python -m repro list
    python -m repro fig1
    python -m repro fig5 --workload websearch --arrivals 600
    python -m repro fig6 --network las
    python -m repro fig7 --network scf --arrivals 200
    python -m repro fig11
    python -m repro fig5 --trace /tmp/t.jsonl --metrics-out /tmp/m.json
    python -m repro fig5 --profile --metrics-out /tmp/m.json
    python -m repro fig7 --timeline /tmp/timeline.json
    python -m repro fig5 --causal /tmp/run/ --faults plan.json
    python -m repro explain /tmp/run/ --worst 3
    python -m repro trace export /tmp/run/ -o /tmp/run/perfetto.json
    python -m repro all --jobs 4
    python -m repro run --seeds 1,2,3 --networks fair,las --loads 0.5,0.7 --jobs 4
    python -m repro run --jobs 4 --status /tmp/campaign/   # live health file
    python -m repro status /tmp/campaign/                  # render + stall check
    python -m repro report /tmp/m.json --prometheus
    python -m repro report /tmp/m.json --json
    python -m repro serve examples/service_diurnal.json --status /tmp/svc/
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from repro.errors import ConfigError, FaultError, WorkloadError
from repro.experiments.config import MacroConfig
from repro.experiments.figures import FIGURES

#: Figure command -> its figure-table row (Figure 6's first panel for
#: ``fig6``, whose ``--network`` picks the panel).
FIGURE_COMMANDS = {
    name: next(f for f in FIGURES.values() if f.command == name)
    for name in dict.fromkeys(f.command for f in FIGURES.values())
}

#: Observability flags: any of them arms the telemetry layer.
OBSERVABILITY_FLAGS = (
    "trace", "metrics_out", "timeline", "profile", "causal",
)


def _positive(convert):
    """An argparse ``type=``: ``convert`` the text, then insist on > 0."""

    def parse(text):
        value = convert(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value"
    return parse


def _group(title, description=None):
    """A parent parser holding one titled option group: (parent, group)."""
    parent = argparse.ArgumentParser(add_help=False)
    return parent, parent.add_argument_group(title, description)


def _add_status_target(parser, *stall_flags) -> None:
    """The status-stream positional and stall threshold (status, top)."""
    parser.add_argument(
        "target",
        help="status file, or a directory containing status.jsonl (what "
             "'repro run --status DIR' and 'repro serve --status DIR' "
             "write)",
    )
    parser.add_argument(
        *stall_flags, type=float, default=None, metavar="SECONDS",
        dest="stall_threshold",
        help="flag a cell that has not settled and has been silent for "
             "longer than this (default: "
             "repro.campaign.DEFAULT_STALL_THRESHOLD)",
    )


def _workload(default):
    """A parent parser holding ``--workload``, defaulting to ``default``."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--workload", default=default, help="websearch | "
                        "datamining | hadoop (default: %(default)s)")
    return parent


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, taking only the options its handler
    reads; option groups shared by commands are attached as ``parents=``."""
    topology = argparse.ArgumentParser(add_help=False)
    topology.add_argument("--pods", type=int, default=2)
    topology.add_argument("--racks-per-pod", type=int, default=2)
    topology.add_argument("--hosts-per-rack", type=int, default=10)
    topology.add_argument("--load", type=float, default=0.7)
    topology.add_argument("--oversubscription", type=float, default=1.0)
    size = argparse.ArgumentParser(add_help=False)
    size.add_argument("--arrivals", type=int, default=800)
    size.add_argument("--seed", type=int, default=42)
    network = argparse.ArgumentParser(add_help=False)
    network.add_argument("--network", default=None,
                         help="network policy override (fair/las/srpt/fcfs, "
                              "varys/scf for fig7, srpt/fair for fig3)")

    observability, obs = _group(
        "observability",
        "any of these arms the telemetry layer and prints its report",
    )
    obs.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a structured JSONL event trace (flow lifecycle, rate "
             "recomputes, bus messages, placement decisions + outcomes); "
             "a .gz suffix writes a deterministic gzip stream",
    )
    obs.add_argument(
        "--trace-rotate-bytes", type=_positive(int), default=None,
        metavar="BYTES",
        help="rotate the --trace file every BYTES of uncompressed JSONL "
             "(PATH.1..PATH.N backups; default: one unbounded file)",
    )
    obs.add_argument(
        "--trace-backups", type=_positive(int), default=4, metavar="N",
        help="rotated trace segments kept beyond the active one "
             "(default: %(default)s)",
    )
    obs.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write counters/gauges/histograms and the "
             "placement-decision error summary as JSON (plus the span "
             "profile, the wall time per subsystem, with --profile)",
    )
    obs.add_argument(
        "--timeline", metavar="PATH", default=None,
        help="sample per-link utilisation over time and write it as JSON",
    )
    obs.add_argument(
        "--timeline-interval", type=_positive(float), default=0.1,
        metavar="SECONDS",
        help="timeline sampling interval in simulated seconds "
             "(default: %(default)s)",
    )
    obs.add_argument(
        "--causal", metavar="PATH", default=None,
        help="record a request-scoped causal trace (task -> decision -> "
             "flow lifecycle -> completion) and write it as JSONL; a "
             "directory gets causal.jsonl inside; inspect with "
             "'python -m repro explain PATH'",
    )
    obs.add_argument(
        "--profile", action="store_true",
        help="attach the hierarchical span profiler and print the flame "
             "view in the report (never perturbs simulation results)",
    )
    obs.add_argument(
        "--wall-clock", action="store_true",
        help="stamp trace records with wall time (breaks byte-identical "
             "trace determinism)",
    )

    execution, camp = _group(
        "campaign execution",
        "workers and result caching: every cell runs through one lease "
        "queue, and the results are byte-identical for every worker count",
    )
    camp.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="workers for campaign cells (default: %(default)s): 1 runs "
             "them in this process, N >= 2 starts N supervised worker "
             "processes, 0 (only 'run' with --distributed/--resume) starts "
             "none and coordinates external 'python -m repro "
             "campaign-worker DIR' processes",
    )
    camp.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="content-addressed result cache directory; already-computed "
             "cells are served from it (default: %(default)s; a queue kept "
             "with 'run --distributed' stores its results inside it)",
    )
    camp.add_argument(
        "--no-cache", action="store_true",
        help="recompute every cell, and do not write the cache",
    )
    camp.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="kill the worker of any cell exceeding this wall-clock budget "
             "and retry the cell on a fresh one (worker processes only: "
             "--jobs >= 2)",
    )
    camp.add_argument(
        "--cell-retries", type=int, default=1, metavar="N",
        help="extra attempts for a crashed/timed-out/raising cell before "
             "it is quarantined (default: %(default)s)",
    )
    camp.add_argument(
        "--status", metavar="PATH", default=None, dest="status_path",
        help="append live per-cell health records (JSONL) here — a file, "
             "or a directory that gets status.jsonl; watch with "
             "'python -m repro status PATH' (default with --distributed: "
             "DIR/status.jsonl)",
    )
    camp.add_argument(
        "--lease-ttl", type=float, default=30.0, metavar="SECONDS",
        help="seconds of lease silence before an unsupervised worker's "
             "cell counts as abandoned and may be stolen "
             "(default: %(default)s)",
    )

    fault_injection, chaos = _group(
        "fault injection",
        "seed-deterministic chaos: validate plans with "
        "'python -m repro faults validate PLAN.json'",
    )
    chaos.add_argument(
        "--faults", metavar="PLAN.json", default=None,
        help="inject this fault plan (link/host/daemon chaos) into every "
             "cell of the sweep, or into each placement's replay for "
             "fig5/fig6",
    )
    chaos.add_argument(
        "--state-ttl", type=float, default=None, metavar="SECONDS",
        help="NEAT node-state TTL: when every known candidate's snapshot "
             "is older, placement falls back to least-loaded",
    )
    chaos.add_argument(
        "--push-node-state", action="store_true",
        help="enable NEAT's push-style node-state dissemination "
             "(daemons refresh the controller on flow completions)",
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce figures from the NEAT paper (CoNEXT 2016).",
    )
    commands = parser.add_subparsers(
        title="commands", metavar="COMMAND", required=True,
        help="'python -m repro COMMAND --help' lists its options",
    )

    def command(name, func, summary, *parents, description=None, **defaults):
        sub = commands.add_parser(
            name, help=summary, description=description or summary,
            parents=list(parents),
        )
        sub.set_defaults(func=func, parser=sub, **defaults)
        return sub

    command("list", print_figure_list, "enumerate the figures")
    command(
        "all", run_all_summary,
        "fast one-line-per-figure summary, run as a cached ten-cell "
        "campaign (always the hadoop workload)", topology, size, execution,
        workload="hadoop",
    )
    run = command(
        "run", run_campaign_cli, "seed x network x load campaign sweep",
        _workload("websearch"), topology, size, network, execution,
        fault_injection,
    )
    kept = run.add_argument_group(
        "kept queue", "a lease queue that outlives this run"
    )
    kept.add_argument(
        "--distributed", metavar="DIR", default=None,
        help="keep the lease queue in DIR instead of a temporary "
             "directory, so workers anywhere that share the filesystem can "
             "join ('python -m repro campaign-worker DIR') and a killed run "
             "can be resumed",
    )
    kept.add_argument(
        "--resume", metavar="DIR", default=None,
        help="resume the campaign kept in DIR: finished cells fold straight "
             "from disk, the rest execute, and the final aggregate is "
             "byte-identical to an uninterrupted run (grid flags are "
             "ignored; the manifest is authoritative)",
    )
    kept.add_argument(
        "--aggregate-out", metavar="PATH", default=None,
        help="write the campaign aggregate payload as canonical JSON "
             "(identical bytes for every --jobs value, external workers and "
             "resumed runs)",
    )
    sweep = run.add_argument_group(
        "campaign sweep",
        "grid axes; placements are compared within each cell on a shared "
        "trace so comparisons stay paired",
    )
    sweep.add_argument(
        "--seeds", default=None, metavar="S1,S2,...",
        help="explicit seed axis (comma-separated ints)",
    )
    sweep.add_argument(
        "--repetitions", type=int, default=3, metavar="N",
        help="derive this many seeds from --seed when --seeds is not "
             "given (default: %(default)s)",
    )
    sweep.add_argument(
        "--networks", default=None, metavar="P1,P2,...",
        help="network policy axis (default: --network, else fair)",
    )
    sweep.add_argument(
        "--loads", default=None, metavar="L1,L2,...",
        help="load axis (default: --load)",
    )
    sweep.add_argument(
        "--placements", default="neat,minload,mindist", metavar="P1,P2,...",
        help="placement policies compared in every cell "
             "(default: %(default)s)",
    )
    sweep.add_argument(
        "--coflows", action="store_true",
        help="sweep coflow traces (networks then name coflow schedulers, "
             "e.g. varys/scf)",
    )

    # Each figure command takes the option groups its table row names.
    for name, figure in FIGURE_COMMANDS.items():
        groups = {
            "workload": _workload(figure.workload), "topology": topology,
            "size": size, "network": network, "faults": fault_injection,
            "observability": observability,
        }
        command(name, run_figure_cli, figure.description,
                *(groups[option] for option in figure.options), figure=name)

    status = command(
        "status", run_status_cli,
        "render a campaign or serve status file with stall detection",
    )
    _add_status_target(status, "--stall-threshold", "--stall-after")

    report = command(
        "report", run_report_cli, "render a saved --metrics-out snapshot",
        description="Render a saved metrics snapshot (--metrics-out file), "
                    "human-readable or Prometheus text format.",
    )
    report.add_argument("metrics", help="a --metrics-out JSON file")
    style = report.add_mutually_exclusive_group()
    style.add_argument(
        "--prometheus", action="store_true",
        help="emit Prometheus text exposition format instead of the "
             "aligned report",
    )
    style.add_argument(
        "--json", action="store_true",
        help="emit the normalized snapshot as machine-readable JSON "
             "(counters/gauges/histograms keyed by name; other sections "
             "pass through)",
    )
    report.add_argument(
        "--prefix", default="repro_", metavar="PREFIX",
        help="metric name prefix for --prometheus (default: %(default)s)",
    )

    causal_help = "a --causal JSONL file, or a directory containing causal.jsonl"
    explain = command(
        "explain", run_explain_cli,
        "causal blame breakdown of a --causal trace",
        description="Decompose each completed flow's FCT (and coflow's "
                    "CCT) from a --causal trace into serialization, "
                    "queueing, contention, and fault components, and "
                    "print the per-task blame breakdown.",
    )
    explain.add_argument("trace", help=causal_help)
    who = explain.add_mutually_exclusive_group()
    who.add_argument(
        "--task", metavar="TAG", default=None,
        help="explain only flows/coflows whose task tag equals TAG",
    )
    who.add_argument(
        "--worst", type=_positive(int), metavar="N", default=None,
        help="show the N slowest flows and coflows (default: 5)",
    )
    who.add_argument(
        "--percentile", type=float, metavar="P", default=None,
        help="show only flows at or above the P-th FCT percentile "
             "(e.g. 99)",
    )

    trace = command(
        "trace", run_trace_cli,
        "convert a causal trace to Chrome/Perfetto JSON",
        description="Work with saved --causal traces. 'export' converts "
                    "one to Chrome/Perfetto trace-event JSON (one track "
                    "per host/link, flow slices with rate-change "
                    "sub-slices, fault windows as overlay tracks) for "
                    "ui.perfetto.dev or chrome://tracing.",
    )
    trace.add_argument("action", choices=["export"])
    trace.add_argument("trace", help=causal_help)
    trace.add_argument(
        "--format", choices=["perfetto"], default="perfetto",
        help="output format (default: %(default)s)",
    )
    trace.add_argument(
        "-o", "--output", metavar="PATH", default=None,
        help="output file (default: <trace>.perfetto.json next to the "
             "input)",
    )

    serve = command(
        "serve", run_serve_cli,
        "open-loop streaming placement session from a scenario",
        description="Run NEAT as a streaming placement service: an "
                    "open-loop arrival stream (Poisson/diurnal/burst) is "
                    "served through the placement daemons in adaptive "
                    "micro-batches with admission control, inside the "
                    "deterministic simulator.  Same (seed, scenario) "
                    "twice gives byte-identical decision logs and final "
                    "report JSON.",
    )
    serve.add_argument("scenario", help="scenario JSON file (see "
                       "examples/service_diurnal.json)")
    serve.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's seed",
    )
    serve.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="override the scenario's session length (simulated seconds)",
    )
    serve.add_argument(
        "--faults", metavar="PLAN.json", default=None,
        help="inject this fault plan into the session",
    )
    serve.add_argument(
        "--status", metavar="PATH", default=None, dest="status_path",
        help="append live heartbeat records (JSONL) here — a file, or a "
             "directory that gets status.jsonl; watch with "
             "'python -m repro status PATH'",
    )
    serve.add_argument(
        "--status-interval", type=_positive(float), default=1.0,
        metavar="SECONDS",
        help="simulated seconds between heartbeats (default: %(default)s; "
             "part of the deterministic inputs)",
    )
    serve.add_argument(
        "--prometheus-out", metavar="PATH", default=None,
        help="refresh this file with the live metrics snapshot in "
             "Prometheus text format at every heartbeat",
    )
    serve.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the final counters/gauges/histograms snapshot and the "
             "placement-decision error summary as JSON (render with "
             "'python -m repro report')",
    )
    serve.add_argument(
        "--report-out", metavar="PATH", default=None,
        help="write the deterministic final report as JSON "
             "(byte-identical for same seed+scenario)",
    )
    serve.add_argument(
        "--decisions-out", metavar="PATH", default=None,
        help="write the placement decision log as deterministic JSONL",
    )
    serve.add_argument(
        "--json", action="store_true",
        help="print the deterministic report JSON to stdout instead of "
             "the text summary",
    )
    live = serve.add_argument_group(
        "live observability",
        "windowed rollups, burn-rate SLO alerts, and the flight "
        "recorder — observers only: arming them never changes the "
        "deterministic decision log or report",
    )
    live.add_argument(
        "--slo", metavar="SPEC", default=None,
        help="evaluate these SLOs at every heartbeat: a JSON spec file "
             "(see examples/service_slo.json) or the literal 'default' "
             "for the stock service objectives",
    )
    live.add_argument(
        "--recorder", metavar="DIR", default=None,
        help="arm the flight recorder: keep the recent causal-event "
             "ring in memory and dump a replayable post-mortem bundle "
             "into DIR on SLO breach, stall, or crash",
    )
    live.add_argument(
        "--rollups-out", metavar="PATH", default=None,
        help="write the windowed rollup store as JSON when the session "
             "ends (check offline with 'repro slo check')",
    )
    live.add_argument(
        "--stall-after", type=_positive(float), default=None,
        metavar="SECONDS",
        help="flag a stall (status record + recorder dump) when no new "
             "decision lands for this many simulated seconds while "
             "requests queue",
    )

    faults = command(
        "faults", run_faults_cli, "validate a fault plan",
        description="Work with fault-injection plans (JSON). 'validate' "
                    "parses the plan, optionally checks its link/host "
                    "references against a Clos topology, and prints a "
                    "per-event summary.",
    )
    faults.add_argument("action", choices=["validate"])
    faults.add_argument("plan", help="fault plan JSON file")
    faults.add_argument(
        "--pods", type=int, default=None,
        help="with --racks-per-pod/--hosts-per-rack: also check link and "
             "host references against this Clos topology",
    )
    faults.add_argument("--racks-per-pod", type=int, default=2)
    faults.add_argument("--hosts-per-rack", type=int, default=10)
    faults.add_argument("--oversubscription", type=float, default=1.0)

    top = command(
        "top", run_top_cli, "live dashboard over a status stream",
        description="Watch a live status stream (what 'repro serve "
                    "--status PATH' or a campaign supervisor appends "
                    "to): per-cell decision rates, SLO burn-rate table, "
                    "and recent alert/stall events.",
    )
    _add_status_target(top, "--stall-after")
    top.add_argument(
        "--interval", type=_positive(float), default=1.0, metavar="SECONDS",
        help="wall seconds between redraws (default: %(default)s)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render one frame and exit (exit code 1 flags stalls)",
    )

    slo = command(
        "slo", run_slo_cli, "check SLOs against saved rollups",
        description="Evaluate declarative SLO specs against a saved "
                    "rollup store ('repro serve --rollups-out').",
    )
    slo.add_argument("action", choices=["check"])
    slo.add_argument(
        "spec",
        help="SLO spec JSON (see examples/service_slo.json) or the "
             "literal 'default' for the stock service objectives",
    )
    slo.add_argument("rollups", help="a --rollups-out JSON file")
    slo.add_argument(
        "--at", type=float, default=None, metavar="SIM_SECONDS",
        help="evaluate at this simulated time (default: the store's "
             "last sample)",
    )
    slo.add_argument(
        "--json", action="store_true",
        help="emit per-SLO burn rates as machine-readable JSON",
    )

    worker = command(
        "campaign-worker", run_campaign_worker_cli,
        "drain cells from a campaign queue kept with 'run --distributed'",
        description="Work-stealing campaign worker over a shared queue "
                    "directory (seeded by 'repro run --distributed DIR'). "
                    "Claims are exclusive-create lease files; leases "
                    "silent beyond the queue's TTL are stolen, so a "
                    "crashed worker's cell is re-claimed automatically.",
    )
    worker.add_argument(
        "queue",
        help="campaign queue directory (must contain manifest.json)",
    )
    worker.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="identity recorded in leases and done markers "
             "(default: host:pid)",
    )
    worker.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="attempts beyond the first before a cell is quarantined, "
             "counting claims lost to crashed workers "
             "(default: %(default)s)",
    )
    worker.add_argument(
        "--poll", type=float, default=0.2, metavar="SECONDS",
        help="claim-poll interval while waiting (default: %(default)s)",
    )
    worker.add_argument(
        "--wait", action="store_true",
        help="keep polling until the whole queue completes instead of "
             "exiting at the first empty claim (for workers started "
             "alongside or before the supervisor)",
    )
    worker.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="with --wait, give up after this long without claiming "
             "anything (guards orphaned workers)",
    )
    worker.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help="stop after claiming this many cells",
    )
    return parser


def resolve_causal_path(target: str, *, for_write: bool = False) -> str:
    """A ``--causal`` / ``explain`` target: directories get causal.jsonl.

    On write, a trailing separator (or an existing directory) means "put
    causal.jsonl inside", creating the directory if needed.
    """
    looks_like_dir = target.endswith(os.sep) or os.path.isdir(target)
    if not looks_like_dir:
        return target
    if for_write:
        os.makedirs(target, exist_ok=True)
    return os.path.join(target, "causal.jsonl")


def write_metrics(tele, path: str) -> None:
    """The ``--metrics-out`` file of a figure run or a serve session: the
    registry snapshot, the placement-decision error summary and, when the
    profiler is armed, the span profile."""
    extra = {"placement_decisions": tele.decisions.error_summary()}
    if tele.profiler is not None:
        extra["profile"] = tele.profiler.as_dict()
    tele.registry.write_json(path, extra=extra)


def emit_telemetry_outputs(tele, args: argparse.Namespace) -> None:
    """Close the trace and write the report / metrics / timeline files."""
    from repro.telemetry import render_report

    tele.close()
    print()
    print(render_report(tele))
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.causal:
        path = resolve_causal_path(args.causal, for_write=True)
        count = tele.causal.save(path)
        print(f"causal trace written to {path} ({count} events)")
    if args.metrics_out:
        write_metrics(tele, args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    if args.timeline:
        payload = {
            "interval": args.timeline_interval,
            "timelines": [
                {
                    "label": label,
                    "samples": [
                        {
                            "time": s.time,
                            "active_flows": s.active_flows,
                            "total_queued_bits": s.total_queued_bits,
                            "links": {
                                str(link): {
                                    "utilization": util,
                                    "queued_bits": queued,
                                }
                                for link, (util, queued) in s.links.items()
                            },
                        }
                        for s in samples
                    ],
                }
                for label, samples in tele.timelines
            ],
        }
        with open(args.timeline, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"timeline written to {args.timeline}")


#: Option (argparse dest) -> the MacroConfig field it sets.
CONFIG_OPTIONS = {
    "pods": "pods", "racks_per_pod": "racks_per_pod",
    "hosts_per_rack": "hosts_per_rack", "workload": "workload",
    "load": "load", "arrivals": "num_arrivals", "seed": "seed",
    "oversubscription": "oversubscription", "state_ttl": "state_ttl",
    "push_node_state": "push_node_state",
}


def config_from_args(args: argparse.Namespace) -> MacroConfig:
    """The topology, workload, size and NEAT state options the command
    takes, as a MacroConfig (the fields it has no option for keep their
    defaults)."""
    given = vars(args)
    return MacroConfig(**{
        field: given[option]
        for option, field in CONFIG_OPTIONS.items() if option in given
    })


def _fault_plan(args: argparse.Namespace):
    """The ``--faults`` plan (None when not given); an unreadable or
    invalid plan raises FaultError, which ``main`` reports."""
    if not getattr(args, "faults", None):
        return None
    from repro.faults import FaultPlan

    return FaultPlan.load(args.faults)


def _progress(line: str) -> None:
    """Per-cell campaign progress (stderr, so stdout stays parseable)."""
    print(line, file=sys.stderr, flush=True)


def _csv(text, convert=str):
    return [convert(part) for part in text.split(",") if part.strip()]


def _run_campaign_from_args(
    campaign, args: argparse.Namespace, *, directory=None, resume=False
):
    """Run a campaign with the CLI's execution flags."""
    from repro.campaign import ResultCache, resolve_status_path, run_campaign

    if args.jobs < (0 if directory else 1):
        args.parser.error(
            "--jobs must be >= 1 (0 only with --distributed/--resume, "
            "to coordinate external workers)"
        )
    # A kept queue stores results inside its own directory, so workers
    # on other machines find them.
    cached = directory is None and not args.no_cache
    return run_campaign(
        campaign,
        jobs=args.jobs,
        cache=ResultCache(args.cache_dir) if cached else None,
        timeout=args.cell_timeout,
        retries=args.cell_retries,
        progress=_progress,
        status_path=args.status_path and resolve_status_path(args.status_path),
        lease_ttl=args.lease_ttl,
        directory=directory,
        resume=resume,
    )


def print_figure_list(args: argparse.Namespace) -> int:
    for name in sorted(FIGURE_COMMANDS):
        print(f"{name:6s} {FIGURE_COMMANDS[name].description}")
    return 0


def run_all_summary(args: argparse.Namespace) -> int:
    """One line per figure at a reduced scale (a few minutes total).

    Runs as a ten-cell campaign: ``--jobs`` parallelises the figures and
    the content-addressed cache makes re-runs (near-)instant.
    """
    from repro.campaign import build_all_campaign

    campaign = build_all_campaign(config_from_args(args))
    report = _run_campaign_from_args(campaign, args)
    for payload in report.payloads():
        if payload is not None:
            print(payload["line"])
    print(f"cache: {report.cache_stats}")
    failures = report.failure_report()
    if failures:
        print(failures, file=sys.stderr)
        return 1
    return 0


def run_campaign_cli(args: argparse.Namespace) -> int:
    """``repro run``: a declarative seed x network x load sweep."""
    from repro.campaign import canonical_json, flow_grid, render_campaign_report

    if args.distributed and args.resume:
        print(
            "error: --distributed seeds a fresh queue and --resume reopens "
            "one; give exactly one",
            file=sys.stderr,
        )
        return 2

    if args.resume:
        report = _run_campaign_from_args(
            None, args, directory=args.resume, resume=True
        )
    else:
        plan = _fault_plan(args)
        seeds = _csv(args.seeds, int) if args.seeds else None
        networks = (
            _csv(args.networks)
            if args.networks
            else [args.network or ("varys" if args.coflows else "fair")]
        )
        campaign = flow_grid(
            name="cli-sweep",
            base_config=config_from_args(args),
            seeds=seeds,
            repetitions=None if seeds else args.repetitions,
            network_policies=networks,
            loads=_csv(args.loads, float) if args.loads else None,
            placements=tuple(_csv(args.placements)),
            coflows=args.coflows,
            faults=[plan] if plan is not None else None,
        )
        report = _run_campaign_from_args(
            campaign, args, directory=args.distributed
        )
    print(render_campaign_report(report))
    if args.aggregate_out:
        with open(args.aggregate_out, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(report.aggregate_payload()))
            fh.write("\n")
        print(f"aggregate written to {args.aggregate_out}")
    return 1 if report.quarantined else 0


def _read_status(args: argparse.Namespace):
    """``(records, stall threshold)`` of the status stream ``args.target``."""
    from repro.campaign import DEFAULT_STALL_THRESHOLD as default
    from repro.campaign import read_status, resolve_status_path

    try:
        records = read_status(resolve_status_path(args.target))
    except (OSError, ValueError) as exc:
        args.parser.error(f"cannot read status file: {exc}")
    threshold = args.stall_threshold
    return records, default if threshold is None else threshold


def run_status_cli(args: argparse.Namespace) -> int:
    """``repro status``: render a campaign's live health file.

    Exit code 1 flags stalled cells (non-terminal and silent beyond the
    threshold) so the command can gate watchdog scripts.
    """
    from repro.campaign import render_status, summarize_status

    records, threshold = _read_status(args)
    summary = summarize_status(records, stall_threshold=threshold)
    print(render_status(summary))
    return 1 if summary["stalled"] else 0


def run_report_cli(args: argparse.Namespace) -> int:
    """``repro report``: render a saved --metrics-out JSON snapshot."""
    try:
        with open(args.metrics, "r", encoding="utf-8") as fp:
            snapshot = json.load(fp)
    except (OSError, json.JSONDecodeError) as exc:
        args.parser.error(f"cannot read metrics file: {exc}")
    if args.prometheus:
        from repro.telemetry.prometheus import render_prometheus

        sys.stdout.write(render_prometheus(snapshot, prefix=args.prefix))
    elif args.json:
        from repro.telemetry.report import snapshot_as_dict

        json.dump(snapshot_as_dict(snapshot), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        from repro.telemetry.report import render_snapshot

        print(render_snapshot(snapshot))
    return 0


def _read_causal(args: argparse.Namespace):
    """``(path, events)`` of the causal trace ``args.trace`` names."""
    from repro.telemetry.trace import read_trace

    path = resolve_causal_path(args.trace)
    try:
        return path, read_trace(path)
    except (OSError, ValueError) as exc:
        args.parser.error(f"cannot read causal trace: {exc}")


def run_explain_cli(args: argparse.Namespace) -> int:
    """``repro explain``: blame breakdown of a saved causal trace."""
    if args.percentile is not None and not 0.0 <= args.percentile <= 100.0:
        args.parser.error("--percentile must be in [0, 100]")
    from repro.telemetry.causal import analyze, render_explain

    analyses = analyze(_read_causal(args)[1])
    if not analyses:
        print("no completed runs in causal trace", file=sys.stderr)
        return 1
    print(
        render_explain(
            analyses,
            task=args.task,
            worst=args.worst,
            pct=args.percentile,
        )
    )
    return 0


def run_trace_cli(args: argparse.Namespace) -> int:
    """``repro trace export``: convert a causal trace to viewer formats."""
    from repro.telemetry.perfetto import save_perfetto

    path, events = _read_causal(args)
    out = args.output
    if out is None:
        stem = path[:-len(".jsonl")] if path.endswith(".jsonl") else path
        out = stem + ".perfetto.json"
    try:
        count = save_perfetto(events, out)
    except OSError as exc:
        args.parser.error(f"cannot write {out}: {exc}")
    print(f"perfetto trace written to {out} ({count} events)")
    return 0


def run_serve_cli(args: argparse.Namespace) -> int:
    """``repro serve``: one open-loop serving session from a scenario."""
    from repro.service import PlacementServer, ServiceScenario
    from repro.service.server import decisions_as_jsonl, render_service_report

    try:
        scenario = ServiceScenario.from_json_file(args.scenario)
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
        if args.duration is not None:
            scenario = replace(scenario, duration=args.duration)
    except (ConfigError, WorkloadError) as exc:
        args.parser.error(str(exc))
    faults = _fault_plan(args)
    slo_specs = None
    if args.slo:
        from repro.telemetry.slo import load_slo_specs

        slo_specs = load_slo_specs(args.slo)
    tele = None
    live_layer = bool(args.slo or args.recorder or args.rollups_out)
    if args.metrics_out or args.prometheus_out or live_layer:
        from repro.telemetry import create_telemetry

        # The recorder rides the causal stream (its ring feeds
        # `repro explain`-compatible bundles).
        tele = create_telemetry(causal=bool(args.recorder))
    recorder = None
    if args.recorder:
        from repro.telemetry import FlightRecorder

        recorder = FlightRecorder(args.recorder, registry=tele.registry)
    status = None
    if args.status_path:
        from repro.campaign import resolve_status_path
        from repro.campaign.status import StatusWriter

        status = StatusWriter(resolve_status_path(args.status_path))
    server = PlacementServer(
        scenario,
        telemetry=tele,
        faults=faults,
        status=status,
        status_interval=args.status_interval,
        prometheus_out=args.prometheus_out,
        slo_specs=slo_specs,
        recorder=recorder,
        rollups_out=args.rollups_out,
        stall_after=args.stall_after,
    )
    report = server.run()
    if args.json:
        json.dump(report.to_dict(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(render_service_report(report))
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fp:
            json.dump(report.to_dict(), fp, indent=2, sort_keys=True)
            fp.write("\n")
        print(f"report written to {args.report_out}",
              file=sys.stderr)
    if args.decisions_out:
        daemon = server.last_daemon
        with open(args.decisions_out, "w", encoding="utf-8") as fp:
            fp.write(decisions_as_jsonl(daemon) if daemon else "")
        print(f"decision log written to {args.decisions_out}",
              file=sys.stderr)
    if args.metrics_out:
        tele.close()
        write_metrics(tele, args.metrics_out)
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    slo_engine = server.last_slo_engine
    if slo_engine is not None:
        for alert in slo_engine.alerts:
            burns = ""
            if alert.burn_fast is not None and alert.burn_slow is not None:
                burns = (
                    f" (burn fast={alert.burn_fast:.2f}"
                    f" slow={alert.burn_slow:.2f})"
                )
            print(
                f"slo {alert.state}: {alert.slo} at t={alert.t:g}{burns}",
                file=sys.stderr,
            )
    if recorder is not None:
        for path in recorder.dumps:
            print(f"post-mortem bundle: {path}", file=sys.stderr)
    if args.rollups_out:
        print(f"rollups written to {args.rollups_out}", file=sys.stderr)
    return 0


def run_faults_cli(args: argparse.Namespace) -> int:
    """``repro faults validate``: check (and describe) a fault plan file."""
    from repro.faults import FaultPlan

    try:
        plan = FaultPlan.load(args.plan)
        if args.pods is not None:
            from repro.topology.fabrics import three_tier_clos

            topology = three_tier_clos(
                pods=args.pods,
                racks_per_pod=args.racks_per_pod,
                hosts_per_rack=args.hosts_per_rack,
                oversubscription=args.oversubscription,
            )
            plan.validate(topology)
    except FaultError as exc:
        print(f"invalid fault plan: {exc}", file=sys.stderr)
        return 1
    print(plan.describe())
    print("plan OK")
    return 0


def run_top_cli(args: argparse.Namespace) -> int:
    """``repro top``: live dashboard over a serve/campaign status stream.

    Redraws at a wall-clock interval until the stream settles (every
    cell finished) or the user interrupts; ``--once`` renders a single
    frame and exits with 1 when a cell is stalled (CI-friendly).
    """
    import time

    from repro.telemetry.top import render_top, stream_settled

    try:
        while True:
            records, threshold = _read_status(args)
            text = render_top(records, stall_threshold=threshold)
            if args.once:
                print(text)
                return 1 if "STALLED" in text else 0
            # Clear screen + home, then the frame (plain ANSI, no deps).
            sys.stdout.write("\x1b[2J\x1b[H" + text + "\n")
            sys.stdout.flush()
            if stream_settled(records):
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def run_slo_cli(args: argparse.Namespace) -> int:
    """``repro slo check``: offline SLO evaluation against saved rollups.

    ``repro slo check SPEC ROLLUPS`` exits 0 when every objective holds,
    1 when any burns beyond threshold in both windows, 2 on bad inputs —
    so CI can gate on a serve session's rollup file.  The verdict is a
    fresh :class:`~repro.telemetry.slo.SLOEngine` evaluated once, so it is
    the live engine's breach rule.
    """
    from repro.telemetry.slo import SLOEngine, load_slo_specs
    from repro.telemetry.timeseries import TimeseriesStore

    specs = load_slo_specs(args.spec)
    try:
        with open(args.rollups, "r", encoding="utf-8") as fp:
            engine = SLOEngine(specs, TimeseriesStore.from_dict(json.load(fp)))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    now = args.at if args.at is not None else engine.store.last_sample
    if now is None:
        print("error: rollup store has no samples", file=sys.stderr)
        return 2
    burns = engine.burn_rates(now)
    engine.evaluate(now)
    results = [
        {
            "slo": spec.name,
            "kind": spec.kind,
            "metric": spec.metric,
            "burn_fast": burns[spec.name][0],
            "burn_slow": burns[spec.name][1],
            "burn_threshold": spec.burn_threshold,
            "firing": spec.name in engine.firing,
        }
        for spec in specs
    ]
    breached = bool(engine.firing)
    if args.json:
        json.dump(
            {"at": now, "breached": breached, "slos": results},
            sys.stdout, indent=2, sort_keys=True,
        )
        sys.stdout.write("\n")
    else:
        width = max(len(r["slo"]) for r in results)

        def fmt(value):
            return f"{value:.2f}" if value is not None else "-"

        print(f"slo check at t={now:g} over {args.rollups}")
        print(
            f"  {'slo':<{width}}  {'burn_fast':>9}  {'burn_slow':>9}  state"
        )
        for r in results:
            state = "FIRING" if r["firing"] else "ok"
            print(
                f"  {r['slo']:<{width}}  {fmt(r['burn_fast']):>9}  "
                f"{fmt(r['burn_slow']):>9}  {state}"
            )
        print("breached" if breached else "all objectives hold")
    return 1 if breached else 0


def run_campaign_worker_cli(args: argparse.Namespace) -> int:
    """``repro campaign-worker``: drain cells from a shared queue.

    Point any number of these (on any machine sharing the filesystem)
    at a directory seeded by ``repro run --distributed DIR``; each
    atomically claims cells via exclusive-create lease files, executes
    them, and commits results through the queue's content-addressed
    cache.  Exit code 1 flags quarantined cells, 2 a bad queue.
    """
    from repro.campaign import run_worker

    summary = run_worker(
        args.queue,
        worker_id=args.worker_id,
        retries=args.retries,
        poll=args.poll,
        wait=args.wait,
        idle_timeout=args.idle_timeout,
        max_cells=args.max_cells,
    )
    print(
        f"worker {summary.worker}: claimed={summary.claimed} "
        f"ok={summary.ok} cached={summary.cached} failed={summary.failed}"
    )
    for error in summary.errors:
        print(f"  {error}", file=sys.stderr)
    return 1 if summary.failed else 0


def run_figure_cli(args: argparse.Namespace) -> int:
    """A figure command: the run, under the telemetry its observability
    flags arm (none when no flag is given: zero overhead)."""
    tele = None
    if any(getattr(args, flag, None) for flag in OBSERVABILITY_FLAGS):
        from repro.telemetry import create_telemetry

        try:
            tele = create_telemetry(
                trace_path=args.trace,
                timeline_interval=(
                    args.timeline_interval if args.timeline else None
                ),
                profile=args.profile,
                wall_clock=args.wall_clock,
                causal=bool(args.causal),
                trace_rotate_bytes=args.trace_rotate_bytes,
                trace_backups=args.trace_backups,
            )
        except OSError as exc:
            args.parser.error(f"cannot open --trace file: {exc}")
    try:
        return run_figure(args, tele)
    finally:
        if tele is not None:
            emit_telemetry_outputs(tele, args)


def run_figure(args: argparse.Namespace, tele=None) -> int:
    """Run one figure command's table row and print its report
    (telemetry threaded when armed)."""
    figure = FIGURE_COMMANDS[args.figure]
    panels = figure.run(
        figure.configure(config_from_args(args)),
        network=getattr(args, "network", None),
        telemetry=tele,
        faults=_fault_plan(args),
    )
    print(figure.report(panels))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Bad user input (a config, plan, scenario or queue): handlers let it
    # propagate, and every command reports it the same way.
    try:
        return args.func(args)
    except (ConfigError, FaultError, WorkloadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # stdout piped into e.g. `head`, which closed early; exit quietly
        # like other well-behaved CLI tools instead of dumping a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
