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

from repro.experiments.comparative import figure3
from repro.experiments.coflow_macro import figure7
from repro.experiments.config import MacroConfig, testbed_config
from repro.experiments.flow_macro import run_flow_macro
from repro.experiments.micro import figure8, figure9, figure10
from repro.experiments.motivating import render_figure1
from repro.experiments.testbed import figure11

FIGURES = {
    "fig1": "motivating example table (exact)",
    "fig3": "minDist vs minLoad comparative study",
    "fig5": "flow placement under Fair (gap per size bin)",
    "fig6": "flow placement under LAS or SRPT",
    "fig7": "coflow placement under Varys or SCF",
    "fig8": "Fair vs SRPT predictor under SRPT",
    "fig9": "preferred hosts vs minFCT",
    "fig10": "FCT prediction error",
    "fig11": "10-node testbed (NEAT vs minLoad)",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce figures from the NEAT paper (CoNEXT 2016).",
        epilog="additional subcommands (each has its own --help): "
               "'status DIR' renders a campaign health file with stall "
               "detection; 'report METRICS.json [--prometheus|--json]' "
               "renders a saved metrics snapshot; "
               "'explain DIR' prints the causal blame breakdown "
               "of a --causal trace; 'trace export DIR' converts a causal "
               "trace to Chrome/Perfetto JSON; 'serve SCENARIO.json' runs "
               "an open-loop streaming placement session; "
               "'campaign-worker DIR' drains cells from a campaign queue "
               "kept with 'run --distributed DIR'.",
    )
    parser.add_argument(
        "figure",
        choices=sorted(FIGURES) + ["list", "all", "run"],
        help="which figure to reproduce ('list' enumerates, 'all' runs a "
             "fast one-line-per-figure summary, 'run' executes a "
             "seed x network x load campaign sweep)",
    )
    parser.add_argument("--workload", default=None,
                        help="websearch | datamining | hadoop")
    parser.add_argument("--network", default=None,
                        help="network policy override (fair/las/srpt/fcfs, "
                             "varys/scf for fig7, srpt/fair for fig3)")
    parser.add_argument("--pods", type=int, default=2)
    parser.add_argument("--racks-per-pod", type=int, default=2)
    parser.add_argument("--hosts-per-rack", type=int, default=10)
    parser.add_argument("--load", type=float, default=0.7)
    parser.add_argument("--arrivals", type=int, default=800)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--oversubscription", type=float, default=1.0)
    obs = parser.add_argument_group(
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
        "--trace-rotate-bytes", type=int, default=None, metavar="BYTES",
        help="rotate the --trace file every BYTES of uncompressed JSONL "
             "(PATH.1..PATH.N backups; default: one unbounded file)",
    )
    obs.add_argument(
        "--trace-backups", type=int, default=4, metavar="N",
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
        "--timeline-interval", type=float, default=0.1, metavar="SECONDS",
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
    camp = parser.add_argument_group(
        "campaign execution",
        "workers and result caching for 'all' and 'run': every cell runs "
        "through one lease queue, and the results are byte-identical for "
        "every worker count",
    )
    camp.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="workers for campaign cells (default: %(default)s): 1 runs "
             "them in this process, N >= 2 starts N supervised worker "
             "processes, 0 (with --distributed/--resume) starts none and "
             "coordinates external 'python -m repro campaign-worker DIR' "
             "processes",
    )
    camp.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="content-addressed result cache directory; already-computed "
             "cells are served from it (default: %(default)s; a queue kept "
             "with --distributed stores its results inside DIR instead)",
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
        "--distributed", metavar="DIR", default=None,
        help="('run' only) keep the lease queue in DIR instead of a "
             "temporary directory, so workers anywhere that share the "
             "filesystem can join ('python -m repro campaign-worker DIR') "
             "and a killed run can be resumed",
    )
    camp.add_argument(
        "--resume", metavar="DIR", default=None,
        help="('run' only) resume the campaign kept in DIR: finished "
             "cells fold straight from disk, the rest execute, and the "
             "final aggregate is byte-identical to an uninterrupted run "
             "(grid flags are ignored; the manifest is authoritative)",
    )
    camp.add_argument(
        "--lease-ttl", type=float, default=30.0, metavar="SECONDS",
        help="seconds of lease silence before an unsupervised worker's "
             "cell counts as abandoned and may be stolen "
             "(default: %(default)s)",
    )
    camp.add_argument(
        "--aggregate-out", metavar="PATH", default=None,
        help="('run' only) write the campaign aggregate payload as "
             "canonical JSON (identical bytes for every --jobs value, "
             "external workers and resumed runs)",
    )
    sweep = parser.add_argument_group(
        "campaign sweep ('run' only)",
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
    chaos = parser.add_argument_group(
        "fault injection ('run', 'fig5', 'fig6')",
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
    return parser


def telemetry_from_args(args: argparse.Namespace):
    """Build a :class:`~repro.telemetry.Telemetry` when any observability
    flag was given; return None otherwise (zero overhead)."""
    if not (
        args.trace
        or args.metrics_out
        or args.timeline
        or args.profile
        or args.causal
    ):
        return None
    from repro.telemetry import create_telemetry

    return create_telemetry(
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
        extra = {"placement_decisions": tele.decisions.error_summary()}
        if tele.profiler is not None:
            extra["profile"] = tele.profiler.as_dict()
        tele.registry.write_json(args.metrics_out, extra=extra)
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


def config_from_args(args: argparse.Namespace, **overrides) -> MacroConfig:
    base = MacroConfig(
        pods=args.pods,
        racks_per_pod=args.racks_per_pod,
        hosts_per_rack=args.hosts_per_rack,
        workload=args.workload or overrides.pop("workload", "websearch"),
        load=args.load,
        num_arrivals=args.arrivals,
        seed=args.seed,
        oversubscription=args.oversubscription,
    )
    return replace(base, **overrides) if overrides else base


def _progress(line: str) -> None:
    """Per-cell campaign progress (stderr, so stdout stays parseable)."""
    print(line, file=sys.stderr, flush=True)


def _csv(text, convert=str):
    return [convert(part) for part in text.split(",") if part.strip()]


def _run_campaign_from_args(
    campaign, args: argparse.Namespace, *, directory=None, resume=False
):
    """Run a campaign with the CLI's execution flags; None (after
    printing the error) when the queue directory is unusable."""
    from repro.campaign import ResultCache, resolve_status_path, run_campaign
    from repro.errors import ConfigError

    # A kept queue stores results inside its own directory, so workers
    # on other machines find them.
    cached = directory is None and not args.no_cache
    try:
        return run_campaign(
            campaign,
            jobs=args.jobs,
            cache=ResultCache(args.cache_dir) if cached else None,
            timeout=args.cell_timeout,
            retries=args.cell_retries,
            progress=_progress,
            status_path=(
                resolve_status_path(args.status_path)
                if args.status_path is not None
                else None
            ),
            lease_ttl=args.lease_ttl,
            directory=directory,
            resume=resume,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def run_all_summary(args: argparse.Namespace) -> int:
    """One line per figure at a reduced scale (a few minutes total).

    Runs as a ten-cell campaign: ``--jobs`` parallelises the figures and
    the content-addressed cache makes re-runs (near-)instant.
    """
    from repro.campaign import build_all_campaign

    cfg = config_from_args(args, workload="hadoop")
    campaign = build_all_campaign(
        cfg, arrivals=args.arrivals, seed=args.seed
    )
    report = _run_campaign_from_args(campaign, args)
    if report is None:
        return 2
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
    from repro.campaign import (
        canonical_json,
        flow_grid,
        render_campaign_report,
    )

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
        base = config_from_args(args)
        if args.state_ttl is not None or args.push_node_state:
            base = replace(
                base,
                state_ttl=args.state_ttl,
                push_node_state=args.push_node_state,
            )
        fault_axis = None
        if args.faults:
            from repro.errors import FaultError
            from repro.faults import FaultPlan

            try:
                fault_axis = [FaultPlan.load(args.faults)]
            except FaultError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        seeds = _csv(args.seeds, int) if args.seeds else None
        networks = (
            _csv(args.networks)
            if args.networks
            else [args.network or ("varys" if args.coflows else "fair")]
        )
        campaign = flow_grid(
            name="cli-sweep",
            base_config=base,
            seeds=seeds,
            repetitions=None if seeds else args.repetitions,
            network_policies=networks,
            loads=_csv(args.loads, float) if args.loads else None,
            placements=tuple(_csv(args.placements)),
            coflows=args.coflows,
            faults=fault_axis,
        )
        report = _run_campaign_from_args(
            campaign, args, directory=args.distributed
        )
    if report is None:
        return 2
    print(render_campaign_report(report))
    if args.aggregate_out:
        with open(args.aggregate_out, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(report.aggregate_payload()))
            fh.write("\n")
        print(f"aggregate written to {args.aggregate_out}")
    return 1 if report.quarantined else 0


def run_status_cli(argv) -> int:
    """``repro status``: render a campaign's live health file.

    Exit code 1 flags stalled cells (non-terminal and silent beyond the
    threshold) so the command can gate watchdog scripts.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro status",
        description="Render a campaign status file with stall detection.",
    )
    parser.add_argument(
        "target",
        help="status file, or a directory containing status.jsonl "
             "(what 'repro run --status DIR' writes)",
    )
    from repro.campaign import DEFAULT_STALL_THRESHOLD

    parser.add_argument(
        "--stall-threshold", "--stall-after", type=float, metavar="SECONDS",
        default=DEFAULT_STALL_THRESHOLD, dest="stall_threshold",
        help="flag a non-terminal cell silent for longer than this "
             "(default: %(default)s; --stall-after matches the serve "
             "flag of the same name)",
    )
    args = parser.parse_args(argv)
    from repro.campaign import (
        read_status,
        render_status,
        resolve_status_path,
        summarize_status,
    )

    path = resolve_status_path(args.target)
    try:
        records = read_status(path)
    except OSError as exc:
        parser.error(f"cannot read status file: {exc}")
    summary = summarize_status(
        records, stall_threshold=args.stall_threshold
    )
    print(render_status(summary))
    return 1 if summary["stalled"] else 0


def run_report_cli(argv) -> int:
    """``repro report``: render a saved --metrics-out JSON snapshot."""
    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Render a saved metrics snapshot (--metrics-out "
                    "file), human-readable or Prometheus text format.",
    )
    parser.add_argument("metrics", help="a --metrics-out JSON file")
    style = parser.add_mutually_exclusive_group()
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
    parser.add_argument(
        "--prefix", default="repro_", metavar="PREFIX",
        help="metric name prefix for --prometheus (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    try:
        with open(args.metrics, "r", encoding="utf-8") as fp:
            snapshot = json.load(fp)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read metrics file: {exc}")
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


def run_explain_cli(argv) -> int:
    """``repro explain``: blame breakdown of a saved causal trace."""
    parser = argparse.ArgumentParser(
        prog="python -m repro explain",
        description="Decompose each completed flow's FCT (and coflow's "
                    "CCT) from a --causal trace into serialization, "
                    "queueing, contention, and fault components, and "
                    "print the per-task blame breakdown.",
    )
    parser.add_argument(
        "trace",
        help="a --causal JSONL file, or a directory containing "
             "causal.jsonl",
    )
    who = parser.add_mutually_exclusive_group()
    who.add_argument(
        "--task", metavar="TAG", default=None,
        help="explain only flows/coflows whose task tag equals TAG",
    )
    who.add_argument(
        "--worst", type=int, metavar="N", default=None,
        help="show the N slowest flows and coflows (default: 5)",
    )
    who.add_argument(
        "--percentile", type=float, metavar="P", default=None,
        help="show only flows at or above the P-th FCT percentile "
             "(e.g. 99)",
    )
    args = parser.parse_args(argv)
    if args.worst is not None and args.worst < 1:
        parser.error("--worst must be >= 1")
    if args.percentile is not None and not 0.0 <= args.percentile <= 100.0:
        parser.error("--percentile must be in [0, 100]")
    from repro.telemetry.causal import analyze, load_causal, render_explain

    path = resolve_causal_path(args.trace)
    try:
        events = load_causal(path)
    except OSError as exc:
        parser.error(f"cannot read causal trace: {exc}")
    except ValueError as exc:
        parser.error(str(exc))
    analyses = analyze(events)
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


def run_trace_cli(argv) -> int:
    """``repro trace``: convert a causal trace to viewer formats."""
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Work with saved --causal traces. 'export' converts "
                    "one to Chrome/Perfetto trace-event JSON (one track "
                    "per host/link, flow slices with rate-change "
                    "sub-slices, fault windows as overlay tracks) for "
                    "ui.perfetto.dev or chrome://tracing.",
    )
    parser.add_argument("action", choices=["export"])
    parser.add_argument(
        "trace",
        help="a --causal JSONL file, or a directory containing "
             "causal.jsonl",
    )
    parser.add_argument(
        "--format", choices=["perfetto"], default="perfetto",
        help="output format (default: %(default)s)",
    )
    parser.add_argument(
        "-o", "--output", metavar="PATH", default=None,
        help="output file (default: <trace>.perfetto.json next to the "
             "input)",
    )
    args = parser.parse_args(argv)
    from repro.telemetry.causal import load_causal
    from repro.telemetry.perfetto import save_perfetto

    path = resolve_causal_path(args.trace)
    try:
        events = load_causal(path)
    except OSError as exc:
        parser.error(f"cannot read causal trace: {exc}")
    except ValueError as exc:
        parser.error(str(exc))
    out = args.output
    if out is None:
        stem = path[:-len(".jsonl")] if path.endswith(".jsonl") else path
        out = stem + ".perfetto.json"
    try:
        count = save_perfetto(events, out)
    except OSError as exc:
        parser.error(f"cannot write {out}: {exc}")
    print(f"perfetto trace written to {out} ({count} events)")
    return 0


def run_serve_cli(argv) -> int:
    """``repro serve``: one open-loop serving session from a scenario."""
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run NEAT as a streaming placement service: an "
                    "open-loop arrival stream (Poisson/diurnal/burst) is "
                    "served through the placement daemons in adaptive "
                    "micro-batches with admission control, inside the "
                    "deterministic simulator.  Same (seed, scenario) "
                    "twice gives byte-identical decision logs and final "
                    "report JSON.",
    )
    parser.add_argument("scenario", help="scenario JSON file (see "
                        "examples/service_diurnal.json)")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's seed",
    )
    parser.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="override the scenario's session length (simulated seconds)",
    )
    parser.add_argument(
        "--faults", metavar="PLAN.json", default=None,
        help="inject this fault plan into the session",
    )
    parser.add_argument(
        "--status", metavar="PATH", default=None, dest="status_path",
        help="append live heartbeat records (JSONL) here — a file, or a "
             "directory that gets status.jsonl; watch with "
             "'python -m repro status PATH'",
    )
    parser.add_argument(
        "--status-interval", type=float, default=1.0, metavar="SECONDS",
        help="simulated seconds between heartbeats (default: %(default)s; "
             "part of the deterministic inputs)",
    )
    parser.add_argument(
        "--prometheus-out", metavar="PATH", default=None,
        help="refresh this file with the live metrics snapshot in "
             "Prometheus text format at every heartbeat",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the final counters/gauges/histograms snapshot as JSON "
             "(render with 'python -m repro report')",
    )
    parser.add_argument(
        "--report-out", metavar="PATH", default=None,
        help="write the deterministic final report as JSON "
             "(byte-identical for same seed+scenario)",
    )
    parser.add_argument(
        "--decisions-out", metavar="PATH", default=None,
        help="write the placement decision log as deterministic JSONL",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the deterministic report JSON to stdout instead of "
             "the text summary",
    )
    live = parser.add_argument_group(
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
        "--stall-after", type=float, default=None, metavar="SECONDS",
        help="flag a stall (status record + recorder dump) when no new "
             "decision lands for this many simulated seconds while "
             "requests queue",
    )
    args = parser.parse_args(argv)
    if args.status_interval <= 0:
        parser.error("--status-interval must be positive")
    if args.stall_after is not None and args.stall_after <= 0:
        parser.error("--stall-after must be positive")
    from dataclasses import replace as _replace

    from repro.errors import ConfigError, FaultError, WorkloadError
    from repro.service import PlacementServer, ServiceScenario
    from repro.service.server import decisions_as_jsonl, render_service_report

    try:
        scenario = ServiceScenario.from_json_file(args.scenario)
        if args.seed is not None:
            scenario = _replace(scenario, seed=args.seed)
        if args.duration is not None:
            scenario = _replace(scenario, duration=args.duration)
    except (ConfigError, WorkloadError) as exc:
        parser.error(str(exc))
    faults = None
    if args.faults:
        from repro.faults import FaultPlan

        try:
            faults = FaultPlan.load(args.faults)
        except FaultError as exc:
            parser.error(str(exc))
    slo_specs = None
    if args.slo:
        from repro.telemetry.slo import load_slo_specs

        try:
            slo_specs = load_slo_specs(args.slo)
        except ConfigError as exc:
            parser.error(str(exc))
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
    try:
        report = server.run()
    except (ConfigError, WorkloadError, FaultError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    if args.metrics_out and tele is not None:
        tele.close()
        tele.registry.write_json(args.metrics_out)
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


def run_faults_cli(argv) -> int:
    """``repro faults``: validate (and describe) a fault plan file."""
    parser = argparse.ArgumentParser(
        prog="python -m repro faults",
        description="Work with fault-injection plans (JSON). 'validate' "
                    "parses the plan, optionally checks its link/host "
                    "references against a Clos topology, and prints a "
                    "per-event summary.",
    )
    parser.add_argument("action", choices=["validate"])
    parser.add_argument("plan", help="fault plan JSON file")
    parser.add_argument(
        "--pods", type=int, default=None,
        help="with --racks-per-pod/--hosts-per-rack: also check link and "
             "host references against this Clos topology",
    )
    parser.add_argument("--racks-per-pod", type=int, default=2)
    parser.add_argument("--hosts-per-rack", type=int, default=10)
    parser.add_argument("--oversubscription", type=float, default=1.0)
    args = parser.parse_args(argv)
    from repro.errors import FaultError
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


def run_top_cli(argv) -> int:
    """``repro top``: live dashboard over a serve/campaign status stream.

    Redraws at a wall-clock interval until the stream settles (every
    cell finished) or the user interrupts; ``--once`` renders a single
    frame and exits with 1 when a cell is stalled (CI-friendly).
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro top",
        description="Watch a live status stream (what 'repro serve "
                    "--status PATH' or a campaign supervisor appends "
                    "to): per-cell decision rates, SLO burn-rate table, "
                    "and recent alert/stall events.",
    )
    parser.add_argument(
        "target",
        help="status file, or a directory containing status.jsonl",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="wall seconds between redraws (default: %(default)s)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="render one frame and exit (exit code 1 flags stalls)",
    )
    from repro.campaign import DEFAULT_STALL_THRESHOLD

    parser.add_argument(
        "--stall-after", type=float, metavar="SECONDS",
        default=DEFAULT_STALL_THRESHOLD,
        help="flag a non-settled cell silent for longer than this "
             "(default: %(default)s)",
    )
    args = parser.parse_args(argv)
    if args.interval <= 0:
        parser.error("--interval must be positive")
    import time as _time

    from repro.campaign import read_status, resolve_status_path
    from repro.telemetry.top import render_top, stream_settled

    path = resolve_status_path(args.target)

    def frame():
        try:
            records = read_status(path)
        except OSError as exc:
            parser.error(f"cannot read status file: {exc}")
        return records, render_top(
            records, stall_threshold=args.stall_after
        )

    if args.once:
        records, text = frame()
        print(text)
        return 1 if "STALLED" in text else 0
    try:
        while True:
            records, text = frame()
            # Clear screen + home, then the frame (plain ANSI, no deps).
            sys.stdout.write("\x1b[2J\x1b[H" + text + "\n")
            sys.stdout.flush()
            if stream_settled(records):
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def run_slo_cli(argv) -> int:
    """``repro slo``: offline SLO evaluation against saved rollups.

    ``repro slo check SPEC ROLLUPS`` exits 0 when every objective holds,
    1 when any burns beyond threshold in both windows, 2 on bad inputs —
    so CI can gate on a serve session's rollup file.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro slo",
        description="Evaluate declarative SLO specs against a saved "
                    "rollup store ('repro serve --rollups-out').",
    )
    parser.add_argument("action", choices=["check"])
    parser.add_argument(
        "spec",
        help="SLO spec JSON (see examples/service_slo.json) or the "
             "literal 'default' for the stock service objectives",
    )
    parser.add_argument("rollups", help="a --rollups-out JSON file")
    parser.add_argument(
        "--at", type=float, default=None, metavar="SIM_SECONDS",
        help="evaluate at this simulated time (default: the store's "
             "last sample)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit per-SLO burn rates as machine-readable JSON",
    )
    args = parser.parse_args(argv)
    from repro.errors import ConfigError
    from repro.telemetry.slo import load_slo_specs
    from repro.telemetry.timeseries import TimeseriesStore

    try:
        specs = load_slo_specs(args.spec)
        with open(args.rollups, "r", encoding="utf-8") as fp:
            store = TimeseriesStore.from_dict(json.load(fp))
    except (ConfigError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    now = args.at if args.at is not None else store.last_sample
    if now is None:
        print("error: rollup store has no samples", file=sys.stderr)
        return 2
    results = []
    breached = False
    for spec in specs:
        fast = spec.burn_rate(store, window=spec.fast_window, now=now)
        slow = spec.burn_rate(store, window=spec.slow_window, now=now)
        firing = (
            fast is not None
            and slow is not None
            and fast >= spec.burn_threshold
            and slow >= spec.burn_threshold
        )
        breached = breached or firing
        results.append(
            {
                "slo": spec.name,
                "kind": spec.kind,
                "metric": spec.metric,
                "burn_fast": fast,
                "burn_slow": slow,
                "burn_threshold": spec.burn_threshold,
                "firing": firing,
            }
        )
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


#: Subcommands with their own parsers, dispatched before the figure CLI.
def run_campaign_worker_cli(argv) -> int:
    """``repro campaign-worker``: drain cells from a shared queue.

    Point any number of these (on any machine sharing the filesystem)
    at a directory seeded by ``repro run --distributed DIR``; each
    atomically claims cells via exclusive-create lease files, executes
    them, and commits results through the queue's content-addressed
    cache.  Exit code 1 flags quarantined cells, 2 a bad queue.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro campaign-worker",
        description="Work-stealing campaign worker over a shared queue "
                    "directory (seeded by 'repro run --distributed DIR'). "
                    "Claims are exclusive-create lease files; leases "
                    "silent beyond the queue's TTL are stolen, so a "
                    "crashed worker's cell is re-claimed automatically.",
    )
    parser.add_argument(
        "queue",
        help="campaign queue directory (must contain manifest.json)",
    )
    parser.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="identity recorded in leases and done markers "
             "(default: host:pid)",
    )
    parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="attempts beyond the first before a cell is quarantined, "
             "counting claims lost to crashed workers "
             "(default: %(default)s)",
    )
    parser.add_argument(
        "--poll", type=float, default=0.2, metavar="SECONDS",
        help="claim-poll interval while waiting (default: %(default)s)",
    )
    parser.add_argument(
        "--wait", action="store_true",
        help="keep polling until the whole queue completes instead of "
             "exiting at the first empty claim (for workers started "
             "alongside or before the supervisor)",
    )
    parser.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="with --wait, give up after this long without claiming "
             "anything (guards orphaned workers)",
    )
    parser.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help="stop after claiming this many cells",
    )
    args = parser.parse_args(argv)
    from repro.campaign import run_worker
    from repro.errors import ConfigError

    try:
        summary = run_worker(
            args.queue,
            worker_id=args.worker_id,
            retries=args.retries,
            poll=args.poll,
            wait=args.wait,
            idle_timeout=args.idle_timeout,
            max_cells=args.max_cells,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"worker {summary.worker}: claimed={summary.claimed} "
        f"ok={summary.ok} cached={summary.cached} failed={summary.failed}"
    )
    for error in summary.errors:
        print(f"  {error}", file=sys.stderr)
    return 1 if summary.failed else 0


_SUBCOMMANDS = {
    "status": run_status_cli,
    "campaign-worker": run_campaign_worker_cli,
    "report": run_report_cli,
    "faults": run_faults_cli,
    "explain": run_explain_cli,
    "trace": run_trace_cli,
    "serve": run_serve_cli,
    "top": run_top_cli,
    "slo": run_slo_cli,
}


def _load_fault_plan(args: argparse.Namespace):
    """The ``--faults`` plan for a figure run (None when not given)."""
    if not args.faults:
        return None
    from repro.faults import FaultPlan

    return FaultPlan.load(args.faults)


def run_figure(args: argparse.Namespace, tele=None) -> int:
    """Dispatch one figure (telemetry threaded when armed)."""
    if args.figure == "fig1":
        print(render_figure1())
        return 0

    if args.figure == "fig3":
        cfg = config_from_args(args, workload=args.workload or "datamining")
        if cfg.oversubscription == 1.0:
            cfg = replace(cfg, oversubscription=4.0)
        outcome = figure3(args.network or "fair", cfg, telemetry=tele)
        print(outcome.table())
        print(f"\noverall minDist/minLoad ratio: {outcome.overall_ratio():.2f}")
        return 0

    if args.figure == "fig5":
        cfg = config_from_args(args, workload=args.workload or "hadoop")
        outcome = run_flow_macro(
            network_policy="fair", config=cfg, telemetry=tele,
            faults=_load_fault_plan(args),
        )
    elif args.figure == "fig6":
        cfg = config_from_args(args, workload=args.workload or "hadoop")
        outcome = run_flow_macro(
            network_policy=args.network or "las", config=cfg, telemetry=tele,
            faults=_load_fault_plan(args),
        )
    elif args.figure == "fig7":
        cfg = config_from_args(args, workload=args.workload or "hadoop")
        cfg = replace(cfg, coflows=True)
        result = figure7(args.network or "varys", cfg, telemetry=tele)
        print(result.table())
        ccts = result.average_ccts()
        print("\nmean CCTs: " + ", ".join(f"{k}={v:.3f}s" for k, v in ccts.items()))
        return 0
    elif args.figure == "fig8":
        cfg = config_from_args(args, workload=args.workload or "hadoop")
        comparison = figure8(cfg, telemetry=tele)
        fair, srpt = comparison.gaps()
        print(f"NEAT + Fair predictor : mean gap = {fair:.3f}")
        print(f"NEAT + SRPT predictor : mean gap = {srpt:.3f}")
        print(f"relative difference   = {comparison.relative_difference():.3f}")
        return 0
    elif args.figure == "fig9":
        cfg = config_from_args(args, workload=args.workload or "hadoop")
        result = figure9(
            cfg, network_policy=args.network or "fair", telemetry=tele
        )
        for name, gap in result.average_gaps().items():
            print(f"{name:8s} mean gap = {gap:.3f}")
        return 0
    elif args.figure == "fig10":
        cfg = config_from_args(args, workload=args.workload or "hadoop")
        short, long = figure10(
            cfg, network_policy=args.network or "srpt", telemetry=tele
        )
        for summary in (short, long):
            print(
                f"{summary.label:5s} flows (n={summary.count}): "
                f"mean |err| = {summary.mean_abs_error:.3f}, "
                f"p95 |err| = {summary.p95_abs_error:.3f}"
            )
        return 0
    elif args.figure == "fig11":
        cfg = testbed_config(num_arrivals=args.arrivals, seed=args.seed)
        result = figure11(cfg, telemetry=tele)
        for net in ("fair", "las"):
            print(
                f"{net.upper():5s} NEAT improvement over minLoad: "
                f"{result.improvement_percent(net):.1f}%"
            )
        return 0
    else:  # pragma: no cover - argparse restricts choices
        return 2

    # fig5/fig6 shared rendering
    print(outcome.table())
    gaps = outcome.average_gaps()
    print("\nmean gaps: " + ", ".join(f"{k}={v:.2f}" for k, v in gaps.items()))
    print(
        f"NEAT improvement: {outcome.improvement_over('minload'):.2f}x vs "
        f"minLoad, {outcome.improvement_over('mindist'):.2f}x vs minDist"
    )
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.figure == "list":
        for name in sorted(FIGURES):
            print(f"{name:6s} {FIGURES[name]}")
        return 0

    if args.jobs < 0 or (
        args.jobs == 0 and not (args.distributed or args.resume)
    ):
        parser.error(
            "--jobs must be >= 1 (0 only with --distributed/--resume, "
            "to coordinate external workers)"
        )

    if args.trace_rotate_bytes is not None and args.trace_rotate_bytes < 1:
        parser.error("--trace-rotate-bytes must be >= 1")
    if args.trace_backups < 1:
        parser.error("--trace-backups must be >= 1")

    if args.figure == "all":
        return run_all_summary(args)

    if args.figure == "run":
        return run_campaign_cli(args)

    if args.timeline and args.timeline_interval <= 0:
        parser.error("--timeline-interval must be positive")
    try:
        tele = telemetry_from_args(args)
    except OSError as exc:
        parser.error(f"cannot open --trace file: {exc}")
    from repro.errors import FaultError

    try:
        rc = run_figure(args, tele)
    except FaultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if tele is not None:
            emit_telemetry_outputs(tele, args)
    return rc


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # stdout piped into e.g. `head`, which closed early; exit quietly
        # like other well-behaved CLI tools instead of dumping a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
