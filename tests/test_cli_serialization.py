"""Tests for the CLI entry point and trace serialization."""

from __future__ import annotations

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from repro.__main__ import build_parser, config_from_args, main
from repro.errors import WorkloadError
from repro.workloads.distributions import make_distribution
from repro.workloads.serialization import (
    dump_trace,
    load_trace,
    trace_from_dict,
    trace_to_dict,
)
from repro.workloads.traces import (
    Trace,
    generate_coflow_trace,
    generate_flow_trace,
)

HOSTS = [f"h{i}" for i in range(6)]


def flow_trace(n=20, seed=5):
    return generate_flow_trace(
        hosts=HOSTS,
        distribution=make_distribution("websearch"),
        load=0.5, edge_capacity=1e9, num_arrivals=n, seed=seed,
    )


def coflow_trace(n=10, seed=5):
    return generate_coflow_trace(
        hosts=HOSTS,
        distribution=make_distribution("websearch"),
        load=0.5, edge_capacity=1e9, num_arrivals=n, seed=seed,
        min_width=2, max_width=3,
    )


class TestTraceSerialization:
    def test_flow_roundtrip(self):
        trace = flow_trace()
        restored = trace_from_dict(trace_to_dict(trace))
        assert restored.arrivals == trace.arrivals
        assert restored.seed == trace.seed
        assert restored.description == trace.description

    def test_coflow_roundtrip(self):
        trace = coflow_trace()
        restored = trace_from_dict(trace_to_dict(trace))
        assert restored.arrivals == trace.arrivals

    def test_file_roundtrip(self, tmp_path):
        trace = flow_trace()
        path = tmp_path / "trace.json"
        dump_trace(trace, str(path))
        assert load_trace(str(path)).arrivals == trace.arrivals

    def test_json_is_plain(self, tmp_path):
        path = tmp_path / "trace.json"
        dump_trace(flow_trace(n=3), str(path))
        payload = json.loads(path.read_text())
        assert payload["version"] == 1
        assert len(payload["arrivals"]) == 3
        assert payload["arrivals"][0]["kind"] == "flow"

    def test_bad_version_rejected(self):
        with pytest.raises(WorkloadError):
            trace_from_dict({"version": 99, "arrivals": []})

    def test_bad_kind_rejected(self):
        with pytest.raises(WorkloadError):
            trace_from_dict(
                {"version": 1, "arrivals": [{"kind": "mystery"}]}
            )

    def test_unserialisable_arrival_rejected(self):
        bogus = Trace(arrivals=(object(),), seed=0)
        with pytest.raises(WorkloadError):
            trace_to_dict(bogus)


class TestCLI:
    def test_parser_accepts_known_figures(self):
        parser = build_parser()
        args = parser.parse_args(["fig5", "--arrivals", "100"])
        assert args.figure == "fig5"
        assert args.arrivals == 100

    def test_parser_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "fig11" in out

    def test_fig1_exact(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "25.0" in out and "SRPT" in out

    def test_fig9_small(self, capsys):
        assert main([
            "fig9", "--arrivals", "80", "--hosts-per-rack", "5",
            "--pods", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "neat" in out and "minfct" in out

    def test_fig8_small(self, capsys):
        assert main([
            "fig8", "--arrivals", "80", "--hosts-per-rack", "5",
            "--pods", "1",
        ]) == 0
        assert "relative difference" in capsys.readouterr().out

    def test_fig10_small(self, capsys):
        assert main([
            "fig10", "--arrivals", "80", "--hosts-per-rack", "5",
            "--pods", "1",
        ]) == 0
        assert "mean |err|" in capsys.readouterr().out

    def test_fig3_small(self, capsys):
        assert main([
            "fig3", "--arrivals", "120", "--hosts-per-rack", "5",
            "--pods", "1",
        ]) == 0
        assert "minDist/minLoad" in capsys.readouterr().out

    def test_fig7_small(self, capsys):
        assert main([
            "fig7", "--arrivals", "40", "--hosts-per-rack", "5",
            "--pods", "1",
        ]) == 0
        assert "mean CCTs" in capsys.readouterr().out

    def test_fig11_small(self, capsys):
        assert main(["fig11", "--arrivals", "120"]) == 0
        assert "improvement over minLoad" in capsys.readouterr().out

    def test_all_summary_small(self, capsys, tmp_path):
        argv = [
            "all", "--arrivals", "60", "--hosts-per-rack", "4",
            "--pods", "1", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "fig1  motivating example: EXACT match" in out
        for token in ("fig3", "fig5", "fig6a", "fig6b", "fig7", "fig8",
                      "fig9", "fig10", "fig11"):
            assert token in out
        assert "misses=10" in out
        # An immediate re-run is served entirely from the cache.
        assert main(argv) == 0
        rerun = capsys.readouterr().out
        assert "hits=10" in rerun and "misses=0" in rerun
        assert "fig11" in rerun

    def test_fig6_network_override(self, capsys):
        assert main([
            "fig6", "--network", "srpt", "--arrivals", "80",
            "--hosts-per-rack", "5", "--pods", "1",
        ]) == 0
        assert "NEAT improvement" in capsys.readouterr().out


# ----------------------------------------------------------------------
# One subparser per command, taking only the options its handler reads
# ----------------------------------------------------------------------
ROOT = Path(__file__).resolve().parents[1]

WORKLOAD = ("--workload",)
TOPOLOGY = (
    "--pods", "--racks-per-pod", "--hosts-per-rack", "--load",
    "--oversubscription", "--arrivals", "--seed",
)
OBSERVABILITY = (
    "--trace", "--trace-rotate-bytes", "--trace-backups", "--metrics-out",
    "--timeline", "--timeline-interval", "--causal", "--profile",
    "--wall-clock",
)
EXECUTION = (
    "--jobs", "--cache-dir", "--no-cache", "--cell-timeout",
    "--cell-retries", "--status", "--lease-ttl",
)
CHAOS = ("--faults", "--state-ttl", "--push-node-state")
FIGURE = WORKLOAD + TOPOLOGY + OBSERVABILITY

#: Every command and the options it accepts (``-h`` aside).  Before the
#: subparser tree, the first twelve took all 37 options (444 pairs, most
#: of them silently ignored, e.g. ``fig1 --jobs 2``, ``all --trace x``).
COMMAND_OPTIONS = {
    "list": (),
    "all": TOPOLOGY + EXECUTION,
    "run": WORKLOAD + TOPOLOGY + ("--network",) + EXECUTION + CHAOS + (
        "--distributed", "--resume", "--aggregate-out", "--seeds",
        "--repetitions", "--networks", "--loads", "--placements",
        "--coflows",
    ),
    "fig1": (),
    "fig3": FIGURE + ("--network",),
    "fig5": FIGURE + CHAOS,
    "fig6": FIGURE + ("--network",) + CHAOS,
    "fig7": FIGURE + ("--network",),
    "fig8": FIGURE,
    "fig9": FIGURE + ("--network",),
    "fig10": FIGURE + ("--network",),
    "fig11": ("--arrivals", "--seed") + OBSERVABILITY,
    "status": ("--stall-threshold", "--stall-after"),
    "report": ("--prometheus", "--json", "--prefix"),
    "explain": ("--task", "--worst", "--percentile"),
    "trace": ("--format", "-o", "--output"),
    "serve": (
        "--seed", "--duration", "--faults", "--status", "--status-interval",
        "--prometheus-out", "--metrics-out", "--report-out",
        "--decisions-out", "--json", "--slo", "--recorder", "--rollups-out",
        "--stall-after",
    ),
    "faults": (
        "--pods", "--racks-per-pod", "--hosts-per-rack", "--oversubscription",
    ),
    "top": ("--stall-after", "--interval", "--once"),
    "slo": ("--at", "--json"),
    "campaign-worker": (
        "--worker-id", "--retries", "--poll", "--wait", "--idle-timeout",
        "--max-cells",
    ),
}


def _commands():
    """``{name: subparser}`` of the one subparser tree."""
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return commands.choices


def _options(subparser):
    return {
        option
        for action in subparser._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    }


class TestCommandTree:
    def test_each_command_takes_exactly_its_options(self):
        accepted = {
            name: _options(sub) for name, sub in _commands().items()
        }
        assert accepted == {
            name: set(options) for name, options in COMMAND_OPTIONS.items()
        }
        figures_and_campaigns = [
            "list", "all", "run", "fig1", "fig3", "fig5", "fig6", "fig7",
            "fig8", "fig9", "fig10", "fig11",
        ]
        pairs = sum(len(accepted[name]) for name in figures_and_campaigns)
        assert pairs == 183

    @pytest.mark.parametrize("argv, workload", [
        (["all"], "hadoop"),
        (["run"], "websearch"),
        (["fig3"], "datamining"),
        (["fig5"], "hadoop"),
        (["fig8", "--workload", "datamining"], "datamining"),
    ])
    def test_config_from_args_reads_each_commands_defaults(
        self, argv, workload
    ):
        cfg = config_from_args(build_parser().parse_args(argv))
        assert cfg.workload == workload
        assert (cfg.state_ttl, cfg.push_node_state) == (None, False)

    @pytest.mark.parametrize("argv", [
        ["fig1", "--jobs", "2"],
        ["fig1", "--trace", "t.jsonl"],
        ["list", "--seed", "1"],
        ["all", "--trace", "x"],
        ["all", "--profile"],
        ["all", "--distributed", "q"],
        ["all", "--workload", "websearch"],  # always the hadoop workload
        ["fig5", "--network", "las"],
        ["fig8", "--faults", "plan.json"],
        ["fig11", "--pods", "1"],
        ["top", "--stall-threshold", "1", "status.jsonl"],
    ])
    def test_ignored_options_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["fig5", "--timeline-interval", "0"],
        ["fig5", "--trace-rotate-bytes", "0"],
        ["fig5", "--trace-backups", "0"],
        ["explain", "run/", "--worst", "0"],
        ["serve", "s.json", "--status-interval", "-1"],
        ["serve", "s.json", "--stall-after", "0"],
        ["top", "status.jsonl", "--interval", "0"],
    ])
    def test_non_positive_values_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(COMMAND_OPTIONS))
    def test_help_exits_zero(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert f"python -m repro {name}" in capsys.readouterr().out


#: Documentation placeholders and a value that parses in their place.
PLACEHOLDERS = {"...": "", '"$@"': "", "COMMAND": "fig5", '"$cmd"': "fig5"}


def _code_chunks(path):
    """Shell text of a doc: fenced-block lines and inline code spans of a
    markdown file, every line of anything else; continuations joined."""
    text = path.read_text(encoding="utf-8").replace("\\\n", " ")
    if path.suffix != ".md":
        return text.splitlines()
    chunks = []
    for index, part in enumerate(text.split("```")):
        if index % 2:
            chunks.extend(part.splitlines())
        else:
            chunks.extend(
                span.replace("\n", " ") for span in re.findall(r"`([^`]+)`", part)
            )
    return chunks


def _documented_invocations():
    for doc in ("README.md", ".github/workflows/ci.yml",
                ".claude/skills/verify/SKILL.md"):
        chunks = _code_chunks(ROOT / doc)
        # A shell function wrapping the CLI (ci.yml's `sweep`): its calls
        # are invocations too.
        wrappers = {
            match.group(1): match.group(2)
            for match in re.finditer(
                r"(\w+)\(\) \{\s*(?:PYTHONPATH=src )?python -m repro (.*)",
                "\n".join(chunks),
            )
        }
        for chunk in chunks:
            for name, body in wrappers.items():
                chunk = re.sub(
                    rf"^\s*{name} ", f"python -m repro {body} ", chunk
                )
            for match in re.finditer(r"python -m repro (.*)", chunk):
                command = re.split(r"\s*(?:\d?>|[|&;#])", match.group(1))[0]
                for placeholder, value in PLACEHOLDERS.items():
                    command = command.replace(placeholder, value)
                argv = shlex.split(command)
                yield pytest.param(argv, id=f"{doc}: {' '.join(argv)}")


@pytest.mark.parametrize("argv", list(_documented_invocations()))
def test_documented_invocations_parse(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:  # only a documented --help may exit
        assert exc.code == 0 and "--help" in argv
