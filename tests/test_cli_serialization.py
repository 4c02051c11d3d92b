"""Tests for the CLI entry point."""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

import pytest

from repro.__main__ import build_parser, config_from_args, main

#: ``repro all --arrivals 80 --hosts-per-rack 4``, one line per figure cell.
ALL_SUMMARY_LINES = [
    "fig1  motivating example: EXACT match",
    "fig3  minDist/minLoad overall FCT ratio under Fair: 0.98 [ctrl msgs: 0]",
    "fig5  FAIR: NEAT 1.00x vs minLoad, 1.21x vs minDist "
    "[ctrl msgs: neat=2016]",
    "fig6a LAS : NEAT 1.00x vs minLoad, 1.14x vs minDist "
    "[ctrl msgs: neat=2016]",
    "fig6b SRPT: NEAT 1.00x vs minLoad, 1.03x vs minDist "
    "[ctrl msgs: neat=2016]",
    "fig7  Varys coflows: mean CCT neat=0.281s minload=0.252s "
    "mindist=0.302s [ctrl msgs: neat=5428]",
    "fig8  Fair-vs-SRPT predictor relative difference: 0.39 "
    "[ctrl msgs: neat-fair=2016, neat-srpt=1980]",
    "fig9  minFCT degradation without node states (Fair): 0% "
    "[ctrl msgs: neat=2016]",
    "fig10 prediction error: short 0.000, long 0.013 (mean |err|)",
    "fig11 testbed: NEAT vs minLoad -2.6% (Fair), -3.0% (LAS) "
    "[ctrl msgs: neat/fair=1082, neat/las=1042]",
]


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

    def test_all_summary_lines_are_pinned(self, capsys):
        """Every figure line of ``repro all`` at a pinned size, verbatim:
        the lines are rendered from the figure table, so a row that drifts
        (its config, placements, networks or format) fails here."""
        assert main([
            "all", "--arrivals", "80", "--hosts-per-rack", "4", "--no-cache",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:10] == ALL_SUMMARY_LINES
        assert lines[10:] == ["cache: hits=0 misses=10 writes=10"]

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
