"""The figure table: each paper figure the repo reproduces, defined once.

:data:`FIGURES` holds one :class:`Figure` row per figure cell (``fig1`` ...
``fig11``; Figure 6's two panels are the cells ``fig6a`` and ``fig6b``).
A row is everything its consumers read:

* the CLI command and its description (``repro list``, ``repro figN``)
  and the option groups the command takes;
* the default workload, network policies and placements, the config
  transform every scale applies (``configure``) and the one only the
  ``repro all`` summary applies on top (``summarize``);
* the ``repro all`` verdict and the CLI report, both rendered from the
  run's :class:`MacroOutcome` per network policy (a row's *panels*);
* the paper's claim as :class:`Claim` predicates over the panels of the
  row's sweep, each with its bound at the small (tier-1) scale and at the
  bench scale (``benchmarks/bench_figures.py``).

A figure run, :meth:`Figure.run`, replays one shared trace once per
network policy and placement, so every comparison inside a row is paired.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import (
    MacroConfig,
    build_testbed_topology,
    testbed_config,
)
from repro.experiments.motivating import (
    EXPECTED_FIGURE1,
    figure1_table,
    render_figure1,
)
from repro.experiments.runner import (
    RunResult,
    replay_coflow_trace,
    replay_flow_trace,
)
from repro.metrics.report import gap_by_bin_table, ratio_by_bin_table
from repro.metrics.stats import (
    afct,
    average_gap,
    mean,
    percentile,
    summarize_by_size,
)


class PlacementStats:
    """Mean gap and mean completion time per placement, and NEAT's
    improvement over a baseline, read from ``per_placement``."""

    per_placement: Dict[str, Dict[str, float]]

    def average_gaps(self) -> Dict[str, float]:
        return {n: s["average_gap"] for n, s in self.per_placement.items()}

    def afcts(self) -> Dict[str, float]:
        """Mean completion time per placement (FCT, or CCT for coflows)."""
        return {n: s["mean_completion"] for n, s in self.per_placement.items()}

    def improvement_over(self, baseline: str, *, metric: str = "gap") -> float:
        """NEAT's improvement factor over ``baseline``: mean gap-from-optimal
        (``"gap"``, the figures' y-axis) or mean completion (``"afct"``)."""
        values = self.average_gaps() if metric == "gap" else self.afcts()
        neat = values["neat"]
        if neat <= 0:
            return float("inf")
        return values[baseline] / neat


@dataclass
class MacroOutcome(PlacementStats):
    """One network policy's replays of a shared trace, keyed by the row's
    run labels (placement names; ``neat-fair`` / ``neat-srpt`` in Fig 8)."""

    network_policy: str
    workload: str
    results: Dict[str, RunResult]

    @property
    def per_placement(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "average_gap": average_gap(r.records),
                "mean_completion": afct(r.records),
            }
            for name, r in self.results.items()
        }

    def improvement_percent(self, baseline: str) -> float:
        """(mean completion of ``baseline`` - NEAT's) / baseline's x 100."""
        base = afct(self.results[baseline].records)
        if base <= 0:
            return 0.0
        return (base - afct(self.results["neat"].records)) / base * 100.0

    def table(self, *, num_bins: int = 8) -> str:
        return gap_by_bin_table(
            {name: r.records for name, r in self.results.items()},
            num_bins=num_bins,
        )

    def summary_dict(self) -> Dict[str, object]:
        """JSON-safe summary (for archiving / external plotting)."""
        return {
            "network_policy": self.network_policy,
            "workload": self.workload,
            "average_gaps": self.average_gaps(),
            "afcts": self.afcts(),
            **{
                f"improvement_vs_{base}": self.improvement_over(base)
                if {"neat", base} <= self.results.keys() else None
                for base in ("minload", "mindist")
            },
            "num_records": {
                n: len(r.records) for n, r in self.results.items()
            },
        }


#: A row's outcomes: network policy (a workload on Fig 5's sweep) -> outcome.
Panels = Dict[str, MacroOutcome]


# ----------------------------------------------------------------------
# What the rows read off an outcome
# ----------------------------------------------------------------------
def ctrl_messages(runs: Dict[str, RunResult]) -> str:
    """Control-plane messages per run; runs that sent none are omitted."""
    counts = [
        f"{n}={r.control_messages}"
        for n, r in runs.items() if r.control_messages
    ]
    return "ctrl msgs: " + (", ".join(counts) if counts else "0")


def _only(panels: Panels) -> MacroOutcome:
    (outcome,) = panels.values()
    return outcome


def _figure1_exact(bound: float) -> bool:
    return all(
        abs(row.completion_time - expected[0]) < bound
        and abs(row.total_increase - expected[1]) < bound
        for row in figure1_table()
        for expected in [EXPECTED_FIGURE1[(row.network_policy, row.placement)]]
    )


def overall_ratio(outcome: MacroOutcome) -> float:
    """Fig 3: mean FCT of minDist / minLoad; below 1 means minDist wins."""
    ccts = outcome.afcts()
    return ccts["mindist"] / ccts["minload"]


def per_bin_ratios(
    outcome: MacroOutcome, *, num_bins: int = 6
) -> List[Tuple[str, float]]:
    """Fig 3: the minDist / minLoad mean-FCT ratio per shared size bin."""
    dist = outcome.results["mindist"].records
    load = outcome.results["minload"].records
    common = summarize_by_size(list(dist) + list(load), num_bins=num_bins)
    bounds = [s.lower for s in common] + [common[-1].upper]
    dist_bins = {s.lower: s for s in summarize_by_size(dist, bounds)}
    load_bins = {s.lower: s for s in summarize_by_size(load, bounds)}
    ratios: List[Tuple[str, float]] = []
    for summary in common:
        a, b = dist_bins.get(summary.lower), load_bins.get(summary.lower)
        if a is not None and b is not None and b.mean_fct > 0:
            ratios.append((summary.label, a.mean_fct / b.mean_fct))
    return ratios


def relative_difference(outcome: MacroOutcome) -> float:
    """Fig 8: |gap_fair - gap_srpt| / max of the two (Proposition 4.1)."""
    gaps = outcome.average_gaps()
    fair, srpt = gaps["neat-fair"], gaps["neat-srpt"]
    return abs(fair - srpt) / max(fair, srpt, 1e-12)


def minfct_degradation(outcome: MacroOutcome) -> float:
    """Fig 9: gap(minFCT) / gap(NEAT) - 1, what dropping node state costs."""
    gaps = outcome.average_gaps()
    if gaps["neat"] <= 0:
        return float("inf")
    return gaps["minfct"] / gaps["neat"] - 1.0


@dataclass
class PredictionErrorSummary:
    """Relative prediction error statistics for one size class."""

    label: str
    count: int
    mean_abs_error: float
    median_error: float
    p95_abs_error: float


def prediction_errors(run: RunResult) -> List[Tuple[float, float]]:
    """Per-flow ``(size, (actual - predicted) / predicted)`` pairs, skipping
    non-positive predictions (fully local placements)."""
    by_tag = {r.tag: r for r in run.records}
    pairs: List[Tuple[float, float]] = []
    for tag, predicted in run.predictions.items():
        record = by_tag.get(tag)
        if record is not None and predicted > 0:
            pairs.append((record.size, (record.fct - predicted) / predicted))
    return pairs


def prediction_error_summaries(
    run: RunResult, split_size: Optional[float] = None
) -> Tuple[PredictionErrorSummary, PredictionErrorSummary]:
    """Fig 10: ``(short, long)`` error summaries, split at ``split_size``
    (default: the median predicted flow's size)."""
    pairs = prediction_errors(run)
    if not pairs:
        raise ValueError("no prediction samples collected")
    if split_size is None:
        split_size = sorted(size for size, _err in pairs)[len(pairs) // 2]

    def summarize(label: str, long: bool) -> PredictionErrorSummary:
        errors = [err for size, err in pairs if (size > split_size) == long]
        if not errors:
            return PredictionErrorSummary(label, 0, 0.0, 0.0, 0.0)
        abs_errors = [abs(err) for err in errors]
        return PredictionErrorSummary(
            label, len(errors), mean(abs_errors), percentile(errors, 50),
            percentile(abs_errors, 95),
        )

    return summarize("short", False), summarize("long", True)


def _errors(panels: Panels):
    return prediction_error_summaries(_only(panels).results["neat"])


# ----------------------------------------------------------------------
# Renderers: the CLI report and the ``repro all`` verdict of each row
# ----------------------------------------------------------------------
def _each(render: Callable[[MacroOutcome], str], sep: str = "\n\n"):
    """A panels renderer that renders each panel in turn."""
    return lambda panels: sep.join(render(o) for o in panels.values())


def _gap_report(o: MacroOutcome) -> str:
    gaps = ", ".join(f"{k}={v:.2f}" for k, v in o.average_gaps().items())
    return (
        f"{o.table()}\n\nmean gaps: {gaps}\n"
        f"NEAT improvement: {o.improvement_over('minload'):.2f}x vs "
        f"minLoad, {o.improvement_over('mindist'):.2f}x vs minDist"
    )


def _flow_verdict(panels: Panels) -> str:
    o = _only(panels)
    return (
        f"{o.network_policy.upper():4s}: NEAT "
        f"{o.improvement_over('minload'):.2f}x vs minLoad, "
        f"{o.improvement_over('mindist'):.2f}x vs minDist "
        f"[{ctrl_messages(o.results)}]"
    )


def _fig3_report(o: MacroOutcome) -> str:
    table = ratio_by_bin_table(
        o.results["mindist"].records, o.results["minload"].records,
        labels=("minDist", "minLoad"),
    )
    return f"{table}\n\noverall minDist/minLoad ratio: {overall_ratio(o):.2f}"


def _fig7_report(o: MacroOutcome) -> str:
    ccts = ", ".join(f"{k}={v:.3f}s" for k, v in o.afcts().items())
    return f"{o.table(num_bins=6)}\n\nmean CCTs: {ccts}"


def _fig7_verdict(panels: Panels) -> str:
    o = _only(panels)
    ccts = o.afcts()
    return (
        f"Varys coflows: mean CCT neat={ccts['neat']:.3f}s "
        f"minload={ccts['minload']:.3f}s mindist={ccts['mindist']:.3f}s "
        f"[{ctrl_messages(o.results)}]"
    )


def _fig8_report(o: MacroOutcome) -> str:
    gaps = o.average_gaps()
    return (
        f"NEAT + Fair predictor : mean gap = {gaps['neat-fair']:.3f}\n"
        f"NEAT + SRPT predictor : mean gap = {gaps['neat-srpt']:.3f}\n"
        f"relative difference   = {relative_difference(o):.3f}"
    )


def _fig10_report(panels: Panels) -> str:
    return "\n".join(
        f"{s.label:5s} flows (n={s.count}): mean |err| = "
        f"{s.mean_abs_error:.3f}, p95 |err| = {s.p95_abs_error:.3f}"
        for s in _errors(panels)
    )


def _fig10_verdict(panels: Panels) -> str:
    short, long = _errors(panels)
    return (
        f"prediction error: short {short.mean_abs_error:.3f}, "
        f"long {long.mean_abs_error:.3f} (mean |err|)"
    )


def _fig11_verdict(panels: Panels) -> str:
    fair, las = (
        panels[n].improvement_percent("minload") for n in ("fair", "las")
    )
    neat = {f"neat/{n}": o.results["neat"] for n, o in panels.items()}
    return (
        f"testbed: NEAT vs minLoad {fair:+.1f}% (Fair), {las:+.1f}% (LAS) "
        f"[{ctrl_messages(neat)}]"
    )


# ----------------------------------------------------------------------
# Claims: predicates over a sweep's panels, bounded per scale
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Claim:
    """One paper claim: ``holds(panels, bound)`` must be true at each
    scale's bound; ``None`` means the claim is not asserted at that scale
    (the text says why)."""

    text: str
    holds: Callable[[Panels, float], bool]
    small: Optional[float]
    bench: Optional[float]


def _beats(
    value: str,
    baselines: Sequence[str],
    nets: Optional[Sequence[str]] = None,
):
    """NEAT's ``value`` (``gap`` or ``cct``) < bound x each baseline's, on
    the panels ``nets`` (default: every panel)."""

    def holds(panels: Panels, bound: float) -> bool:
        for net in nets or panels:
            o = panels[net]
            got = o.average_gaps() if value == "gap" else o.afcts()
            if not all(got["neat"] < got[b] * bound for b in baselines):
                return False
        return True

    return holds


def _fig6b_less_room(panels: Panels, bound: float) -> bool:
    srpt = panels["srpt"].average_gaps()
    return all(
        srpt[name] < panels[other].average_gaps()[name] * bound
        for other in ("las", "fair") for name in srpt
    )


def _fig3_rises(panels: Panels, bound: float) -> bool:
    ratios = per_bin_ratios(panels["fair"])
    return ratios[0][1] < ratios[-1][1] * bound


def _win(o: MacroOutcome) -> float:
    gaps = o.average_gaps()
    return gaps["minload"] - gaps["neat"]


BASELINES = ("minload", "mindist")


# ----------------------------------------------------------------------
# The rows
# ----------------------------------------------------------------------
def _unchanged(config: MacroConfig) -> MacroConfig:
    return config


#: A run: (label, placement policy, FCT predictor).
Run = Tuple[str, str, str]


def _runs(*placements: str) -> Tuple[Run, ...]:
    return tuple((p, p, "fair") for p in placements)


#: The CLI option groups of a macro figure command, in --help order; a row
#: names the groups its command takes, drawn from these, ``network``,
#: ``faults`` and ``observability``.
_MACRO = ("workload", "topology", "size")


@dataclass(frozen=True)
class Figure:
    """One figure cell: what it runs, how it reads and what it claims.

    ``networks`` are the policies a run replays (``--network`` replaces
    them on a command that takes it); ``panels`` are those the claims
    compare, on the ``axis`` the row sweeps (``"workload"``: Fig 5's two
    workloads under the row's network).  ``bench`` overrides the bench
    config before ``configure``.
    """

    id: str
    command: str
    description: str
    #: The ``repro all`` line after the id.
    verdict: Callable[[Panels], str]
    report: Callable[[Panels], str]
    claims: Tuple[Claim, ...]
    options: Tuple[str, ...] = _MACRO + ("observability",)
    workload: str = "hadoop"
    networks: Tuple[str, ...] = ("fair",)
    runs: Tuple[Run, ...] = _runs("neat", *BASELINES)
    configure: Callable[[MacroConfig], MacroConfig] = _unchanged
    summarize: Callable[[MacroConfig], MacroConfig] = _unchanged
    topology: Callable = MacroConfig.build_topology
    panels: Tuple[str, ...] = ()
    axis: str = "network"
    bench: Dict[str, object] = field(default_factory=dict)

    def run(
        self,
        config: MacroConfig,
        *,
        network: Optional[str] = None,
        telemetry=None,
        faults=None,
    ) -> Panels:
        """Replay the row on ``config`` (already configured): one outcome
        per network policy, every run on one shared trace.  ``network``
        replaces the row's networks when the row takes a ``--network``
        option; ``faults`` (a :class:`~repro.faults.FaultPlan`) is
        injected into each replay."""
        if network and "network" in self.options:
            return self._replay(config, (network,), telemetry, faults)
        return self._replay(config, self.networks, telemetry, faults)

    def _replay(self, config, networks, telemetry=None, faults=None):
        if not self.runs:
            return {}
        topology = self.topology(config)
        trace = config.build_trace(topology)
        replay = replay_coflow_trace if config.coflows else replay_flow_trace
        return {
            net: MacroOutcome(net, config.workload, {
                label: replay(
                    trace, topology, network_policy=net, placement=placement,
                    predictor=predictor, seed=config.seed,
                    max_candidates=config.max_candidates, telemetry=telemetry,
                    faults=faults, state_ttl=config.state_ttl,
                    push_updates=config.push_node_state,
                )
                for label, placement, predictor in self.runs
            })
            for net in networks
        }

    def sweep(self, config: MacroConfig) -> Panels:
        """The panels the claims compare, run on ``config``."""
        if self.axis == "workload":
            return {
                w: _only(self.run(replace(config, workload=w)))
                for w in self.panels
            }
        return self._replay(config, self.panels or self.networks)

    def failures(self, panels: Panels, scale: str) -> List[str]:
        """The claims that do not hold at ``scale`` (``"small"`` or
        ``"bench"``), each with its bound."""
        failed = []
        for claim in self.claims:
            bound = getattr(claim, scale)
            if bound is not None and not claim.holds(panels, bound):
                failed.append(f"{self.id}: {claim.text} (bound {bound})")
        return failed


def _fig3_config(config: MacroConfig) -> MacroConfig:
    # Locality must matter for distance to matter: an unset (1.0)
    # oversubscription becomes the study's 4.0.
    if config.oversubscription == 1.0:
        return replace(config, oversubscription=4.0)
    return config


_FIG3_SRPT = "under SRPT minDist never loses"
_FIG3_FAIR = "under Fair (the small scale does not show the shape)"

FIGURES: Dict[str, Figure] = {fig.id: fig for fig in (
    Figure(
        "fig1", "fig1", "motivating example table (exact)",
        verdict=lambda panels: "motivating example: "
        + ("EXACT match" if _figure1_exact(1e-6) else "MISMATCH"),
        report=lambda panels: render_figure1(),
        claims=(Claim(
            "every cell equals the paper's value within the bound",
            lambda panels, bound: _figure1_exact(bound), 1e-6, 1e-6,
        ),),
        options=(), runs=(),
    ),
    Figure(
        "fig3", "fig3", "minDist vs minLoad comparative study",
        verdict=lambda panels: (
            "minDist/minLoad overall FCT ratio under Fair: "
            f"{overall_ratio(_only(panels)):.2f} "
            f"[{ctrl_messages(_only(panels).results)}]"
        ),
        report=_each(_fig3_report),
        claims=(
            Claim(f"3(a) {_FIG3_SRPT}: longest bin's FCT ratio < bound",
                  lambda p, b: per_bin_ratios(p["srpt"])[-1][1] < b,
                  1.02, 1.02),
            Claim(f"3(a) {_FIG3_SRPT}: overall FCT ratio < bound",
                  lambda p, b: overall_ratio(p["srpt"]) < b, 1.05, 1.05),
            Claim(f"3(b) {_FIG3_FAIR}: short flows prefer minDist, "
                  "the shortest bin's ratio < bound",
                  lambda p, b: per_bin_ratios(p["fair"])[0][1] < b, None, 1.0),
            Claim(f"3(b) {_FIG3_FAIR}: the ratio rises with size, "
                  "shortest bin's < bound x longest bin's",
                  _fig3_rises, None, 1.0),
        ),
        options=_MACRO + ("network", "observability"),
        workload="datamining", runs=_runs("mindist", "minload"),
        configure=_fig3_config, panels=("srpt", "fair"), bench={"load": 0.8},
    ),
    Figure(
        "fig5", "fig5", "flow placement under Fair (gap per size bin)",
        verdict=_flow_verdict, report=_each(_gap_report),
        claims=(
            Claim("NEAT's mean gap < bound x minLoad's and minDist's, "
                  "on both workloads", _beats("gap", BASELINES), 1.0, 1.0),
            Claim("NEAT's improvement over minLoad on the mean gap >= bound",
                  lambda p, b: all(
                      o.improvement_over("minload") >= b for o in p.values()
                  ), 1.3, 1.3),
        ),
        options=_MACRO + ("faults", "observability"),
        panels=("hadoop", "websearch"), axis="workload",
    ),
    Figure(
        "fig6a", "fig6", "flow placement under LAS or SRPT",
        verdict=_flow_verdict, report=_each(_gap_report),
        claims=(Claim(
            "under LAS, NEAT's mean gap < bound x minLoad's and minDist's",
            _beats("gap", BASELINES), 1.0, 1.02,
        ),),
        options=_MACRO + ("network", "faults", "observability"),
        networks=("las",),
    ),
    Figure(
        "fig6b", "fig6", "flow placement under SRPT",
        verdict=_flow_verdict, report=_each(_gap_report),
        claims=(
            Claim("under SRPT, NEAT's mean gap < bound x minLoad's and "
                  "minDist's", _beats("gap", BASELINES, ["srpt"]), 1.02, 1.02),
            Claim("SRPT leaves less room: each placement's mean gap under "
                  "SRPT < bound x its gap under LAS and under Fair",
                  _fig6b_less_room, 1.0, 1.0),
            Claim("NEAT's margin over minLoad (gap difference) under SRPT "
                  "< bound x its margin under LAS",
                  lambda p, b: _win(p["srpt"]) < _win(p["las"]) * b, 1.0, 1.0),
            Claim("NEAT's improvement factor over minLoad under SRPT "
                  "< bound x under Fair (small scale only: at the bench "
                  "scale SRPT's factor is 3.5x, Fair's 2.3x)",
                  lambda p, b: p["srpt"].improvement_over("minload")
                  < p["fair"].improvement_over("minload") * b, 1.5, None),
        ),
        options=_MACRO + ("network", "faults", "observability"),
        networks=("srpt",), panels=("srpt", "las", "fair"),
    ),
    Figure(
        "fig7", "fig7", "coflow placement under Varys or SCF",
        verdict=_fig7_verdict, report=_each(_fig7_report),
        claims=(
            Claim("NEAT's mean CCT < bound x minLoad's, under Varys and SCF",
                  _beats("cct", ["minload"]), 1.10, 1.03),
            Claim("NEAT's mean CCT < bound x minDist's, under Varys and SCF",
                  _beats("cct", ["mindist"]), 1.0, 1.03),
            Claim("Varys is the stronger scheduler: NEAT's mean CCT under "
                  "Varys < bound x under SCF",
                  lambda p, b: p["varys"].afcts()["neat"]
                  < p["scf"].afcts()["neat"] * b, 1.05, 1.05),
        ),
        options=_MACRO + ("network", "observability"),
        networks=("varys",),
        configure=lambda config: replace(config, coflows=True),
        summarize=lambda config: replace(
            config, num_arrivals=max(100, config.num_arrivals // 4)
        ),
        panels=("varys", "scf"), bench={"num_arrivals": 300},
    ),
    Figure(
        "fig8", "fig8", "Fair vs SRPT predictor under SRPT",
        verdict=lambda panels: (
            "Fair-vs-SRPT predictor relative difference: "
            f"{relative_difference(_only(panels)):.2f} "
            f"[{ctrl_messages(_only(panels).results)}]"
        ),
        report=_each(_fig8_report),
        claims=(Claim(
            "Proposition 4.1: the Fair and SRPT predictors' mean gaps "
            "differ by < bound (relative)",
            lambda p, b: relative_difference(p["srpt"]) < b, 0.35, 0.25,
        ),),
        networks=("srpt",),
        runs=(("neat-fair", "neat", "fair"), ("neat-srpt", "neat", "srpt")),
    ),
    Figure(
        "fig9", "fig9", "preferred hosts vs minFCT",
        verdict=lambda panels: (
            "minFCT degradation without node states (Fair): "
            f"{minfct_degradation(_only(panels)) * 100:.0f}% "
            f"[{ctrl_messages(_only(panels).results)}]"
        ),
        report=_each(lambda o: "\n".join(
            f"{name:8s} mean gap = {gap:.3f}"
            for name, gap in o.average_gaps().items()
        )),
        claims=(
            Claim("under Fair, NEAT's mean gap < bound x minFCT's",
                  _beats("gap", ["minfct"], ["fair"]), 1.05, 1.0),
            Claim("under Fair, NEAT's mean gap < bound x minDist's",
                  _beats("gap", ["mindist"], ["fair"]), 1.0, 1.0),
            Claim("under SRPT, NEAT's mean gap < bound x minFCT's (the fluid "
                  "model ties them within noise; needs the bench scale)",
                  _beats("gap", ["minfct"], ["srpt"]), None, 1.15),
        ),
        options=_MACRO + ("network", "observability"),
        runs=_runs("neat", "minfct", "mindist"), panels=("fair", "srpt"),
    ),
    Figure(
        "fig10", "fig10", "FCT prediction error",
        verdict=_fig10_verdict, report=_fig10_report,
        claims=(
            Claim("each size class holds more than bound samples",
                  lambda p, b: all(s.count > b for s in _errors(p)), 0, 0),
            Claim("error grows with size: short flows' mean |err| < bound x "
                  "long flows'",
                  lambda p, b: (lambda s, l: s.mean_abs_error
                                < l.mean_abs_error * b)(*_errors(p)),
                  1.25, 1.15),
            Claim("short flows' median error is within +- bound",
                  lambda p, b: abs(_errors(p)[0].median_error) < b,
                  0.05, 0.05),
        ),
        options=_MACRO + ("network", "observability"),
        networks=("srpt",), runs=_runs("neat"), bench={"num_arrivals": 1500},
    ),
    Figure(
        "fig11", "fig11", "10-node testbed (NEAT vs minLoad)",
        verdict=_fig11_verdict,
        report=lambda panels: "\n".join(
            f"{net.upper():5s} NEAT improvement over minLoad: "
            f"{o.improvement_percent('minload'):.1f}%"
            for net, o in panels.items()
        ),
        claims=(
            Claim("NEAT's AFCT improvement over minLoad > bound % under "
                  "Fair and LAS",
                  lambda p, b: all(
                      o.improvement_percent("minload") > b for o in p.values()
                  ), -15.0, -5.0),
            Claim("NEAT helps under at least one policy: the larger "
                  "improvement > bound %",
                  lambda p, b: max(
                      o.improvement_percent("minload") for o in p.values()
                  ) > b, 0.0, 0.0),
        ),
        options=("size", "observability"),
        networks=("fair", "las"), runs=_runs("neat", "minload"),
        configure=lambda config: testbed_config(
            num_arrivals=config.num_arrivals, seed=config.seed
        ),
        topology=lambda config: build_testbed_topology(),
        bench={"num_arrivals": 800},
    ),
)}
