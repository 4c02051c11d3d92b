"""Declarative simulation campaigns: grids of independent run cells.

A :class:`RunSpec` is one fully-determined simulation cell — everything
needed to reproduce it lives in the spec (config, policies, seed), so a
cell can execute in any process, in any order, and yield byte-identical
results.  A :class:`Campaign` is an ordered tuple of cells; the order is
the *reporting* order and never affects any cell's outcome.

Seeds are derived deterministically from a base seed with the same FNV
hash the simulator's :class:`~repro.sim.randomness.RandomStreams` uses
(:func:`derive_seeds`), so a campaign built from ``base_seed`` is stable
across processes and Python versions — the precondition for parallel and
serial execution agreeing byte for byte.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.experiments.config import MacroConfig
from repro.experiments.figures import FIGURES
from repro.faults.plan import FaultPlan
from repro.sim.randomness import hash_seed

#: Cell kinds the executor knows how to run.
KINDS = ("flow_macro", "coflow_macro", "figure")


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined simulation run (a single campaign cell).

    Attributes:
        kind: ``"flow_macro"`` (Figures 5/6 style placement comparison),
            ``"coflow_macro"`` (Figure 7 style), or ``"figure"`` (one of
            the ``repro all`` summary cells).
        config: the complete :class:`MacroConfig` for the run — the seed
            lives here, so one spec is one exact simulation.
        network_policy: flow or coflow scheduling policy name.
        placements: placement policies compared within the cell (they
            share the cell's trace, keeping comparisons paired).
        predictor: FCT predictor for NEAT/minFCT.
        figure: figure id (``"fig5"``…) when ``kind == "figure"``.
        faults: optional fault plan injected into every run of the cell;
            its canonical form (name excluded) is part of the content
            hash, so a faulted cell and its fault-free twin never share a
            cache entry.
        label: human-readable display name; *excluded* from the content
            hash so relabelling never invalidates the cache.
    """

    kind: str
    config: MacroConfig
    network_policy: str = "fair"
    placements: Tuple[str, ...] = ("neat", "minload", "mindist")
    predictor: str = "fair"
    figure: Optional[str] = None
    faults: Optional[FaultPlan] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(
                f"unknown RunSpec kind {self.kind!r}; expected one of {KINDS}"
            )
        if (self.kind == "figure") != (self.figure is not None):
            raise ConfigError(
                "RunSpec.figure must be set exactly when kind == 'figure'"
            )
        if not self.placements:
            raise ConfigError("RunSpec needs at least one placement policy")

    def canonical_dict(self) -> Dict[str, object]:
        """The content-defining fields (label omitted), JSON-safe."""
        return {
            "kind": self.kind,
            "config": asdict(self.config),
            "network_policy": self.network_policy,
            "placements": list(self.placements),
            "predictor": self.predictor,
            "figure": self.figure,
            "faults": (
                self.faults.canonical() if self.faults is not None else None
            ),
        }

    def describe(self) -> str:
        """Short display name (the label when set, axes otherwise)."""
        if self.label:
            return self.label
        if self.kind == "figure":
            return str(self.figure)
        return (
            f"{self.kind} net={self.network_policy} "
            f"load={self.config.load:g} seed={self.config.seed}"
        )

    def to_json_dict(self) -> Dict[str, object]:
        """Lossless JSON form: canonical fields plus display-only ones.

        Unlike :meth:`canonical_dict` (which feeds the content hash and
        therefore excludes labels), this keeps the cell's label and the
        fault plan's name, so a spec written into a work-queue manifest
        round-trips through :func:`spec_from_json_dict` into an equal
        spec — same display, same cache key.
        """
        payload = self.canonical_dict()
        payload["faults"] = (
            self.faults.to_dict() if self.faults is not None else None
        )
        payload["label"] = self.label
        return payload


def spec_from_json_dict(raw: Dict[str, object]) -> RunSpec:
    """Reconstruct a :class:`RunSpec` from :meth:`RunSpec.to_json_dict`.

    The queue manifest is the cross-process wire format of a campaign:
    a worker on another machine rebuilds each cell from this dict, and
    the reconstruction is exact — ``spec_key`` of the rebuilt spec is
    byte-identical to the original's, which is what lets distributed
    workers share one content-addressed cache with the supervisor.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"spec entry must be an object, got {type(raw)!r}")
    try:
        config_raw = dict(raw["config"])
        kind = raw["kind"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed spec entry: missing {exc}") from exc
    width = config_raw.get("coflow_width")
    if isinstance(width, list):
        config_raw["coflow_width"] = tuple(width)
    try:
        config = MacroConfig(**config_raw)
    except TypeError as exc:
        raise ConfigError(f"malformed spec config: {exc}") from exc
    faults_raw = raw.get("faults")
    faults = FaultPlan.from_dict(faults_raw) if faults_raw is not None else None
    return RunSpec(
        kind=kind,
        config=config,
        network_policy=raw.get("network_policy", "fair"),
        placements=tuple(raw.get("placements", ())),
        predictor=raw.get("predictor", "fair"),
        figure=raw.get("figure"),
        faults=faults,
        label=raw.get("label", ""),
    )


@dataclass(frozen=True)
class Campaign:
    """An ordered grid of independent cells plus a display name."""

    name: str
    cells: Tuple[RunSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.cells:
            raise ConfigError(f"campaign {self.name!r} has no cells")

    def __len__(self) -> int:
        return len(self.cells)


def derive_seeds(base_seed: int, count: int) -> List[int]:
    """``count`` deterministic child seeds from one base seed.

    Uses the same cross-process-stable FNV derivation as
    :func:`repro.sim.randomness.hash_seed`, folded to 31 bits so the
    seeds stay friendly to every RNG and JSON consumer.
    """
    if count < 1:
        raise ConfigError("need at least one derived seed")
    return [
        hash_seed(base_seed, f"campaign-rep:{i}") & 0x7FFFFFFF
        for i in range(count)
    ]


def flow_grid(
    *,
    name: str = "flow-grid",
    base_config: MacroConfig,
    seeds: Optional[Sequence[int]] = None,
    repetitions: Optional[int] = None,
    network_policies: Sequence[str] = ("fair",),
    loads: Optional[Sequence[float]] = None,
    placements: Sequence[str] = ("neat", "minload", "mindist"),
    predictor: str = "fair",
    coflows: bool = False,
    faults: Optional[Sequence[Optional[FaultPlan]]] = None,
) -> Campaign:
    """Build a seed x network-policy x load [x fault-plan] campaign grid.

    Exactly one of ``seeds`` (explicit) or ``repetitions`` (derived from
    ``base_config.seed`` via :func:`derive_seeds`) selects the seed axis.
    Placements are compared *within* each cell so every comparison stays
    paired on a shared trace.  Cell order is the nested loop
    seed -> network -> load -> fault plan, which fixes the reporting
    order.  ``faults`` entries may include ``None`` (the fault-free
    twin), so a grid can sweep degraded operation against its baseline
    in one campaign.
    """
    if (seeds is None) == (repetitions is None):
        raise ConfigError("give exactly one of seeds= or repetitions=")
    if seeds is None:
        seeds = derive_seeds(base_config.seed, repetitions)
    if not seeds:
        raise ConfigError("need at least one seed")
    if not network_policies:
        raise ConfigError("need at least one network policy")
    load_axis = tuple(loads) if loads is not None else (base_config.load,)
    if not load_axis:
        raise ConfigError("need at least one load")
    fault_axis: Tuple[Optional[FaultPlan], ...] = (
        tuple(faults) if faults is not None else (None,)
    )
    if not fault_axis:
        raise ConfigError("need at least one fault-plan entry (None is fine)")
    kind = "coflow_macro" if coflows else "flow_macro"
    cells = []
    for seed in seeds:
        for net in network_policies:
            for load in load_axis:
                for plan in fault_axis:
                    cfg = replace(
                        base_config, seed=seed, load=load, coflows=coflows
                    )
                    label = f"seed={seed} net={net} load={load:g}"
                    if plan is not None:
                        label += f" faults={plan.name or 'plan'}"
                    cells.append(
                        RunSpec(
                            kind=kind,
                            config=cfg,
                            network_policy=net,
                            placements=tuple(placements),
                            predictor=predictor,
                            faults=plan,
                            label=label,
                        )
                    )
    return Campaign(name=name, cells=tuple(cells))


def build_all_campaign(base: MacroConfig) -> Campaign:
    """The ``repro all`` summary: one figure cell per figure-table row, at
    the row's workload with its ``configure`` and ``summarize`` applied to
    ``base`` (the CLI's size and topology)."""
    return Campaign(name="repro-all", cells=tuple(
        RunSpec(
            kind="figure",
            config=fig.summarize(fig.configure(
                replace(base, workload=fig.workload)
            )),
            network_policy=fig.networks[0],
            figure=fig.id,
            label=fig.id,
        )
        for fig in FIGURES.values()
    ))
