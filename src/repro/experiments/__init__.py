"""Experiment harness reproducing every table and figure of the paper.

* :mod:`repro.experiments.figures`     — the figure table: one row per
  figure cell (Figures 1, 3, 5-11) with its runs, renderers and claims.
* :mod:`repro.experiments.motivating`  — Figure 1's exact model.
* :mod:`repro.experiments.config`      — Table 1 + shared MacroConfig.
* :mod:`repro.experiments.runner`      — trace replays (one placement).
* :mod:`repro.experiments.repetitions` — multi-seed aggregates.
"""

from repro.experiments.config import (
    TABLE1_PARAMETERS,
    MacroConfig,
    build_testbed_topology,
    full_scale_config,
    testbed_config,
)
from repro.experiments.figures import (
    FIGURES,
    Claim,
    Figure,
    MacroOutcome,
    PredictionErrorSummary,
    prediction_errors,
)
from repro.experiments.motivating import (
    EXPECTED_FIGURE1,
    Figure1Row,
    example_topology,
    figure1_table,
    render_figure1,
)
from repro.experiments.repetitions import (
    Aggregate,
    RepeatedMacro,
    aggregate,
    repeat_flow_macro,
)
from repro.experiments.runner import (
    RunResult,
    compare_policies,
    replay_coflow_trace,
    replay_flow_trace,
)

__all__ = [
    "RunResult",
    "replay_flow_trace",
    "replay_coflow_trace",
    "compare_policies",
    "Aggregate",
    "RepeatedMacro",
    "aggregate",
    "repeat_flow_macro",
    "MacroConfig",
    "full_scale_config",
    "testbed_config",
    "build_testbed_topology",
    "TABLE1_PARAMETERS",
    "figure1_table",
    "render_figure1",
    "EXPECTED_FIGURE1",
    "Figure1Row",
    "example_topology",
    "FIGURES",
    "Figure",
    "Claim",
    "MacroOutcome",
    "prediction_errors",
    "PredictionErrorSummary",
]
