"""Every paper figure at the bench scale, driven by the figure table.

One test per row of ``repro.experiments.FIGURES``: the row's sweep runs on
the bench config (``common.macro_config`` with the row's workload and
``bench`` overrides, then the row's ``configure``), each panel's report is
printed, and every claim is asserted at its bench-scale bound.  Run::

    PYTHONPATH=src python -m pytest benchmarks/bench_figures.py -s

(``-s`` shows the reports; ``REPRO_BENCH_FULL=1`` runs the paper's
160-host setup, minutes per figure).
"""

from __future__ import annotations

import pytest

from common import emit, macro_config

from repro.experiments.figures import FIGURES


@pytest.mark.parametrize("figure_id", list(FIGURES))
def test_figure(figure_id):
    figure = FIGURES[figure_id]
    config = figure.configure(
        macro_config(workload=figure.workload, **figure.bench)
    )
    panels = figure.sweep(config)
    title = f"{figure.id} - {figure.description}"
    for key, outcome in panels.items():
        emit(f"{title} ({key})", figure.report({key: outcome}))
    if not panels:
        emit(title, figure.report(panels))
    assert figure.failures(panels, "bench") == []
