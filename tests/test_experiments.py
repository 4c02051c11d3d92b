"""Tests for the experiment harness: Figure 1 exactness, runner mechanics,
and small-scale shape checks for the macro figures.

Each figure's claims live in its row of ``repro.experiments.figures``;
here every row's sweep runs on a small configuration that finishes in
seconds and its claims are asserted at their small-scale bounds
(``benchmarks/bench_figures.py`` asserts them at the bench scale).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.experiments.config import (
    TABLE1_PARAMETERS,
    MacroConfig,
    full_scale_config,
)
from repro.experiments.config import testbed_config as make_testbed_config
from repro.experiments.figures import FIGURES
from repro.experiments.motivating import (
    EXPECTED_FIGURE1,
    figure1_table,
    render_figure1,
)
from repro.experiments.runner import (
    replay_coflow_trace,
    replay_flow_trace,
)
from repro.workloads.distributions import make_distribution
from repro.workloads.traces import generate_coflow_trace, generate_flow_trace

SMALL = MacroConfig(
    pods=1, racks_per_pod=2, hosts_per_rack=8,
    workload="websearch", load=0.7, num_arrivals=400, seed=11,
)


class TestFigure1:
    def test_all_cells_exact(self):
        for row in figure1_table():
            expected = EXPECTED_FIGURE1[(row.network_policy, row.placement)]
            assert row.completion_time == pytest.approx(expected[0], abs=1e-6)
            assert row.total_increase == pytest.approx(expected[1], abs=1e-6)

    def test_render_includes_all_policies(self):
        text = render_figure1()
        for token in ("FCFS", "FAIR", "SRPT", "node1", "node3"):
            assert token in text


class TestMacroConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            MacroConfig(load=0.0)
        with pytest.raises(ConfigError):
            MacroConfig(num_arrivals=0)

    def test_num_hosts(self):
        assert MacroConfig(pods=2, racks_per_pod=3, hosts_per_rack=4).num_hosts == 24

    def test_full_scale_is_paper_size(self):
        assert full_scale_config().num_hosts == 160

    def test_testbed_is_ten_hosts(self):
        assert make_testbed_config().num_hosts == 10

    def test_scaled_down(self):
        smaller = full_scale_config().scaled_down()
        assert smaller.num_hosts < 160

    def test_effective_scale_defaults(self):
        assert MacroConfig(workload="hadoop").effective_scale() == 1e-3
        assert MacroConfig(workload="websearch").effective_scale() == 1.0
        assert MacroConfig(workload="hadoop", scale=0.5).effective_scale() == 0.5

    def test_table1_documents_all_transports(self):
        assert set(TABLE1_PARAMETERS) == {"DCTCP", "L2DCT", "PASE"}
        for params in TABLE1_PARAMETERS.values():
            assert "fluid-model role" in params

    def test_coflow_trace_builder(self):
        cfg = MacroConfig(coflows=True, num_arrivals=5)
        trace = cfg.build_trace()
        assert len(trace) == 5


class TestRunnerMechanics:
    def topo_and_trace(self, num=50):
        topo = SMALL.build_topology()
        trace = generate_flow_trace(
            hosts=topo.hosts,
            distribution=make_distribution("websearch"),
            load=0.5, edge_capacity=1e9, num_arrivals=num, seed=1,
        )
        return topo, trace

    def test_replay_completes_every_flow(self):
        topo, trace = self.topo_and_trace()
        run = replay_flow_trace(
            trace, topo, network_policy="fair", placement="minload"
        )
        assert len(run.records) == len(trace)
        assert run.control_messages == 0  # baselines use no daemons

    def test_neat_counts_messages_and_predictions(self):
        topo, trace = self.topo_and_trace()
        run = replay_flow_trace(
            trace, topo, network_policy="fair", placement="neat"
        )
        assert run.control_messages > 0
        assert len(run.predictions) == len(trace)

    def test_paired_replay_is_deterministic(self):
        topo, trace = self.topo_and_trace()
        a = replay_flow_trace(
            trace, topo, network_policy="fair", placement="neat", seed=2
        )
        b = replay_flow_trace(
            trace, topo, network_policy="fair", placement="neat", seed=2
        )
        assert [r.fct for r in a.records] == [r.fct for r in b.records]

    def test_max_candidates_limits_queries(self):
        topo, trace = self.topo_and_trace()
        limited = replay_flow_trace(
            trace, topo, network_policy="fair", placement="neat",
            max_candidates=3,
        )
        full = replay_flow_trace(
            trace, topo, network_policy="fair", placement="neat",
        )
        assert limited.control_messages < full.control_messages

    def test_flow_trace_type_checked(self):
        topo = SMALL.build_topology()
        coflow_trace = generate_coflow_trace(
            hosts=topo.hosts,
            distribution=make_distribution("websearch"),
            load=0.5, edge_capacity=1e9, num_arrivals=5, seed=1,
        )
        with pytest.raises(ConfigError):
            replay_flow_trace(
                coflow_trace, topo, network_policy="fair", placement="minload"
            )

    def test_coflow_replay_completes(self):
        topo = SMALL.build_topology()
        trace = generate_coflow_trace(
            hosts=topo.hosts,
            distribution=make_distribution("websearch"),
            load=0.5, edge_capacity=1e9, num_arrivals=30, seed=1,
        )
        run = replay_coflow_trace(
            trace, topo, network_policy="varys", placement="neat"
        )
        assert len(run.records) == 30


#: The 16-host Hadoop setup of the micro figures' small-scale checks.
HADOOP16 = MacroConfig(
    pods=1, racks_per_pod=2, hosts_per_rack=8,
    workload="hadoop", num_arrivals=300, seed=11,
)


def small_sweep(figure_id, config):
    """Run a row's sweep at ``config`` and assert its small-scale claims."""
    figure = FIGURES[figure_id]
    panels = figure.sweep(figure.configure(config))
    assert figure.failures(panels, "small") == []
    return panels


class TestFigureShapesSmall:
    """Direction-of-effect checks for every macro claim (small scale)."""

    def test_neat_beats_baselines_under_fair(self):
        small_sweep("fig5", SMALL)

    def test_neat_beats_baselines_under_las(self):
        small_sweep("fig6a", SMALL)

    def test_srpt_leaves_less_room(self):
        """The paper: SRPT is near-optimal, so every placement's gap is
        smaller under SRPT than under LAS and Fair."""
        small_sweep("fig6b", SMALL)

    def test_macro_outcome_table_renders(self):
        (outcome,) = FIGURES["fig5"].run(SMALL).values()
        text = outcome.table()
        assert "neat" in text and "minload" in text

    def test_figure8_predictor_invariance(self):
        # Proposition 4.1: the two predictors place nearly identically.
        small_sweep("fig8", HADOOP16)

    def test_figure9_minfct_never_beats_neat(self):
        # Under Fair the preferred-hosts benefit is robust even at small
        # scale; the SRPT claim needs datacenter scale (see the bench).
        small_sweep("fig9", HADOOP16)

    def test_figure10_error_grows_with_size(self):
        small_sweep("fig10", replace(HADOOP16, num_arrivals=400))

    def test_figure3_runs_both_policies(self):
        figure = FIGURES["fig3"]
        panels = small_sweep("fig3", replace(
            HADOOP16, workload="datamining", oversubscription=4.0,
        ))
        assert set(panels) == {"srpt", "fair"}
        assert figure.report(panels)

    def test_figure7_coflow_placement(self):
        panels = small_sweep("fig7", MacroConfig(
            pods=2, racks_per_pod=2, hosts_per_rack=8,
            workload="hadoop", coflows=True, num_arrivals=120, seed=11,
        ))
        for outcome in panels.values():
            assert set(outcome.afcts()) == {"neat", "minload", "mindist"}

    def test_figure11_testbed_runs(self):
        panels = small_sweep("fig11", make_testbed_config(num_arrivals=250))
        for outcome in panels.values():
            assert set(outcome.average_gaps()) == {"neat", "minload"}
