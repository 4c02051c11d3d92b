"""Tests for the CCT predictors (§4.2): equations (10)-(17)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, PredictionError
from repro.predictor.coflow_cct import (
    CoflowFCFSPredictor,
    CoflowFairPredictor,
    CoflowLASPredictor,
    PermutationPredictor,
    TCFPredictor,
)
from repro.predictor.registry import (
    available_coflow_predictors,
    make_coflow_predictor,
)
from repro.predictor.state import CoflowLinkState, CoflowOnLink

GBPS = 1e9

#: Permutation predictors: TCF, FIFO and two custom keys over ``(total,
#: on_link, arrival)``: bytes off the link (ties whenever a coflow sits
#: wholly on it) and one that is NaN at a newcomer (arrival inf), which
#: ranks it neither ahead of nor behind anyone.
PERMUTATIONS = {
    "tcf": TCFPredictor(),
    "fifo": PermutationPredictor(
        key=lambda total, on_link, arrival: arrival, name="fifo"
    ),
    "off-link": PermutationPredictor(
        key=lambda total, on_link, arrival: total - on_link, name="off-link"
    ),
    "nan-at-newcomer": PermutationPredictor(
        key=lambda total, on_link, arrival: arrival * 0.0, name="nan"
    ),
}


def clink(coflows, capacity=GBPS) -> CoflowLinkState:
    return CoflowLinkState(
        "l", capacity,
        tuple(CoflowOnLink(total, on_link, arrival)
              for total, on_link, arrival in coflows),
    )


class TestCoflowOnLink:
    def test_normalized_load(self):
        c = CoflowOnLink(total_size=10.0, size_on_link=4.0)
        assert c.normalized_load == pytest.approx(0.4)

    def test_rejects_bad_total(self):
        with pytest.raises(PredictionError):
            CoflowOnLink(total_size=0.0, size_on_link=0.0)

    def test_rejects_on_link_above_total(self):
        with pytest.raises(PredictionError):
            CoflowOnLink(total_size=1.0, size_on_link=2.0)


class TestEq10FCFS:
    def test_queued_bytes_served_first(self):
        state = clink([(4e9, 2e9, 0.0), (8e9, 3e9, 1.0)])
        pred = CoflowFCFSPredictor()
        # new coflow: 6 Gb total, 1 Gb on this link
        assert pred.cct(6e9, 1e9, state) == pytest.approx((1 + 2 + 3))
        assert pred.delta_sum(6e9, 1e9, state) == 0.0


class TestEq11to13Fair:
    def test_eq11_smaller_full_larger_proportional(self):
        # existing: coflow A (total 2 Gb, 1 Gb here) smaller than new;
        #           coflow B (total 8 Gb, 4 Gb here) larger than new.
        state = clink([(2e9, 1e9, 0.0), (8e9, 4e9, 0.0)])
        pred = CoflowFairPredictor()
        new_total, new_here = 4e9, 2e9
        # load = 2 + 1 (A full) + 4*4/8=2 (B proportional) = 5 Gb -> 5 s
        assert pred.cct(new_total, new_here, state) == pytest.approx(5.0)

    def test_eq13_delta_sum(self):
        state = clink([(2e9, 1e9, 0.0), (8e9, 4e9, 0.0)])
        pred = CoflowFairPredictor()
        new_total, new_here = 4e9, 2e9
        # (s_{c0,l}/s_{c0}) * (min(2,4) + min(8,4)) / B = 0.5*6 = 3 s
        assert pred.delta_sum(new_total, new_here, state) == pytest.approx(3.0)

    def test_las_predictor_equals_fair(self):
        state = clink([(3e9, 1e9, 0.0)])
        assert CoflowLASPredictor().cct(2e9, 1e9, state) == pytest.approx(
            CoflowFairPredictor().cct(2e9, 1e9, state)
        )


class TestEq14to17Permutation:
    def test_eq14_cct_counts_higher_priority_bytes(self):
        state = clink([(2e9, 2e9, 0.0), (9e9, 3e9, 0.0)])
        tcf = TCFPredictor()
        # new coflow total 4 Gb, 1 Gb here: ranked after the 2 Gb coflow,
        # before the 9 Gb one -> load = 1 + 2 = 3 Gb.
        assert tcf.cct(4e9, 1e9, state) == pytest.approx(3.0)

    def test_eq15_delta_counts_preempted_coflows(self):
        state = clink([(2e9, 2e9, 0.0), (9e9, 3e9, 0.0)])
        tcf = TCFPredictor()
        # only the 9 Gb coflow waits for the new one's 1 Gb on this link.
        assert tcf.delta_sum(4e9, 1e9, state) == pytest.approx(1.0)

    def test_fifo_permutation_equals_coflow_fcfs(self):
        state = clink([(2e9, 2e9, 0.0), (9e9, 3e9, 5.0)])
        fifo = PermutationPredictor(
            key=lambda total, on_link, arrival: arrival, name="fifo"
        )
        fcfs = CoflowFCFSPredictor()
        assert fifo.cct(4e9, 1e9, state) == pytest.approx(
            fcfs.cct(4e9, 1e9, state)
        )
        assert fifo.delta_sum(4e9, 1e9, state) == pytest.approx(0.0)

    def test_tcf_tie_break_serves_existing_first(self):
        state = clink([(4e9, 1e9, 0.0)])
        tcf = TCFPredictor()
        assert tcf.cct(4e9, 1e9, state) == pytest.approx(2.0)

    @given(
        name=st.sampled_from(tuple(PERMUTATIONS)),
        new_total=st.sampled_from((1e9, 4e9, 3.3e9)),
        new_share=st.sampled_from((0.0, 0.5, 1.0)),
        coflows=st.lists(
            st.tuples(
                # totals at the new coflow's own, so ties at its key
                st.one_of(
                    st.sampled_from((1e9, 4e9, 3.3e9)),
                    st.floats(1.0, 1e11),
                ),
                st.sampled_from((0.1, 0.5, 1.0)),
                st.sampled_from((0.0, 1.0, 2.5)),
            ),
            max_size=6,  # empty links too
        ),
        capacity=st.sampled_from((1e9, 3e8, 1e10 / 3)),
    )
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_one_pass_equals_the_two_it_replaced(
        self, name, new_total, new_share, coflows, capacity
    ):
        """``cct``, ``delta_sum`` and ``link_objective`` share one pass
        over the link: each equals the separate eq. (14) / (15) bodies
        of ``tests/coflow_query_oracle.py`` bit for bit, and the objective
        is exactly their sum."""
        from tests.coflow_query_oracle import (
            permutation_cct,
            permutation_delta_sum,
        )

        predictor = PERMUTATIONS[name]
        state = clink(
            [(t, t * share, arrival) for t, share, arrival in coflows],
            capacity,
        )
        new_on_link = new_total * new_share
        cct = predictor.cct(new_total, new_on_link, state)
        delta = predictor.delta_sum(new_total, new_on_link, state)
        assert cct == permutation_cct(
            predictor._key, new_total, new_on_link, state
        )
        assert delta == permutation_delta_sum(
            predictor._key, new_total, new_on_link, state
        )
        assert predictor.link_objective(new_total, new_on_link, state) == (
            cct + delta
        )


class TestRawTriples:
    """``predict_link_objective`` over raw ``(total, on_link, arrival)``
    triples is each family's one body: ``cct`` / ``delta_sum`` /
    ``link_objective`` on a snapshot answer from it, bit for bit as before."""

    @given(
        name=st.sampled_from(
            ("coflow-fair", "coflow-las", "coflow-fcfs", *PERMUTATIONS)
        ),
        new_total=st.sampled_from((1e9, 4e9, 3.3e9)),
        new_share=st.sampled_from((0.0, 0.5, 1.0)),
        coflows=st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from((1e9, 4e9, 3.3e9)),
                    st.floats(1.0, 1e11),
                ),
                st.sampled_from((0.1, 0.5, 1.0)),
                st.sampled_from((0.0, 1.0, 2.5)),
            ),
            max_size=6,
        ),
        capacity=st.sampled_from((1e9, 3e8, 1e10 / 3)),
    )
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_snapshot_entry_points_answer_from_the_triples(
        self, name, new_total, new_share, coflows, capacity
    ):
        predictor = PERMUTATIONS.get(name) or make_coflow_predictor(name)
        triples = [(t, t * share, arrival) for t, share, arrival in coflows]
        state = clink(triples, capacity)
        new_on_link = new_total * new_share
        cct = predictor.cct(new_total, new_on_link, state)
        delta = predictor.delta_sum(new_total, new_on_link, state)
        raw = predictor.predict_link_objective(
            new_total, new_on_link, capacity, triples
        )
        assert raw == cct + delta
        assert predictor.link_objective(new_total, new_on_link, state) == raw
        # The permutations' parent bodies: test_one_pass_equals_the_two...
        from tests.coflow_query_oracle import fair_terms, fcfs_cct

        if name == "coflow-fcfs":
            assert (cct, delta) == (fcfs_cct(new_on_link, state), 0.0)
        elif name in ("coflow-fair", "coflow-las"):
            assert (cct, delta) == fair_terms(new_total, new_on_link, state)

    def test_a_custom_predictor_answers_through_its_own_snapshot_methods(self):
        """The base-class default: a predictor written against
        ``CoflowLinkState`` (``cct`` and ``delta_sum`` only) is asked its
        :meth:`link_objective` on the snapshot the triples make."""
        from repro.predictor.coflow_cct import CoflowCCTPredictor

        class Busy(CoflowCCTPredictor):
            name = "busy"

            def cct(self, new_total, new_on_link, link):
                return (new_on_link + len(link.coflows) * 1e9) / link.capacity

            def delta_sum(self, new_total, new_on_link, link):
                return sum(c.normalized_load for c in link.coflows)

        triples = [(4e9, 1e9, 0.0), (2e9, 2e9, 1.0)]
        got = Busy().predict_link_objective(3e9, 1e9, 2e9, triples)
        assert got == Busy().link_objective(3e9, 1e9, clink(triples, 2e9))
        assert got == (1e9 + 2e9) / 2e9 + (0.25 + 1.0)


class TestInvariance42:
    """§4.2.4: when every coflow splits traffic identically
    (s_{c,l}/s_c equal for all), TCF's objective equals the fair CCT."""

    @given(
        totals=st.lists(st.floats(1e6, 1e10), min_size=0, max_size=8),
        ratio=st.floats(0.1, 1.0),
        new_total=st.floats(1e6, 1e10),
    )
    @settings(max_examples=150, deadline=None)
    def test_tcf_objective_equals_fair_cct(self, totals, ratio, new_total):
        state = clink([(t, t * ratio, 0.0) for t in totals])
        new_here = new_total * ratio
        tcf_obj = TCFPredictor().cct(new_total, new_here, state) + (
            TCFPredictor().delta_sum(new_total, new_here, state)
        )
        fair_cct = CoflowFairPredictor().cct(new_total, new_here, state)
        # Equality can be off by a tie-break at exactly equal totals.
        assert tcf_obj == pytest.approx(fair_cct, rel=1e-6)

    def test_unequal_split_breaks_invariance(self):
        """The paper's remark: with different split ratios the Fair
        objective no longer reduces to the newcomer's CCT alone."""
        state = clink([(4e9, 4e9, 0.0), (8e9, 1e9, 0.0)])
        pred = CoflowFairPredictor()
        cct = pred.cct(4e9, 1e9, state)
        delta = pred.delta_sum(4e9, 1e9, state)
        # The correction term is material, not a constant-factor rescale.
        assert delta > 0
        assert delta != pytest.approx(cct)


class TestPredictLinks:
    def test_bottleneck_over_placements(self):
        a = clink([(2e9, 2e9, 0.0)])
        b = clink([])
        pred = CoflowFairPredictor()
        value = pred.predict_links(3e9, [(1e9, a), (3e9, b)])
        assert value == pytest.approx(max(
            pred.cct(3e9, 1e9, a), pred.cct(3e9, 3e9, b)
        ))

    def test_empty_placement_is_free(self):
        assert CoflowFairPredictor().predict_links(1e9, []) == 0.0


class TestRegistry:
    def test_known(self):
        for name in ("coflow-fcfs", "coflow-fair", "coflow-las", "tcf",
                     "varys", "sebf", "scf", "baraat", "aalo"):
            assert make_coflow_predictor(name) is not None
        assert "tcf" in available_coflow_predictors()

    def test_unknown(self):
        with pytest.raises(ConfigError):
            make_coflow_predictor("bogus")
