"""The swapping protocol: outcome statistics, class map, and marginals."""

import itertools

import numpy as np
import pytest
from oracle import (
    ALICE_PAIR,
    BOB_PAIR,
    ROBOT_PAIRS,
    behavior_value,
    bell,
    bell_measurement_pair,
    class_state,
    dense_behavior,
    dense_swap,
    density_behavior,
    eight_qubit_initial,
    fidelity_with_pure,
    identify_bell_product,
    partial_trace,
    post_robot_state,
    premeasurement_state,
    reduced_pair_product,
    robot_outcome_distribution,
    source_product,
)

from nlbox.inequalities import NUM_EXPRESSIONS, C, product_counts
from nlbox.states import BELL_ORDER, BellLabel, product_index
from nlbox.swap import (
    ROBOT_OUTCOMES,
    RobotOutcome,
    class_map,
    matched_beta,
    premeasurement_marginal,
)


class TestOutcomeDistribution:
    def test_uniform_over_sixteen(self):
        dist = robot_outcome_distribution(eight_qubit_initial())
        np.testing.assert_allclose(dist, np.full((4, 4), 1 / 16.0), atol=1e-10)

    def test_measurement_order_is_irrelevant(self):
        state = eight_qubit_initial()
        first = robot_outcome_distribution(state, first_pair_first=True)
        second = robot_outcome_distribution(state, first_pair_first=False)
        np.testing.assert_allclose(first, second, atol=1e-10)

    def test_uniform_for_other_sources(self):
        state = source_product(BellLabel.PHI_PLUS, BellLabel.PSI_PLUS)
        dist = robot_outcome_distribution(state)
        np.testing.assert_allclose(dist, np.full((4, 4), 1 / 16.0), atol=1e-10)

    def test_pinned_rands_select_expected_outcome(self):
        state = eight_qubit_initial()
        # with uniform 1/4 branches, rand in [k/4, (k+1)/4) picks branch k
        outcome, post = bell_measurement_pair(state, 0.10, 0.60)
        assert outcome == RobotOutcome(BELL_ORDER[0], BELL_ORDER[2])
        assert np.linalg.norm(post.amplitudes) == pytest.approx(1.0)
        # the measured pair really is in the reported Bell state afterwards
        rho = partial_trace(post, ROBOT_PAIRS[0])
        assert fidelity_with_pure(rho, bell(outcome.first)) == pytest.approx(
            1.0, abs=1e-10
        )


class TestClassMap:
    def test_default_sources(self, default_class_map):
        assert len(default_class_map) == 16
        matched = {e.matched_inequality for e in default_class_map}
        assert matched == set(range(1, NUM_EXPRESSIONS + 1))
        results = {e.resulting_state for e in default_class_map}
        assert len(results) == 16
        for entry in default_class_map:
            assert entry.probability == 1 / 16
            assert matched_beta(entry) == 9.0

    def test_resulting_state_has_full_fidelity(self, default_class_map):
        initial = eight_qubit_initial()
        for entry in default_class_map[:4]:
            _, post = post_robot_state(initial, entry.outcome)
            rho = reduced_pair_product(post)
            assert fidelity_with_pure(
                rho, class_state(entry)
            ) == pytest.approx(1.0, abs=1e-9)

    def test_other_sources_still_bijective(self):
        entries = class_map((BellLabel.PHI_MINUS, BellLabel.PHI_PLUS))
        matched = {e.matched_inequality for e in entries}
        assert matched == set(range(1, NUM_EXPRESSIONS + 1))
        for entry in entries:
            assert entry.probability == 1 / 16
            assert matched_beta(entry) == 9.0

    @pytest.mark.parametrize(
        "sources",
        list(itertools.product(BELL_ORDER, repeat=2)),
        ids=lambda s: f"{s[0].code}-{s[1].code}",
    )
    def test_frame_rule_matches_dense_collapse(self, sources):
        # the second route collapses the eight-qubit source state for every
        # robot outcome and identifies the reduced state by fidelity
        entries = class_map(sources)
        assert [e.outcome for e in entries] == list(ROBOT_OUTCOMES)
        for entry, (prob, rho) in zip(entries, dense_swap(sources)):
            assert abs(prob - 1 / 16) <= 1e-12
            assert entry.probability == 1 / 16
            assert fidelity_with_pure(rho, class_state(entry)) >= 1 - 1e-9
            assert entry.resulting_state == identify_bell_product(rho)
            # the package's table row of the product is the Born behavior
            # of the collapsed state on Alice's (1, 3) and Bob's (6, 8)
            row = product_counts()[product_index(*entry.resulting_state)]
            born = 16 * density_behavior(rho, ALICE_PAIR, BOB_PAIR)
            np.testing.assert_allclose(born, row, rtol=0, atol=1e-12)

    def test_outcome_order(self):
        assert ROBOT_OUTCOMES[0] == RobotOutcome(BellLabel.PHI_PLUS, BellLabel.PHI_PLUS)
        assert ROBOT_OUTCOMES[5] == RobotOutcome(
            BellLabel.PHI_MINUS, BellLabel.PHI_MINUS
        )
        assert len(ROBOT_OUTCOMES) == 16

    def test_identify_rejects_mixed_state(self):
        with pytest.raises(RuntimeError, match="no Bell-state product"):
            identify_bell_product(premeasurement_state())


class TestPremeasurementMarginal:
    def test_maximally_mixed(self):
        # 256 p = 16 in every entry: uniformly random outcomes in every cell;
        # the oracle's mixture of dense class states is I/16 and has the
        # same Born behavior
        marginal = np.asarray(premeasurement_marginal())
        assert {type(v) for v in premeasurement_marginal()} == {int}
        assert np.array_equal(marginal, np.full(144, 16))
        rho = premeasurement_state()
        np.testing.assert_allclose(rho.entries, np.eye(16) / 16.0, atol=1e-10)
        purity = np.trace(rho.entries @ rho.entries).real
        assert purity == pytest.approx(1 / 16.0, abs=1e-10)
        born = 256 * density_behavior(rho, ALICE_PAIR, BOB_PAIR)
        np.testing.assert_allclose(born, marginal, rtol=0, atol=1e-10)

    def test_every_expression_averages_to_zero(self, reference_doc):
        # three routes: the package's integer values, the oracle's value of
        # the Born behavior of its mixed state, and the reference table's
        # column means (each class contributes 1/16)
        assert np.array_equal(np.asarray(C) @ premeasurement_marginal(), np.zeros(NUM_EXPRESSIONS))
        born = density_behavior(premeasurement_state(), ALICE_PAIR, BOB_PAIR)
        ref = np.array(reference_doc["values"], dtype=float)
        for k in range(1, NUM_EXPRESSIONS + 1):
            assert behavior_value(k, born) == pytest.approx(0.0, abs=1e-9)
            assert ref[:, k - 1].mean() == pytest.approx(0.0, abs=1e-12)

    def test_conditional_states_recover_violation(self, default_class_map):
        # conditioning on the robot's outcome turns the zero-mean marginal
        # into a state reaching the algebraic maximum
        entry = default_class_map[3]
        born = dense_behavior(class_state(entry), ALICE_PAIR, BOB_PAIR)
        assert behavior_value(entry.matched_inequality, born) == pytest.approx(9.0, abs=1e-9)
