"""The swapping protocol: outcome statistics, class map, and marginals."""

import itertools

import numpy as np
import pytest
from oracle import (
    ALICE_PAIR,
    BELL_ORDER,
    BOB_PAIR,
    PHI_MINUS,
    PHI_PLUS,
    PRODUCT_LABELS,
    behavior_value,
    class_state,
    dense_behavior,
    dense_swap,
    density_behavior,
    identify_bell_product,
    is_pure,
    pauli_frame,
    premeasurement_state,
)

from nlbox.inequalities import NUM_EXPRESSIONS, C, matched_beta, product_counts
from nlbox.cli import BELL_CODES
from nlbox.swap import WEIGHT, class_map


class TestClassMap:
    def test_default_sources(self, default_class_map):
        assert len(default_class_map) == 16
        assert sorted(default_class_map) == list(range(NUM_EXPRESSIONS))
        assert WEIGHT == 1
        for row in default_class_map:
            assert matched_beta(row) == 144

    def test_other_sources_still_bijective(self):
        rows = class_map((PHI_MINUS, PHI_PLUS))
        assert sorted(rows) == list(range(NUM_EXPRESSIONS))
        for row in rows:
            assert matched_beta(row) == 144

    @pytest.mark.parametrize(
        "sources",
        list(itertools.product(BELL_ORDER, repeat=2)),
        ids=lambda s: f"{BELL_CODES[s[0]]}-{BELL_CODES[s[1]]}",
    )
    def test_frame_rule_matches_dense_collapse(self, sources):
        # the second route collapses the eight-qubit source state for every
        # robot outcome, in the oracle's own order of (r1, r2), and
        # identifies the reduced state exactly
        for row, (count, norm, rho) in zip(class_map(sources), dense_swap(sources), strict=True):
            assert 16 * count == WEIGHT * norm
            assert is_pure(rho, class_state(row))
            assert PRODUCT_LABELS[row] == identify_bell_product(rho)
            # the package's table row of the product is the Born behavior
            # of the collapsed state on Alice's (1, 3) and Bob's (6, 8)
            born, born_norm = density_behavior(rho, ALICE_PAIR, BOB_PAIR)
            np.testing.assert_array_equal(16 * born, born_norm * np.asarray(product_counts()[row]))

    def test_outcome_order(self):
        # class c = 4 r1 + r2 holds the robot's results (r1, r2); each swap
        # adds a source's frame to itself, so every class leaves its own row
        for sources in itertools.product(BELL_ORDER, repeat=2):
            assert class_map(sources) == tuple(range(16))

    def test_identify_rejects_mixed_state(self):
        with pytest.raises(RuntimeError, match="no Bell-state product"):
            identify_bell_product(premeasurement_state())


class TestPremeasurementMarginal:
    def test_maximally_mixed(self, premeasurement_marginal):
        # 256 p = 16 in every entry: uniformly random outcomes in every cell;
        # the oracle's mixture of dense class states is I/16 and has the
        # same Born behavior
        marginal = np.asarray(premeasurement_marginal)
        assert {type(v) for v in premeasurement_marginal} == {int}
        assert np.array_equal(marginal, np.full(144, 16))
        rho = premeasurement_state()
        np.testing.assert_array_equal(16 * rho.entries, rho.norm * np.eye(16, dtype=int))
        assert 16 * np.trace(rho.entries @ rho.entries) == rho.norm**2
        born, norm = density_behavior(rho, ALICE_PAIR, BOB_PAIR)
        np.testing.assert_array_equal(256 * born, norm * marginal)

    def test_every_expression_averages_to_zero(self, reference_doc, premeasurement_marginal):
        # three routes: the package's integer values, the oracle's value of
        # the Born behavior of its mixed state, and the reference table's
        # column means (each class contributes 1/16)
        assert np.array_equal(np.asarray(C) @ premeasurement_marginal, np.zeros(NUM_EXPRESSIONS))
        born, _ = density_behavior(premeasurement_state(), ALICE_PAIR, BOB_PAIR)
        ref = np.array(reference_doc["values"])
        for k in range(NUM_EXPRESSIONS):
            assert behavior_value(k, born) == 0
            assert ref[:, k].sum() == 0

    def test_conditional_states_recover_violation(self, default_class_map):
        # conditioning on the robot's outcome turns the zero-mean marginal
        # into a state reaching the algebraic maximum
        row = default_class_map[3]
        born, norm = dense_behavior(class_state(row), ALICE_PAIR, BOB_PAIR)
        assert behavior_value(row, born) == 9 * norm


class TestBellStates:
    def test_index_is_the_pauli_frame(self):
        # the package's state i is the frame (x, z) = divmod(i, 2)
        assert [pauli_frame(label) for label in BELL_ORDER] == [divmod(i, 2) for i in range(4)]
