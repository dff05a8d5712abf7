"""Sign tables, the coefficient matrix, and the sixteen expression values."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    MATCHED_PAIRS,
    PHI_PLUS,
    PRODUCT_LABELS,
    PSI_MINUS,
    SIGN_TABLES,
    Behavior,
    alice_kets,
    behavior_value,
    bell_product,
    born_values,
    bob_kets,
    bob_bit_conditionals,
    dense_behavior,
    four_qubit_product,
    masked_sign,
)

from nlbox import cli, inequalities
from nlbox.inequalities import (
    NUM_EXPRESSIONS,
    C,
    coefficient_rows,
    product_counts,
)


def matched_counts(row):
    """The package's behavior of product ``row`` in sixteenths."""
    return np.asarray(product_counts()[row])


def one_cell(behavior, cell):
    """The behavior with every cell but ``cell`` = 3x + y set to zero."""
    return np.where(np.arange(144) // 16 == cell, behavior, 0)


class TestMaskPattern:
    def test_values(self):
        # cell (i, j) masks Alice's outcome with mu(j) and Bob's with mu(i),
        # mu = (10, 01, 11), read through the oracle's masks on the labels
        block = np.asarray(coefficient_rows([((1, 1, 1),) * 3])[0]).reshape(3, 3, 4, 4)
        cells = {
            (0, 0): ("10", "10"), (1, 0): ("10", "01"), (0, 1): ("01", "10"),
            (2, 2): ("11", "11"), (1, 2): ("11", "01"),
        }
        for (i, j), (alice, bob) in cells.items():
            signs = [[masked_sign(o, mask) for o in range(4)] for mask in (alice, bob)]
            np.testing.assert_array_equal(block[i, j], np.outer(*signs), err_msg=f"cell {i}{j}")


class TestSignTables:
    def test_all_distinct_and_weight_nine(self):
        tables = np.asarray(SIGN_TABLES)
        flat = {tuple(tables[k].ravel()) for k in range(NUM_EXPRESSIONS)}
        assert len(flat) == NUM_EXPRESSIONS
        for k in range(NUM_EXPRESSIONS):
            assert np.abs(tables[k]).sum() == 9
            assert set(np.unique(tables[k])) <= {-1, 1}

    def test_mirror_pairs_flip_the_corner_block(self):
        # rows k and 15-k (expressions k+1 and 16-k) agree except on the
        # upper-left 2x2 block, which is negated
        block = np.zeros((3, 3), dtype=bool)
        block[:2, :2] = True
        for k in range(8):
            upper = np.asarray(SIGN_TABLES[k])
            lower = np.asarray(SIGN_TABLES[15 - k])
            assert np.array_equal(upper[block], -lower[block])
            assert np.array_equal(upper[~block], lower[~block])

    def test_frozen_examples(self):
        # row k is expression k + 1 of the paper
        np.testing.assert_array_equal(
            SIGN_TABLES[0], [[1, 1, 1], [1, 1, 1], [1, 1, -1]]
        )
        np.testing.assert_array_equal(
            SIGN_TABLES[15], [[-1, -1, 1], [-1, -1, 1], [1, 1, -1]]
        )
        np.testing.assert_array_equal(
            SIGN_TABLES[3], [[1, -1, -1], [-1, 1, -1], [-1, -1, -1]]
        )

    def test_index_bounds(self):
        # rows 0..15 are the sixteen expressions, and there is no other row
        assert len(SIGN_TABLES) == len(C) == len(product_counts()) == NUM_EXPRESSIONS

    def test_immutable(self):
        with pytest.raises(TypeError):
            SIGN_TABLES[0][0][0] = 5
        with pytest.raises(TypeError):
            C[0][0] = 5
        with pytest.raises(TypeError):
            product_counts()[0][0] = 0


class TestCoefficients:
    def test_shape_and_entries(self):
        assert np.asarray(C).shape == (NUM_EXPRESSIONS, 144)
        assert {type(v) for row in C for v in row} == {int}
        assert set(np.unique(C)) == {-1, 1}

    def test_row_accessor(self):
        # row k of C is the coefficient row of sign table k
        for k in range(NUM_EXPRESSIONS):
            assert C[k] == coefficient_rows([SIGN_TABLES[k]])[0]

    def test_cell_blocks_are_signed_mask_products(self):
        # the 16 entries of cell (x, y) are the sign times the two masked
        # bits, which a deterministic strategy picks one of
        for k in (0, 5, 15):
            block = np.asarray(C[k]).reshape(3, 3, 4, 4)
            signs = SIGN_TABLES[k]
            np.testing.assert_array_equal(block.sum(axis=(2, 3)), np.zeros((3, 3)))
            np.testing.assert_array_equal(block[:, :, 0, 0], signs)


class TestProductTable:
    def test_products_are_the_nonlocal_boxes(self):
        # 16 p(a, b | x, y) = C[k] + 1: product k is uniform over the 8 of
        # 16 outcome pairs per cell that win expression k
        assert {type(v) for row in product_counts() for v in row} == {int}
        assert np.array_equal(product_counts(), np.asarray(C) + 1)

    def test_counts_match_the_dense_projectors(self):
        # <psi| P_a (x) P_b |psi> with embedded dense projectors on the
        # labeled four-qubit product, all 16 products x 9 cells
        for row, (first, second) in enumerate(PRODUCT_LABELS):
            counts, norm = dense_behavior(four_qubit_product(first, second), *MATCHED_PAIRS)
            np.testing.assert_array_equal(16 * counts, norm * matched_counts(row))

    def test_a_flipped_pauli_sign_fails_verification(self, capsys, monkeypatch):
        # Bob's -YY is the table's one negative string; with +YY his third
        # setting is no longer a measurement and all 256 values change
        flipped = inequalities.BOB_PAULIS[:2] + (("ZZ", "XX", "YY"),)
        monkeypatch.setattr(inequalities, "BOB_PAULIS", flipped)
        product_counts.cache_clear()
        try:
            assert cli.main(["verify-table3", "--format", "json"]) == 1
            captured = capsys.readouterr()
            assert json.loads(captured.out)["matches"] == 0
            assert "256 of 256 values differ" in captured.err
        finally:
            product_counts.cache_clear()


class TestQuantumRoute:
    def test_reference_correlators_on_double_phi_plus(self):
        # a cell's value under expression 1, unsigned, is its correlator
        state = four_qubit_product(PHI_PLUS, PHI_PLUS)
        (born, norm), signs = dense_behavior(state, *MATCHED_PAIRS), SIGN_TABLES[0]
        assert signs[0][0] * behavior_value(0, one_cell(born, 0)) == norm
        assert signs[2][2] * behavior_value(0, one_cell(born, 8)) == -norm

    def test_matched_state_mapping(self):
        # row 3 of the table is PP x SM: the labeled product on (1,2) x (3,4)
        # with its axes moved to Alice's (1, 3) then Bob's (2, 4), measured
        # in the parties' kets without any embedding: p = <k_a k_b|psi>^2
        # over the three kets' squared norms
        labeled = four_qubit_product(PHI_PLUS, PSI_MINUS)
        assert labeled.labels == (1, 2, 3, 4)
        alice_major = labeled.amplitudes.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
        alice = np.array([alice_kets(x) for x in range(3)])
        bob = np.array([bob_kets(y) for y in range(3)])
        amps = np.einsum("xai,ybj,ij->xyab", alice, bob, alice_major.reshape(4, 4))
        alice_norms = np.einsum("xai,xai->xa", alice, alice)[:, None, :, None]
        bob_norms = np.einsum("ybj,ybj->yb", bob, bob)[None, :, None, :]
        norms = alice_norms * bob_norms * labeled.norm
        np.testing.assert_array_equal(
            16 * amps**2, norms * matched_counts(3).reshape(3, 3, 4, 4)
        )

    def test_full_value_table_matches_reference(self, reference_doc):
        # dense Born behaviors scored by sign tables and masks, independent
        # of the coefficient matrix
        values, norm = born_values()
        np.testing.assert_array_equal(values, norm * np.array(reference_doc["values"]))

    def test_reference_table_is_a_cayley_table(self, reference_doc):
        # product k scores expression j + 1 as product 0 scores expression
        # (k ^ j) + 1: the products and the expressions are one group of
        # sixteen relabelings, so every row is a permutation of the first
        values = reference_doc["values"]
        assert len(values) == NUM_EXPRESSIONS
        for k, row in enumerate(values):
            assert row == [values[0][k ^ j] for j in range(NUM_EXPRESSIONS)]
            assert sorted(row) == [-3] * 6 + [1] * 9 + [9]
            assert row[k] == 9

    def test_cellwise_saturation_on_matched_states(self):
        # on its matched state every signed correlator equals +1, not just
        # the sum
        for k in range(NUM_EXPRESSIONS):
            born, norm = dense_behavior(four_qubit_product(*PRODUCT_LABELS[k]), *MATCHED_PAIRS)
            for cell in range(9):
                assert behavior_value(k, one_cell(born, cell)) == norm

    def test_explicit_pairs_on_swap_layout(self):
        state = bell_product(PHI_PLUS, PHI_PLUS, (1, 6), (3, 8))
        swapped, norm = dense_behavior(state, (1, 3), (6, 8))
        assert behavior_value(0, swapped) == 9 * norm
        np.testing.assert_array_equal(16 * swapped, norm * matched_counts(0))
        assert swapped @ C[0] == 9 * norm


class TestBehaviorRoute:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            Behavior(np.zeros((3, 3, 4, 3), dtype=int))

    def test_normalization_validation(self):
        bad = np.ones((3, 3, 4, 4), dtype=int)
        bad[0, 0, 0, 0] += 1
        with pytest.raises(ValueError, match="normalized"):
            Behavior(bad)

    def test_negativity_validation(self):
        bad = np.ones((3, 3, 4, 4), dtype=int)
        bad[1, 1, 2, 2] -= 2
        bad[1, 1, 2, 3] += 2
        with pytest.raises(ValueError, match="negative"):
            Behavior(bad)

    def test_quantum_behaviors_are_nonsignaling(self):
        for row in (0, 6, 15):
            b = Behavior(matched_counts(row).reshape(3, 3, 4, 4))
            assert b.no_signaling_defect() == 0

    def test_uniform_behavior_scores_zero(self):
        uniform = Behavior(np.ones((3, 3, 4, 4), dtype=int))
        values = uniform.counts.reshape(144) @ np.asarray(C).T
        np.testing.assert_array_equal(values, np.zeros(NUM_EXPRESSIONS, dtype=int))

    def test_routes_agree_on_all_products(self):
        # the coefficient route, in sixteenths, and the dense Born route
        # must give the same 256 numbers
        sixteenths = np.asarray(product_counts()) @ np.asarray(C).T
        values, norm = born_values()
        np.testing.assert_array_equal(16 * values, norm * sixteenths)

    def test_correlator_routes_agree(self):
        # a cell's block of a coefficient row is the cell's signed masked
        # correlator
        born, norm = dense_behavior(four_qubit_product(*PRODUCT_LABELS[5]), *MATCHED_PAIRS)
        blocks = (np.asarray(C[0]) * matched_counts(5)).reshape(9, 16)
        for cell in range(9):
            assert norm * blocks[cell].sum() == 16 * behavior_value(0, one_cell(born, cell))

    def test_outcome_certainty_on_products(self):
        # either party's full outcome pins the other's masked bit: every
        # defined conditional is exactly 0 or 1
        for k in range(NUM_EXPRESSIONS):
            behavior = Behavior(matched_counts(k).reshape(3, 3, 4, 4))
            for i in range(3):
                for j in range(3):
                    cond = bob_bit_conditionals(behavior, i, j)
                    assert len(cond) > 0
                    assert all(plus in (0, total) for plus, total in cond)

    @settings(max_examples=25)
    @given(
        st.integers(0, NUM_EXPRESSIONS - 1),
        st.lists(
            st.lists(st.integers(0, 100), min_size=15, max_size=15), min_size=9, max_size=9
        ),
    )
    def test_algebraic_bound_on_random_behaviors(self, row, cuts):
        # each cell's 16 counts are the gaps between 15 cuts of 0..100, so
        # every cell holds the same total 100
        edges = np.concatenate([np.zeros((9, 1), int), np.sort(cuts), np.full((9, 1), 100)], 1)
        behavior = Behavior(np.diff(edges).reshape(3, 3, 4, 4))
        assert abs(behavior.counts.reshape(144) @ C[row]) <= 9 * 100
